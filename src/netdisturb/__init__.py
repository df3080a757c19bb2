"""Network disturbance models for panels of directed weighted networks.

Fit spatial-error regressions whose disturbances correlate along a
flow-dependence graph, compare candidate dependence structures by AIC and
Akaike weights, pick distance cutoffs by Moran's I, and generate synthetic
panels from the exact model for validation.
"""

from .covariates import (
    CovariateTerm,
    DEFAULT_LAG,
    DEFAULT_RECIPE,
    DesignMatrix,
    DyadicSeries,
    NodalSeries,
    build_design,
    impute_linear,
    load_dyadic_csv,
    load_nodal_csv,
)
from .diagnostics import (
    DensityCurve,
    HistogramData,
    TradecorrResiduals,
    histogram,
    kde,
    node_values,
    qq_pairs,
    standardized_residuals,
    tradecorr_residuals,
)
from .errors import (
    ConfigError,
    CovariateError,
    EstimationError,
    NetdisturbError,
    PanelError,
    WeightError,
)
from .moran import CutoffScan, morans_i, scan_cutoffs
from .panel import (
    FlowIndex,
    NetworkSnapshot,
    NodeRoster,
    RosterEntry,
    index_flows,
    load_panel,
    load_roster,
    log_flow_vector,
)
from .selection import (
    SelectionReport,
    akaike_weights,
    select,
    smooth_weights,
)
from .sem import (
    SemFit,
    SemProblem,
    fit,
    fit_ols,
    log_det,
    profile_loglik,
    spectrum,
)
from .simulate import SimResult, SimSpec, draw_disturbances, simulate, write_sim_csvs
from .weights import (
    KINDS,
    DenseWeight,
    NeighborhoodSpec,
    WeightMatrix,
    build_weight_matrix,
    neighborhood,
)

__version__ = "0.1.0"

__all__ = [
    "CovariateTerm",
    "DEFAULT_LAG",
    "DEFAULT_RECIPE",
    "DesignMatrix",
    "DyadicSeries",
    "NodalSeries",
    "build_design",
    "impute_linear",
    "load_dyadic_csv",
    "load_nodal_csv",
    "DensityCurve",
    "HistogramData",
    "TradecorrResiduals",
    "histogram",
    "kde",
    "node_values",
    "qq_pairs",
    "standardized_residuals",
    "tradecorr_residuals",
    "ConfigError",
    "CovariateError",
    "EstimationError",
    "NetdisturbError",
    "PanelError",
    "WeightError",
    "CutoffScan",
    "morans_i",
    "scan_cutoffs",
    "FlowIndex",
    "NetworkSnapshot",
    "NodeRoster",
    "RosterEntry",
    "index_flows",
    "load_panel",
    "load_roster",
    "log_flow_vector",
    "SelectionReport",
    "akaike_weights",
    "select",
    "smooth_weights",
    "SemFit",
    "SemProblem",
    "fit",
    "fit_ols",
    "log_det",
    "profile_loglik",
    "spectrum",
    "SimResult",
    "SimSpec",
    "draw_disturbances",
    "simulate",
    "write_sim_csvs",
    "KINDS",
    "DenseWeight",
    "NeighborhoodSpec",
    "WeightMatrix",
    "build_weight_matrix",
    "neighborhood",
    "__version__",
]
