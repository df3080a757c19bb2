"""Exception types raised across the package."""


class NetdisturbError(Exception):
    """Base class for all errors raised by this package."""


class PanelError(NetdisturbError):
    """Invalid network panel data (edges, roster, flow index)."""


class CovariateError(NetdisturbError):
    """Missing or malformed covariate data, or an invalid design recipe."""


class WeightError(NetdisturbError):
    """A dependence structure could not be built from the available context."""


class EstimationError(NetdisturbError):
    """Hard failure during model estimation (singular design, a pole of the log-determinant)."""


class ConfigError(NetdisturbError):
    """Unparseable or inconsistent run configuration."""
