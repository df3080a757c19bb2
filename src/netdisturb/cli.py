"""Command-line front end for reproducible estimation runs.

Subcommands
-----------
fit          fit every candidate structure to every period
select       AIC comparison across candidate structures
scan-cutoff  Moran's I scan over distance cutoffs
diagnose     residual diagnostics for one structure
simulate     generate a synthetic panel from a spec file

Runs are driven by a flat ``key = value`` config file (``#`` starts a
comment; relative paths resolve against the config file's directory), with
``--out``, ``--seed`` and ``--jobs`` flags overriding the file.  Every run
writes a ``manifest.json`` recording the config hash, the package and numpy
versions, and the seed; the fit/select/scan-cutoff/diagnose manifests also
record the SHA-256 of every input file under its config key, so a manifest
identifies the data as well as the config.  Reruns with the same config,
inputs and seed produce byte-identical artifacts.

Each run command walks the prepared periods once, in period order.  `fit`
writes each fit's estimates under ``--out`` as soon as it returns, then
each structure's ``coefficients.csv``, and last a ``fit_report.json``
carrying a ``fingerprint`` of the run: the package version, the config's
SHA-256 and the same ``input_sha256`` the manifest records.  `select` and
`diagnose` read the fits they need from there when that fingerprint
matches their own run, the report lists every candidate they need, and
each stored fit reads back; a pair the report lists as failed stays
failed, and a period it does not list is fit anew.  `select` only hashes
the input files, and parses none, when the fits are stored.  `diagnose`
forms a stored fit's residuals again from the period it loads, bit for bit
those `fit` computed, and `scan-cutoff` fits the ``rho0`` (OLS) residuals
of each period itself.  Otherwise they compute the fits as `fit` does, so
every command also runs on its own, with the same output either way.

Config keys (run commands)
--------------------------
edges, roster            input CSV paths
nodal.<name>             nodal covariate CSV for series <name>
dyadic.<name>            dyadic covariate CSV for series <name>
dyadic.<name>.symmetric  true/false (default true)
dyadic.<name>.default    value for absent dyads, not NaN (default: absent = error)
recipe                   comma list of [log:]<series>:<role> terms, with
                         role one of sender, receiver, dyadic, abs_diff
lag                      covariate lag in periods (default 2)
candidates               comma list of structure ids; a distance structure
                         carries its cutoff as kind:cutoff_km; `rho0` adds
                         the independent-errors (OLS) candidate.  Alliance
                         structures read dyadic.alliance, distance
                         structures and the scan read dyadic.distance
rho_interval             unit only (default): rho is searched over (-1, 1)
scan_direction           import | export (default import)
scan_grid                start:stop:step in km (default 0:20000:100)
smooth_window            odd moving-average window for weights (default 5;
                         0 disables the smoothed series)
diagnose_structure       structure id diagnosed by `diagnose`
out, seed                defaults for the corresponding flags
jobs                     1 only (default): fits run one at a time, in one thread

Simulation spec keys: n_nodes, n_periods, density, structure, rho, beta
(comma list), sigma, seed, lag, alliance_prob, disk_radius_km.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._serialize import write_json
from .covariates import (
    CovariateTerm,
    DEFAULT_LAG,
    build_design,
    impute_linear,
    load_dyadic_csv,
    load_nodal_csv,
)
from .diagnostics import (
    histogram,
    kde,
    node_values,
    qq_pairs,
    standardized_residuals,
    tradecorr_residuals,
    write_hist_csv,
    write_kde_csv,
    write_qq_csv,
    write_tradecorr_csv,
)
from .errors import ConfigError, NetdisturbError, WeightError
from .moran import scan_cutoffs, write_scan_csv, write_scan_json
from .panel import index_flows, load_panel, log_flow_vector
from .selection import (
    select,
    write_aggregated_csv,
    write_report_json,
    write_weights_csv,
)
from .sem import (
    SemProblem,
    fit,
    fit_from_dict,
    fit_ols,
    residuals,
    write_coefficients_csv,
    write_fit_json,
)
from .simulate import SimSpec, simulate, write_sim_csvs
from .weights import DISTANCE_KINDS, KINDS, NeighborhoodSpec, build_weight_matrix

OLS_CANDIDATE = "rho0"


def parse_config(path) -> dict[str, str]:
    """Parse a flat key = value file; errors carry path and line number."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _parse_typed(values, key, kind, default):
    if key not in values:
        return default
    text = values[key]
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"config key {key!r}: bad value {text!r}") from None


def parse_candidate(token: str):
    """One candidates entry: a structure kind, kind:cutoff_km, or rho0."""
    token = token.strip()
    if token == OLS_CANDIDATE:
        return OLS_CANDIDATE
    kind, _, cutoff = token.partition(":")
    if kind not in KINDS:
        raise ConfigError(
            f"unknown candidate {token!r}; expected one of {', '.join(KINDS)} "
            f"or {OLS_CANDIDATE}"
        )
    if kind in DISTANCE_KINDS:
        if not cutoff:
            raise ConfigError(f"candidate {token!r} needs a cutoff, e.g. {kind}:1100")
        try:
            return NeighborhoodSpec(kind, cutoff_km=float(cutoff))
        except ValueError:
            raise ConfigError(f"candidate {token!r}: bad cutoff {cutoff!r}") from None
        except WeightError as exc:
            raise ConfigError(f"candidate {token!r}: {exc}") from None
    if cutoff:
        raise ConfigError(f"candidate {token!r}: only distance kinds take a cutoff")
    return NeighborhoodSpec(kind)


def parse_recipe(text: str) -> tuple[CovariateTerm, ...]:
    terms = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        parts = token.split(":")
        transform = "none"
        if parts[0] == "log":
            transform = "log"
            parts = parts[1:]
        if len(parts) != 2:
            raise ConfigError(
                f"recipe term {token!r}: expected [log:]<series>:<role>"
            )
        series, role = parts
        try:
            terms.append(CovariateTerm(series, role, transform))
        except NetdisturbError as exc:
            raise ConfigError(f"recipe term {token!r}: {exc}") from None
    if not terms:
        raise ConfigError("recipe is empty")
    return tuple(terms)


def parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"scan_grid {text!r}: expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"scan_grid {text!r}: bad number") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"scan_grid {text!r}: bad number")
    if step <= 0 or stop < start:
        raise ConfigError(f"scan_grid {text!r}: need stop >= start and step > 0")
    return np.arange(start, stop + step / 2.0, step)


@dataclass
class DyadicFile:
    path: Path
    symmetric: bool = True
    default: float | None = None


@dataclass
class RunConfig:
    """Validated configuration for the fit/select/scan/diagnose commands."""

    config_path: Path
    config_sha256: str
    edges: Path
    roster: Path
    nodal: dict[str, Path]
    dyadic: dict[str, DyadicFile]
    recipe: tuple[CovariateTerm, ...]
    lag: int
    candidates: list
    out: Path
    seed: int
    scan_direction: str
    scan_grid: np.ndarray
    smooth_window: int
    diagnose_structure: NeighborhoodSpec | None = None

    @functools.cached_property
    def fingerprint(self) -> dict:
        """What the run's fits depend on: package version, config and input hashes.

        The input hashes are keyed by config key (``edges``,
        ``nodal.<name>``, ...), not by path, so a rerun from another
        directory gives the same bytes.  Each file is hashed once per
        RunConfig.
        """
        inputs = {"edges": self.edges, "roster": self.roster}
        inputs.update({f"nodal.{name}": path for name, path in self.nodal.items()})
        inputs.update({f"dyadic.{name}": entry.path for name, entry in self.dyadic.items()})
        return {
            "package_version": __version__,
            "config_sha256": self.config_sha256,
            "input_sha256": {key: _sha256(path) for key, path in sorted(inputs.items())},
        }


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(text)


KNOWN_SCALAR_KEYS = {
    "edges", "roster", "recipe", "lag", "candidates", "rho_interval", "out", "seed",
    "jobs", "scan_direction", "scan_grid", "smooth_window", "diagnose_structure",
}


def load_run_config(path, out=None, seed=None, jobs=None) -> RunConfig:
    """Read, type and validate a run config; flags override file values."""
    path = Path(path)
    values = parse_config(path)
    base = path.parent

    for key in values:
        if key in KNOWN_SCALAR_KEYS or key.startswith(("nodal.", "dyadic.")):
            continue
        raise ConfigError(f"unknown config key {key!r}")

    def resolve(text):
        candidate = Path(text)
        return candidate if candidate.is_absolute() else base / candidate

    for required in ("edges", "roster"):
        if required not in values:
            raise ConfigError(f"config is missing required key {required!r}")

    nodal = {}
    dyadic: dict[str, DyadicFile] = {}
    for key, value in values.items():
        if key.startswith("nodal."):
            nodal[key[len("nodal."):]] = resolve(value)
        elif key.startswith("dyadic."):
            rest = key[len("dyadic."):]
            name, _, attr = rest.partition(".")
            entry = dyadic.setdefault(name, DyadicFile(path=Path()))
            if not attr:
                entry.path = resolve(value)
            elif attr == "symmetric":
                try:
                    entry.symmetric = _parse_bool(value)
                except ValueError:
                    raise ConfigError(
                        f"config key {key!r}: expected true/false, got {value!r}"
                    ) from None
            elif attr == "default":
                entry.default = _parse_typed({key: value}, key, float, None)
                if math.isnan(entry.default):  # an absent pair would read as present
                    raise ConfigError(f"config key {key!r}: a default must be a number, got {value!r}")
            else:
                raise ConfigError(f"unknown dyadic attribute in key {key!r}")
    for name, entry in dyadic.items():
        if entry.path == Path():
            raise ConfigError(f"dyadic.{name} has attributes but no file path")

    candidates = [
        parse_candidate(token)
        for token in filter(None, (t.strip() for t in values.get("candidates", "").split(",")))
    ]
    if not candidates:
        raise ConfigError("config needs at least one entry in 'candidates'")
    ids = [c if isinstance(c, str) else c.structure_id for c in candidates]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate candidates: {ids}")

    recipe = parse_recipe(values["recipe"]) if "recipe" in values else None
    if recipe is None:
        raise ConfigError("config is missing required key 'recipe'")

    rho_interval = values.get("rho_interval", "unit")
    if rho_interval != "unit":
        raise ConfigError(
            f"rho_interval {rho_interval!r}: the spectral policy was removed; rho is "
            f"searched over (-1, 1), so rho_interval must be unit or left out"
        )
    scan_direction = values.get("scan_direction", "import")
    if scan_direction not in ("import", "export"):
        raise ConfigError(f"scan_direction must be import or export, got {scan_direction!r}")

    lag = _parse_typed(values, "lag", int, DEFAULT_LAG)
    if lag < 0:
        raise ConfigError(f"lag must be >= 0, got {lag}")

    smooth_window = _parse_typed(values, "smooth_window", int, 5)
    if smooth_window < 0 or (smooth_window > 0 and smooth_window % 2 == 0):
        raise ConfigError(
            f"smooth_window must be 0 (disabled) or a positive odd integer, "
            f"got {smooth_window}"
        )

    diagnose_structure = None
    if "diagnose_structure" in values:
        parsed = parse_candidate(values["diagnose_structure"])
        if parsed == OLS_CANDIDATE:
            raise ConfigError("diagnose_structure must be a dependence structure, not rho0")
        diagnose_structure = parsed

    jobs = jobs if jobs is not None else _parse_typed(values, "jobs", int, 1)
    if jobs != 1:
        raise ConfigError(f"jobs must be 1, got {jobs}: fits run one at a time, in one thread")

    config = RunConfig(
        config_path=path,
        config_sha256=_sha256(path),
        edges=resolve(values["edges"]),
        roster=resolve(values["roster"]),
        nodal=nodal,
        dyadic=dyadic,
        recipe=recipe,
        lag=lag,
        candidates=candidates,
        out=Path(out) if out is not None else resolve(values.get("out", "out")),
        seed=seed if seed is not None else _parse_typed(values, "seed", int, 0),
        scan_direction=scan_direction,
        scan_grid=parse_grid(values["scan_grid"]) if "scan_grid" in values else None,
        smooth_window=smooth_window,
        diagnose_structure=diagnose_structure,
    )

    for label, file_path in [("edges", config.edges), ("roster", config.roster)]:
        if not file_path.is_file():
            raise ConfigError(f"{label} file does not exist: {file_path}")
    for name, file_path in config.nodal.items():
        if not file_path.is_file():
            raise ConfigError(f"nodal.{name} file does not exist: {file_path}")
    for name, entry in config.dyadic.items():
        if not entry.path.is_file():
            raise ConfigError(f"dyadic.{name} file does not exist: {entry.path}")
    return config


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(
    out: Path, command: str, config_path: Path, config_sha256: str, **fields
) -> None:
    """Write ``manifest.json``: command, config identity, versions, then ``fields``."""
    manifest = {
        "command": command,
        "config_file": config_path.name,
        "config_sha256": config_sha256,
        "package_version": __version__,
        "numpy_version": np.__version__,
        **fields,
    }
    write_json(out / "manifest.json", manifest)


def _write_run_manifest(config: RunConfig, command: str, **fields) -> None:
    """A run command's manifest, with the SHA-256 of every input file."""
    _write_manifest(
        config.out, command, config.config_path, config.config_sha256,
        seed=config.seed,
        input_sha256=config.fingerprint["input_sha256"],
        **fields,
    )


@dataclass(eq=False)
class PeriodData:
    """One prepared period, with the dyadic series its command loaded."""

    period: int
    index: object
    design: object
    y: np.ndarray
    dyadic: dict


def _periods(config, structures, skipped=None):
    """Yield each prepared period in period order.

    Reads the panel, every nodal series, and the dyadic series read by
    ``structures`` or the recipe; ``input_sha256`` still hashes every
    input, but a dyadic entry that neither reads is not loaded.  A period
    whose design fails is warned about, listed in ``skipped`` and passed
    over.
    """
    read = {term.series for term in config.recipe if term.role == "dyadic"}
    read.update(s.dyadic_series for s in structures if s != OLS_CANDIDATE)
    panel = load_panel(config.edges, config.roster)
    nodal = [
        impute_linear(load_nodal_csv(path, name))
        for name, path in sorted(config.nodal.items())
    ]
    dyadic = {
        name: load_dyadic_csv(entry.path, name, entry.symmetric, entry.default)
        for name, entry in sorted(config.dyadic.items())
        if name in read
    }
    for snapshot in panel:
        index = index_flows(snapshot)
        try:
            design = build_design(
                snapshot, index, nodal, list(dyadic.values()), recipe=config.recipe,
                lag=config.lag,
            )
        except NetdisturbError as exc:
            if skipped is not None:
                skipped.append({"period": snapshot.period, "reason": str(exc)})
            warnings.warn(f"period {snapshot.period} skipped: {exc}")
            continue
        yield PeriodData(snapshot.period, index, design, log_flow_vector(snapshot, index), dyadic)


def _require_series(config, structures, reader=None) -> None:
    """Reject, before any input is read, a structure whose dyadic series the config lacks."""
    for structure in structures:
        name = None if structure == OLS_CANDIDATE else structure.dyadic_series
        if name is not None and name not in config.dyadic:
            raise ConfigError(
                f"{reader or 'structure ' + structure.structure_id} needs dyadic series "
                f"{name!r}; add a dyadic.{name} entry to the config"
            )


def _outcome(data: PeriodData, candidate, stored=None):
    """The fit of ``candidate`` to one period, or the text of the error that stopped it.

    ``stored`` (from :func:`_stored_fits`) gives the outcome where it holds
    the pair; with it comes the weight matrix of a fit computed here, else None.
    """
    key = (data.period, _candidate_id(candidate))
    if stored is not None and key in stored:
        return stored[key], None
    try:
        if candidate == OLS_CANDIDATE:
            return fit_ols(SemProblem(y=data.y, X=data.design)), None
        weight = build_weight_matrix(candidate, data.index, data.dyadic.get(candidate.dyadic_series))
        return fit(SemProblem(y=data.y, X=data.design, W=weight)), weight
    except NetdisturbError as exc:
        return str(exc), None


def _stored_fits(config, candidates):
    """The outcomes `fit` stored in ``config.out`` for this run, or None.

    A mapping (period, candidate id) -> SemFit or error text over the
    periods the report lists, in period order, as :func:`_outcome` gives
    them.  None unless ``fit_report.json`` carries this run's fingerprint
    and lists every one of ``candidates``, and each stored fit of theirs
    reads back.  Only the candidates' own files are read.
    """
    ids = [_candidate_id(candidate) for candidate in candidates]
    try:
        report = json.loads((config.out / "fit_report.json").read_text(encoding="utf-8"))
        if report["fingerprint"] != config.fingerprint or not set(ids) <= set(report["candidates"]):
            return None
        failed = {(f["period"], f["structure"]): f["error"] for f in report["failures"]}
        outcomes = {}
        for period in report["periods_fitted"]:
            for cand_id in ids:
                if (period, cand_id) in failed:
                    outcomes[period, cand_id] = failed[period, cand_id]
                    continue
                path = config.out / "fits" / cand_id / f"period_{period}.json"
                outcomes[period, cand_id] = fit_from_dict(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, LookupError, TypeError):
        return None
    return outcomes


def _candidate_id(candidate) -> str:
    return candidate if isinstance(candidate, str) else candidate.structure_id


def candidate_ids(config) -> list[str]:
    return [_candidate_id(candidate) for candidate in config.candidates]


def cmd_fit(config: RunConfig) -> int:
    # Check the series and hash the inputs before reading them, and drop the
    # old report before any fit file is rewritten, so a report never vouches
    # for other data.
    _require_series(config, config.candidates)
    fingerprint = config.fingerprint
    (config.out / "fit_report.json").unlink(missing_ok=True)
    ids = candidate_ids(config)
    entries = {cand_id: [] for cand_id in ids}
    periods, skipped, failures = [], [], []
    for data in _periods(config, config.candidates, skipped):
        periods.append(data.period)
        for candidate, cand_id in zip(config.candidates, ids):
            outcome = _outcome(data, candidate)[0]  # drops the weight matrix at once
            if isinstance(outcome, str):
                failures.append({"period": data.period, "structure": cand_id, "error": outcome})
                continue
            write_fit_json(config.out / "fits" / cand_id / f"period_{data.period}.json", outcome)
            entries[cand_id].append((data.period, cand_id, outcome))
    for cand_id, rows in entries.items():
        if rows:
            write_coefficients_csv(config.out / "fits" / cand_id / "coefficients.csv", rows)

    write_json(
        config.out / "fit_report.json",
        {
            "periods_fitted": periods,
            "skipped_periods": skipped,
            "failures": failures,
            "candidates": ids,
            "fingerprint": fingerprint,
        },
    )
    _write_run_manifest(config, "fit")
    for failure in failures:
        print(
            f"fit failed for period {failure['period']} / {failure['structure']}: "
            f"{failure['error']}",
            file=sys.stderr,
        )
    return 0


def cmd_select(config: RunConfig) -> int:
    # Stored fits need neither the inputs nor the periods' designs.
    _require_series(config, config.candidates)
    outcomes = _stored_fits(config, config.candidates)
    if outcomes is None:
        outcomes = {
            (data.period, _candidate_id(candidate)): _outcome(data, candidate)[0]
            for data in _periods(config, config.candidates)
            for candidate in config.candidates
        }
    fits = {key: o for key, o in outcomes.items() if not isinstance(o, str)}
    failed = {key: o for key, o in outcomes.items() if isinstance(o, str)}
    try:
        report = select(fits, structures=candidate_ids(config), failures=failed)
    except ValueError as exc:
        raise NetdisturbError(str(exc)) from None
    write_aggregated_csv(config.out / "aggregated.csv", report)
    write_weights_csv(config.out / "weights.csv", report)
    if config.smooth_window > 0:
        write_weights_csv(
            config.out / "weights_smoothed.csv", report,
            smoothed_window=config.smooth_window,
        )
    write_report_json(config.out / "selection.json", report)
    _write_run_manifest(config, "select", winner=report.winner)
    print(f"winner: {report.winner}")
    for structure, delta in zip(report.structures, report.aggregated_delta):
        print(f"  {structure}: aggregated delta {delta:.3f}")
    if failed:
        print(f"{len(failed)} fit failure(s); see stderr", file=sys.stderr)
    return 0


def cmd_scan(config: RunConfig) -> int:
    # The scanned kind reads one series at every cutoff; inf only names the kind.
    scanned = NeighborhoodSpec(f"distance_{config.scan_direction}", cutoff_km=math.inf)
    _require_series(config, [scanned], "scan")
    ols_residuals, indices, distances = {}, {}, None
    for data in _periods(config, [scanned]):
        problem = SemProblem(y=data.y, X=data.design)
        ols_residuals[data.period] = residuals(problem, fit_ols(problem).beta_hat)[0]
        indices[data.period] = data.index
        distances = data.dyadic[scanned.dyadic_series]
    scan = scan_cutoffs(
        ols_residuals,
        indices,
        distances,
        direction=config.scan_direction,
        grid=config.scan_grid,
    )
    write_scan_csv(config.out / "scan.csv", scan)
    write_scan_json(config.out / "scan.json", scan)
    _write_run_manifest(config, "scan-cutoff", best_cutoff_km=scan.best_cutoff)
    print(f"best cutoff: {scan.best_cutoff:g} km (Moran's I = {scan.best_value:.6f})")
    return 0


def cmd_diagnose(config: RunConfig) -> int:
    structure = config.diagnose_structure
    if structure is None:
        raise ConfigError("diagnose needs a 'diagnose_structure' config entry")
    _require_series(config, [structure])
    stored = _stored_fits(config, [structure])
    pooled = []
    tradecorr_items = []
    failures = []
    for data in _periods(config, [structure]):
        result, weight = _outcome(data, structure, stored)
        if isinstance(result, str):
            failures.append({"period": data.period, "error": result})
            continue
        if not result.converged or result.degenerate:
            error = "fit is degenerate" if result.converged else "fit did not converge"
            failures.append({"period": data.period, "error": error})
            continue
        if weight is None:  # a stored fit comes without its W
            weight = build_weight_matrix(structure, data.index, data.dyadic.get(structure.dyadic_series))
        problem = SemProblem(y=data.y, X=data.design, W=weight)
        u_hat = residuals(problem, result.beta_hat)[0]
        # One W u_hat per period: eps_hat = u_hat - rho W u_hat, the spillover residuals.
        tradecorr_items.append(tradecorr_residuals(result, u_hat, weight, data.index))
        pooled.append(standardized_residuals(result, u_hat - tradecorr_items[-1].values))

    if not pooled:
        raise NetdisturbError("no period produced a usable fit to diagnose")
    standardized = np.concatenate(pooled)
    theoretical, empirical = qq_pairs(standardized)
    write_qq_csv(config.out / "qq.csv", theoretical, empirical)
    write_hist_csv(config.out / "hist.csv", histogram(standardized))
    write_tradecorr_csv(config.out / "tradecorr.csv", tradecorr_items)

    curves = [
        kde(values, node_id=node)
        for node, values in node_values(tradecorr_items).items()
        if np.unique(values).size >= 2
    ]
    write_kde_csv(config.out / "kde.csv", curves)
    _write_run_manifest(
        config, "diagnose", structure=structure.structure_id, failures=failures
    )
    print(
        f"diagnosed {len(tradecorr_items)} period(s) under {structure.structure_id}; "
        f"{len(curves)} node density curves"
    )
    return 0


def load_sim_spec(path, seed=None) -> SimSpec:
    values = parse_config(path)
    known = {
        "n_nodes", "n_periods", "density", "structure", "rho", "beta",
        "sigma", "seed", "lag", "alliance_prob", "disk_radius_km",
    }
    for key in values:
        if key not in known:
            raise ConfigError(f"unknown simulation key {key!r}")
    for required in ("n_nodes", "n_periods", "density", "structure", "rho", "beta", "sigma"):
        if required not in values:
            raise ConfigError(f"simulation spec is missing key {required!r}")
    structure = parse_candidate(values["structure"])
    if structure == OLS_CANDIDATE:
        raise ConfigError("simulation structure must be a dependence structure")
    try:
        beta = tuple(float(b) for b in values["beta"].split(","))
    except ValueError:
        raise ConfigError(f"bad beta list {values['beta']!r}") from None
    try:
        return SimSpec(
            n_nodes=_parse_typed(values, "n_nodes", int, None),
            n_periods=_parse_typed(values, "n_periods", int, None),
            density=_parse_typed(values, "density", float, None),
            structure=structure,
            rho=_parse_typed(values, "rho", float, None),
            beta=beta,
            sigma=_parse_typed(values, "sigma", float, None),
            seed=seed if seed is not None else _parse_typed(values, "seed", int, 0),
            lag=_parse_typed(values, "lag", int, 0),
            alliance_prob=_parse_typed(values, "alliance_prob", float, 0.3),
            disk_radius_km=_parse_typed(values, "disk_radius_km", float, 3000.0),
        )
    except NetdisturbError as exc:
        raise ConfigError(f"invalid simulation spec: {exc}") from None


def cmd_simulate(spec_path, out, seed=None) -> int:
    spec = load_sim_spec(spec_path, seed=seed)
    result = simulate(spec)
    outdir = Path(out)
    write_sim_csvs(result, outdir)
    spec_path = Path(spec_path)
    _write_manifest(outdir, "simulate", spec_path, _sha256(spec_path), seed=spec.seed)
    total = sum(s.n_flows for s in result.panel)
    print(f"simulated {len(result.panel)} period(s), {total} flows -> {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netdisturb",
        description="Network disturbance models over panels of directed weighted networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="run config file")
        cmd.add_argument("--out", help="output directory (overrides config)")
        cmd.add_argument("--seed", type=int, help="seed recorded in the manifest")
        cmd.add_argument("--jobs", type=int, help="fit workers: 1 only")
        return cmd

    add_run_command("fit", "fit every candidate structure per period")
    add_run_command("select", "compare candidate structures by AIC")
    add_run_command("scan-cutoff", "scan distance cutoffs by Moran's I")
    add_run_command("diagnose", "residual diagnostics for one structure")

    sim = sub.add_parser("simulate", help="generate a synthetic panel")
    sim.add_argument("--spec", required=True, help="simulation spec file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, help="override the spec's seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.spec, args.out, seed=args.seed)
        config = load_run_config(
            args.config, out=args.out, seed=args.seed, jobs=args.jobs
        )
        handler = {
            "fit": cmd_fit,
            "select": cmd_select,
            "scan-cutoff": cmd_scan,
            "diagnose": cmd_diagnose,
        }[args.command]
        return handler(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NetdisturbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
