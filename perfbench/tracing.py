"""Span recording around netdisturb's public functions, and the per-layer metrics.

A :class:`Tracer` replaces a function at the module attribute its caller
resolves (``netdisturb.cli.fit``, ``netdisturb.sem.spectrum``, ...) with a
wrapper that records a span: name, start, end, parent, and counters taken
from the arguments and the result after the span has closed.  Spans stay
in memory until the traced process writes them out.  Nothing under
``src/`` is edited; a patch target the program no longer has is skipped
and listed, so the layer it measured reads 0.
"""

from __future__ import annotations

import importlib
import json
import time

import numpy as np


def _matrix_n(W) -> int:
    n = getattr(W, "n", None)
    return int(n) if n is not None else int(np.shape(W)[0])


def _weight_counters(args, kwargs, result):
    entries = np.asarray(getattr(result, "entries", result))
    return {"n": int(entries.shape[0]), "nnz": int(np.count_nonzero(entries))}


def _spectrum_counters(args, kwargs, result):
    return {"n": _matrix_n(args[0] if args else kwargs["W"])}


def _fit_counters(args, kwargs, result):
    return {"converged": bool(result.converged)}


def _scan_counters(args, kwargs, result):
    residuals = args[0] if args else kwargs["residuals"]
    grid_points = int(np.size(result.grid))
    pairs = sum(int(np.size(z)) ** 2 for z in residuals.values())
    return {"grid_points": grid_points, "pairs": pairs * grid_points}


WRITERS = (
    "write_json", "write_fit_json", "write_coefficients_csv", "write_aggregated_csv",
    "write_weights_csv", "write_report_json", "write_scan_csv", "write_scan_json",
    "write_qq_csv", "write_hist_csv", "write_tradecorr_csv", "write_kde_csv",
)

# (module, attribute, span name, counters).  Each entry wraps the function
# where its caller looks it up, so the same function imported into two
# modules is patched in both.
PATCHES = (
    ("netdisturb.cli", "load_panel", "panel.load", None),
    ("netdisturb.cli", "index_flows", "panel.index", None),
    ("netdisturb.cli", "log_flow_vector", "panel.index", None),
    ("netdisturb.cli", "load_nodal_csv", "covariates.load", None),
    ("netdisturb.cli", "load_dyadic_csv", "covariates.load", None),
    ("netdisturb.cli", "impute_linear", "covariates.load", None),
    ("netdisturb.cli", "build_design", "covariates.build_design", None),
    ("netdisturb.simulate", "build_design", "covariates.build_design", None),
    ("netdisturb.cli", "build_weight_matrix", "weights.build", _weight_counters),
    ("netdisturb.simulate", "build_weight_matrix", "weights.build", _weight_counters),
    ("netdisturb.sem", "spectrum", "sem.spectrum", _spectrum_counters),
    ("netdisturb.simulate", "spectrum", "sem.spectrum", _spectrum_counters),
    ("netdisturb.sem", "log_det", "sem.log_det", None),
    ("netdisturb.cli", "fit", "sem.fit", _fit_counters),
    ("netdisturb.sem", "fit", "sem.fit", _fit_counters),
    ("netdisturb.cli", "fit_ols", "sem.fit_ols", None),
    ("netdisturb.cli", "select", "selection.select", None),
    ("netdisturb.cli", "scan_cutoffs", "moran.scan", _scan_counters),
    ("netdisturb.cli", "tradecorr_residuals", "diagnostics.tradecorr", None),
    ("netdisturb.cli", "kde", "diagnostics.kde", None),
    ("netdisturb.cli", "qq_pairs", "diagnostics.qq_hist", None),
    ("netdisturb.cli", "histogram", "diagnostics.qq_hist", None),
    ("netdisturb.cli", "simulate", "simulate.simulate", None),
    ("netdisturb.simulate", "simulate", "simulate.simulate", None),
    ("netdisturb.simulate", "draw_disturbances", "simulate.draw", None),
    ("netdisturb.cli", "write_sim_csvs", "simulate.write_csvs", None),
) + tuple(("netdisturb.cli", name, "serialize.write", None) for name in WRITERS)


class Tracer:
    """Records nested spans of one single-threaded process.

    ``overhead_s`` accumulates the time the tracer itself takes while the
    process runs: patching, and in each wrapped call everything but the
    call (span bookkeeping and counters).  Writing the spans out at the end
    is not included.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "attrs": {}}
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name, func, args=(), kwargs=None, counters=None):
        entered = time.perf_counter()
        kwargs = kwargs or {}
        idx = self.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            self.close(idx)
        span = self.spans[idx]
        if counters is not None:
            span["attrs"] = counters(args, kwargs, result)
        self.overhead_s += (span["start"] - entered) + (time.perf_counter() - span["end"])
        return result

    def install(self, patches=PATCHES) -> None:
        started = time.perf_counter()
        for module_name, attr, name, counters in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue

            def wrapper(*args, _name=name, _func=original, _counters=counters, **kwargs):
                return self.call(_name, _func, args, kwargs, _counters)

            setattr(module, attr, wrapper)
        self.overhead_s += time.perf_counter() - started

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing, "overhead_s": self.overhead_s}, fh)


# ----------------------------------------------------------------------------
# Span arithmetic


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [
        (s["end"] - s["start"]) - covered_length(children[k], s["start"], s["end"])
        for k, s in enumerate(spans)
    ]


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile, at or above the median, with at least ten
    samples beyond it; None when there are fewer than twenty samples."""
    if count < 20:
        return None
    return 100 * (count - 10) // count


def percentile_summary(values) -> dict:
    """Median, tail percentile (see `tail_percentile`; the maximum when there
    is none) and sample count."""
    values = np.asarray(values, dtype=float)
    pct = tail_percentile(values.size)
    return {
        "p50": float(np.median(values)) if values.size else 0.0,
        "tail_pct": pct,
        "tail": float(np.percentile(values, pct)) if pct is not None else float(np.max(values, initial=0.0)),
        "count": int(values.size),
    }


# ----------------------------------------------------------------------------
# Per-layer metrics

PIPELINE_STAGES = ("simulate", "fit", "select", "scan", "diagnose")
MIB = 1024.0 * 1024.0


def layer_metrics(processes, artifact_bytes: int, artifact_files: int) -> dict:
    """Per-layer metrics of one traced unit of work.

    ``processes`` is a list of dicts with ``stage`` (a pipeline stage name
    or ``study``), ``spans``, ``peak_rss_mb``, ``wall_s`` and the tracer's
    own ``overhead_s`` (see :class:`Tracer`).  Sums run over
    every traced process; ``sem.spectra_per_fit`` counts only processes
    that fit, and the ``serialize`` metrics only the analysis stages.
    Returns name -> (value, unit).
    """
    spans = [(p["stage"], s) for p in processes for s in p["spans"]]
    selfs = {}
    for p in processes:
        for s, t in zip(p["spans"], self_times(p["spans"])):
            selfs[id(s)] = t

    def pick(name, stages=None):
        return [s for stage, s in spans if s["name"] == name and (stages is None or stage in stages)]

    def dur(items):
        return float(sum(s["end"] - s["start"] for s in items))

    def attr(items, key):
        return sum(s["attrs"].get(key, 0) for s in items)

    weights = pick("weights.build")
    spectra = pick("sem.spectrum")
    fits = pick("sem.fit")
    log_dets = pick("sem.log_det")
    scans = pick("moran.scan")
    n_fits = len(fits)
    fitting = {p["stage"] for p in processes if any(s["name"] == "sem.fit" for s in p["spans"])}
    spectra_in_fitting = len(pick("sem.spectrum", fitting))
    nnz = attr(weights, "nnz")
    cells = sum(s["attrs"].get("n", 0) ** 2 for s in weights)
    fit_ms = percentile_summary([1000.0 * (s["end"] - s["start"]) for s in fits])
    grid_points = attr(scans, "grid_points")
    analysis = [st for st in PIPELINE_STAGES if st != "simulate"]
    refits = len(pick("sem.fit", ("select", "diagnose"))) + len(pick("sem.fit_ols", ("select", "diagnose")))
    all_fits = len(pick("sem.fit", analysis)) + len(pick("sem.fit_ols", analysis))

    out = {
        "panel.load_s": (dur(pick("panel.load")), "s"),
        "panel.load_calls": (len(pick("panel.load")), "count"),
        "panel.index_s": (dur(pick("panel.index")), "s"),
        "covariates.load_s": (dur(pick("covariates.load")), "s"),
        "covariates.build_design_s": (dur(pick("covariates.build_design")), "s"),
        "covariates.build_design_calls": (len(pick("covariates.build_design")), "count"),
        "weights.build_s": (dur(weights), "s"),
        "weights.build_calls": (len(weights), "count"),
        "weights.nnz": (nnz, "count"),
        "weights.dense_mb_computed": (cells * 8 / MIB, "MiB"),
        "weights.fill": (nnz / cells if cells else 0.0, "ratio"),
        "sem.spectrum_s": (dur(spectra), "s"),
        "sem.spectrum_calls": (len(spectra), "count"),
        "sem.spectrum_flop_computed": (float(sum(10.0 * s["attrs"].get("n", 0) ** 3 for s in spectra)), "flop"),
        "sem.spectra_per_fit": (spectra_in_fitting / n_fits if n_fits else 0.0, "ratio"),
        "sem.fit_s": (dur(fits), "s"),
        "sem.fit_calls": (n_fits, "count"),
        "sem.fit_self_s": (float(sum(selfs[id(s)] for s in fits)), "s"),
        "sem.log_det_calls": (len(log_dets), "count"),
        "sem.evals_per_fit": (len(log_dets) / n_fits if n_fits else 0.0, "ratio"),
        "sem.log_det_s": (dur(log_dets), "s"),
        "sem.fit_ols_s": (dur(pick("sem.fit_ols")), "s"),
        "sem.fit_ols_calls": (len(pick("sem.fit_ols")), "count"),
        "sem.fit_p50_ms": (fit_ms["p50"], "ms"),
        "sem.fit_tail_ms": (fit_ms["tail"], "ms"),
        "sem.nonconverged": (sum(1 for s in fits if not s["attrs"].get("converged", True)), "count"),
        "selection.select_s": (dur(pick("selection.select")), "s"),
        "moran.scan_s": (dur(scans), "s"),
        "moran.grid_points": (grid_points, "count"),
        "moran.ms_per_grid_point": (1000.0 * dur(scans) / grid_points if grid_points else 0.0, "ms"),
        "moran.pairs_computed": (attr(scans, "pairs"), "count"),
        "diagnostics.tradecorr_s": (dur(pick("diagnostics.tradecorr")), "s"),
        "diagnostics.kde_s": (dur(pick("diagnostics.kde")), "s"),
        "diagnostics.kde_calls": (len(pick("diagnostics.kde")), "count"),
        "diagnostics.qq_hist_s": (dur(pick("diagnostics.qq_hist")), "s"),
        "simulate.simulate_s": (dur(pick("simulate.simulate")), "s"),
        "simulate.draw_s": (dur(pick("simulate.draw")), "s"),
        "simulate.write_csvs_s": (dur(pick("simulate.write_csvs")), "s"),
        "serialize.write_s": (dur(pick("serialize.write", analysis)), "s"),
        "serialize.files": (artifact_files, "count"),
        "serialize.mb": (artifact_bytes / MIB, "MiB"),
    }
    by_stage = {p["stage"]: p for p in processes}
    for stage in PIPELINE_STAGES:
        p = by_stage.get(stage)
        root_self = 0.0
        if p is not None:
            roots = [s for s in p["spans"] if s["parent"] is None]
            root_self = float(sum(selfs[id(s)] for s in roots))
        out[f"cli.{stage}.self_s"] = (root_self, "s")
        out[f"cli.{stage}.peak_rss_mb"] = (p["peak_rss_mb"] if p else 0.0, "MiB")
    out["cli.refit_share"] = (refits / all_fits if all_fits else 0.0, "ratio")
    for stage, layer, name in (("fit", "sem.spectrum", "spectrum_share"), ("scan", "moran.scan", "moran_share")):
        p = by_stage.get(stage)
        share = dur(pick(layer, (stage,))) / p["wall_s"] if p else 0.0
        out[f"cli.{stage}.{name}"] = (share, "ratio")
    out["trace.overhead_s"] = (float(sum(p["overhead_s"] for p in processes)), "s")
    return out
