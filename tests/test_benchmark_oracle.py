"""The benchmark's own correctness oracle accepts a small CLI pipeline.

`perfbench/check.py` reads a pipeline's inputs through netdisturb's public
ingest and weight builders and its artifacts by file name, then recomputes
every fit, the selection and the scan.  Running it here makes a change to
that API or to those artifacts fail the test suite, not only the benchmark.
So does a rename of a function that the benchmark's tracer wraps.
"""

import importlib.util
import sys
from importlib import import_module
from pathlib import Path

from netdisturb.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_accepts_a_small_pipeline(tmp_path):
    check, workloads = bench_module("check"), bench_module("workloads")
    shape = workloads.get("panel-small", smoke=True).shape
    sim_cfg, run_cfg = workloads.write_panel_inputs(shape, 5, tmp_path)
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["simulate", "--spec", str(sim_cfg), "--out", str(data)]) == 0
    for command in ("fit", "select", "scan-cutoff", "diagnose"):
        assert main([command, "--config", str(run_cfg), "--out", str(out)]) == 0

    candidates = check.parse_candidates(shape.candidates)
    periods, _ = check.load_periods(data)
    assert len(periods) == shape.n_periods
    result = check.panel_result(out, candidates)
    assert len(result["fits"]) == len(candidates) * shape.n_periods
    assert check.panel_oracle(data, out, candidates, result) == {}


def test_every_trace_patch_target_resolves():
    # A renamed function would leave its per-layer benchmark metric at 0.
    tracing = bench_module("tracing")
    unresolved = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.PATCHES
        if getattr(import_module(module), attr, None) is None
    ]
    assert unresolved == []
