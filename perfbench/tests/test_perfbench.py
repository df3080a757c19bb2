"""Self-tests of the benchmark: smoke-size runs, metric names and units, the
reference gate and the span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_SEED = 5


def run_bench(workload, seed=SMOKE_SEED, trace=0, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def expected_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    stdout, result = run_bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == expected_units("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    # The human-readable report names the workload's own metrics with units.
    named = ["error_rate"] + (
        ["select_s", "scan_s", "diagnose_s"] if workload.startswith("panel")
        else ["mc_reps_per_s", "mc_rep_p50_s", "mc_rep_tail_s"]
    )
    for name in list(units) + named:
        assert any(line.split()[:1] == [name] and len(line.split()) == 3 for line in stdout.splitlines()), name
    # The full result stamps the host's speed: one kernel time per child and one at the end.
    full = json.loads((BENCH / ".work" / f"result-{workload}-seed{SMOKE_SEED}-trace0.json").read_text(encoding="utf-8"))
    assert len(full["host_speed"]["kernel_s"]) >= 2 and full["host_speed"]["kernel_median_s"] > 0


@pytest.mark.parametrize("workload", ["panel-small", "recovery-mc"])
def test_traced_smoke_run_prints_every_per_layer_metric(workload):
    _, result = run_bench(workload, trace=1)
    assert result["correct"] is True
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == expected_units("per_layer")
    expected_spectra = 1.0 if workload.startswith("panel") else 2.0
    assert result["metrics"]["sem.spectra_per_fit"]["value"] == expected_spectra
    assert result["metrics"]["trace.overhead_s"]["value"] > 0


def test_corrupted_reference_counts_as_failure():
    seed = 11
    path = check.reference_path("recovery-mc", seed, smoke=True)
    try:
        run_bench("recovery-mc", seed, 0, "--write-reference")
        reference = json.loads(path.read_text(encoding="utf-8"))
        _, clean = run_bench("recovery-mc", seed)
        assert clean["failed"] == 0
        reference["reps"][1]["rho_hat"] += 1e-3
        path.write_text(json.dumps(reference), encoding="utf-8")
        stdout, corrupted = run_bench("recovery-mc", seed)
        assert corrupted["correct"] is False and corrupted["failed"] == 1
        error_rate = next(line.split()[1] for line in stdout.splitlines() if line.split()[:1] == ["error_rate"])
        assert float(error_rate) > 0
    finally:
        path.unlink(missing_ok=True)


def test_exits_nonzero_without_the_program():
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "panel-small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_reference_tolerances_accept_equivalent_results():
    reference = {
        "fits": {"1/full_activity": {"rho_hat": 0.5, "loglik": -100.0, "aic": 210.0}},
        "selection": {"winner": "full_activity", "aggregated_delta": {"full_activity": 0.0, "rho0": 3.0}},
        "scan": {"best_cutoff_km": 1100.0, "best_morans_i": 0.02},
    }
    result = json.loads(json.dumps(reference))
    result["fits"]["1/full_activity"]["rho_hat"] += 5e-7
    assert check.compare_reference(reference, result) == {}
    result["scan"]["best_cutoff_km"] = 1200.0
    assert set(check.compare_reference(reference, result)) == {"stage:scan"}


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": {}}


def test_self_times_on_nested_tree():
    spans = [
        span("root", 0.0, 10.0),
        span("sem.fit", 1.0, 6.0, 0),
        span("sem.spectrum", 1.5, 3.5, 1),
        span("sem.log_det", 4.0, 4.5, 1),
        span("sem.log_det", 4.4, 5.0, 1),  # overlaps its sibling: covered once
        span("serialize.write", 7.0, 8.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 2.0, 0.5, 0.6, 1.0])
    layers = tracing.layer_metrics(
        [{"stage": "fit", "spans": spans, "peak_rss_mb": 100.0, "wall_s": 11.0, "overhead_s": 0.25}], 0, 0
    )
    assert layers["sem.fit_self_s"][0] == pytest.approx(2.0)
    assert layers["cli.fit.self_s"][0] == pytest.approx(4.0)
    assert layers["sem.evals_per_fit"][0] == 2.0
    assert layers["sem.spectra_per_fit"][0] == 1.0
    assert layers["trace.overhead_s"][0] == 0.25


def test_tracer_records_nesting_and_its_own_overhead():
    tracer = tracing.Tracer()

    def inner():
        return 1

    def outer():
        return tracer.call("inner", inner) + 1

    assert tracer.call("outer", outer) == 2
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert all(s["start"] <= s["end"] for s in tracer.spans)
    assert 0.0 < tracer.overhead_s < tracer.spans[0]["end"] - tracer.spans[0]["start"] + 1.0


def test_covered_length_clips_to_parent():
    assert tracing.covered_length([(-1.0, 2.0), (1.0, 3.0), (5.0, 9.0)], 0.0, 6.0) == pytest.approx(4.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(19) is None
    assert tracing.tail_percentile(20) == 50
    assert tracing.tail_percentile(40) == 75
    for count in range(20, 400):
        assert count * (100 - tracing.tail_percentile(count)) / 100 >= 10


@pytest.mark.parametrize("lag", [0, 2])
def test_sized_seed_gives_the_simulator_that_many_flows(lag):
    sys.path.insert(0, str(ROOT / "src"))
    from netdisturb.simulate import SimSpec, simulate
    from netdisturb.weights import NeighborhoodSpec

    n_nodes, density, flows = 30, 0.2, 170
    seed = workloads.sized_seed(n_nodes, 1, lag, density, flows, first=4000)
    spec = SimSpec(n_nodes=n_nodes, n_periods=1, density=density, structure=NeighborhoodSpec("full_activity"),
                   rho=0.5, beta=workloads.TRUE_BETA, sigma=1.0, seed=seed, lag=lag)
    result = simulate(spec)
    assert [len(index.dyads) for index in result.indices.values()] == [flows]

