"""netdisturb benchmark: the CLI pipeline and the recovery study, end to end
and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the program is imported from
``src/`` in child processes, one per CLI stage or study, the way a user
runs it.  The load is a closed loop with one client: each child starts
after the previous one ends, with ``--jobs 1`` and one BLAS thread.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a separate traced pass (``--trace 1``).  Times are
wall times as measured.  See ``perfbench/README.md``.

``--write-reference`` stores the run's estimates as the reference for its
seed; ``--smoke`` shrinks every workload for the self-tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, in this process and in every child: on a shared 2-vCPU
# host a two-thread eigvals of a 500x500 matrix took 0.10-1.17 s from call to
# call, a one-thread one 0.10-0.17 s (README).  numpy reads these when it is
# first imported, just below.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})

import numpy as np  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
NPROC = len(os.sched_getaffinity(0))
# The study's mean rho_hat must land this close to the true rho over 100
# replicates (the acceptance tests' recovery criterion); the window widens by
# sqrt(100 / replicates) for a study of fewer replicates.
RECOVERY_RHO_WINDOW_100 = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "fit_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
}
# The host's speed drifts over minutes, and every time of a run with it
# (README, "Noise and host speed").  As a stamp of that, and of nothing
# else, the benchmark process times a fixed kernel that uses no netdisturb
# code before each child, while no child runs; no metric is scaled by it.
_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((200, 200))


def time_host_kernel() -> float:
    """Seconds a fixed kernel takes now: a pure-Python dict loop, then two
    eigenvalue decompositions of a 200x200 matrix."""
    started = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(100_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    for _ in range(2):
        np.linalg.eigvals(_KERNEL_MATRIX)
    return time.perf_counter() - started


@dataclass
class Child:
    stage: str
    wall_s: float
    peak_rss_mb: float
    import_s: float | None
    spans: list = field(default_factory=list)
    trace_overhead_s: float = 0.0


class Runner:
    """One run: launches children in sequence and keeps the bookkeeping."""

    def __init__(self, workdir: Path, deadline: float, workload: str, seed: int, smoke: bool,
                 write_reference: bool, memo_key: str):
        self.workdir = workdir
        self.deadline = deadline
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.write_reference = write_reference
        # Identifies the inputs and everything that can change the artifacts' bits.
        self.memo_key = memo_key
        self.children: list[Child] = []
        self.kernel_s: list[float] = []
        self.errors: dict[str, list[str]] = {}
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def op(self, name: str, error: str | None = None) -> None:
        """Count one attempted operation; `error` marks it failed."""
        messages = self.errors.setdefault(name, [])
        if error:
            messages.append(error)

    def merge(self, errors: dict[str, list[str]], prefix_map=None) -> None:
        for name, messages in errors.items():
            name = (prefix_map or {}).get(name, name)
            self.errors.setdefault(name, []).extend(messages)

    def launch(self, stage: str, args: list[str], trace: bool = False) -> Child:
        tag = f"{len(self.children):02d}-{stage}"
        record = self.workdir / f"{tag}.record.json"
        spans_path = self.workdir / f"{tag}.spans.json"
        log = self.workdir / f"{tag}.log"
        cmd = [sys.executable, str(BENCH / "launch.py"), str(record)]
        if trace:
            cmd += ["--trace", str(spans_path)]
        cmd += [str(a) for a in args]
        self.kernel_s.append(time_host_kernel())
        with open(log, "w", encoding="utf-8") as log_fh:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=log_fh, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        import_s = None
        if record.is_file():
            import_start, import_end = json.loads(record.read_text(encoding="utf-8"))["import"]
            import_s = import_end - import_start
        child = Child(stage, ended - started, usage.ru_maxrss / 1024.0, import_s)
        if trace and spans_path.is_file():
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            child.spans, child.trace_overhead_s = doc["spans"], doc["overhead_s"]
        self.children.append(child)
        if stage != "probe":
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:] if proc.returncode else ""
            self.op(f"{stage}:{tag}", f"exit code {proc.returncode}: {tail}" if proc.returncode else None)
        return child

    def setup_samples(self) -> list[float]:
        """Import times of every child, topped up with up to
        `SETUP_SAMPLES` bare-import probes."""
        for _ in range(SETUP_SAMPLES + 1):
            samples = [c.import_s for c in self.children if c.import_s is not None]
            if len(samples) >= SETUP_SAMPLES:
                break
            self.launch("probe", ["import"])
        return samples

    @property
    def attempted(self) -> int:
        return len(self.errors)

    @property
    def failed(self) -> int:
        return sum(1 for messages in self.errors.values() if messages)


def units_for(wl, seconds: float) -> int:
    """Units of work a run does: as many as take `seconds` at the workload's
    nominal unit time, at least one.  The count depends on nothing measured,
    so every run of a workload does the same work."""
    return max(1, int(seconds // wl.unit_s))


# ----------------------------------------------------------------------------
# Panel workloads: simulate, then fit / select / scan-cutoff / diagnose


def _run_pipeline(runner: Runner, wl, passdir: Path, trace: bool = False) -> dict[str, list[Child]]:
    """One user pipeline in `passdir`: simulate the panel into ``data``, then
    run each stage into ``out``.

    Untraced, `fit` and `simulate` then run once more, into ``out2`` and
    ``data2``: a second sample of each, taken apart in time from the first,
    and a check that a rerun leaves the same bytes.
    """
    passdir.mkdir()
    sim_cfg, run_cfg = workloads.write_panel_inputs(wl.shape, runner.seed, passdir)

    def simulate(data):
        return runner.launch("simulate", ["cli", "simulate", "--spec", sim_cfg, "--out", passdir / data], trace)

    def stage(name, command, out):
        return runner.launch(name, ["cli", command, "--config", run_cfg, "--out", passdir / out, "--jobs", "1"], trace)

    children = {"simulate": [simulate("data")]}
    for name, command in workloads.STAGES:
        children[name] = [stage(name, command, "out")]
    if not trace:
        children["fit"].append(stage("fit", "fit", "out2"))
        children["simulate"].append(simulate("data2"))
    return children


def _check_panel_pass(runner, data, out, candidates) -> None:
    stage_ops = {f"stage:{name}": f"check:{name}" for name in ("fit", "select", "scan", "diagnose")}
    try:
        result = check.panel_result(out, candidates)
        runner.merge(check.panel_oracle(data, out, candidates, result), stage_ops)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        runner.op("check:artifacts", f"cannot read the pass's artifacts: {exc!r}")
        return
    for key in result["fits"]:
        runner.op(f"fit:{key}")
    for op in stage_ops.values():
        runner.op(op)
    _reference_step(runner, result, stage_ops)


def _reference_step(runner, result, stage_ops=None):
    path = check.reference_path(runner.workload, runner.seed, runner.smoke)
    if runner.write_reference:
        if runner.failed:
            raise SystemExit("not writing a reference from a run with failures")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(check.reference_view(result), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote reference {path.relative_to(ROOT)}")
    elif path.is_file():
        runner.op("reference")
        runner.merge(check.compare_reference(json.loads(path.read_text(encoding="utf-8")), result), stage_ops)


def _hash_step(runner, name, digest):
    """Digests of passes over the same inputs must agree, within a run and
    across runs of one source tree in this checkout."""
    memo_path = WORK / "hashes.json"
    memo = json.loads(memo_path.read_text(encoding="utf-8")) if memo_path.is_file() else {}
    expected = memo.setdefault(runner.memo_key, digest)
    runner.op(name, None if expected == digest else f"artifact digest {digest[:12]} != {expected[:12]} from an earlier pass")
    memo_path.write_text(json.dumps(memo, indent=1, sort_keys=True), encoding="utf-8")


def run_panel(runner, wl, units, trace) -> dict:
    work = runner.workdir
    candidates = check.parse_candidates(wl.shape.candidates)

    passes = [_run_pipeline(runner, wl, work / f"pass{k}") for k in range(1, units + 1)]

    first = work / "pass1"
    _check_panel_pass(runner, first / "data", first / "out", candidates)
    for k in range(1, len(passes) + 1):
        passdir = work / f"pass{k}"
        _hash_step(runner, f"hash:pass{k}", check.tree_digest(passdir / "data", passdir / "out"))
        for copy, original in (("data2", "data"), ("out2", "out")):
            differ = check.differing_files(passdir / copy, passdir / original)
            runner.op(f"rerun:pass{k}-{copy}", f"rerun changed {differ[:5]}" if differ else None)

    samples = {name: [c.wall_s for p in passes for c in p[name]] for name in passes[0]}
    samples["pipeline"] = [sum(statistics.median(c.wall_s for c in p[name]) for name, _ in workloads.STAGES)
                           for p in passes]
    stage_s = {name: statistics.median(values) for name, values in samples.items()}
    metrics = {"simulate_s": stage_s["simulate"], "fit_s": stage_s["fit"], "pipeline_s": stage_s["pipeline"]}
    extra = {f"{name}_s": stage_s[name] for name in ("select", "scan", "diagnose")}

    traced = None
    if trace:
        traced_dir = work / "traced"
        stages = _run_pipeline(runner, wl, traced_dir, trace=True)
        _hash_step(runner, "hash:traced", check.tree_digest(traced_dir / "data", traced_dir / "out"))
        files = [p for p in (traced_dir / "out").rglob("*") if p.is_file()]
        traced_s = sum(children[0].wall_s for children in stages.values())
        untraced_s = statistics.median(sum(children[0].wall_s for children in p.values()) for p in passes)
        traced = {
            "processes": [_process(children[0]) for children in stages.values()],
            "artifact_files": len(files),
            "artifact_bytes": sum(p.stat().st_size for p in files),
            "wall_delta_s": traced_s - untraced_s,
        }

    flows = {}
    edges = first / "data" / "edges.csv"
    if edges.is_file():
        for line in edges.read_text(encoding="utf-8").splitlines()[1:]:
            period = line.split(",", 1)[0]
            flows[period] = flows.get(period, 0) + 1
    scan_doc = first / "out" / "scan.json"
    shape_stamp = {
        "periods": len(flows),
        "flows_per_period": {"min": min(flows.values(), default=0), "max": max(flows.values(), default=0),
                             "mean": sum(flows.values()) / max(1, len(flows))},
        "n_nodes": wl.shape.n_nodes,
        "candidates": [cand_id for cand_id, _ in candidates],
        "grid_points": json.loads(scan_doc.read_text())["grid_points"] if scan_doc.is_file() else None,
        "units": len(passes),
    }
    return {"metrics": metrics, "extra": extra, "traced": traced, "shape": shape_stamp, "samples": samples}


def _process(child: Child) -> dict:
    return {"stage": child.stage, "spans": child.spans, "peak_rss_mb": child.peak_rss_mb, "wall_s": child.wall_s,
            "overhead_s": child.trace_overhead_s}


# ----------------------------------------------------------------------------
# recovery-mc: the simulation study, one process per unit


def run_study(runner, wl, units, trace) -> dict:
    shape = wl.shape
    work = runner.workdir

    def study(tag, traced=False):
        out = work / f"{tag}.json"
        smoke = ["--smoke"] if runner.smoke else []
        child = runner.launch("study", ["study", "--workload", wl.name, *smoke, "--seed", runner.seed, "--out", out],
                              traced)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {"reps": []}
        return child, doc

    passes = [study(f"study{k}") for k in range(1, units + 1)]

    result = passes[0][1]
    for k, rep in enumerate(result["reps"]):
        runner.op(f"rep:{k}", rep["error"])
    for k in range(len(result["reps"]), shape.reps):
        runner.op(f"rep:{k}", "replicate missing")
    if len(result["reps"]) >= 10:
        mean_rho = statistics.fmean(r["rho_hat"] for r in result["reps"])
        window = RECOVERY_RHO_WINDOW_100 * (100 / len(result["reps"])) ** 0.5
        off = abs(mean_rho - workloads.TRUE_RHO_STUDY) > window
        runner.op("check:recovery", f"mean rho_hat {mean_rho:.4f} is far from {workloads.TRUE_RHO_STUDY}" if off else None)
    _reference_step(runner, result)
    for k, (_, doc) in enumerate(passes, start=1):
        digest = _digest_json(check.reference_view(doc))
        _hash_step(runner, f"hash:pass{k}", digest)

    reps = [r for _, doc in passes for r in doc["reps"]]
    rep_s = [r["simulate_s"] + r["fit_s"] for r in reps] or [0.0]
    summary = tracing.percentile_summary(rep_s)
    metrics = {
        "simulate_s": statistics.median(r["simulate_s"] for r in reps) if reps else 0.0,
        "fit_s": statistics.median(r["fit_s"] for r in reps) if reps else 0.0,
        "pipeline_s": summary["p50"],
    }
    extra = {
        "mc_reps_per_s": len(reps) / sum(rep_s) if sum(rep_s) else 0.0,
        "mc_rep_p50_s": summary["p50"],
        "mc_rep_tail_s": summary["tail"],
        "mc_rep_tail_pct": summary["tail_pct"],
        "mc_rep_samples": summary["count"],
    }

    traced = None
    if trace:
        child, doc = study("study_traced", traced=True)
        _hash_step(runner, "hash:traced", _digest_json(check.reference_view(doc)))
        traced = {
            "processes": [_process(child)],
            "artifact_files": 0,
            "artifact_bytes": 0,
            "wall_delta_s": child.wall_s - statistics.median(c.wall_s for c, _ in passes),
        }
    shape_stamp = {
        "replicates": shape.reps,
        "units": len(passes),
        "flows_per_replicate": {"min": min((r["n"] for r in reps), default=0),
                                "max": max((r["n"] for r in reps), default=0)},
        "n_nodes": shape.n_nodes,
    }
    samples = {"simulate": [r["simulate_s"] for r in reps], "fit": [r["fit_s"] for r in reps], "replicate": rep_s}
    return {"metrics": metrics, "extra": extra, "traced": traced, "shape": shape_stamp, "samples": samples}


def _digest_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ----------------------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment_stamp(seed: int, source_digest: str) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "source_sha256": source_digest,
        "nproc": NPROC,
        "blas_threads": {var: str(BLAS_THREADS) for var in BLAS_VARS},
        "jobs": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrink the workload (self-tests)")
    parser.add_argument("--write-reference", action="store_true", help="store this seed's reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "netdisturb" / "cli.py").is_file():
        print(f"error: no netdisturb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in workloads.WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOAD_NAMES)}")
    wl = workloads.get(args.workload, smoke=args.smoke)
    workdir = WORK / f"{wl.name}-seed{args.seed}"
    if workdir.exists():
        import shutil

        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)

    environment = environment_stamp(args.seed, _source_digest())
    bits = {key: environment[key] for key in ("source_sha256", "blas_threads", "python", "numpy", "scipy", "machine")}
    bits["benchmark"] = [(path.name, hashlib.sha256(path.read_bytes()).hexdigest()) for path in sorted(BENCH.glob("*.py"))]
    memo_key = f"{wl.name}:{args.seed}:{int(args.smoke)}:{_digest_json(bits)}"
    runner = Runner(workdir, time.monotonic() + RUN_DEADLINE_S, wl.name, args.seed, args.smoke,
                    args.write_reference, memo_key)
    # A bare import first: a set-up sample that also brings the package's
    # files into the file cache before any stage is timed.
    runner.launch("probe", ["import"])
    run = run_panel if wl.kind == "panel" else run_study
    # A traced run needs one untraced unit, to compare the traced one with.
    units = 1 if args.trace else units_for(wl, args.seconds)
    outcome = run(runner, wl, units, bool(args.trace))

    setup = runner.setup_samples()
    runner.kernel_s.append(time_host_kernel())
    end_to_end = dict(outcome["metrics"], setup_s=statistics.median(setup) if setup else 0.0)
    end_to_end["peak_rss_mb"] = max(c.peak_rss_mb for c in runner.children if c.stage != "probe")
    report = {
        "workload": wl.name,
        "trace": args.trace,
        "environment": environment,
        "shape": outcome["shape"],
        "setup_samples": len(setup),
        "host_speed": {
            "kernel_median_s": statistics.median(runner.kernel_s),
            "kernel_s": runner.kernel_s,
        },
        "end_to_end": {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()},
        "extra": outcome["extra"],
        "samples": dict(outcome["samples"], setup=setup),
        "error_rate": runner.failed / max(1, runner.attempted),
        "errors": {name: messages for name, messages in runner.errors.items() if messages},
    }
    if outcome["traced"] is not None:
        t = outcome["traced"]
        layers = tracing.layer_metrics(t["processes"], t["artifact_bytes"], t["artifact_files"])
        report["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        report["trace_wall_delta_s"] = t["wall_delta_s"]
        report["spans"] = sum(len(p["spans"]) for p in t["processes"])
    result_path = WORK / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    _print_report(report, result_path)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def _print_report(report: dict, result_path: Path) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}  seed {env['seed']}  trace {report['trace']}  "
          f"commit {env['git_commit'] or '-'}  src {env['source_sha256'][:12]}")
    print(f"  nproc {env['nproc']}  BLAS threads {BLAS_THREADS}  jobs 1  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}")
    print(f"  shape {json.dumps(report['shape'])}")
    speed = report["host_speed"]
    print(f"  host speed stamp: fixed kernel {speed['kernel_median_s']:.4g} s (median of {len(speed['kernel_s'])})")
    print("end-to-end (untraced):")
    for name, entry in report["end_to_end"].items():
        print(f"  {name:<22} {entry['value']:>14.6g} {entry['unit']}")
    units = {"mc_reps_per_s": "1/s", "mc_rep_tail_pct": "percentile", "mc_rep_samples": "count"}
    for name, value in report["extra"].items():
        print(f"  {name:<22} {value if value is not None else float('nan'):>14.6g} {units.get(name, 's')}")
    print(f"  {'error_rate':<22} {report['error_rate']:>14.6g} ratio")
    print("  samples per median: " + ", ".join(
        f"{name} {len(values)}" for name, values in report["samples"].items()))
    if "per_layer" in report:
        print("per-layer (traced unit):")
        for name, entry in report["per_layer"].items():
            print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  traced unit wall time minus the untraced units' median: {report['trace_wall_delta_s']:.4g} s"
              " (host noise included; trace.overhead_s is the tracer's own measured time)")
    for name, messages in report["errors"].items():
        for message in messages:
            print(f"FAILED {name}: {message}", file=sys.stderr)
    print(f"full result: {result_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
