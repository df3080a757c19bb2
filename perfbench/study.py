"""recovery-mc: the parameter-recovery simulation study, run in one process.

Each replicate simulates one period of exactly 500 flows under
``full_activity`` and fits the model on the simulator's own weight matrix,
the way the recovery criterion does.  Per replicate it records the
simulate and fit wall times and the estimates; then (untimed) it checks
the fit against the independent likelihood oracle in ``check.py``.

    python3 perfbench/launch.py RECORD study --workload NAME [--smoke] --seed N \
        --out RESULT.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import time

import check
import workloads

# Resolved at call time through the module, so the tracer's patches apply.
sem = importlib.import_module("netdisturb.sem")
simulate = importlib.import_module("netdisturb.simulate")
weights = importlib.import_module("netdisturb.weights")
panel = importlib.import_module("netdisturb.panel")


def replicate(seed: int, n_nodes: int, density: float) -> dict:
    spec = simulate.SimSpec(
        n_nodes=n_nodes,
        n_periods=1,
        density=density,
        structure=weights.NeighborhoodSpec(workloads.TRUE_STRUCTURE),
        rho=workloads.TRUE_RHO_STUDY,
        beta=workloads.TRUE_BETA,
        sigma=1.0,
        seed=seed,
    )
    t0 = time.perf_counter()
    result = simulate.simulate(spec)
    t1 = time.perf_counter()
    period = sorted(result.indices)[0]
    index = result.indices[period]
    problem = sem.SemProblem(
        y=panel.log_flow_vector(result.panel[0], index),
        X=result.designs[period],
        W=result.weights[period],
    )
    fitted = sem.fit(problem)
    t2 = time.perf_counter()
    error = check.fit_oracle_error(
        problem.y, problem.X, problem.W, fitted.rho_hat, fitted.loglik, fitted.aic,
        fitted.converged, fitted.degenerate, spatial=True,
    )
    return {
        "seed": seed,
        "n": int(problem.n),
        "simulate_s": t1 - t0,
        "fit_s": t2 - t1,
        "rho_hat": float(fitted.rho_hat),
        "beta_hat": [float(b) for b in fitted.beta_hat],
        "error": error,
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="study")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    shape = workloads.get(args.workload, smoke=args.smoke).shape
    reps = [
        replicate(workloads.replicate_seed(shape, args.seed, k), shape.n_nodes, shape.density)
        for k in range(shape.reps)
    ]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"reps": reps}, fh)
    return 0
