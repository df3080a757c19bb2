"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion (run with -s to see
them live)."""

import math
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from netdisturb import (
    DenseWeight,
    DyadicSeries,
    FlowIndex,
    NeighborhoodSpec,
    SemProblem,
    SimSpec,
    akaike_weights,
    build_weight_matrix,
    draw_disturbances,
    fit,
    fit_ols,
    log_det,
    log_flow_vector,
    morans_i,
    neighborhood,
    profile_loglik,
    scan_cutoffs,
    select,
    simulate,
    spectrum,
)
from netdisturb.cli import main as cli_main
from netdisturb.sem import LOG_2PI

from conftest import (
    RECOVERY_TRUTH,
    complete_alliance,
    complete_distances,
    random_flow_index,
    random_row_normalized_w,
)
from test_weights import brute_force_neighborhoods

PIPELINE_DIR = Path(__file__).resolve().parent.parent / "demos" / "pipeline"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {description}")
        raise
    print(f"PASS criterion {number:2d}: {description}")


def test_criterion_01_log_det_oracle():
    with criterion(1, "spectral log-det matches dense determinant to 1e-10"):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for _ in range(50):
            n = int(rng.integers(2, 9))
            W = random_row_normalized_w(rng, n)
            dense = DenseWeight(W)
            lower, upper = spectrum(dense)
            for rho in rng.uniform(lower + 1e-3, upper - 1e-3, size=20):
                sign, direct = np.linalg.slogdet(np.eye(n) - rho * W)
                assert sign > 0
                assert abs(log_det(rho, dense) - direct) < 1e-10
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"log-det oracle took {elapsed:.2f}s"


def test_criterion_02_ols_nesting():
    with criterion(2, "profile likelihood at rho=0 matches closed-form OLS to 1e-8"):
        rng = np.random.default_rng(102)
        for _ in range(20):
            n = int(rng.integers(20, 60))
            p = int(rng.integers(2, 5))
            X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
            y = X @ rng.standard_normal(p) + rng.standard_normal(n)
            problem = SemProblem(y=y, X=X, W=DenseWeight(random_row_normalized_w(rng, n)))
            point = profile_loglik(0.0, problem)
            beta = np.linalg.solve(X.T @ X, X.T @ y)
            resid = y - X @ beta
            sigma2 = float(resid @ resid) / n
            loglik = -0.5 * n * (LOG_2PI + 1.0) - 0.5 * n * math.log(sigma2)
            assert abs(point.loglik - loglik) < 1e-8
            assert np.abs(point.beta - beta).max() < 1e-8
            assert abs(point.sigma2 - sigma2) < 1e-8


def test_criterion_03_grid_search_oracle():
    with criterion(3, "rho search within 1e-3 of a 1e-4-step grid argmax (10 x n=50)"):
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            n = 50
            W = random_row_normalized_w(rng, n)
            X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
            rho_true = float(rng.uniform(-0.4, 0.7))
            u = np.linalg.solve(np.eye(n) - rho_true * W, rng.standard_normal(n))
            problem = SemProblem(y=X @ rng.standard_normal(3) + u, X=X, W=DenseWeight(W))
            lower, upper = spectrum(problem.W)
            fitted = fit(problem)
            grid = np.arange(lower + 1e-6, upper - 1e-6, 1e-4)
            values = [profile_loglik(r, problem).loglik for r in grid]
            best = grid[int(np.argmax(values))]
            assert abs(fitted.rho_hat - best) < 1e-3, f"instance {seed}"


def test_criterion_04_parameter_recovery(recovery_study):
    with criterion(4, "100-rep recovery: mean rho in [0.55, 0.65], beta within "
                      "0.05, 2-SE coverage in [0.90, 0.99], under 2 min"):
        rho_hats = recovery_study["rho_hats"]
        beta_hats = recovery_study["beta_hats"]
        se_betas = recovery_study["se_betas"]
        truth = np.asarray(RECOVERY_TRUTH["beta"])
        assert 0.55 <= rho_hats.mean() <= 0.65, f"mean rho {rho_hats.mean():.4f}"
        for k in range(truth.size):
            assert abs(beta_hats[:, k].mean() - truth[k]) < 0.05, f"beta[{k}]"
            covered = np.abs(beta_hats[:, k] - truth[k]) <= 2.0 * se_betas[:, k]
            rate = covered.mean()
            assert 0.90 <= rate <= 0.99, f"coverage beta[{k}] = {rate:.3f}"
        assert recovery_study["elapsed"] < 120.0, (
            f"recovery study took {recovery_study['elapsed']:.1f}s"
        )


def test_criterion_05_structure_recovery():
    with criterion(5, "generating structure wins aggregated AIC in >= 80% of 25 "
                      "panels and rho0 never wins, under 10 min"):
        candidates = [
            NeighborhoodSpec("sender_attached"),
            NeighborhoodSpec("receiver_attached"),
            NeighborhoodSpec("full_activity"),
        ]
        structures = [c.structure_id for c in candidates] + ["rho0"]
        started = time.perf_counter()
        wins = 0
        ols_wins = 0
        for rep in range(25):
            spec = SimSpec(
                n_nodes=120,
                n_periods=40,
                density=300.0 / (120 * 119),
                structure=NeighborhoodSpec("full_activity"),
                rho=0.6,
                beta=(1.0, 2.0, -1.0),
                sigma=1.0,
                seed=40_000 + rep,
            )
            result = simulate(spec)
            fits = {}
            for period, snapshot in zip(sorted(result.indices), result.panel):
                index = result.indices[period]
                y = log_flow_vector(snapshot, index)
                design = result.designs[period]
                for cand in candidates:
                    weight = (
                        result.weights[period]
                        if cand.kind == "full_activity"
                        else build_weight_matrix(cand, index)
                    )
                    fits[(period, cand.structure_id)] = fit(
                        SemProblem(y=y, X=design, W=weight)
                    )
                fits[(period, "rho0")] = fit_ols(SemProblem(y=y, X=design))
            report = select(fits, structures=structures)
            wins += report.winner == "full_activity"
            ols_wins += report.winner == "rho0"
        elapsed = time.perf_counter() - started
        assert wins >= 20, f"full_activity won only {wins}/25"
        assert ols_wins == 0, f"rho0 won {ols_wins} panels"
        assert elapsed < 600.0, f"structure recovery took {elapsed:.1f}s"


def _context_for(spec, index, rng):
    nodes = {node for dyad in index.dyads for node in dyad}
    if spec.kind.startswith("alliance"):
        return complete_alliance(rng, nodes)
    if spec.kind.startswith("distance"):
        return complete_distances(rng, nodes)
    return None


def _all_specs(rng):
    return [
        NeighborhoodSpec("sender_attached"),
        NeighborhoodSpec("receiver_attached"),
        NeighborhoodSpec("full_activity"),
        NeighborhoodSpec("alliance_import"),
        NeighborhoodSpec("alliance_export"),
        NeighborhoodSpec("distance_import", cutoff_km=float(rng.uniform(300, 4500))),
        NeighborhoodSpec("distance_export", cutoff_km=float(rng.uniform(300, 4500))),
    ]


def test_criterion_06_neighborhood_oracle():
    with criterion(6, "all seven builders equal brute-force enumeration on 200 "
                      "random networks"):
        rng = np.random.default_rng(106)
        for _ in range(200):
            index = random_flow_index(rng, max_flows=30)
            for spec in _all_specs(rng):
                dyadic = _context_for(spec, index, rng)
                assert neighborhood(spec, index, dyadic) == brute_force_neighborhoods(
                    spec, index, dyadic
                ), spec.structure_id


def test_criterion_07_row_sum_invariant():
    with criterion(7, "every weight-matrix row sums to 0 or 1 within 1e-15"):
        rng = np.random.default_rng(107)
        for _ in range(100):
            index = random_flow_index(rng, max_flows=30)
            for spec in _all_specs(rng):
                matrix = build_weight_matrix(spec, index, _context_for(spec, index, rng))
                sums = matrix.entries.sum(axis=1)
                assert np.all(
                    (np.abs(sums) <= 1e-15) | (np.abs(sums - 1.0) <= 1e-15)
                ), spec.structure_id


def test_criterion_08_akaike_weights():
    with criterion(8, "Akaike weights: sum to 1 (1e-12), [0,2] case to 1e-5, no "
                      "overflow at delta 1e4"):
        rng = np.random.default_rng(108)
        for _ in range(50):
            weights = akaike_weights(rng.normal(0.0, 200.0, size=int(rng.integers(1, 10))))
            assert abs(weights.sum() - 1.0) <= 1e-12
        pair = akaike_weights([0.0, 2.0])
        assert abs(pair[0] - 0.73106) <= 1e-5
        assert abs(pair[1] - 0.26894) <= 1e-5
        extreme = akaike_weights([0.0, 1e4])
        assert np.all(np.isfinite(extreme))
        assert abs(extreme[0] - 1.0) <= 1e-12


def _planted_radius_panel(seed, radius_km=800.0, n_regions=10, periods=6):
    """Panel whose disturbances correlate between flows into node pairs
    620-radius km apart; regions sit thousands of km from each other."""
    rng = np.random.default_rng(seed)
    ring_radius = n_regions * 3000.0 / (2.0 * math.pi)
    nodes, positions = [], {}
    for k in range(n_regions):
        angle = 2.0 * math.pi * k / n_regions
        center = (ring_radius * math.cos(angle), ring_radius * math.sin(angle))
        offset = rng.uniform(620.0, radius_km)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        positions[f"A{k:02d}"] = center
        positions[f"B{k:02d}"] = (
            center[0] + offset * math.cos(theta),
            center[1] + offset * math.sin(theta),
        )
        nodes += [f"A{k:02d}", f"B{k:02d}"]
    distances = DyadicSeries(
        "distance",
        True,
        {
            (nodes[i], nodes[j], 1): math.dist(positions[nodes[i]], positions[nodes[j]])
            for i in range(len(nodes))
            for j in range(i + 1, len(nodes))
        },
    )
    structure = NeighborhoodSpec("distance_import", cutoff_km=radius_km)
    residuals, indices = {}, {}
    for period in range(1, periods + 1):
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        keep = rng.uniform(size=len(pairs)) < 0.12
        index = FlowIndex(
            period=period, dyads=tuple(sorted(p for p, k in zip(pairs, keep) if k))
        )
        weight = build_weight_matrix(structure, index, distances)
        u = draw_disturbances(DenseWeight(weight.entries), 0.7, 1.0, rng)[0]
        X = np.column_stack([np.ones(index.n), rng.standard_normal(index.n)])
        y = X @ np.array([1.0, 1.0]) + u
        problem = SemProblem(y=y, X=X)
        residuals[period] = problem.y - problem.X @ fit_ols(problem).beta_hat
        indices[period] = index
    return residuals, indices, distances


def test_criterion_09_moran():
    with criterion(9, "Moran small case is exactly -1; cutoff scan recovers a "
                      "planted radius within 2 grid steps in >= 80% of 20 panels"):
        assert morans_i(np.array([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])) == -1.0
        grid = np.arange(100.0, 2001.0, 100.0)
        hits = 0
        for rep in range(20):
            residuals, indices, distances = _planted_radius_panel(900 + rep)
            scan = scan_cutoffs(residuals, indices, distances, direction="import", grid=grid)
            if abs(scan.best_cutoff - 800.0) <= 200.0:
                hits += 1
        assert hits >= 16, f"recovered radius in only {hits}/20 panels"


def test_criterion_10_covariance_law():
    with criterion(10, "Monte-Carlo covariance of u matches "
                       "sigma^2 (I-rho W)^-1 (I-rho W')^-1 within 3 MC SEs"):
        index = FlowIndex(
            period=1,
            dyads=(("A", "B"), ("A", "C"), ("B", "A"), ("B", "C"), ("C", "A")),
        )
        built = build_weight_matrix(NeighborhoodSpec("sender_attached"), index)
        W = built.entries
        rho, sigma, draws = 0.45, 1.2, 10_000
        A_inv = np.linalg.inv(np.eye(5) - rho * W)
        expected = sigma**2 * A_inv @ A_inv.T
        mc_se = np.sqrt(
            (np.outer(np.diag(expected), np.diag(expected)) + expected**2) / draws
        )
        # The dense oracle is solved densely; the built matrix is solved
        # through its factors, where the reciprocal pair (A, C), (C, A)
        # joins the core.
        for drawn_from in (DenseWeight(W), built):
            rng = np.random.default_rng(110)
            sample = draw_disturbances(drawn_from, rho, sigma, rng, size=draws)
            sample_cov = np.cov(sample, rowvar=False)
            assert np.all(np.abs(sample_cov - expected) <= 3.0 * mc_se)


def _run_pipeline(workspace: Path):
    workspace.mkdir(parents=True)
    for name in ("sim.cfg", "run.cfg"):
        shutil.copy(PIPELINE_DIR / name, workspace / name)
    steps = [
        ["simulate", "--spec", str(workspace / "sim.cfg"), "--out", str(workspace / "data")],
        ["fit", "--config", str(workspace / "run.cfg"), "--out", str(workspace / "out")],
        ["select", "--config", str(workspace / "run.cfg"), "--out", str(workspace / "out")],
        ["scan-cutoff", "--config", str(workspace / "run.cfg"), "--out", str(workspace / "out")],
        ["diagnose", "--config", str(workspace / "run.cfg"), "--out", str(workspace / "out")],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, f"step failed: {argv}"
    return workspace / "out"


def test_criterion_11_end_to_end(tmp_path):
    with criterion(11, "shipped example runs simulate/fit/select/scan/diagnose "
                       "deterministically (byte-identical rerun) in under 5 min"):
        started = time.perf_counter()
        out1 = _run_pipeline(tmp_path / "ws1")
        out2 = _run_pipeline(tmp_path / "ws2")
        elapsed = time.perf_counter() - started
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        assert files1, "pipeline produced no artifacts"
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
        expected = [
            "aggregated.csv", "weights.csv", "weights_smoothed.csv", "selection.json",
            "scan.csv", "scan.json", "qq.csv", "hist.csv", "kde.csv", "tradecorr.csv",
            "fit_report.json", "manifest.json",
        ]
        for name in expected:
            assert (out1 / name).is_file(), name
        assert elapsed < 300.0, f"end-to-end took {elapsed:.1f}s"
