import csv
import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.optimize import minimize_scalar
from scipy.special import ndtr

from netdisturb import (
    EstimationError,
    FlowIndex,
    SemProblem,
    SimSpec,
    NeighborhoodSpec,
    build_weight_matrix,
    fit,
    fit_ols,
    log_det,
    log_flow_vector,
    profile_loglik,
    simulate,
    spectrum,
)
from netdisturb import sem
from netdisturb.sem import (
    BOUNDARY_MARGIN,
    GRID_POINTS,
    LOG_2PI,
    _bounded_brent,
    _ProfileCache,
    _two_sided_p,
    fit_from_dict,
    log_det_path,
    residuals,
    write_coefficients_csv,
    write_fit_json,
)

from netdisturb.weights import WeightMatrix

from conftest import RECOVERY_TRUTH, complete_alliance, random_flow_index, random_row_normalized_w

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_problem(rng, n=30, p=3, rho=0.4):
    W = random_row_normalized_w(rng, n)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    beta = rng.standard_normal(p)
    eps = rng.standard_normal(n)
    u = np.linalg.solve(np.eye(n) - rho * W, eps)
    return SemProblem(y=X @ beta + u, X=X, W=W)


def ols_closed_form(problem):
    X, y, n = problem.X, problem.y, problem.n
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    e = y - X @ beta
    sigma2 = float(e @ e) / n
    loglik = -0.5 * n * (LOG_2PI + 1.0) - 0.5 * n * math.log(sigma2)
    return loglik, beta, sigma2


class TestSpectrum:
    def test_swap_matrix(self):
        spec = spectrum(SWAP)
        assert sorted(np.round(spec.eigenvalues.real, 12)) == [-1.0, 1.0]
        assert spec.rho_lower == -1.0
        assert spec.rho_upper == 1.0

    def test_zero_matrix(self):
        spec = spectrum(np.zeros((3, 3)))
        np.testing.assert_array_equal(spec.eigenvalues, np.zeros(3))
        assert (spec.rho_lower, spec.rho_upper) == (-1.0, 1.0)

    def test_row_stochastic_upper_bound_is_one(self):
        # Every row sums to one, so 1 is an eigenvalue and the spectral
        # radius is 1; check the eigenvalues against a determinant oracle.
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            W = rng.uniform(size=(n, n))
            np.fill_diagonal(W, 0.0)
            W /= W.sum(axis=1, keepdims=True)
            spec = spectrum(W)
            assert abs(spec.rho_upper - 1.0) < 1e-9
            assert np.abs(spec.eigenvalues).max() <= 1.0 + 1e-9
            for lam in spec.eigenvalues:
                shifted = W - lam * np.eye(n)
                assert abs(np.linalg.det(shifted)) < 1e-8

    def test_conjugate_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            W = random_row_normalized_w(rng, 7)
            eigenvalues = spectrum(W).eigenvalues
            assert abs(eigenvalues.imag.sum()) < 1e-10


class TestLogDet:
    def test_zero_rho(self):
        assert log_det(0.0, spectrum(SWAP)) == 0.0

    def test_two_by_two_closed_form(self):
        # det(I - rho*SWAP) = 1 - rho^2
        value = log_det(0.5, spectrum(SWAP))
        assert abs(value - math.log(0.75)) < 1e-14

    def test_matches_dense_determinant(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            W = random_row_normalized_w(rng, 6)
            spec = spectrum(W)
            for _ in range(5):
                rho = float(
                    rng.uniform(spec.rho_lower + 1e-3, spec.rho_upper - 1e-3)
                )
                sign, direct = np.linalg.slogdet(np.eye(6) - rho * W)
                assert sign > 0
                assert abs(log_det(rho, spec) - direct) < 1e-10

    def test_pole_rejected(self):
        spec = spectrum(SWAP)
        with pytest.raises(EstimationError, match="pole"):
            log_det(1.0, spec)


class TestProfileLoglik:
    def test_rho_zero_equals_ols(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            problem = random_problem(rng, n=int(rng.integers(15, 40)))
            spec = spectrum(problem.W)
            point = profile_loglik(0.0, problem, spec)
            loglik, beta, sigma2 = ols_closed_form(problem)
            assert abs(point.loglik - loglik) < 1e-8
            np.testing.assert_allclose(point.beta, beta, atol=1e-8)
            assert abs(point.sigma2 - sigma2) < 1e-8

    def test_matches_dense_gaussian_density(self):
        # Evaluate the full multivariate normal at the profiled parameters.
        rng = np.random.default_rng(12)
        for rho in (-0.3, 0.0, 0.45):
            problem = random_problem(rng, n=4, p=2)
            spec = spectrum(problem.W)
            point = profile_loglik(rho, problem, spec)
            A = np.eye(4) - rho * problem.W
            cov = point.sigma2 * np.linalg.inv(A) @ np.linalg.inv(A).T
            cov = 0.5 * (cov + cov.T)
            direct = stats.multivariate_normal.logpdf(
                problem.y, mean=problem.X @ point.beta, cov=cov
            )
            assert abs(point.loglik - direct) < 1e-8

    def test_continuous_over_interval(self):
        # Scan check: finite everywhere, and the largest adjacent jump
        # shrinks when the grid is refined (as it must for a continuous map).
        rng = np.random.default_rng(13)
        problem = random_problem(rng, n=25)
        spec = spectrum(problem.W)
        edge = np.linspace(spec.rho_lower + 1e-3, spec.rho_upper - 1e-3, 400)
        assert np.all(
            np.isfinite([profile_loglik(r, problem, spec).loglik for r in edge])
        )
        width = spec.rho_upper - spec.rho_lower
        lo, hi = spec.rho_lower + 0.05 * width, spec.rho_upper - 0.05 * width
        jumps = {}
        for points in (200, 800):
            grid = np.linspace(lo, hi, points)
            values = np.array(
                [profile_loglik(r, problem, spec).loglik for r in grid]
            )
            jumps[points] = np.abs(np.diff(values)).max()
        assert jumps[800] < 0.5 * jumps[200]

    def test_outside_interval_rejected(self):
        rng = np.random.default_rng(14)
        problem = random_problem(rng)
        spec = spectrum(problem.W)
        with pytest.raises(EstimationError, match="outside"):
            profile_loglik(spec.rho_upper + 0.5, problem, spec)

    def test_collinear_design_named(self):
        rng = np.random.default_rng(15)
        n = 20
        x = rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x, 2.0 * x])
        problem = SemProblem(
            y=rng.standard_normal(n),
            X=X,
            W=random_row_normalized_w(rng, n),
            column_names=("intercept", "a", "b"),
        )
        with pytest.raises(EstimationError, match="collinear columns: \\['(a|b)'\\]"):
            fit(problem)


class TestFit:
    def test_matches_grid_search(self):
        rng = np.random.default_rng(16)
        for seed in range(3):
            problem = random_problem(
                np.random.default_rng(100 + seed), n=50, rho=0.5
            )
            spec = spectrum(problem.W)
            fitted = fit(problem)
            grid = np.arange(spec.rho_lower + 1e-6, spec.rho_upper - 1e-6, 1e-4)
            values = [profile_loglik(r, problem, spec).loglik for r in grid]
            best = grid[int(np.argmax(values))]
            assert abs(fitted.rho_hat - best) < 1e-3

    def test_residual_identities(self):
        rng = np.random.default_rng(17)
        problem = random_problem(rng, n=40, rho=0.5)
        fitted = fit(problem)
        u_hat, eps_hat = residuals(problem, fitted.beta_hat, fitted.rho_hat)
        n = problem.n
        A = np.eye(n) - fitted.rho_hat * problem.W
        np.testing.assert_allclose(eps_hat, A @ u_hat, atol=1e-12)
        # Round-trip: u = (I - rho W)^{-1} eps
        np.testing.assert_allclose(
            u_hat, np.linalg.solve(A, eps_hat), atol=1e-8
        )
        np.testing.assert_allclose(
            u_hat, problem.y - problem.X @ fitted.beta_hat, atol=1e-12
        )

    def test_nests_ols(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            problem = random_problem(rng, n=35, rho=float(rng.uniform(-0.5, 0.7)))
            fitted = fit(problem)
            at_zero = profile_loglik(0.0, problem, spectrum(problem.W)).loglik
            assert fitted.loglik >= at_zero - 1e-6

    def test_se_rho_positive_when_interior(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            problem = random_problem(rng, n=40, rho=0.4)
            fitted = fit(problem)
            if fitted.converged:
                lo, hi = fitted.rho_bounds
                if lo + 1e-4 < fitted.rho_hat < hi - 1e-4:
                    assert fitted.se_rho > 0

    def test_aic_formula(self):
        rng = np.random.default_rng(20)
        problem = random_problem(rng, n=30, p=4)
        fitted = fit(problem)
        assert abs(fitted.aic - (-2.0 * fitted.loglik + 2.0 * (4 + 2))) < 1e-12

    def test_rho_within_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            problem = random_problem(rng, rho=0.6)
            fitted = fit(problem)
            lo, hi = fitted.rho_bounds
            assert lo < fitted.rho_hat < hi

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_boundary_optimum_lands_on_interval_end(self, sign):
        # Flows in reverse pairs with y = (a, sign * a): (I - rho W) y scales
        # by 1 - sign * rho, so the profile rises monotonically towards
        # rho = sign and the optimum is the end of the search interval.
        rng = np.random.default_rng(28)
        pairs = 20
        a = 100.0 * rng.standard_normal(pairs)
        y = np.column_stack([a, sign * a]).ravel()
        W = np.kron(np.eye(pairs), SWAP)
        problem = SemProblem(y=y, X=np.ones((2 * pairs, 1)), W=W)
        spec = spectrum(W)
        fitted = fit(problem)
        if sign < 0:
            assert fitted.rho_hat == spec.rho_lower + BOUNDARY_MARGIN
        else:
            assert fitted.rho_hat == spec.rho_upper - BOUNDARY_MARGIN
        assert fitted.converged
        assert math.isnan(fitted.se_rho)

    def test_non_convergence_still_returns_fit(self, monkeypatch):
        rng = np.random.default_rng(27)
        problem = random_problem(rng, n=40, rho=0.5)
        monkeypatch.setattr(sem, "BRENT_MAXFUN", 1)
        monkeypatch.setattr(sem, "BRENT_XATOL", 1e-14)
        starved = fit(problem)
        assert not starved.converged
        assert np.isfinite(starved.loglik)

    def test_p_values_layout(self):
        rng = np.random.default_rng(22)
        problem = random_problem(rng, n=40, p=3)
        fitted = fit(problem)
        assert fitted.p_values.shape == (4,)
        assert np.all((fitted.p_values >= 0) & (fitted.p_values <= 1))

    def test_zero_rho_simulations_cover_truth(self):
        # Simulated under independence: rho_hat should sit within 3 SEs of
        # zero in at least 95% of replications.
        reps = 200
        hits = 0
        for rep in range(reps):
            spec = SimSpec(
                n_nodes=60,
                n_periods=1,
                density=500.0 / (60 * 59),
                structure=NeighborhoodSpec("full_activity"),
                rho=0.0,
                beta=(1.0, 2.0, -1.0),
                sigma=1.0,
                seed=50_000 + rep,
            )
            result = simulate(spec)
            problem = SemProblem(
                y=log_flow_vector(result.panel[0], result.indices[1]),
                X=result.designs[1],
                W=result.weights[1],
            )
            fitted = fit(problem)
            if abs(fitted.rho_hat) <= 3.0 * fitted.se_rho:
                hits += 1
        assert hits / reps >= 0.95

    def test_recovery_mean_rho(self, recovery_study):
        mean_rho = recovery_study["rho_hats"].mean()
        assert abs(mean_rho - RECOVERY_TRUTH["rho"]) < 0.05


def objective_of(shape, c1, c2, c3, k):
    """A test objective: smooth, kinked, stepped, or smooth with NaN or -inf past c1."""

    def smooth(x):
        return c1 * x + c2 * x * x + c3 * math.sin(k * x)

    return {
        "smooth": smooth,
        "kink": lambda x: abs(x - c1) + c2 * x,
        "step": lambda x: math.floor(k * x) + c1 * x,
        "nan": lambda x: math.nan if x > c1 else smooth(x),
        "inf": lambda x: -math.inf if x > c1 else smooth(x),
    }[shape]


def bits(*values):
    return np.array(values, dtype=float).view(np.int64).tolist()


class TestBoundedBrent:
    @settings(max_examples=400, deadline=None)
    @given(
        shape=st.sampled_from(["smooth", "kink", "step", "nan", "inf"]),
        coefficients=st.tuples(*[st.floats(-5.0, 5.0)] * 3),
        k=st.floats(0.0, 20.0),
        a=st.floats(-10.0, 10.0),
        width=st.floats(0.0, 10.0),
        xatol=st.floats(1e-14, 1.0),
        maxfun=st.integers(1, 500),
    )
    def test_matches_scipy_bounded_method(self, shape, coefficients, k, a, width, xatol, maxfun):
        func = objective_of(shape, *coefficients, k)
        b = a + width
        with np.errstate(invalid="ignore"):  # scipy's numpy scalars warn on inf - inf
            expected = minimize_scalar(
                func, bounds=(a, b), method="bounded", options={"xatol": xatol, "maxiter": maxfun}
            )
        x, fun, converged = _bounded_brent(func, a, b, xatol, maxfun)
        assert bits(x, fun) == bits(expected.x, expected.fun)
        assert converged == expected.success

    def test_a_run_stopped_at_the_cap_matches_scipy(self):
        func = objective_of("smooth", 0.3, 1.0, 0.5, 7.0)
        expected = minimize_scalar(
            func, bounds=(-2.0, 2.0), method="bounded", options={"xatol": 1e-14, "maxiter": 3}
        )
        assert not expected.success
        assert _bounded_brent(func, -2.0, 2.0, 1e-14, 3) == (expected.x, expected.fun, False)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_profile_search_matches_scipy(self, seed):
        # The Brent step of fit: the bracket around the best coarse grid
        # point, on the cross-product profile that fit searches.
        problem = random_problem(np.random.default_rng(seed), n=60, rho=0.6)
        spec = spectrum(problem.W)
        cache = _ProfileCache(problem)
        grid = np.linspace(spec.rho_lower + BOUNDARY_MARGIN, spec.rho_upper - BOUNDARY_MARGIN,
                           GRID_POINTS)
        best = int(np.argmax(cache.profile(grid, spec)))
        a, b = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, GRID_POINTS - 1)])

        def negative(rho):
            return -cache.profile(rho, spec)

        expected = minimize_scalar(
            negative, bounds=(a, b), method="bounded", options={"xatol": 1e-8, "maxiter": 500}
        )
        x, fun, converged = _bounded_brent(negative, a, b, 1e-8, 500)
        assert bits(x, fun) == bits(expected.x, expected.fun)
        assert converged and expected.success
        assert fit(problem).rho_hat == x


def test_p_values_match_the_normal_tail():
    z = np.linspace(0.0, 37.0, 20_001)
    expected = 2.0 * ndtr(-z)
    np.testing.assert_allclose(_two_sided_p(z, 1.0), expected, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(_two_sided_p(-3.0 * z, 3.0), expected, rtol=1e-12, atol=0.0)
    undefined, certain = _two_sided_p(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    assert math.isnan(undefined) and certain == 0.0
    # Without a finite standard error every estimate gets its own NaN.
    np.testing.assert_array_equal(_two_sided_p(1.0, None), np.full(1, math.nan), strict=True)
    unknown = _two_sided_p(np.ones(3), np.array([1.0, math.nan, 1.0]))
    np.testing.assert_array_equal(unknown, np.full(3, math.nan), strict=True)


def test_degenerate_fits_keep_one_p_value_per_estimate(tmp_path):
    # A perfect fit has no standard errors, so each of its p + 1 p-values is
    # NaN, and coefficients.csv keeps each fit's rows with its own values.
    rng = np.random.default_rng(66)
    n, p = 20, 3
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    perfect = SemProblem(y=X @ np.array([2.0, 3.0, -1.0]), X=X, W=random_row_normalized_w(rng, n))
    noisy = random_problem(rng, n=30, p=p)
    path = tmp_path / "coefficients.csv"
    for fitter in (fit, fit_ols):
        degenerate, fitted = fitter(perfect), fitter(noisy)
        assert degenerate.degenerate and not fitted.degenerate
        assert degenerate.p_values.shape == fitted.p_values.shape == (p + 1,)
        assert np.isnan(degenerate.p_values).all()
        write_coefficients_csv(path, [(1, "s", degenerate), (2, "s", fitted)])
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * (p + 1)
        assert [row["term"] for row in rows] == ["x0", "x1", "x2", "rho"] * 2
        assert [row["period"] for row in rows] == ["1"] * (p + 1) + ["2"] * (p + 1)
        np.testing.assert_array_equal(
            [float(row["p_value"]) for row in rows],
            np.concatenate([degenerate.p_values, fitted.p_values]),
        )


class TestFitOls:
    def test_zero_weight_matrix_equivalence(self):
        # With an all-zero W the profile is flat in rho: fit refuses to pick
        # an arbitrary rho, and only the OLS fit is defined.
        rng = np.random.default_rng(23)
        n = 30
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = X @ np.array([1.0, -0.5, 2.0]) + rng.standard_normal(n)
        problem = SemProblem(y=y, X=X, W=np.zeros((n, n)))
        with pytest.raises(EstimationError, match="rho is not identified"):
            fit(problem)
        assert fit_ols(problem).converged

    def test_perfect_fit_flagged_degenerate(self):
        rng = np.random.default_rng(24)
        n = 20
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        beta = np.array([2.0, 3.0])
        problem = SemProblem(y=X @ beta, X=X, W=np.zeros((n, n)))
        fitted = fit_ols(problem)
        assert fitted.degenerate
        np.testing.assert_allclose(fitted.beta_hat, beta, atol=1e-10)
        assert np.all(np.isnan(fitted.se_beta))

    def test_aic_hand_formula(self):
        rng = np.random.default_rng(25)
        problem = random_problem(rng, n=30, p=3)
        fitted = fit_ols(problem)
        assert abs(fitted.aic - (-2.0 * fitted.loglik + 2.0 * (3 + 1))) < 1e-12

    def test_rho_fixed_at_zero(self):
        rng = np.random.default_rng(26)
        problem = random_problem(rng)
        fitted = fit_ols(problem)
        assert fitted.rho_hat == 0.0
        assert fitted.se_rho is None
        assert math.isnan(fitted.p_values[-1])
        u_hat, eps_hat = residuals(problem, fitted.beta_hat)
        np.testing.assert_array_equal(eps_hat, u_hat)


class TestSemProblem:
    def test_dimension_checks(self):
        with pytest.raises(EstimationError, match="X shape"):
            SemProblem(y=np.ones(3), X=np.ones((4, 1)), W=np.zeros((3, 3)))
        with pytest.raises(EstimationError, match="W shape"):
            SemProblem(y=np.ones(3), X=np.ones((3, 1)), W=np.zeros((2, 2)))
        with pytest.raises(EstimationError, match="more observations"):
            SemProblem(y=np.ones(2), X=np.ones((2, 2)), W=np.zeros((2, 2)))

    def test_default_column_names(self):
        problem = SemProblem(
            y=np.arange(3.0), X=np.eye(3)[:, :2], W=np.zeros((3, 3))
        )
        assert problem.column_names == ("x0", "x1")

    def test_no_weight_matrix_serves_ols_only(self):
        rng = np.random.default_rng(27)
        n = 20
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = X @ np.array([1.0, 2.0]) + rng.standard_normal(n)
        problem = SemProblem(y=y, X=X)
        with_zeros = SemProblem(y=y, X=X, W=np.zeros((n, n)))
        np.testing.assert_array_equal(fit_ols(problem).beta_hat, fit_ols(with_zeros).beta_hat)
        with pytest.raises(EstimationError, match="no weight matrix W"):
            fit(problem)
        with pytest.raises(EstimationError, match="no weight matrix W"):
            profile_loglik(0.0, problem, spectrum(np.zeros((n, n))))


def test_fit_calls_log_det_once_for_the_grid_then_once_per_brent_step(monkeypatch):
    # perfbench's traced pass times netdisturb.sem.log_det by replacing that
    # module attribute, so fit must look it up there at each call.
    calls, steps = [], []
    log_det_of, brent_of = sem.log_det, sem._bounded_brent

    def recording_log_det(rho, spec):
        calls.append(np.array(rho, dtype=float))
        return log_det_of(rho, spec)

    def counting_brent(func, a, b, xatol, maxfun):
        return brent_of(lambda rho: steps.append(rho) or func(rho), a, b, xatol, maxfun)

    monkeypatch.setattr(sem, "log_det", recording_log_det)
    monkeypatch.setattr(sem, "_bounded_brent", counting_brent)
    problem = random_problem(np.random.default_rng(21))
    fitted = fit(problem)
    spec = spectrum(problem.W)
    grid = np.linspace(spec.rho_lower + BOUNDARY_MARGIN, spec.rho_upper - BOUNDARY_MARGIN, GRID_POINTS)
    np.testing.assert_array_equal(calls[0], grid)
    brent = calls[1 : 1 + len(steps)]
    assert steps and all(c.ndim == 0 for c in brent) and [float(c) for c in brent] == steps
    # Then the least-squares point at rho_hat, and the curvature's three in one call.
    at_optimum, curvature = calls[1 + len(steps) :]
    assert at_optimum.ndim == 0 and float(at_optimum) == fitted.rho_hat
    assert curvature.shape == (3,) and curvature[1] == fitted.rho_hat
    assert fitted.evaluations == GRID_POINTS + len(steps) + 1 + 3


def recovery_problem(seed):
    """One replicate of the recovery study's shape: about 500 flows over 150 nodes, full_activity."""
    spec = SimSpec(
        n_nodes=150,
        n_periods=1,
        density=500.0 / (150 * 149),
        structure=NeighborhoodSpec("full_activity"),
        rho=RECOVERY_TRUTH["rho"],
        beta=RECOVERY_TRUTH["beta"],
        sigma=RECOVERY_TRUTH["sigma"],
        seed=seed,
    )
    result = simulate(spec)
    index = result.indices[1]
    return SemProblem(y=log_flow_vector(result.panel[0], index), X=result.designs[1], W=result.weights[1])


def test_factored_fit_calls_log_det_for_the_grid_points_the_bound_leaves(monkeypatch):
    # On a W factored per rho the grid's ends and middle take one call, and
    # each grid point that the concavity bound does not exclude one more;
    # Brent's steps, rho_hat and the curvature's three follow as above.
    calls, steps = [], []
    log_det_of, brent_of = sem.log_det, sem._bounded_brent

    def recording_log_det(rho, spec):
        calls.append(np.array(rho, dtype=float))
        return log_det_of(rho, spec)

    def counting_brent(func, a, b, xatol, maxfun):
        return brent_of(lambda rho: steps.append(rho) or func(rho), a, b, xatol, maxfun)

    problem = recovery_problem(20_000)
    monkeypatch.setattr(sem, "log_det", recording_log_det)
    monkeypatch.setattr(sem, "_bounded_brent", counting_brent)
    fitted = fit(problem)
    assert fitted.log_det == "cholesky"
    grid = np.linspace(-1.0 + BOUNDARY_MARGIN, 1.0 - BOUNDARY_MARGIN, GRID_POINTS)
    np.testing.assert_array_equal(calls[0], grid[[0, GRID_POINTS // 2, -1]])
    points = list(itertools.takewhile(lambda c: c.shape == (1,), calls[1:]))
    assert 0 < len(points) < GRID_POINTS - 3
    taken = np.concatenate([calls[0], *points]).tolist()
    assert len(set(taken)) == len(taken) and set(taken) <= set(grid.tolist())
    brent = calls[1 + len(points) : 1 + len(points) + len(steps)]
    assert steps and all(c.ndim == 0 for c in brent) and [float(c) for c in brent] == steps
    at_optimum, curvature = calls[1 + len(points) + len(steps) :]
    assert at_optimum.ndim == 0 and float(at_optimum) == fitted.rho_hat
    assert curvature.shape == (3,) and curvature[1] == fitted.rho_hat
    assert fitted.evaluations == len(taken) + len(steps) + 1 + 3


def test_factored_fit_takes_each_rho_once_and_warns_nothing(monkeypatch):
    # Ten replicates of the recovery study's shape, with each factorization
    # of I - rho core counted: no rho twice in one fit, and at most 24 a
    # fit on average, where the whole grid and the repeated rho_hat took 36.
    factored = []
    blocks_of = WeightMatrix._blocks
    monkeypatch.setattr(WeightMatrix, "_blocks", lambda W, rho: factored.append(rho) or blocks_of(W, rho))
    counts = []
    for rep in range(10):
        problem = recovery_problem(20_000 + rep)
        factored.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit(problem)
        assert len(set(factored)) == len(factored)
        counts.append(len(factored))
    assert np.mean(counts) <= 24


def test_rank_deficient_fit_loads_no_scipy():
    code = """
import sys
import numpy as np
from netdisturb import EstimationError, SemProblem, fit
x = np.arange(8.0) ** 2
X = np.column_stack([np.ones(8), x, 2.0 * x])
try:
    fit(SemProblem(y=np.arange(8.0), X=X, W=np.eye(8)[::-1], column_names=("c", "a", "b")))
except EstimationError as exc:
    print(exc)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(sem.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert done.stdout.splitlines() == [
        "design matrix is rank deficient; collinear columns: ['b']",
        "[]",
    ]


class TestFitFromDict:
    """A fit is stored by its estimates; `residuals` forms the same residuals from it, bit for bit."""

    @staticmethod
    def round_trip(fitted, problem, tmp_path):
        """``fitted`` written and read back; its residuals from ``problem`` are the original's."""
        path = tmp_path / "fit.json"
        write_fit_json(path, fitted)
        written = json.loads(path.read_text(encoding="utf-8"))
        assert not {"u_hat", "eps_hat"} & set(written)
        read = fit_from_dict(written)
        assert not {"u_hat", "eps_hat"} & {field.name for field in dataclasses.fields(read)}
        rho = None if read.rho_bounds is None else read.rho_hat  # None: a fit_ols fit
        original_rho = None if fitted.rho_bounds is None else fitted.rho_hat
        for formed, original in zip(
            residuals(problem, read.beta_hat, rho), residuals(problem, fitted.beta_hat, original_rho)
        ):
            assert formed.tobytes() == original.tobytes()
        return read

    @staticmethod
    def assert_same_fit(read, original):
        for field in dataclasses.fields(original):
            a, b = getattr(read, field.name), getattr(original, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype, field.name
                np.testing.assert_array_equal(a, b, err_msg=field.name)
            elif isinstance(b, float) and math.isnan(b):
                assert isinstance(a, float) and math.isnan(a), field.name
            else:
                assert type(a) is type(b) and a == b, field.name

    def test_spatial_fit(self, tmp_path):
        problem = random_problem(np.random.default_rng(60))
        fitted = fit(problem)
        assert math.isfinite(fitted.se_rho)
        self.assert_same_fit(self.round_trip(fitted, problem, tmp_path), fitted)

    @pytest.mark.parametrize("method", ["eigenvalues", "cholesky", "lu"])
    def test_built_w_fit(self, tmp_path, method):
        rng = np.random.default_rng(64)
        index = random_flow_index(rng, max_nodes=8, max_flows=40)
        if method == "eigenvalues":
            spec, dyadic = NeighborhoodSpec("alliance_import"), complete_alliance(rng, index.nodes)
        else:
            spec, dyadic = NeighborhoodSpec("full_activity"), None
        if method == "lu":
            # A lone reciprocal pair: its flows' blocks border the core.
            index = FlowIndex(period=1, dyads=index.dyads + (("Y0", "Y1"), ("Y1", "Y0")))
        X = np.column_stack([np.ones(index.n), rng.standard_normal(index.n)])
        y = X @ (1.0, 2.0) + rng.standard_normal(index.n)
        problem = SemProblem(y=y, X=X, W=build_weight_matrix(spec, index, dyadic))
        fitted = fit(problem)
        assert fitted.log_det == method
        self.assert_same_fit(self.round_trip(fitted, problem, tmp_path), fitted)

    def test_ols_fit(self, tmp_path):
        # The problem's W is ignored: eps_hat is u_hat.
        problem = random_problem(np.random.default_rng(61))
        fitted = fit_ols(problem)
        assert fitted.se_rho is None and fitted.rho_bounds is None
        self.assert_same_fit(self.round_trip(fitted, problem, tmp_path), fitted)

    def test_degenerate_fits(self, tmp_path):
        # A perfect fit: se_beta and se_rho are NaN or None, and an OLS
        # fit's loglik and AIC are infinite, so the JSON holds nulls.
        rng = np.random.default_rng(62)
        n = 20
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        problem = SemProblem(y=X @ np.array([2.0, 3.0]), X=X, W=random_row_normalized_w(rng, n))
        ols = fit_ols(problem)
        assert ols.degenerate and ols.aic == -math.inf
        spatial = fit(problem)
        assert spatial.degenerate and math.isnan(spatial.se_rho)
        for fitted in (ols, spatial):
            assert np.isnan(fitted.se_beta).all()
            self.assert_same_fit(self.round_trip(fitted, problem, tmp_path), fitted)
        written = json.loads((tmp_path / "fit.json").read_text(encoding="utf-8"))
        assert written["se_rho"] is None and written["se_beta"] == [None, None]

    def test_provenance(self, tmp_path):
        # How each fit was reached: its profile evaluations and the
        # log-det factorization, none for rho = 0.
        rng = np.random.default_rng(63)
        index = random_flow_index(rng, max_nodes=8, max_flows=40)
        built = build_weight_matrix(NeighborhoodSpec("sender_attached"), index)
        X = np.column_stack([np.ones(index.n), rng.standard_normal(index.n)])
        y = X @ (1.0, 2.0) + rng.standard_normal(index.n)
        for problem, method, fitter in (
            (random_problem(rng), "eigenvalues", fit),
            (SemProblem(y=y, X=X, W=built), log_det_path(spectrum(built)), fit),
            (random_problem(rng), None, fit_ols),
        ):
            fitted = fitter(problem)
            assert fitted.log_det == method
            # The grid (on a factored W at least its ends and middle), Brent's
            # first two steps, rho_hat and the curvature's three.
            grid = GRID_POINTS if method == "eigenvalues" else 3
            assert (fitted.evaluations == 0) if method is None else (fitted.evaluations > grid + 5)
            read = self.round_trip(fitted, problem, tmp_path)
            self.assert_same_fit(read, fitted)
            written = json.loads((tmp_path / "fit.json").read_text(encoding="utf-8"))
            assert (written["evaluations"], written["log_det"]) == (fitted.evaluations, method)
