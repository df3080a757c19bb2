import json
import math

import numpy as np
import pytest

from netdisturb import SemFit, akaike_weights, select, smooth_weights
from netdisturb.selection import (
    report_to_dict,
    write_aggregated_csv,
    write_report_json,
    write_weights_csv,
)


def make_fit(aic, converged=True, degenerate=False):
    return SemFit(
        rho_hat=0.1,
        beta_hat=np.zeros(2),
        sigma2_hat=1.0,
        se_beta=np.ones(2),
        se_rho=0.1,
        p_values=np.full(3, 0.5),
        loglik=-0.5 * (aic - 2.0 * 4),
        aic=aic,
        converged=converged,
        degenerate=degenerate,
    )


class TestAkaikeWeights:
    def test_symmetric_tie(self):
        np.testing.assert_allclose(akaike_weights([10.0, 10.0]), [0.5, 0.5])

    def test_hand_computed_pair(self):
        # deltas (0, 2): weights 1/(1+e^-1) and e^-1/(1+e^-1)
        weights = akaike_weights([0.0, 2.0])
        np.testing.assert_allclose(weights, [0.73106, 0.26894], atol=1e-5)

    def test_large_delta_no_overflow(self):
        weights = akaike_weights([0.0, 1000.0])
        assert np.all(np.isfinite(weights))
        np.testing.assert_allclose(weights, [1.0, 0.0], atol=1e-12)

    def test_huge_delta(self):
        weights = akaike_weights([0.0, 1e4])
        assert np.all(np.isfinite(weights))
        assert abs(weights.sum() - 1.0) <= 1e-12

    def test_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            aics = rng.normal(100.0, 50.0, size=int(rng.integers(1, 9)))
            assert abs(akaike_weights(aics).sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        aics = rng.normal(size=5)
        np.testing.assert_allclose(
            akaike_weights(aics), akaike_weights(aics + 123.4), atol=1e-12
        )

    def test_min_aic_gets_max_weight(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            aics = rng.normal(size=6)
            weights = akaike_weights(aics)
            assert np.argmin(aics) == np.argmax(weights)

    def test_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            akaike_weights([])
        with pytest.raises(ValueError, match="non-finite AIC"):
            akaike_weights([1.0, math.nan])


class TestSelect:
    def test_basic_report(self):
        fits = {
            (1, "a"): make_fit(10.0),
            (1, "b"): make_fit(14.0),
            (2, "a"): make_fit(20.0),
            (2, "b"): make_fit(18.0),
        }
        report = select(fits, structures=["a", "b"])
        assert report.periods == (1, 2)
        np.testing.assert_allclose(report.aggregated_aic, [30.0, 32.0])
        np.testing.assert_allclose(report.aggregated_delta, [0.0, 2.0])
        assert report.winner == "a"
        np.testing.assert_allclose(report.delta[0], [0.0, 4.0])
        assert abs(report.weight.sum(axis=1) - 1.0).max() <= 1e-12

    def test_identical_fits_tie(self):
        fits = {(t, s): make_fit(9.0) for t in (1, 2) for s in ("a", "b")}
        report = select(fits, structures=["a", "b"])
        np.testing.assert_array_equal(report.aggregated_delta, [0.0, 0.0])
        assert report.winner == "a"  # tie broken by structure order

    def test_single_period_matches_scalar_op(self):
        aics = [5.0, 7.0, 9.0]
        fits = {(1, s): make_fit(a) for s, a in zip("abc", aics)}
        report = select(fits, structures=list("abc"))
        np.testing.assert_allclose(report.weight[0], akaike_weights(aics))

    def test_period_missing_structure_dropped(self):
        fits = {
            (1, "a"): make_fit(10.0),
            (1, "b"): make_fit(11.0),
            (2, "a"): make_fit(10.0),
        }
        with pytest.warns(UserWarning, match="excluded"):
            report = select(fits, structures=["a", "b"])
        assert report.periods == (1,)
        assert report.excluded == ((2, "missing fit for b"),)

    def test_non_converged_period_dropped(self):
        fits = {
            (1, "a"): make_fit(10.0),
            (1, "b"): make_fit(11.0),
            (2, "a"): make_fit(10.0),
            (2, "b"): make_fit(11.0, converged=False),
        }
        with pytest.warns(UserWarning, match="excluded"):
            report = select(fits, structures=["a", "b"])
        assert report.periods == (1,)
        assert "non-converged" in report.excluded[0][1]

    def test_empty_map(self):
        with pytest.raises(ValueError, match="empty fit map"):
            select({})

    def test_no_common_period(self):
        fits = {(1, "a"): make_fit(1.0), (2, "b"): make_fit(2.0)}
        with pytest.warns(UserWarning, match="excluded"):
            with pytest.raises(ValueError, match="no period"):
                select(fits, structures=["a", "b"])

    def test_non_finite_aic_named(self):
        # A perfect fit (AIC = -inf) excludes its period instead of aborting.
        fits = {
            (1, "a"): make_fit(-math.inf),
            (1, "b"): make_fit(1.0),
            (2, "a"): make_fit(2.0),
            (2, "b"): make_fit(3.0),
        }
        with pytest.warns(UserWarning, match="excluded"):
            report = select(fits, structures=["a", "b"])
        assert report.periods == (2,)
        assert report.excluded == ((1, "degenerate fit for a"),)

    def test_degenerate_fit_with_finite_aic_excluded(self):
        # A spatial fit to a perfect fit has sigma^2 near 0 but a finite,
        # very low AIC: it must not win the period or the aggregate.
        fits = {
            (1, "a"): make_fit(-1276.2, degenerate=True),
            (1, "b"): make_fit(1.0),
            (2, "a"): make_fit(2.0),
            (2, "b"): make_fit(3.0),
        }
        with pytest.warns(UserWarning, match="excluded"):
            report = select(fits, structures=["a", "b"])
        assert report.periods == (2,)
        assert report.excluded == ((1, "degenerate fit for a"),)
        assert report.winner == "a" and report.aggregated_aic.tolist() == [2.0, 3.0]

    def test_default_structure_order_sorted(self):
        fits = {(1, "z"): make_fit(1.0), (1, "a"): make_fit(2.0)}
        report = select(fits)
        assert report.structures == ("a", "z")

    def test_shift_invariance_of_weights(self):
        fits = {(1, "a"): make_fit(3.0), (1, "b"): make_fit(5.5)}
        shifted = {(1, "a"): make_fit(103.0), (1, "b"): make_fit(105.5)}
        one = select(fits, structures=["a", "b"])
        other = select(shifted, structures=["a", "b"])
        np.testing.assert_allclose(one.weight, other.weight, atol=1e-12)


class TestSmoothing:
    def test_window_must_be_odd(self):
        report = select({(1, "a"): make_fit(1.0)}, structures=["a"])
        with pytest.raises(ValueError, match="odd"):
            smooth_weights(report, window=4)

    def test_truncated_centered_average(self):
        fits = {
            (t, s): make_fit(aic)
            for t, (a_aic, b_aic) in enumerate([(0.0, 2.0), (2.0, 0.0), (0.0, 2.0)])
            for s, aic in (("a", a_aic), ("b", b_aic))
        }
        report = select(fits, structures=["a", "b"])
        smoothed = smooth_weights(report, window=3)
        np.testing.assert_allclose(smoothed.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(
            smoothed[1], report.weight.mean(axis=0), atol=1e-12
        )
        # Edge rows average only the available neighbours.
        np.testing.assert_allclose(
            smoothed[0], report.weight[:2].mean(axis=0), atol=1e-12
        )


class TestExports:
    @pytest.fixture
    def report(self):
        fits = {
            (1, "a"): make_fit(10.0),
            (1, "b"): make_fit(14.0),
            (2, "a"): make_fit(20.0),
            (2, "b"): make_fit(18.0),
        }
        return select(fits, structures=["a", "b"])

    def test_aggregated_csv(self, tmp_path, report):
        path = tmp_path / "aggregated.csv"
        write_aggregated_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "structure,aic_sum,delta"
        assert lines[1] == "a,30,0"

    def test_weights_csv(self, tmp_path, report):
        path = tmp_path / "weights.csv"
        write_weights_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "period,structure,weight"
        assert len(lines) == 1 + 4

    def test_json_report(self, tmp_path, report):
        path = tmp_path / "selection.json"
        write_report_json(path, report)
        payload = json.loads(path.read_text())
        assert payload["aggregated"]["winner"] == "a"
        assert payload["per_period"]["1"]["delta"]["b"] == 4.0

    def test_round_trippable_dict(self, report):
        payload = report_to_dict(report)
        assert payload["structures"] == ["a", "b"]
        assert payload["periods"] == [1, 2]
