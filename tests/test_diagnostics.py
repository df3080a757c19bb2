import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import ndtr, ndtri

from netdisturb import (
    DenseWeight,
    EstimationError,
    FlowIndex,
    NeighborhoodSpec,
    SemFit,
    SemProblem,
    TradecorrResiduals,
    build_weight_matrix,
    fit,
    histogram,
    kde,
    node_values,
    qq_pairs,
    standardized_residuals,
    tradecorr_residuals,
)
from netdisturb.diagnostics import (
    write_hist_csv,
    write_kde_csv,
    write_qq_csv,
    write_tradecorr_csv,
)
from netdisturb.sem import residuals

from conftest import random_row_normalized_w

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def make_fit(sigma2=1.0, rho=0.5, converged=True):
    """A fit's estimates; the residual functions take its residuals beside it."""
    p = 2
    return SemFit(
        rho_hat=rho,
        beta_hat=np.zeros(p),
        sigma2_hat=sigma2,
        se_beta=np.ones(p),
        se_rho=0.1,
        p_values=np.full(p + 1, 0.5),
        loglik=-1.0,
        aic=2.0,
        converged=converged,
    )


class TestStandardizedResiduals:
    def test_hand_division(self):
        fitted = make_fit(sigma2=4.0)
        np.testing.assert_array_equal(standardized_residuals(fitted, np.array([2.0, -2.0])), [1.0, -1.0])

    def test_requires_convergence(self):
        fitted = make_fit(converged=False)
        with pytest.raises(EstimationError, match="non-converged"):
            standardized_residuals(fitted, np.array([1.0, 2.0]))

    def test_degenerate_sigma_rejected(self):
        fitted = make_fit(sigma2=1e-16)
        with pytest.raises(EstimationError, match="degenerate"):
            standardized_residuals(fitted, np.zeros(2))

    def test_unit_scale_on_simulated_fit(self):
        rng = np.random.default_rng(31)
        n = 1000
        W = random_row_normalized_w(rng, n, density=0.01)
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        u = np.linalg.solve(np.eye(n) - 0.4 * W, rng.standard_normal(n))
        problem = SemProblem(y=X @ [1.0, 2.0] + u, X=X, W=DenseWeight(W))
        fitted = fit(problem)
        eps_hat = residuals(problem, fitted.beta_hat, fitted.rho_hat)[1]
        standardized = standardized_residuals(fitted, eps_hat)
        assert abs(standardized.std() - 1.0) < 0.1


class TestQQ:
    def test_plotting_positions(self):
        theoretical, empirical = qq_pairs([3.0, 1.0, 2.0, 0.0])
        np.testing.assert_array_equal(empirical, [0.0, 1.0, 2.0, 3.0])
        expected = stats.norm.ppf((np.arange(1, 5) - 0.5) / 4)
        np.testing.assert_allclose(theoretical, expected)

    def test_monotone_in_both_coordinates(self):
        rng = np.random.default_rng(32)
        theoretical, empirical = qq_pairs(rng.standard_normal(101))
        assert np.all(np.diff(theoretical) > 0)
        assert np.all(np.diff(empirical) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            qq_pairs([])

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 150_000])
    def test_quantiles_match_ndtri(self, n):
        theoretical, _ = qq_pairs(np.zeros(n))
        probs = (np.arange(1, n + 1) - 0.5) / n
        np.testing.assert_allclose(theoretical, ndtri(probs), rtol=0.0, atol=1e-14)


class TestHistogram:
    def test_counts_and_reference(self):
        rng = np.random.default_rng(33)
        values = rng.standard_normal(5000)
        hist = histogram(values)
        assert hist.counts.sum() == 5000
        assert hist.normal_ref.shape == hist.counts.shape
        # Reference counts approximate the observed ones for normal data.
        assert np.abs(hist.counts - hist.normal_ref).max() < 0.1 * 5000

    def test_needs_two_values(self):
        with pytest.raises(ValueError, match="at least two"):
            histogram([1.0])

    @pytest.mark.parametrize("scale", [1.0, 8.0, 40.0])
    def test_reference_masses_match_ndtr(self, scale):
        # Wide samples put bin edges deep in both tails.
        values = scale * np.random.default_rng(34).standard_normal(3000)
        hist = histogram(values)
        edges = hist.bin_edges
        mass = ndtr(edges[1:]) - ndtr(edges[:-1])
        np.testing.assert_allclose(hist.normal_ref / values.size, mass, rtol=0.0, atol=1e-14)


class TestTradecorrResiduals:
    def index(self):
        return FlowIndex(period=4, dyads=(("A", "B"), ("B", "A")))

    def weights(self):
        return build_weight_matrix(NeighborhoodSpec("full_activity"), self.index())

    def test_hand_matrix_vector_product(self):
        weights = self.weights()
        np.testing.assert_array_equal(weights.entries, SWAP)
        fitted = make_fit(rho=0.5)
        result = tradecorr_residuals(fitted, np.array([1.0, -1.0]), weights, self.index())
        np.testing.assert_array_equal(result.values, [-0.5, 0.5])
        by_node = {node: values.tolist() for node, values in node_values([result]).items()}
        assert by_node == {"A": [-0.5, 0.5], "B": [-0.5, 0.5]}
        assert result.period == 4

    def test_zero_rho_gives_zeros(self):
        fitted = make_fit(rho=0.0)
        result = tradecorr_residuals(fitted, np.array([1.0, -1.0]), self.weights(), self.index())
        np.testing.assert_array_equal(result.values, [0.0, 0.0])

    def test_attribution_covers_each_flow_twice(self):
        rng = np.random.default_rng(34)
        from conftest import random_flow_index

        index = random_flow_index(rng, max_nodes=6, max_flows=14)
        n = index.n
        weights = build_weight_matrix(NeighborhoodSpec("full_activity"), index)
        fitted = make_fit(rho=0.3)
        result = tradecorr_residuals(fitted, rng.standard_normal(n), weights, index)
        by_node = node_values([result])
        assert sum(v.size for v in by_node.values()) == 2 * n
        assert list(by_node) == sorted(by_node)

    def test_linear_in_u(self):
        index = self.index()
        weights = self.weights()
        u = np.array([0.7, -0.2])
        one = tradecorr_residuals(make_fit(rho=0.5), u, weights, index)
        two = tradecorr_residuals(make_fit(rho=0.5), 3.0 * u, weights, index)
        np.testing.assert_allclose(two.values, 3.0 * one.values, atol=1e-14)

    def test_mismatched_index_rejected(self):
        other = FlowIndex(period=4, dyads=(("A", "C"), ("C", "A")))
        fitted = make_fit()
        with pytest.raises(EstimationError, match="do not match"):
            tradecorr_residuals(fitted, np.array([1.0, -1.0]), self.weights(), other)


def values_by_flow(items):
    """The per-flow loop node_values replaced, kept as its oracle."""
    by_node: dict[str, list[float]] = {}
    for item in items:
        for a, (sender, receiver) in enumerate(item.index.dyads):
            by_node.setdefault(sender, []).append(float(item.values[a]))
            by_node.setdefault(receiver, []).append(float(item.values[a]))
    return by_node


@st.composite
def spillover_items(draw):
    """Periods over differing node sets, each naming nodes that send and receive
    nothing, with the flows in no particular order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = np.array([f"N{k:02d}" for k in range(12)])
    items = []
    for period in range(draw(st.integers(1, 4))):
        nodes = np.sort(rng.choice(names, int(rng.integers(2, 13)), replace=False))
        pairs = [(a, b) for a in range(nodes.size) for b in range(nodes.size) if a != b]
        picked = rng.permutation(len(pairs))[: int(rng.integers(1, len(pairs) + 1))]
        sender, receiver = np.array([pairs[k] for k in picked]).T
        index = FlowIndex.from_codes(period, nodes.tolist(), sender, receiver)
        items.append(TradecorrResiduals(period, rng.standard_normal(sender.size), index))
    return items


class TestNodeValues:
    @settings(max_examples=200, deadline=None)
    @given(spillover_items())
    def test_matches_the_per_flow_loop(self, items):
        expected = values_by_flow(items)
        got = node_values(items)
        assert list(got) == sorted(expected)
        for node, values in got.items():
            assert values.tolist() == expected[node], node

    def test_no_items(self):
        assert node_values([]) == {}


class TestKde:
    def test_symmetric_two_points(self):
        curve = kde([-1.0, 1.0], n_grid=401)
        flipped = curve.density[::-1]
        np.testing.assert_allclose(curve.density, flipped, atol=1e-10)

    def test_integral_close_to_one(self):
        rng = np.random.default_rng(35)
        curve = kde(rng.standard_normal(500))
        integral = np.trapezoid(curve.density, curve.grid)
        assert abs(integral - 1.0) < 1e-2

    def test_density_nonnegative(self):
        rng = np.random.default_rng(36)
        curve = kde(rng.uniform(size=50))
        assert np.all(curve.density >= 0)

    def test_large_sample_matches_normal(self):
        rng = np.random.default_rng(37)
        curve = kde(rng.standard_normal(100_000), n_grid=301)
        reference = stats.norm.pdf(curve.grid)
        assert np.abs(curve.density - reference).max() < 0.02

    def test_silverman_bandwidth(self):
        values = np.array([-1.0, 1.0])
        curve = kde(values)
        sd = values.std(ddof=1)
        iqr = 1.0  # quartiles at -0.5 and 0.5
        expected = 0.9 * min(sd, iqr / 1.34) * 2 ** (-0.2)
        assert abs(curve.bandwidth - expected) < 1e-12

    def test_needs_two_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            kde([2.0, 2.0, 2.0])


class TestWriters:
    def test_csv_artifacts(self, tmp_path):
        rng = np.random.default_rng(38)
        values = rng.standard_normal(64)
        theoretical, empirical = qq_pairs(values)
        write_qq_csv(tmp_path / "qq.csv", theoretical, empirical)
        write_hist_csv(tmp_path / "hist.csv", histogram(values))
        write_kde_csv(tmp_path / "kde.csv", [kde(values, n_grid=16, node_id="A")])
        index = FlowIndex(period=2, dyads=(("A", "B"), ("B", "A")))
        weights = build_weight_matrix(NeighborhoodSpec("full_activity"), index)
        np.testing.assert_array_equal(weights.entries, SWAP)
        fitted = make_fit(rho=0.5)
        write_tradecorr_csv(
            tmp_path / "tradecorr.csv",
            [tradecorr_residuals(fitted, np.array([1.0, -1.0]), weights, index)],
        )
        assert (tmp_path / "qq.csv").read_text().splitlines()[0] == "theoretical,empirical"
        assert (
            tmp_path / "hist.csv"
        ).read_text().splitlines()[0] == "bin_left,bin_right,count,normal_ref"
        assert (tmp_path / "kde.csv").read_text().splitlines()[0] == "node,x,density"
        lines = (tmp_path / "tradecorr.csv").read_text().splitlines()
        assert lines[0] == "period,sender,receiver,value"
        assert lines[1] == "2,A,B,-0.5"
