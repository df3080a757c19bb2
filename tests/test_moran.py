import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from netdisturb import (
    DyadicSeries,
    FlowIndex,
    NeighborhoodSpec,
    build_weight_matrix,
    morans_i,
    scan_cutoffs,
)
from netdisturb.errors import WeightError
from netdisturb.moran import DEFAULT_GRID_KM, write_scan_csv, write_scan_json

from conftest import complete_distances, random_flow_index

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestMoransI:
    def test_hand_example_exact(self):
        assert morans_i(np.array([1.0, -1.0]), SWAP) == -1.0

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            morans_i(np.array([1.0, 1.0]), SWAP)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            morans_i(np.array([1.0, -1.0]), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            morans_i(np.ones(3), SWAP)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(12)
        w = rng.uniform(size=(12, 12))
        np.fill_diagonal(w, 0.0)
        base = morans_i(z, w)
        for scale in (0.01, 3.0, 1e6):
            assert abs(morans_i(scale * z, w) - base) < 1e-12

    def test_permutation_null_expectation(self):
        # Under random permutations E[I] = -1/(m-1).
        rng = np.random.default_rng(2)
        m = 15
        z = rng.standard_normal(m)
        w = (rng.uniform(size=(m, m)) < 0.3).astype(float)
        np.fill_diagonal(w, 0.0)
        w[0, 1] = 1.0  # keep at least one link
        draws = [morans_i(rng.permutation(z), w) for _ in range(4000)]
        expected = -1.0 / (m - 1)
        assert abs(np.mean(draws) - expected) < 3.0 * np.std(draws) / np.sqrt(len(draws))


def toy_panel(rng, periods=3, nodes=6, flows=10, symmetric=True):
    indices = {}
    residuals = {}
    all_nodes = set()
    for period in range(1, periods + 1):
        index = random_flow_index(rng, max_nodes=nodes, max_flows=flows, period=period)
        indices[period] = index
        residuals[period] = rng.standard_normal(index.n)
        all_nodes |= {n for dyad in index.dyads for n in dyad}
    distances = complete_distances(rng, all_nodes, scale=4000.0, symmetric=symmetric)
    return residuals, indices, distances


class TestScanCutoffs:
    def test_single_cutoff_grid(self):
        rng = np.random.default_rng(3)
        residuals, indices, distances = toy_panel(rng)
        scan = scan_cutoffs(residuals, indices, distances, grid=[3000.0])
        assert scan.best_cutoff == 3000.0
        assert scan.grid.tolist() == [3000.0]

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        periods=st.integers(1, 3),
        symmetric=st.booleans(),
        direction=st.sampled_from(["import", "export"]),
        data=st.data(),
    )
    def test_matches_dense_block_diagonal(self, seed, periods, symmetric, direction, data):
        # The per-anchor sums equal Moran's I of the pooled residuals under
        # an explicitly assembled block-diagonal weight matrix built by the
        # general weight builder.  The grid mixes realized distances (where
        # d < cutoff is strict), 0 km (every block empty), points between
        # them and points beyond every distance (the same complete graph);
        # the asymmetric series checks that both read d(anchor, partner).
        rng = np.random.default_rng(seed)
        residuals, indices, distances = toy_panel(rng, periods=periods, symmetric=symmetric)
        realized = sorted(set(distances.values.values()))
        picks = data.draw(st.lists(st.sampled_from(realized), max_size=4))
        others = data.draw(
            st.lists(st.sampled_from([0.0, 900.0, 2000.0, 3100.0, 50_000.0, 60_000.0]), min_size=1)
        )
        grid = np.array(sorted(set(picks) | set(others)))
        kind = f"distance_{direction}"
        z = np.concatenate([residuals[t] for t in sorted(residuals)])
        dense = [
            block_diag(*[
                build_weight_matrix(NeighborhoodSpec(kind, cutoff_km=c), indices[t], distances).entries
                if c > 0 else np.zeros((indices[t].n,) * 2)
                for t in sorted(residuals)
            ])
            for c in grid
        ]
        if not any(W.any() for W in dense):
            with pytest.raises(ValueError, match="undefined at every grid point"):
                scan_cutoffs(residuals, indices, distances, direction=direction, grid=grid)
            return
        scan = scan_cutoffs(residuals, indices, distances, direction=direction, grid=grid)
        for g, (cutoff, W) in enumerate(zip(grid, dense)):
            if not W.any():
                assert not scan.defined[g] and np.isnan(scan.moran_values[g])
                continue
            assert abs(scan.moran_values[g] - morans_i(z, W)) < 1e-12, f"{direction} @ {cutoff:g}"
            # Grid points with the same W tie exactly, so the first maximum is kept.
            for h in range(g):
                if np.array_equal(dense[h], W):
                    assert scan.moran_values[h] == scan.moran_values[g]
        best = int(np.flatnonzero(scan.moran_values == np.nanmax(scan.moran_values))[0])
        assert scan.best_cutoff == grid[best]

    def test_undefined_points_skipped_in_argmax(self):
        rng = np.random.default_rng(5)
        residuals, indices, distances = toy_panel(rng)
        # Cutoff 0 km produces empty neighbourhoods everywhere (strict <).
        scan = scan_cutoffs(residuals, indices, distances, grid=[0.0, 2500.0])
        assert not scan.defined[0]
        assert np.isnan(scan.moran_values[0])
        assert scan.best_cutoff == 2500.0

    def test_monotone_grid_refinement(self):
        rng = np.random.default_rng(6)
        residuals, indices, distances = toy_panel(rng, periods=4)
        coarse = scan_cutoffs(
            residuals, indices, distances, grid=np.arange(500.0, 4001.0, 500.0)
        )
        fine = scan_cutoffs(
            residuals, indices, distances, grid=np.arange(250.0, 4001.0, 250.0)
        )
        assert fine.best_value >= coarse.best_value - 1e-15

    def test_first_attainment_wins_ties(self):
        rng = np.random.default_rng(7)
        residuals, indices, distances = toy_panel(rng)
        # Far beyond the largest distance every cutoff yields the same
        # complete graph, so the values tie and the smallest cutoff wins.
        scan = scan_cutoffs(
            residuals, indices, distances, grid=[90_000.0, 95_000.0, 99_000.0]
        )
        assert scan.best_cutoff == 90_000.0

    def test_default_grid(self):
        assert DEFAULT_GRID_KM[0] == 0.0
        assert DEFAULT_GRID_KM[-1] == 20_000.0
        assert np.all(np.diff(DEFAULT_GRID_KM) == 100.0)
        assert DEFAULT_GRID_KM.size == 201

    def test_validation(self):
        rng = np.random.default_rng(8)
        residuals, indices, distances = toy_panel(rng)
        with pytest.raises(ValueError, match="direction"):
            scan_cutoffs(residuals, indices, distances, direction="both")
        with pytest.raises(ValueError, match="strictly increasing"):
            scan_cutoffs(residuals, indices, distances, grid=[100.0, 100.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                scan_cutoffs(residuals, indices, distances, grid=[100.0, bad, 300.0])
        with pytest.raises(ValueError, match="different periods"):
            scan_cutoffs({1: residuals[1]}, indices, distances)

    def test_error_order(self):
        # Per period, a residual-length mismatch comes first, then the
        # builder's error for a distance pair with no data; both come before
        # the pooled zero-variance check.
        index = FlowIndex(period=1, dyads=(("A", "B"), ("B", "C"), ("C", "A")))
        distances = DyadicSeries("distance", True, {("A", "B", 1): 10.0, ("A", "C", 1): 20.0})
        with pytest.raises(WeightError) as built:
            build_weight_matrix(NeighborhoodSpec("distance_import", cutoff_km=100.0), index, distances)
        with pytest.raises(WeightError) as scanned:
            scan_cutoffs({1: np.zeros(3)}, {1: index}, distances, grid=[100.0])
        assert str(scanned.value) == str(built.value)
        with pytest.raises(ValueError, match="residual length"):
            scan_cutoffs({1: np.zeros(2)}, {1: index}, distances, grid=[100.0])

    def test_exports(self, tmp_path):
        rng = np.random.default_rng(9)
        residuals, indices, distances = toy_panel(rng)
        scan = scan_cutoffs(residuals, indices, distances, grid=[0.0, 2000.0])
        write_scan_csv(tmp_path / "scan.csv", scan)
        write_scan_json(tmp_path / "scan.json", scan)
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == "cutoff_km,morans_i,defined"
        assert lines[1].startswith("0,")
        assert lines[1].endswith(",0")
        assert (tmp_path / "scan.json").read_text().find("best_cutoff_km") > 0
