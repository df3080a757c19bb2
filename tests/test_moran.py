import numpy as np
import pytest
from scipy.linalg import block_diag

from netdisturb import (
    NeighborhoodSpec,
    build_weight_matrix,
    morans_i,
    scan_cutoffs,
)
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

    def test_matches_dense_block_diagonal(self):
        # Structural check: the blockwise accumulation equals Moran's I of
        # the pooled residuals under an explicitly assembled block-diagonal
        # weight matrix built by the general weight builder.  The asymmetric
        # distance series checks that both read d(anchor, partner).
        for symmetric in (True, False):
            rng = np.random.default_rng(4)
            residuals, indices, distances = toy_panel(rng, symmetric=symmetric)
            for direction in ("import", "export"):
                scan = scan_cutoffs(
                    residuals, indices, distances, direction=direction,
                    grid=[800.0, 1600.0, 2400.0, 3200.0],
                )
                periods = sorted(residuals)
                z = np.concatenate([residuals[t] for t in periods])
                for g, cutoff in enumerate(scan.grid):
                    spec = NeighborhoodSpec(f"distance_{direction}", cutoff_km=cutoff)
                    blocks = [
                        build_weight_matrix(spec, indices[t], distances).entries
                        for t in periods
                    ]
                    dense = block_diag(*blocks)
                    if dense.sum() == 0.0:
                        assert not scan.defined[g]
                        continue
                    assert abs(scan.moran_values[g] - morans_i(z, dense)) < 1e-12, (
                        f"symmetric={symmetric} {direction} @ {cutoff:g}"
                    )

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
        with pytest.raises(ValueError, match="different periods"):
            scan_cutoffs({1: residuals[1]}, indices, distances)

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
