import csv
import json

import numpy as np
import pytest

from netdisturb import (
    DenseWeight,
    NeighborhoodSpec,
    NetdisturbError,
    SimSpec,
    draw_disturbances,
    load_panel,
    log_flow_vector,
    simulate,
    write_sim_csvs,
)
from netdisturb.covariates import load_dyadic_csv, load_nodal_csv


def base_spec(**overrides):
    params = dict(
        n_nodes=12,
        n_periods=3,
        density=0.25,
        structure=NeighborhoodSpec("full_activity"),
        rho=0.4,
        beta=(1.0, 2.0, -1.0),
        sigma=1.0,
        seed=99,
    )
    params.update(overrides)
    return SimSpec(**params)


class TestSimulate:
    def test_deterministic_from_seed(self, tmp_path):
        one = write_sim_csvs(simulate(base_spec()), tmp_path / "a")
        two = write_sim_csvs(simulate(base_spec()), tmp_path / "b")
        for key in one:
            assert one[key].read_bytes() == two[key].read_bytes(), key

    def test_different_seed_differs(self):
        a = simulate(base_spec())
        b = simulate(base_spec(seed=100))
        assert (a.panel[0].index, a.panel[0].values.tolist()) != (b.panel[0].index, b.panel[0].values.tolist())

    def test_emitted_csvs_reload_cleanly(self, tmp_path):
        result = simulate(base_spec())
        paths = write_sim_csvs(result, tmp_path)
        panel = load_panel(paths["edges"], paths["roster"])
        assert [s.period for s in panel] == [1, 2, 3]
        for original, loaded in zip(result.panel, panel):
            assert sorted(loaded.values) == pytest.approx(sorted(original.values))
        for name in ("x1", "x2"):
            load_nodal_csv(paths[name], name)
        load_dyadic_csv(paths["alliance"], "alliance", symmetric=True)
        load_dyadic_csv(paths["distance"], "distance", symmetric=True)
        truth = json.loads(paths["truth"].read_text())
        assert truth["structure"] == "full_activity"
        assert truth["beta"] == [1.0, 2.0, -1.0]

    def test_codes_follow_sorted_names_past_1000_nodes(self, tmp_path):
        # N1000 sorts between N100 and N101: the index, the covariate series
        # and their CSV rows must order by name.
        result = simulate(base_spec(n_nodes=1002, n_periods=1, density=1e-3, seed=5))
        index = result.indices[1]
        assert list(index.nodes) == sorted(f"N{k:03d}" for k in range(1002))
        assert {"N1000", "N1001"} <= {node for dyad in index.dyads for node in dyad}
        assert list(index.dyads) == sorted(index.dyads)
        assert [index.nodes[code] for code in index.sender] == [s for s, _ in index.dyads]
        assert result.panel[0].index is index
        paths = write_sim_csvs(result, tmp_path)
        for name in ("x1", "alliance"):
            with open(paths[name], newline="", encoding="utf-8") as fh:
                keys = [row[:-2] for row in csv.reader(fh)][1:]
            assert keys == sorted(keys) and len(keys) >= 1002, name
        assert load_nodal_csv(paths["x1"], "x1").values == result.nodal[0].values
        for series in result.dyadic:
            loaded = load_dyadic_csv(paths[series.name], series.name, symmetric=True)
            assert loaded.nodes == series.nodes == index.nodes
            np.testing.assert_array_equal(loaded.table(1), series.table(1))

    def test_flows_are_exp_of_model(self):
        result = simulate(base_spec())
        for period, snapshot in zip((1, 2, 3), result.panel):
            index = result.indices[period]
            y = log_flow_vector(snapshot, index)
            assert np.all(np.isfinite(y))
            assert index.n == snapshot.n_flows

    def test_mean_of_y_matches_design_prediction(self):
        # Over replications, E[y] = X beta entry-wise.
        total = 0.0
        count = 0
        for rep in range(60):
            result = simulate(base_spec(n_periods=1, seed=300 + rep))
            y = log_flow_vector(result.panel[0], result.indices[1])
            predicted = result.designs[1].rows @ np.array([1.0, 2.0, -1.0])
            total += (y - predicted).mean()
            count += 1
        assert abs(total / count) < 0.05

    def test_rho_outside_spectral_bounds_rejected(self):
        with pytest.raises(NetdisturbError, match="smaller .rho."):
            simulate(base_spec(rho=1.2, n_nodes=6, density=0.9))

    def test_lag_shifts_covariate_periods(self):
        result = simulate(base_spec(lag=2))
        periods = {t for (_, t) in result.nodal[0].values}
        assert min(periods) == -1  # first flow period 1, lagged by 2
        assert max(periods) == 3

    def test_validation(self):
        with pytest.raises(NetdisturbError, match="density"):
            base_spec(density=0.0)
        with pytest.raises(NetdisturbError, match="sigma"):
            base_spec(sigma=0.0)
        with pytest.raises(NetdisturbError, match="intercept"):
            base_spec(beta=())
        # A negative lag would start the roster after period 1 and read
        # covariates past the drawn span.
        with pytest.raises(NetdisturbError, match=r"^lag must be >= 0, got -1$"):
            base_spec(lag=-1)

    def test_distance_structure_uses_disk_geometry(self):
        result = simulate(
            base_spec(
                structure=NeighborhoodSpec("distance_import", cutoff_km=1500.0),
                n_nodes=15,
                density=0.3,
                rho=0.3,
            )
        )
        distances = [v for v in result.dyadic[1].values.values()]
        assert max(distances) <= base_spec().disk_radius_km + 1e-9
        assert result.weights[1].spec.kind == "distance_import"

    def test_alliance_structure(self):
        result = simulate(
            base_spec(structure=NeighborhoodSpec("alliance_import"), rho=0.2)
        )
        assert set(result.dyadic[0].values.values()) <= {0.0, 1.0}


class TestDrawDisturbances:
    def test_covariance_law(self):
        # Monte-Carlo covariance of u must match
        # sigma^2 (I - rho W)^{-1} (I - rho W')^{-1} entry-wise.
        rng = np.random.default_rng(41)
        W = np.array(
            [
                [0.0, 0.5, 0.5, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0, 0.0],
                [0.25, 0.25, 0.25, 0.0, 0.25],
                [0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        rho, sigma = 0.5, 1.3
        draws = draw_disturbances(DenseWeight(W), rho, sigma, rng, size=10_000)
        sample_cov = np.cov(draws, rowvar=False)
        A_inv = np.linalg.inv(np.eye(5) - rho * W)
        expected = sigma**2 * A_inv @ A_inv.T
        # 3 Monte-Carlo standard errors per entry.
        mc_se = np.sqrt(
            (np.outer(np.diag(expected), np.diag(expected)) + expected**2) / 10_000
        )
        assert np.all(np.abs(sample_cov - expected) <= 3.0 * mc_se)

    def test_zero_rho_iid(self):
        rng = np.random.default_rng(42)
        draws = draw_disturbances(DenseWeight(np.zeros((4, 4))), 0.0, 2.0, rng, size=20_000)
        assert abs(draws.std() - 2.0) < 0.05
        sample_cov = np.cov(draws, rowvar=False)
        off_diag = sample_cov - np.diag(np.diag(sample_cov))
        assert np.abs(off_diag).max() < 0.15
