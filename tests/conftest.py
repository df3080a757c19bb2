"""Shared fixtures and small random-instance generators for the test suite."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import strategies as st

from netdisturb import (
    FlowIndex,
    DyadicSeries,
    NetworkSnapshot,
    NeighborhoodSpec,
    SemProblem,
    SimSpec,
    build_weight_matrix,
    fit,
    log_flow_vector,
    simulate,
)
from netdisturb.weights import DISTANCE_KINDS, KINDS


def snapshot_of(period, triples) -> NetworkSnapshot:
    """A snapshot from (sender, receiver, value) triples, in any order."""
    index = FlowIndex(period=period, dyads=[(s, r) for s, r, _ in triples])
    return NetworkSnapshot(index, np.array([v for *_, v in triples], dtype=float))


def random_flow_index(rng, max_nodes=8, max_flows=30, period=1) -> FlowIndex:
    """A random directed flow set over single-letter-style node codes."""
    n_nodes = int(rng.integers(3, max_nodes + 1))
    nodes = [f"N{k:02d}" for k in range(n_nodes)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    rng.shuffle(pairs)
    n_flows = int(rng.integers(2, min(max_flows, len(pairs)) + 1))
    return FlowIndex(period=period, dyads=tuple(sorted(pairs[:n_flows])))


def _pairs(nodes, symmetric):
    """Node pairs to fill: a < b for a symmetric series, both orders otherwise."""
    nodes = sorted(nodes)
    return [(a, b) for a in nodes for b in nodes if (a < b if symmetric else a != b)]


def complete_alliance(rng, nodes, period=1, prob=0.4, symmetric=True) -> DyadicSeries:
    values = {
        (a, b, period): float(rng.uniform() < prob) for a, b in _pairs(nodes, symmetric)
    }
    return DyadicSeries(name="alliance", symmetric=symmetric, values=values)


def complete_distances(rng, nodes, period=1, scale=5000.0, symmetric=True) -> DyadicSeries:
    values = {
        (a, b, period): float(rng.uniform(1.0, scale)) for a, b in _pairs(nodes, symmetric)
    }
    return DyadicSeries(name="distance", symmetric=symmetric, values=values)


# Distances are drawn from [1, 5000] km: 0.5 km leaves every neighbourhood
# empty (an all-zero W), 1e9 km relates every pair of distinct nodes.
CUTOFFS = st.sampled_from([0.5, 800.0, 2500.0, 1e9])


@st.composite
def weight_matrices(draw):
    """A built weight matrix of any kind over a random flow set and dyadic series."""
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(KINDS))
    symmetric = draw(st.booleans())
    max_nodes = draw(st.integers(3, 10))
    max_flows = draw(st.integers(2, 60))
    rng = np.random.default_rng(seed)
    index = random_flow_index(rng, max_nodes=max_nodes, max_flows=max_flows)
    nodes = {node for dyad in index.dyads for node in dyad}
    dyadic = None
    if kind.startswith("alliance"):
        dyadic = complete_alliance(rng, nodes, symmetric=symmetric)
    elif kind in DISTANCE_KINDS:
        dyadic = complete_distances(rng, nodes, symmetric=symmetric)
    cutoff = draw(CUTOFFS) if kind in DISTANCE_KINDS else None
    return build_weight_matrix(NeighborhoodSpec(kind, cutoff_km=cutoff), index, dyadic)


def random_row_normalized_w(rng, n, density=0.4) -> np.ndarray:
    """Random row-normalized weight matrix; some rows may be all zero."""
    adjacency = (rng.uniform(size=(n, n)) < density).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    counts = adjacency.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        w = np.where(counts > 0, adjacency / np.where(counts > 0, counts, 1.0), 0.0)
    return w


RECOVERY_TRUTH = {"rho": 0.6, "beta": (1.0, 2.0, -1.0), "sigma": 1.0}


@pytest.fixture(scope="session")
def recovery_study():
    """100 single-period replications at ~500 flows under full_activity.

    Used both by the estimator tests and by the acceptance criterion on
    parameter recovery; runs once per session.
    """
    structure = NeighborhoodSpec("full_activity")
    reps = 100
    rho_hats = np.empty(reps)
    beta_hats = np.empty((reps, 3))
    se_betas = np.empty((reps, 3))
    started = time.perf_counter()
    for rep in range(reps):
        # 150 nodes keep the ~500-flow dependence graph sparse; very dense
        # graphs barely identify rho and bias it toward zero.
        spec = SimSpec(
            n_nodes=150,
            n_periods=1,
            density=500.0 / (150 * 149),
            structure=structure,
            rho=RECOVERY_TRUTH["rho"],
            beta=RECOVERY_TRUTH["beta"],
            sigma=RECOVERY_TRUTH["sigma"],
            seed=20_000 + rep,
        )
        result = simulate(spec)
        snapshot = result.panel[0]
        index = result.indices[1]
        problem = SemProblem(
            y=log_flow_vector(snapshot, index),
            X=result.designs[1],
            W=result.weights[1],
        )
        fitted = fit(problem)
        rho_hats[rep] = fitted.rho_hat
        beta_hats[rep] = fitted.beta_hat
        se_betas[rep] = fitted.se_beta
    elapsed = time.perf_counter() - started
    return {
        "rho_hats": rho_hats,
        "beta_hats": beta_hats,
        "se_betas": se_betas,
        "elapsed": elapsed,
    }
