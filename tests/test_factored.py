"""Parity of the factored operator and log-determinant with the dense reference.

A weight matrix from build_weight_matrix carries its factors W = D+ (U C U'
+ E); W @ v and sem's log|det(I - rho W)| come from them.  These property
tests compare those paths, and the factored solve of (I - rho W) u = v,
with the dense oracle DenseWeight(W.entries) (its product, its dense solve
of I - rho W and a fit on it, the eigenvalue path) and a dense slogdet of
I - rho W, over random flow sets, all seven
kinds and symmetric and asymmetric dyadic series.  The log-det tests take
arrays of rho, up to the search's margin from -1 and 1, and check which
factorization each core took: eigenvalues, Cholesky or LU (the bordered
core).  The rho search's cross-product profile is checked against least
squares, and its concavity-bounded grid against the full grid, bit for
bit, on the activity kinds (Cholesky and LU).  A float rho, as a Brent
step passes it, must give the log-det and profile values, and the pole
messages, of an array holding it, bit for bit; a fixed core over a
symmetric node relation takes eigvalsh, an asymmetric one eigvals.  Two
more tests check that fitting, scanning and diagnosing a built W, and
simulating from one, never form its n x n entries.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netdisturb import (
    DenseWeight,
    DyadicSeries,
    EstimationError,
    FlowIndex,
    NeighborhoodSpec,
    SemProblem,
    SimSpec,
    build_weight_matrix,
    fit,
    log_det,
    scan_cutoffs,
    simulate,
    spectrum,
    tradecorr_residuals,
)
from netdisturb import sem
from netdisturb.sem import BOUNDARY_MARGIN, GRID_POINTS, residuals
from netdisturb.weights import DISTANCE_KINDS, KINDS

from conftest import (
    CUTOFFS,
    complete_alliance,
    complete_distances,
    random_flow_index,
    weight_matrices,
)

# Derandomized, so every run of the suite draws the same examples.
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

# A W with poles at rho = 1 and -1.
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

# Besides arbitrary values, the reciprocals where a 1 x 1 or 2 x 2 block of
# I - rho D+ E is singular for flows with one or two neighbours.
RHOS = st.one_of(
    st.sampled_from([-0.5, -1.0 / 3.0, -2.0 / 3.0, 0.0]),
    st.floats(-0.99, 0.99, allow_nan=False),
)


def dense_log_det(W, rho):
    sign, value = np.linalg.slogdet(np.eye(W.n) - rho * W.entries)
    assert sign > 0
    return value


def problem_on(W, entries, seed):
    rng = np.random.default_rng(seed)
    n = W.n
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    u = np.linalg.solve(np.eye(n) - 0.5 * W.entries, rng.standard_normal(n))
    return SemProblem(y=X @ (1.0, 2.0) + u, X=X, W=DenseWeight(W.entries) if entries else W)


# E's (self, reverse) coefficients of the activity kinds, as the module
# docstring of netdisturb.weights states them.
ACTIVITY_E = {"sender_attached": (-1, 1), "receiver_attached": (-1, 1), "full_activity": (-2, -1)}
# rho values inside (-1, 1) to test for a vanishing block determinant.
INSIDE = np.linspace(-1.0, 1.0, 401)[1:-1, None, None]


def expected_path(W):
    """The factorization log_det should choose, from W's entries and flow pairs alone.

    A flow (or reverse pair) whose block of I - rho D+ E is singular
    somewhere inside (-1, 1) borders the core.  No such flow: Cholesky; all
    flows: a fixed core and its eigenvalues; some: LU.  E = 0: eigenvalues.
    """
    if W.spec.kind not in ACTIVITY_E:
        return "eigenvalues"
    self_term, reverse_term = ACTIVITY_E[W.spec.kind]
    counts = (W.entries != 0).sum(axis=1)
    position = {dyad: k for k, dyad in enumerate(W.index.dyads)}
    bordering = []
    for a, (s, r) in enumerate(W.index.dyads):
        block = np.array([[self_term]], dtype=float)
        sizes = [counts[a]]
        b = position.get((r, s))
        if b is not None:
            block = np.array([[self_term, reverse_term], [reverse_term, self_term]], dtype=float)
            sizes.append(counts[b])
        own = np.array([1.0 / c if c else 0.0 for c in sizes])
        dets = np.linalg.det(np.eye(len(own)) - INSIDE * own[:, None] * block)
        bordering.append(dets.min() <= 0.0)
    if not any(bordering):
        return "cholesky"
    return "eigenvalues" if all(bordering) else "lu"


# An array of rho: arbitrary values, the block poles of flows with one or
# two neighbours, and values within 1e-3 of -1 and 1, down to the search's
# margin from them.
RHO_ARRAYS = st.lists(
    st.one_of(
        RHOS,
        st.floats(-1.0 + BOUNDARY_MARGIN, -1.0 + 1e-3),
        st.floats(1.0 - 1e-3, 1.0 - BOUNDARY_MARGIN),
    ),
    min_size=1,
    max_size=8,
).map(np.array)


def assert_log_dets_match(W, rhos):
    assert W.log_det_path == expected_path(W)
    values = log_det(rhos, W)
    assert values.shape == rhos.shape
    # Near rho = +-1 the determinant is nearly singular, and both sides
    # lose digits in proportion to 1 / (1 - |rho|).
    tolerance = 1e-10 * np.maximum(1.0, 1e-2 / (1.0 - np.abs(rhos)))
    dense = np.array([dense_log_det(W, rho) for rho in rhos])
    np.testing.assert_array_less(np.abs(values - dense), tolerance)
    for rho, value in zip(rhos.tolist(), values.tolist()):
        assert log_det(rho, W) == value


@PROPERTY
@given(weight_matrices(), RHO_ARRAYS)
def test_factored_log_det_matches_dense_slogdet(W, rhos):
    assert spectrum(W) == (-1.0, 1.0)
    assert_log_dets_match(W, rhos)


@PROPERTY
@given(weight_matrices(), st.integers(0, 2**32 - 1))
def test_fit_on_factors_matches_fit_on_entries(W, seed):
    # An all-zero W leaves rho unidentified, and fit refuses it.
    if W.n < 6 or not W.entries.any():
        return
    factored = fit(problem_on(W, False, seed))
    dense = fit(problem_on(W, True, seed))
    assert abs(factored.loglik - dense.loglik) < 1e-8
    # Near the optimum the profile is flat to within its own rounding over
    # about 1e-7 in rho, so two log-determinants that agree to 1e-14 can
    # end the rho search that far apart (the benchmark's reference tolerance).
    assert abs(factored.rho_hat - dense.rho_hat) < 1e-6


@pytest.mark.parametrize("kind", KINDS)
def test_hand_built_degenerate_structures(kind):
    # A lone reciprocal pair, a star whose leaves share no anchor, and the
    # all-zero W of a cutoff below every distance.
    rng = np.random.default_rng(7)
    cases = [
        FlowIndex(period=1, dyads=(("A", "B"), ("B", "A"))),
        FlowIndex(period=1, dyads=(("A", "B"), ("C", "D"), ("E", "A"), ("B", "A"))),
        FlowIndex(period=1, dyads=(("A", "B"), ("A", "C"), ("A", "D"), ("D", "A"))),
    ]
    for index in cases:
        nodes = {node for dyad in index.dyads for node in dyad}
        dyadic = None
        cutoffs = [None]
        if kind.startswith("alliance"):
            dyadic = complete_alliance(rng, nodes)
        elif kind in DISTANCE_KINDS:
            dyadic = complete_distances(rng, nodes)
            cutoffs = [0.5, 1e9]
        for cutoff in cutoffs:
            W = build_weight_matrix(NeighborhoodSpec(kind, cutoff_km=cutoff), index, dyadic)
            if cutoff == 0.5:
                assert not W.entries.any()
            for rho in (-0.99, -2.0 / 3.0, -0.5, -1.0 / 3.0, 0.0, 0.5, 0.99):
                assert abs(log_det(rho, W) - dense_log_det(W, rho)) < 1e-10


def test_factored_log_det_rejects_rho_outside_unit_interval():
    W = build_weight_matrix(
        NeighborhoodSpec("full_activity"), FlowIndex(period=1, dyads=(("A", "B"), ("B", "A")))
    )
    with pytest.raises(EstimationError, match="outside"):
        log_det(1.0, W)


@PROPERTY
@given(weight_matrices(), st.integers(0, 2**32 - 1))
def test_product_matches_entries(W, seed):
    rng = np.random.default_rng(seed)
    dense = DenseWeight(W.entries)
    for v in (rng.standard_normal(W.n), rng.standard_normal((W.n, 3))):
        np.testing.assert_allclose(W @ v, dense @ v, rtol=0.0, atol=1e-12)


@PROPERTY
@given(weight_matrices(), RHOS, st.integers(0, 2**32 - 1))
def test_solve_matches_dense_solve(W, rho, seed):
    # RHOS holds -1/2, where the blocks of flows with one neighbour each
    # (a lone reciprocal pair under the attached kinds) are singular and
    # those flows are solved in the core.
    rng = np.random.default_rng(seed)
    dense = DenseWeight(W.entries)
    for v in (rng.standard_normal(W.n), rng.standard_normal((W.n, 3))):
        np.testing.assert_allclose(W.solve(rho, v), dense.solve(rho, v), rtol=0.0, atol=1e-10)


def test_fit_scan_and_diagnostics_never_form_entries():
    # About 3000 flows over 60 nodes: one n x n float64 is 72 MB, so a peak
    # below a tenth of it rules out any dense W along the way.
    rng = np.random.default_rng(11)
    nodes = [f"N{k:02d}" for k in range(60)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    chosen = rng.choice(len(pairs), size=3000, replace=False)
    index = FlowIndex(period=1, dyads=tuple(sorted(pairs[k] for k in chosen)))
    distances = complete_distances(rng, nodes)
    X = np.column_stack([np.ones(index.n), rng.standard_normal(index.n)])
    y = X @ (1.0, 2.0) + rng.standard_normal(index.n)
    tracemalloc.start()
    try:
        W = build_weight_matrix(NeighborhoodSpec("full_activity"), index)
        problem = SemProblem(y=y, X=X, W=W)
        result = fit(problem)
        u_hat = residuals(problem, result.beta_hat, result.rho_hat)[0]
        scan_cutoffs({1: u_hat}, {1: index}, distances, grid=[2500.0])
        tradecorr_residuals(result, u_hat, W, index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < index.n**2 * 8 / 10


def test_simulate_never_forms_entries():
    # About 3000 flows (60 nodes at density 0.85) in one period: one n x n
    # float64 is 72 MB, and the dense solve allocated three of them.
    spec = SimSpec(
        n_nodes=60,
        n_periods=1,
        density=0.85,
        structure=NeighborhoodSpec("full_activity"),
        rho=0.5,
        beta=(1.0, 2.0, -1.0),
        sigma=1.0,
        seed=5,
    )
    tracemalloc.start()
    try:
        result = simulate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = result.indices[1].n
    assert n > 2900
    assert peak < n**2 * 8 / 10


@st.composite
def activity_weight_matrices(draw, bordered=None):
    """An activity-kind W over random flows, plus a lone reciprocal pair and two stars if ``bordered``.

    The pair's flows have one neighbour each, so their blocks are singular
    inside (-1, 1) and border the core (LU).  The flows out of Z0, and those
    into Z5, have three neighbours or none, so E keeps flows outside it.
    Unbordered, the core takes Cholesky where no flow has one or two
    neighbours, else LU.  ``bordered=None`` draws which.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(sorted(ACTIVITY_E)))
    index = random_flow_index(rng, max_nodes=draw(st.integers(3, 8)), max_flows=40)
    dyads = index.dyads
    if draw(st.booleans()) if bordered is None else bordered:
        stars = tuple(("Z0", f"Z{k}") for k in range(1, 5)) + tuple((f"Z{k}", "Z5") for k in range(6, 10))
        dyads += (("Y0", "Y1"), ("Y1", "Y0")) + stars
    return build_weight_matrix(NeighborhoodSpec(kind), FlowIndex(period=1, dyads=dyads))


@PROPERTY
@given(activity_weight_matrices(bordered=True), RHO_ARRAYS)
def test_bordered_core_log_det_matches_dense_slogdet(W, rhos):
    assert expected_path(W) == "lu"
    assert_log_dets_match(W, rhos)


@st.composite
def asymmetric_dyadic_weight_matrices(draw):
    """An alliance or distance W read from an asymmetric dyadic series."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["alliance_import", "alliance_export", *sorted(DISTANCE_KINDS)]))
    index = random_flow_index(rng, max_nodes=draw(st.integers(3, 10)), max_flows=60)
    nodes = {node for dyad in index.dyads for node in dyad}
    if kind in DISTANCE_KINDS:
        dyadic, cutoff = complete_distances(rng, nodes, symmetric=False), draw(CUTOFFS)
    else:
        dyadic, cutoff = complete_alliance(rng, nodes, symmetric=False), None
    return build_weight_matrix(NeighborhoodSpec(kind, cutoff_km=cutoff), index, dyadic)


@PROPERTY
@given(asymmetric_dyadic_weight_matrices(), RHO_ARRAYS)
def test_asymmetric_dyadic_log_det_matches_dense_slogdet(W, rhos):
    assert_log_dets_match(W, rhos)


def node_relation_is_symmetric(W):
    """Whether a one-role W's node relation C, read off its entries, is symmetric."""
    anchor = W.index.receiver if W.spec.kind.endswith("_import") else W.index.sender
    U = (anchor[:, None] == np.unique(anchor)).astype(float)
    C = U.T @ (W.entries != 0) @ U > 0
    return bool((C == C.T).all())


# Flows into A and B: A is within 1000 km of B, B not of A.
ONE_WAY = build_weight_matrix(
    NeighborhoodSpec("distance_import", cutoff_km=1000.0),
    FlowIndex(period=1, dyads=(("A", "B"), ("B", "A"), ("C", "A"), ("C", "B"))),
    DyadicSeries("distance", False, {("A", "B", 1): 500.0, ("B", "A", 1): 2000.0}),
)


@PROPERTY
@given(
    st.one_of(weight_matrices().filter(lambda W: W.spec.dyadic_series), asymmetric_dyadic_weight_matrices()),
    RHO_ARRAYS,
)
@example(ONE_WAY, np.array([-0.5, 0.9]))
def test_a_symmetric_node_relation_takes_eigvalsh_and_an_asymmetric_one_eigvals(W, rhos):
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        with mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as eigvals:
            assert W.log_det_path == "eigenvalues"
    symmetric = node_relation_is_symmetric(W)
    assert (eigvalsh.call_count, eigvals.call_count) == ((1, 0) if symmetric else (0, 1))
    assert_log_dets_match(W, rhos)


def value_or_message(call):
    """What ``call()`` gives (an array's one entry), or the message of the EstimationError it raises."""
    try:
        value = call()
    except EstimationError as exc:
        return str(exc)
    return value[0] if isinstance(value, np.ndarray) else value


@PROPERTY
@given(
    st.one_of(
        weight_matrices(),
        activity_weight_matrices(bordered=True),
        asymmetric_dyadic_weight_matrices(),
        weight_matrices().map(lambda W: DenseWeight(W.entries)),
    ),
    RHO_ARRAYS,
    st.integers(0, 2**32 - 1),
)
def test_a_float_rho_gives_what_an_array_holding_it_gives_to_the_bit(W, rhos, seed):
    # A Brent step passes one float, which log_det and the profile take with
    # no array of rho; a pole must raise the array's message.
    cache = sem._ProfileCache(problem_on(W, False, seed)) if W.n > 2 else None
    for rho in rhos.tolist():
        value = value_or_message(lambda: log_det(rho, W))
        assert type(value) in (float, str)
        assert value == value_or_message(lambda: log_det(np.array([rho]), W))
        if cache is not None:
            profiled = value_or_message(lambda: cache.profile(rho))
            assert type(profiled) in (float, str)
            assert profiled == value_or_message(lambda: cache.profile(np.array([rho])))


@pytest.mark.parametrize("rho", [1.0, -1.0, float("nan")])
def test_a_pole_or_a_rho_outside_raises_one_message_for_a_float_and_an_array(rho):
    index = FlowIndex(period=1, dyads=(("A", "B"), ("B", "A"), ("B", "C"), ("C", "A")))
    alliance = complete_alliance(np.random.default_rng(0), {"A", "B", "C"}, prob=1.0)
    weights = [build_weight_matrix(NeighborhoodSpec(kind), index) for kind in sorted(ACTIVITY_E)]
    weights += [build_weight_matrix(NeighborhoodSpec("alliance_export"), index, alliance), DenseWeight(SWAP)]
    for W in weights:
        message = value_or_message(lambda: log_det(rho, W))
        assert isinstance(message, str) and message == value_or_message(lambda: log_det(np.array([rho]), W))


@PROPERTY
@given(weight_matrices(), st.integers(0, 2**32 - 1))
def test_cross_product_profile_matches_least_squares(W, seed):
    # The rho search's profile against the least-squares one fit reports.
    if W.n < 6:
        return
    rng = np.random.default_rng(seed)
    problem = problem_on(W, False, seed)
    cache = sem._ProfileCache(problem)
    rhos = np.append(rng.uniform(-0.999, 0.999, 6), [0.0, -0.999, 0.999])
    expected = np.array([cache.point(rho).loglik for rho in rhos.tolist()])
    np.testing.assert_allclose(cache.profile(rhos), expected, rtol=1e-10, atol=0.0)


def full_grid_fit(problem):
    """fit with the log-det taken at every grid point, as before the concavity bound."""
    with mock.patch.object(sem._ProfileCache, "profile_grid", sem._ProfileCache.profile):
        return fit(problem)


@PROPERTY
@given(activity_weight_matrices(), st.integers(0, 2**32 - 1))
def test_bounded_grid_matches_the_full_grid(W, seed):
    # Every grid value taken is the full grid's to the bit, every point
    # left out is below the best, and the fit is the full grid's fit.  Each
    # side gets its own W, so neither reads a log-det the other kept.
    if W.n < 6 or not W.counts.any():
        return
    problem = problem_on(W, False, seed)

    def fresh():
        return SemProblem(y=problem.y, X=problem.X, W=build_weight_matrix(W.spec, W.index))

    lower, upper = spectrum(W)
    grid = np.linspace(lower + BOUNDARY_MARGIN, upper - BOUNDARY_MARGIN, GRID_POINTS)
    bounded = sem._ProfileCache(problem).profile_grid(grid)
    full = sem._ProfileCache(fresh()).profile(grid)
    taken = np.isfinite(bounded)
    assert taken[[0, GRID_POINTS // 2, -1]].all()
    if W.log_det_path == "eigenvalues":
        assert taken.all()
    np.testing.assert_array_equal(bounded[taken], full[taken])
    assert (full[~taken] < bounded.max()).all()
    fitted, expected = fit(fresh()), full_grid_fit(fresh())
    for name in ("rho_hat", "beta_hat", "sigma2_hat", "loglik", "se_beta", "se_rho"):
        np.testing.assert_array_equal(getattr(fitted, name), getattr(expected, name), strict=True)
    assert fitted.evaluations == expected.evaluations - (~taken).sum()
