"""Maximum-likelihood estimation of the network disturbance model.

The model for one period's log flows y (length n) is

    y = X beta + u,    u = rho W u + eps,    eps ~ N(0, sigma^2 I)

so u = (I - rho W)^{-1} eps and Sigma = sigma^2 (I - rho W)^{-1} (I - rho W')^{-1}.
With A = I - rho W, the log-likelihood concentrates over beta and sigma^2:
beta(rho) is the least-squares fit of A y on A X, sigma^2(rho) = e'e/n with
e = A(y - X beta(rho)), and the profiled log-likelihood is

    l(rho) = -(n/2)(log 2 pi + 1) - (n/2) log sigma^2(rho) + log|det(I - rho W)|

The Jacobian term log|det(I - rho W)| of a weight matrix from
:func:`~netdisturb.weights.build_weight_matrix` comes exactly from its
factors W = D+ (U C U' + E) (see :class:`~netdisturb.weights.WeightMatrix`):
a block-diagonal term plus one determinant over the N anchor nodes, with
no n x n work.  That determinant is taken by the cheapest exact
factorization its core allows: where E = 0 (the alliance and distance
kinds) the core does not depend on rho, and its N eigenvalues, taken once,
give log|det(I - rho W)| = sum log|1 - rho lambda_k| (Ord 1975); an
activity kind's core is factored at each rho, by Cholesky where it is
positive definite and by LU where flows border it.  Such a W is row
normalized and non-negative, so every eigenvalue has modulus at most 1 and
rho is searched over (-1, 1) (LeSage & Pace 2009, section 4).  A W given as
a plain array uses its own eigenvalues by the same formula (complex
eigenvalues of an asymmetric W pair up, so the sum is real), and (-1, 1) is
narrowed to the reciprocals of W's extreme real eigenvalues where they fall
inside it.

rho is searched in two steps: the profile on a coarse grid over the
interval, then Brent's bounded method (:func:`_bounded_brent`, a port of
scipy's ``minimize_scalar(method="bounded")``) between the best grid
point's two neighbours.  The search evaluates the profile in (p+1) x (p+1)
algebra (LeSage & Pace 2009, ch. 4): with Z = [y X], the cross-products
Z'Z, Z'WZ + (WZ)'Z and (WZ)'(WZ) are formed once, (AZ)'(AZ) is a quadratic
in rho, and beta(rho) and e'e come from a p x p solve, so no evaluation
touches the n flows.  The reported fit at the optimum is recomputed by
least squares on A y and A X (the normal equations square the condition
number).  W y and W X, and the W u_hat of :func:`residuals`, are taken as
``W @ v``, from the factors of a built W, so a fit never forms its n x n
entries.

Where the core is factored at each rho (the activity kinds), the grid
takes the log-det only where the search needs it.  There E != 0, so C is
the identity, A = U U' + E is symmetric and W = D+ A.  With P = (D+)^(1/2),
Sylvester's identity gives det(I - rho W) = det(I - rho P A P), and the
eigenvalues mu of the symmetric P A P are W's: real, and in [-1, 1].  So
log|det(I - rho W)| = sum log(1 - rho mu) is concave on (-1, 1): the line
through two of its points bounds it from above outside the span between
them, and a grid point whose bound falls below the best profile value
taken is left out (:meth:`_ProfileCache.profile_grid`).  The eigenvalue
path keeps the whole grid: an asymmetric C can give complex eigenvalues,
and its log-det costs no factorization per rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

# Every CLI command is a fresh interpreter, and importing scipy.optimize and
# scipy.special would cost it more than numpy does.  So the rho search and
# the normal tail run here, and this module imports no scipy.

from ._serialize import write_csv, write_json
from .covariates import DesignMatrix
from .errors import EstimationError
from .weights import WeightMatrix, eigenvalue_log_det

LOG_2PI = math.log(2.0 * math.pi)

# The rho search is kept this far inside the open rho interval.
BOUNDARY_MARGIN = 1e-6
# Evenly spaced profile evaluations that bracket the optimum for Brent.
GRID_POINTS = 21
# The Brent step stops once its bracket on rho is within BRENT_XATOL plus
# sqrt(eps) |rho|, or after BRENT_MAXFUN profile evaluations.
BRENT_XATOL = 1e-8
BRENT_MAXFUN = 500
# sigma^2 below this is treated as a degenerate (perfect) fit.
DEGENERATE_SIGMA2 = 1e-12
# A grid point is left out of the rho search only when its concavity bound
# falls below the best value by this much, relative to the size of the
# terms compared: far more than the rounding of a log-det or its chords.
_BOUND_ROUNDING = 1e-8


@dataclass(frozen=True, eq=False)
class SemProblem:
    """One period's estimation problem: y = X beta + u with weights W.

    ``X`` may be a :class:`~netdisturb.covariates.DesignMatrix` (its column
    names are kept) or a plain array.  ``W`` may be a built
    :class:`~netdisturb.weights.WeightMatrix`, kept as given so that
    :func:`fit` uses its factors; a plain array, the dense oracle, checked
    for finiteness; or None for a problem that only :func:`fit_ols` solves.
    """

    y: np.ndarray
    X: np.ndarray
    W: WeightMatrix | np.ndarray | None = None
    column_names: tuple[str, ...] = ()

    def __post_init__(self):
        X = self.X
        names = tuple(self.column_names)
        if isinstance(X, DesignMatrix):
            names = names or X.column_names
            X = X.rows
        y = np.asarray(self.y, dtype=float).ravel()
        X = np.asarray(X, dtype=float)
        n = y.shape[0]
        if X.ndim != 2 or X.shape[0] != n:
            raise EstimationError(f"X shape {X.shape} does not match y length {n}")
        W = self.W
        if W is not None and not isinstance(W, WeightMatrix):
            W = np.asarray(W, dtype=float)
        shape = None if W is None else (W.n, W.n) if isinstance(W, WeightMatrix) else W.shape
        if shape is not None and shape != (n, n):
            raise EstimationError(f"W shape {shape} does not match y length {n}")
        if not n > X.shape[1]:
            raise EstimationError(
                f"need more observations than parameters (n={n}, p={X.shape[1]})"
            )
        finite_w = not isinstance(W, np.ndarray) or np.all(np.isfinite(W))
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X)) and finite_w):
            raise EstimationError("y, X and W must be finite")
        if not names:
            names = tuple(f"x{k}" for k in range(X.shape[1]))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The open search interval for rho and what :func:`log_det` reads.

    That is a built weight matrix as ``factors`` (``eigenvalues`` is then
    None), or the ``eigenvalues`` of a W given as a plain array.
    """

    eigenvalues: np.ndarray | None
    rho_lower: float
    rho_upper: float
    factors: WeightMatrix | None = None


def spectrum(W) -> Spectrum:
    """The admissible rho interval of W and the means to evaluate log_det.

    For a built WeightMatrix (row normalized and non-negative, so every
    |lambda| <= 1) the interval is exactly (-1, 1), and nothing is computed
    here: the factors prepare their core, and the eigenvalues of a fixed
    one, on the first :func:`log_det`.  For a plain array W it is (-1, 1)
    intersected with (1/lambda_min, 1/lambda_max) over W's nonzero real
    eigenvalues, which are computed here.
    """
    if isinstance(W, WeightMatrix):
        return Spectrum(eigenvalues=None, rho_lower=-1.0, rho_upper=1.0, factors=W)
    try:
        eigenvalues = np.linalg.eigvals(np.asarray(W, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"eigenvalue computation failed: {exc}") from None

    scale = max(1.0, float(np.abs(eigenvalues).max(initial=0.0)))
    real_mask = np.abs(eigenvalues.imag) <= 1e-9 * scale
    real_parts = eigenvalues.real[real_mask]
    tiny = 1e-12 * scale
    positive = real_parts[real_parts > tiny]
    negative = real_parts[real_parts < -tiny]
    upper = min(1.0 / positive.max(), 1.0) if positive.size else 1.0
    lower = max(1.0 / negative.min(), -1.0) if negative.size else -1.0
    return Spectrum(eigenvalues=eigenvalues, rho_lower=lower, rho_upper=upper)


def log_det(rho, spec: Spectrum):
    """log|det(I - rho W)| from W's factors or from its eigenvalues, at a float or an array of rho.

    From eigenvalues it is ``sum(log|1 - rho * lambda_i|)``
    (:func:`~netdisturb.weights.eigenvalue_log_det`); the factors choose
    their own factorization (:meth:`~netdisturb.weights.WeightMatrix.log_det`)
    and hold for -1 < rho < 1.  A float gives a float, an array an array.
    """
    rhos = np.asarray(rho, dtype=float)
    if spec.eigenvalues is None:
        outside = rhos[~((-1.0 < rhos) & (rhos < 1.0))]
        if outside.size:
            raise EstimationError(
                f"rho={outside.flat[0]} outside (-1, 1), where the factored log-det holds"
            )
        values = spec.factors.log_det(rhos)
    else:
        values = eigenvalue_log_det(rhos, spec.eigenvalues)
    poles = rhos[~np.isfinite(values)]
    if poles.size:
        raise EstimationError(f"rho={poles.flat[0]} sits on a pole of the log-determinant")
    return float(values) if values.ndim == 0 else values


def log_det_path(spec: Spectrum) -> str:
    """The factorization :func:`log_det` uses: "eigenvalues", "cholesky" or "lu"."""
    return "eigenvalues" if spec.eigenvalues is not None else spec.factors.log_det_path


class ProfilePoint(NamedTuple):
    loglik: float
    beta: np.ndarray
    sigma2: float


def _require_full_rank(problem: SemProblem) -> None:
    """Raise EstimationError naming the collinear columns of a rank-deficient X.

    Those are the columns that do not raise the rank of the ones kept
    before them, taken left to right.
    """
    X = problem.X
    if np.linalg.matrix_rank(X) == problem.p:
        return
    kept, bad = [], []
    for k, name in enumerate(problem.column_names):
        if np.linalg.matrix_rank(X[:, kept + [k]]) > len(kept):
            kept.append(k)
        else:
            bad.append(name)
    raise EstimationError(f"design matrix is rank deficient; collinear columns: {bad}")


class _ProfileCache:
    """W y, W X and the cross-products of [y X] and W [y X], so profile evaluations stay cheap.

    Construction checks that there is a W and that X has full rank; the
    products are formed on the first evaluation, so a fit that stops at its
    own checks takes none.  ``evaluations`` counts the rho values the
    profile was evaluated at.
    """

    def __init__(self, problem: SemProblem):
        if problem.W is None:
            raise EstimationError(
                "the problem has no weight matrix W; give one, or fit rho = 0 with fit_ols"
            )
        _require_full_rank(problem)
        self.problem = problem
        self.gram = None
        self.evaluations = 0

    def _form(self) -> None:
        """W y, W X and the cross-products, formed by the first evaluation."""
        problem = self.problem
        Z = np.column_stack([problem.y, problem.X])
        WZ = problem.W @ Z
        self.Wy, self.WX = WZ[:, 0], WZ[:, 1:]
        cross = Z.T @ WZ
        self.gram = (Z.T @ Z, cross + cross.T, WZ.T @ WZ)

    def _sigma2(self, rhos: np.ndarray) -> np.ndarray:
        """sigma^2(rho) at each rho of an array, from the cross-products.

        (AZ)'(AZ) = G0 - rho G1 + rho^2 G2 over Z = [y X]; beta(rho) solves
        its X block against its X'y column, and e'e = y'y - y'X beta(rho).
        """
        if self.gram is None:
            self._form()
        r = rhos.reshape(-1, 1, 1)
        G0, G1, G2 = self.gram
        G = G0 - r * G1 + (r * r) * G2
        beta = np.linalg.solve(G[:, 1:, 1:], G[:, 1:, :1])
        sigma2 = (G[:, 0, 0] - (G[:, :1, 1:] @ beta)[:, 0, 0]) / self.problem.n
        return sigma2.reshape(rhos.shape)

    def profile(self, rho, spec: Spectrum):
        """The profiled log-likelihood at a float or an array of rho, from the cross-products."""
        rhos = np.asarray(rho, dtype=float)
        sigma2 = self._sigma2(rhos)
        self.evaluations += sigma2.size
        return self._loglik(rhos, sigma2, spec)

    def profile_grid(self, grid: np.ndarray, spec: Spectrum) -> np.ndarray:
        """The profile over ``grid``; -inf where a concavity bound shows a point below the best.

        sigma^2 is taken at every point in one call.  On the "cholesky" and
        "lu" paths the log-det is taken at the ends and the middle, then at
        the open point of highest ``part + bound`` (the module docstring),
        until every bound is more than ``_BOUND_ROUNDING`` (relative) below
        the best value; each value taken is :meth:`profile`'s, to the bit.
        Any other path, or a non-finite part (sigma^2 <= 0), takes the whole
        grid in one call.
        """
        sigma2 = self._sigma2(grid)
        part = self._part(sigma2)
        if log_det_path(spec) == "eigenvalues" or not np.isfinite(part).all():
            self.evaluations += grid.size
            return self._loglik(grid, sigma2, spec)
        # Python floats: on 21 points they cost less than numpy's calls.
        x, part = grid.tolist(), part.tolist()
        dets = [None] * len(x)
        taking = [0, (len(x) - 1) // 2, len(x) - 1]
        while taking:
            for k, value in zip(taking, log_det(grid[taking], spec).tolist()):
                dets[k] = value
            self.evaluations += len(taking)
            taking = _next_grid_point(x, part, dets)
        return np.array([-math.inf if d is None else p + d for p, d in zip(part, dets)])

    def point(self, rho: float, spec: Spectrum) -> ProfilePoint:
        """The profile at one rho by least squares on A y and A X, with beta and sigma^2."""
        if self.gram is None:
            self._form()
        prob = self.problem
        Ay = prob.y - rho * self.Wy
        AX = prob.X - rho * self.WX
        beta, *_ = np.linalg.lstsq(AX, Ay, rcond=None)
        e = Ay - AX @ beta
        sigma2 = float(e @ e) / prob.n
        self.evaluations += 1
        return ProfilePoint(loglik=self._loglik(rho, sigma2, spec), beta=beta, sigma2=sigma2)

    def _part(self, sigma2):
        """-(n/2)(log 2 pi + 1 + log sigma^2): the profile but for its log-det."""
        n = self.problem.n
        with np.errstate(divide="ignore", invalid="ignore"):
            return -0.5 * n * (LOG_2PI + 1.0) - 0.5 * n * np.log(sigma2)

    def _loglik(self, rho, sigma2, spec: Spectrum):
        """:meth:`_part` + log|det(I - rho W)|; +inf where sigma^2 <= 0."""
        loglik = np.where(sigma2 > 0.0, self._part(sigma2) + log_det(rho, spec), math.inf)
        return float(loglik) if loglik.ndim == 0 else loglik


def _next_grid_point(x, part, dets) -> list[int]:
    """``[k]``, the open grid point of highest ``part + bound``; [] once every bound is below the best.

    The log-det is known where ``dets`` is not None.  An open point's bound
    is the smaller of the lines through the two known points just below it
    and the two just above it, where there are two.
    """
    known = [k for k, d in enumerate(dets) if d is not None]
    best = max(part[k] + dets[k] for k in known)
    floor = best - _BOUND_ROUNDING * (max(map(abs, part)) + max(abs(dets[k]) for k in known))
    slopes = [(dets[b] - dets[a]) / (x[b] - x[a]) for a, b in zip(known, known[1:])]
    taking, top = [], -math.inf
    for i, (a, b) in enumerate(zip(known, known[1:])):
        for k in range(a + 1, b):
            bound = dets[a] + slopes[i - 1] * (x[k] - x[a]) if i > 0 else math.inf
            if i + 1 < len(slopes):
                bound = min(bound, dets[b] + slopes[i + 1] * (x[k] - x[b]))
            value = part[k] + bound
            if value >= floor and value > top:
                taking, top = [k], value
    return taking


def profile_loglik(rho: float, problem: SemProblem, spec: Spectrum) -> ProfilePoint:
    """Concentrated log-likelihood at ``rho`` with the implied beta, sigma^2.

    At rho = 0 this reduces exactly to the OLS solution and its Gaussian
    log-likelihood.
    """
    if not spec.rho_lower < rho < spec.rho_upper:
        raise EstimationError(
            f"rho={rho} outside open interval ({spec.rho_lower}, {spec.rho_upper})"
        )
    return _ProfileCache(problem).point(rho, spec)


@dataclass(frozen=True, eq=False)
class SemFit:
    """Estimates and uncertainty for one fitted period; :func:`residuals` forms its residuals.

    ``p_values`` has one entry per beta coefficient followed by the one for
    rho (NaN where no standard error is available).  ``evaluations`` counts
    the rho values at which :func:`fit` evaluated the profile (0 for
    :func:`fit_ols`), and ``log_det`` names the factorization of its
    log-determinant (:func:`log_det_path`; None for ``fit_ols``).
    """

    rho_hat: float
    beta_hat: np.ndarray
    sigma2_hat: float
    se_beta: np.ndarray
    se_rho: float | None
    p_values: np.ndarray
    loglik: float
    aic: float
    converged: bool
    degenerate: bool = False
    column_names: tuple[str, ...] = ()
    rho_bounds: tuple[float, float] | None = None
    evaluations: int = 0
    log_det: str | None = None


def _two_sided_p(estimate, se):
    """2 P(Z > |estimate| / se) for standard normal Z, entry by entry; all NaN without finite se."""
    if se is None or not np.all(np.isfinite(np.atleast_1d(se))):
        return np.full(np.size(estimate), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.atleast_1d(np.abs(estimate) / se) * math.sqrt(0.5)
    return np.fromiter(map(math.erfc, scaled.tolist()), float, scaled.size)


def _bounded_brent(func, a: float, b: float, xatol: float, maxfun: int):
    """Minimize ``func`` over [a, b] by Brent's bounded method; ``(x, fun, converged)``.

    This is fminbound (Brent 1973, ch. 5): golden-section steps, replaced
    by a parabola through the three best points whenever that falls inside
    the bracket.  It stops once the bracket around the best point ``x`` is
    within ``xatol`` (plus a relative sqrt(eps) |x|), or after ``maxfun``
    evaluations, and then ``converged`` is False; it is False too when
    ``func`` gave NaN.  The steps are scipy's ``minimize_scalar(method=
    "bounded")`` with ``xatol`` and ``maxiter=maxfun``, operation for
    operation, so ``x`` and ``fun`` are that method's to the bit.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    # xf is the best point so far, nfc the second best, fulc the previous nfc.
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            return xf, fx, False
    return xf, fx, not (math.isnan(xf) or math.isnan(fx) or math.isnan(fu))


def fit(problem: SemProblem) -> SemFit:
    """Fit the disturbance model by profiled maximum likelihood.

    The profile is evaluated at ``GRID_POINTS`` evenly spaced points over
    the rho interval of :func:`spectrum` kept ``BOUNDARY_MARGIN`` inside
    its ends, (-1, 1) for a built W (:meth:`_ProfileCache.profile_grid`:
    on a W factored per rho, only where the concavity bound of the module
    docstring leaves a point; one left out reads -inf, and the search goes
    on as over the whole grid, to the bit).  Brent's bounded method
    (:func:`_bounded_brent`, to ``BRENT_XATOL`` in at most ``BRENT_MAXFUN``
    evaluations) then refines the best of them between its two neighbours,
    one rho per call, and the grid point is kept unless Brent beats it (so
    an optimum at an interval end lands exactly on it).  beta, sigma^2 and
    the log-likelihood at the optimum come from least squares.  Standard
    errors for beta come from sigma^2 ((AX)'(AX))^{-1} at the optimum; the
    one for rho from the curvature of the profiled log-likelihood,
    estimated by a central second difference over three rho in one call
    (NaN at an interval end).

    Returns
    -------
    SemFit
        With ``converged=False`` when the Brent step hit its cap
        (estimates are still reported).

    Raises
    ------
    EstimationError
        Among others when W has no nonzero entry: the profile is then flat
        and rho is not identified.
    """
    cache = _ProfileCache(problem)
    spec = spectrum(problem.W)
    if not (spec.factors.counts if spec.eigenvalues is None else problem.W).any():
        raise EstimationError("rho is not identified: W gives no flow a neighbour")
    lo = spec.rho_lower + BOUNDARY_MARGIN
    hi = spec.rho_upper - BOUNDARY_MARGIN
    if not lo < hi:
        raise EstimationError(
            f"empty rho search interval ({spec.rho_lower}, {spec.rho_upper})"
        )

    grid = np.linspace(lo, hi, GRID_POINTS)
    values = cache.profile_grid(grid, spec)
    best = int(np.argmax(values))
    brent_rho, brent_min, converged = _bounded_brent(
        lambda rho: -cache.profile(rho, spec),
        float(grid[max(best - 1, 0)]),
        float(grid[min(best + 1, GRID_POINTS - 1)]),
        BRENT_XATOL,
        BRENT_MAXFUN,
    )
    rho_hat = brent_rho if -brent_min > values[best] else float(grid[best])

    at_optimum = cache.point(rho_hat, spec)
    beta = at_optimum.beta
    sigma2 = at_optimum.sigma2
    p = problem.p
    aic = -2.0 * at_optimum.loglik + 2.0 * (p + 2)

    degenerate = sigma2 < DEGENERATE_SIGMA2
    if degenerate:
        se_beta = np.full(p, np.nan)
        se_rho = math.nan
    else:
        AX = problem.X - rho_hat * cache.WX
        xtx_inv = np.linalg.inv(AX.T @ AX)
        se_beta = np.sqrt(np.maximum(sigma2 * np.diag(xtx_inv), 0.0))
        se_rho = _profile_curvature_se(cache, rho_hat, lo, hi, spec)
    p_values = np.append(_two_sided_p(beta, se_beta), _two_sided_p(rho_hat, se_rho))

    return SemFit(
        rho_hat=float(rho_hat),
        beta_hat=beta,
        sigma2_hat=sigma2,
        se_beta=se_beta,
        se_rho=se_rho,
        p_values=p_values,
        loglik=at_optimum.loglik,
        aic=aic,
        converged=converged,
        degenerate=degenerate,
        column_names=problem.column_names,
        rho_bounds=(spec.rho_lower, spec.rho_upper),
        evaluations=cache.evaluations,
        log_det=log_det_path(spec),
    )


def _profile_curvature_se(cache, rho_hat, lo, hi, spec) -> float:
    h = 1e-4 * (spec.rho_upper - spec.rho_lower)
    # Shrink the step if the optimum sits close to an interval end.
    room = min(hi - rho_hat, rho_hat - lo)
    if room <= 0:
        return math.nan
    h = min(h, 0.5 * room)
    above, at, below = cache.profile(np.array([rho_hat + h, rho_hat, rho_hat - h]), spec)
    d2 = (above - 2.0 * at + below) / (h * h)
    if d2 >= 0:
        return math.nan
    return math.sqrt(-1.0 / d2)


def fit_ols(problem: SemProblem) -> SemFit:
    """Fit the restricted model with rho fixed at 0 (independent errors).

    The weight matrix of the problem is ignored and may be None; the AIC
    counts p + 1 parameters (beta and sigma^2).
    """
    X, y = problem.X, problem.y
    n, p = problem.n, problem.p
    _require_full_rank(problem)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    u = y - X @ beta
    sigma2 = float(u @ u) / n
    degenerate = sigma2 < DEGENERATE_SIGMA2
    if degenerate:
        loglik = math.inf
        se_beta = np.full(p, np.nan)
    else:
        loglik = -0.5 * n * (LOG_2PI + 1.0) - 0.5 * n * math.log(sigma2)
        se_beta = np.sqrt(
            np.maximum(sigma2 * np.diag(np.linalg.inv(X.T @ X)), 0.0)
        )
    p_values = np.append(_two_sided_p(beta, se_beta), np.nan)
    return SemFit(
        rho_hat=0.0,
        beta_hat=beta,
        sigma2_hat=sigma2,
        se_beta=se_beta,
        se_rho=None,
        p_values=p_values,
        loglik=loglik,
        aic=-2.0 * loglik + 2.0 * (p + 1),
        converged=True,
        degenerate=degenerate,
        column_names=problem.column_names,
        rho_bounds=None,
    )


def residuals(problem: SemProblem, beta, rho: float | None = None):
    """``(u_hat, eps_hat)`` of estimates ``beta`` and ``rho``: y - X beta and (I - rho W) u_hat.

    With ``rho`` None (a :func:`fit_ols` fit, whose problem needs no W) eps_hat is u_hat.
    """
    u_hat = problem.y - problem.X @ beta
    return u_hat, (u_hat if rho is None else u_hat - rho * (problem.W @ u_hat))


def fit_to_dict(result: SemFit) -> dict:
    """JSON-ready mapping with one entry per SemFit field, in field order."""
    return {field.name: getattr(result, field.name) for field in fields(SemFit)}


def fit_from_dict(payload: dict) -> SemFit:
    """The SemFit that :func:`fit_to_dict` mapped to ``payload``, after JSON.

    Keys that are no SemFit field, such as the ``u_hat`` and ``eps_hat``
    of fits stored before, are ignored.  JSON has no NaN or infinity, so
    each is written as null.  A null reads back as NaN, except where a fit
    only ever puts one other value: an infinite ``loglik`` is the +inf of a
    perfect fit, and its ``aic`` then -inf; ``se_rho`` is None for a fit
    with no rho interval (``fit_ols``).
    """

    def number(value, missing=math.nan) -> float:
        return missing if value is None else float(value)

    def array(values) -> np.ndarray:
        return np.array(values, dtype=float)  # None becomes NaN

    bounds = payload["rho_bounds"]
    return SemFit(
        rho_hat=number(payload["rho_hat"]),
        beta_hat=array(payload["beta_hat"]),
        sigma2_hat=number(payload["sigma2_hat"]),
        se_beta=array(payload["se_beta"]),
        se_rho=None if bounds is None else number(payload["se_rho"]),
        p_values=array(payload["p_values"]),
        loglik=number(payload["loglik"], math.inf),
        aic=number(payload["aic"], -math.inf),
        converged=bool(payload["converged"]),
        degenerate=bool(payload["degenerate"]),
        column_names=tuple(payload["column_names"]),
        rho_bounds=None if bounds is None else tuple(number(b) for b in bounds),
        evaluations=int(payload["evaluations"]),
        log_det=payload["log_det"],
    )


def write_fit_json(path, result: SemFit) -> None:
    write_json(path, fit_to_dict(result))


def write_coefficients_csv(path, entries) -> None:
    """Write ``period,structure,term,estimate,se,p_value`` rows: each fit's beta terms, then rho.

    ``entries`` is an iterable of (period, structure_id, SemFit).
    """
    periods, structures, terms, estimates, ses, p_values = columns = ([], [], [], [], [], [])
    for period, structure, result in entries:
        p = len(result.column_names)
        periods += [period] * (p + 1)
        structures += [structure] * (p + 1)
        terms += [*result.column_names, "rho"]
        estimates += [*result.beta_hat, result.rho_hat]
        ses += [*result.se_beta, math.nan if result.se_rho is None else result.se_rho]
        p_values += [*result.p_values]
    write_csv(path, ("period", "structure", "term", "estimate", "se", "p_value"), columns)
