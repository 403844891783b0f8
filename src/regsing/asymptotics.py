"""Floating-point approximations for the kernel-count analysis.

Everything exact lives in exactcount; this module holds the analytic
side: characteristic-function scans over the torus, local-limit
approximants for per-class master terms, large-deviation rate functions
with Legendre minimization, and the spectral check of the
quadratic-form operator of the symmetric-matrix local limit.  numpy
is the only numerical dependency: the log-sum-exp of the rate-function
Newton is max-shifted (Blanchard, Higham and Higham, IMA J. Numer.
Anal. 2021), and the p = 2 Gaussian check integrates by the trapezoid
rule, which converges exponentially on Gaussian integrands (Trefethen
and Weideman, SIAM Review 2014).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CostGuardError, DomainError, ShapeError
from .exactcount import _congruent, validate_signature
from .gfcore import require_int
from .walkdist import SupportTable, build_support, char_fn, require_support

TWO_PI = 2.0 * math.pi

# |phi| = 1 - 1e-9 marks a grid point as effectively sitting on one of
# the invariance lines; scans count how many such points escape the
# excluded tubes (a sound scan reports zero).
NEAR_ONE_EPS = 1e-9

SCAN_POINT_CAP = 100_000_000
SCAN_CHUNK = 1 << 16
# numpy arrays have at most 64 axes; the scan grid takes one per t_1..t_{p-1}
SCAN_MAX_AXES = 64

# Newton iteration cap and gradient-norm convergence test of the
# directed rate
MAX_NEWTON_ITER = 200
GRAD_TOL = 1e-12

# symmetry and zero-sum tolerance for operator inputs
SYM_TOL = 1e-12


def helmert_basis(p: int) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to the all-ones
    vector, as the columns of a (p, p-1) matrix."""
    if p < 2:
        raise DomainError(f"need p >= 2, got {p}")
    o = np.zeros((p, p - 1))
    for k in range(1, p):
        o[:k, k - 1] = 1.0
        o[k, k - 1] = -float(k)
        o[:, k - 1] /= math.sqrt(k * (k + 1))
    return o


def _reduced_tubes(
    coords: tuple[np.ndarray, ...], axis: np.ndarray, delta: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each tube j in turn, the slice-grid points that can lie in
    tube j, as (rows, w): their row numbers, and their coordinates
    reduced into [0, 2*pi)^p, w = mod(t - j*base, 2*pi) with base =
    2*pi*(0, 1/p, ..., (p-1)/p), t_0 = 0 and t_i = axis[coords[i-1]].

    A point in tube j has a lift v of w within squared distance delta
    of the all-ones line, so every two coordinates of v lie within
    sqrt(2*delta) of each other.  On the slice w_0 = mod(0 - 0, 2*pi)
    = 0, so every coordinate of w lies within sqrt(2*delta) of 0 around
    the circle: w_i <= R or w_i >= 2*pi - R, with R = sqrt(2*delta)
    widened by a relative 1e-9 and an absolute 1e-12 past the rounding
    of the mask's sums.  Every other point is left out.  Column i takes
    one of only len(axis) values, so each axis is reduced and tested
    once per tube, and the test is gathered axis by axis for the rows
    that passed the axes before.  The kept rows' columns are gathered
    from the same tables: the operands are those of reducing the points
    themselves, so every entry has the same bits.
    """
    p = len(coords) + 1
    base = TWO_PI * np.arange(p) / p
    radius = math.sqrt(2.0 * delta) * (1.0 + 1e-9) + 1e-12
    for j in range(p):
        shift = j * base
        tables = [np.mod(axis - shift[i], TWO_PI) for i in range(1, p)]
        near = [(table <= radius) | (table >= TWO_PI - radius) for table in tables]
        rows = np.flatnonzero(near[0][coords[0]])
        for c, ok in zip(coords[1:], near[1:]):
            rows = rows[ok[c[rows]]]
        w = np.empty((len(rows), p))
        w[:, 0] = np.mod(0.0 - shift[0], TWO_PI)
        for i, (c, table) in enumerate(zip(coords, tables), 1):
            w[:, i] = table[c[rows]]
        yield rows, w


def _tube_mask(
    tubes: Iterable[tuple[np.ndarray, np.ndarray]], n: int, p: int, delta: float, o: np.ndarray
) -> np.ndarray:
    """Boolean mask of the n points lying in some excluded tube.

    The tubes surround the lines where |phi| reaches 1: a point t lies in
    tube j when t - 2*pi*j*(0, 1/p, ..., (p-1)/p) is within squared
    distance delta of the all-ones line, modulo 2*pi shifts; `tubes`
    yields, for each j, pairs (rows, w) of row numbers among the n
    points and those rows' difference reduced into w in [0, 2*pi)^p,
    as a (len(rows), p) array; rows left out are taken to lie outside
    tube j.  `o` is `helmert_basis(p)`.  A point within sqrt(delta) < pi
    of the all-ones line differs from a constant vector by less than pi
    per coordinate, so the integer shifts realizing the nearest
    representative span at most two consecutive values per coordinate;
    a common shift along all-ones is free, leaving shift vectors in
    {0, 1}^p.  Of those, only the p + 1 that lift the r smallest
    coordinates of w (r = 0..p) can pass: a set lifting w_a but not
    some w_b <= w_a leaves two coordinates at least 2*pi apart, at
    squared distance at least 2*pi^2 > pi^2 > delta from the line.  Ties
    are alike, so any order of equal coordinates serves.  Each row is
    sorted once; scattering 0..p-1 through the sort order gives every
    coordinate's rank.  r = 0 and r = p are the same shift up to
    rounding, and both are tried, so the mask is the one all 2^p shift
    vectors give, bit for bit.
    """
    mask = np.zeros(n, dtype=bool)
    ranks = np.arange(p)
    for rows, w in tubes:
        if len(rows) == 0:
            continue
        if len(rows) == 1:
            # numpy takes a one-row product through its vector kernel,
            # which rounds otherwise than the matrix kernel of larger
            # batches; a repeated row keeps the product a matrix one
            rows, w = np.repeat(rows, 2), np.repeat(w, 2, axis=0)
        rank = np.empty(w.shape, dtype=np.intp)
        np.put_along_axis(rank, w.argsort(axis=1), ranks, axis=1)
        hit = np.zeros(len(rows), dtype=bool)
        for r in range(p + 1):
            x = (w + TWO_PI * (rank < r)) @ o
            hit |= np.einsum("ij,ij->i", x, x) <= delta
        mask[rows[hit]] = True
    return mask


@dataclass(frozen=True)
class CfScanReport:
    d: int
    p: int
    delta: float
    grid_step: float
    grid_size: int
    n_points: int
    n_outside: int
    max_abs_outside: float
    argmax: tuple[float, ...] | None
    margin: float
    near_one_outside: int


def cf_scan(d: int, p: int, delta: float, grid_step: float) -> CfScanReport:
    """Scan |phi| on a uniform torus grid outside the excluded tubes.

    |phi| is constant along the all-ones direction, so every orbit has a
    representative on the slice t_0 = 0 and the scan covers the slice
    grid of size k^(p-1), with k = 2*pi/grid_step.  The step must be
    positive and divide 2*pi evenly, with the step and 2*pi/step finite,
    and delta must lie in (0, pi^2); otherwise DomainError.  The cost
    guard (CostGuardError) applies to the nominal p-dimensional grid the
    slice stands in for, then the step-support guard; past both, p - 1
    above SCAN_MAX_AXES is a DomainError, before the support is built.
    The grid is walked SCAN_CHUNK points at a time.  For each tube,
    `_reduced_tubes` tests every axis value against the sqrt(2*delta)
    bound that a point in the tube meets on the t_0 = 0 slice, and
    reduces only the points that pass every axis, from per-axis tables;
    `_tube_mask` runs its p + 1 shift tests on those points alone.
    |phi| is evaluated on the rest of the chunk, through one `char_fn`
    call; only those points are built in full.
    """
    # the two-value shift window in _tube_mask needs the tube radius
    # sqrt(delta) below pi
    if not 0.0 < delta < math.pi**2:
        raise DomainError(f"delta must lie in (0, pi^2), got {delta}")
    if not 0.0 < grid_step < math.inf or math.isinf(TWO_PI / grid_step):
        raise DomainError(
            f"grid step must be positive and finite, with 2*pi/step finite, got {grid_step}"
        )
    k = round(TWO_PI / grid_step)
    if k < 1 or abs(TWO_PI / k - grid_step) > 1e-9 * grid_step:
        raise DomainError(f"grid step {grid_step} does not divide 2*pi evenly")
    # k**64 already exceeds the cap when k > 1, so the power stays small
    if k ** min(p, 64) > SCAN_POINT_CAP:
        raise CostGuardError(
            f"torus grid {k}^{p} exceeds the {SCAN_POINT_CAP}-point cost guard"
        )
    require_support(d, p)
    if p - 1 > SCAN_MAX_AXES:
        raise DomainError(f"the scan grid needs p - 1 <= {SCAN_MAX_AXES} axes, got p = {p}")
    support = build_support(d, p)
    o = helmert_basis(p)
    axis = TWO_PI * np.arange(k) / k
    n_points = k ** (p - 1)
    n_outside = 0
    near_one_outside = 0
    max_abs = 0.0
    argmax: tuple[float, ...] | None = None
    for start in range(0, n_points, SCAN_CHUNK):
        flat = np.arange(start, min(start + SCAN_CHUNK, n_points))
        coords = np.unravel_index(flat, (k,) * (p - 1))
        outside = ~_tube_mask(_reduced_tubes(coords, axis, delta), len(flat), p, delta, o)
        if not outside.any():
            continue
        kept = np.zeros((int(outside.sum()), p))
        for i, c in enumerate(coords, 1):
            kept[:, i] = axis[c[outside]]
        # centering the step only multiplies phi by a unit phase, so the
        # raw step's |phi| is the centered one's
        vals = np.abs(char_fn(support, kept))
        n_outside += len(kept)
        near_one_outside += int((vals > 1.0 - NEAR_ONE_EPS).sum())
        top = int(np.argmax(vals))
        if vals[top] > max_abs:
            max_abs = float(vals[top])
            argmax = tuple(float(v) for v in kept[top])
    return CfScanReport(
        d=d,
        p=p,
        delta=delta,
        grid_step=TWO_PI / k,
        grid_size=k,
        n_points=n_points,
        n_outside=n_outside,
        max_abs_outside=max_abs,
        argmax=argmax,
        margin=1.0 - max_abs,
        near_one_outside=near_one_outside,
    )


class LcltValue(NamedTuple):
    value: float
    applicable: bool


def lclt_directed(sig: Sequence[int], d: int, p: int) -> LcltValue:
    """Gaussian local-limit approximation of one class's master term.

    Approximates multinomial(n; sig) * count / (nd)! by
    p^(3/2) * (p/(2*pi*n))^((p-1)/2) * exp(-(p*n/2) * q) with q the
    squared deviation of sig/n from uniform.  Classes violating the
    weighted congruence have exact value 0; the flag marks the
    approximant as inapplicable there.
    """
    sig = validate_signature(sig, p)
    n = sum(sig)
    if n < 1 or p * n > sys.float_info.max:  # p * n is turned into a float
        raise DomainError("signature total must be positive, and p times it within float range")
    d = require_int("d", d, 1)
    o = helmert_basis(p)
    dev = np.array(sig, dtype=float) / n - 1.0 / p
    q = float(np.dot(o.T @ dev, o.T @ dev))
    value = p**1.5 * (p / (TWO_PI * n)) ** ((p - 1) / 2) * math.exp(-p * n * q / 2)
    return LcltValue(value=value, applicable=_congruent(sig, d, p))


def _check_simplex(freqs, shape: tuple[int, ...]) -> np.ndarray:
    """Frequencies of the given shape: nonnegative, finite, summing to 1."""
    nu = np.asarray(freqs, dtype=float)
    if nu.shape != shape:
        raise ShapeError(f"need frequencies of shape {shape}, got shape {nu.shape}")
    if (nu < 0).any():
        raise DomainError("frequencies must be nonnegative")
    if not np.isfinite(nu).all():
        raise DomainError("frequencies must be finite")
    # finite entries may still overflow the sum; inf then fails the check
    with np.errstate(over="ignore"):
        total = float(nu.sum())
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"frequencies must sum to 1, got {total!r}")
    return nu


def rate_directed_explicit(frak_n: Sequence[float], d: int, p: int) -> float:
    """Upper bound for the directed rate from the explicit tilt choice.

    log of the sum over the step multiset of
    prod_k frak_n[k]^(u_k * (d-1)/d), with the 0^0 = 1 convention.
    Returns -inf when every product vanishes.
    """
    return _explicit_bound(_check_simplex(frak_n, (p,)), build_support(d, p))


def _explicit_bound(nu: np.ndarray, support: SupportTable) -> float:
    alpha = (support.d - 1) / support.d
    total = 0.0
    for atom, mult in support.atoms:
        term = float(mult)
        for u_k, n_k in zip(atom, nu):
            if u_k == 0:
                continue
            if n_k == 0.0:
                term = 0.0
                break
            term *= n_k ** (alpha * u_k)
        total += term
    if total == 0.0:
        return float("-inf")
    return math.log(total)


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for a finite 1-d array, with the arithmetic of
    scipy.special.logsumexp: every entry equal to the maximum is taken
    out of the shifted sum, which keeps its length and order."""
    top = a.max()
    hit = a == top
    m = hit.sum()
    s = np.exp(np.where(hit, -np.inf, a) - top).sum()
    return np.log1p(s / m) + np.log(m) + top


@dataclass(frozen=True)
class RateEvaluation:
    value: float
    explicit_bound: float
    minimizer: tuple[float, ...]
    converged: bool
    boundary: bool


def rate_directed_opt(frak_n: Sequence[float], d: int, p: int) -> RateEvaluation:
    """Directed rate by Legendre minimization of the tilted objective.

    Minimizes log E[exp(<t, X>)] - d <t, frak_n> by damped Newton.  The
    objective is invariant along the all-ones direction (the step sums
    to d and the frequencies to 1), so the iteration runs on the slice
    t_0 = 0 where the tilted covariance is nonsingular.  The reported
    value is the assembled rate, capped by the explicit-tilt upper
    bound.  Classes with empty symbols push the infimum to infinity;
    those carry the boundary flag and typically report the explicit
    bound, which the evaluation also carries.

    Convergence means ||grad|| <= GRAD_TOL.  When the Newton decrement
    -<grad, step> is below the rounding of the objective f, 4 eps
    max(1, |f|), Armijo backtracking cannot see any decrease, so the
    full Newton step is taken unchecked.  If d frak_n lies in the hull
    of the step atoms a with weights w_a, Jensen gives f >= min log w_a
    at every tilt; once f drops one below that floor, d frak_n is
    proven to lie outside the hull, no walk realizes the class, and the
    value is exactly -inf with converged=False.

    Each objective call keeps its atom scores and their log-sum-exp, so
    the iteration at an accepted point starts from them and does not
    evaluate the same point twice.
    """
    nu = _check_simplex(frak_n, (p,))
    support = build_support(d, p)
    atoms = np.array([u for u, _ in support.atoms], dtype=float)
    log_w = np.array([math.log(m) for _, m in support.atoms]) - (d - 1) * math.log(p)
    boundary = bool((nu == 0.0).any())
    explicit = _explicit_bound(nu, support)

    def objective(z: np.ndarray) -> tuple[float, np.ndarray, float]:
        """f at z, with the atom scores and their log-sum-exp, which
        the next iteration starts from once z is accepted."""
        t = np.concatenate(([0.0], z))
        scores = atoms @ t + log_w
        lse = _logsumexp(scores)
        return float(lse - d * t @ nu), scores, lse

    z = np.zeros(p - 1)
    f, scores, lse = objective(z)
    jensen_floor = float(log_w.min()) - 1.0
    eps = np.finfo(float).eps
    converged = False
    ridge = 1e-12 * np.eye(p - 1)
    for _ in range(MAX_NEWTON_ITER):
        q = np.exp(scores - lse)
        mean = q @ atoms
        grad = (mean - d * nu)[1:]
        # the 2-norm as np.linalg.norm computes it for a 1-d float array
        if math.sqrt(grad @ grad) <= GRAD_TOL:
            converged = True
            break
        centered = atoms - mean
        cov = centered.T @ (q[:, None] * centered)
        hess = cov[1:, 1:] + ridge
        step = -np.linalg.solve(hess, grad)
        decrement = -float(grad @ step)
        if decrement <= 4 * eps * max(1.0, abs(f)):
            z = z + step
            f, scores, lse = objective(z)
        else:
            # Armijo backtracking keeps the Newton step inside the region
            # where the quadratic model is trusted
            scale = 1.0
            while scale > 1e-12:
                cand = z + scale * step
                f_cand, scores_cand, lse_cand = objective(cand)
                if f_cand <= f - 1e-4 * scale * decrement:
                    z, f, scores, lse = cand, f_cand, scores_cand, lse_cand
                    break
                scale /= 2.0
            else:
                break
        if f < jensen_floor:
            f = -math.inf
            break
    entropy = sum(float(n_k) * math.log(n_k) for n_k in nu if n_k > 0.0)
    assembled = (d - 1) * math.log(p) + (d - 1) * entropy + f
    value = min(assembled, explicit)
    minimizer = (0.0, *(float(v) for v in z))
    return RateEvaluation(value, explicit, minimizer, converged, boundary)


def rate_undirected_explicit(frak_m: Sequence[Sequence[float]], d: int, p: int) -> float:
    """Upper bound for the undirected rate from the explicit row tilts.

    (d-2)/2 * sum_ij m_ij ln(n_i n_j / m_ij) plus the row-wise directed
    bounds weighted by the marginals n_i = sum_j m_ij, with 0 ln 0 = 0.
    """
    m = _check_simplex(frak_m, (p, p))
    if np.abs(m - m.T).max() > 1e-12:
        raise DomainError("matrix must be symmetric")
    marg = m.sum(axis=1)
    support = build_support(d, p)
    term1 = 0.0
    for i in range(p):
        for j in range(p):
            if m[i, j] > 0.0:
                term1 += m[i, j] * math.log(marg[i] * marg[j] / m[i, j])
    term1 *= (d - 2) / 2
    term2 = 0.0
    for i in range(p):
        if marg[i] > 0.0:  # row i over its marginal is a simplex point already
            term2 += marg[i] * _explicit_bound(m[i] / marg[i], support)
    return term1 + term2


def require_sym_zero(a: Sequence[Sequence[float]]) -> np.ndarray:
    """Validate a symmetric matrix with zero total entry sum."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"need a square matrix, got shape {m.shape}")
    if np.abs(m - m.T).max() > SYM_TOL:
        raise DomainError("matrix must be symmetric")
    if abs(float(m.sum())) > SYM_TOL:
        raise DomainError("total entry sum must be zero")
    return m


def apply_quadratic_operator(
    a: Sequence[Sequence[float]], n: int, d: int, p: int
) -> np.ndarray:
    """-d n p^2 A / 4 + (d-1) n p (A J + J A) / 4 with J all-ones."""
    m = require_sym_zero(a)
    if m.shape[0] != p:
        raise ShapeError(f"need a {p} x {p} matrix, got shape {m.shape}")
    ones = np.ones((p, p))
    return -d * n * p**2 * m / 4 + (d - 1) * n * p * (m @ ones + ones @ m) / 4


@dataclass(frozen=True)
class OperatorReport:
    p: int
    n: int
    d: int
    laplacian_eigenvalue: float
    laplacian_dim: int
    laplacian_max_residual: float
    bordered_eigenvalue: float
    bordered_dim: int
    bordered_max_residual: float
    families_orthogonal: bool
    space_dim: int
    dims_consistent: bool
    closed_integral: float
    quadrature_integral: float | None
    quadrature_gap: float | None


def closed_gaussian_integral(p: int, n: int, d: int) -> float:
    """Product over the two eigenvalue families of (pi/|eigenvalue|)^(1/2)
    per dimension."""
    return (4 * math.pi / (d * n * p**2)) ** ((p**2 - p) / 4) * (
        4 * math.pi / (n * p**2)
    ) ** ((p - 1) / 2)


def _gaussian_trapezoid(lam: float) -> float:
    """Integral of exp(lam x^2) over the real line, lam < 0, by the
    trapezoid rule with step 0.01/sqrt|lam| on [-40, 40]/sqrt|lam|; the
    end terms underflow to 0, so the rule is h times the plain sum."""
    h = 0.01 / math.sqrt(-lam)
    x = h * np.arange(-4000, 4001)
    return h * float(np.exp(lam * x * x).sum())


def operator_L_check(p: int, n: int, d: int) -> OperatorReport:
    """Verify the eigen-decomposition of the quadratic-form operator.

    Family one: symmetric matrices with zero row sums, spanned by edge
    Laplacians, eigenvalue -d*n*p^2/4, dimension p(p-1)/2.  Family two:
    a 1^t + 1 a^t with a summing to zero, eigenvalue -n*p^2/4, dimension
    p - 1.  Together they fill the zero-total-sum symmetric space.  At
    p = 2 the closed Gaussian integral over that space is compared with
    trapezoid quadrature.
    """
    p, n, d = require_int("p", p, 2), require_int("n", n, 1), require_int("d", d, 1)
    lam1 = -d * n * p**2 / 4
    lam2 = -n * p**2 / 4
    family1 = []
    for i in range(p):
        for j in range(i + 1, p):
            e = np.zeros(p)
            e[i], e[j] = 1.0, -1.0
            family1.append(np.outer(e, e))
    o = helmert_basis(p)
    family2 = [np.outer(a, np.ones(p)) + np.outer(np.ones(p), a) for a in o.T]
    res1 = max(
        float(np.abs(apply_quadratic_operator(a, n, d, p) - lam1 * a).max())
        for a in family1
    )
    res2 = max(
        float(np.abs(apply_quadratic_operator(a, n, d, p) - lam2 * a).max())
        for a in family2
    )
    cross = max(
        abs(float(np.tensordot(a, b))) for a in family1 for b in family2
    )
    stack1 = np.array([a.ravel() for a in family1])
    stack2 = np.array([a.ravel() for a in family2])
    dim1 = int(np.linalg.matrix_rank(stack1))
    dim2 = int(np.linalg.matrix_rank(stack2))
    joint = int(np.linalg.matrix_rank(np.vstack([stack1, stack2])))
    space_dim = p * (p + 1) // 2 - 1
    dims_consistent = (
        dim1 == p * (p - 1) // 2 and dim2 == p - 1 and joint == dim1 + dim2 == space_dim
    )
    closed = closed_gaussian_integral(p, n, d)
    quad_val: float | None = None
    quad_gap: float | None = None
    if p == 2:
        # orthonormal coordinates along the two eigendirections turn the
        # exponent into lam1 x^2 + lam2 y^2, so the integral factors
        quad_val = _gaussian_trapezoid(lam1) * _gaussian_trapezoid(lam2)
        quad_gap = abs(quad_val - closed)
    return OperatorReport(
        p=p,
        n=n,
        d=d,
        laplacian_eigenvalue=lam1,
        laplacian_dim=dim1,
        laplacian_max_residual=res1,
        bordered_eigenvalue=lam2,
        bordered_dim=dim2,
        bordered_max_residual=res2,
        families_orthogonal=cross < 1e-10,
        space_dim=space_dim,
        dims_consistent=dims_consistent,
        closed_integral=closed,
        quadrature_integral=quad_val,
        quadrature_gap=quad_gap,
    )
