"""Characteristic-function scans, local CLT closure, rate functions, operator check."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import logsumexp

from regsing import asymptotics as am
from regsing import exactcount, walkdist
from regsing.errors import CostGuardError, DomainError, InvalidParamsError, ShapeError

TWO_PI = 2 * math.pi

# Frozen scan baselines; regenerated values must agree to full precision.
SCAN_BASELINES = {
    (3, 2, 64): dict(max_abs=0.9128739438621035, n_outside=46, argmax=(0.0, 0.4908738521234052)),
    (3, 3, 32): dict(
        max_abs=0.9505626916023445, n_outside=987, argmax=(0.0, 0.0, 0.39269908169872414)
    ),
    (4, 3, 32): dict(
        max_abs=0.9340342602614511,
        n_outside=987,
        argmax=(0.0, 0.39269908169872414, 0.39269908169872414),
    ),
}


def test_helmert_basis_orthonormal():
    for p in (2, 3, 5, 7):
        o = am.helmert_basis(p)
        assert o.shape == (p, p - 1)
        assert np.allclose(o.T @ o, np.eye(p - 1), atol=1e-14)
        assert np.allclose(np.ones(p) @ o, 0.0, atol=1e-14)
    with pytest.raises(DomainError):
        am.helmert_basis(1)


def test_cf_domain_validation():
    # the tube radius sqrt(delta) must lie in (0, pi)
    for delta in (0.0, math.pi**2, math.nan):
        with pytest.raises(DomainError):
            am.cf_scan(3, 3, delta, TWO_PI / 8)
    am.cf_scan(3, 3, 0.1, TWO_PI / 8)


def point_tubes(points, p):
    """The reduction `_reduced_tubes` replaced, which serves any points:
    every row, with mod(t - j*base, 2*pi), for each tube j."""
    base = TWO_PI * np.arange(p) / p
    for j in range(p):
        yield np.arange(len(points)), np.mod(points - j * base, TWO_PI)


def _in_tubes(t, p, delta=0.1):
    pts = np.asarray(t, dtype=float).reshape(1, p)
    return bool(am._tube_mask(point_tubes(pts, p), 1, p, delta, am.helmert_basis(p))[0])


def test_cf_domain_contains_line_points():
    for p in (2, 3, 5):
        for j in range(p):
            base = TWO_PI * j * np.arange(p) / p
            assert _in_tubes(base, p)
            # whole line direction and lattice periodicity stay inside
            assert _in_tubes(base + 0.7 * np.ones(p), p)
            shifted = base.copy()
            shifted[0] += TWO_PI
            assert _in_tubes(shifted, p)


def test_cf_domain_excludes_far_point():
    # (0, pi) is the j=1 line center at p=2; the quarter turn is not
    assert _in_tubes((0.0, math.pi), 2)
    assert not _in_tubes((0.0, math.pi / 2), 2)


def test_scan_frozen_baselines():
    for (d, p, k), want in SCAN_BASELINES.items():
        rep = am.cf_scan(d, p, 0.1, TWO_PI / k)
        assert rep.grid_size == k
        assert rep.n_points == k ** (p - 1)
        assert rep.n_outside == want["n_outside"]
        assert rep.max_abs_outside == pytest.approx(want["max_abs"], rel=1e-12)
        assert rep.argmax == pytest.approx(want["argmax"], abs=1e-12)
        assert rep.margin == pytest.approx(1.0 - want["max_abs"], rel=1e-12)
        assert rep.near_one_outside == 0
        assert rep.margin >= 1e-6


def test_scan_grid_hitting_line_exactly():
    # K = 33 puts the line points of p=3 on the grid; they must be
    # classified inside and never reported as near-one outliers
    rep = am.cf_scan(3, 3, 0.1, TWO_PI / 33)
    assert rep.near_one_outside == 0
    assert rep.max_abs_outside < 1.0 - 1e-6
    assert rep.n_outside < 33**2


def test_scan_step_validation_and_cost_guard():
    with pytest.raises(DomainError):
        am.cf_scan(3, 2, 0.1, 0.1)  # step does not divide 2*pi
    with pytest.raises(DomainError):
        am.cf_scan(3, 2, -0.1, TWO_PI / 8)
    with pytest.raises(CostGuardError):
        am.cf_scan(3, 7, 0.1, TWO_PI / 16)
    # 64^5 > 1e8: refused before any scan work
    with pytest.raises(CostGuardError):
        am.cf_scan(3, 5, 0.1, TWO_PI / 64)
    # 2*pi/5e-324 overflows to inf
    for step in (0.0, math.nan, math.inf, -math.inf, 5e-324):
        with pytest.raises(DomainError, match="grid step"):
            am.cf_scan(3, 2, 0.1, step)


def reference_tube_mask(tubes, n, p, delta, o):
    """The kernel `_tube_mask` replaced: every shift vector in {0, 1}^p
    for every tube, p * 2^p products."""
    mask = np.zeros(n, dtype=bool)
    shifts = np.array(list(itertools.product((0.0, 1.0), repeat=p)))
    for rows, w in tubes:
        for k in shifts:
            x = (w + TWO_PI * k) @ o
            mask[rows] |= np.einsum("ij,ij->i", x, x) <= delta
    return mask


def reference_char_fn(s, t):
    """The expression `char_fn` replaced: exp of a complex matmul."""
    t = np.asarray(t, dtype=float)
    atoms = np.array([u for u, _ in s.atoms], dtype=float)
    mults = np.array([m for _, m in s.atoms], dtype=float)
    return np.exp(1j * t @ atoms.T) @ (mults / float(s.total))


def grid_coords(p, k):
    """The axis values and the per-axis indices of the points `cf_scan`
    visits: the t_0 = 0 slice of the k-grid."""
    axis = TWO_PI * np.arange(k) / k
    return np.unravel_index(np.arange(k ** (p - 1)), (k,) * (p - 1)), axis


def coords_points(coords, axis):
    """The points with t_0 = 0 and t_i = axis[coords[i-1]]."""
    pts = np.zeros((len(coords[0]), len(coords) + 1))
    for i, c in enumerate(coords):
        pts[:, i + 1] = axis[c]
    return pts


def reference_reduced_tubes(coords, axis, delta):
    """The reduction `_reduced_tubes` replaced: build the points, then
    reduce each tube's difference over the whole array, with no filter."""
    return point_tubes(coords_points(coords, axis), len(coords) + 1)


def tube_boundary_points(p, delta, rng, per_tube=200):
    """Points on the tube lines, with negative coordinates among them, and
    at squared distance delta*(1 +- 1e-15) or exactly delta from the lines
    on either side, half of those moved by random 2*pi lattice shifts."""
    o = am.helmert_basis(p)
    out = []
    for j in range(p):
        base = TWO_PI * j * np.arange(p) / p
        line = base + rng.uniform(-TWO_PI, TWO_PI, size=(per_tube, 1))
        g = rng.standard_normal((per_tube, p - 1))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        scale = np.sqrt(delta * rng.choice([1 - 1e-15, 1.0, 1 + 1e-15], size=(per_tube, 1)))
        lattice = TWO_PI * rng.integers(-3, 4, size=(per_tube, p))
        out += [line, line + scale * g @ o.T + lattice, line - scale * g @ o.T]
    return np.concatenate(out)


# the radius sqrt(2*delta) of the filter in `_reduced_tubes` passes pi
# at delta = pi^2/2, where it lets every point through
DELTAS = (1e-12, 0.1, 0.37, 2.0, 9.5, math.pi**2 * (1 - 1e-12))
# the scan grids of the tests and the benchmark, and p = 5, 7 at k <= 13
MASK_GRIDS = [(p, k) for p in (2, 3) for k in (8, 16, 32, 33, 64)]
MASK_GRIDS += [(5, 8), (5, 13), (7, 4)]


def one_tube_mask(rows, w, n, p, delta):
    """The reference mask of the points of one tube."""
    return reference_tube_mask([(rows, w)], n, p, delta, am.helmert_basis(p))


@pytest.mark.parametrize("p,k", MASK_GRIDS)
def test_reduced_tubes_match_the_reduced_points_byte_for_byte(p, k):
    # the kept rows hold every grid point of the tube, and their
    # entries are those of reducing the points themselves
    coords, axis = grid_coords(p, k)
    pts = coords_points(coords, axis)
    for delta in DELTAS:
        tubes = list(am._reduced_tubes(coords, axis, delta))
        assert len(tubes) == p
        for j, ((rows, w), (_, want)) in enumerate(zip(tubes, point_tubes(pts, p))):
            assert np.array_equal(rows, np.unique(rows)), (delta, j)
            assert w.shape == (len(rows), p) and w.tobytes() == want[rows].tobytes(), (delta, j)
            inside = one_tube_mask(np.arange(len(pts)), want, len(pts), p, delta)
            assert np.isin(np.flatnonzero(inside), rows).all(), (delta, j)


@pytest.mark.parametrize("p,k", MASK_GRIDS)
def test_tube_mask_and_char_fn_match_the_reference_on_scan_grids(p, k):
    coords, axis = grid_coords(p, k)
    pts = coords_points(coords, axis)
    o = am.helmert_basis(p)
    for delta in DELTAS:
        got = am._tube_mask(am._reduced_tubes(coords, axis, delta), len(pts), p, delta, o)
        want = reference_tube_mask(point_tubes(pts, p), len(pts), p, delta, o)
        assert np.array_equal(got, want), delta
    for d in (3, 4, 5, 6):
        s = walkdist.build_support(d, p)
        assert walkdist.char_fn(s, pts).tobytes() == reference_char_fn(s, pts).tobytes(), d


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_tube_mask_matches_the_reference_on_tube_boundaries(p):
    rng = np.random.default_rng(100 + p)
    o = am.helmert_basis(p)
    for delta in (1e-12, 0.1, 0.37, 1.0, 2.0, 5.0, 9.5, math.pi**2 * (1 - 1e-12)):
        pts = tube_boundary_points(p, delta, rng)
        got = am._tube_mask(point_tubes(pts, p), len(pts), p, delta, o)
        want = reference_tube_mask(point_tubes(pts, p), len(pts), p, delta, o)
        assert np.array_equal(got, want), delta
        # below delta = 1 the tubes leave part of the torus uncovered,
        # so points land on both sides of the boundary
        if delta <= 1.0:
            assert 0 < want.sum() < len(want), delta
        # a point's verdict does not depend on the rows batched with it,
        # one row alone among them
        single = [(rows[i:i + 1], w[i:i + 1]) for rows, w in point_tubes(pts, p)
                  for i in range(0, len(pts), 29)]
        got = am._tube_mask(single, len(pts), p, delta, o)
        assert np.array_equal(got[::29], want[::29]) and not got[1::29].any(), delta


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_tube_filter_keeps_every_tube_boundary_point_the_reference_puts_in_the_tube(p):
    # the tube boundary points, moved along all-ones to t_0 = 0, reach
    # `_reduced_tubes` through an axis that lists each coordinate once
    rng = np.random.default_rng(200 + p)
    for delta in (1e-12, 0.1, 0.37, 1.0, 2.0, 5.0, 9.5, math.pi**2 * (1 - 1e-12)):
        pts = tube_boundary_points(p, delta, rng)
        pts = pts - pts[:, :1]
        n = len(pts)
        axis = pts[:, 1:].ravel()
        coords = tuple(np.arange(n) * (p - 1) + i for i in range(p - 1))
        found = 0
        for j, ((rows, w), (_, want)) in enumerate(
            zip(am._reduced_tubes(coords, axis, delta), point_tubes(pts, p))
        ):
            assert w.tobytes() == want[rows].tobytes(), (delta, j)
            inside = np.flatnonzero(one_tube_mask(np.arange(n), want, n, p, delta))
            assert np.isin(inside, rows).all(), (delta, j)
            found += len(inside)
        assert found > 0, delta


def test_tube_shift_tests_run_only_on_the_filtered_rows(monkeypatch):
    # at delta = 0.1 only a few grid points per tube reach the shift tests
    counted = []
    tube_mask = am._tube_mask

    def spy(tubes, n, p, delta, o):
        tubes = list(tubes)
        counted.append((sum(len(rows) for rows, _ in tubes), p * n))
        return tube_mask(tubes, n, p, delta, o)

    monkeypatch.setattr(am, "_tube_mask", spy)
    for d, p, k, want in [(3, 5, 8, (5, 20_480)), (5, 3, 64, (243, 12_288)),
                          (3, 3, 32, (57, 3_072)), (4, 3, 32, (57, 3_072))]:
        counted.clear()
        am.cf_scan(d, p, 0.1, TWO_PI / k)
        assert counted == [want], (d, p, k)


def test_cf_scan_reports_match_the_reference_kernels(monkeypatch):
    setups = list(itertools.product((3, 4, 5, 6), ((2, 64), (3, 32), (3, 33), (5, 8))))
    setups.append((3, (7, 4)))
    got = [am.cf_scan(d, p, delta, TWO_PI / k) for (d, (p, k)) in setups for delta in DELTAS]
    monkeypatch.setattr(am, "_reduced_tubes", reference_reduced_tubes)
    monkeypatch.setattr(am, "_tube_mask", reference_tube_mask)
    monkeypatch.setattr(am, "char_fn", reference_char_fn)
    want = [am.cf_scan(d, p, delta, TWO_PI / k) for (d, (p, k)) in setups for delta in DELTAS]
    assert got == want


def test_lclt_anchor_and_applicability():
    got = am.lclt_directed((16, 16), 3, 2)
    assert got.applicable
    assert got.value == pytest.approx(2**1.5 / math.sqrt(32 * math.pi), rel=1e-12)
    # odd total puts the class off the walk lattice at p=2
    assert not am.lclt_directed((15, 17), 3, 2).applicable


@pytest.mark.parametrize("call", [
    lambda: am.lclt_directed((2, 2), True, 2),
    lambda: am.lclt_directed((2, 2), 2.5, 2),
    lambda: am.operator_L_check(2.5, 1, 1),
    lambda: am.operator_L_check(2, True, 1),
], ids=["lclt-bool-d", "lclt-fractional-d", "operator-fractional-p", "operator-bool-n"])
def test_sizes_that_are_not_integers_are_refused(call):
    # the lclt calls returned values, the fractional p raised a bare
    # TypeError and the bool n gave a report with n = True
    with pytest.raises(InvalidParamsError, match="must be an integer"):
        call()


def test_lclt_tracks_exact_class_term():
    errs = []
    for n in (8, 16, 32, 64):
        sig = (n // 2, n // 2)
        # the class's master-sum term: multinomial(n; sig) * count / (nd)!
        exact = float(Fraction(
            exactcount.multinomial(n, sig) * exactcount.count_graphs_directed(sig, 3, 2),
            exactcount.model_size_directed(n, 3),
        ))
        approx = am.lclt_directed(sig, 3, 2).value
        errs.append(abs(approx - exact) / exact)
    assert errs[-1] < 0.1
    assert all(a > b for a, b in zip(errs[1:], errs[2:]))


def test_rate_explicit_zeros_and_validation():
    for p in (2, 3, 5):
        for d in (3, 4, 5):
            uni = tuple(Fraction(1, p) for _ in range(p))
            assert abs(am.rate_directed_explicit(uni, d, p)) <= 1e-9
            e0 = (1.0,) + (0.0,) * (p - 1)
            assert abs(am.rate_directed_explicit(e0, d, p)) <= 1e-9
    with pytest.raises(ShapeError):
        am.rate_directed_explicit((0.5, 0.5), 3, 3)
    with pytest.raises(DomainError):
        am.rate_directed_explicit((-0.1, 1.1), 3, 2)
    with pytest.raises(DomainError):
        am.rate_directed_explicit((0.3, 0.3), 3, 2)


def test_rate_explicit_negative_away_from_zeros():
    rng = np.random.default_rng(7)
    for p, d in [(2, 3), (3, 3), (3, 4)]:
        for _ in range(20):
            x = rng.dirichlet(np.ones(p))
            far_uniform = np.max(np.abs(x - 1.0 / p)) > 0.1 / p
            far_e0 = abs(x[0] - 1.0) > 0.1 / p
            if far_uniform and far_e0:
                assert am.rate_directed_explicit(x, d, p) < -1e-6


def test_rate_opt_at_uniform_and_boundary_flag():
    res = am.rate_directed_opt((0.5, 0.5), 3, 2)
    assert res.converged and not res.boundary
    assert abs(res.value) <= 1e-9
    assert np.allclose(res.minimizer, 0.0, atol=1e-6)
    res0 = am.rate_directed_opt((1.0, 0.0), 3, 2)
    assert res0.boundary
    assert abs(res0.value) <= 1e-9


def test_rate_opt_below_explicit():
    # convergence is not asserted: when d*frak_n leaves the hull of the
    # step support the infimum escapes to -inf and the evaluation
    # reports exactly -inf with converged=False, which is the honest
    # answer (no walk realizes such a class)
    rng = np.random.default_rng(11)
    for p, d in [(2, 3), (3, 3), (3, 4), (5, 3)]:
        for _ in range(30):
            x = rng.dirichlet(np.ones(p))
            opt = am.rate_directed_opt(x, d, p)
            explicit = am.rate_directed_explicit(x, d, p)
            assert opt.explicit_bound == explicit
            assert opt.value <= explicit + 1e-9


def test_rate_opt_flags_infeasible_class(monkeypatch):
    # at p=2, d=3 both step atoms have a positive first coordinate, so
    # a class with frak_n_0 < 1/3 admits no realization at all, and the
    # value is -inf whatever the iteration cap
    for max_iter in (50, 200, 800):
        monkeypatch.setattr(am, "MAX_NEWTON_ITER", max_iter)
        opt = am.rate_directed_opt((0.1, 0.9), 3, 2)
        assert not opt.converged
        assert opt.value == -math.inf


def reference_rate_directed_opt(frak_n, d, p):
    """The Newton loop `rate_directed_opt` replaced, which evaluates
    the scores and their log-sum-exp again at each accepted point."""
    nu = am._check_simplex(frak_n, (p,))
    support = walkdist.build_support(d, p)
    atoms = np.array([u for u, _ in support.atoms], dtype=float)
    log_w = np.array([math.log(m) for _, m in support.atoms]) - (d - 1) * math.log(p)
    boundary = bool((nu == 0.0).any())
    explicit = am._explicit_bound(nu, support)

    def objective(z):
        t = np.concatenate(([0.0], z))
        return float(am._logsumexp(atoms @ t + log_w) - d * t @ nu)

    z = np.zeros(p - 1)
    f = objective(z)
    jensen_floor = float(log_w.min()) - 1.0
    eps = np.finfo(float).eps
    converged = False
    for _ in range(am.MAX_NEWTON_ITER):
        t = np.concatenate(([0.0], z))
        scores = atoms @ t + log_w
        q = np.exp(scores - am._logsumexp(scores))
        mean = q @ atoms
        grad = (mean - d * nu)[1:]
        if np.linalg.norm(grad) <= am.GRAD_TOL:
            converged = True
            break
        centered = atoms - mean
        cov = centered.T @ (q[:, None] * centered)
        hess = cov[1:, 1:] + 1e-12 * np.eye(p - 1)
        step = -np.linalg.solve(hess, grad)
        decrement = -float(grad @ step)
        if decrement <= 4 * eps * max(1.0, abs(f)):
            z = z + step
            f = objective(z)
        else:
            scale = 1.0
            while scale > 1e-12:
                cand = z + scale * step
                f_cand = objective(cand)
                if f_cand <= f - 1e-4 * scale * decrement:
                    z, f = cand, f_cand
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
    return am.RateEvaluation(value, explicit, minimizer, converged, boundary)


def test_rate_opt_matches_the_reference_newton_loop():
    rng = np.random.default_rng(23)
    inputs = [
        (tuple(rng.dirichlet(np.ones(p))), d, p)
        for p in (2, 3, 5) for d in (3, 4, 5) for _ in range(8)
    ]
    inputs += [
        ((0.1, 0.9), 3, 2),
        ((0.5, 0.5, 0.0), 3, 3),
        ((0.7, 0.1, 0.1, 0.1, 0.0), 3, 5),
        ((0.5, 0.5), 1, 2),  # the -inf exit
    ]
    for frak_n, d, p in inputs:
        got = am.rate_directed_opt(frak_n, d, p)
        want = reference_rate_directed_opt(frak_n, d, p)
        assert repr(got) == repr(want), (frak_n, d, p)
    assert am.rate_directed_opt((0.5, 0.5), 1, 2).value == -math.inf


def outside_hull(frak_n, d, p):
    """LP oracle: d * frak_n is no convex combination of the step atoms."""
    atoms = np.array([u for u, _ in walkdist.build_support(d, p).atoms], dtype=float).T
    k = atoms.shape[1]
    res = linprog(
        np.zeros(k),
        A_eq=np.vstack([atoms, np.ones(k)]),
        b_eq=np.append(d * np.asarray(frak_n, dtype=float), 1.0),
        bounds=(0, None),
        method="highs",
    )
    assert res.status in (0, 2)
    return res.status == 2


def test_rate_opt_minus_inf_exactly_outside_hull():
    # -inf is a proof that d*frak_n leaves the hull, and every class
    # that stays outside after a 20% pull toward the centre gets it;
    # every other class converges
    rng = np.random.default_rng(17)
    n_inf = n_deep = 0
    for p, d in [(2, 3), (3, 3), (3, 4), (5, 3), (3, 5), (5, 5)]:
        centre = np.full(p, 1.0 / p)
        for i in range(40):
            x = rng.dirichlet(np.ones(p))
            if i % 4 == 0:
                x[rng.integers(p)] = 0.0
                x /= x.sum()
            opt = am.rate_directed_opt(x, d, p)
            if opt.value == -math.inf:
                assert not opt.converged
                assert outside_hull(x, d, p)
                n_inf += 1
            else:
                assert opt.converged
            if outside_hull(0.8 * x + 0.2 * centre, d, p):
                assert opt.value == -math.inf
                n_deep += 1
    assert n_inf > n_deep > 0


def mp_rate_directed(frak_n, d, p, dps=40):
    """Legendre value by damped Newton in mpmath at dps digits, over step
    atoms tallied from every d-tuple of residues with sum 0 mod p."""
    with mpmath.workdps(dps):
        tally = Counter(
            tuple(v.count(k) for k in range(p))
            for v in itertools.product(range(p), repeat=d)
            if sum(v) % p == 0
        )
        atoms = [(u, mpmath.log(mpmath.mpf(c) / p ** (d - 1))) for u, c in tally.items()]
        nu = [mpmath.mpf(float(x)) for x in frak_n]

        def evaluate(z):
            t = [mpmath.mpf(0)] + list(z)
            scores = [lw + mpmath.fsum(uk * tk for uk, tk in zip(u, t)) for u, lw in atoms]
            top = max(scores)
            e = [mpmath.exp(sc - top) for sc in scores]
            total = mpmath.fsum(e)
            f = top + mpmath.log(total) - d * mpmath.fsum(tk * nk for tk, nk in zip(t, nu))
            q = [ei / total for ei in e]
            mean = [mpmath.fsum(qa * u[k] for qa, (u, _) in zip(q, atoms)) for k in range(p)]
            grad = mpmath.matrix([mean[k] - d * nu[k] for k in range(1, p)])
            hess = mpmath.matrix(p - 1, p - 1)
            for j in range(1, p):
                for k in range(1, p):
                    hess[j - 1, k - 1] = mpmath.fsum(
                        qa * (u[j] - mean[j]) * (u[k] - mean[k]) for qa, (u, _) in zip(q, atoms)
                    )
            return f, grad, hess

        z = mpmath.matrix(p - 1, 1)
        f, grad, hess = evaluate(z)
        for _ in range(200):
            if mpmath.norm(grad) < mpmath.mpf(10) ** (5 - dps):
                break
            step = mpmath.lu_solve(hess, -grad)
            slope = mpmath.fsum(g * s for g, s in zip(grad, step))
            scale = mpmath.mpf(1)
            while True:
                cand = z + scale * step
                f_cand, g_cand, h_cand = evaluate(cand)
                if f_cand <= f + scale * slope / 10**4:
                    break
                scale /= 2
            z, f, grad, hess = cand, f_cand, g_cand, h_cand
        else:
            raise AssertionError("mpmath Newton did not converge")
        entropy = mpmath.fsum(x * mpmath.log(x) for x in nu if x > 0)
        return float((d - 1) * mpmath.log(p) + (d - 1) * entropy + f)


@pytest.mark.parametrize(
    "frak_n, d, p",
    [
        ((0.5454952131240033, 0.4545047868759967), 5, 2),
        ((0.34751409778716846, 0.3852932112587641, 0.26719269095406745), 4, 3),
        (
            (
                0.10064794590725265,
                0.3749561507119538,
                0.06023603695934891,
                0.3277629125871151,
                0.13639695383432934,
            ),
            3,
            5,
        ),
    ],
)
def test_rate_opt_converges_where_armijo_stalled(frak_n, d, p):
    # at these classes the gradient stalls just above grad_tol while the
    # Newton decrement sits below the rounding of the objective, so no
    # backtracked step can show a decrease; the full step must finish
    opt = am.rate_directed_opt(frak_n, d, p)
    assert opt.converged
    assert opt.value == pytest.approx(mp_rate_directed(frak_n, d, p), abs=1e-12)


def test_tilt_objective_gauge_invariance():
    # shifting the tilt along the all-ones direction leaves the
    # objective unchanged because steps have constant coordinate sum d
    d, p = 3, 3
    s = walkdist.build_support(d, p)
    atoms = np.array([u for u, _ in s.atoms], dtype=float)
    logw = np.log(np.array([m for _, m in s.atoms], dtype=float) / s.total)
    rng = np.random.default_rng(3)
    frak_n = rng.dirichlet(np.ones(p))

    def objective(t):
        vals = logw + atoms @ t
        m = vals.max()
        return m + math.log(np.exp(vals - m).sum()) - d * float(t @ frak_n)

    for _ in range(10):
        t = rng.normal(size=p)
        c = rng.normal()
        assert objective(t + c * np.ones(p)) == pytest.approx(objective(t), abs=1e-12)


def grid_search_rate(frak_n, d, p, span=5.0, step=0.01):
    """Dense slice search over tilts with t_0 = 0, vectorized."""
    s = walkdist.build_support(d, p)
    atoms = np.array([u for u, _ in s.atoms], dtype=float)
    w = np.array([m for _, m in s.atoms], dtype=float) / s.total
    axis = np.arange(-span, span + step / 2, step)
    grids = np.meshgrid(*([axis] * (p - 1)), indexing="ij")
    t = np.stack([np.zeros_like(grids[0])] + list(grids), axis=-1)
    vals = np.log(np.tensordot(np.exp(t @ atoms.T), w, axes=1)) - d * (t @ frak_n)
    f = vals.min()
    ent = float(sum(x * math.log(x) for x in frak_n if x > 0))
    return (d - 1) * math.log(p) + (d - 1) * ent + float(f)


def test_rate_opt_matches_grid_search():
    rng = np.random.default_rng(42)
    for _ in range(3):
        frak_n = rng.dirichlet(np.ones(3))
        opt = am.rate_directed_opt(frak_n, 3, 3)
        grid = grid_search_rate(frak_n, 3, 3)
        assert opt.value == pytest.approx(grid, abs=1e-4)


def test_rate_explicit_second_order():
    rng = np.random.default_rng(5)
    for d, p in [(3, 2), (3, 3), (4, 3), (3, 5)]:
        v = rng.normal(size=p)
        v -= v.mean()
        v /= np.linalg.norm(v)
        eps = 1e-3
        got = am.rate_directed_explicit(np.full(p, 1.0 / p) + eps * v, d, p)
        predicted = -(p * (d - 1) / (2 * d)) * eps**2
        assert got == pytest.approx(predicted, rel=0.1)


def test_rate_undirected_zeros_and_validation():
    for p, d in [(2, 3), (3, 3), (3, 4)]:
        uni = np.full((p, p), 1.0 / (p * p))
        assert abs(am.rate_undirected_explicit(uni, d, p)) <= 1e-9
        corner = np.zeros((p, p))
        corner[0, 0] = 1.0
        assert abs(am.rate_undirected_explicit(corner, d, p)) <= 1e-9
    with pytest.raises(ShapeError):
        am.rate_undirected_explicit(np.full((2, 3), 1 / 6), 3, 2)
    asym = np.array([[0.5, 0.3], [0.1, 0.1]])
    with pytest.raises(DomainError):
        am.rate_undirected_explicit(asym, 3, 2)
    with pytest.raises(DomainError):
        am.rate_undirected_explicit(np.full((2, 2), 0.3), 3, 2)


def test_rate_undirected_negative_at_generic_point():
    m = np.array([[0.10, 0.15, 0.05], [0.15, 0.20, 0.10], [0.05, 0.10, 0.10]])
    assert abs(m.sum() - 1.0) < 1e-12
    assert am.rate_undirected_explicit(m, 3, 3) < -1e-6


def test_require_sym_zero():
    good = np.array([[1.0, -0.5], [-0.5, 0.0]])
    am.require_sym_zero(good)
    with pytest.raises(DomainError):
        am.require_sym_zero(np.array([[1.0, 0.2], [-0.2, -1.0]]))
    with pytest.raises(DomainError):
        am.require_sym_zero(np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_operator_eigenvector_and_linearity():
    n, d, p = 10, 3, 3
    e = np.zeros(p)
    e[0], e[1] = 1.0, -1.0
    lap = np.outer(e, e)
    got = am.apply_quadratic_operator(lap, n, d, p)
    lam = -d * n * p**2 / 4
    assert np.allclose(got, lam * lap, atol=1e-10)
    rng = np.random.default_rng(2)
    a = rng.normal(size=(p, p))
    a = a + a.T
    a -= a.sum() / p**2
    b = rng.normal(size=(p, p))
    b = b + b.T
    b -= b.sum() / p**2
    left = am.apply_quadratic_operator(a + 2 * b, n, d, p)
    right = am.apply_quadratic_operator(a, n, d, p) + 2 * am.apply_quadratic_operator(b, n, d, p)
    assert np.allclose(left, right, atol=1e-10)


def test_operator_check_reports():
    for p in (2, 3, 5):
        rep = am.operator_L_check(p, 10, 3)
        assert rep.laplacian_dim == p * (p - 1) // 2
        assert rep.bordered_dim == p - 1
        assert rep.dims_consistent
        assert rep.families_orthogonal
        assert rep.laplacian_eigenvalue == pytest.approx(-3 * 10 * p**2 / 4)
        assert rep.bordered_eigenvalue == pytest.approx(-10 * p**2 / 4)
        assert max(rep.laplacian_max_residual, rep.bordered_max_residual) < 1e-10
        if p == 2:
            assert rep.quadrature_gap < 1e-8
        else:
            assert rep.quadrature_integral is None


def test_operator_closed_integral_anchor():
    rep = am.operator_L_check(2, 4, 3)
    want = math.sqrt(math.pi / 12) * math.sqrt(math.pi / 4)
    assert rep.closed_integral == pytest.approx(want, rel=1e-12)
    assert rep.quadrature_integral == pytest.approx(want, abs=1e-8)
    # at p = 2 the eigenvalues are -d n and -n, so the integral is
    # pi / (n sqrt(d))
    for n, d in [(1, 1), (4, 3), (10, 3), (3, 50), (100, 7), (1000, 3)]:
        rep = am.operator_L_check(2, n, d)
        want = math.pi / (n * math.sqrt(d))
        assert rep.closed_integral == pytest.approx(want, rel=1e-12)
        assert rep.quadrature_integral == pytest.approx(want, rel=1e-12)


def test_logsumexp_matches_scipy_bit_for_bit():
    # seeded inputs: lengths 1 to 400, scales 1e-3 to 300, ties with the
    # maximum and integer-valued (heavily tied) arrays
    rng = np.random.default_rng(8)
    for k in range(3000):
        n = int(rng.integers(1, 401))
        a = rng.normal(size=n) * 10 ** rng.uniform(-3, math.log10(300))
        if k % 3 == 1:
            a[rng.integers(0, n, size=max(1, n // 4))] = a.max()
        elif k % 3 == 2:
            a = np.round(a)
        assert am._logsumexp(a) == logsumexp(a)
    for a in ([0.0], [-700.0], [5.0, 5.0], [1e-300, -1e-300, 0.0]):
        assert am._logsumexp(np.array(a)) == logsumexp(a)
