"""Exact linear algebra: ranks over F_p, integer ranks and determinants."""

import ctypes
import glob
import heapq
import os
import tracemalloc
import types
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsing import confmodel, experiments, gfcore
from regsing.errors import DomainError, InvalidModulusError, InvalidParamsError, ShapeError

SMALL_PRIMES = (2, 3, 5, 7, 31, 97)

# Mersenne prime above the int64 cutoff; forces the object-dtype core.
M61 = (1 << 61) - 1
# A 31-bit prime, the size integer-mode Monte Carlo draws.
P31 = (1 << 31) - 1


def rank_oracle_mod_p(rows, p):
    """Textbook row reduction over F_p, independent of the module under test."""
    a = [[x % p for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return r


def gauss_oracle_rational(rows):
    """Fraction-based Gaussian elimination; returns (rank, det or None)."""
    a = [[Fraction(x) for x in row] for row in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    det = Fraction(1) if nr == nc else None
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if a[i][c]), None)
        if pivot is None:
            if det is not None:
                det = Fraction(0)
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            if det is not None:
                det = -det
        if det is not None:
            det *= a[r][c]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(r + 1, nr):
            if a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    if det is not None and r < nr:
        det = Fraction(0)
    return r, det


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=nc, max_size=nc),
        min_size=1,
        max_size=5,
    )
)

square_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def test_is_prime_known_values():
    assert gfcore.is_prime(2)
    assert gfcore.is_prime(3)
    assert gfcore.is_prime(31)
    assert gfcore.is_prime(M61)
    assert not gfcore.is_prime(1)
    assert not gfcore.is_prime(0)
    assert not gfcore.is_prime(-7)
    assert not gfcore.is_prime(4)
    # 341 = 11 * 31 is a base-2 Fermat pseudoprime.
    assert not gfcore.is_prime(341)
    # 3215031751 = 151 * 751 * 28351 fools the first four witnesses.
    assert not gfcore.is_prime(3215031751)


def test_require_prime_accepts_and_rejects():
    assert gfcore.require_prime(5) == 5
    assert gfcore.require_prime(M61) == M61
    with pytest.raises(InvalidModulusError):
        gfcore.require_prime(4)
    with pytest.raises(InvalidModulusError):
        gfcore.require_prime(1)
    with pytest.raises(InvalidModulusError):
        gfcore.require_prime(1 << 63)
    with pytest.raises(InvalidModulusError):
        gfcore.require_prime("3")
    with pytest.raises(InvalidModulusError):
        gfcore.require_prime(3.0)


def test_require_int_accepts_integers_and_refuses_the_rest():
    assert gfcore.require_int("n", 3, 1) == 3
    assert type(gfcore.require_int("seed", np.int64(0), 0)) is int
    for bad in (0, -1, True, np.bool_(True), 3.0, "3", None):
        with pytest.raises(InvalidParamsError, match="n must be an integer >= 1"):
            gfcore.require_int("n", bad, 1)


def test_rank_mod_p_hand_cases():
    assert gfcore.rank_mod_p([[1, 0], [0, 1]], 2) == 2
    assert gfcore.rank_mod_p([[1, 1], [1, 1]], 2) == 1
    # 2 * row0 = row1 only after reduction mod 3
    assert gfcore.rank_mod_p([[1, 2], [2, 4]], 3) == 1
    assert gfcore.rank_mod_p([[1, 2], [2, 4]], 5) == 1
    assert gfcore.rank_mod_p([[1, 2], [2, 5]], 5) == 2
    assert gfcore.rank_mod_p([], 5) == 0
    assert gfcore.rank_mod_p([[0, 0], [0, 0]], 7) == 0


def test_rank_mod_p_rejects_ragged():
    with pytest.raises(ShapeError):
        gfcore.rank_mod_p([[1, 2], [3]], 5)


def kernel_count(matrix, p):
    """Number of nonzero null vectors of a square matrix over F_p:
    p**(n - rank) - 1, zero exactly when it is nonsingular mod p."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise ShapeError(f"kernel counting needs a square matrix, got {n} rows")
    return p ** (n - gfcore.rank_mod_p(matrix, p)) - 1


def test_kernel_count_square_only():
    assert kernel_count([[1, 0], [0, 1]], 3) == 0
    assert kernel_count([[1, 2], [2, 4]], 3) == 2
    assert kernel_count([[0]], 5) == 4
    with pytest.raises(ShapeError):
        kernel_count([[1, 2, 3], [4, 5, 6]], 5)


@settings(max_examples=120, deadline=None)
@given(matrices, st.sampled_from(SMALL_PRIMES))
def test_rank_mod_p_matches_oracle(rows, p):
    want = rank_oracle_mod_p(rows, p)
    assert gfcore.rank_mod_p(rows, p) == want
    # the ndarray path skips the row-list conversion, with the same pivots
    arr = np.array(rows, dtype=np.int64)
    assert gfcore.rank_mod_p(arr, p) == want
    assert gfcore.rank_mod_p(arr.astype(np.int8), p) == want
    assert gfcore.rank_mod_p(arr, M61) == gfcore.rank_mod_p(rows, M61)
    assert arr.tolist() == rows


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_large_prime_path_matches_rational_rank(rows):
    # With entries in [-9, 9] and size <= 5 every minor is far below M61,
    # so rank over F_M61 equals the rational rank.
    want = gauss_oracle_rational(rows)[0]
    assert gfcore.rank_mod_p(rows, M61) == want
    assert gfcore.rank_mod_p(np.array(rows, dtype=np.int64), M61) == want


def test_rank_mod_p_entries_beyond_int64():
    # rows 0 and 2 agree mod 2, so the rank drops there; the determinant,
    # -(5 * 10**30 - 6), is divisible by neither 3 nor M61
    rows = [[10**30, 1, 2], [3, 10**30 + 7, 5], [2 * 10**30, 3, 4]]
    rank, det = gauss_oracle_rational(rows)
    assert rank == 3 and det == -(5 * 10**30 - 6)
    assert gfcore.rank_mod_p(rows, 2) == rank_oracle_mod_p(rows, 2) == 2
    assert gfcore.rank_mod_p(rows, 3) == rank_oracle_mod_p(rows, 3) == rank
    assert gfcore.rank_mod_p(rows, M61) == rank
    # row 2 = row 0 + row 1: singular over the rationals, so at every p;
    # residue products near M61**2 would overflow int64 here
    rows = [rows[0], rows[1], [a + b for a, b in zip(rows[0], rows[1])]]
    rank = gauss_oracle_rational(rows)[0]
    assert rank == 2
    for p in (2, 3, M61):
        assert gfcore.rank_mod_p(rows, p) == rank_oracle_mod_p(rows, p) == rank


@settings(max_examples=100, deadline=None)
@given(matrices, st.sampled_from(SMALL_PRIMES))
def test_rank_invariance_under_row_operations(rows, p):
    base = gfcore.rank_mod_p(rows, p)
    assert base <= min(len(rows), len(rows[0]))
    swapped = list(reversed(rows))
    assert gfcore.rank_mod_p(swapped, p) == base
    # appending a mod-p linear combination of existing rows adds nothing
    combo = [sum(r[j] for r in rows) % p for j in range(len(rows[0]))]
    assert gfcore.rank_mod_p(rows + [combo], p) == base


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_rank_integer_matches_fraction_gauss(rows):
    assert gfcore.rank_integer(rows) == gauss_oracle_rational(rows)[0]


@settings(max_examples=100, deadline=None)
@given(square_matrices)
def test_det_integer_matches_fraction_gauss(rows):
    det = gauss_oracle_rational(rows)[1]
    assert det.denominator == 1
    assert gfcore.det_integer(rows) == det.numerator


def test_det_integer_hand_cases():
    assert gfcore.det_integer([[1, 2], [3, 4]]) == -2
    assert gfcore.det_integer([[1, 2], [2, 4]]) == 0
    assert gfcore.det_integer([[2]]) == 2
    assert gfcore.det_integer([[0, 1], [1, 0]]) == -1
    with pytest.raises(ShapeError):
        gfcore.det_integer([[1, 2, 3], [4, 5, 6]])


def test_rank_mod_p_drops_rank_versus_integers():
    # det = 10, so the matrix is singular exactly mod 2 and mod 5
    m = [[3, 1], [2, 4]]
    assert gfcore.rank_integer(m) == 2
    assert gfcore.rank_mod_p(m, 2) == 1
    assert gfcore.rank_mod_p(m, 5) == 1
    assert gfcore.rank_mod_p(m, 3) == 2


def test_matrix_json_round_trip_big_entries():
    m = [[10**30, -2], [0, 7]]
    parsed = gfcore.matrix_from_json([["1000000000000000000000000000000", "-2"], ["0", "7"]])
    assert parsed.tolist() == m
    assert gfcore.matrix_from_json([["3", 4.0]]).tolist() == [[3, 4]]


def test_matrix_from_json_rejects_non_integers():
    for data in (
        [[1.5]], [["x"]], [[None]], [["1.0"]], [[float("inf")]], None, [3],
        "1234", ["12", "34"], [[True]], [[1, False]], ((1, 2), (3, 4)),
    ):
        with pytest.raises(DomainError):
            gfcore.matrix_from_json(data)
    with pytest.raises(ShapeError):
        gfcore.matrix_from_json([[1, 2], [3]])


def test_rank_mod_p_ndarray_shapes():
    assert gfcore.rank_mod_p(np.zeros((0, 3), dtype=np.int64), 5) == 0
    assert gfcore.rank_mod_p(np.zeros((2, 0), dtype=np.int64), 5) == 0
    with pytest.raises(ShapeError):
        gfcore.rank_mod_p(np.arange(3), 5)


def reference_certify_inverse(matrix):
    """Reference kernel: the inverse-based certificate the Gram test
    replaced.  With R = inv(A) in float64 and C = fl(RA), every BLAS
    summation order satisfies |C - RA| <= g|R||A| entrywise,
    g = nu/(1 - nu), u = 2**-53, so ||I - RA||_inf below 1/2 proves A
    invertible (Rump, "Verification methods", Acta Numerica 2010)."""
    a = np.asarray(matrix)
    n = a.shape[0]
    if n == 0:
        return True
    if a.min() < -(1 << 53) or a.max() > 1 << 53:
        return False
    af = a.astype(np.float64)
    with np.errstate(all="ignore"):
        try:
            r = np.linalg.inv(af)
        except np.linalg.LinAlgError:
            return False
        c = r @ af
        c.flat[:: n + 1] -= 1.0
        nu = n * 2.0**-53
        gamma = nu / (1.0 - nu)
        bound = np.abs(c).sum(axis=1) + gamma * (np.abs(r) @ np.abs(af).sum(axis=1))
        return bool(bound.max() < 0.5)


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_certify_nonsingular_never_certifies_a_zero_determinant(rows):
    if gfcore.certify_nonsingular(rows):
        assert gfcore.det_integer(rows) != 0
    assert gfcore.certify_nonsingular(np.array(rows)) == gfcore.certify_nonsingular(rows)
    if reference_certify_inverse(rows):
        assert gfcore.det_integer(rows) != 0


@pytest.mark.parametrize("n", [12, 50, 200])
@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_certify_nonsingular_on_trial_matrices(n, mode):
    # the Gram test never certifies a zero determinant, gives the same
    # verdict from the Gram matrix the trials count, and settles nearly
    # all that the inverse test settles
    certified = nonsingular = reference = both = 0
    for seed in range(150 if n < 200 else 100):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0, n)))
        targets = confmodel.fibre_targets(n, 3, mode, rng.permutation(n * 3))
        a = confmodel.dense_adjacency(targets)
        pivots, core = gfcore._eliminate(confmodel.sparse_rows(targets), None)
        nonzero = pivots + gfcore.rank_mod_p(core, P31) == n or gfcore.det_integer(core) != 0
        nonsingular += nonzero
        ok = gfcore.certify_nonsingular(a)
        gram = confmodel.dense_gram(targets, np.empty((1, n, n))[0])
        assert gfcore._certify_gram(gram[None]) == [ok]
        if ok:
            certified += 1
            assert nonzero, seed
        by_reference = reference_certify_inverse(a)
        reference += by_reference
        both += by_reference and ok
    assert nonsingular >= 60
    assert certified >= 0.9 * nonsingular
    assert both >= 0.99 * reference


def test_gram_certificate_takes_the_gram_matrix_in_place():
    # dense_gram counts in float64 into a buffer the caller keeps and the
    # certificate factors it there with LAPACK dpotrf, so neither makes an
    # n x n numpy array (8n^2 bytes); nor does a block of trials, once its
    # thread's buffer exists, with two uncertified trials among its 16
    # here, in four stacks of 4
    n = 200
    order = np.random.default_rng(1).permutation(n * 3)
    targets = confmodel.fibre_targets(n, 3, "directed", order)
    buffer = np.empty((1, n, n))
    cfg = experiments.McConfig(n=n, d=3, trials=16, seed=26)
    experiments._run_block(cfg, 0, cfg.trials)
    tracemalloc.start()
    try:
        assert gfcore._certify_gram(confmodel.dense_gram(targets, out=buffer)) == [True]
        certify_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        tally = experiments._run_block(cfg, 0, cfg.trials)
        block_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tally["singular"] == 2
    assert certify_peak < 0.5 * 8 * n * n
    assert block_peak < 0.5 * 8 * n * n


def potrf_recorder(factored):
    """A stand-in for the LAPACK dpotrf that records a copy of each
    matrix it is handed, then factors it."""
    kernel = gfcore._lapack_potrf()

    def record(uplo, dim, address, lda, info, length):
        k = dim._obj.value
        cells = (ctypes.c_double * (k * k)).from_address(address)
        factored.append(np.frombuffer(cells).reshape(k, k).copy())
        return kernel(uplo, dim, address, lda, info, length)

    return record


def cholesky_recorder(factored):
    """A stand-in for numpy's cholesky_lo gufunc that records a copy of
    each stack it is handed, then factors it."""
    kernel = gfcore._umath_linalg.cholesky_lo

    def record(b, **kwargs):
        factored.extend(b.copy())
        return kernel(b, **kwargs)

    return types.SimpleNamespace(cholesky_lo=record)


needs_lapack = pytest.mark.skipif(
    gfcore._lapack_potrf() is None, reason="numpy bundles no 64-bit OpenBLAS here"
)


def test_gram_certificate_shift_covers_the_rounding_bound(monkeypatch):
    # eigenvalues 1 and 2t - 1: the shift s, a power of two in
    # (2 bound, 4 bound] with bound ~ gamma_{k+2} tr(B) = 4u * 2t, stays
    # below 1 at t = 2**44 (s = 2**-4) but reaches 2 at t = 2**49; both
    # kernels are handed B - sI, one stack of two slices
    factored = []
    paths = ["fallback"]
    if gfcore._lapack_potrf() is not None:
        paths.append("lapack")
        record = potrf_recorder(factored)
    cases = ((2**44, 2**-4, True), (2**49, 2, False))
    for path in paths:
        monkeypatch.undo()
        if path == "lapack":
            monkeypatch.setattr(gfcore, "_lapack_potrf", lambda: record)
        else:
            monkeypatch.setattr(gfcore, "_lapack_potrf", lambda: None)
            monkeypatch.setattr(gfcore, "_umath_linalg", cholesky_recorder(factored))
        stack = np.array([[[t, t - 1], [t - 1, t]] for t, _, _ in cases], dtype=np.float64)
        factored.clear()
        assert gfcore._certify_gram(stack) == [ok for _, _, ok in cases], path
        # the kernel factored B - sI for exactly this s, once per slice
        assert len(factored) == 2, path
        for (t, shift, certified), seen, slice_ in zip(cases, factored, stack):
            # B - sI is exact in float64, and the factor of B - s'I for the
            # next power of two 2s differs from it in L_00's last bits
            shifted = np.array([[t - shift, t - 1], [t - 1, t - shift]], dtype=np.float64)
            assert (seen == shifted).all(), path
            if certified:
                # the witness is the slice itself: R in the upper triangle
                # (LAPACK), or R^T in the lower one with zeros above (numpy)
                want = np.linalg.cholesky(shifted)
                other = np.linalg.cholesky(shifted - shift * np.eye(2))
                factor = np.triu(slice_).T if path == "lapack" else slice_
                assert (factor == want).all() and (factor != other).any(), path
                np.testing.assert_allclose(factor @ factor.T, shifted, rtol=1e-12)
            else:
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.cholesky(shifted)


@pytest.mark.parametrize("n", [1, 3, 50, 200, 449])
@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_private_cholesky_kernel_matches_numpy_cholesky(n, mode):
    # where no LAPACK library is found the certificate factors in place
    # with the gufunc np.linalg.cholesky calls; a numpy upgrade that
    # changed it would fail here.  B + I is positive definite, so numpy's
    # own Cholesky always returns
    order = np.random.default_rng((n, len(mode))).permutation(4 * n)
    b = confmodel.dense_gram(confmodel.fibre_targets(n, 4, mode, order), np.empty((n, n)))
    b += np.eye(n)
    want = np.linalg.cholesky(b)
    out = gfcore._umath_linalg.cholesky_lo(b, out=b, signature="d->d")
    assert out is b and (b == want).all()


def lapack_potrf(b):
    """dpotrf with uplo "L" on the C-contiguous square b, in place; its info."""
    dim, info = ctypes.c_int64(len(b)), ctypes.c_int64()
    gfcore._lapack_potrf()(b"L", ctypes.byref(dim), b.ctypes.data, ctypes.byref(dim),
                           ctypes.byref(info), 1)
    return info.value


@needs_lapack
@pytest.mark.parametrize("n", [1, 4, 50, 200, 569])
@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_lapack_cholesky_is_numpy_cholesky_transposed(n, mode):
    # dpotrf("L") on the C-order B is dpotrf on B's Fortran-order copy, as
    # B is symmetric: its upper triangle is the transpose of
    # np.linalg.cholesky's factor, bit for bit, and the entries below the
    # diagonal stay B's.  B + I is positive definite
    order = np.random.default_rng((n, len(mode), 1)).permutation(4 * n)
    b = confmodel.dense_gram(confmodel.fibre_targets(n, 4, mode, order), np.empty((n, n)))
    b += np.eye(n)
    want = np.linalg.cholesky(b)
    below = np.tril(b, -1)
    assert lapack_potrf(b) == 0
    assert (np.triu(b) == want.T).all()
    assert (np.tril(b, -1) == below).all()


def test_lapack_path_is_taken_where_numpy_ships_openblas64(monkeypatch):
    # a numpy whose wheel bundles the 64-bit OpenBLAS must give the
    # certificate its dpotrf, so a renamed library or symbol fails here
    # instead of falling back to the slower gufunc unseen
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    if not glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        pytest.skip("numpy bundles no 64-bit OpenBLAS here")
    assert gfcore._lapack_potrf() is not None

    def no_gufunc(*args, **kwargs):
        raise AssertionError("fell back to numpy's cholesky_lo")

    monkeypatch.setattr(gfcore, "_umath_linalg", types.SimpleNamespace(cholesky_lo=no_gufunc))
    assert gfcore._certify_gram(np.array([[[4.0, 2.0], [2.0, 3.0]]])) == [True]
    assert gfcore.certify_nonsingular([[2, 1], [1, 1]])


# A with a zero column: B = [[0, 0], [0, 5]] fails at the first pivot;
# A with equal columns: B = [[2, 2], [2, 2]] passes the first pivot,
# 2 - s, and fails at the second; A = I is certified
PIVOT_FAILURES = ([[0, 1], [0, 2]], [[1, 0], [0, 1]], [[1, 1], [1, 1]])


def gram_stack(matrices):
    return np.array([np.array(a, dtype=np.float64).T @ np.array(a, dtype=np.float64)
                     for a in matrices])


def certify_quietly(stack):
    """`_certify_gram` of the stack, asserting that no warning or
    floating-point error escapes, even where one would be an error, and
    that the caller's error state is kept."""
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            verdicts = gfcore._certify_gram(stack)
    assert np.geterr() == state
    return verdicts


def test_gram_certificate_leaves_nan_when_a_pivot_fails(monkeypatch):
    # where no LAPACK library is found, numpy's gufunc fills a failed
    # slice with NaN and factors the others
    monkeypatch.setattr(gfcore, "_lapack_potrf", lambda: None)
    stack = gram_stack(PIVOT_FAILURES)
    assert certify_quietly(stack) == [False, True, False]
    assert np.isnan(stack[0]).all() and np.isnan(stack[2]).all()
    assert (stack[1] == np.linalg.cholesky(np.eye(2) - 2**-48 * np.eye(2))).all()


@needs_lapack
def test_gram_certificate_fails_by_info_at_any_pivot():
    # dpotrf reports a failure at the first pivot and at a later one in
    # info, which leaves that slice uncertified and its neighbours alone
    stack = gram_stack(PIVOT_FAILURES)
    assert certify_quietly(stack) == [False, True, False]
    assert not np.isnan(stack).any()
    alone = gram_stack(PIVOT_FAILURES[1:2])
    assert certify_quietly(alone) == [True]
    assert (stack[1] == alone[0]).all()
    # the one-slice stack of certify_nonsingular fails alike
    for a, ok in zip(PIVOT_FAILURES, (False, True, False)):
        assert gfcore.certify_nonsingular(a) is ok


def test_certify_nonsingular_rejects_singular_matrix_without_repeated_rows():
    # r0 + r1 = r2 + r3, and all rows distinct
    a = [
        [1, 1, 0, 0, 1],
        [0, 0, 1, 1, 0],
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 1],
        [1, 0, 0, 0, 1],
    ]
    assert len({tuple(r) for r in a}) == 5
    assert gfcore.det_integer(a) == 0
    assert not gfcore.certify_nonsingular(a)
    assert not gfcore.certify_nonsingular(np.array(a))


def test_certify_nonsingular_falls_through_when_ill_conditioned():
    # det = 1, but A^T A has entries near 2 * 10**16 > 2**53, which
    # float64 would round
    m = 10**8
    a = [[m, m + 1], [m - 1, m]]
    assert gfcore.det_integer(a) == 1
    assert not gfcore.certify_nonsingular(a)
    # det = 1 and A^T A is exact in float64, but its smallest eigenvalue,
    # about 2**-42, is below the shift the rounding bound asks for
    m = 2**20
    a = [[m, m + 1], [m - 1, m]]
    gram = np.array(a, dtype=np.float64).T @ np.array(a, dtype=np.float64)
    assert gram.max() < 2**53
    exact = np.array(a, dtype=object).T @ np.array(a, dtype=object)
    assert gram.astype(np.int64).tolist() == exact.tolist()
    assert gfcore.det_integer(a) == 1
    assert not gfcore.certify_nonsingular(a)
    assert reference_certify_inverse(a)
    # entries float64 cannot hold exactly are never certified, nor is a
    # matrix whose Gram entries pass 2**53, nonsingular as it may be
    assert not gfcore.certify_nonsingular([[2**60 + 1, 0], [0, 1]])
    assert not gfcore.certify_nonsingular([[2**27, 0], [0, 2**27]])
    assert gfcore.certify_nonsingular([[2**26, 0], [0, 2**26]])
    assert gfcore.certify_nonsingular([[2, 1], [1, 1]])
    assert gfcore.certify_nonsingular(np.zeros((0, 0), dtype=np.int64))
    with pytest.raises(ShapeError):
        gfcore.certify_nonsingular([[1, 2, 3], [4, 5, 6]])


def test_certify_nonsingular_takes_the_empty_core_as_0x0():
    # a full unit-pivot reduction leaves no rows; like det_integer and
    # rank_mod_p, the certificate reads them as the 0x0 matrix
    pivots, core = reduce_sparse([{0: 1}, {1: 1}])
    assert (pivots, core) == (2, [])
    assert gfcore.certify_nonsingular(core)
    assert gfcore.det_integer(core) == 1 and gfcore.rank_mod_p(core, 5) == 0
    with pytest.raises(ShapeError):
        gfcore.certify_nonsingular([[]])


def test_exact_routines_refuse_non_integral_entries():
    with pytest.raises(DomainError):
        gfcore.det_integer([[2.9, 0], [0, 1]])
    with pytest.raises(DomainError):
        gfcore.rank_integer([[0.5]])
    with pytest.raises(DomainError):
        gfcore.rank_mod_p(np.array([[1.5, 0], [0, 2.5]]), 5)
    for bad in (float("nan"), float("inf"), np.float32(0.5), True):
        with pytest.raises(DomainError):
            gfcore.det_integer([[bad]])
    # the Gram test is exact only on integers
    for bad in ([[0.5, 0], [0, 1]], np.array([[1.0, 0.0], [0.0, np.nan]])):
        with pytest.raises(DomainError):
            gfcore.certify_nonsingular(bad)
    # integral floats and numpy integers still parse
    assert gfcore.certify_nonsingular(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert gfcore.det_integer([[np.int64(2), 0], [0, 3.0]]) == 6
    assert gfcore.rank_integer([[np.float32(4.0), np.int8(2)]]) == 1
    assert gfcore.rank_mod_p(np.array([[1.0, 0], [0, 2.0]]), 5) == 2


def test_bool_arrays_are_refused_like_bool_entries():
    eye = np.array([[True, False], [False, True]])
    with pytest.raises(DomainError):
        gfcore.rank_mod_p(eye, 2)
    with pytest.raises(DomainError):
        gfcore.rank_mod_p(eye.tolist(), 2)
    with pytest.raises(DomainError):
        gfcore.certify_nonsingular(eye)
    with pytest.raises(DomainError):
        gfcore.certify_nonsingular(eye.tolist())
    assert gfcore.rank_mod_p(eye.astype(np.int8), 2) == 2
    assert gfcore.certify_nonsingular(eye.astype(np.int64))


MATRIX_ENTRY_POINTS = {
    "rank_mod_p": lambda m: gfcore.rank_mod_p(m, 5),
    "rank_mod_p_large": lambda m: gfcore.rank_mod_p(m, M61),
    "rank_integer": gfcore.rank_integer,
    "rank_det_integer": gfcore.rank_det_integer,
    "det_integer": gfcore.det_integer,
    "certify_nonsingular": gfcore.certify_nonsingular,
}


@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad,error",
    [
        ([1, 2], ShapeError),
        (None, ShapeError),
        ([[1, 2], [3]], ShapeError),
        ([[True, 0], [0, 2]], DomainError),
        (np.eye(2, dtype=bool), DomainError),
        ([[0.5, 0], [0, 1]], DomainError),
        (np.zeros((2, 2, 2), dtype=np.int64), ShapeError),
        (np.arange(3), ShapeError),
        ("1234", ShapeError),
        (["12", "34"], ShapeError),
    ],
    ids=["1d", "none", "ragged", "bool-entry", "bool-array", "fraction", "3d", "1d-array",
         "string", "string-rows"],
)
def test_matrix_entry_points_refuse_bad_input_alike(entry, bad, error):
    # every rank, determinant and certificate call reads its matrix
    # through one parser, so each bad input meets the same refusal
    with pytest.raises(error):
        MATRIX_ENTRY_POINTS[entry](bad)


def test_int_matrix_reads_every_form_to_one_array():
    want = np.array([[2, -1], [0, 3]])
    for form in (want, want.astype(np.int8), want.astype(np.float64), want.tolist(),
                 [[2.0, "-1"], (np.int16(0), 3)], (row for row in want.tolist())):
        a = gfcore._int_matrix(form)
        assert a.dtype == np.int64 and (a == want).all()
    big = gfcore._int_matrix([[2**70, 1], [np.uint64(2**64 - 1), 0]])
    assert big.dtype == object and big.tolist() == [[2**70, 1], [2**64 - 1, 0]]
    assert gfcore._int_matrix(np.array([[2**64 - 1]], dtype=np.uint64)).tolist() == [[2**64 - 1]]
    assert gfcore._int_matrix([]).shape == (0, 0)
    assert gfcore._int_matrix([[]]).shape == (1, 0)


def _sparse(dense):
    return [{j: v for j, v in enumerate(row) if v} for row in dense]


def _assert_square_core(core, size, p=None):
    assert len(core) == size
    assert all(len(row) == size and all(type(x) is int for x in row) for row in core)
    if p is not None:
        assert all(0 <= x < p for row in core for x in row)


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_reduce_sparse_matches_dense_elimination_on_samples(mode):
    seen = {"loop": 0, "multi": 0, "core": 0}
    for n in (3, 4, 12, 30, 100):
        for d in (3, 4):
            if mode == "undirected" and (n * d) % 2:
                continue
            for seed in range(6 if n < 100 else 2):
                rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, n, d)))
                order = rng.permutation(n * d)
                a = confmodel.adjacency(n, d, mode, order)
                rows = confmodel.sparse_rows(confmodel.fibre_targets(n, d, mode, order))
                assert rows == _sparse(a.tolist())
                for p in (2, 3, 5, P31):
                    pivots, core = reduce_sparse(rows, p)
                    _assert_square_core(core, n - pivots, p)
                    assert pivots + gfcore.rank_mod_p(core, p) == gfcore.rank_mod_p(a, p)
                pivots, core = reduce_sparse(rows)
                _assert_square_core(core, n - pivots)
                for q in (2, 3, P31):
                    assert pivots + gfcore.rank_mod_p(core, q) == gfcore.rank_mod_p(a, q)
                assert abs(gfcore.det_integer(core)) == abs(gfcore.det_integer(a.tolist()))
                assert rows == _sparse(a.tolist())  # the input is left as it was
                seen["loop"] += bool(np.trace(a))
                seen["multi"] += bool((a - np.diag(np.diag(a)) > 1).any())
                seen["core"] += pivots < n
    assert all(seen.values()), seen


def reduce_sparse(rows, p=None):
    """`gfcore._eliminate` behind the checks its callers skip: columns in
    range(len(rows)), integer entries, a prime p; entries are reduced mod
    p and zeros dropped, and the caller's rows are left as they were.
    The core comes back as rows of Python ints (`eliminate`)."""
    if p is not None:
        p = gfcore.require_prime(p)
    n = len(rows)
    work = []
    for row in rows:
        entries = {}
        for c, v in row.items():
            if not 0 <= c < n:
                raise ShapeError(f"column {c} outside a {n}x{n} matrix")
            v = v if type(v) is int else gfcore._as_int(v)
            if p is not None:
                v %= p
            if v:
                entries[c] = v
        work.append(entries)
    return eliminate(work, p)


def eliminate(work, p):
    """`gfcore._eliminate`, its core as rows of Python ints after checking
    that it is the square integer array `_int_matrix` makes of them."""
    pivots, core = gfcore._eliminate(work, p)
    assert core.shape == (len(work) - pivots,) * 2
    rows = core.tolist()
    assert core.dtype == gfcore._int_matrix(rows).dtype
    return pivots, rows


def reference_reduce_sparse(rows, p=None):
    """The sparse elimination as it was before the split into a validating
    wrapper (`reduce_sparse`, above) and `gfcore._eliminate`: the
    reference for the pivot order and the core."""
    if p is not None:
        p = gfcore.require_prime(p)
    n = len(rows)
    work: list[dict[int, int] | None] = []
    cols: list = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        entries = {}
        for c, v in row.items():
            if not 0 <= c < n:
                raise ShapeError(f"column {c} outside a {n}x{n} matrix")
            v = v if type(v) is int else gfcore._as_int(v)
            if p is not None:
                v %= p
            if v:
                entries[c] = v
                cols[c].add(i)
        work.append(entries)
    # (nonzero count, column); an entry is stale once the count moved
    heap = [(len(s), c) for c, s in enumerate(cols)]
    heapq.heapify(heap)
    live = [True] * n
    pivots = 0
    while heap:
        count, c = heapq.heappop(heap)
        members = cols[c]
        if not live[c] or count != len(members):
            continue
        if count > gfcore.SPARSE_PIVOT_MAX:
            break
        # a column without a usable pivot stays in the core
        live[c] = False
        if p is None:
            usable = [i for i in members if work[i][c] in (1, -1)]
        else:
            usable = members
        if not usable:
            continue
        r = min(usable, key=lambda i: len(work[i]))
        prow = work[r]
        work[r] = None
        inv = prow.pop(c)
        if p is not None:
            inv = pow(inv, -1, p)
        rest = list(prow.items())
        for j, _ in rest:
            cols[j].discard(r)
        members.discard(r)
        for i in members:
            ri = work[i]
            f = ri.pop(c) * inv
            for j, v in rest:
                if j in ri:
                    x = ri[j] - f * v
                    if p is not None:
                        x %= p
                    if x:
                        ri[j] = x
                    else:
                        del ri[j]
                        cols[j].discard(i)
                else:
                    ri[j] = -f * v if p is None else -f * v % p
                    cols[j].add(i)
        cols[c] = None
        pivots += 1
        for j, _ in rest:
            if live[j]:
                heapq.heappush(heap, (len(cols[j]), j))
    index = {j: k for k, j in enumerate(j for j in range(n) if cols[j] is not None)}
    core = []
    for entries in work:
        if entries is not None:
            line = [0] * len(index)
            for j, v in entries.items():
                line[index[j]] = v
            core.append(line)
    return pivots, core


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_eliminate_matches_the_reference_kernel_on_samples(mode):
    # same pivots and the same core, bit for bit, through the validating
    # wrapper and through the kernel on rows read straight from targets:
    # over the integers, and mod p with and without the kernel's tables
    # (p = 101 takes none at these n); at n = 400 the buckets pass 64 bits
    for n in (3, 4, 12, 30, 100, 200, 400):
        # an undirected model needs an even point count
        d = 4 if mode == "undirected" and n % 2 else 3
        for seed in range(8 if n < 100 else 3):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, n, d)))
            order = rng.permutation(n * d)
            targets = confmodel.fibre_targets(n, d, mode, order)
            rows = confmodel.sparse_rows(targets)
            for p in (2, 3, 5, 7, 101, P31, None):
                expected = reference_reduce_sparse(rows, p)
                assert reduce_sparse(rows, p) == expected
                assert eliminate(confmodel.sparse_rows(targets, p), p) == expected
            assert rows == confmodel.sparse_rows(targets)


sparse_square_matrices = st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(st.sampled_from((0, 0, 0, 0, 0, 1, -1, 1, 2, -3, 7)), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ),
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2),
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2),
    )
)


@settings(max_examples=150, deadline=None)
@given(sparse_square_matrices, st.sampled_from((0, 2, gfcore.SPARSE_PIVOT_MAX)))
def test_reduce_sparse_matches_oracles_on_random_sparse_matrices(drawn, switch):
    dense, empty_rows, empty_cols = drawn
    n = len(dense)
    dense = [
        [0 if i in empty_rows or j in empty_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(dense)
    ]
    rows = _sparse(dense)
    # switch 0 leaves the whole matrix to the core, 2 splits it
    with mock.patch.object(gfcore, "SPARSE_PIVOT_MAX", switch):
        for p in SMALL_PRIMES + (M61,):
            pivots, core = reduce_sparse(rows, p)
            _assert_square_core(core, n - pivots, p)
            assert pivots + gfcore.rank_mod_p(core, p) == rank_oracle_mod_p(dense, p)
            assert (pivots, core) == reference_reduce_sparse(rows, p)
            reduced = [{j: v % p for j, v in row.items() if v % p} for row in rows]
            assert eliminate(reduced, p) == (pivots, core)
        pivots, core = reduce_sparse(rows)
        assert (pivots, core) == reference_reduce_sparse(rows)
        assert eliminate([dict(row) for row in rows], None) == (pivots, core)
    _assert_square_core(core, n - pivots)
    rank, det = gauss_oracle_rational(dense)
    assert pivots + gauss_oracle_rational(core)[0] == rank
    assert abs(gfcore.det_integer(core)) == abs(det)
    assert rows == _sparse(dense)


def test_reduce_sparse_pivots_over_the_integers_only_on_units():
    # no entry is +-1, so nothing pivots; mod 3 every nonzero entry does
    rows = [{0: 2, 1: 3}, {0: 3, 1: 2}]
    assert reduce_sparse(rows) == (0, [[2, 3], [3, 2]])
    assert reduce_sparse(rows, 3) == (2, [])
    # mod 2 the 2s vanish, leaving an empty column and an empty row
    assert reduce_sparse([{0: 2, 1: 1}, {0: 2}], 2) == (1, [[0]])
    with pytest.raises(ShapeError):
        reduce_sparse([{0: 1, 2: 1}, {1: 1}])
    with pytest.raises(InvalidModulusError):
        reduce_sparse([{0: 1}], 4)
