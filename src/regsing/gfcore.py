"""Exact linear algebra over prime fields and over the integers.

Every matrix argument is read by one parser, `_int_matrix`, into a 2-d
array of int64, or of Python ints when an entry passes int64, so
nothing ever overflows and every call refuses bad input alike: an
integer ndarray is taken as it is, other input is read row by row, and
every entry must be an integer (an integral float or a decimal string
passes; a bool, a fractional or a non-finite one, or a bool array,
raises DomainError); input that is not a sequence of equal-length rows
raises ShapeError.  Elimination mod p has one core: it runs on int64
arrays when products of two residues fit in a signed 64-bit word
(p < 2**31), and on object arrays of Python ints above that, with the
same pivot order.  Integer rank and determinant use fraction-free
(Bareiss) elimination on Python ints: every intermediate entry is an
exact minor of the input, and every division is exact.  The Monte
Carlo trials eliminate their sparse rows, valid by construction, down
to a small dense core for those routines with the unchecked
`_eliminate`, mod p or with unit pivots over the integers.
The one floating-point proof is a shifted Cholesky factorization of
a Gram matrix B = A^T A, exact in float64: if Cholesky of B - sI runs
to completion for a k x k B, lambda_min(B) > s - g/(1 - g) tr(B)
- O(k^2 2^-1074) with g = gamma_{k+2}, so a shift s above that bound
proves B positive definite and det A != 0 (`certify_nonsingular` from
A, `_certify_gram` from a stack of ready float64 Gram matrices, which it
shifts in one pass and factors in place with LAPACK dpotrf, so no B is
copied, each certified slice holding its factor as the witness; Rump,
"Verification of positive definiteness", BIT 46, 2006; Higham, Accuracy
and Stability of Numerical Algorithms, Thm 10.3).  It only ever proves,
never guesses.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DomainError, InvalidModulusError, InvalidParamsError, ShapeError

# Products of two residues must fit in int64 for the int64 core.
NUMPY_PRIME_LIMIT = 1 << 31
# Unit roundoff of float64, and the largest magnitude below which every
# integer is exact in float64.
_UNIT_ROUNDOFF = 2.0**-53
_FLOAT_EXACT = 1 << 53
# The smallest positive (subnormal) float64.
_UNDERFLOW_UNIT = 2.0**-1074
# The integer arguments of LAPACK built with 64-bit integers (ILP64).
_INT64_P = ctypes.POINTER(ctypes.c_int64)
# Deterministic Miller-Rabin with the witness set below is exact for all
# n < 3.3e24, far above this cap.
PRIME_LIMIT = 1 << 63

# Sparse elimination pivots while the sparsest live column has at most
# this many nonzeros.  Per trial at n = 100, d = 3, p = 5 (reduction
# plus core rank, process time on a 2-core VM, with count buckets),
# 10, 12 and 14 tie at about 0.53 ms, while 8 takes 0.63 ms and 6
# 0.69 ms: a core of 20-30 rows pays numpy calls on every column.
SPARSE_PIVOT_MAX = 10

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

Matrix = Sequence[Sequence[int]]


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below 2**63."""
    if p < 2:
        return False
    for q in _MR_WITNESSES:
        if p % q == 0:
            return p == q
    d = p - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p) -> int:
    """Validate a modulus, returning it as int; reject composites."""
    if not isinstance(p, (int, np.integer)):
        raise InvalidModulusError(f"modulus must be an integer, got {type(p).__name__}")
    p = int(p)
    if p < 2 or p >= PRIME_LIMIT:
        raise InvalidModulusError(f"modulus must be a prime in [2, 2**63), got {p}")
    if not is_prime(p):
        raise InvalidModulusError(f"modulus {p} is not prime")
    return p


def require_int(name: str, value, lo: int) -> int:
    """Validate an integer parameter, returning it as int; a bool, a
    non-integer or a value below lo raises InvalidParamsError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise InvalidParamsError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)


def _as_int(x) -> int:
    """An entry as an int.  Integral floats, numpy integers and decimal
    strings parse; a bool, a fractional or a non-finite value raises
    DomainError rather than being truncated."""
    try:
        v = int(x)
    except (TypeError, ValueError, OverflowError):
        v = None
    if (
        v is None
        or isinstance(x, (bool, np.bool_))
        or (not isinstance(x, (int, np.integer, str)) and v != x)
    ):
        raise DomainError(f"entries must be integers: {x!r} is not an integer")
    return v


def _int_matrix(matrix) -> np.ndarray:
    """The matrix argument as a 2-d array, by the rules of the module
    docstring; entries are read through `_as_int`, and [] is the 0x0
    matrix."""
    if isinstance(matrix, np.ndarray):
        if matrix.ndim != 2:
            raise ShapeError(f"expected a 2-d matrix, got {matrix.ndim} dimensions")
        # a bool array is read entry by entry, and refused there
        if matrix.dtype != np.bool_ and np.can_cast(matrix.dtype, np.int64):
            return matrix.astype(np.int64, copy=False)
        matrix = matrix.tolist()
    rows = []
    try:
        for row in matrix:
            if isinstance(row, (str, bytes)):
                raise TypeError
            rows.append([x if type(x) is int else _as_int(x) for x in row])
    except TypeError:
        raise ShapeError("a matrix must be a sequence of rows of entries") from None
    if any(len(r) != len(rows[0]) for r in rows):
        raise ShapeError("ragged matrix: rows have differing lengths")
    return _stack_rows(rows)


def _stack_rows(rows: list[list[int]]) -> np.ndarray:
    """Equal-length rows of Python ints, unchecked, as a 2-d array:
    int64 when every entry fits, an object array otherwise."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]) if rows else 0)
    except OverflowError:
        return np.array(rows, dtype=object)


def rank_mod_p(matrix: Matrix, p) -> int:
    """Rank of the matrix over F_p.

    Entries are reduced mod p on entry.  Pivoting picks the first
    nonzero entry in column order, so the pivot sequence is a pure
    function of the input.
    """
    p = require_prime(p)
    return _rank_mod(_int_matrix(matrix), p)


def _rank_mod(a: np.ndarray, p: int) -> int:
    """`rank_mod_p` of an array as `_int_matrix` makes it, such as the
    core `_eliminate` returns, and a prime p; nothing is checked, and a
    is left as it is."""
    dtype = np.int64 if p < NUMPY_PRIME_LIMIT else object
    # np.mod makes a fresh array, and reduces big entries before the int64 core
    return _rank_mod_numpy_arr(np.mod(a, p).astype(dtype, copy=False), p)


def _rank_mod_numpy_arr(a: np.ndarray, p: int) -> int:
    """Elimination core; `a` holds entries in [0, p), as int64 when
    p < 2**31 and as Python ints otherwise.  Mutates a."""
    nr, nc = a.shape
    r = 0
    for c in range(nc):
        if r == nr:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = a[r, c:] * inv % p
        col = a[r + 1 :, c]
        nz = np.nonzero(col)[0]
        if nz.size:
            a[r + 1 :, c:][nz] = (a[r + 1 :, c:][nz] - np.outer(col[nz], a[r, c:])) % p
        r += 1
    return r


def _eliminate(work: list[dict[int, int]], p: int | None) -> tuple[int, np.ndarray]:
    """Structured Gaussian elimination of a sparse square matrix.

    `work[i]` maps column j to the nonzero int entry (i, j), columns in
    range(len(work)), entries in [1, p) when the prime p is given;
    nothing is checked, and the dicts are emptied or changed in place.
    Each step pivots on the sparsest live column, in its shortest row
    (Markowitz-style), and the pivot row and column leave the matrix;
    the elimination stops when every live column has more than
    SPARSE_PIVOT_MAX nonzeros.  Returns the pivot count and the dense
    core left over, n - pivots rows and columns, empty ones included, as
    the integer array `_int_matrix` would make of it.

    With a prime p every nonzero entry is a pivot, and
    rank_p(A) = pivots + rank_p(core).  With p None the elimination runs
    over the integers and pivots only on entries +-1, which are units
    everywhere: the core stays integral, |det A| = |det core|, and for
    every prime q and over the rationals, rank(A) = pivots + rank(core).
    LaMacchia and Odlyzko, "Solving large sparse linear systems over
    finite fields", CRYPTO 1990.

    The columns wait in exact count buckets: bucket k is a bit mask of
    the live columns with k <= SPARSE_PIVOT_MAX nonzeros, and a column's
    bit moves whenever its count does, so the next pivot column is the
    lowest bit of the lowest non-empty bucket, the least (count, column).
    Ties between equally short rows go to the first in the iteration
    order of the column's row set, and that order is the history of the
    set's adds and discards; so every set and dict operation runs in one
    fixed order (per pivot: the pivot row leaves each of its columns'
    sets, then each member row, in set order, updates its entries in the
    pivot row's dict order), and the pivots and the core are a pure
    function of the input.  When p**2 <= 4n, so that a table of p**2
    entries costs less than the updates it speeds, -1/v and f*w mod p
    are read from tables built per call.
    """
    n = len(work)
    cols: list = [set() for _ in range(n)]
    for i, entries in enumerate(work):
        for c in entries:
            cols[c].add(i)
    limit = SPARSE_PIVOT_MAX
    bit = [1 << j for j in range(n)]
    # one bucket past the limit, never empty, ends the scan for the least count
    buckets = [0] * (limit + 1) + [1]
    for c, s in enumerate(cols):
        if len(s) <= limit:
            buckets[len(s)] |= bit[c]
    table = p is not None and p * p <= 4 * n
    if table:
        mul = [[f * w % p for w in range(p)] for f in range(p)]
        neg_inv = [0] + [p - pow(v, -1, p) for v in range(1, p)]
        mod = list(range(p)) * 2  # x + y mod p for x, y in [0, p)
    live = [True] * n
    pivots = 0
    while True:
        k = 0
        while not buckets[k]:
            k += 1
        if k > limit:
            break
        m = buckets[k]
        low = m & -m
        buckets[k] = m ^ low
        c = low.bit_length() - 1
        members = cols[c]
        # a column without a usable pivot stays in the core
        live[c] = False
        usable = members if p is not None else [i for i in members if work[i][c] in (1, -1)]
        if not usable:
            continue
        # the first shortest row, in the iteration order of `usable`
        r = -1
        shortest = n + 1
        for i in usable:
            k = len(work[i])
            if k < shortest:
                r, shortest = i, k
        prow = work[r]
        work[r] = None
        pc = prow.pop(c)
        members.discard(r)
        # rest: (column, its row set, entry) per entry of the pivot row, the
        # entry scaled by -1/pivot mod p, so that row i gains f * w; each
        # column leaves its bucket and the pivot row its set, and after the
        # updates every live one enters the bucket of its new count
        if table:
            scale = mul[neg_inv[pc]]
        elif p is not None:
            inv = p - pow(pc, -1, p)
        rest = []
        for j, v in prow.items():
            s = cols[j]
            k = len(s)
            if k <= limit and live[j]:
                buckets[k] ^= bit[j]
            s.discard(r)
            rest.append((j, s, v if p is None else scale[v] if table else v * inv % p))
        if p is None:
            for i in members:
                ri = work[i]
                f = ri.pop(c) * pc
                for j, s, v in rest:
                    x = ri.get(j)
                    if x is None:
                        ri[j] = -f * v
                        s.add(i)
                    else:
                        x -= f * v
                        if x:
                            ri[j] = x
                        else:
                            del ri[j]
                            s.discard(i)
        elif table:
            for i in members:
                ri = work[i]
                fw = mul[ri.pop(c)]
                for j, s, w in rest:
                    x = ri.get(j)
                    if x is None:
                        ri[j] = fw[w]
                        s.add(i)
                    else:
                        x = mod[x + fw[w]]
                        if x:
                            ri[j] = x
                        else:
                            del ri[j]
                            s.discard(i)
        else:
            for i in members:
                ri = work[i]
                f = ri.pop(c)
                for j, s, w in rest:
                    x = ri.get(j)
                    if x is None:
                        ri[j] = f * w % p
                        s.add(i)
                    else:
                        x = (x + f * w) % p
                        if x:
                            ri[j] = x
                        else:
                            del ri[j]
                            s.discard(i)
        for j, s, _ in rest:
            k = len(s)
            if k <= limit and live[j]:
                buckets[k] |= bit[j]
        cols[c] = None
        pivots += 1
    index = {j: k for k, j in enumerate(j for j in range(n) if cols[j] is not None)}
    core = []
    for entries in work:
        if entries is not None:
            line = [0] * len(index)
            for j, v in entries.items():
                line[index[j]] = v
            core.append(line)
    return pivots, _stack_rows(core)


def certify_nonsingular(matrix) -> bool:
    """One-sided floating-point proof that a square integer matrix is nonsingular.

    True proves det A != 0; False proves nothing.  A is nonsingular iff
    its Gram matrix B = A^T A is positive definite, which
    `_certify_gram` proves.  B is formed in float64 and is exact: every
    product a_ij a_il and every partial sum of an entry is an integer of
    magnitude at most max|a_ij| times the largest column sum of |A|,
    and the test asks that to stay below 2**53, so no BLAS summation
    order (with or without FMA) rounds.  Input failing that test,
    entries beyond 2**53 among it, is never certified; the 0x0 matrix,
    such as the empty core of `_eliminate`, is nonsingular.
    """
    a = _int_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"certification needs a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        return True
    if a.min() < -_FLOAT_EXACT or a.max() > _FLOAT_EXACT:
        return False
    af = a.astype(np.float64)
    # a computed column sum of nonnegative integers reaches 2**53 iff the
    # true one does, and rounding is monotone, so a computed product
    # below 2**53 proves the true one below it
    mag = np.abs(af)
    if mag.max() * mag.sum(axis=0).max() >= _FLOAT_EXACT:
        return False
    return _certify_gram((af.T @ af)[None])[0]


@functools.cache
def _lapack_potrf():
    """LAPACK dpotrf, with 64-bit integer arguments, from the OpenBLAS
    that numpy's wheel bundles in `numpy.libs/`, or None where no such
    library or symbol is found (another numpy build).  numpy has loaded
    the library already, so this opens nothing new."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*"))):
        try:
            potrf = ctypes.CDLL(path).scipy_dpotrf_64_
        except (OSError, AttributeError):
            continue
        # uplo, n, a, lda, info, and the length of uplo that Fortran passes
        potrf.argtypes = [ctypes.c_char_p, _INT64_P, ctypes.c_void_p, _INT64_P, _INT64_P,
                          ctypes.c_size_t]
        potrf.restype = None
        return potrf
    return None


def _certify_gram(b: np.ndarray) -> list[bool]:
    """One-sided proof that symmetric k x k integer matrices B, such as
    Gram matrices A^T A, are positive definite: b is a stack of them,
    shape (t, k, k), and entry j of the list returned is True when
    Cholesky of slice j shifted by sI completed, which proves it
    positive definite, and False when it proves nothing.

    Nothing is checked but the layout: b must be a C-contiguous float64
    array of symmetric matrices whose entries are integers held
    exactly, as the ones `certify_nonsingular` and
    `confmodel.dense_gram` build.  b is consumed and nothing the size
    of a slice is made: one pass over the stack takes every slice's
    trace, largest diagonal entry and shift s and subtracts s from its
    diagonal, and each slice is factored in place by LAPACK dpotrf with
    uplo "L".  B is symmetric, so the C-order slice is B in Fortran
    order, and a certified slice returns holding the witness R, with
    R^T R = B - sI, in its upper triangle (the Fortran lower one); the
    entries below the diagonal stay B's.  Failure is dpotrf's info > 0,
    and leaves a partial factor.  Where `_lapack_potrf` finds no
    library, numpy's gufunc behind np.linalg.cholesky factors the whole
    stack in one call instead: a certified slice then holds R^T in its
    lower triangle and zeros above, and a failed one NaN.

    Let s be a power of two and run Cholesky on B - sI.  If it runs to
    completion, the computed factor R satisfies R^T R = B - sI + dB
    with |dB| <= g|R^T||R| + E entrywise, in any summation order,
    blocked or not, with or without FMA.  Here u = 2**-53 and
    g = gamma_{k+2} = (k+2)u/(1 - (k+2)u): Higham's gamma_{k+1} plus
    one rounding, since OpenBLAS divides by r_jj by multiplying with a
    computed reciprocal.  E is what underflow adds, at most 2**-1075
    per product, k of them in an entry's inner product and r_jj times
    one in its division, so |E_ij| <= (k + 2 + max b_jj) 2**-1074.  As
    the 2-norm of |R^T||R| is at most
    ||R||_F**2 = tr(R^T R) <= tr(B) + g||R||_F**2 + tr(E),
    ||dB||_2 <= g/(1 - g)(tr(B) + tr(E)) + ||E||_2, and R^T R being
    positive semidefinite gives lambda_min(B) >= s - ||dB||_2.  The
    test takes bound = g/(1 - g) tr(B) + 4(k+2)(2(k+2) + max b_jj)
    2**-1074, which covers ||dB||_2, and s the power of two in
    (2 bound, 4 bound], whose factor 2 also covers the rounding of the
    bound itself; then lambda_min(B) > 0.  Every b_jj - s is exact:
    both are multiples of min(s, 1), and |b_jj - s| < 2**53 min(s, 1),
    since s < 2**53 and b_jj <= tr(B) < 2**53 s / (2(k+2)).  A negative
    b_jj, which would void that, rounds to a negative pivot, and the
    factorization stops.
    Rump, "Verification of positive definiteness", BIT 46 (2006);
    Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3.
    """
    if b.ndim != 3 or b.dtype != np.float64 or not b.flags.c_contiguous:
        raise ValueError("the certificate takes a C-contiguous float64 (t, k, k) stack")
    t, k = len(b), b.shape[1]
    # every slice's diagonal, as a writable view
    diag = b.reshape(t, k * k)[:, :: k + 1]
    nu = (k + 2) * _UNIT_ROUNDOFF
    bound = nu / (1.0 - nu) * diag.sum(axis=1) + 4.0 * (k + 2) * (
        2 * (k + 2) + diag.max(axis=1)
    ) * _UNDERFLOW_UNIT
    diag -= np.ldexp(1.0, np.frexp(2.0 * bound)[1])[:, None]
    potrf = _lapack_potrf()
    if potrf is None:
        # the gufunc factors into `out`, which no public Cholesky takes;
        # a failed slice sets the invalid flag and comes back NaN
        with np.errstate(all="ignore"):
            _umath_linalg.cholesky_lo(b, out=b, signature="d->d")
        return (~np.isnan(b[:, 0, 0])).tolist()
    dim, info = ctypes.c_int64(k), ctypes.c_int64()
    dim_p, info_p = ctypes.byref(dim), ctypes.byref(info)
    # b is held, so every slice's address stays valid through the calls
    address, step = b.ctypes.data, b[0].nbytes
    certified = []
    for j in range(t):
        potrf(b"L", dim_p, address + j * step, dim_p, info_p, 1)
        certified.append(info.value == 0)
    return certified


def _bareiss(rows: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free echelon reduction.

    Returns (rank, last_pivot, sign).  After the k-th pivot every entry
    below is a (k+1)x(k+1) minor of the input built from the pivot
    rows/columns, which is what makes every division exact.  Rows below
    the pivot are always rescaled, even when their pivot-column entry is
    zero; skipping that would break the minor invariant.
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    a = [list(row) for row in rows]
    prev = 1
    sign = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pivot = next((i for i in range(r, nr) if a[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        pc = a[r][c]
        ar = a[r]
        for i in range(r + 1, nr):
            ai = a[i]
            f = ai[c]
            for j in range(c + 1, nc):
                # exact quotient, so floor division is the true quotient
                ai[j] = (pc * ai[j] - f * ar[j]) // prev
            ai[c] = 0
        prev = pc
        r += 1
    return r, prev, sign


def rank_integer(matrix: Matrix) -> int:
    """Rank over the rationals via Bareiss elimination (exact)."""
    return _bareiss(_int_matrix(matrix).tolist())[0]


def rank_det_integer(matrix: Matrix) -> tuple[int, int]:
    """Rank over the rationals and exact determinant of a square integer
    matrix, from one Bareiss elimination."""
    a = _int_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ShapeError("determinant needs a square matrix")
    rank, last_pivot, sign = _bareiss(a.tolist())
    return rank, sign * last_pivot if rank == len(a) else 0


def det_integer(matrix: Matrix) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    return rank_det_integer(matrix)[1]


def matrix_from_json(data) -> np.ndarray:
    """Parse a JSON matrix whose entries are integers or decimal strings
    (entries may exceed 64 bits) into the array `_int_matrix` builds,
    which the rank routines take without parsing it again.

    The matrix and each of its rows must be JSON arrays and every entry
    an integer, not a bool; anything else raises DomainError, and rows
    of differing lengths raise ShapeError.
    """
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise DomainError("a matrix must be a JSON array of row arrays")
    return _int_matrix(data)
