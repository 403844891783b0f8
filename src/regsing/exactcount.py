"""Exact kernel-vector counts per histogram class, and master sums.

For a fixed vector v over F_p with histogram sig = (n_0,...,n_{p-1}),
the number of directed-model outcomes whose adjacency kills v is

    count_graphs_directed(sig) = (prod_j (d*n_j)!) * N_n(d*sig),

where N is the endpoint table of the histogram walk (walkdist): the
condition A(G)v = 0 decouples into per-vertex zero-sum d-tuples, and
grouping the nd points by the symbol they must carry leaves a product
of factorials times the number of ways the per-vertex histograms chain
to the class totals.

Undirected outcomes additionally fix how many pair endpoints join
symbol class i to symbol class j; those "data matrices" M (symmetric,
even diagonal, row sums d*n_i, row-wise weighted congruence) each carry
a pairing weight prod_{i<j} m_ij! * prod_i m_ii!/(2^{m_ii/2}(m_ii/2)!)
and a product of per-class walk counts.

Master sums divide the class totals by the model size; they estimate
the expected number of nonzero kernel vectors, and divided by (p-1)
they upper-bound the singularity probability.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import CostGuardError, DomainError, InvalidParamsError
from .gfcore import require_prime
from .walkdist import WalkTables, build_support, compositions, walk_tables

PAIRING_MATRIX_CAP = 1_000_000
# Refuse walk tables whose predicted size (entries times count width,
# see predicted_table_bits) exceeds this many bits.
TABLE_BITS_CAP = 2**31


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / prod(parts!) for nonnegative parts summing to n."""
    if sum(parts) != n:
        raise DomainError(f"parts {parts} do not sum to {n}")
    out = math.factorial(n)
    for k in parts:
        out //= math.factorial(k)
    return out


def validate_signature(sig: Sequence[int], p: int) -> tuple[int, ...]:
    sig = tuple(int(x) for x in sig)
    if len(sig) != p:
        raise DomainError(f"class signature needs {p} entries, got {len(sig)}")
    if any(x < 0 for x in sig):
        raise DomainError(f"class signature entries must be >= 0, got {sig}")
    return sig


def model_size_directed(n: int, d: int) -> int:
    """Number of directed outcomes: one per permutation of the nd points."""
    return math.factorial(n * d)


def model_size_undirected(n: int, d: int) -> int:
    """Number of pairings of the nd points: (nd-1)!!."""
    nd = n * d
    if nd % 2:
        raise InvalidParamsError(f"pairings need an even point count, got nd = {nd}")
    return math.factorial(nd) // (2 ** (nd // 2) * math.factorial(nd // 2))


def predicted_table_bits(n: int, d: int, p: int) -> int:
    """Predicted size of the walk tables for 0..n steps: entries times
    count width.

    The k-step table has at most comb(kd + p - 1, p - 1) entries (the
    compositions of kd into p parts); summed over k = 0..n that is at
    most comb((n + 1)d + p - 1, p) / d by the hockey-stick identity.  No
    count exceeds p**(n(d-1)), so none is wider than n(d-1)*log2(p) bits.
    """
    p = require_prime(p)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if n < 0:
        raise DomainError(f"step count must be >= 0, got {n}")
    width = max(1, math.ceil(n * (d - 1) * math.log2(p)))
    return math.comb((n + 1) * d + p - 1, p) // d * width


def _tables(n: int, d: int, p: int) -> WalkTables:
    """The walk tables for 0..n steps; CostGuardError, before any table
    work, when they are predicted above TABLE_BITS_CAP."""
    predicted = predicted_table_bits(n, d, p)
    if predicted > TABLE_BITS_CAP:
        raise CostGuardError(
            f"walk tables for n={n}, d={d}, p={p} are predicted at {predicted:.3e} bits, "
            f"over the cap of {TABLE_BITS_CAP:.3e}"
        )
    return walk_tables(build_support(d, p), n)


def _count_directed(sig: tuple[int, ...], d: int, tables: WalkTables) -> int:
    walks = tables[sum(sig)].get(d * tables.key(sig), 0)
    if walks == 0:
        return 0
    out = walks
    for x in sig:
        out *= math.factorial(d * x)
    return out


def count_graphs_directed(sig: Sequence[int], d: int, p: int) -> int:
    """Directed outcomes G with A(G)v = 0, v any fixed vector of class sig."""
    sig = validate_signature(sig, p)
    return _count_directed(sig, d, _tables(sum(sig), d, p))


def enumerate_pairing_matrices(
    sig: Sequence[int], d: int, p: int, *, cap: int = PAIRING_MATRIX_CAP
) -> list[tuple[tuple[int, ...], ...]]:
    """All data matrices for the class: symmetric p x p, even diagonal,
    row sums d*n_i, and sum_j j*m_ij = 0 mod p in every row.

    Row-wise backtracking; partial row sums and column capacities prune
    before the congruence check.  Raises CostGuardError when more than
    `cap` matrices would be produced (the count grows quickly at p >= 5
    and large d*n_i).
    """
    sig = validate_signature(sig, p)
    rows = [d * x for x in sig]
    m = [[0] * p for _ in range(p)]
    out: list[tuple[tuple[int, ...], ...]] = []

    def fill_row(i: int):
        if i == p:
            out.append(tuple(tuple(r) for r in m))
            if len(out) > cap:
                raise CostGuardError(
                    f"more than {cap} data matrices for class {sig}; raise cap to proceed"
                )
            return
        fixed = sum(m[j][i] for j in range(i))
        budget = rows[i] - fixed
        if budget < 0:
            return
        choose(i, i, budget)

    def choose(i: int, j: int, rem: int):
        # pick m[i][j] for j >= i; diagonal entries must be even
        if j == p - 1:
            v = rem
            if j == i and v % 2:
                return
            if j > i and v > rows[j] - sum(m[k][j] for k in range(i)):
                return
            m[i][j] = m[j][i] = v
            if sum(k * m[i][k] for k in range(p)) % p == 0:
                fill_row(i + 1)
            m[i][j] = m[j][i] = 0
            return
        if j == i:
            top, step = rem, 2
        else:
            top = min(rem, rows[j] - sum(m[k][j] for k in range(i)))
            step = 1
        for v in range(0, top + 1, step):
            m[i][j] = m[j][i] = v
            choose(i, j + 1, rem - v)
        m[i][j] = m[j][i] = 0

    fill_row(0)
    return out


def pairing_matrix_weight(mat: Sequence[Sequence[int]]) -> int:
    """Ways to realize the data matrix as endpoint pairs: off-diagonal
    entries contribute m_ij! matchings, diagonals m_ii!/(2^{m_ii/2}(m_ii/2)!)."""
    p = len(mat)
    w = 1
    for i in range(p):
        mii = mat[i][i]
        w *= math.factorial(mii) // (2 ** (mii // 2) * math.factorial(mii // 2))
        for j in range(i + 1, p):
            w *= math.factorial(mat[i][j])
    return w


def _count_undirected(sig: tuple[int, ...], d: int, p: int, tables: WalkTables) -> int:
    key = tables.key
    total = 0
    for mat in enumerate_pairing_matrices(sig, d, p):
        term = pairing_matrix_weight(mat)
        for i in range(p):
            if term == 0:
                break
            term *= tables[sig[i]].get(key(mat[i]), 0)
        total += term
    return total


def count_graphs_undirected(sig: Sequence[int], d: int, p: int) -> int:
    """Pairings G with A(G)v = 0, v any fixed vector of class sig."""
    sig = validate_signature(sig, p)
    n = sum(sig)
    if (n * d) % 2:
        raise InvalidParamsError(f"undirected count needs 2 | dn, got nd = {n * d}")
    return _count_undirected(sig, d, p, _tables(max(sig, default=0), d, p))


def class_signatures(n: int, p: int) -> Iterator[tuple[int, ...]]:
    """Histogram classes of nonzero F_p^n vectors: the all-zeros class
    (n_0 = n) is skipped, as the master sums do."""
    for sig in compositions(n, p):
        if sig[0] != n:
            yield sig


def class_term_directed(sig: Sequence[int], d: int, p: int) -> Fraction:
    """One class's master-sum contribution:
    multinomial(n; sig) * count / (nd)!."""
    sig = validate_signature(sig, p)
    n = sum(sig)
    return Fraction(
        multinomial(n, sig) * count_graphs_directed(sig, d, p), model_size_directed(n, d)
    )


def master_sum_directed(n: int, d: int, p: int) -> Fraction:
    """Expected number of nonzero kernel vectors of the directed model, exact."""
    tables = _tables(n, d, p)
    total = 0
    for sig in class_signatures(n, p):
        total += multinomial(n, sig) * _count_directed(sig, d, tables)
    return Fraction(total, model_size_directed(n, d))


def master_sum_undirected(n: int, d: int, p: int) -> Fraction:
    """Expected number of nonzero kernel vectors of the undirected model, exact."""
    if (n * d) % 2:
        raise InvalidParamsError(f"undirected model needs 2 | dn, got nd = {n * d}")
    tables = _tables(n, d, p)
    total = 0
    for sig in class_signatures(n, p):
        total += multinomial(n, sig) * _count_undirected(sig, d, p, tables)
    return Fraction(total, model_size_undirected(n, d))


def singularity_bound_from_master(master: Fraction, p: int) -> Fraction:
    """P(singular over F_p) <= master/(p-1): every singular outcome has
    at least p-1 nonzero kernel vectors.  Values >= 1 are vacuous."""
    return Fraction(master) / (p - 1)
