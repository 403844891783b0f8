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
and a product of per-class walk counts, so the class count is
sum_M weight(M) * prod_i walks_{n_i}(row i of M), summed in one
backtracking pass that builds no list of matrices.

Master sums divide the class totals by the model size; they estimate
the expected number of nonzero kernel vectors, and divided by (p-1)
they upper-bound the singularity probability.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import CostGuardError, DomainError, InvalidParamsError
from .gfcore import require_prime
from .walkdist import (
    WalkTables, build_support, capped_binomial, compositions, require_support, walk_tables,
)

# Refuse an undirected class once this many data matrices complete.
PAIRING_MATRIX_CAP = 1_000_000
# Refuse walk tables whose predicted size (entries times count width,
# see predicted_table_bits) exceeds this many bits.
TABLE_BITS_CAP = 2**31


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / prod(parts!) for nonnegative parts summing to n."""
    if sum(parts) != n or any(k < 0 for k in parts):
        raise DomainError(f"parts {parts} are not nonnegative parts summing to {n}")
    return _multinomial(parts, _factorials(n))


def _factorials(top: int) -> list[int]:
    """[0!, 1!, ..., top!]; a master sum builds it once, up to d*n."""
    return list(itertools.accumulate(range(1, top + 1), operator.mul, initial=1))


def _loop_weights(fact: list[int]) -> list[int]:
    """Entry v: the pairings of v endpoints within one class, for even v
    (a data matrix's diagonal entry), from the factorials up to v."""
    return [fact[v] // (2 ** (v // 2) * fact[v // 2]) for v in range(len(fact))]


def _multinomial(parts: Sequence[int], fact: list[int]) -> int:
    """multinomial(sum(parts), parts) from a factorial table."""
    return fact[sum(parts)] // math.prod(fact[k] for k in parts)


def validate_signature(sig: Sequence[int], p: int) -> tuple[int, ...]:
    require_prime(p)
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
    count width, after `require_support` checks (d, p) and its support.

    The k-step table has at most C(kd + p - 1, p - 1) entries (the
    compositions of kd into p parts); summed over k = 0..n that is at
    most C((n + 1)d + p - 1, p) / d by the hockey-stick identity.  No
    count exceeds p**(n(d-1)), so none is wider than n(d-1)*log2(p) bits.
    Past TABLE_BITS_CAP the value is only known to exceed the cap.
    """
    p = require_support(d, p)
    if n < 0:
        raise DomainError(f"step count must be >= 0, got {n}")
    entries = capped_binomial((n + 1) * d + p - 1, p, (TABLE_BITS_CAP + 1) * d) // d
    e = n * (d - 1)  # ceil(e * log2 p) >= e refuses a huge p**e before it is built
    width = max(1, e if entries * e > TABLE_BITS_CAP else (p**e - 1).bit_length())
    return entries * width


def _require_tables(n: int, d: int, p: int) -> None:
    """CostGuardError if the tables for 0..n steps pass TABLE_BITS_CAP."""
    if predicted_table_bits(n, d, p) > TABLE_BITS_CAP:
        raise CostGuardError(
            f"walk tables for n steps at d={d}, p={p} are predicted above the cap of "
            f"{TABLE_BITS_CAP:.3e} bits"
        )


def _tables(n: int, d: int, p: int) -> WalkTables:
    """The walk tables for 0..n steps, built once `_require_tables` passes."""
    _require_tables(n, d, p)
    return walk_tables(build_support(d, p), n)


def _count_directed(sig: tuple[int, ...], d: int, tables: WalkTables, fact: list[int]) -> int:
    walks = tables[sum(sig)].get(d * tables.key(sig), 0)
    if walks == 0:
        return 0
    return walks * math.prod(fact[d * x] for x in sig)


def count_graphs_directed(sig: Sequence[int], d: int, p: int) -> int:
    """Directed outcomes G with A(G)v = 0, v any fixed vector of class sig."""
    sig = validate_signature(sig, p)
    n = sum(sig)
    return _count_directed(sig, d, _tables(n, d, p), _factorials(d * n))


def _count_undirected(
    sig: tuple[int, ...], d: int, p: int, tables: WalkTables, fact: list[int], loops: list[int]
) -> int:
    """Sum of weight(M) * prod_i walks(row i) over the data matrices M
    of the class, in one pass that fills M row by row (entries j >= i).

    free[j] is what row and column j still need and fixed[j] the key of
    row j's entries left of its diagonal, both set in place and restored.
    A complete row ends its branch unless its walk count is nonzero;
    that also checks its sum and congruence.  `fact` and `loops` (see
    _loop_weights) reach at least d * max(sig).
    """
    unit = [tables.key([int(j == k) for k in range(p)]) for j in range(p)]
    walks = [tables[x] for x in sig]
    free = [d * x for x in sig]
    fixed = [0] * p
    last = p - 1
    total = matrices = 0

    def fill(i: int, j: int, rem: int, key: int, term: int) -> None:
        nonlocal total, matrices
        if j == last:  # the last entry is whatever the row still needs
            if (rem % 2) if j == i else (rem > free[j]):  # odd diagonal, full column
                return
            w = walks[i].get(key + rem * unit[j], 0)
            if not w:
                return
            term *= w * (loops if j == i else fact)[rem]
            if i == last:
                matrices += 1
                if matrices > PAIRING_MATRIX_CAP:
                    raise CostGuardError(
                        f"more than {PAIRING_MATRIX_CAP} data matrices for class {sig}"
                    )
                total += term
                return
            free[j] -= rem
            fixed[j] += rem * unit[i]
            fill(i + 1, i + 1, free[i + 1], fixed[i + 1], term)
            free[j] += rem
            fixed[j] -= rem * unit[i]
        elif j == i:
            for v in range(0, rem + 1, 2):
                fill(i, j + 1, rem - v, key + v * unit[j], term * loops[v])
        else:
            for v in range(min(rem, free[j]) + 1):
                free[j] -= v
                fixed[j] += v * unit[i]
                fill(i, j + 1, rem - v, key + v * unit[j], term * fact[v])
                free[j] += v
                fixed[j] -= v * unit[i]

    fill(0, 0, free[0], 0, 1)
    return total


def count_graphs_undirected(sig: Sequence[int], d: int, p: int) -> int:
    """Pairings G with A(G)v = 0, v any fixed vector of class sig."""
    sig = validate_signature(sig, p)
    n = sum(sig)
    if (n * d) % 2:
        raise InvalidParamsError(f"undirected count needs 2 | dn, got d = {d}, an odd class total")
    tables = _tables(max(sig, default=0), d, p)
    fact = _factorials(d * max(sig, default=0))
    return _count_undirected(sig, d, p, tables, fact, _loop_weights(fact))


def class_signatures(n: int, p: int) -> Iterator[tuple[int, ...]]:
    """Histogram classes of nonzero F_p^n vectors: the all-zeros class
    (n_0 = n) is skipped, as the master sums do."""
    for sig in compositions(n, p):
        if sig[0] != n:
            yield sig


def master_sum_directed(n: int, d: int, p: int) -> Fraction:
    """Expected number of nonzero kernel vectors of the directed model, exact."""
    tables = _tables(n, d, p)
    fact = _factorials(d * n)
    total = 0
    for sig in class_signatures(n, p):
        total += _multinomial(sig, fact) * _count_directed(sig, d, tables, fact)
    return Fraction(total, model_size_directed(n, d))


def master_sum_undirected(n: int, d: int, p: int) -> Fraction:
    """Expected number of nonzero kernel vectors of the undirected model, exact."""
    _require_tables(n, d, p)  # before the model size: it checks parity, then takes (nd)!
    size = model_size_undirected(n, d)
    tables = walk_tables(build_support(d, p), n)
    fact = _factorials(d * n)
    loops = _loop_weights(fact)
    total = 0
    for sig in class_signatures(n, p):
        total += _multinomial(sig, fact) * _count_undirected(sig, d, p, tables, fact, loops)
    return Fraction(total, size)


def count_graphs(sig: Sequence[int], d: int, p: int, mode: str) -> int:
    """`count_graphs_directed` or `count_graphs_undirected`, by mode."""
    return (count_graphs_directed if mode == "directed" else count_graphs_undirected)(sig, d, p)


def master_sum(n: int, d: int, p: int, mode: str) -> Fraction:
    """`master_sum_directed` or `master_sum_undirected`, by mode."""
    return (master_sum_directed if mode == "directed" else master_sum_undirected)(n, d, p)


def singularity_bound_from_master(master: Fraction, p: int) -> Fraction:
    """P(singular over F_p) <= master/(p-1): every singular outcome has
    at least p-1 nonzero kernel vectors.  Values >= 1 are vacuous."""
    return Fraction(master) / (p - 1)
