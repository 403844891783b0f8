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
sum_M weight(M) * prod_i walks_{n_i}(row i of M), summed row by row
without a list of matrices.  M is filled only over the symbols the
class uses; after each row, partial fills that leave every later row
the same held key and need are merged into one state, and the fill is
refused past PAIRING_MATRIX_CAP partial rows made.  In both models a
class with d * sum_j j*n_j != 0 (mod p) counts 0 without any search.

Master sums divide the class totals by the model size; they estimate
the expected number of nonzero kernel vectors, and divided by (p-1)
they upper-bound the singularity probability.  A unit c, and when p | d
a shift by c*1, maps the kernel vectors of one class onto those of
another, so a master sum counts one class per orbit and weights it by
the orbit's size (`_orbits`).  Every count reads the walk through one
provider, `walkdist.walk_steps`: tables built for the call up to some
step h of at least half the largest step read, and each higher step
summed only at the keys the counts read.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import CostGuardError, DomainError, InvalidParamsError
from .confmodel import require_mode
from .gfcore import _as_int, require_int, require_prime
from .walkdist import (
    WalkTables, build_support, capped_binomial, compositions, require_support, walk_steps,
)

# Refuse an undirected class once its fill makes this many partial data matrices.
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


def _multinomial(parts: Sequence[int], fact: list[int]) -> int:
    """multinomial(sum(parts), parts) from a factorial table."""
    return fact[sum(parts)] // math.prod(fact[k] for k in parts)


def validate_signature(sig: Sequence[int], p: int) -> tuple[int, ...]:
    require_prime(p)
    sig = tuple(_as_int(x) for x in sig)
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
    d, p = require_support(d, p)
    n = require_int("n", n, 0)
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


def _congruent(sig: Sequence[int], d: int, p: int) -> bool:
    """d * sum_j j*n_j == 0 (mod p): a class that fails has no outcome in
    either model, as the rows of A v = 0 sum to d * sum_j v_j."""
    return d * sum(j * x for j, x in enumerate(sig)) % p == 0


def _orbits(n: int, d: int, p: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(sig, weight) for one class of each orbit of the nonzero classes of
    total n that pass `_congruent`: sig is the least of the orbit's
    classes, and weight is the orbit's size, less one if the orbit holds
    the all-zero class.

    A unit c maps the vectors of class sig one-to-one onto those of
    class (sig_{c^-1 j})_j, and as A(cv) = c A(v) it maps the kernel
    vectors of A with them; when p | d, so does v -> v + c*1, as every
    row of A sums to d.  So every class of an orbit has the same count,
    multinomial and congruence.  The image of sig under x -> u*x + t is
    (sig_{u*j + t})_j, for the units u and for t = 0, or every t when
    p | d.  A class is kept only if no image is below it, and its
    orbit's size is the group's order over the number of images equal
    to it; no class but the current one is held.
    """
    shifts = range(p) if d % p == 0 else (0,)
    group = [(u, t) for u in range(1, p) for t in shifts][1:]  # all but x -> x
    zero = (n,) + (0,) * (p - 1)
    for sig in class_signatures(n, p):
        if not _congruent(sig, d, p):
            continue
        fixed, holds_zero = 1, False
        for u, t in group:
            image = tuple([sig[(u * j + t) % p] for j in range(p)])
            if image < sig:
                break
            fixed += image == sig
            holds_zero |= image == zero
        else:
            yield sig, (len(group) + 1) // fixed - holds_zero


def _class_counts(
    sigs: list[tuple[int, ...]], n: int, d: int, p: int, mode: str
) -> tuple[list[int], list[int]]:
    """(counts, fact): the counts of classes of total n that pass
    `_congruent`, and factorials up to d * n, once the caller's table
    guard has passed.

    The walk is read through one `walk_steps` view, sized by the number
    of classes: a directed class reads step n at d * sig only, and an
    undirected class is filled from steps 1 to its largest entry (a
    class of one symbol j, whose only data matrix is d * n at (j, j),
    reads step n at d * n * e_j alone).
    """
    s = build_support(d, p)
    fact = _factorials(d * n)
    if mode == "directed":  # the module docstring's formula
        walks = walk_steps(s, n, n, len(sigs))
        counts = [walks[n].get(d * walks.key(sig), 0) for sig in sigs]
        return [w and w * math.prod(fact[d * x] for x in sig) for sig, w in zip(sigs, counts)], fact
    # loops[v]: the pairings of v endpoints within one class, v even
    loops = [fact[v] // (2 ** (v // 2) * fact[v // 2]) for v in range(len(fact))]
    walks = walk_steps(s, 1, max((max(sig) for sig in sigs), default=0), len(sigs))
    return [_count_undirected(sig, d, walks, fact, loops) for sig in sigs], fact


def _count_undirected(
    sig: tuple[int, ...], d: int, tables: WalkTables, fact: list[int], loops: list[int]
) -> int:
    """Sum of weight(M) * prod_i walks(row i) over the data matrices M
    of the class, filled row by row (entries j >= i) over the s symbols
    the class uses: the row and column of a symbol with n_j = 0 are 0.

    After row i, a partial fill matters to the rest only through each
    later row's state: the key it holds left of its diagonal, and what
    it still needs.  Fills that agree on those are merged, and their
    terms summed, so row i is filled once per distinct state.  It takes
    an even diagonal entry, then an entry v <= need_j for each later row
    j, until it needs nothing more (its other entries are 0); its last
    entry, the diagonal one in the last row, is all that it still
    needs.  A row is kept only if its walk count is nonzero, which also
    checks its congruence.  Each partial row made, the diagonal-only one
    included, is a partial data matrix, and the class is refused once
    more than PAIRING_MATRIX_CAP of those are made.  No recursion is
    used, so no depth limit applies.
    `tables` holds steps 0..max(sig), as dicts or `walk_steps` views, and
    `fact` and `loops` reach at least d * max(sig).
    """
    used = [j for j, x in enumerate(sig) if x]
    unit = [tables.key([0] * j + [1]) for j in used]
    states = {tuple((0, d * sig[j]) for j in used): 1}  # no symbols: the empty data matrix
    made = 0
    for i, u in enumerate(unit):
        walks, merged = tables[sig[used[i]]], {}
        for state, term in states.items():
            (key, need), rest = state[0], state[1:]
            least = 0 if rest else need + need % 2  # the last row's diagonal: all it needs
            # partial rows of row i: (need left, row key, weight, later rows' states so far)
            rows = [(need - v, key + v * u, loops[v], ()) for v in range(least, need + 1, 2)]
            last = len(rest) - 1
            for j in range(len(rest) + 1):
                made += len(rows)
                if made > PAIRING_MATRIX_CAP:
                    raise CostGuardError(
                        f"more than {PAIRING_MATRIX_CAP} partial data matrices for class {sig}"
                    )
                grown = []
                for rem, k, weight, head in rows:
                    if not rem:  # the row is whole: its later entries are 0
                        w = walks.get(k, 0)
                        if w:
                            after = head + rest[j:]
                            merged[after] = merged.get(after, 0) + term * weight * w
                    else:  # rem > 0 only before the last entry, which takes all that is left
                        kj, nj = rest[j]
                        uj = unit[i + 1 + j]
                        grown += [  # a conditional, not min: this is the inner loop
                            (rem - v, k + v * uj, weight * fact[v], head + ((kj + v * u, nj - v),))
                            for v in range(rem if j == last else 0, (rem if rem < nj else nj) + 1)
                        ]
                rows = grown
        states = merged
    return sum(states.values())


def count_graphs(sig: Sequence[int], d: int, p: int, mode: str) -> int:
    """Outcomes G of `mode` with A(G)v = 0, v any fixed vector of class sig."""
    require_mode(mode)
    sig = validate_signature(sig, p)
    n = sum(sig)
    if mode == "undirected" and (n * d) % 2:
        raise InvalidParamsError(f"undirected count needs 2 | dn, got d = {d}, an odd class total")
    _require_tables(n if mode == "directed" else max(sig, default=0), d, p)
    return _class_counts([sig], n, d, p, mode)[0][0] if _congruent(sig, d, p) else 0


def master_sum(n: int, d: int, p: int, mode: str) -> Fraction:
    """Expected number of nonzero kernel vectors of the `mode` model,
    exact: the weight times multinomial times count of one class per
    orbit (`_orbits`), over the model size."""
    require_mode(mode)
    _require_tables(n, d, p)  # before the model size: it checks parity, then takes (nd)!
    size = (model_size_directed if mode == "directed" else model_size_undirected)(n, d)
    reps = list(_orbits(n, d, p))
    counts, fact = _class_counts([sig for sig, _ in reps], n, d, p, mode)
    total = sum(w * _multinomial(sig, fact) * c for (sig, w), c in zip(reps, counts))
    return Fraction(total, size)


def count_graphs_directed(sig: Sequence[int], d: int, p: int) -> int:
    return count_graphs(sig, d, p, "directed")


def count_graphs_undirected(sig: Sequence[int], d: int, p: int) -> int:
    return count_graphs(sig, d, p, "undirected")


def master_sum_directed(n: int, d: int, p: int) -> Fraction:
    return master_sum(n, d, p, "directed")


def master_sum_undirected(n: int, d: int, p: int) -> Fraction:
    return master_sum(n, d, p, "undirected")


def class_signatures(n: int, p: int) -> Iterator[tuple[int, ...]]:
    """Histogram classes of nonzero F_p^n vectors: the all-zeros class
    (n_0 = n) is skipped, as the master sums do."""
    for sig in compositions(n, p):
        if sig[0] != n:
            yield sig


def singularity_bound_from_master(master: Fraction, p: int) -> Fraction:
    """P(singular over F_p) <= master/(p-1): every singular outcome has
    at least p-1 nonzero kernel vectors.  Values >= 1 are vacuous."""
    return Fraction(master) / (require_prime(p) - 1)
