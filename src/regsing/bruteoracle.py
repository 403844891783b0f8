"""Ground-truth enumeration of the entire model at tiny sizes.

The directed model is every permutation of the nd points; the
undirected model is every perfect pairing.  `adjacency_census` tallies
either model by adjacency matrix, after the point-count guard and the
parity of nd are checked.  The permutations come in lexicographic
blocks of at most 7! rows (`permutation_blocks`), the pairings as
partner rows in blocks of at most 945 (`pairing_blocks`), and one tally
serves both streams: it maps each row to an exact integer key of its
matrix and counts the keys with `np.unique`.  It visits every outcome
once and never uses a weight formula or a symmetry, so the census stays
independent of `exactcount`.

That census is the oracle that certifies the per-class counting
identities: for each vector v over F_p, tally the outcomes whose
adjacency kills v, then compare with the closed-form counts, class by
class and vector by vector.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import exactcount
from .confmodel import GraphParams
from .errors import CostGuardError
from .gfcore import require_prime
from .walkdist import phi

# Largest point counts nd the oracles enumerate: (nd)! <= 362880
# permutations, (nd-1)!! <= 10395 pairings
MAX_POINTS_DIRECTED = 9
MAX_POINTS_UNDIRECTED = 12
# Largest p**n the certification tallies: it holds every vector of
# F_p^n, and each census matrix is applied to all of them
MAX_VECTORS = 4096
# The directed census enumerates blocks of at most BLOCK_POINTS! rows
BLOCK_POINTS = 7
# Largest product of stacked census matrices and vectors the tallies
# hold at once: 4 MiB of float32
TALLY_CHUNK_ENTRIES = 1 << 20


def _prepend(first: int, perms: np.ndarray) -> np.ndarray:
    """`first` followed by each row of perms renumbered to skip it; the
    renumbering is monotone, so lexicographic order is kept."""
    out = np.empty((len(perms), perms.shape[1] + 1), dtype=np.uint8)
    out[:, 0] = first
    out[:, 1:] = perms + (perms >= first)
    return out


def permutation_blocks(k: int) -> Iterator[np.ndarray]:
    """Every permutation of range(k), in lexicographic order, as the
    uint8 rows of blocks of at most BLOCK_POINTS! rows.

    Each block fixes one arrangement of the first k - BLOCK_POINTS
    points and appends the permutations of the rest.
    """
    tail = np.zeros((1, 0), dtype=np.uint8)
    for size in range(1, min(k, BLOCK_POINTS) + 1):
        tail = np.concatenate([_prepend(first, tail) for first in range(size)])

    def blocks(size: int) -> Iterator[np.ndarray]:
        if size == tail.shape[1]:
            yield tail
            return
        for first in range(size):
            for block in blocks(size - 1):
                yield _prepend(first, block)

    return blocks(k)


def _pair_first(partner: int, table: np.ndarray) -> np.ndarray:
    """Point 0 paired with `partner`, followed by each partner row of
    table relabelled onto the other points in increasing order; the
    relabelling is monotone, so the order of the table is kept."""
    k = table.shape[1] + 2
    rest = np.arange(1, k - 1, dtype=np.uint8)
    rest += rest >= partner  # the points other than 0 and partner
    out = np.empty((len(table), k), dtype=np.uint8)
    out[:, 0], out[:, partner] = partner, 0
    out[:, rest] = rest[table]
    return out


def pairing_blocks(k: int) -> Iterator[np.ndarray]:
    """Every perfect pairing of range(k), k even, as uint8 partner rows
    (row[t] is the point paired with t) in blocks of at most (k-3)!!.

    Point 0 is paired with 1, ..., k-1 in turn and the rest recursively
    the same way, so the first point pairs with each later one in
    increasing order.  Each block fixes the partner of point 0 and
    relabels one shared table of the pairings of k - 2 points.
    """
    table = np.zeros((1, 0), dtype=np.uint8)
    for size in range(2, k - 1, 2):
        table = np.concatenate([_pair_first(partner, table) for partner in range(1, size)])
    if k == 0:
        return iter([table])
    return (_pair_first(partner, table) for partner in range(1, k))


def _check_model(n: int, d: int, mode: str) -> tuple[int, int]:
    """n and d as checked by `GraphParams`; CostGuardError past the point cap."""
    GraphParams(n, d, mode)
    n, d = int(n), int(d)
    cap = MAX_POINTS_DIRECTED if mode == "directed" else MAX_POINTS_UNDIRECTED
    if n * d > cap:
        raise CostGuardError(f"{mode} enumeration needs nd <= {cap}, got nd = {n * d}")
    return n, d


def _census(n: int, d: int, mode: str) -> dict[bytes, int]:
    """Tally of the row-major n*n adjacency bytes over every outcome.

    Point t lies in fibre t // d.  A row of either stream (a permutation,
    or the partner of each point of a pairing) adds one to cell
    (fibre(t), fibre(row[t])) for every t, so a pair adds one to both
    symmetric cells and a loop two to the diagonal.  Entries are at most
    d, so the base-(d+1) number sum_t (d+1)**(fibre(t)*n + fibre(row[t]))
    is an exact key of the matrix while (d+1)**(n*n) < 2**63; past that
    the uint8 rows themselves are tallied.
    """
    _check_model(n, d, mode)
    nd, cells = n * d, n * n
    stream = permutation_blocks if mode == "directed" else pairing_blocks
    points = np.arange(nd)
    fibre = points // d
    cell = fibre[:, None] * n + fibre  # cell of point t sent to point q
    tally: Counter = Counter()
    if (d + 1) ** cells < 2**63:
        weight = (d + 1) ** cell
        for block in stream(nd):
            # column by column: a 2-D gather is slower and twice the memory
            keys = sum(weight[t, block[:, t]] for t in range(nd))
            keys, counts = np.unique(keys, return_counts=True)
            tally.update(dict(zip(keys.tolist(), counts.tolist())))
        keys = np.fromiter(tally, dtype=np.int64, count=len(tally))
        rows = (keys[:, None] // (d + 1) ** np.arange(cells) % (d + 1)).astype(np.uint8)
        return {row.tobytes(): c for row, c in zip(rows, tally.values())}
    for block in stream(nd):
        hits = cell[points, block] + cells * np.arange(len(block))[:, None]
        rows = np.bincount(hits.ravel(), minlength=len(block) * cells).astype(np.uint8)
        # each row viewed as one opaque n*n-byte value; tolist gives bytes
        rows, counts = np.unique(rows.view(f"V{cells}"), return_counts=True)
        tally.update(dict(zip(rows.tolist(), counts.tolist())))
    return dict(tally)


def adjacency_census(n: int, d: int, mode: str) -> dict[tuple[tuple[int, ...], ...], int]:
    """Tally of adjacency matrices over every outcome of the model."""
    return {_unflatten(k, n): c for k, c in _census(n, d, mode).items()}


def _unflatten(flat: bytes, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))


@dataclass
class ClassRow:
    sig: tuple[int, ...]
    class_size: int
    expected: int
    observed: int
    ok: bool


@dataclass
class CertificationReport:
    n: int
    d: int
    p: int
    mode: str
    classes: list[ClassRow] = field(default_factory=list)
    mismatches: list[dict] = field(default_factory=list)
    class_consistent: bool = True
    master_exact: Fraction = Fraction(0)
    master_brute: Fraction = Fraction(0)
    passed: bool = False


def _vector_tallies(census: dict[bytes, int], n: int, p: int) -> list[int]:
    """For every v in F_p^n (lex order), the number of outcomes killing v.

    The census matrices are stacked k at a time into one (k*n, n) block
    and multiplied by the table of all vectors, k bounded so that the
    product holds at most TALLY_CHUNK_ENTRIES entries; a block adds its
    outcome counts times its (k, p**n) table of killed vectors.  The
    product runs in float32 BLAS and is exact: its entries are sums of
    at most n products of a uint8 entry and a residue, below
    255 * n * (p - 1) < 2**24 whenever p**n <= MAX_VECTORS.
    """
    vectors = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.float32).T
    tallies = np.zeros(p**n, dtype=np.int64)
    items = iter(census.items())
    step = max(1, TALLY_CHUNK_ENTRIES // (n * p**n))
    while chunk := list(itertools.islice(items, step)):
        flats, weights = zip(*chunk)
        block = np.frombuffer(b"".join(flats), dtype=np.uint8).reshape(-1, n)
        residues = (block.astype(np.float32) @ vectors).astype(np.int32) % p
        dead = ~residues.reshape(-1, n, p**n).any(axis=1)
        tallies += np.array(weights, dtype=np.int64) @ dead
    return [int(x) for x in tallies]


def certify_identities(n: int, d: int, p: int, mode: str) -> CertificationReport:
    """Tally |{G : A(G)v = 0}| for every v by enumeration and compare with
    the closed-form class counts; also checks that the tally is constant
    within each class and that the brute master sum matches.

    Every guard runs before the census: n, d >= 1, the model's point
    count, p**n against MAX_VECTORS, then the walk-table guard of the
    master sum.
    """
    p = require_prime(p)
    n, d = _check_model(n, d, mode)
    if p**n > MAX_VECTORS:
        raise CostGuardError(f"certification needs p**n <= {MAX_VECTORS} vectors, got {p}**{n}")
    report = CertificationReport(n=n, d=d, p=p, mode=mode)
    report.master_exact = exactcount.master_sum(n, d, p, mode)

    census = _census(n, d, mode)
    tallies = _vector_tallies(census, n, p)
    by_class: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for idx, v in enumerate(itertools.product(range(p), repeat=n)):
        by_class.setdefault(phi(v, p), []).append((v, tallies[idx]))

    nonzero_total = 0
    for sig in sorted(by_class):
        members = by_class[sig]
        expected = exactcount.count_graphs(sig, d, p, mode)
        values = {t for _, t in members}
        if len(values) > 1:
            report.class_consistent = False
        ok = values == {expected}
        report.classes.append(
            ClassRow(
                sig=sig,
                class_size=len(members),
                expected=expected,
                observed=members[0][1],
                ok=ok,
            )
        )
        for v, t in members:
            if t != expected:
                report.mismatches.append({"v": v, "expected": expected, "got": t})
        if sig[0] != n:
            nonzero_total += sum(t for _, t in members)

    # the enumeration counts the outcomes too: (nd)! or (nd - 1)!!
    report.master_brute = Fraction(nonzero_total, sum(census.values()))
    report.passed = (
        report.class_consistent
        and not report.mismatches
        and report.master_brute == report.master_exact
    )
    return report
