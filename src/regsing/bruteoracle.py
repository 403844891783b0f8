"""Ground-truth enumeration of the entire model at tiny sizes.

The directed model is every permutation of the nd points; the
undirected model is every perfect pairing.  `adjacency_census` tallies
either model by adjacency matrix, after the point-count guard and the
parity of nd are checked.  The permutations come in lexicographic
blocks of at most 7! rows (`permutation_blocks`), the pairings as
partner rows in blocks of at most 945 (`pairing_blocks`), and one tally
serves both streams: it keys each outcome by the indices of its rows
among the compositions of d into n parts and counts the keys with
`np.unique`.  It visits every outcome once and never uses a weight
formula or a symmetry, so the census stays independent of `exactcount`.

That census is the oracle that certifies the per-class counting
identities: for each vector v over F_p, tally the outcomes whose rows
all kill v, then compare with the closed-form counts, class by class
and vector by vector.  The brute master sum adds the tallies of every
nonzero vector, so comparing it with `exactcount.master_sum`, which
counts one class per unit orbit (and per shift orbit when p | d), also
certifies the orbit sum and its weights.
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
from .walkdist import compositions, phi

# Largest point counts nd the oracles enumerate: (nd)! <= 362880
# permutations, (nd-1)!! <= 10395 pairings
MAX_POINTS_DIRECTED = 9
MAX_POINTS_UNDIRECTED = 12
# Largest p**n the certification tallies: it holds every vector of
# F_p^n, and each census row is applied to all of them
MAX_VECTORS = 4096
# The directed census enumerates blocks of at most BLOCK_POINTS! rows
BLOCK_POINTS = 7
# Most kill flags (row sets x rows x vectors) the tallies AND at once:
# 1 MiB of bool
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


def _census(n: int, d: int, mode: str) -> tuple[np.ndarray, dict[int, int]]:
    """(rows, tally): the R compositions of d into n parts in lex order,
    and the number of outcomes of each matrix, keyed sum_k i_k * R**k
    when its row k is rows[i_k]; the point caps keep R**n below 2**63.

    Point t lies in fibre t // d.  A row of either stream (a permutation,
    or the partner of each point of a pairing) adds one to cell
    (fibre(t), fibre(row[t])) for every t, so a pair adds one to both
    symmetric cells, a loop two to the diagonal, and each row sums to d.
    Row k is found by its base-(d+1) code, (d+1)**fibre(row[t]) summed
    over the d points t of fibre k.
    """
    n, d = _check_model(n, d, mode)
    stream = permutation_blocks if mode == "directed" else pairing_blocks
    rows = np.array(list(compositions(d, n)), dtype=np.int64)
    base = (d + 1) ** np.arange(n)
    term = np.zeros((n, (d + 1) ** n), dtype=np.int64)  # term[k, code]: i_k * R**k
    term[:, rows @ base] = len(rows) ** np.arange(n)[:, None] * np.arange(len(rows))
    digit = base[np.arange(n * d) // d]  # point q adds (d+1)**fibre(q) to a code
    tally: Counter = Counter()
    for block in stream(n * d):
        # point-major, so that the d points of each fibre sum over whole rows
        codes = np.take(digit, block.T).reshape(n, d, -1).sum(axis=1)
        keys = sum(term[k, code] for k, code in enumerate(codes))
        keys, counts = np.unique(keys, return_counts=True)
        tally.update(dict(zip(keys.tolist(), counts.tolist())))
    return rows, tally


def adjacency_census(n: int, d: int, mode: str) -> dict[tuple[tuple[int, ...], ...], int]:
    """Tally of adjacency matrices over every outcome of the model."""
    rows, tally = _census(n, d, mode)
    rows, r = [tuple(row) for row in rows.tolist()], len(rows)
    return {tuple(rows[key // r**k % r] for k in range(n)): c for key, c in tally.items()}


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


def _vector_tallies(rows: np.ndarray, tally: dict[int, int], n: int, p: int) -> list[int]:
    """For every v in F_p^n (lex order), the number of outcomes killing v.

    The kill table says which of the R census rows kill which vectors,
    one exact int64 product of the rows and the vectors mod p.  A v = 0
    exactly when every row of A kills v, so the matrices with one set of
    rows kill the same vectors: each set, a bit mask over the R < 63
    rows, ANDs the kill flags of its rows once, at most
    TALLY_CHUNK_ENTRIES flags at a time, and adds the outcome counts of
    its matrices to the vectors it kills.
    """
    vectors = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64).T
    kills = rows @ vectors % p == 0
    keys, r = np.fromiter(tally, dtype=np.int64, count=len(tally)), len(rows)
    masks = np.zeros(len(keys), dtype=np.int64)
    for k in range(n):  # row by row: n rows of keys at once would double the peak memory
        masks |= 1 << keys // r**k % r
    masks, where = np.unique(masks, return_inverse=True)
    weights = np.zeros(len(masks), dtype=np.int64)
    np.add.at(weights, where, np.fromiter(tally.values(), dtype=np.int64, count=len(tally)))
    tallies = np.zeros(p**n, dtype=np.int64)
    step = max(1, TALLY_CHUNK_ENTRIES // kills.size)
    for lo in range(0, len(masks), step):
        members = masks[lo : lo + step, None] >> np.arange(r) & 1 == 1
        dead = ~(members[:, :, None] & ~kills).any(axis=1)
        tallies += weights[lo : lo + step] @ dead
    return tallies.tolist()


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
    exactcount._require_tables(n, d, p)
    return _certify(*_census(n, d, mode), n, d, p, mode)


def _certify(
    rows: np.ndarray, tally: dict[int, int], n: int, d: int, p: int, mode: str
) -> CertificationReport:
    """`certify_identities` from the census (rows, tally) of the (n, d,
    mode) model, once the caller has checked n, d, p and p**n."""
    report = CertificationReport(n=n, d=d, p=p, mode=mode)
    report.master_exact = exactcount.master_sum(n, d, p, mode)

    tallies = _vector_tallies(rows, tally, n, p)
    by_class: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for v, t in zip(itertools.product(range(p), repeat=n), tallies):
        by_class.setdefault(phi(v, p), []).append((v, t))

    sigs = sorted(by_class)
    for sig, expected in zip(sigs, exactcount.class_counts(sigs, d, p, mode)):
        members = by_class[sig]
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

    # tallies[0] is the zero vector; the census counts the outcomes too,
    # (nd)! or (nd - 1)!!
    report.master_brute = Fraction(sum(tallies) - tallies[0], sum(tally.values()))
    report.passed = (
        report.class_consistent
        and not report.mismatches
        and report.master_brute == report.master_exact
    )
    return report
