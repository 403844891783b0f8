"""Ground-truth enumeration of the entire model at tiny sizes.

The directed model is every permutation of the nd points; the
undirected model is every perfect pairing.  One outcome stream walks
either model, after the point-count guard and the parity of nd are
checked, and `adjacency_census` tallies it by adjacency matrix.  That
census is the oracle that certifies the per-class counting identities:
for each vector v over F_p, tally the outcomes whose adjacency kills v,
then compare with the closed-form counts, class by class and vector by
vector.

A second, independent directed oracle enumerates adjacency matrices
with all row and column sums d directly and weights each by the number
of permutations inducing it, (d!)^(2n) / prod_{k,l} A_kl!.  That weight
formula is derived, not quoted, so it is only trusted after being
validated against the permutation census (see tests); it never replaces
the permutation stream as the primary oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import exactcount
from .errors import CostGuardError, InvalidParamsError
from .walkdist import phi

# Largest point counts nd the oracles enumerate: (nd)! <= 362880
# permutations, (nd-1)!! <= 10395 pairings
MAX_POINTS_DIRECTED = 9
MAX_POINTS_UNDIRECTED = 12


def all_pairings(items: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All perfect matchings of the items, flattened with pairs consecutive.

    Pairs the first remaining item with each other remaining item, so
    each matching appears exactly once.
    """
    if not items:
        yield ()
        return
    first, rest = items[0], list(items[1:])
    for i, partner in enumerate(rest):
        for tail in all_pairings(rest[:i] + rest[i + 1 :]):
            yield (first, partner) + tail


def _outcomes(n: int, d: int, mode: str) -> Iterator[tuple[tuple[int, ...], bytearray]]:
    """Every outcome of the model as (witness, row-major n*n adjacency).

    The witness is the permutation of the nd points (directed, in
    lexicographic order) or the flattened pairing (undirected, in the
    order of `all_pairings`).  Undirected loops count twice on the
    diagonal.
    """
    nd = n * d
    if mode == "directed":
        cap = MAX_POINTS_DIRECTED
    elif mode == "undirected":
        if nd % 2:
            raise InvalidParamsError(f"pairings need an even point count, got nd = {nd}")
        cap = MAX_POINTS_UNDIRECTED
    else:
        raise InvalidParamsError(f"mode must be directed|undirected, got {mode!r}")
    if nd > cap:
        raise CostGuardError(f"{mode} enumeration needs nd <= {cap}, got nd = {nd}")
    fiber = [t // d for t in range(nd)]
    if mode == "directed":
        rows = [f * n for f in fiber]
        for perm in itertools.permutations(range(nd)):
            flat = bytearray(n * n)
            for r, q in zip(rows, perm):
                flat[r + fiber[q]] += 1
            yield perm, flat
    else:
        for order in all_pairings(range(nd)):
            flat = bytearray(n * n)
            for t in range(0, nd, 2):
                u, v = fiber[order[t]], fiber[order[t + 1]]
                flat[u * n + v] += 1
                flat[v * n + u] += 1
            yield order, flat


def adjacency_census(n: int, d: int, mode: str) -> dict[tuple[tuple[int, ...], ...], int]:
    """Tally of adjacency matrices over every outcome of the model."""
    census = Counter(bytes(flat) for _, flat in _outcomes(n, d, mode))
    return {_unflatten(k, n): c for k, c in census.items()}


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


def _vector_tallies(census: dict, n: int, p: int) -> list[int]:
    """For every v in F_p^n (lex order), the number of outcomes killing v."""
    vectors = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64).T
    tallies = np.zeros(p**n, dtype=np.int64)
    for mat, weight in census.items():
        a = np.array(mat, dtype=np.int64)
        dead = ~np.any((a @ vectors) % p, axis=0)
        tallies[dead] += weight
    return [int(x) for x in tallies]


def certify_identities(n: int, d: int, p: int, mode: str) -> CertificationReport:
    """Tally |{G : A(G)v = 0}| for every v by enumeration and compare with
    the closed-form class counts; also checks that the tally is constant
    within each class and that the brute master sum matches."""
    report = CertificationReport(n=n, d=d, p=p, mode=mode)
    census = adjacency_census(n, d, mode)
    if mode == "directed":
        count_fn = exactcount.count_graphs_directed
        model_size = exactcount.model_size_directed(n, d)
        report.master_exact = exactcount.master_sum_directed(n, d, p)
    else:
        count_fn = exactcount.count_graphs_undirected
        model_size = exactcount.model_size_undirected(n, d)
        report.master_exact = exactcount.master_sum_undirected(n, d, p)

    tallies = _vector_tallies(census, n, p)
    by_class: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for idx, v in enumerate(itertools.product(range(p), repeat=n)):
        by_class.setdefault(phi(v, p), []).append((v, tallies[idx]))

    nonzero_total = 0
    for sig in sorted(by_class):
        members = by_class[sig]
        expected = count_fn(sig, d, p)
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

    report.master_brute = Fraction(nonzero_total, model_size)
    report.passed = (
        report.class_consistent
        and not report.mismatches
        and report.master_brute == report.master_exact
    )
    return report
