"""Uniform d-regular multigraph samplers (directed and undirected).

Both models work on n*d "points": point t belongs to the fiber of
vertex t // d.  Directed: a uniform permutation P of the points sends
each point of fiber k to some fiber l, contributing one k->l edge, so
every row and column sum of the adjacency matrix is d.  Undirected: a
uniform perfect pairing of the points; each cross pair adds 1 to both
symmetric entries, and a within-fiber pair (a loop) adds 2 to the
diagonal, keeping row sums d and diagonals even.

The generating permutation or pairing order is retained as a witness so
any sample can be replayed or cross-checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CostGuardError, InvalidParamsError
from .gfcore import require_int

# Cap on n*n and n*d: 4096 vertices, a 128 MiB int64 adjacency.
DENSE_ENTRIES_CAP = 2**24


@dataclass(frozen=True)
class GraphParams:
    n: int
    d: int
    mode: str  # "directed" | "undirected"

    def __post_init__(self):
        if self.mode not in ("directed", "undirected"):
            raise InvalidParamsError(f"mode must be directed|undirected, got {self.mode!r}")
        require_int("n", self.n, 1)
        require_int("d", self.d, 1)
        if self.mode == "undirected" and (self.n * self.d) % 2:
            raise InvalidParamsError(
                f"undirected model needs an even point count, got n*d = {self.n * self.d}"
            )
        if max(self.n * self.n, self.n * self.d) > DENSE_ENTRIES_CAP:
            raise CostGuardError(
                f"n={self.n}, d={self.d}: n*n and n*d must not exceed {DENSE_ENTRIES_CAP}"
            )


@dataclass(frozen=True)
class Graph:
    params: GraphParams
    adjacency: tuple[tuple[int, ...], ...]
    witness: tuple[int, ...]
    seed: int | None = None


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    """The package's one entropy layout; no other code builds a SeedSequence.

    `seed` alone drives `sample`; (seed, 0, i) drives Monte Carlo trial
    i, (seed, 1) the integer-mode 31-bit prime and (seed, 2, idx) the
    sub-seed of row idx of a scaling probe.  SeedSequence(s) and
    SeedSequence((s,)) give the same state, so every path shares one
    tuple layout.
    """
    return np.random.SeedSequence((seed, *path))


def directed_adjacency(n: int, d: int, perm: np.ndarray) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    src = np.arange(n * d) // d
    np.add.at(a, (src, np.asarray(perm) // d), 1)
    return a


def undirected_adjacency(n: int, d: int, order: np.ndarray) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    order = np.asarray(order)
    u = order[0::2] // d
    v = order[1::2] // d
    # loops (u == v) land on the diagonal twice, once per endpoint
    np.add.at(a, (u, v), 1)
    np.add.at(a, (v, u), 1)
    return a


def adjacency(n: int, d: int, mode: str, order: np.ndarray) -> np.ndarray:
    """Adjacency of the outcome generated by a permutation of the nd
    points: the permutation itself (directed) or the pairing of
    consecutive entries (undirected)."""
    if mode == "directed":
        return directed_adjacency(n, d, order)
    return undirected_adjacency(n, d, order)


def sample(params: GraphParams, seed) -> Graph:
    """Draw one outcome; the witness is the permutation of the nd points.

    `seed` is a nonnegative int, or a Generator used as given (the
    returned graph then records no seed).
    """
    if isinstance(seed, np.random.Generator):
        rng, seed_field = seed, None
    else:
        seed_field = require_int("seed", seed, 0)
        rng = np.random.default_rng(seed_sequence(seed_field))
    order = rng.permutation(params.n * params.d)  # the generator's native Fisher-Yates shuffle
    a = adjacency(params.n, params.d, params.mode, order)
    return Graph(
        params=params,
        adjacency=tuple(tuple(int(x) for x in row) for row in a),
        witness=tuple(int(x) for x in order),
        seed=seed_field,
    )


def fibre_targets(
    n: int, d: int, mode: str, order: np.ndarray, columns: bool = False
) -> np.ndarray:
    """Row t // d lists, for each point t, the fibre it is joined to.

    A vertex's adjacency row counts the fibres its d points are joined
    to, so these target rows are the sparse form of the adjacency rows.
    Columns of the directed model read the inverse permutation; the
    undirected matrix is symmetric, so its columns are its rows.
    """
    order = np.asarray(order)
    if mode == "directed":
        if not columns:
            return (order // d).reshape(n, d)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(n * d)
        return (inverse // d).reshape(n, d)
    partner = np.empty_like(order)
    partner[order[0::2]] = order[1::2]
    partner[order[1::2]] = order[0::2]
    return (partner // d).reshape(n, d)


def has_duplicate_rows(targets: np.ndarray) -> bool:
    """True iff two rows of `targets` (from `fibre_targets`) hold the same
    multiset, that is, iff the adjacency has two equal rows (two equal
    columns, for column targets).

    Sorts each row, then the rows, in O(nd log nd), without building
    the adjacency matrix.
    """
    s = np.sort(targets, axis=1)
    s = s[np.lexsort(s.T)]
    return bool((s[1:] == s[:-1]).all(axis=1).any())


def sparse_rows(targets: np.ndarray, p: int | None = None) -> list[dict[int, int]]:
    """The adjacency rows as {column: entry} dicts, read from target rows:
    an entry counts the repeats of its fibre.  With a modulus p the
    entries are reduced mod p, and those that vanish are left out."""
    d = targets.shape[1]
    reduce = p is not None and p <= d
    rows = []
    for t in targets.tolist():
        row = dict.fromkeys(t, 1)
        if len(row) < d:
            for c in row:
                row[c] = t.count(c)
            if reduce:
                row = {c: v % p for c, v in row.items() if v % p}
        rows.append(row)
    return rows


def graph_to_json(g: Graph) -> dict:
    return {
        "n": g.params.n,
        "d": g.params.d,
        "mode": g.params.mode,
        "adjacency": [list(row) for row in g.adjacency],
        "witness": list(g.witness),
        "seed": g.seed,
    }

