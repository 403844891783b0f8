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


def require_mode(mode: str) -> None:
    """InvalidParamsError unless mode is directed or undirected."""
    if mode not in ("directed", "undirected"):
        raise InvalidParamsError(f"mode must be directed|undirected, got {mode!r}")


@dataclass(frozen=True)
class GraphParams:
    n: int
    d: int
    mode: str  # "directed" | "undirected"

    def __post_init__(self):
        require_mode(self.mode)
        require_int("n", self.n, 1)
        require_int("d", self.d, 1)
        if self.mode == "undirected" and (self.n * self.d) % 2:
            raise InvalidParamsError(
                f"undirected model needs an even point count n*d, got n={self.n}, d={self.d}"
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
    i and (seed, 2, idx) the sub-seed of row idx of a scaling probe.
    (seed, 1), which once drew a prime, is retired.  SeedSequence(s) and
    SeedSequence((s,)) give the same state, so every path shares one
    tuple layout.
    """
    return np.random.SeedSequence((seed, *path))


def dense_adjacency(targets: np.ndarray) -> np.ndarray:
    """The n x n adjacency from `fibre_targets` rows: entry (k, l) counts
    the points of fibre k joined to fibre l, so an undirected loop adds 2."""
    n = len(targets)
    cells = np.arange(n)[:, None] * n + targets
    return np.bincount(cells.ravel(), minlength=n * n).reshape(n, n)


def dense_gram(targets: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A^T A for the adjacency A of `fibre_targets` rows, in float64:
    entry (j, l) is the sum over rows k of a_kj a_kl, the number of
    pairs of points (s, t) of fibre k joined to fibres j and l, so it
    counts the (t_ks, t_kt) pairs of every row, n d^2 of them; an
    undirected loop adds 2 to a_kk, as in `dense_adjacency`.  Every
    entry is an integer of at most d^2, which float64 holds exactly, and
    the count is made in float64, so `gfcore._certify_gram` can take
    the matrix as it is.

    `out`, a C-contiguous n x n float64 array such as an earlier result
    or the factor `gfcore._certify_gram` returns, is zeroed whatever it
    holds, counted into and returned, so a loop of trials can reuse one
    buffer; without it a new array is made."""
    n = len(targets)
    if out is None:
        out = np.empty((n, n))
    flat = out.reshape(n * n)
    flat.fill(0.0)
    np.add.at(flat, (targets[:, :, None] * n + targets[:, None, :]).ravel(), 1.0)
    return out


def adjacency(n: int, d: int, mode: str, order: np.ndarray) -> np.ndarray:
    """Adjacency of the outcome a permutation of the nd points generates:
    the permutation (directed) or the pairing of consecutive entries."""
    return dense_adjacency(fibre_targets(n, d, mode, order))


def directed_adjacency(n: int, d: int, perm: np.ndarray) -> np.ndarray:
    return adjacency(n, d, "directed", perm)


def undirected_adjacency(n: int, d: int, order: np.ndarray) -> np.ndarray:
    return adjacency(n, d, "undirected", order)


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


def fibre_targets(n: int, d: int, mode: str, order: np.ndarray) -> np.ndarray:
    """Row t // d lists, for each point t, the fibre it is joined to.

    A vertex's adjacency row counts the fibres its d points are joined
    to, so these target rows are the sparse form of the adjacency rows.
    The columns of a directed adjacency are the target rows of the
    inverse permutation, np.argsort(order); an undirected one is symmetric.
    """
    order = np.asarray(order)
    if mode == "directed":
        return (order // d).reshape(n, d)
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

