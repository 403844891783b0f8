"""Step distribution of the zero-sum histogram walk and its exact n-step law.

A step is the histogram (length-p count vector) of a uniformly random
d-tuple over F_p whose entries sum to zero mod p.  There are p**(d-1)
such tuples; the support compresses to the distinct histograms
("atoms"): compositions u of d into p parts with sum_j j*u_j = 0 mod p,
each carrying multiplicity d!/prod_k u_k!.

The n-step endpoint table holds exact big-integer counts: entry m is
p**(n(d-1)) * P(S_n = m), i.e. the number of ordered atom sequences
(with multiplicity) summing to m.  `walk_tables` serves the tables for
0..n steps from one store per support, keyed by the integer
key(m) = sum_j m_j * R**j, so a convolution step adds one integer to a
key instead of building a tuple.  The store keeps the tables of the
most recent (d, p) only and extends them one convolution at a time
when more steps are asked for; `walk_distribution` decodes one table
into a fresh dict keyed by histogram tuples.

A convolution step runs in one of two kernels.  Below VECTOR_PAIRS
(entry x atom) pairs, or when a key can pass 63 bits (radix bits * p
> 63), a Python loop adds each atom key to each entry key in a dict.
Otherwise numpy adds the int64 keys, sorts the sums and adds up the
products count * multiplicity per distinct key: in int64 while the
step's total p**(k(d-1)) or the previous step's largest count times
p**(d-1) is below 2**63, and as Python ints in an object array above.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import CostGuardError, DomainError, ShapeError
from .gfcore import require_int, require_prime

# Entries per chunk of `_moments`, and the widest limb it splits counts into
MOMENT_CHUNK = 1024
LIMB_BITS = 30

# Step supports held by `build_support`; one per (d, p) in use, and the
# CLI and the exact layer touch a few
SUPPORT_CACHE = 64
# Step kernels of `_WalkStore`: a step with at least VECTOR_PAIRS
# (entry x atom) pairs runs in numpy, a smaller one in the dict loop.
# Process time of one step, best of 3-20, one thread on a 2-vCPU VM:
#
#     pairs  (d, p)  step  counts  dict ms  numpy ms
#       132  (6, 7)     1  int64     0.027     0.070
#       128  (3, 2)    64  object    0.049     0.058
#       256  (3, 2)   128  object    0.092     0.083
#       256  (3, 3)     7  int64     0.071     0.051
#       384  (3, 2)   192  object    0.164     0.134
#       544  (3, 3)    10  int64     0.140     0.082
#       565  (4, 3)     8  int64     0.205     0.084
#     2,105  (4, 3)    15  object    0.945     0.340
#    20,176  (5, 5)     4  int64     5.199     1.348
#
# They break even between 128 and 256 pairs; 512 keeps short chains of
# small tables, such as (3, 2) up to step 255, in the dict loop.
VECTOR_PAIRS = 512
# (entry x atom) pairs per chunk of a numpy step, and keys per chunk of
# the arrays turned into dicts (a step's output, `WalkTables.histograms`)
CHUNK_PAIRS = 2**14
DECODE_CHUNK = 1024
# Refuse a step support predicted above this many bits (compositions
# times their p entries and multiplicity width, see require_support);
# the largest in use, (d, p) = (6, 7), is predicted at 22,176
SUPPORT_BITS_CAP = 2**24


@dataclass(frozen=True)
class SupportTable:
    """Compressed step support: (histogram, multiplicity) pairs in lex order."""

    d: int
    p: int
    atoms: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def total(self) -> int:
        return self.p ** (self.d - 1)


@dataclass(frozen=True)
class MomentData:
    mean: tuple[Fraction, ...]
    cov: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class LatticeDistribution:
    d: int
    p: int
    n: int
    table: dict[tuple[int, ...], int]


def phi(vector: Sequence[int], p) -> tuple[int, ...]:
    """Histogram of symbol frequencies of a vector over F_p."""
    p = require_prime(p)
    counts = [0] * p
    for i, x in enumerate(vector):
        x = int(x)
        if not 0 <= x < p:
            raise DomainError(f"entry {x} at index {i} is outside [0, {p})")
        counts[x] += 1
    return tuple(counts)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative ints summing to `total`, lex order.

    The partial sums u_0, u_0 + u_1, ... of the first parts - 1 entries
    run over the nondecreasing tuples in [0, total], and lex order of
    those is lex order of the compositions; no recursion, so any number
    of parts is fine.
    """
    end = (total,)
    for q in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(operator.sub, q + end, (0,) + q))


def build_support(d: int, p) -> SupportTable:
    """Enumerate the atoms of the step distribution for parameters (d, p).

    The inputs are checked on every call (`require_support`); the table
    of a valid (d, p) is built once and then served from a cache of the
    SUPPORT_CACHE most recent ones, so callers share one immutable table."""
    return _support(*require_support(d, p))


def capped_binomial(m: int, k: int, limit: int) -> int:
    """C(m, k) if it is at most `limit`, else a value in (limit, C(m, k)];
    the partial values C(m - k + i, i), k <= m - k, at least double."""
    k, out = min(k, m - k), 1
    for i in range(1, k + 1):
        out = out * (m - k + i) // i
        if out > limit:
            break
    return out


def require_support(d: int, p) -> tuple[int, int]:
    """Check p prime and d an integer >= 1, and refuse with CostGuardError
    a support predicted above SUPPORT_BITS_CAP bits; returns (d, p) as
    ints.  Each of the C(d + p - 1, d) compositions walks p entries and
    carries a multiplicity below p**d, of ceil(d * log2 p) bits."""
    p = require_prime(p)
    d = require_int("d", d, 1)
    atoms = capped_binomial(d + p - 1, d, SUPPORT_BITS_CAP)
    if atoms > SUPPORT_BITS_CAP or atoms * (p + (p**d - 1).bit_length()) > SUPPORT_BITS_CAP:
        raise CostGuardError(
            f"the step support for d={d}, p={p} is predicted above the cap of "
            f"{SUPPORT_BITS_CAP:.3e} bits: C(d + p - 1, d) compositions of p entries and a "
            "multiplicity each"
        )
    return d, p


@functools.lru_cache(maxsize=SUPPORT_CACHE, typed=True)
def _support(d: int, p: int) -> SupportTable:
    fact = math.factorial
    top = fact(d)
    atoms = []
    for u in compositions(d, p):
        if sum(j * uj for j, uj in enumerate(u)) % p:
            continue
        mult = top
        for uj in u:
            mult //= fact(uj)
        atoms.append((u, mult))
    return SupportTable(d=d, p=p, atoms=tuple(atoms))


def _moments(pairs, p: int) -> MomentData:
    """Exact mean and covariance of a law given as (vector, count) pairs.

    Takes the pairs MOMENT_CHUNK at a time into an int64 coordinate
    matrix M and splits each count into limbs of `bits` bits.  Per limb,
    limb @ M and (M.T * limb) @ M are that limb's share of the sums of
    count*m_j and count*m_j*m_k; they are exact in int64 while
    rows * max(M)**2 * 2**bits < 2**63, so a chunk is cut into slices of
    at most that many rows, and limbs narrower than LIMB_BITS leave room
    for coordinates of 2**16.5 and more.  The shares are shifted back
    into Python ints, and the sums divided once by the total count.
    """
    total = 0
    first = np.zeros(p, dtype=object)
    second = np.zeros((p, p), dtype=object)
    pairs = iter(pairs)
    while chunk := list(itertools.islice(pairs, MOMENT_CHUNK)):
        coords = np.array([m for m, _ in chunk], dtype=np.int64).reshape(len(chunk), p)
        counts = np.array([c for _, c in chunk], dtype=object)
        width = max(c.bit_length() for _, c in chunk)
        square = max(int(coords.max()), 1) ** 2
        bits = min(LIMB_BITS, 62 - square.bit_length())
        if bits < 1:
            raise DomainError(f"coordinates up to {coords.max()} are too large for int64 moments")
        rows = (2**63 - 1) // (square << bits)
        for lo in range(0, len(chunk), rows):
            m, cnt = coords[lo : lo + rows], counts[lo : lo + rows]
            for shift in range(0, width, bits):
                limb = ((cnt >> shift) & ((1 << bits) - 1)).astype(np.int64)
                total += int(limb.sum()) << shift
                first += (limb @ m).astype(object) << shift
                second += ((m.T * limb) @ m).astype(object) << shift
    mean = tuple(Fraction(int(x), total) for x in first)
    cov = tuple(
        tuple(Fraction(int(second[j, k]), total) - mean[j] * mean[k] for k in range(p))
        for j in range(p)
    )
    return MomentData(mean=mean, cov=cov)


def moments(s: SupportTable) -> MomentData:
    """Exact rational mean vector and covariance matrix of one step."""
    return _moments(s.atoms, s.p)


def char_fn(s: SupportTable, t) -> complex | np.ndarray:
    """Characteristic function E[exp(i<t, X>)] of one step.

    `t` is one point of shape (p,), giving a complex number, or k points
    as the rows of a (k, p) array, giving a complex array of length k.
    The phases <t, u> over the atoms u come from a real matmul, and exp
    is taken of 1j * phase.  That gives the same bits as exp of the
    complex matmul (1j * t) @ atoms.T, whose real parts are all zero; but
    with OpenBLAS, np.exp run right after its complex matmul took about
    ten times as long as after the real one (24 against 2.6 ms on
    28,672 phases, one thread).
    """
    t = np.asarray(t, dtype=float)
    if t.shape[-1:] != (s.p,) or t.ndim > 2:
        raise ShapeError(f"t must have shape ({s.p},) or (k, {s.p}), got {t.shape}")
    atoms = np.array([u for u, _ in s.atoms], dtype=float)
    mults = np.array([m for _, m in s.atoms], dtype=float)
    phases = t @ atoms.T
    phi_t = np.exp(1j * phases) @ (mults / float(s.total))
    return complex(phi_t) if t.ndim == 1 else phi_t


class WalkTables(list):
    """Endpoint tables for steps 0..n, keyed by `key`.

    Index k holds the k-step table as a dict from key(m) to the count of
    m.  The dicts are shared with the store's cache, so callers read
    them and never write to them.
    """

    def __init__(self, tables, p: int, bits: int):
        super().__init__(tables)
        self.p = p
        self.bits = bits

    def key(self, m: Sequence[int]) -> int:
        """key(m) = sum_j m_j * R**j with radix R = 2**bits; every
        coordinate held is below R, so key(m + u) = key(m) + key(u)."""
        return _encode(m, self.bits)

    def histograms(self, k: int) -> dict[tuple[int, ...], int]:
        """Table k as a fresh dict keyed by histogram tuples, decoded
        DECODE_CHUNK keys at a time (int64 keys when they fit)."""
        table = self[k]
        dtype = np.int64 if self.bits * self.p <= 63 else object
        keys = np.fromiter(table, dtype, len(table))
        shifts = np.arange(0, self.bits * self.p, self.bits).astype(dtype)
        mask = (1 << self.bits) - 1
        counts = iter(table.values())
        out = {}
        for lo in range(0, len(keys), DECODE_CHUNK):
            coords = (keys[lo : lo + DECODE_CHUNK, None] >> shifts) & mask
            out.update(zip(map(tuple, coords.tolist()), counts))
        return out


def _encode(m: Sequence[int], bits: int) -> int:
    out = 0
    for x in reversed(m):
        out = (out << bits) | x
    return out


def _decode(key: int, bits: int, p: int) -> tuple[int, ...]:
    mask = (1 << bits) - 1
    return tuple([(key >> shift) & mask for shift in range(0, bits * p, bits)])


class _WalkStore:
    """The tables of one support for steps 0..k, extended on demand.

    Coordinates of a k-step endpoint are at most k*d, so the radix
    2**bits holds every step up to (2**bits - 1) // d.  A request past
    that re-encodes the held tables under a radix for at least twice as
    many steps.

    A step runs in one of two kernels.  `_dict_step` loops over entries
    and atoms in Python; `_numpy_step` adds every atom key to every
    entry key in int64 and sums the counts per distinct key.  The numpy
    step is taken when the step has at least VECTOR_PAIRS (entry x atom)
    pairs and every key fits int64 (bits * p <= 63); wide keys, such as
    the 92 bits of (d, p) = (2, 23) at 4 steps, stay in the dict loop,
    since int64 key sums would wrap.  The numpy step's counts are int64
    while step k's total p**(k(d-1)) or max(step k-1) * p**(d-1), each
    a bound on every partial sum, is below 2**63, and Python ints in an
    object array from there on.
    """

    def __init__(self, s: SupportTable, n: int):
        self.support = s
        self.bits = (max(n, 1) * s.d).bit_length()
        self.tables: list[dict[int, int]] = [{0: 1}]

    def extend(self, n: int) -> None:
        s = self.support
        if n * s.d >= 1 << self.bits:
            old, self.bits = self.bits, max(self.bits + 1, (n * s.d).bit_length())
            self.tables = [
                {_encode(_decode(k, old, s.p), self.bits): c for k, c in t.items()}
                for t in self.tables
            ]
        atoms = [(_encode(u, self.bits), mult) for u, mult in s.atoms]
        # atoms grouped by multiplicity: one product per group and entry
        by_mult: dict[int, list[int]] = {}
        for u, mult in atoms:
            by_mult.setdefault(mult, []).append(u)
        groups = list(by_mult.items())
        vector = self.bits * s.p <= 63
        while len(self.tables) <= n:
            prev = self.tables[-1]
            if vector and len(prev) * len(atoms) >= VECTOR_PAIRS:
                # a step k count is a sum of step k-1 counts times
                # multiplicities, which sum to p**(d-1); the second test
                # runs only where the total p**(k(d-1)) reaches 2**63
                small = (s.p ** (len(self.tables) * (s.d - 1)) < 2**63
                         or max(prev.values()) * s.total < 2**63)
                self.tables.append(_numpy_step(prev, atoms, np.int64 if small else object))
            else:
                self.tables.append(_dict_step(prev, groups))


def _dict_step(prev: dict[int, int], groups: list[tuple[int, list[int]]]) -> dict[int, int]:
    """One convolution step by a Python loop over entries and atoms, the
    atom keys grouped by multiplicity."""
    nxt: dict[int, int] = {}
    get = nxt.get
    for k, cnt in prev.items():
        for mult, keys in groups:
            step = cnt * mult
            for u in keys:
                key = k + u
                nxt[key] = get(key, 0) + step
    return nxt


def _numpy_step(prev: dict[int, int], atoms: list[tuple[int, int]], dtype) -> dict[int, int]:
    """One convolution step in numpy, on int64 keys.

    Counts are int64 when the caller has shown that no sum can reach
    2**63, else an object array of Python ints.  The (entry x atom)
    pairs are taken CHUNK_PAIRS at a time and each chunk is reduced to
    its distinct keys.  Reduced chunks wait until they hold more entries
    than the merged result, and are then merged into it, so every entry
    is merged O(log(pairs)) times and the arrays held stay within a
    small multiple of the output table.
    """
    keys = np.fromiter(prev, np.int64, len(prev))
    counts = np.fromiter(prev.values(), dtype, len(prev))
    atom_keys = np.array([u for u, _ in atoms], dtype=np.int64)
    mults = np.array([m for _, m in atoms], dtype=dtype)
    rows = max(1, CHUNK_PAIRS // len(atoms))
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    merged = pending = 0
    for lo in range(0, len(keys), rows):
        sums = (keys[lo : lo + rows, None] + atom_keys).ravel()
        parts.append(_reduce(sums, (counts[lo : lo + rows, None] * mults).ravel(), "quicksort"))
        pending += len(parts[-1][0])
        if pending > merged:
            parts = [_merge(parts)]
            merged, pending = len(parts[0][0]), 0
    keys, counts = _merge(parts)
    # release the merged pieces, and build the dict from slices, so that
    # no full-length list of Python ints is held beside it
    parts.clear()
    nxt: dict[int, int] = {}
    for lo in range(0, len(keys), DECODE_CHUNK):
        hi = lo + DECODE_CHUNK
        nxt.update(zip(keys[lo:hi].tolist(), counts[lo:hi].tolist()))
    return nxt


def _reduce(keys: np.ndarray, counts: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted, and the sum of the counts of each.

    A chunk of sums is sorted by quicksort; a merge sorts sorted runs,
    which the stable sort takes up to 2.5x faster (0.46 against 1.14 ms
    on eight runs of 45,785 keys in all).
    """
    order = np.argsort(keys, kind=kind)
    keys, counts = keys[order], counts[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[first], np.add.reduceat(counts, first)


def _merge(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The reduced parts as one; a single part is already reduced."""
    if len(parts) == 1:
        return parts[0]
    return _reduce(
        np.concatenate([k for k, _ in parts]), np.concatenate([c for _, c in parts]), "stable"
    )


# The store of the most recent support only: callers alternate between
# a few (d, p), and holding every one of them costs more memory than
# rebuilding.  The lock keeps a store from being extended or replaced
# by two threads at once.
_store: _WalkStore | None = None
_store_lock = threading.Lock()


def walk_tables(s: SupportTable, n: int) -> WalkTables:
    """Exact endpoint tables for 0..n steps (index k holds the k-step
    law), integer-keyed, from the cached store of the last support."""
    global _store
    n = require_int("n", n, 0)
    with _store_lock:
        if _store is None or _store.support != s:
            _store = _WalkStore(s, n)
        _store.extend(n)
        return WalkTables(_store.tables[: n + 1], s.p, _store.bits)


def walk_distribution(s: SupportTable, n: int) -> LatticeDistribution:
    """The n-step endpoint law, with exact big-integer counts, as a fresh
    histogram-keyed dict (the last table of `walk_tables`, decoded)."""
    return LatticeDistribution(d=s.d, p=s.p, n=n, table=walk_tables(s, n).histograms(n))


def table_moments(dist: LatticeDistribution) -> MomentData:
    """Exact rational mean/covariance of an endpoint table."""
    return _moments(dist.table.items(), dist.p)

