"""Step distribution of the zero-sum histogram walk and its exact n-step law.

A step is the histogram (length-p count vector) of a uniformly random
d-tuple over F_p whose entries sum to zero mod p.  There are p**(d-1)
such tuples; the support compresses to the distinct histograms
("atoms"): compositions u of d into p parts with sum_j j*u_j = 0 mod p,
each carrying multiplicity d!/prod_k u_k!.

The n-step endpoint table holds exact big-integer counts: entry m is
p**(n(d-1)) * P(S_n = m), i.e. the number of ordered atom sequences
(with multiplicity) summing to m.  It is built by n sequential
convolutions so every intermediate table is available too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .gfcore import require_prime


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
    """All tuples of `parts` nonnegative ints summing to `total`, lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def build_support(d: int, p) -> SupportTable:
    """Enumerate the atoms of the step distribution for parameters (d, p)."""
    p = require_prime(p)
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    fact = math.factorial
    atoms = []
    for u in compositions(d, p):
        if sum(j * uj for j, uj in enumerate(u)) % p:
            continue
        mult = fact(d)
        for uj in u:
            mult //= fact(uj)
        atoms.append((u, mult))
    return SupportTable(d=d, p=p, atoms=tuple(atoms))


def _moments(pairs, p: int) -> MomentData:
    """Exact mean and covariance of a law given as (vector, count) pairs.

    Sums count*m_j and count*m_j*m_k as integers and divides once by the
    total count.
    """
    total = 0
    first = [0] * p
    second = [[0] * p for _ in range(p)]
    for m, cnt in pairs:
        total += cnt
        for j in range(p):
            if m[j]:
                w = cnt * m[j]
                first[j] += w
                row = second[j]
                for k in range(p):
                    if m[k]:
                        row[k] += w * m[k]
    mean = tuple(Fraction(x, total) for x in first)
    cov = tuple(
        tuple(Fraction(second[j][k], total) - mean[j] * mean[k] for k in range(p))
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
    """
    t = np.asarray(t, dtype=float)
    if t.shape[-1:] != (s.p,) or t.ndim > 2:
        raise ShapeError(f"t must have shape ({s.p},) or (k, {s.p}), got {t.shape}")
    atoms = np.array([u for u, _ in s.atoms], dtype=float)
    mults = np.array([m for _, m in s.atoms], dtype=float)
    phi_t = np.exp(1j * t @ atoms.T) @ (mults / float(s.total))
    return complex(phi_t) if t.ndim == 1 else phi_t


def walk_tables(s: SupportTable, n: int) -> list[dict[tuple[int, ...], int]]:
    """Exact endpoint tables for 0..n steps (index k holds the k-step law)."""
    if n < 0:
        raise DomainError(f"step count must be >= 0, got {n}")
    zero = (0,) * s.p
    tables: list[dict[tuple[int, ...], int]] = [{zero: 1}]
    for _ in range(n):
        prev = tables[-1]
        nxt: dict[tuple[int, ...], int] = {}
        for m, cnt in prev.items():
            for u, mult in s.atoms:
                key = tuple(a + b for a, b in zip(m, u))
                step = cnt * mult
                if key in nxt:
                    nxt[key] += step
                else:
                    nxt[key] = step
        tables.append(nxt)
    return tables


def walk_distribution(s: SupportTable, n: int) -> LatticeDistribution:
    """The n-step endpoint law, with exact big-integer counts (the last
    table of `walk_tables`)."""
    return LatticeDistribution(d=s.d, p=s.p, n=n, table=walk_tables(s, n)[-1])


def table_moments(dist: LatticeDistribution) -> MomentData:
    """Exact rational mean/covariance of an endpoint table."""
    return _moments(dist.table.items(), dist.p)

