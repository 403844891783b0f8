"""Step-law support, moments, characteristic function, and endpoint tables."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsing import walkdist
from regsing.errors import (
    CostGuardError, DomainError, InvalidModulusError, InvalidParamsError, ShapeError,
)

# Frozen supports, cross-checked below against tuple enumeration.
SUPPORT_D3_P2 = (((1, 2), 3), ((3, 0), 1))
SUPPORT_D3_P3 = (((0, 0, 3), 1), ((0, 3, 0), 1), ((1, 1, 1), 6), ((3, 0, 0), 1))

# Two-step endpoint table for d=3, p=2, verified against ordered pairs of steps.
TABLE_D3_P2_N2 = {(2, 4): 9, (4, 2): 6, (6, 0): 1}

small_dp = st.tuples(st.integers(min_value=1, max_value=5), st.sampled_from((2, 3, 5)))


def brute_support(d, p):
    """Histogram tally of all zero-sum tuples in F_p^d, independent of walkdist."""
    tally = {}
    for v in itertools.product(range(p), repeat=d):
        if sum(v) % p:
            continue
        hist = tuple(v.count(j) for j in range(p))
        tally[hist] = tally.get(hist, 0) + 1
    return tuple(sorted(tally.items()))


def test_phi_examples():
    assert walkdist.phi((0, 1, 1, 2), 3) == (1, 2, 1)
    assert walkdist.phi((0, 0, 0), 2) == (3, 0)
    assert walkdist.phi((), 5) == (0, 0, 0, 0, 0)
    with pytest.raises(DomainError):
        walkdist.phi((0, 3), 3)
    with pytest.raises(DomainError):
        walkdist.phi((-1, 0), 2)


def test_compositions_count():
    combos = list(walkdist.compositions(3, 2))
    assert combos == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(list(walkdist.compositions(6, 4))) == math.comb(9, 3)
    # lex order, and no recursion depth that grows with the number of parts
    for total, parts in [(0, 3), (2, 1), (4, 3), (3, 5)]:
        combos = list(walkdist.compositions(total, parts))
        assert combos == sorted(combos) == [
            c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total
        ]
    assert next(walkdist.compositions(1, 5000)) == (0,) * 4999 + (1,)


def test_support_cost_guard_refuses_before_enumeration(monkeypatch):
    enumerated = []
    with monkeypatch.context() as patch:
        patch.setattr(walkdist, "_support", lambda d, p: enumerated.append((d, p)))
        # 10**6 + 1 atoms of 10**6 bits; 10**9 + 7 atoms; C(5005, 3) atoms;
        # 786,433 atoms of as many entries
        for d, p in [(10**6, 2), (1, 1_000_000_007), (3, 5003), (1000, 1000003), (1, 786433)]:
            with pytest.raises(CostGuardError, match="predicted above the cap"):
                walkdist.build_support(d, p)
    assert enumerated == []
    # the largest support in use, (6, 7), is predicted at 22,176 bits:
    # 924 compositions, each of 7 entries and a 17-bit multiplicity
    assert math.comb(12, 6) * (7 + math.ceil(6 * math.log2(7))) == 22_176
    assert 22_176 < walkdist.SUPPORT_BITS_CAP
    assert len(walkdist.build_support(6, 7).atoms) == 132
    assert walkdist.build_support(1, 1009).atoms == (((1,) + (0,) * 1008, 1),)


def test_capped_binomial_is_exact_up_to_the_limit():
    for m in range(30):
        for k in range(m + 1):
            for limit in (0, 1, 7, 100, 10**6):
                got, want = walkdist.capped_binomial(m, k, limit), math.comb(m, k)
                assert got == want if want <= limit else limit < got <= want
    # a 400-digit m passes the limit at its first factor
    assert walkdist.capped_binomial(10**400, 10**399, 2**24) == 10**400 - 10**399 + 1


def test_build_support_frozen_atoms():
    assert walkdist.build_support(3, 2).atoms == SUPPORT_D3_P2
    assert walkdist.build_support(3, 3).atoms == SUPPORT_D3_P3


@settings(max_examples=30, deadline=None)
@given(small_dp)
def test_build_support_matches_tuple_enumeration(dp):
    d, p = dp
    s = walkdist.build_support(d, p)
    assert tuple(sorted(s.atoms)) == brute_support(d, p)
    assert sum(m for _, m in s.atoms) == p ** (d - 1) == s.total
    for u, _ in s.atoms:
        assert sum(u) == d
        assert sum(j * u[j] for j in range(p)) % p == 0


def test_build_support_cached_after_validation():
    s = walkdist.build_support(3, 5)
    assert walkdist.build_support(3, 5) is s
    assert walkdist.build_support(3, np.int64(5)) is s
    assert walkdist._support.cache_info().maxsize == walkdist.SUPPORT_CACHE
    # bad inputs are refused on every call, also after the good (3, 5)
    for _ in range(2):
        with pytest.raises(InvalidModulusError):
            walkdist.build_support(3, 4)
        with pytest.raises(InvalidModulusError):
            walkdist.build_support(3, 5.0)
        with pytest.raises(InvalidParamsError, match="d must be"):
            walkdist.build_support(0, 5)
        with pytest.raises(InvalidParamsError, match="d must be"):
            walkdist.build_support(3.0, 5)


def test_d_and_n_must_be_integers():
    # a bool is not taken as 1, nor is a float truncated or left to fail
    # deep in the table code
    for d in (True, 3.0, "3", None):
        with pytest.raises(InvalidParamsError, match="d must be an integer >= 1"):
            walkdist.build_support(d, 2)
    s = walkdist.build_support(3, 2)
    for n in (-1, 2.5, 2.0, True):
        with pytest.raises(InvalidParamsError, match="n must be an integer >= 0"):
            walkdist.walk_tables(s, n)
    assert len(walkdist.walk_tables(s, np.int64(2))) == 3


def test_moments_closed_form_needs_three_factors():
    # for d >= 3 pairs of coordinates are exactly uniform, so the
    # multinomial closed form holds; at d=2 the zero-sum constraint
    # couples the two coordinates and the covariance differs
    for d, p in [(3, 2), (3, 3), (4, 3), (5, 5), (6, 7)]:
        m = walkdist.moments(walkdist.build_support(d, p))
        assert m.mean == tuple([Fraction(d, p)] * p)
        for j in range(p):
            for k in range(p):
                want = (Fraction(d, p) if j == k else Fraction(0)) - Fraction(d, p * p)
                assert m.cov[j][k] == want
    m22 = walkdist.moments(walkdist.build_support(2, 2))
    assert m22.cov[0][0] == 1 != Fraction(2, 2) - Fraction(2, 4)


def brute_moments(d, p):
    total = 0
    mean = [Fraction(0)] * p
    raw2 = [[Fraction(0)] * p for _ in range(p)]
    for v in itertools.product(range(p), repeat=d):
        if sum(v) % p:
            continue
        total += 1
        hist = [v.count(j) for j in range(p)]
        for j in range(p):
            mean[j] += hist[j]
            for k in range(p):
                raw2[j][k] += hist[j] * hist[k]
    mean = [x / total for x in mean]
    cov = tuple(
        tuple(raw2[j][k] / total - mean[j] * mean[k] for k in range(p)) for j in range(p)
    )
    return tuple(mean), cov


def test_moments_match_enumeration_even_at_small_d():
    for d, p in [(1, 2), (2, 2), (2, 3), (3, 3), (4, 2)]:
        m = walkdist.moments(walkdist.build_support(d, p))
        mean, cov = brute_moments(d, p)
        assert m.mean == mean
        assert m.cov == cov


def reference_moments(pairs, p):
    """The Python loop `_moments` replaced: sums count*m_j and
    count*m_j*m_k as Python ints and divides once by the total count."""
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
    return walkdist.MomentData(mean=mean, cov=cov)


# the (d, p, n) tables of the benchmark's exact workload (WALK_GRID)
WALK_GRID = ((5, 5, 3), (5, 5, 4), (6, 5, 3), (6, 5, 4), (5, 7, 3), (4, 7, 4), (6, 7, 3))


@pytest.mark.parametrize("d,p,n", WALK_GRID)
def test_table_moments_match_the_reference_loop(d, p, n):
    s = walkdist.build_support(d, p)
    assert walkdist.moments(s) == reference_moments(s.atoms, p)
    dist = walkdist.walk_distribution(s, n)
    assert walkdist.table_moments(dist) == reference_moments(dist.table.items(), p)


# coordinates past 92681, the largest with 92681**2 * 2**30 < 2**63,
# force narrower limbs and slices of a few rows; counts up to 2**130
# take five or more limbs
moment_tables = st.sampled_from((2, 3, 5, 7)).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(
            st.tuples(
                st.tuples(*[st.one_of(st.integers(0, 4), st.integers(0, 2**30))] * p),
                st.one_of(st.integers(1, 3), st.integers(1, 2**130)),
            ),
            min_size=1,
            max_size=30,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(moment_tables, st.sampled_from((1, 2, 3, 7, 1024)))
def test_moments_match_the_reference_loop_on_random_tables(table, chunk):
    p, pairs = table
    with mock.patch.object(walkdist, "MOMENT_CHUNK", chunk):
        assert walkdist._moments(pairs, p) == reference_moments(pairs, p)


def test_moments_at_the_int64_edge():
    for x in (92681, 92682, 2**30, 1518500249):
        pairs = [((x, 0), 2**100 + 1), ((0, x), 3), ((1, 1), 2**64 - 1)]
        assert walkdist._moments(pairs, 2) == reference_moments(pairs, 2)
        # rows whose limbs are all ones overflow int64 unless sliced
        pairs = [((x, x), 2**130 - 1)] * 40
        assert walkdist._moments(pairs, 2) == reference_moments(pairs, 2)
    # 1518500250**2 >= 2**61: not even a one-bit limb fits beside it
    with pytest.raises(DomainError, match="too large"):
        walkdist._moments([((1518500250, 0), 1)], 2)


def test_char_fn_values_and_shape_check():
    s = walkdist.build_support(3, 2)
    assert walkdist.char_fn(s, (0.0, 0.0)) == pytest.approx(1.0)
    # t = (0, pi): contributions 3*exp(2i*pi) + exp(0) over 4
    assert walkdist.char_fn(s, (0.0, math.pi)) == pytest.approx(1.0)
    with pytest.raises(ShapeError):
        walkdist.char_fn(s, (0.0, 0.0, 0.0))
    # k points as rows give the k single-point values
    pts = np.random.default_rng(2).uniform(-7, 7, size=(9, 2))
    stacked = np.array([walkdist.char_fn(s, t) for t in pts])
    assert np.abs(walkdist.char_fn(s, pts) - stacked).max() <= 1e-15
    with pytest.raises(ShapeError):
        walkdist.char_fn(s, np.zeros((9, 3)))


def brute_two_step_table(s):
    tally = {}
    atoms = list(s.atoms)
    for (u1, m1), (u2, m2) in itertools.product(atoms, repeat=2):
        key = tuple(a + b for a, b in zip(u1, u2))
        tally[key] = tally.get(key, 0) + m1 * m2
    return tally


def test_walk_tables_frozen_and_brute_two_steps():
    s = walkdist.build_support(3, 2)
    tables = walkdist.walk_tables(s, 2)
    assert tables.histograms(2) == TABLE_D3_P2_N2
    assert tables.histograms(2) == brute_two_step_table(s)
    zero = (0, 0)
    assert tables.histograms(0) == {zero: 1}


def test_walk_distribution_total_mass():
    for d, p, n in [(3, 2, 5), (3, 3, 4), (4, 3, 3)]:
        s = walkdist.build_support(d, p)
        dist = walkdist.walk_distribution(s, n)
        assert sum(dist.table.values()) == p ** (n * (d - 1))
        for m in dist.table:
            assert sum(m) == n * d
            assert sum(j * m[j] for j in range(p)) % p == 0


def test_table_moments_scale_linearly():
    for d, p in [(3, 2), (3, 3), (4, 3)]:
        s = walkdist.build_support(d, p)
        base = walkdist.moments(s)
        for n in range(1, 6):
            tm = walkdist.table_moments(walkdist.walk_distribution(s, n))
            assert tm.mean == tuple(n * x for x in base.mean)
            assert tm.cov == tuple(tuple(n * x for x in row) for row in base.cov)


def test_char_fn_power_matches_table_transform():
    s = walkdist.build_support(3, 3)
    n = 4
    dist = walkdist.walk_distribution(s, n)
    total = s.total**n
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = rng.uniform(-4, 4, size=3)
        via_power = walkdist.char_fn(s, t) ** n
        via_table = sum(
            c * np.exp(1j * np.dot(t, m)) for m, c in dist.table.items()
        ) / total
        assert via_power == pytest.approx(via_table, abs=1e-12)

