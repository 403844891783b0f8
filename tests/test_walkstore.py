"""The integer-keyed walk-table store against the tuple-key convolution.

`tuple_walk_tables` is the simple kernel the store replaced: one dict
per step, keyed by histogram tuples.  Every decoded store table must
equal it, however the store got there (cold, extended, re-encoded
under a wider radix, or rebuilt after another support evicted it).
"""

import sys
import threading

import pytest

from regsing import exactcount, walkdist

# (n, d, p): p = 7 included, and several d per p
GRID = [(8, 3, 2), (6, 4, 2), (6, 3, 3), (4, 4, 3), (4, 3, 5), (3, 5, 5), (3, 3, 7), (2, 6, 7)]


def tuple_walk_tables(s, n):
    """Endpoint tables for 0..n steps by tuple-keyed convolution."""
    tables = [{(0,) * s.p: 1}]
    for _ in range(n):
        nxt = {}
        for m, cnt in tables[-1].items():
            for u, mult in s.atoms:
                key = tuple(a + b for a, b in zip(m, u))
                nxt[key] = nxt.get(key, 0) + cnt * mult
        tables.append(nxt)
    return tables


@pytest.fixture
def cold(monkeypatch):
    """Start each test with an empty store cache."""
    monkeypatch.setattr(walkdist, "_store", None)


def assert_matches(tables, oracle):
    assert len(tables) == len(oracle)
    for k, want in enumerate(oracle):
        assert tables.histograms(k) == want, k


@pytest.mark.parametrize("n,d,p", GRID)
def test_store_matches_tuple_convolution(cold, n, d, p):
    s = walkdist.build_support(d, p)
    assert_matches(walkdist.walk_tables(s, n), tuple_walk_tables(s, n))


@pytest.mark.parametrize("n,d,p", [(8, 3, 2), (6, 3, 3), (3, 3, 7)])
def test_extension_in_both_orders(cold, n, d, p):
    s = walkdist.build_support(d, p)
    oracle = tuple_walk_tables(s, n)
    small = walkdist.walk_tables(s, 1)
    large = walkdist.walk_tables(s, n)
    assert_matches(small, oracle[:2])
    assert_matches(large, oracle)
    # a shorter request after a longer one is served from the held tables
    again = walkdist.walk_tables(s, 2)
    assert_matches(again, oracle[:3])
    assert again[2] is large[2]


def test_rebuild_past_the_radix_keeps_old_snapshots(cold):
    s = walkdist.build_support(3, 3)
    oracle = tuple_walk_tables(s, 12)
    first = walkdist.walk_tables(s, 1)
    wide = walkdist.walk_tables(s, 12)
    assert wide.bits > first.bits
    assert 12 * 3 < 1 << wide.bits
    assert_matches(wide, oracle)
    # tables handed out before the re-encoding still decode under their radix
    assert_matches(first, oracle[:2])


def test_interleaved_supports_evict_the_cache(cold):
    cases = [(3, 2, 9), (3, 3, 5), (3, 2, 4), (4, 7, 3), (3, 3, 6), (3, 2, 10)]
    for d, p, n in cases:
        s = walkdist.build_support(d, p)
        assert_matches(walkdist.walk_tables(s, n), tuple_walk_tables(s, n))
    # only the most recent support is held
    assert walkdist._store.support == walkdist.build_support(3, 2)


@pytest.mark.parametrize("n,d,p", [(8, 3, 2), (6, 3, 3), (4, 3, 5)])
def test_cold_and_warm_master_sums_agree(cold, n, d, p):
    directed = exactcount.master_sum_directed(n, d, p)
    walkdist._store = None
    undirected = exactcount.master_sum_undirected(n, d, p)
    # warm the store past n steps, then evict it with another support
    for warm in (walkdist.build_support(d, p), walkdist.build_support(d + 1, p)):
        walkdist.walk_tables(warm, 3 * n)
        assert exactcount.master_sum_directed(n, d, p) == directed
        walkdist.walk_tables(warm, 3 * n)
        assert exactcount.master_sum_undirected(n, d, p) == undirected


def test_walk_distribution_is_a_private_copy(cold):
    s = walkdist.build_support(3, 3)
    want = tuple_walk_tables(s, 4)[4]
    master = exactcount.master_sum_directed(4, 3, 3)
    dist = walkdist.walk_distribution(s, 4)
    assert dist.table == want
    for key in list(dist.table):
        dist.table[key] += 1
    dist.table[(99, 0, 0)] = 5
    assert walkdist.walk_distribution(s, 4).table == want
    assert exactcount.master_sum_directed(4, 3, 3) == master


def test_threads_sharing_the_store_get_correct_tables(cold):
    supports = [walkdist.build_support(3, 2), walkdist.build_support(3, 3)]
    oracles = [tuple_walk_tables(s, 12) for s in supports]
    failures = []

    def worker(seed):
        try:
            for i in range(40):
                which, n = (seed + i) % 2, (seed * 7 + i * 5) % 13
                tables = walkdist.walk_tables(supports[which], n)
                if [tables.histograms(k) for k in range(n + 1)] != oracles[which][: n + 1]:
                    failures.append((seed, i))
        except Exception as exc:  # reported through the assertion below
            failures.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
