"""The integer-keyed walk tables against the tuple-key convolution.

`tuple_walk_tables` is the simple kernel the integer keys replaced: one
dict per step, keyed by histogram tuples.  Every decoded table must
equal it, whatever was asked before (fewer steps, more steps, another
support), and whichever step kernel ran (the dict loop, or numpy with
int64 or Python int counts, in one chunk or many).  The steps
`walk_steps` serves past the h it builds, one key at a time, must read
as the same tables.  Each call builds its own tables, so a caller that
writes to them changes no later result.
"""

import sys
import threading
from fractions import Fraction

import numpy as np
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
def numpy_steps(monkeypatch):
    """The (pairs, count dtype) of every numpy step, in order."""
    calls = []
    step = walkdist._numpy_step

    def spy(prev, atoms, dtype):
        calls.append((len(prev) * len(atoms), dtype))
        return step(prev, atoms, dtype)

    monkeypatch.setattr(walkdist, "_numpy_step", spy)
    return calls


def assert_matches(tables, oracle):
    assert len(tables) == len(oracle)
    for k, want in enumerate(oracle):
        assert tables.histograms(k) == want, k


def read(tables, k, points):
    """Step k of `walk_steps` tables at each histogram in `points`."""
    return [tables[k].get(tables.key(m), 0) for m in points]


@pytest.mark.parametrize("n,d,p", GRID)
def test_store_matches_tuple_convolution(n, d, p):
    s = walkdist.build_support(d, p)
    assert_matches(walkdist.walk_tables(s, n), tuple_walk_tables(s, n))


@pytest.mark.parametrize("vector_pairs", [0, 10**12], ids=["numpy", "dict"])
@pytest.mark.parametrize("n,d,p", GRID)
def test_each_step_kernel_matches_tuple_convolution(
    monkeypatch, numpy_steps, vector_pairs, n, d, p
):
    monkeypatch.setattr(walkdist, "VECTOR_PAIRS", vector_pairs)
    s = walkdist.build_support(d, p)
    assert_matches(walkdist.walk_tables(s, n), tuple_walk_tables(s, n))
    assert len(numpy_steps) == (n if vector_pairs == 0 else 0)


@pytest.mark.parametrize("n,d,p", [(8, 3, 2), (6, 3, 3), (3, 5, 5), (2, 6, 7)])
def test_numpy_steps_merge_many_chunks(monkeypatch, numpy_steps, n, d, p):
    # one entry per chunk, so that each step merges many reduced chunks,
    # and dicts built and decoded three keys at a time
    monkeypatch.setattr(walkdist, "VECTOR_PAIRS", 0)
    monkeypatch.setattr(walkdist, "CHUNK_PAIRS", 3)
    monkeypatch.setattr(walkdist, "DECODE_CHUNK", 3)
    merged = []
    merge = walkdist._merge
    monkeypatch.setattr(walkdist, "_merge", lambda parts: merged.append(len(parts)) or merge(parts))
    s = walkdist.build_support(d, p)
    assert_matches(walkdist.walk_tables(s, n), tuple_walk_tables(s, n))
    assert len(numpy_steps) == n
    assert max(merged) >= 3


@pytest.mark.parametrize("n,d,p", [(9, 6, 3), (11, 5, 3)])
def test_numpy_counts_become_python_ints_where_the_table_bound_reaches_2_63(
    monkeypatch, numpy_steps, n, d, p
):
    # the step total p**(k(d-1)) first reaches 2**63 at step n - 1: 3**40,
    # yet no count there can, as the largest count of step n - 2 times
    # p**(d-1) is below 2**63; that bound first reaches 2**63 at step n
    monkeypatch.setattr(walkdist, "VECTOR_PAIRS", 0)
    assert p ** ((n - 2) * (d - 1)) < 2**63 <= p ** ((n - 1) * (d - 1))
    s = walkdist.build_support(d, p)
    tables = walkdist.walk_tables(s, n)
    assert max(tables[n - 2].values()) * s.total < 2**63 <= max(tables[n - 1].values()) * s.total
    assert [dtype for _, dtype in numpy_steps] == [np.int64] * (n - 1) + [object]
    assert_matches(tables, tuple_walk_tables(s, n))
    assert sum(tables[n].values()) == p ** (n * (d - 1))
    assert all(type(c) is int for t in tables for c in t.values())
    assert all(type(k) is int for t in tables for k in t)


def test_default_crossover_vectorizes_the_step_past_2_63(numpy_steps):
    # (9, 6, 3): step 9 has 4,090 pairs, and its counts are Python ints
    s = walkdist.build_support(6, 3)
    assert_matches(walkdist.walk_tables(s, 9), tuple_walk_tables(s, 9))
    assert numpy_steps[-1] == (4090, object)
    assert all(pairs >= walkdist.VECTOR_PAIRS for pairs, _ in numpy_steps)


def test_wide_keys_stay_in_the_dict_loop(numpy_steps):
    # (4, 2, 23): the radix is 4 bits, so keys are 92 bits wide and int64
    # sums would wrap; its steps reach 4,368 pairs, past the crossover
    assert exactcount.predicted_table_bits(4, 2, 23) <= exactcount.TABLE_BITS_CAP
    s = walkdist.build_support(2, 23)
    tables = walkdist.walk_tables(s, 4)
    assert tables.bits * 23 == 92
    assert len(tables[3]) * len(s.atoms) == 4368 >= walkdist.VECTOR_PAIRS
    assert_matches(tables, tuple_walk_tables(s, 4))
    assert numpy_steps == []


@pytest.mark.parametrize("n,d,p", [(8, 3, 2), (6, 3, 3), (3, 3, 7)])
def test_extension_in_both_orders(n, d, p):
    s = walkdist.build_support(d, p)
    oracle = tuple_walk_tables(s, n)
    small = walkdist.walk_tables(s, 1)
    large = walkdist.walk_tables(s, n)
    assert_matches(small, oracle[:2])
    assert_matches(large, oracle)
    assert_matches(walkdist.walk_tables(s, 2), oracle[:3])


def test_rebuild_past_the_radix_keeps_old_snapshots():
    s = walkdist.build_support(3, 3)
    oracle = tuple_walk_tables(s, 12)
    first = walkdist.walk_tables(s, 1)
    wide = walkdist.walk_tables(s, 12)
    assert wide.bits > first.bits
    assert 12 * 3 < 1 << wide.bits
    assert_matches(wide, oracle)
    # each call keys its tables under the radix sized for its own steps
    assert_matches(first, oracle[:2])


def test_interleaved_supports_evict_the_cache():
    cases = [(3, 2, 9), (3, 3, 5), (3, 2, 4), (4, 7, 3), (3, 3, 6), (3, 2, 10)]
    for d, p, n in cases:
        s = walkdist.build_support(d, p)
        assert_matches(walkdist.walk_tables(s, n), tuple_walk_tables(s, n))


@pytest.mark.parametrize("n,d,p", [(8, 3, 2), (6, 3, 3), (4, 3, 5), (8, 3, 3)])
def test_writes_to_returned_tables_change_no_later_count(n, d, p):
    s = walkdist.build_support(d, p)
    directed = exactcount.master_sum_directed(n, d, p)
    undirected = exactcount.master_sum_undirected(n, d, p)
    want = tuple_walk_tables(s, n)[n]
    # every dict of one call, step 0 included, gains 1 per entry and a new key
    for table in walkdist.walk_tables(s, n):
        for key in list(table):
            table[key] += 1
        table[-1] = 5
    assert exactcount.master_sum_directed(n, d, p) == directed
    assert exactcount.master_sum_undirected(n, d, p) == undirected
    assert walkdist.walk_distribution(s, n).table == want


def test_walk_distribution_is_a_private_copy():
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


def test_threads_sharing_the_store_get_correct_tables():
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
                # every entry of one step, through a view past the steps
                # built, while other threads build tables of their own
                k = (n + i) % 13
                steps = walkdist.walk_steps(supports[which], k, k, 1)
                if read(steps, k, oracles[which][k]) != list(oracles[which][k].values()):
                    failures.append((seed, i, "views"))
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


@pytest.mark.parametrize("before", ["smaller", "evicted"])
def test_targeted_entries_after_a_smaller_request_and_an_eviction(before):
    # (8, 3, 3) with j = 4: 4-step tables have a 4-bit radix, and the
    # step 8 coordinates run to 24, so the targeted tables need a wider one
    s = walkdist.build_support(3, 3)
    oracle = tuple_walk_tables(s, 8)[8]
    master = exactcount.master_sum_directed(8, 3, 3)
    assert 8 * 3 >= 1 << walkdist.walk_tables(s, 4).bits
    if before == "evicted":
        walkdist.walk_tables(walkdist.build_support(3, 2), 2)
    tables = walkdist.walk_steps(s, 8, 8, 1)
    assert 8 * 3 < 1 << tables.bits
    # one read: no step past 4 is built
    assert [isinstance(t, walkdist._StepView) for t in tables] == [False] * 5 + [True] * 4
    assert read(tables, 8, oracle) == list(oracle.values())
    # off the 8-step support: a wrong total, and keys that a narrow radix
    # would alias
    assert read(tables, 8, [(8, 8, 9), (0, 16, 16), (16, 8, 0), (0, 0, 0)]) == [0] * 4
    assert exactcount.master_sum_directed(8, 3, 3) == master
    walkdist.walk_tables(s, 4)
    assert exactcount.master_sum_undirected(8, 3, 3) == Fraction(14526464, 1956955)


@pytest.mark.parametrize("n,d,p", [(0, 3, 2), (1, 3, 2), (5, 3, 3), (6, 4, 3), (3, 5, 5)])
def test_targeted_entries_match_the_full_table(n, d, p):
    # every point of every step 0..n: the tables built up to
    # h = ceil(n/2), and views past it, also after a longer request
    s = walkdist.build_support(d, p)
    oracle = tuple_walk_tables(s, n)
    h = (n + 1) // 2
    walkdist.walk_tables(s, n + 2)
    tables = walkdist.walk_steps(s, 1, n, 1)
    assert len(tables) == n + 1
    views = [k for k in range(n + 1) if isinstance(tables[k], walkdist._StepView)]
    assert views == list(range(h + 1, n + 1))
    for k, want in enumerate(oracle):
        assert read(tables, k, want) == list(want.values()), k


def assert_stores_steps_to(h, extended):
    """One store was extended to h steps at most, holds steps 0..h, and
    holds no view's entry: each table k has the keys and total of k steps."""
    (store,) = {id(store): store for store, _ in extended}.values()
    assert max(n for _, n in extended) == len(store.tables) - 1 == h
    assert all(len(table) < 270_672 for table in store.tables)  # step 5 at (6, 7)
    tables = walkdist.WalkTables(store.tables, 7, store.bits)
    for k, table in enumerate(store.tables):
        assert sum(table.values()) == 7 ** (k * 5)
        assert {sum(m) for m in tables.histograms(k)} == {6 * k}


@pytest.fixture
def extended(monkeypatch):
    """The (store, steps) of every extension, in order."""
    calls = []
    extend = walkdist._WalkStore.extend
    monkeypatch.setattr(walkdist._WalkStore, "extend",
                        lambda store, n: calls.append((store, n)) or extend(store, n))
    return calls


def test_master_sum_at_6_6_7_reads_step_6_from_smaller_tables(extended, capsys):
    from regsing import cli

    assert cli.main(["master-sum", "--n", "6", "--d", "6", "--p", "7"]) == 0
    assert '"num"' in capsys.readouterr().out
    h = max(n for _, n in extended)
    assert h < 6
    assert_stores_steps_to(h, extended)


def test_undirected_master_sum_at_6_6_7_stores_steps_to_3(extended, capsys):
    # the fills read steps 1..6; steps 4..6 are views, so the 270,672
    # entries of step 5 are never built
    from regsing import cli

    assert cli.main(["master-sum", "--n", "6", "--d", "6", "--p", "7", "--mode", "undirected"]) == 0
    assert '"num"' in capsys.readouterr().out
    assert_stores_steps_to(3, extended)


def test_walk_distribution_after_targeted_entries():
    s = walkdist.build_support(4, 3)
    before = walkdist.walk_distribution(s, 7).table
    points = [(28, 0, 0), (10, 9, 9)]
    steps = walkdist.walk_steps(s, 7, 7, 2)
    assert read(steps, 7, points) == [before[m] for m in points]
    assert isinstance(steps[7], walkdist._StepView)
    assert walkdist.walk_distribution(s, 7).table == before
    assert before == tuple_walk_tables(s, 7)[7]
