"""Brute-force enumeration oracles and identity certification."""

import functools
import itertools
import math

import numpy as np
import pytest

from regsing import bruteoracle, exactcount, gfcore, walkdist
from regsing.errors import CostGuardError, InvalidParamsError

# every directed model the census enumerates, nd <= 9
DIRECTED_MODELS = [(n, d) for n in range(1, 10) for d in range(1, 10) if n * d <= 9]
# every undirected model, even nd <= 12
UNDIRECTED_MODELS = [
    (n, d) for n in range(1, 13) for d in range(1, 13) if n * d <= 12 and n * d % 2 == 0
]


def reference_directed_outcomes(n, d):
    """The Python outcome stream the numpy census replaced: the row-major
    adjacency of every permutation of the nd points, in lexicographic
    order; point t lies in fibre t // d."""
    fiber = [t // d for t in range(n * d)]
    rows = [f * n for f in fiber]
    for perm in itertools.permutations(range(n * d)):
        flat = bytearray(n * n)
        for r, q in zip(rows, perm):
            flat[r + fiber[q]] += 1
        yield flat


def reference_pairings(items):
    """All perfect matchings of the items, flattened with pairs
    consecutive: the first item pairs with each later one in turn."""
    if not items:
        yield ()
        return
    first, rest = items[0], list(items[1:])
    for i, partner in enumerate(rest):
        for tail in reference_pairings(rest[:i] + rest[i + 1 :]):
            yield (first, partner) + tail


def reference_undirected_outcomes(n, d):
    """The Python outcome stream the numpy census replaced: the row-major
    adjacency of every pairing of the nd points, in the order of
    `reference_pairings`; a loop counts twice on the diagonal."""
    fiber = [t // d for t in range(n * d)]
    for order in reference_pairings(range(n * d)):
        flat = bytearray(n * n)
        for t in range(0, n * d, 2):
            u, v = fiber[order[t]], fiber[order[t + 1]]
            flat[u * n + v] += 1
            flat[v * n + u] += 1
        yield flat


def assert_census_matches(census, outcomes):
    # consume the reference stream against the census, holding one dict
    left = {bytes(itertools.chain.from_iterable(a)): c for a, c in census.items()}
    for flat in outcomes:
        key = bytes(flat)
        assert left.get(key, 0) > 0, f"outcome {key!r} over-counted or missing"
        left[key] -= 1
    assert not any(left.values())


@pytest.mark.parametrize("block_points", [1, 3, 7])
def test_permutation_blocks_are_lexicographic_permutations(monkeypatch, block_points):
    monkeypatch.setattr(bruteoracle, "BLOCK_POINTS", block_points)
    for k in range(10 if block_points == 7 else 7):
        want = itertools.permutations(range(k))
        for block in bruteoracle.permutation_blocks(k):
            assert block.dtype == np.uint8
            assert block.shape[1] == k and len(block) <= math.factorial(block_points)
            for row in block.tolist():
                assert tuple(row) == next(want)
        assert next(want, None) is None


@pytest.mark.parametrize("n,d", DIRECTED_MODELS, ids=[f"{n}-{d}" for n, d in DIRECTED_MODELS])
def test_directed_census_matches_the_python_stream(n, d):
    census = bruteoracle.adjacency_census(n, d, "directed")
    assert_census_matches(census, reference_directed_outcomes(n, d))


@pytest.mark.parametrize("n,d", UNDIRECTED_MODELS, ids=[f"{n}-{d}" for n, d in UNDIRECTED_MODELS])
def test_undirected_census_matches_the_python_stream(n, d):
    census = bruteoracle.adjacency_census(n, d, "undirected")
    assert_census_matches(census, reference_undirected_outcomes(n, d))


@pytest.mark.parametrize("k", range(0, 13, 2))
def test_pairing_blocks_are_involutions_in_reference_order(k):
    want = reference_pairings(range(k))
    rows = []
    for block in bruteoracle.pairing_blocks(k):
        assert block.dtype == np.uint8
        assert block.shape[1] == k and len(block) <= math.prod(range(1, k - 2, 2))
        for row in block.tolist():
            # a fixed-point-free involution: row[t] is t's partner
            assert all(row[q] == t != q for t, q in enumerate(row))
            order = next(want)
            assert all(row[a] == b for a, b in zip(order[0::2], order[1::2]))
            rows.append(tuple(row))
    assert next(want, None) is None
    assert len(set(rows)) == len(rows) == math.prod(range(1, k, 2))


def test_enumerate_directed_complete():
    for n, d in [(2, 2), (3, 2), (2, 3)]:
        census = bruteoracle.adjacency_census(n, d, "directed")
        assert sum(census.values()) == exactcount.model_size_directed(n, d)
        for a in census:
            assert all(sum(row) == d for row in a)
            assert all(sum(a[i][j] for i in range(n)) == d for j in range(n))


def test_enumerate_undirected_complete():
    for n, d in [(2, 3), (3, 2), (4, 3)]:
        census = bruteoracle.adjacency_census(n, d, "undirected")
        assert sum(census.values()) == exactcount.model_size_undirected(n, d)
        for a in census:
            assert all(a[i][j] == a[j][i] for i in range(n) for j in range(n))
            assert all(a[i][i] % 2 == 0 for i in range(n))
            assert all(sum(row) == d for row in a)


def test_census_reads_numpy_sizes_as_python_ints():
    # (d + 1)**n in int8 wraps at (6, 2) and sizes the code table negative
    want = bruteoracle.adjacency_census(6, 2, "undirected")
    assert bruteoracle.adjacency_census(np.int8(6), np.int8(2), "undirected") == want


def test_directed_census_anchor():
    census = bruteoracle.adjacency_census(2, 3, "directed")
    assert census[((3, 0), (0, 3))] == 36
    assert census[((2, 1), (1, 2))] == 324
    assert sum(census.values()) == math.factorial(6)


def matrix_census_directed(n, d):
    """Second directed oracle: enumerate matrices with row/column sums d,
    weighted by (d!)^(2n) / prod A_kl! permutations each."""
    row_choices = list(walkdist.compositions(d, n))
    rows_out = []

    def rec(row_idx, col_load, current):
        if row_idx == n:
            if all(c == d for c in col_load):
                rows_out.append(list(current))
            return
        remaining_rows = n - row_idx - 1
        for comp in row_choices:
            new_load = tuple(a + b for a, b in zip(col_load, comp))
            # each column still needs at most d per remaining row
            if any(c > d or d - c > remaining_rows * d for c in new_load):
                continue
            current.append(comp)
            rec(row_idx + 1, new_load, current)
            current.pop()

    rec(0, (0,) * n, [])
    base = math.factorial(d) ** (2 * n)
    census = {}
    for mat in rows_out:
        w = base
        for row in mat:
            for x in row:
                w //= math.factorial(x)
        census[tuple(mat)] = w
    return census


def test_matrix_census_agrees_with_permutation_census():
    assert matrix_census_directed(2, 3) == bruteoracle.adjacency_census(2, 3, "directed")
    assert matrix_census_directed(3, 2) == bruteoracle.adjacency_census(3, 2, "directed")


def test_budget_checks(monkeypatch):
    census = bruteoracle.adjacency_census
    with pytest.raises(CostGuardError):
        census(4, 3, "directed")
    with pytest.raises(CostGuardError):
        census(6, 3, "undirected")
    with pytest.raises(InvalidParamsError):
        census(3, 3, "undirected")
    monkeypatch.setattr(bruteoracle, "MAX_POINTS_DIRECTED", 3)
    monkeypatch.setattr(bruteoracle, "MAX_POINTS_UNDIRECTED", 3)
    with pytest.raises(CostGuardError):
        census(2, 2, "directed")
    with pytest.raises(CostGuardError):
        census(2, 2, "undirected")
    monkeypatch.setattr(bruteoracle, "MAX_POINTS_DIRECTED", 4)
    assert sum(census(2, 2, "directed").values()) == 24


@pytest.mark.parametrize("n,d,p", [
    (9, 1, 11),  # 11**9 vectors
    (3, 1, 1009),  # 1009**3 vectors
    (1, 9, 4093),  # step support predicted above SUPPORT_BITS_CAP
    (4, 3, 2),  # 12 points
])
def test_certify_guards_run_before_any_work(monkeypatch, n, d, p):
    def spy(*args):
        raise AssertionError("work started before the guard refused")

    for name in ("_census", "_vector_tallies"):
        monkeypatch.setattr(bruteoracle, name, spy)
    monkeypatch.setattr(exactcount, "walk_steps", spy)
    with pytest.raises(CostGuardError):
        bruteoracle.certify_identities(n, d, p, "directed")


@pytest.mark.parametrize("n,d", [(0, 3), (2, 0), (2.0, 3), (True, 3)])
def test_certify_refuses_sizes_that_are_not_positive_integers(monkeypatch, n, d):
    # n = 0 once reached the tallies and divided by zero there
    def spy(*args):
        raise AssertionError("work started before the check refused")

    for name in ("_census", "_vector_tallies"):
        monkeypatch.setattr(bruteoracle, name, spy)
    with pytest.raises(InvalidParamsError):
        bruteoracle.certify_identities(n, d, 2, "directed")


def test_vector_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(bruteoracle, "MAX_VECTORS", 25)
    assert bruteoracle.certify_identities(2, 3, 5, "directed").passed
    monkeypatch.setattr(bruteoracle, "MAX_VECTORS", 24)
    with pytest.raises(CostGuardError, match="p\\*\\*n"):
        bruteoracle.certify_identities(2, 3, 5, "directed")


@pytest.mark.parametrize(
    "n,d,p,mode",
    [
        (2, 3, 2, "directed"),
        (2, 3, 3, "directed"),
        (3, 2, 2, "directed"),
        (2, 3, 2, "undirected"),
        (2, 3, 3, "undirected"),
    ],
)
def test_certification_passes(n, d, p, mode):
    report = bruteoracle.certify_identities(n, d, p, mode)
    assert report.passed
    assert not report.mismatches
    assert report.master_exact == report.master_brute
    if mode == "directed":
        assert report.master_exact == exactcount.master_sum_directed(n, d, p)
    else:
        assert report.master_exact == exactcount.master_sum_undirected(n, d, p)


def test_rank_identity_certifies_the_master_sums_on_the_census_box():
    """Summed over every outcome, p**(n - rank_p A) - 1 is the model size
    times the master sum.  Checked for every d >= 2 model the census
    admits (14 directed, 17 undirected) and every p <= 13, one census
    and one rank per distinct matrix: 183 cases match and the step
    support guard refuses 3.  d = 1 gives permutation and matching
    matrices, which are nonsingular.  The same census also certifies by
    vectors every case with p**n <= MAX_VECTORS, d = 1 included: of
    those 219 cases 216 pass, and the guard refuses the same 3.
    """
    refused, matched, certified = [], 0, 0
    for mode, models in (("directed", DIRECTED_MODELS), ("undirected", UNDIRECTED_MODELS)):
        for n, d in models:
            rows, tally = bruteoracle._census(n, d, mode)
            size = sum(tally.values())
            if d > 1:
                keys, r = np.array(list(tally)), len(rows)
                census = list(zip(rows[keys[:, None] // r ** np.arange(n) % r], tally.values()))
            for p in (2, 3, 5, 7, 11, 13):
                by_vectors = p**n <= bruteoracle.MAX_VECTORS
                if d == 1 and not by_vectors:
                    continue
                try:
                    if by_vectors:
                        report = bruteoracle._certify(rows, tally, n, d, p, mode)
                        assert report.passed, (mode, n, d, p)
                        master = report.master_exact
                        certified += 1
                    else:
                        master = exactcount.master_sum(n, d, p, mode)
                except CostGuardError as exc:
                    assert "step support" in str(exc)
                    refused.append((mode, n, d, p))
                    continue
                if d > 1:
                    kernels = sum(c * (p ** (n - gfcore.rank_mod_p(a, p)) - 1) for a, c in census)
                    assert kernels == size * master, (mode, n, d, p)
                    matched += 1
    assert (matched, certified) == (183, 216)
    assert refused == [(mode, 1, d, p) for mode, d, p in
                       (("undirected", 10, 13), ("undirected", 12, 11), ("undirected", 12, 13))]


def test_every_model_the_caps_admit_keys_within_int64():
    # census keys are sum_k i_k * R**k over the R = C(n + d - 1, d) rows,
    # and a row set is an R-bit mask: raising a point cap past a model
    # with R**n >= 2**63 or R >= 63 must fail here
    for cap in (bruteoracle.MAX_POINTS_DIRECTED, bruteoracle.MAX_POINTS_UNDIRECTED):
        for n in range(1, cap + 1):
            for d in range(1, cap // n + 1):
                r = math.comb(n + d - 1, d)
                assert r**n < 2**63 and r < 63, (n, d)
    assert len(bruteoracle._census(12, 1, "undirected")[0]) == 12


def test_certification_covers_every_class():
    report = bruteoracle.certify_identities(2, 3, 3, "directed")
    # every class appears, the all-zeros class included as a sanity row
    assert len(report.classes) == math.comb(2 + 3 - 1, 3 - 1)
    assert all(row.ok for row in report.classes)
    zero_row = next(row for row in report.classes if row.sig[0] == 2)
    assert zero_row.expected == math.factorial(6)
    assert report.master_exact == exactcount.master_sum_directed(2, 3, 3)


def reference_vector_tallies(census, n, p):
    """The per-matrix loop the kill-table tallies replaced: one product
    of each matrix of an `adjacency_census` with the vector table."""
    vectors = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64).T
    tallies = np.zeros(p**n, dtype=np.int64)
    for a, weight in census.items():
        a = np.array(a, dtype=np.int64)
        dead = ~np.any((a @ vectors) % p, axis=0)
        tallies[dead] += weight
    return [int(x) for x in tallies]


@functools.cache
def reference_case(n, d, p, mode):
    # once per case: the loop takes about 9 s at (12, 1, 2) undirected
    return reference_vector_tallies(bruteoracle.adjacency_census(n, d, mode), n, p)


# the criterion 1 and 2 certification cases, plus a p = 5 and a p = 7
# one, and the two largest d = 1 models the vector cap admits at p = 2
TALLY_CASES = [
    (2, 3, 2, "directed"), (2, 3, 3, "directed"), (2, 3, 5, "directed"), (3, 3, 2, "directed"),
    (2, 4, 2, "directed"), (2, 4, 3, "directed"), (4, 2, 2, "directed"), (3, 2, 7, "directed"),
    (8, 1, 2, "directed"),
    (2, 3, 2, "undirected"), (2, 3, 3, "undirected"), (4, 3, 2, "undirected"),
    (2, 4, 2, "undirected"), (3, 4, 2, "undirected"), (2, 5, 5, "undirected"),
    (12, 1, 2, "undirected"),
]


@pytest.mark.parametrize("chunk", [1, 100, bruteoracle.TALLY_CHUNK_ENTRIES])
@pytest.mark.parametrize("n,d,p,mode", TALLY_CASES, ids=[f"{m[0]}{n}-{d}-{p}" for n, d, p, m in TALLY_CASES])
def test_vector_tallies_match_the_per_matrix_loop(monkeypatch, chunk, n, d, p, mode):
    rows, tally = bruteoracle._census(n, d, mode)
    want = reference_case(n, d, p, mode)
    # a chunk of 1 ANDs one row set at a time, 100 cuts uneven blocks
    monkeypatch.setattr(bruteoracle, "TALLY_CHUNK_ENTRIES", chunk)
    assert bruteoracle._vector_tallies(rows, tally, n, p) == want
