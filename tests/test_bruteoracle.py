"""Brute-force enumeration oracles and identity certification."""

import math

import pytest

from regsing import bruteoracle, exactcount
from regsing.errors import CostGuardError, InvalidParamsError


def test_all_pairings_counts():
    assert list(bruteoracle.all_pairings(())) == [()]
    assert len(list(bruteoracle.all_pairings(range(4)))) == 3
    assert len(list(bruteoracle.all_pairings(range(6)))) == 15
    seen = set(bruteoracle.all_pairings(range(6)))
    assert len(seen) == 15
    for flat in seen:
        assert sorted(flat) == list(range(6))


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


def test_directed_census_anchor():
    census = bruteoracle.adjacency_census(2, 3, "directed")
    assert census[((3, 0), (0, 3))] == 36
    assert census[((2, 1), (1, 2))] == 324
    assert sum(census.values()) == math.factorial(6)


def test_matrix_census_agrees_with_permutation_census():
    assert bruteoracle.matrix_census_directed(2, 3) == bruteoracle.adjacency_census(2, 3, "directed")
    assert bruteoracle.matrix_census_directed(3, 2) == bruteoracle.adjacency_census(3, 2, "directed")


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


def test_certification_covers_every_class():
    report = bruteoracle.certify_identities(2, 3, 3, "directed")
    # every class appears, the all-zeros class included as a sanity row
    assert len(report.classes) == math.comb(2 + 3 - 1, 3 - 1)
    assert all(row.ok for row in report.classes)
    zero_row = next(row for row in report.classes if row.sig[0] == 2)
    assert zero_row.expected == math.factorial(6)
    assert report.master_exact == exactcount.master_sum_directed(2, 3, 3)
