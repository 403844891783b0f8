"""Closed-form class counts and master sums for both models."""

import itertools
import math
from fractions import Fraction

import pytest

from regsing import bruteoracle, cli, exactcount, walkdist
from regsing.errors import CostGuardError, DomainError, InvalidModulusError, InvalidParamsError

# Frozen master sums (directed d=3, p=2), certified against the closed
# binomial form of the walk counts before freezing.
MASTER_DIRECTED_D3_P2 = {
    4: Fraction(54, 77),
    8: Fraction(38934, 46189),
    16: Fraction(15694438598118, 13249079564501),
}

# Frozen master sums (undirected d=3, p=2); the n=4 value was also
# verified against full pairing enumeration.
MASTER_UNDIRECTED_D3_P2 = {
    4: Fraction(72, 55),
    8: Fraction(13316400, 7436429),
}


@pytest.mark.parametrize(
    "master", [exactcount.master_sum_directed, exactcount.master_sum_undirected]
)
def test_master_sums_build_one_factorial_table(monkeypatch, master):
    # the factorials and loop weights come from one table per master sum,
    # so math.factorial runs as often for 65 classes as for 33
    master(4, 3, 2)  # the step support is built and cached
    calls = []
    factorial = math.factorial
    monkeypatch.setattr(exactcount.math, "factorial", lambda v: calls.append(v) or factorial(v))
    counts = []
    for n in (32, 64):
        calls.clear()
        master(n, 3, 2)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2
    assert master(8, 3, 2) == {
        exactcount.master_sum_directed: MASTER_DIRECTED_D3_P2,
        exactcount.master_sum_undirected: MASTER_UNDIRECTED_D3_P2,
    }[master][8]


def test_multinomial_examples_and_row_sum():
    assert exactcount.multinomial(4, (2, 2)) == 6
    assert exactcount.multinomial(3, (0, 1, 2)) == 3
    assert exactcount.multinomial(0, (0, 0)) == 1
    # all class multiplicities over F_p^n add up to p^n
    n, p = 5, 3
    total = sum(
        exactcount.multinomial(n, sig)
        for sig in walkdist.compositions(n, p)
    )
    assert total == p**n


def test_validate_signature_errors():
    with pytest.raises(DomainError):
        exactcount.validate_signature((1, 2), 3)
    with pytest.raises(DomainError):
        exactcount.validate_signature((-1, 3), 2)
    # a composite modulus is named as such, not as a length mismatch
    with pytest.raises(InvalidModulusError):
        exactcount.validate_signature((2, 2), 4)
    assert exactcount.validate_signature((0, 2), 2) == (0, 2)
    # entries are refused, not truncated: (1.5, 0.5) is not class (1, 0)
    for sig in ((1.5, 0.5), (True, 1), (1, float("nan"))):
        with pytest.raises(DomainError, match="must be integers"):
            exactcount.validate_signature(sig, 2)
        with pytest.raises(DomainError, match="must be integers"):
            exactcount.count_graphs_directed(sig, 3, 2)
    assert exactcount.validate_signature((1.0, "2"), 2) == (1, 2)


def test_exact_layer_checks_d_n_and_mode():
    for call in (
        lambda: exactcount.count_graphs_directed([1, 1], True, 2),
        lambda: exactcount.count_graphs_undirected([1, 1], 2.0, 2),
        lambda: exactcount.master_sum_directed(3, True, 2),
    ):
        with pytest.raises(InvalidParamsError, match="d must be"):
            call()
    for n in (2.0, True, -1):
        with pytest.raises(InvalidParamsError, match="n must be"):
            exactcount.master_sum_directed(n, 3, 2)
        with pytest.raises(InvalidParamsError, match="n must be"):
            exactcount.master_sum_undirected(n, 3, 2)
    for mode in ("foo", "Directed", None):
        with pytest.raises(InvalidParamsError, match="mode must be"):
            exactcount.count_graphs((1, 1), 3, 2, mode)
        with pytest.raises(InvalidParamsError, match="mode must be"):
            exactcount.master_sum(3, 3, 2, mode)


def test_model_sizes():
    assert exactcount.model_size_directed(2, 3) == math.factorial(6)
    assert exactcount.model_size_undirected(2, 3) == 15
    assert exactcount.model_size_undirected(4, 3) == 10395


def test_class_signatures_count():
    n, p = 6, 3
    sigs = list(exactcount.class_signatures(n, p))
    assert len(sigs) == math.comb(n + p - 1, p - 1) - 1
    assert all(sum(s) == n and s[0] < n for s in sigs)
    with_zero = list(walkdist.compositions(n, p))
    assert len(with_zero) == len(sigs) + 1


def test_hand_anchor_counts():
    assert exactcount.count_graphs_directed((0, 1, 1), 3, 3) == 72
    assert exactcount.count_graphs_undirected((0, 1, 1), 3, 3) == 6
    # no 3-regular digraph on 2 vertices annihilates a nonzero F_2 vector
    assert exactcount.count_graphs_directed((1, 1), 3, 2) == 0
    assert exactcount.count_graphs_directed((0, 2), 3, 2) == 0


def test_master_anchor_values():
    assert exactcount.master_sum_directed(3, 3, 2) == Fraction(27, 28)
    assert exactcount.master_sum_directed(2, 3, 2) == 0
    assert exactcount.master_sum_directed(2, 3, 3) == Fraction(13, 5)
    for n, value in MASTER_DIRECTED_D3_P2.items():
        assert exactcount.master_sum_directed(n, 3, 2) == value
    for n, value in MASTER_UNDIRECTED_D3_P2.items():
        assert exactcount.master_sum_undirected(n, 3, 2) == value


def test_singularity_bound():
    assert exactcount.singularity_bound_from_master(Fraction(27, 28), 2) == Fraction(27, 28)
    assert exactcount.singularity_bound_from_master(Fraction(13, 5), 3) == Fraction(13, 10)


def brute_pairing_matrices(sig, d, p):
    """Scan every symmetric matrix with bounded entries for the conditions."""
    rows = [d * x for x in sig]
    bound = max(rows, default=0)
    upper_keys = [(i, j) for i in range(p) for j in range(i, p)]
    out = set()
    for vals in itertools.product(range(bound + 1), repeat=len(upper_keys)):
        m = [[0] * p for _ in range(p)]
        for (i, j), v in zip(upper_keys, vals):
            m[i][j] = v
            m[j][i] = v
        if any(m[i][i] % 2 for i in range(p)):
            continue
        if any(sum(m[i]) != rows[i] for i in range(p)):
            continue
        if any(sum(j * m[i][j] for j in range(p)) % p for i in range(p)):
            continue
        out.add(tuple(tuple(r) for r in m))
    return out


def pairing_matrix_weight(mat):
    """Ways to realize the data matrix as endpoint pairs: off-diagonal
    entries contribute m_ij! matchings, diagonals m_ii!/(2^{m_ii/2}(m_ii/2)!)."""
    p = len(mat)
    w = 1
    for i in range(p):
        mii = mat[i][i]
        w *= math.factorial(mii) // (2 ** (mii // 2) * math.factorial(mii // 2))
        for j in range(i + 1, p):
            w *= math.factorial(mat[i][j])
    return w


def enumerate_pairing_matrices(sig, d, p):
    """All data matrices for the class, listed: symmetric p x p, even
    diagonal, row sums d*n_i, and sum_j j*m_ij = 0 mod p in every row.

    The reference kernel for the one-pass count: row-wise backtracking
    that re-sums column capacities at each node and checks the
    congruence on each complete row.
    """
    rows = [d * x for x in sig]
    m = [[0] * p for _ in range(p)]
    out = []

    def fill_row(i):
        if i == p:
            out.append(tuple(tuple(r) for r in m))
            return
        budget = rows[i] - sum(m[j][i] for j in range(i))
        if budget >= 0:
            choose(i, i, budget)

    def choose(i, j, rem):
        if j == p - 1:
            v = rem
            if j == i and v % 2:
                return
            if j > i and v > rows[j] - sum(m[k][j] for k in range(i)):
                return
            m[i][j] = m[j][i] = v
            if sum(k * m[i][k] for k in range(p)) % p == 0:
                fill_row(i + 1)
            m[i][j] = m[j][i] = 0
            return
        if j == i:
            top, step = rem, 2
        else:
            top, step = min(rem, rows[j] - sum(m[k][j] for k in range(i))), 1
        for v in range(0, top + 1, step):
            m[i][j] = m[j][i] = v
            choose(i, j + 1, rem - v)
        m[i][j] = m[j][i] = 0

    fill_row(0)
    return out


def reference_count_undirected(sig, d, p, matrices):
    """Sum of weight(M) * prod_i walks_{n_i}(row i) over the given matrices."""
    tables = walkdist.walk_tables(walkdist.build_support(d, p), max(sig))
    walks = [tables.histograms(k) for k in range(max(sig) + 1)]
    total = 0
    for mat in matrices:
        term = pairing_matrix_weight(mat)
        for i in range(p):
            term *= walks[sig[i]].get(tuple(mat[i]), 0)
        total += term
    return total


@pytest.mark.parametrize(
    "sig,d,p",
    [((1, 1), 3, 2), ((2, 0), 3, 2), ((0, 2), 3, 2), ((1, 1, 1), 3, 3), ((0, 1, 1), 3, 3)],
)
def test_pairing_matrix_enumeration_matches_scan(sig, d, p):
    # the listing kernel finds exactly the scanned matrices, and the
    # one-pass count equals the sum over the scan
    scanned = brute_pairing_matrices(sig, d, p)
    assert set(enumerate_pairing_matrices(sig, d, p)) == scanned
    want = reference_count_undirected(sig, d, p, scanned)
    if sum(sig) * d % 2:
        # an odd point count admits no data matrix, and no pairing
        assert not scanned
        with pytest.raises(InvalidParamsError):
            exactcount.count_graphs_undirected(sig, d, p)
    else:
        assert exactcount.count_graphs_undirected(sig, d, p) == want


# (d, p, n): 296 classes in all, empty symbols included (every
# composition of n into p parts is a class, the all-zeros one too)
REFERENCE_GRID = [
    (3, 2, 8), (4, 3, 6), (3, 3, 6), (4, 5, 4), (5, 5, 2),
    (6, 7, 2), (4, 7, 2), (2, 3, 4), (1, 2, 4), (2, 5, 4),
]


def test_one_pass_count_matches_listing_kernel():
    classes = 0
    for d, p, n in REFERENCE_GRID:
        for sig in walkdist.compositions(n, p):
            want = reference_count_undirected(sig, d, p, enumerate_pairing_matrices(sig, d, p))
            assert exactcount.count_graphs_undirected(sig, d, p) == want, (sig, d, p)
            classes += 1
    assert classes == 296


def test_pairing_matrix_weight_and_census():
    # weights times fiber multinomials reproduce the pairing census on
    # two vertices of degree 3
    census = bruteoracle.adjacency_census(2, 3, "undirected")
    loopy = ((2, 1), (1, 2))
    crossing = ((0, 3), (3, 0))
    assert census[loopy] == 9
    assert census[crossing] == 6
    assert pairing_matrix_weight([[2, 1], [1, 2]]) == 1
    assert pairing_matrix_weight([[0, 3], [3, 0]]) == 6
    assert pairing_matrix_weight([[4, 0], [0, 2]]) == 3


def test_pairing_matrix_cost_guard(monkeypatch, capsys):
    # (4, 4) at d=3, p=2 completes three data matrices
    monkeypatch.setattr(exactcount, "PAIRING_MATRIX_CAP", 2)
    with pytest.raises(CostGuardError, match="data matrices"):
        exactcount.count_graphs_undirected((4, 4), 3, 2)
    argv = ["master-sum", "--n", "8", "--d", "3", "--p", "2", "--mode", "undirected"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().out == ""
    monkeypatch.setattr(exactcount, "PAIRING_MATRIX_CAP", 3)
    assert exactcount.count_graphs_undirected((4, 4), 3, 2) > 0


def test_predicted_table_bits_bounds_the_tables():
    # (4+1)*3 + 2 - 1 = 16: comb(16, 2) // 3 = 40 entries of at most 4*2*1 = 8 bits
    assert exactcount.predicted_table_bits(4, 3, 2) == 40 * 8
    for n, d, p in [(8, 3, 2), (6, 3, 3), (5, 4, 3), (4, 3, 5), (3, 4, 7)]:
        tables = walkdist.walk_tables(walkdist.build_support(d, p), n)
        entries = sum(len(t) for t in tables)
        width = max(c.bit_length() for t in tables for c in t.values())
        assert entries * width <= exactcount.predicted_table_bits(n, d, p)


def test_table_cost_guard_admits_the_largest_exact_inputs():
    for n, d, p in [(256, 3, 2), (128, 3, 3), (32, 3, 3), (20, 4, 3), (12, 3, 5), (12, 4, 5)]:
        assert exactcount.predicted_table_bits(n, d, p) <= exactcount.TABLE_BITS_CAP


def test_table_cost_guard_refuses_before_any_table_work(monkeypatch):
    def no_tables(*args):
        raise AssertionError("walk-table work started")

    monkeypatch.setattr(exactcount, "walk_tables", no_tables)
    assert exactcount.predicted_table_bits(200, 6, 7) > exactcount.TABLE_BITS_CAP
    for call in (
        lambda: exactcount.master_sum_directed(200, 6, 7),
        lambda: exactcount.master_sum_undirected(200, 6, 7),
        lambda: exactcount.count_graphs_directed((100, 100, 0, 0, 0, 0, 0), 6, 7),
        lambda: exactcount.count_graphs_undirected((200, 0, 0, 0, 0, 0, 0), 6, 7),
    ):
        with pytest.raises(CostGuardError, match="predicted"):
            call()
    with pytest.raises(InvalidParamsError, match="n must be"):
        exactcount.predicted_table_bits(-1, 3, 2)


def test_master_denominators_divide_model_sizes():
    for n in (2, 3, 4):
        m = exactcount.master_sum_directed(n, 3, 2)
        assert math.factorial(3 * n) % m.denominator == 0
    for n in (2, 4):
        m = exactcount.master_sum_undirected(n, 3, 2)
        assert exactcount.model_size_undirected(n, 3) % m.denominator == 0


def class_term_directed(sig, d, p):
    """One class's master-sum contribution: multinomial(n; sig) * count / (nd)!."""
    n = sum(sig)
    return Fraction(
        exactcount.multinomial(n, sig) * exactcount.count_graphs_directed(sig, d, p),
        exactcount.model_size_directed(n, d),
    )


def test_class_term_directed_assembles_master():
    n, d, p = 3, 3, 2
    total = sum(class_term_directed(sig, d, p) for sig in exactcount.class_signatures(n, p))
    assert total == exactcount.master_sum_directed(n, d, p)
