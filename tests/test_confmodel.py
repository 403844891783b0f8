"""Configuration-model sampling: exactness of the parametrization and uniformity."""

import json

import numpy as np
import pytest

from regsing import confmodel, gfcore
from regsing.errors import InvalidParamsError

# Permutation census for n=2, d=3: out of (nd)! = 720 permutations each
# adjacency below arises the stated number of times.
DIRECTED_CENSUS_2_3 = {
    ((3, 0), (0, 3)): 36,
    ((2, 1), (1, 2)): 324,
    ((1, 2), (2, 1)): 324,
    ((0, 3), (3, 0)): 36,
}

# Pairing census for n=2, d=3: 15 pairings in all, loops count twice on
# the diagonal so cross-edge counts stay odd.
UNDIRECTED_CENSUS_2_3 = {
    ((2, 1), (1, 2)): 9,
    ((0, 3), (3, 0)): 6,
}


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        confmodel.GraphParams(n=0, d=3, mode="directed")
    with pytest.raises(InvalidParamsError):
        confmodel.GraphParams(n=2, d=0, mode="directed")
    with pytest.raises(InvalidParamsError):
        confmodel.GraphParams(n=3, d=3, mode="undirected")
    with pytest.raises(InvalidParamsError):
        confmodel.GraphParams(n=2, d=3, mode="mixed")
    confmodel.GraphParams(n=3, d=3, mode="directed")
    confmodel.GraphParams(n=4, d=3, mode="undirected")


def test_single_vertex_directed_is_all_loops():
    g = confmodel.sample(confmodel.GraphParams(1, 3, "directed"), 7)
    assert g.adjacency == ((3,),)


def test_two_vertex_degree_one_undirected_forced():
    for seed in range(5):
        g = confmodel.sample(confmodel.GraphParams(2, 1, "undirected"), seed)
        assert g.adjacency == ((0, 1), (1, 0))


def test_directed_row_and_column_sums():
    g = confmodel.sample(confmodel.GraphParams(17, 4, "directed"), 11)
    a = np.array(g.adjacency)
    assert a.shape == (17, 17)
    assert (a >= 0).all()
    assert (a.sum(axis=0) == 4).all()
    assert (a.sum(axis=1) == 4).all()


def test_undirected_symmetry_even_diagonal_degree():
    g = confmodel.sample(confmodel.GraphParams(16, 3, "undirected"), 11)
    a = np.array(g.adjacency)
    assert (a == a.T).all()
    assert (np.diag(a) % 2 == 0).all()
    # loops already count twice on the diagonal, so plain row sums give degrees
    assert (a.sum(axis=1) == 3).all()


def test_same_seed_reproduces_different_seed_varies():
    g1 = confmodel.sample(confmodel.GraphParams(20, 3, "directed"), 5)
    g2 = confmodel.sample(confmodel.GraphParams(20, 3, "directed"), 5)
    g3 = confmodel.sample(confmodel.GraphParams(20, 3, "directed"), 6)
    assert g1.adjacency == g2.adjacency
    assert g1.witness == g2.witness
    assert g1.adjacency != g3.adjacency


def test_witness_replay():
    g = confmodel.sample(confmodel.GraphParams(9, 3, "directed"), 3)
    rebuilt = confmodel.directed_adjacency(9, 3, np.array(g.witness))
    assert tuple(tuple(int(x) for x in row) for row in rebuilt) == g.adjacency
    h = confmodel.sample(confmodel.GraphParams(8, 3, "undirected"), 3)
    rebuilt = confmodel.undirected_adjacency(8, 3, np.array(h.witness))
    assert tuple(tuple(int(x) for x in row) for row in rebuilt) == h.adjacency


def reference_directed_adjacency(n, d, perm):
    """Reference kernel: the directed adjacency scattered point by point
    with np.add.at, as it was built before the target rows."""
    a = np.zeros((n, n), dtype=np.int64)
    np.add.at(a, (np.arange(n * d) // d, np.asarray(perm) // d), 1)
    return a


def reference_undirected_adjacency(n, d, order):
    """Reference kernel: each consecutive pair of `order` scattered into
    both symmetric cells with np.add.at."""
    a = np.zeros((n, n), dtype=np.int64)
    order = np.asarray(order)
    u = order[0::2] // d
    v = order[1::2] // d
    # loops (u == v) land on the diagonal twice, once per endpoint
    np.add.at(a, (u, v), 1)
    np.add.at(a, (v, u), 1)
    return a


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_dense_adjacency_matches_the_scatter_reference(mode):
    reference = {"directed": reference_directed_adjacency,
                 "undirected": reference_undirected_adjacency}[mode]
    seen = {"loop": 0, "multi": 0}
    for n in (*range(1, 13), 50, 200):
        for d in (1, 2, 3, 4):
            if mode == "undirected" and (n * d) % 2:
                continue
            for seed in range(20):
                order = np.random.default_rng((seed, n, d)).permutation(n * d)
                a = confmodel.dense_adjacency(confmodel.fibre_targets(n, d, mode, order))
                want = reference(n, d, order)
                assert a.dtype == want.dtype and (a == want).all(), (n, d, seed)
                assert (confmodel.adjacency(n, d, mode, order) == want).all()
                seen["loop"] += bool(np.trace(a))
                seen["multi"] += bool((a - np.diag(np.diag(a)) > 1).any())
    assert seen["loop"] and seen["multi"]


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_dense_gram_is_the_gram_matrix_of_the_adjacency(mode):
    seen = {"loop": 0, "multi": 0}
    for n in (*range(1, 9), 50, 200):
        for d in (1, 2, 3, 4):
            if mode == "undirected" and (n * d) % 2:
                continue
            for seed in range(10):
                order = np.random.default_rng((seed, n, d)).permutation(n * d)
                targets = confmodel.fibre_targets(n, d, mode, order)
                a = confmodel.dense_adjacency(targets)
                gram = confmodel.dense_gram(targets, np.empty((n, n)))
                assert gram.dtype == np.float64 and (gram == a.T @ a).all(), (n, d, seed)
                seen["loop"] += bool(np.trace(a))
                seen["multi"] += bool((a - np.diag(np.diag(a)) > 1).any())
    assert seen["loop"] and seen["multi"]


@pytest.mark.parametrize("mode", ["directed", "undirected"])
@pytest.mark.parametrize("n", [12, 50, 200])
def test_dense_gram_into_a_used_buffer_matches_a_fresh_one(mode, n):
    # a trial counts its Gram matrix into its thread's buffer, whatever the
    # last trial's certificate left there: a Cholesky factor, or NaN
    rng = np.random.default_rng((n, len(mode)))
    first, second = (confmodel.fibre_targets(n, 3, mode, rng.permutation(3 * n)) for _ in range(2))
    want = confmodel.dense_gram(second, np.empty((n, n)))
    used = confmodel.dense_gram(first, np.empty((1, n, n)))
    gfcore._certify_gram(used)
    # B + I is positive definite, so it always leaves a factor; a failed
    # factorization leaves a partial one, or NaN from numpy's gufunc
    factor = confmodel.dense_gram(first, np.empty((1, n, n))) + np.eye(n)
    assert gfcore._certify_gram(factor) == [True]
    failed = np.zeros((1, n, n))
    assert gfcore._certify_gram(failed) == [False]
    for dirty in (used[0], factor[0], failed[0], np.full((n, n), np.nan)):
        gram = confmodel.dense_gram(second, out=dirty)
        assert gram is dirty and (gram == want).all()


@pytest.mark.parametrize("mode", ["directed", "undirected"])
@pytest.mark.parametrize("n,d", [(1, 2), (12, 3), (50, 3), (10, 9)])
def test_a_stack_of_targets_and_grams_matches_its_slices(mode, n, d):
    # a stack of orders gives the stack of each one's target rows, and
    # dense_gram counts a stack of them into a stack of Gram matrices
    rng = np.random.default_rng((n, d, len(mode)))
    orders = np.array([rng.permutation(n * d) for _ in range(5)])
    targets = confmodel.fibre_targets(n, d, mode, orders)
    assert targets.shape == (5, n, d)
    grams = confmodel.dense_gram(targets, out=np.full((5, n, n), np.nan))
    for order, rows, gram in zip(orders, targets, grams):
        assert (rows == confmodel.fibre_targets(n, d, mode, order)).all()
        a = confmodel.dense_adjacency(rows)
        assert (gram == a.T @ a).all()


def _chi_square(counts, expected_weights, total):
    stat = 0.0
    grand = sum(expected_weights.values())
    for key, weight in expected_weights.items():
        expect = total * weight / grand
        observed = counts.get(key, 0)
        stat += (observed - expect) ** 2 / expect
    unknown = sum(v for k, v in counts.items() if k not in expected_weights)
    return stat, unknown


def test_directed_sampler_uniformity_chi_square():
    rng = np.random.default_rng(20240811)
    trials = 100_000
    counts = {}
    params = confmodel.GraphParams(2, 3, "directed")
    for _ in range(trials):
        g = confmodel.sample(params, rng)
        counts[g.adjacency] = counts.get(g.adjacency, 0) + 1
    stat, unknown = _chi_square(counts, DIRECTED_CENSUS_2_3, trials)
    assert unknown == 0
    # df = 3; threshold at the 1 - 1e-6 quantile
    assert stat < 30.66


def test_undirected_sampler_uniformity_chi_square():
    rng = np.random.default_rng(20240812)
    trials = 100_000
    counts = {}
    params = confmodel.GraphParams(2, 3, "undirected")
    for _ in range(trials):
        g = confmodel.sample(params, rng)
        counts[g.adjacency] = counts.get(g.adjacency, 0) + 1
    stat, unknown = _chi_square(counts, UNDIRECTED_CENSUS_2_3, trials)
    assert unknown == 0
    # df = 1; threshold at the 1 - 1e-6 quantile
    assert stat < 23.93


def test_duplicate_row_detect_agrees_with_numpy_and_implies_singularity():
    checked = 0
    for seed in range(300):
        g = confmodel.sample(confmodel.GraphParams(30, 3, "directed"), seed)
        a = np.array(g.adjacency)
        has_dup = len(np.unique(a, axis=0)) < a.shape[0]
        targets = confmodel.fibre_targets(30, 3, "directed", np.array(g.witness))
        assert confmodel.has_duplicate_rows(targets) == has_dup
        if has_dup:
            checked += 1
            assert gfcore.rank_integer(g.adjacency) < 30
    # the seed range must actually exercise the duplicate branch
    assert checked > 0


def test_duplicate_row_keys_match_unique_sorted_rows():
    # (3, 31) is the widest base-n key, 62 bits; (3, 32) and (100, 9) sort
    # the rows themselves
    cases = [(1, 1), (1, 3), (2, 1), (5, 1), (7, 2), (30, 3), (100, 3), (200, 4), (3, 31),
             (3, 32), (100, 9)]
    assert {d * (n - 1).bit_length() > 62 for n, d in cases} == {False, True}
    forced = 0
    for n, d in cases:
        for mode in ("directed", "undirected"):
            if mode == "undirected" and (n * d) % 2:
                continue
            for seed in range(20):
                rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, n, d)))
                targets = confmodel.fibre_targets(n, d, mode, rng.permutation(n * d))
                if seed % 2 and n > 1:
                    # row b repeats row a's multiset in another order
                    a, b = rng.choice(n, size=2, replace=False)
                    targets[b] = rng.permutation(targets[a])
                    forced += 1
                want = len(np.unique(np.sort(targets, axis=1), axis=0)) < n
                assert confmodel.has_duplicate_rows(targets) == want, (n, d, mode, seed)
    assert forced


def test_graph_json_round_trip():
    g = confmodel.sample(confmodel.GraphParams(6, 3, "undirected"), 2)
    data = json.loads(json.dumps(confmodel.graph_to_json(g)))
    back = confmodel.Graph(
        params=confmodel.GraphParams(data["n"], data["d"], data["mode"]),
        adjacency=tuple(tuple(row) for row in data["adjacency"]),
        witness=tuple(data["witness"]),
        seed=data["seed"],
    )
    assert back == g


def test_seed_sequence_layout():
    # a bare seed and a one-entry tuple give the same state, so sample's
    # stream is unchanged by the shared tuple layout
    for s in (0, 5, 2**40 + 3, 123456789):
        want = np.random.SeedSequence(s).generate_state(4)
        assert (confmodel.seed_sequence(s).generate_state(4) == want).all()
        for path in ((0, 7), (1,), (2, 3)):
            want = np.random.SeedSequence(entropy=(s, *path)).generate_state(4)
            assert (confmodel.seed_sequence(s, *path).generate_state(4) == want).all()


def test_generator_seed_is_used_as_given():
    params = confmodel.GraphParams(5, 4, "undirected")
    g = confmodel.sample(params, np.random.default_rng(confmodel.seed_sequence(9)))
    assert g.seed is None
    h = confmodel.sample(params, 9)
    assert h.seed == 9
    assert (g.adjacency, g.witness) == (h.adjacency, h.witness)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "9"])
def test_sample_refuses_seeds_that_are_not_nonnegative_integers(seed):
    with pytest.raises(InvalidParamsError):
        confmodel.sample(confmodel.GraphParams(3, 3, "directed"), seed)


def _repeated_lines(a):
    return len(np.unique(a, axis=0)) < a.shape[0]


@pytest.mark.parametrize("mode", ["directed", "undirected"])
def test_permutation_duplicate_checks_match_dense_unique(mode):
    # small n and large d give loops, multi-edges and repeated lines
    seen = {"row": 0, "col": 0, "loop": 0, "multi": 0}
    for n, d in ((1, 2), (2, 3), (3, 2), (4, 3), (5, 4), (8, 3), (12, 3), (6, 5)):
        if mode == "undirected" and (n * d) % 2:
            continue
        for seed in range(60):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, n, d)))
            order = rng.permutation(n * d)
            if mode == "directed":
                a = confmodel.directed_adjacency(n, d, order)
            else:
                a = confmodel.undirected_adjacency(n, d, order)
            rows = confmodel.has_duplicate_rows(confmodel.fibre_targets(n, d, mode, order))
            # the columns of a directed A are the rows of the inverse
            # permutation's targets; an undirected A is symmetric
            cols = rows
            if mode == "directed":
                cols = confmodel.has_duplicate_rows(
                    confmodel.fibre_targets(n, d, mode, np.argsort(order))
                )
            assert rows == _repeated_lines(a)
            assert cols == _repeated_lines(a.T)
            seen["row"] += rows
            seen["col"] += cols and not rows
            seen["loop"] += bool(np.trace(a))
            seen["multi"] += bool((a - np.diag(np.diag(a)) > 1).any())
    assert seen["row"] and seen["loop"] and seen["multi"]
    if mode == "directed":
        # columns are checked independently of rows
        assert seen["col"]
