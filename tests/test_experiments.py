"""Monte Carlo drivers: reproducibility, tallies, and exact cross-checks."""

import concurrent.futures
import contextlib
import dataclasses
import functools
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from regsing import confmodel, experiments, gfcore
from regsing.errors import InvalidModulusError, InvalidParamsError


def replay_trial(cfg, index):
    """Rebuild the adjacency of one trial from its nested seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 0, index)))
    perm = rng.permutation(cfg.n * cfg.d)
    if cfg.mode == "directed":
        return confmodel.directed_adjacency(cfg.n, cfg.d, perm)
    return confmodel.undirected_adjacency(cfg.n, cfg.d, perm)


def test_config_validation():
    with pytest.raises(InvalidModulusError):
        experiments.McConfig(n=6, d=3, p=4, trials=10, seed=0)
    with pytest.raises(InvalidParamsError):
        experiments.McConfig(n=6, d=3, trials=0, seed=0)
    with pytest.raises(InvalidParamsError):
        experiments.McConfig(n=6, d=3, trials=10, seed=0, workers=0)
    with pytest.raises(InvalidParamsError):
        experiments.McConfig(n=3, d=3, mode="undirected", trials=10, seed=0)
    experiments.McConfig(n=4, d=3, mode="undirected", trials=10, seed=0)


@pytest.mark.parametrize("field,value", [
    ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "3"),
    ("trials", True), ("trials", 2.0), ("workers", True), ("workers", 1.0),
    ("n", 3.0), ("d", 3.5), ("n", True),
])
def test_config_refuses_non_integer_seed_trials_and_workers(field, value):
    # refused up front, as a validation error, never numpy's bare ValueError
    cfg = dict(n=3, d=3, p=2, trials=10, seed=0)
    cfg[field] = value
    with pytest.raises(InvalidParamsError):
        experiments.McConfig(**cfg)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_scaling_probe_refuses_bad_seeds_before_deriving_sub_seeds(seed):
    with pytest.raises(InvalidParamsError):
        experiments.scaling_probe(3, [10], 5, seed)


def test_wilson_interval_sanity():
    lo, hi = experiments.wilson_ci(0, 100)
    assert 0.0 <= lo <= 1e-12
    assert hi == pytest.approx(1.959963984540054**2 / (100 + 1.959963984540054**2), rel=1e-9)
    lo50, hi50 = experiments.wilson_ci(50, 100)
    assert lo50 + hi50 == pytest.approx(1.0, abs=1e-12)
    assert lo50 < 0.5 < hi50
    full = experiments.wilson_ci(100, 100)
    assert full[1] == 1.0
    with pytest.raises(InvalidParamsError):
        experiments.wilson_ci(5, 0)
    with pytest.raises(InvalidParamsError):
        experiments.wilson_ci(11, 10)


def test_single_trial_replays_exactly():
    cfg = experiments.McConfig(n=6, d=3, mode="directed", p=3, trials=1, seed=5)
    report = experiments.run_mc(cfg)
    a = replay_trial(cfg, 0)
    kernel = 3 ** (cfg.n - gfcore.rank_mod_p(a, 3)) - 1
    assert report.kernel_total == kernel
    assert report.singular_count == int(kernel > 0)


def test_worker_count_invariance():
    base = dict(n=12, d=3, mode="directed", p=2, trials=60, seed=7)
    one = experiments.run_mc(experiments.McConfig(**base, workers=1))
    three = experiments.run_mc(experiments.McConfig(**base, workers=3))
    for field in (
        "singular_count",
        "estimate",
        "wilson_ci_95",
        "kernel_total",
        "kernel_sq_total",
        "kernel_positive",
        "duplicate_rows",
        "escalations",
    ):
        assert getattr(one, field) == getattr(three, field), field


def test_field_p_tallies_consistent():
    cfg = experiments.McConfig(n=8, d=3, mode="directed", p=2, trials=300, seed=2)
    r = experiments.run_mc(cfg)
    assert r.singular_count == r.kernel_positive
    assert r.estimate == r.singular_count / r.trials
    assert r.wilson_ci_95 == experiments.wilson_ci(r.singular_count, r.trials)
    assert r.mean_kernel_count == r.kernel_total / r.trials
    assert r.escalations == 0
    assert r.wall_time_s > 0


def test_divisible_degree_always_singular():
    # p | d puts the all-ones vector in the kernel of every sample
    r = experiments.run_mc(experiments.McConfig(n=6, d=3, mode="directed", p=3, trials=40, seed=3))
    assert r.singular_count == 40
    assert r.estimate == 1.0


# (n, mode, trials, seed): every case past n = 12 reaches the exact
# determinant.  Below REDUCE_FIRST_N, as in every case here, the
# Gram-Cholesky certificate runs on A^T A of the whole adjacency and
# only the trials it leaves are reduced; from REDUCE_FIRST_N on every
# trial is reduced first and the certificate runs on the core's Gram
# matrix.  A trial escalates when the certificate fails (lambda_min of
# the Gram matrix below a shift of order n**2 * 2**-50) and the rank mod
# CHECK_PRIME is deficient, about one trial in 2,000 at these sizes.
# These seeds escalate early: n = 200 at trial 2; n = 160, undirected
# with loops and multi-edges, at trial 1; n = 320, undirected, at trial
# 0, the one escalation in trials 0 and 1 of seeds 0 to 3999.
INTEGER_CASES = ((12, "directed", 300, 9), (50, "directed", 150, 3), (16, "undirected", 200, 3),
                 (200, "directed", 12, 390), (160, "undirected", 12, 935),
                 (320, "undirected", 2, 1979))


def test_integer_mode_matches_exact_determinants():
    for n, mode, trials, seed in INTEGER_CASES:
        cfg = experiments.McConfig(n=n, d=3, mode=mode, trials=trials, seed=seed)
        r = experiments.run_mc(cfg)
        assert r.p is None
        assert r.mean_kernel_count is None
        truth = 0
        dups = 0
        for i in range(cfg.trials):
            a = [list(map(int, row)) for row in replay_trial(cfg, i)]
            singular = int(gfcore.det_integer(a) == 0)
            one = experiments._run_block(cfg, i, i + 1)
            assert one["singular"] == singular, (n, mode, i)
            truth += singular
            dups += int(len(np.unique(np.array(a), axis=0)) < cfg.n)
        assert r.singular_count == truth
        assert r.duplicate_rows == dups
        assert r.duplicate_row_rate == dups / cfg.trials
        if n > 12:
            assert r.escalations > 0


def dense_ladder_block(cfg, lo, hi):
    """Reference kernel: the integer ladder with every rung on the dense
    adjacency, as it ran before the sparse reduction."""
    n = cfg.n
    tally = dict.fromkeys(("singular", "kernel_total", "kernel_sq_total", "kernel_positive",
                           "duplicate_rows", "escalations"), 0)
    for i in range(lo, hi):
        a = replay_trial(cfg, i)
        dup_rows = len(np.unique(a, axis=0)) < n
        tally["duplicate_rows"] += dup_rows
        if dup_rows or len(np.unique(a.T, axis=0)) < n:
            tally["singular"] += 1
            continue
        if gfcore.certify_nonsingular(a) or gfcore.rank_mod_p(a, experiments.CHECK_PRIME) == n:
            continue
        tally["escalations"] += 1
        tally["singular"] += gfcore.det_integer(a.tolist()) == 0
    return tally


@pytest.mark.parametrize("n,mode,trials,seed", INTEGER_CASES)
def test_integer_mode_escalations_match_the_dense_ladder(n, mode, trials, seed):
    cfg = experiments.McConfig(n=n, d=3, mode=mode, trials=trials, seed=seed)
    tally = experiments._run_block(cfg, 0, trials)
    assert tally == dense_ladder_block(cfg, 0, trials)
    if n > 12:
        assert tally["escalations"] > 0


@pytest.mark.parametrize("n,mode,trials,seed", INTEGER_CASES)
def test_integer_ladder_without_the_certificate_matches_the_dense_ladder(
    monkeypatch, n, mode, trials, seed
):
    # the certificate settles nearly every nonsingular trial, so the
    # elimination, rank and determinant rungs get a run of their own
    monkeypatch.setattr(experiments, "_certify_gram", lambda gram: [False] * len(gram))
    monkeypatch.setattr(experiments, "certify_nonsingular", lambda core: False)
    cfg = experiments.McConfig(n=n, d=3, mode=mode, trials=trials, seed=seed)
    assert experiments._run_block(cfg, 0, trials) == dense_ladder_block(cfg, 0, trials)


def test_integer_trials_check_columns_only_when_they_differ_from_rows(monkeypatch):
    # below the cut-off only the trials the certificate leaves are scanned,
    # and an undirected A is symmetric, so its columns repeat iff its rows do
    calls = []

    def spy(targets):
        calls.append(1)
        return confmodel.has_duplicate_rows(targets)

    monkeypatch.setattr(experiments, "has_duplicate_rows", spy)
    for mode in ("undirected", "directed"):
        calls.clear()
        cfg = experiments.McConfig(n=12, d=3, mode=mode, trials=30, seed=4)
        left = sum(not gfcore.certify_nonsingular(replay_trial(cfg, i)) for i in range(cfg.trials))
        tally = experiments._run_block(cfg, 0, cfg.trials)
        columns = 0 if mode == "undirected" else left - tally["duplicate_rows"]
        assert len(calls) == left + columns
        assert 0 < left < cfg.trials


def test_integer_mode_eliminates_below_the_cut_off_only_what_the_certificate_leaves(
    monkeypatch,
):
    cut = experiments.REDUCE_FIRST_N
    cases = [(12, "directed", 20, 9), (cut - 1, "directed", 6, 7), (cut, "directed", 6, 8),
             (cut, "undirected", 6, 9)]
    configs = [experiments.McConfig(n=n, d=3, mode=mode, trials=trials, seed=seed)
               for n, mode, trials, seed in cases]
    wants = []
    for cfg in configs:
        want = 0
        for i in range(cfg.trials):
            a = replay_trial(cfg, i)
            if len(np.unique(a, axis=0)) < cfg.n or len(np.unique(a.T, axis=0)) < cfg.n:
                continue
            want += cfg.n >= cut or not gfcore.certify_nonsingular(a)
        wants.append(want)

    def no_adjacency(*args):
        raise AssertionError("dense adjacency built")

    def spy(work, p):
        eliminated[-1] += 1
        return gfcore._eliminate(work, p)

    eliminated = []
    monkeypatch.setattr(confmodel, "dense_adjacency", no_adjacency)
    monkeypatch.setattr(experiments, "dense_adjacency", no_adjacency, raising=False)
    monkeypatch.setattr(experiments, "_eliminate", spy)
    for cfg in configs:
        eliminated.append(0)
        experiments._run_block(cfg, 0, cfg.trials)
    assert eliminated == wants
    # n = 12 leaves singular trials to the elimination; from the cut-off
    # on every trial without a duplicate line is reduced
    assert 0 < eliminated[0] < 20 and eliminated[2] > 0 and eliminated[3] > 0


def test_field_mode_never_builds_the_adjacency(monkeypatch):
    def no_adjacency(*args):
        raise AssertionError("dense adjacency built")

    cases = [experiments.McConfig(n=30, d=3, mode="directed", p=5, trials=40, seed=2),
             experiments.McConfig(n=12, d=4, mode="undirected", p=2, trials=40, seed=6)]
    ranks = [[gfcore.rank_mod_p(replay_trial(cfg, i), cfg.p) for i in range(cfg.trials)]
             for cfg in cases]
    monkeypatch.setattr(experiments, "dense_adjacency", no_adjacency, raising=False)
    monkeypatch.setattr(confmodel, "dense_adjacency", no_adjacency)
    for cfg, rank in zip(cases, ranks):
        tally = experiments._run_block(cfg, 0, cfg.trials)
        kernels = [cfg.p ** (cfg.n - r) - 1 for r in rank]
        assert tally["singular"] == sum(r < cfg.n for r in rank)
        assert tally["kernel_total"] == sum(kernels)
        assert tally["kernel_sq_total"] == sum(k * k for k in kernels)


def test_pool_workers_clamp():
    assert experiments.pool_workers(1, 4, 8) == 1
    assert experiments.pool_workers(3, 12, 2) == 2
    assert experiments.pool_workers(64, 3, 16) == 3
    assert experiments.pool_workers(10**6, 4 * 10**6, 2) == 2
    assert experiments.pool_workers(4, 0, 8) == 1


def test_run_mc_cuts_at_most_four_blocks_per_process(monkeypatch):
    blocks, pools = [], []
    empty = experiments._run_block(experiments.McConfig(n=8, d=3, trials=1, seed=1), 0, 0)

    def stub(cfg, lo, hi):
        blocks.append((lo, hi))
        return dict(empty)

    @contextlib.contextmanager
    def inline_pool(procs):
        # a one-thread stand-in: no worker process is ever started
        pools.append(procs)
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            yield pool

    monkeypatch.setattr(experiments, "_run_block", stub)
    monkeypatch.setattr(experiments, "worker_pool", inline_pool)
    for cpus in (1, 3):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        for workers in (1, cpus, 10**6):
            blocks.clear()
            pools.clear()
            cfg = experiments.McConfig(n=8, d=3, trials=100_000, seed=1, workers=workers)
            experiments.run_mc(cfg)
            procs = min(workers, cpus)
            assert pools == ([procs] if procs > 1 else [])
            assert len(blocks) <= 4 * procs
            # the blocks partition the trials in order
            assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
            assert blocks[-1][1] == cfg.trials


def test_run_mc_cuts_one_block_in_one_process(monkeypatch):
    blocks = []
    run_block = experiments._run_block

    def spy(cfg, lo, hi):
        blocks.append((lo, hi))
        return run_block(cfg, lo, hi)

    monkeypatch.setattr(experiments, "_run_block", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for workers, trials in ((1, 50), (3, 1)):
        blocks.clear()
        experiments.run_mc(experiments.McConfig(n=8, d=3, trials=trials, seed=1, workers=workers))
        assert blocks == [(0, trials)]


def dense_field_block(cfg, lo, hi):
    """Reference kernel: field-mode tallies from each trial's dense
    adjacency, its rank mod p and its distinct rows."""
    tally = dict.fromkeys(("singular", "kernel_total", "kernel_sq_total", "kernel_positive",
                           "duplicate_rows", "escalations"), 0)
    for i in range(lo, hi):
        a = replay_trial(cfg, i)
        rank = gfcore.rank_mod_p(a, cfg.p)
        kernel = cfg.p ** (cfg.n - rank) - 1
        tally["singular"] += rank < cfg.n
        tally["kernel_total"] += kernel
        tally["kernel_sq_total"] += kernel * kernel
        tally["kernel_positive"] += kernel > 0
        tally["duplicate_rows"] += len(np.unique(a, axis=0)) < cfg.n
    return tally


# (n, mode, seed): trial 0 is left by the certificate and trials 1 and 2
# are certified, so a stack mixes certified and uncertified slices, and
# the thread's Gram buffer carries a failed factorization into a trial it
# certifies, on the LAPACK path and on numpy's fallback
BUFFER_CASES = ((12, "directed", 1), (12, "undirected", 18), (50, "directed", 16),
                (50, "undirected", 51), (200, "directed", 197), (200, "undirected", 35))
# (n, mode, seed, p): field trials run in the same stacks, two memo-sized
# cases and one whose 40 trials make a stack of 30 and one of 10
FIELD_CUT_CASES = ((3, "directed", 4, 2), (4, "undirected", 6, 2), (30, "directed", 2, 5))


@pytest.mark.parametrize(
    "n,mode,seed,p", [(*case, None) for case in BUFFER_CASES] + list(FIELD_CUT_CASES),
    ids=[f"{n}-{mode}-{seed}" for n, mode, seed in BUFFER_CASES]
    + [f"{n}-{mode}-{seed}-p{p}" for n, mode, seed, p in FIELD_CUT_CASES],
)
def test_integer_block_tallies_do_not_depend_on_the_block_cut(n, mode, seed, p, monkeypatch):
    if p is not None:
        cfg = experiments.McConfig(n=n, d=3, mode=mode, p=p, trials=40, seed=seed)
        whole = experiments._run_block(cfg, 0, cfg.trials)
        assert whole == dense_field_block(cfg, 0, cfg.trials)
        assert whole["singular"] > 0
        assert_every_cut_adds_up(cfg, whole)
        return
    cfg = experiments.McConfig(n=n, d=3, mode=mode, trials=4, seed=seed)
    assert not gfcore.certify_nonsingular(replay_trial(cfg, 0))
    assert gfcore.certify_nonsingular(replay_trial(cfg, 1))
    assert gfcore.certify_nonsingular(replay_trial(cfg, 2))
    want = dense_ladder_block(cfg, 0, cfg.trials)
    for fallback in (False, True):
        if fallback:
            monkeypatch.setattr(gfcore, "_lapack_potrf", lambda: None)
        whole = experiments._run_block(cfg, 0, cfg.trials)
        assert whole == want, fallback
        singles = [experiments._run_block(cfg, 0, 1)]
        # trial 0's failed factorization is left in the buffer: dpotrf's
        # partial factor, or the gufunc's NaN, and no diagonal entry of B
        left = experiments._gram_stack(1, n)[0]
        diag = np.diag(left)
        assert not (left == 0).all() and (diag != np.round(diag)).all(), fallback
        assert np.isnan(left).all() == fallback
        singles += [experiments._run_block(cfg, i, i + 1) for i in range(1, cfg.trials)]
        assert singles[1] == dense_ladder_block(cfg, 1, 2), fallback
        assert whole == {k: sum(t[k] for t in singles) for k in whole}, fallback
        assert_every_cut_adds_up(cfg, whole)


def assert_every_cut_adds_up(cfg, whole):
    """Every cut of cfg's trials into two blocks, each cut into stacks of
    its own, tallies what the whole block does."""
    for cut in range(1, cfg.trials):
        halves = [experiments._run_block(cfg, 0, cut),
                  experiments._run_block(cfg, cut, cfg.trials)]
        assert whole == {k: sum(t[k] for t in halves) for k in whole}, cut


def test_integer_stacks_stop_at_the_index_and_buffer_ceilings(monkeypatch):
    # a block draws and settles stacks of at most STACK_INDICES scatter
    # indices and REDUCE_FIRST_N**2 Gram entries, in both modes, whose
    # tallies add up to those of its trials one at a time
    stacks = []
    targets_of = experiments.fibre_targets

    def spy(n, d, mode, order):
        if order.ndim == 2:
            stacks.append(len(order))
        return targets_of(n, d, mode, order)

    monkeypatch.setattr(experiments, "fibre_targets", spy)
    for n, d, p, trials, sizes in ((200, 3, None, 10, [4, 4, 2]), (50, 3, None, 40, [18, 18, 4]),
                                   (12, 8, None, 30, [10, 10, 10]), (300, 1, None, 10, [8, 2]),
                                   (569, 3, None, 2, [1, 1]), (100, 3, 5, 20, [9, 9, 2]),
                                   (4, 3, 2, 500, [227, 227, 46])):
        cfg = experiments.McConfig(n=n, d=d, p=p, trials=trials, seed=n + d)
        stacks.clear()
        whole = experiments._run_block(cfg, 0, trials)
        assert stacks == sizes, (n, d, p)
        assert all(t * n * d * d <= experiments.STACK_INDICES or t == 1 for t in sizes)
        assert all(t * n * n <= experiments.REDUCE_FIRST_N**2 for t in sizes)
        want = dense_ladder_block if p is None else dense_field_block
        assert whole == want(cfg, 0, trials), (n, d, p)


def test_integer_trials_escalate_at_the_cut_off(monkeypatch):
    # CHECK_PRIME = 3 divides d, so the all-ones vector lies in the kernel
    # of A mod 3 and the core's rank mod 3 is deficient; with the core's
    # certificate off, every trial without a duplicate line escalates to
    # the determinant of its core.  Directed seed 55 has a duplicate line
    # in trial 0, undirected seed 203 in trial 1.
    n = experiments.REDUCE_FIRST_N
    monkeypatch.setattr(experiments, "CHECK_PRIME", 3)
    monkeypatch.setattr(experiments, "certify_nonsingular", lambda core: False)
    for mode, seed in (("directed", 55), ("undirected", 203)):
        cfg = experiments.McConfig(n=n, d=3, mode=mode, trials=2, seed=seed)
        singles = [experiments._run_block(cfg, i, i + 1) for i in range(cfg.trials)]
        lines = []
        for i, one in enumerate(singles):
            a = replay_trial(cfg, i)
            lines.append(len(np.unique(a, axis=0)) < n or len(np.unique(a.T, axis=0)) < n)
            # the oracle: a duplicate line proves det = 0, the certificate det != 0
            assert lines[-1] or gfcore.certify_nonsingular(a), (mode, i)
            assert one["singular"] == lines[-1], (mode, i)
        assert sum(one["escalations"] for one in singles) == lines.count(False) == 1, mode


def test_integer_runs_of_one_thread_reuse_one_gram_buffer(monkeypatch):
    bases = []
    count = experiments.dense_gram

    def spy(targets, out):
        bases.append(out.base)
        return count(targets, out=out)

    def runs():
        # a fresh thread starts without a buffer
        for n in (200, 50, 200, 201):
            experiments.run_mc(experiments.McConfig(n=n, d=3, trials=2, seed=n))
        return experiments._gram_stack(1, 1).base

    monkeypatch.setattr(experiments, "dense_gram", spy)
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        last = pool.submit(runs).result(timeout=120)
    # one stack per run, all in one buffer until a stack outgrows it
    assert len(bases) == 4 and bases[0] is bases[1] is bases[2]
    assert bases[0].size == 2 * 200 * 200
    # the buffer only grows, and only past the largest stack so far
    assert bases[3] is last and last.size == 2 * 201 * 201
    assert experiments._gram_stack(1, 1).base is not last


def test_threads_running_integer_trials_at_once_match_serial_runs():
    # ctypes releases the GIL inside dpotrf, so threads sharing one Gram
    # buffer could factor each other's matrices; each has its own stack
    configs = [experiments.McConfig(n=n, d=3, mode=mode, trials=trials, seed=seed)
               for n, mode, trials, seed in ((200, "directed", 60, 5), (120, "directed", 100, 6),
                                             (200, "undirected", 60, 7),
                                             (120, "undirected", 100, 8))]
    serial = [_outcome(experiments.run_mc(cfg)) for cfg in configs]
    start = threading.Barrier(len(configs))
    results = [None] * len(configs)

    def worker(k):
        start.wait(timeout=60)
        report = experiments.run_mc(configs[k])
        results[k] = (_outcome(report), experiments._gram_stack(1, 1).base)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(configs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert [r[0] for r in results] == serial
    assert len({id(r[1]) for r in results}) == len(configs)


def test_forced_fallback_gives_identical_reports(monkeypatch):
    # where no LAPACK library is found, numpy's gufunc factors the same
    # stacks, and every report is byte-identical
    configs = [experiments.McConfig(n=n, d=3, mode=mode, trials=trials, seed=seed)
               for n, mode, trials, seed in INTEGER_CASES + ((569, "directed", 2, 4),)]
    want = [_outcome(experiments.run_mc(cfg)) for cfg in configs]
    monkeypatch.setattr(gfcore, "_lapack_potrf", lambda: None)
    assert [_outcome(experiments.run_mc(cfg)) for cfg in configs] == want


def test_worker_pool_runs_single_threaded_blas(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with experiments.worker_pool(2) as pool:
        probes = [pool.submit(os.getenv, k) for k in experiments.BLAS_THREAD_VARS]
        seen = [f.result(timeout=120) for f in probes]
    assert seen == ["1"] * len(experiments.BLAS_THREAD_VARS)
    # the parent's environment is restored, unset variables included
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_undirected_mode_runs_and_replays():
    cfg = experiments.McConfig(n=8, d=3, mode="undirected", p=2, trials=50, seed=4)
    r = experiments.run_mc(cfg)
    truth = 0
    for i in range(cfg.trials):
        a = [list(map(int, row)) for row in replay_trial(cfg, i)]
        truth += int(gfcore.rank_mod_p(a, 2) < cfg.n)
    assert r.singular_count == truth


def test_mc_vs_exact_zero_probability_case():
    comp = experiments.mc_vs_exact(2, 3, 2, "directed", trials=200, seed=1)
    assert comp.exact == 0
    assert comp.empirical_mean == 0.0
    assert comp.std_error == 0.0
    assert comp.z_score == 0.0


def test_mc_vs_exact_small_case_reasonable():
    comp = experiments.mc_vs_exact(2, 3, 3, "directed", trials=4000, seed=2)
    assert comp.exact == pytest.approx(13 / 5, rel=1e-12)
    assert abs(comp.z_score) < 5.0
    assert comp.report.kernel_total >= 0


def test_scaling_probe_smoke():
    rep = experiments.scaling_probe(3, [20, 40], trials=300, seed=3)
    assert rep.window == pytest.approx((-1.5, -1 / 6))
    assert len(rep.rows) == 2
    assert rep.rows[0].n == 20 and rep.rows[1].n == 40
    assert rep.slope is not None
    # two points cannot support a slope standard error
    assert rep.slope_stderr is None
    assert isinstance(rep.in_window, bool)


def test_scaling_probe_fits_no_line_through_one_size():
    # repeated sizes once reached np.polyfit on equal abscissae, which
    # warned that the fit was poorly conditioned and returned a slope
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = experiments.scaling_probe(5, [6, 6, 6], trials=14, seed=349)
    assert sum(r.singular_count > 0 for r in rep.rows) >= 2
    assert rep.slope is None and rep.slope_stderr is None and rep.in_window is None


def test_scaling_probe_reproducible():
    a = experiments.scaling_probe(3, [20, 40], trials=200, seed=8)
    b = experiments.scaling_probe(3, [20, 40], trials=200, seed=8)
    assert a.slope == b.slope
    assert [r.singular_count for r in a.rows] == [r.singular_count for r in b.rows]


def _outcome(report):
    return dataclasses.replace(report, wall_time_s=0.0)


@pytest.fixture
def cold_memo():
    """Start and end with an empty tiny-matrix memo."""
    experiments._settle_tiny.cache_clear()
    yield
    experiments._settle_tiny.cache_clear()


def test_field_memo_keeps_tallies(monkeypatch, cold_memo):
    # n*d from 6 to 12; p = 3 divides d = 3, so entries vanish mod p
    cases = [experiments.McConfig(n=2, d=3, p=3, trials=300, seed=21),
             experiments.McConfig(n=3, d=3, p=2, trials=300, seed=22),
             experiments.McConfig(n=4, d=3, p=2, mode="undirected", trials=300, seed=23),
             experiments.McConfig(n=4, d=3, p=5, trials=300, seed=24)]
    monkeypatch.setattr(experiments, "MEMO_MAX_POINTS", 0)
    fresh = [_outcome(experiments.run_mc(cfg)) for cfg in cases]
    assert experiments._settle_tiny.cache_info().currsize == 0
    monkeypatch.setattr(experiments, "MEMO_MAX_POINTS", 13)
    for _ in range(2):  # a cold memo, then a warm one
        assert [_outcome(experiments.run_mc(cfg)) for cfg in cases] == fresh
    info = experiments._settle_tiny.cache_info()
    assert info.currsize > 0 and info.hits > 0
    # spawned workers read the module's own cut-off
    two = dataclasses.replace(cases[1], workers=2)
    assert _outcome(experiments.run_mc(two)) == fresh[1]


def test_field_memo_is_consulted_only_up_to_the_cut_off(monkeypatch):
    lookups = []
    settle = experiments._settle_tiny

    def spy(n, d, p, rows):
        lookups.append((n, d, p))
        return settle(n, d, p, rows)

    monkeypatch.setattr(experiments, "_settle_tiny", spy)
    cut = experiments.MEMO_MAX_POINTS
    assert cut == 12
    config = experiments.McConfig
    experiments._run_block(config(n=5, d=3, p=2, trials=40, seed=1), 0, 40)  # n*d = 15
    experiments._run_block(config(n=7, d=2, mode="undirected", p=3, trials=40, seed=1), 0, 40)
    experiments._run_block(config(n=3, d=3, trials=40, seed=1), 0, 40)  # integer mode
    assert lookups == []
    experiments._run_block(config(n=4, d=3, p=2, trials=40, seed=1), 0, 40)  # 12
    assert lookups == [(4, 3, 2)] * 40


def test_field_memo_stays_within_its_entry_cap(monkeypatch, cold_memo):
    assert experiments._settle_tiny.cache_info().maxsize == experiments.MEMO_MAX_ENTRIES
    cfg = experiments.McConfig(n=4, d=3, p=2, trials=400, seed=31)
    monkeypatch.setattr(experiments, "MEMO_MAX_POINTS", 0)
    fresh = _outcome(experiments.run_mc(cfg))
    # the same settle function behind a 5-entry cache, so that it evicts
    small = functools.lru_cache(maxsize=5)(experiments._settle_tiny.__wrapped__)
    monkeypatch.setattr(experiments, "_settle_tiny", small)
    monkeypatch.setattr(experiments, "MEMO_MAX_POINTS", 12)
    for _ in range(2):
        assert _outcome(experiments.run_mc(cfg)) == fresh
        assert small.cache_info().currsize == 5


def test_check_prime_is_a_prime_inside_the_int64_core():
    assert gfcore.is_prime(experiments.CHECK_PRIME)
    assert experiments.CHECK_PRIME < gfcore.NUMPY_PRIME_LIMIT
