"""Monte Carlo estimation of adjacency-matrix singularity probabilities.

Trials are seeded individually, so tallies are identical for any worker
count.  Each trial reads its adjacency rows straight from the sampled
permutation or pairing.  Mod p, a sparse elimination of those rows
(`gfcore._eliminate`) leaves a small dense core, and the rank is the
pivot count plus the core's rank; no dense adjacency is built.  A
tiny matrix, with n*d <= MEMO_MAX_POINTS, is settled once per process:
an LRU cache of at most MEMO_MAX_ENTRIES entries, keyed by (n, d, p)
and the row-sorted target rows, holds its duplicate-row flag and rank.
Integer-mode singularity decisions are exact: a shifted Cholesky
factorization of the Gram matrix certifies nonsingularity, and a
duplicate row or column certifies singularity.  det A != 0 iff
B = A^T A is positive definite, and a float64 Cholesky of B - sI that
runs to completion proves lambda_min(B) > s - g/(1 - g) tr(B)
- O(k^2 2^-1074) for a k x k B, g = gamma_{k+2}, so a shift s above
that bound proves det A != 0 (`gfcore._certify_gram`; Rump,
"Verification of positive definiteness", BIT 46, 2006; Higham,
Accuracy and Stability of Numerical Algorithms, Thm 10.3).  Below
REDUCE_FIRST_N vertices the certificate runs first, on A^T A, counted
in float64 from the target rows into one buffer per block without
building the adjacency, and shifted in place by the certificate, whose
factor is the next trial's buffer; only the trials it leaves are
scanned for a duplicate row or column and then reduced, with unit
pivots.  From REDUCE_FIRST_N on every trial is scanned and reduced
first, and the certificate runs on the Gram matrix of the core, whose
|det| is that of the whole matrix.  Then full rank of the core modulo
the fixed CHECK_PRIME certifies nonsingularity, and only what is left
pays for a fraction-free integer determinant, of the core.  A run in
one process is one block; a pool cuts four blocks per process.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .confmodel import (
    GraphParams,
    dense_gram,
    fibre_targets,
    has_duplicate_rows,
    seed_sequence,
    sparse_rows,
)
from .errors import InvalidParamsError
from .exactcount import master_sum
from .gfcore import (
    _certify_gram,
    _eliminate,
    certify_nonsingular,
    det_integer,
    rank_mod_p,
    require_int,
    require_prime,
)

# 95% two-sided normal quantile
Z95 = 1.959963984540054

# widening of the scaling window's lower exponent -(d-2)
SCALING_SLACK = 0.5

# Integer trials with n >= REDUCE_FIRST_N are reduced first and run the
# certificate on the Gram matrix of the core; below it the certificate
# runs on A^T A of the whole adjacency and only the trials it leaves are
# reduced.  The Cholesky costs n^3/3 flops, so the whole Gram matrix
# loses once that outgrows the reduction.  Per trial, d = 3, one BLAS
# thread, the best of five interleaved passes over the same 100 seeded
# trials without a duplicate row or column, low and high of two runs
# (four at 440 and 460; process time, 2-vCPU VM; full = float64 Gram
# matrix counted into the last trial's factor + certificate in place,
# reduce first = sparse rows + reduction + certificate on the core's
# Gram):
#   n    directed: full / reduce first       undirected: full / reduce first
#   360  1564-1732 / 2775-3051 us             1574-1791 / 2746-3108 us
#   380  2060-2620 / 2903-3251 us             2251-3575 / 3026-5060 us
#   400  2546-2547 / 3398-3512 us             2672-2839 / 3629-3952 us
#   420  3080-4235 / 3853-5330 us             3269-4135 / 3866-5375 us
#   440  3003-4389 / 3457-4306 us             2760-3072 / 3488-4206 us
#   450  3386-3866 / 3529-3773 us             3517-4503 / 3525-4282 us
#   460  3791-4933 / 3612-4124 us             3809-5182 / 3724-4786 us
#   480  4678-4810 / 4075-4171 us             4893-5103 / 4048-4980 us
#   500  5835-5895 / 4253-4841 us             5663-6797 / 4900-6714 us
#   520  4735-6708 / 4657-6937 us             5006-5123 / 4609-4828 us
# Full wins up to 440 in both modes, the two tie at 450, and reduce
# first wins from 460 on; below 360 full wins by more still.
REDUCE_FIRST_N = 450

# A matrix singular over Q is singular over every F_p, so full rank mod
# any one prime proves det != 0, and a prime dividing a nonzero det only
# costs an escalation.  Below 2**31 the rank test runs in int64.
CHECK_PRIME = 2**31 - 1

# Field-mode trials with n*d <= MEMO_MAX_POINTS are settled once per
# distinct matrix: the memo `_settle_tiny` maps (n, d, p, row-sorted
# target rows), which fix the adjacency, to the duplicate-row flag and
# the rank mod p.  At d = 3, 20,000 trials hold 4 distinct matrices at
# n = 2, 55 at n = 3 and 1,850 at n = 4 directed, 47 at n = 4
# undirected, but 17,403 at n = 5.  Per trial, 4,000 trials in blocks of
# 25 from a cold memo (one BLAS thread, process time, best of three,
# 2-vCPU VM), memo off / on:
#   n = 2 directed 54 / 24 us     n = 3 directed 64 / 22 us
#   n = 4 undirected 54 / 25 us   n = 4 directed 57 / 35 us
#   n = 3, d = 4 directed 56 / 25 us
#   n = 6, d = 2 directed 66 / 67 us (3,955 distinct), n = 12, d = 1
#   49 / 51 us (every matrix distinct).
# What is left of a memoized trial is mostly the frozen seeding.
MEMO_MAX_POINTS = 12
# Entries the memo keeps, least recently used dropped first.  An entry
# at n*d = 12 takes about 300 bytes, so a full memo holds about 1.2 MB;
# every distinct n = 4, d = 3 directed matrix met in 30,000 trials fits.
MEMO_MAX_ENTRIES = 4096


@dataclass(frozen=True)
class McConfig:
    n: int
    d: int
    mode: str = "directed"
    p: int | None = None
    trials: int = 1000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        GraphParams(n=self.n, d=self.d, mode=self.mode)
        if self.p is not None:
            require_prime(self.p)
        require_int("seed", self.seed, 0)
        require_int("trials", self.trials, 1)
        require_int("workers", self.workers, 1)


@dataclass(frozen=True)
class McReport:
    n: int
    d: int
    p: int | None
    mode: str
    trials: int
    seed: int
    singular_count: int
    estimate: float
    wilson_ci_95: tuple[float, float]
    kernel_total: int
    kernel_sq_total: int
    kernel_positive: int
    mean_kernel_count: float | None
    duplicate_rows: int
    duplicate_row_rate: float
    escalations: int
    wall_time_s: float


def wilson_ci(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; well behaved when the estimate sits near 0."""
    if trials < 1:
        raise InvalidParamsError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise InvalidParamsError(f"successes {successes} outside [0, {trials}]")
    ph = successes / trials
    z = Z95
    denom = 1.0 + z * z / trials
    center = (ph + z * z / (2 * trials)) / denom
    half = z * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def pool_workers(workers: int, trials: int, cpus: int) -> int:
    """Processes worth starting: never more than the trials or the CPUs."""
    return max(1, min(workers, trials, cpus))


# Thread-count variables of the BLAS builds numpy may load
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def worker_pool(procs: int):
    """A process pool whose workers each run a single-threaded BLAS.

    The workers are spawned, not forked, so each loads numpy afresh and
    reads the BLAS thread variables, set to 1 while the pool runs; a
    forked worker would keep the parent's BLAS threads, and `procs`
    workers would oversubscribe the cores.  The parent's environment is
    restored when the pool closes.  The pool modules are imported here,
    so a run that starts no pool, and the CLI's start-up, do not load
    them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(
            max_workers=procs, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            yield pool
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _settle_field(targets: np.ndarray, p: int) -> tuple[bool, int]:
    """The duplicate-row flag and the rank mod p of the adjacency whose
    target rows these are: the pivot count of the sparse elimination
    plus the rank of its core."""
    pivots, core = _eliminate(sparse_rows(targets, p), p)
    return has_duplicate_rows(targets), pivots + rank_mod_p(core, p)


@functools.lru_cache(maxsize=MEMO_MAX_ENTRIES)
def _settle_tiny(n: int, d: int, p: int, rows: bytes) -> tuple[bool, int]:
    """`_settle_field` of the row-sorted int64 target rows in `rows`."""
    return _settle_field(np.frombuffer(rows, dtype=np.int64).reshape(n, d), p)


def _run_block(cfg: McConfig, lo: int, hi: int) -> dict[str, int]:
    """Tally trials lo..hi-1 of cfg.

    Mod p, a trial with n*d <= MEMO_MAX_POINTS is settled from the
    memo when its matrix was seen before in this process.  Integer
    mode settles each trial by sound certificates: the Gram-Cholesky
    certificate proves det != 0, a duplicate row or column proves
    det = 0, full rank mod CHECK_PRIME proves det != 0, and only what
    is left pays for the exact determinant.  The rank test and the
    determinant run on the core of the unit-pivot reduction, which has
    the rank mod CHECK_PRIME and the |det| of the whole matrix; no
    dense adjacency is built.  Below REDUCE_FIRST_N the certificate
    runs first, on A^T A of the whole adjacency, and only the trials it
    leaves are scanned for duplicate lines, since a certified matrix
    has none, so the tallies are those of any order.  The block counts
    A^T A into one n x n float64 buffer and adopts each certificate's
    factor as the next trial's buffer, so a trial makes one n x n
    array, not two.  From REDUCE_FIRST_N on the duplicate scans run
    first and the certificate runs on the core's Gram matrix.
    """
    n, d, mode, p = cfg.n, cfg.d, cfg.mode, cfg.p
    tally = {
        "singular": 0,
        "kernel_total": 0,
        "kernel_sq_total": 0,
        "kernel_positive": 0,
        "duplicate_rows": 0,
        "escalations": 0,
    }
    memo = p is not None and n * d <= MEMO_MAX_POINTS
    gram = None
    for i in range(lo, hi):
        rng = np.random.default_rng(seed_sequence(cfg.seed, 0, i))
        order = rng.permutation(n * d)
        targets = fibre_targets(n, d, mode, order)
        if p is not None:
            if memo:
                dup_rows, rank = _settle_tiny(n, d, p, np.sort(targets, axis=1).tobytes())
            else:
                dup_rows, rank = _settle_field(targets, p)
            if dup_rows:
                tally["duplicate_rows"] += 1
            kernel = p ** (n - rank) - 1
            tally["kernel_total"] += kernel
            tally["kernel_sq_total"] += kernel * kernel
            if kernel:
                tally["kernel_positive"] += 1
            if rank < n:
                tally["singular"] += 1
            continue
        # below the cut-off the certificate runs first, on the Gram matrix
        # of the whole adjacency counted into the block's buffer, whose
        # factor is the next trial's buffer; a certified A is nonsingular,
        # so it has no repeated row or column
        if n < REDUCE_FIRST_N:
            gram = dense_gram(targets, out=gram)
            factor = _certify_gram(gram)
            if factor is not None:
                gram = factor
                continue
        # a duplicate row or column forces a zero determinant; dup_rows takes in a
        # directed A's columns, the inverse permutation's rows; an undirected A is symmetric
        dup_rows = has_duplicate_rows(targets)
        if dup_rows:
            tally["duplicate_rows"] += 1
        elif mode == "directed":
            inverse = np.empty_like(order)
            inverse[order] = np.arange(n * d)
            dup_rows = has_duplicate_rows(fibre_targets(n, d, mode, inverse))
        if dup_rows:
            tally["singular"] += 1
            continue
        # unit pivots are units mod CHECK_PRIME and keep |det|, so the
        # core settles the certificate, the rank test and the determinant
        pivots, core = _eliminate(sparse_rows(targets), None)
        if n >= REDUCE_FIRST_N and certify_nonsingular(core):
            continue
        if pivots + rank_mod_p(core, CHECK_PRIME) == n:
            continue
        tally["escalations"] += 1
        if det_integer(core) == 0:
            tally["singular"] += 1
    return tally


def run_mc(cfg: McConfig) -> McReport:
    """Run the Monte Carlo experiment described by cfg.

    Trial i draws its randomness from the entropy triple (seed, 0, i),
    so results do not depend on the worker partition.
    """
    start = time.perf_counter()
    procs = pool_workers(cfg.workers, cfg.trials, os.cpu_count() or 1)
    if procs == 1:
        # one block, so every trial shares the block's Gram buffer
        tallies = [_run_block(cfg, 0, cfg.trials)]
    else:
        # four blocks per process that starts, so a worker count beyond
        # the CPUs never shreds the trials
        chunk = -(-cfg.trials // (4 * procs))
        blocks = [(lo, min(lo + chunk, cfg.trials)) for lo in range(0, cfg.trials, chunk)]
        with worker_pool(procs) as pool:
            futures = [pool.submit(_run_block, cfg, lo, hi) for lo, hi in blocks]
            tallies = [f.result() for f in futures]
    total = {k: sum(t[k] for t in tallies) for k in tallies[0]}
    mean_kernel = total["kernel_total"] / cfg.trials if cfg.p is not None else None
    return McReport(
        n=cfg.n,
        d=cfg.d,
        mode=cfg.mode,
        p=cfg.p,
        trials=cfg.trials,
        seed=cfg.seed,
        singular_count=total["singular"],
        estimate=total["singular"] / cfg.trials,
        wilson_ci_95=wilson_ci(total["singular"], cfg.trials),
        kernel_total=total["kernel_total"],
        kernel_sq_total=total["kernel_sq_total"],
        kernel_positive=total["kernel_positive"],
        mean_kernel_count=mean_kernel,
        duplicate_rows=total["duplicate_rows"],
        duplicate_row_rate=total["duplicate_rows"] / cfg.trials,
        escalations=total["escalations"],
        wall_time_s=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class McComparison:
    n: int
    d: int
    p: int
    mode: str
    trials: int
    seed: int
    empirical_mean: float
    exact: Fraction
    std_error: float
    z_score: float
    report: McReport


def mc_vs_exact(
    n: int, d: int, p: int, mode: str, trials: int, seed: int, workers: int = 1
) -> McComparison:
    """Empirical mean kernel count against the exact master sum.

    The z-score is the standardized gap; a degenerate sample (zero
    variance) scores 0 when the means agree exactly and +-inf otherwise.
    """
    cfg = McConfig(n=n, d=d, mode=mode, p=p, trials=trials, seed=seed, workers=workers)
    report = run_mc(cfg)
    exact = master_sum(n, d, p, mode)
    mean = report.kernel_total / trials
    if trials > 1:
        var = (report.kernel_sq_total - trials * mean * mean) / (trials - 1)
        var = max(var, 0.0)
    else:
        var = 0.0
    se = math.sqrt(var / trials)
    gap = mean - float(exact)
    if se == 0.0:
        z = 0.0 if Fraction(report.kernel_total, trials) == exact else math.copysign(
            math.inf, gap
        )
    else:
        z = gap / se
    return McComparison(
        n=n,
        d=d,
        p=p,
        mode=mode,
        trials=trials,
        seed=seed,
        empirical_mean=mean,
        exact=exact,
        std_error=se,
        z_score=z,
        report=report,
    )


@dataclass(frozen=True)
class ScalingReport:
    d: int
    mode: str
    trials: int
    seed: int
    rows: tuple[McReport, ...]
    slope: float | None
    slope_stderr: float | None
    window: tuple[float, float]
    in_window: bool | None


def scaling_configs(d: int, n_list, trials: int, seed: int, *, mode: str = "directed",
                    workers: int = 1) -> list[McConfig]:
    """The validated config of every row of a scaling probe, size guard
    included; row idx is seeded from the entropy path (seed, 2, idx)."""
    if len(n_list) < 1:
        raise InvalidParamsError("n_list must not be empty")
    seed = require_int("seed", seed, 0)
    return [
        McConfig(n=n, d=d, mode=mode, trials=trials, workers=workers,
                 seed=int(seed_sequence(seed, 2, idx).generate_state(1)[0]))
        for idx, n in enumerate(n_list)
    ]


def scaling_probe(
    d: int,
    n_list: tuple[int, ...] | list[int],
    trials: int,
    seed: int,
    *,
    mode: str = "directed",
    workers: int = 1,
) -> ScalingReport:
    """Integer-mode singularity frequency against n, with a log-log fit.

    The fitted slope is report-only; the window pairs the polynomial
    lower-bound exponent -(d-2), widened by SCALING_SLACK, with the upper
    bound exponent for the decay rate.
    """
    # every row is validated before the first runs
    configs = scaling_configs(d, n_list, trials, seed, mode=mode, workers=workers)
    rows = [run_mc(cfg) for cfg in configs]
    frak_d = min(0.25, (d - 2) / (2 * d))
    window = (-(d - 2) - SCALING_SLACK, -frak_d)
    pts = [
        (math.log(r.n), math.log(r.estimate)) for r in rows if r.singular_count > 0
    ]
    slope = stderr = None
    in_window = None
    # a line needs two distinct sizes; repeated ones leave the fit undefined
    if len({x for x, _ in pts}) >= 2:
        xs = np.array([x for x, _ in pts])
        ys = np.array([y for _, y in pts])
        slope_v, intercept = np.polyfit(xs, ys, 1)
        slope = float(slope_v)
        resid = ys - (slope * xs + intercept)
        denom = float(((xs - xs.mean()) ** 2).sum())
        if len(pts) > 2 and denom > 0:
            stderr = math.sqrt(float((resid**2).sum()) / (len(pts) - 2) / denom)
        in_window = window[0] <= slope <= window[1]
    return ScalingReport(
        d=d,
        mode=mode,
        trials=trials,
        seed=int(seed),
        rows=tuple(rows),
        slope=slope,
        slope_stderr=stderr,
        window=window,
        in_window=in_window,
    )
