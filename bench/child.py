"""The measured process: one fresh interpreter per workload run.

Reads a job (JSON) on stdin, imports ``regsing.cli``, runs the
workload's warm-up ops (each op kind once, on tiny inputs, so lazy
imports and one-time set-up land in ``setup_s``), then runs the timed op
list and writes one JSON result line to stdout.

Job modes:

- ``setup``: stop at the first timed op and report only the clock
  readings; the parent starts several of these to take a median set-up
  time.
- ``run``: the untraced op list; every end-to-end metric comes from it.
- ``trace``: the op list again with spans (``tracer.py``), then the
  layer probes, for the per-layer metrics.

Clock readings that the parent compares with its own use
``time.monotonic``, which is system-wide on Linux.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import time


# CPU time between two runs of the speed kernel
SPEED_EVERY_S = 0.25


def speed_kernel() -> list[float]:
    """CPU seconds of four fixed pieces of work that do not touch the
    package: a histogram-walk convolution over a dict of tuple keys with
    big-integer counts (like the exact layer), row elimination on 80x80
    and 200x200 int64 arrays (like the rank kernel at small and large
    n), and many small numpy calls (like the rate Newton).  The parent
    scales op latencies by these times to take out changes in machine
    speed."""
    import numpy as np

    parts = []
    c0 = time.process_time()
    atoms = [((a, b, 6 - a - b), 1 + a * b) for a in range(7) for b in range(7 - a)]
    table = {(0, 0, 0): 1}
    for _ in range(4):
        nxt: dict = {}
        for m, count in table.items():
            for u, w in atoms:
                key = (m[0] + u[0], m[1] + u[1], m[2] + u[2])
                nxt[key] = nxt.get(key, 0) + count * w
        table = nxt
    parts.append(time.process_time() - c0)
    for size, steps in ((80, 79), (200, 8)):
        c0 = time.process_time()
        a = (np.arange(size * size, dtype=np.int64).reshape(size, size) * 7919) % 31
        for c in range(steps):
            a[c + 1 :] = (a[c + 1 :] - np.outer(a[c + 1 :, c], a[c])) % 31
        parts.append(time.process_time() - c0)
    c0 = time.process_time()
    x = np.linspace(0.0, 1.0, 16)
    acc = 0.0
    for _ in range(800):
        acc += float(np.log(np.exp(x).sum()))
    parts.append(time.process_time() - c0)
    return parts


def run_list(op_list, run_op, tracer=None, speed=None, collect=False):
    """Run ops in order; an op that raises is recorded, never fatal.

    With a ``speed`` list, the speed kernel runs before the first op,
    then between ops every SPEED_EVERY_S of op CPU time, and after the
    last op; each run appends ``[index of the next op, part timings]``.
    With ``collect``, a full garbage collection precedes every op.
    """
    state: dict = {}
    latency, cpu, outputs, errors = [], [], [], []
    since = SPEED_EVERY_S
    for idx, op in enumerate(op_list):
        if speed is not None and since >= SPEED_EVERY_S:
            speed.append([idx, speed_kernel()])
            since = 0.0
        if collect:
            gc.collect()
        if tracer is not None:
            tracer.op = idx
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            (wall, busy), out = run_op(op, state)
            err = None
        except Exception as exc:  # a failing op is a result, not a crash
            wall, busy = time.perf_counter() - w0, time.process_time() - c0
            out, err = None, f"{type(exc).__name__}: {exc}"
        since += busy
        latency.append(wall)
        cpu.append(busy)
        outputs.append(out)
        errors.append(err)
    if speed is not None:
        speed.append([len(op_list), speed_kernel()])
    result = {"latency": latency, "cpu": cpu, "outputs": outputs, "errors": errors}
    if tracer is not None:
        result.update(
            layer_self_ns=tracer.layer_self_by_op(len(op_list)),
            func=tracer.func_totals(),
            counts=dict(tracer.counts),
            labels={f"{n}|{lab}": v for (n, lab), v in tracer.labels.items()},
        )
    return result


def _direct_probes(plan):
    """Time layer functions directly on trial matrices of the workloads.

    ``confmodel.sample_us`` covers what every Monte Carlo trial does
    before its checks: seeded Generator, permutation, adjacency.
    ``gfcore.rank_mod_p_us`` is the public list-of-rows entry point.
    ``gfcore.det_integer_ms`` is timed on matrices that a rank test mod a
    31-bit prime cannot settle and that have no duplicate row or column,
    the ones integer mode escalates to Bareiss.
    """
    import numpy as np

    from regsing import confmodel, gfcore

    out = {}
    for item in plan:
        n, d, mode, p = item["n"], item["d"], item["mode"], item["p"]
        build = confmodel.directed_adjacency if mode == "directed" else confmodel.undirected_adjacency
        mats, t_sample = [], 0
        for seed, i in item["trials"]:
            t0 = time.perf_counter_ns()
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0, i)))
            a = build(n, d, rng.permutation(n * d))
            t_sample += time.perf_counter_ns() - t0
            mats.append(a.tolist())
        t_rank = 0
        ranks = []
        for rows in mats:
            t0 = time.perf_counter_ns()
            ranks.append(gfcore.rank_mod_p(rows, p))
            t_rank += time.perf_counter_ns() - t0
        entry = {
            "sample_us": t_sample / len(mats) / 1e3,
            "rank_us": t_rank / len(mats) / 1e3,
        }
        if item.get("det"):
            undecided = [
                rows
                for rows, r in zip(mats, ranks)
                if r < n
                and len({tuple(x) for x in rows}) == n
                and len({tuple(x) for x in zip(*rows)}) == n
            ][: item["det"]] or mats[: item["det"]]
            det_ns = []
            for rows in undecided:
                t0 = time.perf_counter_ns()
                gfcore.det_integer(rows)
                det_ns.append(time.perf_counter_ns() - t0)
            entry["det_ms"] = sum(det_ns) / len(det_ns) / 1e6
            entry["det_matrices"] = len(det_ns)
        out[item["tag"]] = entry
    return out


def _hooks():
    def entries(result):
        table = getattr(result, "table", None)
        if table is None and isinstance(result, list) and result:
            table = result[-1]
        return len(table) if isinstance(table, dict) else 0

    return {
        "walkdist.walk_tables": (entries, True),
        "walkdist.walk_distribution": (entries, True),
        "exactcount.enumerate_pairing_matrices": (len, False),
        "asymptotics.rate_directed_opt": (
            lambda r: "converged" if getattr(r, "converged", False) else "nonconverged",
            False,
        ),
        "asymptotics.cf_scan": (lambda r: getattr(r, "n_points", 0), False),
    }


def main() -> int:
    job = json.load(sys.stdin)
    import regsing.cli  # noqa: F401  (the start-up every CLI user pays)

    t_import = time.monotonic()
    import ops

    os.makedirs(ops.WORK_DIR, exist_ok=True)
    try:
        state: dict = {}
        for op in job["warmup"]:
            ops.run_op(op, state)
        result = {"t_import": t_import, "t_first": time.monotonic()}
        if job["mode"] == "setup":
            print(json.dumps(result))
            return 0
        tracer = None
        if job["mode"] == "trace":
            import importlib

            from tracer import Tracer

            modules = [importlib.import_module(f"regsing.{m}") for m in job["layers"]]
            tracer = Tracer(modules, _hooks())
            tracer.install()
        speed: list[float] = []
        result["run"] = run_list(job["ops"], ops.run_op, tracer, speed if tracer is None else None,
                                 job["collect"])
        result["speed_s"] = speed
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["run"].pop("layer_self_ns")
            result["probe"] = {}
            for group, op_list in job["probe"].items():
                tracer.reset()
                result["probe"][group] = run_list(op_list, ops.run_op, tracer)
            tracer.uninstall()
            result["direct"] = _direct_probes(job["direct"])
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(ops.WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
