"""Benchmark of the regsing package: four seeded workloads.

Usage, from the root of the repository:

    python3 bench/run.py --workload mc_integer --seed 1 --seconds 12 --trace 0

Each run starts fresh interpreters (``child.py``) with one BLAS thread
and ``workers=1``, and imports the package from ``src``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics from a traced pass and the layer probes.  The last line of
stdout is the result as one JSON object; the line before it holds the
details (environment, tail percentile, workload properties).  The exit
code is 0 only when a result was produced; an op that fails or returns
a wrong output is counted in ``failed``, and ``correct`` is then false.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # fresh interpreters per run whose set-up time is taken
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "REGSING_WORKERS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(job: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one fresh measured interpreter; returns its result with the
    spawn time on the same monotonic clock."""
    data = json.dumps(job)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=data, capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measured process exceeded {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"measured process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["t_spawn"] = t_spawn
    return out


def environment(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def count_failures(op_list, run, full, ref) -> tuple[int, list[int]]:
    ok = workloads.check_ops(op_list, run["outputs"], run["errors"], full, ref)
    bad = [i for i, good in enumerate(ok) if not good]
    return len(bad), bad


def measure(args) -> tuple[dict, dict]:
    ops = workloads.make_ops(args.workload, args.seed, args.seconds)
    warmup = workloads.warmup_ops(args.workload)
    ref = workloads.load_reference()
    full = workloads.full_check_indices(args.workload, args.seed, ops)
    detail: dict = {"env": environment(args), "ops": len(ops)}

    setup_job = {"mode": "setup", "ops": [], "warmup": warmup}
    n_setup = SETUP_SAMPLES - 1 if args.trace == 0 else IMPORT_SAMPLES - 1
    starts = [spawn(setup_job) for _ in range(n_setup)]
    collect = args.workload in workloads.COLLECT_BETWEEN_OPS
    main = spawn({"mode": "run", "ops": ops, "warmup": warmup, "collect": collect})
    starts.append(main)
    run = main["run"]
    failed, bad = count_failures(ops, run, full, ref)
    attempted = len(ops)
    detail["properties"] = workloads.properties(args.workload, ops, run["outputs"])

    if args.trace == 0:
        setups = [p["t_first"] - p["t_spawn"] for p in starts]
        values, extra = metrics.end_to_end(
            setups, run["cpu"], run["latency"], main["speed_s"], main["peak_rss_mb"], failed, attempted)
        detail.update(extra)
    else:
        probe_ops, direct_plan = workloads.probe_plan(args.seed)
        traced = spawn({"mode": "trace", "ops": ops, "warmup": warmup, "collect": collect,
                        "layers": list(workloads.LAYERS), "probe": probe_ops, "direct": direct_plan})
        # tracing must not change a single output
        mismatched = [i for i, (a, b) in enumerate(zip(run["outputs"], traced["run"]["outputs"])) if a != b]
        bad = sorted(set(bad) | set(mismatched))
        failed = len(bad)
        for group, op_list in probe_ops.items():
            n_bad, _ = count_failures(op_list, traced["probe"][group], set(), ref)
            failed += n_bad
            attempted += len(op_list)
        exact_ops = ops if args.workload == "exact" else workloads.make_ops("exact", args.seed, args.seconds)
        values = metrics.per_layer(
            probe_ops, traced["probe"], traced["direct"],
            import_s=statistics.median(p["t_import"] - p["t_spawn"] for p in starts),
            overhead_ratio=sum(traced["run"]["cpu"]) / sum(run["cpu"]),
            reuse_ratio=workloads.table_reuse_ratio(exact_ops),
        )
        detail["traced_pass"] = {k: traced["run"][k] for k in ("func", "counts", "labels")}
        detail["traced_pass"]["cpu_s"] = sum(traced["run"]["cpu"])
        detail["untraced_cpu_s"] = sum(run["cpu"])
    if bad:
        detail["failed_ops"] = [{"index": i, "op": ops[i], "error": run["errors"][i]} for i in bad[:20]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "regsing" / "cli.py").is_file():
        print(f"error: no regsing sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    # the output checks rebuild trials with the package's own sampler
    sys.path.insert(0, str(ROOT / "src"))
    try:
        detail, result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        print(f"{args.workload} wall_s = {detail['elapsed']['wall_s']:.6g} s (elapsed)")
    ratio = result["failed"] / result["attempted"]
    print(f"{args.workload} failed_ops_ratio = {ratio:.6g} ratio ({result['failed']}/{result['attempted']})")
    print("detail " + json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
