"""Metric arithmetic: pure functions of the numbers the runs return."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ``beyond`` samples
    strictly above it.

    Returns ``(value, percentile, samples)``, the percentile being the
    share of samples at or below the value.
    """
    xs = sorted(values)
    n = len(xs)
    for i in range(n - beyond - 1, -1, -1):
        above = n - next(j for j in range(i, n + 1) if j == n or xs[j] > xs[i])
        if above >= beyond:
            at_or_below = n - above
            return xs[i], 100.0 * at_or_below / n, n
    raise ValueError(f"{n} samples cannot leave {beyond} beyond any value")


# Median CPU time of the speed kernel on the reference machine, a
# 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4; times are scaled to
# that machine's speed.
SPEED_REF_S = 0.014
# speed-kernel runs nearest to an op that set its speed factor
SPEED_NEIGHBOURS = 5


def speed_factors(speed_samples, n_ops: int) -> list[float]:
    """Per op: reference kernel time over the median time of the kernel
    runs nearest to it in the op list, so a machine that slows down for
    a few seconds scales only the ops it slowed."""
    runs = [(pos, sum(parts)) for pos, parts in speed_samples]
    out = []
    for i in range(n_ops):
        near = sorted(runs, key=lambda r: abs(r[0] - i - 0.5))[:SPEED_NEIGHBOURS]
        out.append(SPEED_REF_S / statistics.median(t for _, t in near))
    return out


def end_to_end(setups, cpu, elapsed, speed_samples, peak_rss_mb: float,
               failed: int, attempted: int) -> tuple[dict, dict]:
    """The end-to-end metrics, plus details: the tail's percentile and
    sample count, the unscaled times, and the op statistics in elapsed
    time.

    Op latencies are CPU time of the measured process, each multiplied
    by its speed factor; ``setup_s`` is multiplied by the run's median
    factor.  A machine that runs slower for a while then does not read
    as a slower program.
    """
    factors = speed_factors(speed_samples, len(cpu))
    scaled = [k * x for k, x in zip(factors, cpu)]
    run_factor = SPEED_REF_S / statistics.median(sum(parts) for _, parts in speed_samples)
    value, pct, n = tail(scaled)
    raw_tail = tail(cpu)[0]
    metrics = {
        "setup_s": (run_factor * statistics.median(setups), "s"),
        "cpu_s": (math.fsum(scaled), "s"),
        "op_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "op_tail_ms": (1e3 * value, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ops_ratio": (1.0 - failed / attempted, "ratio"),
    }
    detail = {
        "op_tail": {"percentile": pct, "samples": n, "beyond": TAIL_BEYOND},
        "failed_ops_ratio": failed / attempted,
        "setup_samples_s": list(setups),
        "speed": {"run_factor": run_factor, "op_factor_range": [min(factors), max(factors)],
                  "samples": len(speed_samples),
                  "part_medians_s": [statistics.median(p) for p in zip(*(x for _, x in speed_samples))]},
        "unscaled": {"setup_s": statistics.median(setups), "cpu_s": math.fsum(cpu),
                     "op_p50_ms": 1e3 * statistics.median(cpu), "op_tail_ms": 1e3 * raw_tail},
        "elapsed": {
            "wall_s": math.fsum(elapsed),
            "op_p50_ms": 1e3 * statistics.median(elapsed),
            "op_tail_ms": 1e3 * tail(elapsed)[0],
        },
    }
    return metrics, detail


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _func(group, name, field: int) -> float:
    return group["func"].get(name, [0, 0, 0])[field]


def _layer_excl_ns(group, layer: str) -> int:
    return sum(v[2] for k, v in group["func"].items() if k.startswith(layer + "."))


def outcomes(n: int, d: int, mode: str) -> int:
    """Size of the enumerated model: (nd)! permutations or (nd-1)!! pairings."""
    nd = n * d
    if mode == "directed":
        return math.factorial(nd)
    return math.factorial(nd) // (2 ** (nd // 2) * math.factorial(nd // 2))


def per_layer(probe_ops, probe, direct, *, import_s, overhead_ratio, reuse_ratio) -> dict:
    """Per-layer metrics from the probe groups of a traced run."""
    m: dict[str, tuple[float, str]] = {}

    mc = probe["mc"]
    for i, op in enumerate(probe_ops["mc"]):
        tag, trials, out = op["tag"], op["trials"], mc["outputs"][i] or {}
        m[f"experiments.us_per_trial.{tag}"] = (1e6 * mc["latency"][i] / trials, "us")
        self_ns = mc["layer_self_ns"][i].get("experiments", 0)
        m[f"experiments.self_us_per_trial.{tag}"] = (self_ns / 1e3 / trials, "us")
        if op["p"] is None:
            n = f"n{op['n']}"
            m[f"experiments.escalation_ratio.{n}"] = (out.get("escalations", 0) / trials, "ratio")
            m[f"experiments.duplicate_row_ratio.{n}"] = (out.get("duplicate_rows", 0) / trials, "ratio")
            m[f"experiments.singular_ratio.{n}"] = (out.get("singular_count", 0) / trials, "ratio")
        d = direct[tag]
        m[f"confmodel.sample_us.{tag}"] = (d["sample_us"], "us")
        m[f"gfcore.rank_mod_p_us.{tag}"] = (d["rank_us"], "us")
        if "det_ms" in d:
            m["gfcore.det_integer_ms"] = (d["det_ms"], "ms")

    ex, ex_ops = probe["exact"], probe_ops["exact"]
    walk_ns = _layer_excl_ns(ex, "walkdist") - _func(ex, "walkdist.table_moments", 2)
    m["walkdist.walk_tables_s"] = (walk_ns / 1e9, "s")
    m["walkdist.table_entries"] = (
        ex["counts"].get("walkdist.walk_tables", 0) + ex["counts"].get("walkdist.walk_distribution", 0),
        "count",
    )
    bits = [out["max_bits"] for op, out in zip(ex_ops, ex["outputs"]) if op["kind"] == "walk" and out]
    m["walkdist.max_count_bits"] = (max(bits, default=0), "bits")
    m["walkdist.table_moments_s"] = (_func(ex, "walkdist.table_moments", 1) / 1e9, "s")
    sums = [i for i, op in enumerate(ex_ops) if op["kind"] == "master_sum"]
    m["exactcount.master_sum_self_s"] = (
        sum(ex["layer_self_ns"][i].get("exactcount", 0) for i in sums) / 1e9, "s")
    m["exactcount.classes_visited"] = (
        sum(math.comb(ex_ops[i]["n"] + ex_ops[i]["p"] - 1, ex_ops[i]["p"] - 1) - 1 for i in sums), "count")
    m["exactcount.pairing_matrices"] = (ex["counts"].get("exactcount.enumerate_pairing_matrices", 0), "count")
    m["exactcount.table_reuse_ratio"] = (reuse_ratio, "ratio")
    certs = [i for i, op in enumerate(ex_ops) if op["kind"] == "certify"]
    certify_s = math.fsum(ex["latency"][i] for i in certs)
    m["bruteoracle.certify_s"] = (certify_s, "s")
    done = sum(outcomes(ex_ops[i]["n"], ex_ops[i]["d"], ex_ops[i]["mode"]) for i in certs)
    m["bruteoracle.outcomes_per_s"] = (_div(done, certify_s), "1/s")

    an = probe["analytic"]
    conv = an["labels"].get("asymptotics.rate_directed_opt|converged", [0, 0])
    nonconv = an["labels"].get("asymptotics.rate_directed_opt|nonconverged", [0, 0])
    m["asymptotics.rate_opt_ms.converged"] = (_div(conv[1], conv[0]) / 1e6, "ms")
    m["asymptotics.rate_opt_ms.nonconverged"] = (_div(nonconv[1], nonconv[0]) / 1e6, "ms")
    m["asymptotics.rate_opt_converged_ratio"] = (_div(conv[0], conv[0] + nonconv[0]), "ratio")
    m["asymptotics.cf_scan_points_per_s"] = (
        _div(an["counts"].get("asymptotics.cf_scan", 0), _func(an, "asymptotics.cf_scan", 1) / 1e9), "1/s")
    m["asymptotics.build_support_ms"] = (
        _div(_func(an, "walkdist.build_support", 1), _func(an, "walkdist.build_support", 0)) / 1e6, "ms")
    m["cli.import_s"] = (import_s, "s")
    cli_self = sum(x.get("cli", 0) for x in an["layer_self_ns"])
    m["cli.main_self_ms"] = (_div(cli_self, len(an["layer_self_ns"])) / 1e6, "ms")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
