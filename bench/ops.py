"""Op executors for the measured process.

An op is a JSON dict made by ``workloads.py``; ``run_op`` performs the
one public call it names and returns ``([elapsed s, CPU s], output)``.
Only the call is timed.  The output is reduced to plain JSON after the clock
stops, so the parent can check it and compare a traced pass with an
untraced one.

This module is imported after ``regsing.cli`` and imports nothing heavy
of its own, so the start-up it adds to ``setup_s`` is the program's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from fractions import Fraction

from regsing import bruteoracle, cli, exactcount, experiments, walkdist

# the analytic ops write their --out file here; removed when the run ends
WORK_DIR = os.path.join("bench", ".work")
CLI_OUT = os.path.join(WORK_DIR, "cli_out.json")


def timed(fn, *args):
    """Call fn(*args); return (result, wall seconds, CPU seconds)."""
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn(*args)
    return result, time.perf_counter() - w0, time.process_time() - c0


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def table_digest(table: dict) -> dict:
    """Order-independent fingerprint of an exact endpoint table."""
    h = hashlib.sha256()
    for key in sorted(table):
        h.update(f"{key}:{table[key]};".encode())
    return {
        "entries": len(table),
        "total": str(sum(table.values())),
        "max_bits": max(int(c).bit_length() for c in table.values()),
        "sha256": h.hexdigest(),
    }


def _mc(op):
    cfg = experiments.McConfig(
        n=op["n"], d=op["d"], mode=op["mode"], p=op["p"], trials=op["trials"],
        seed=op["seed"], workers=1,
    )
    rep, *dt = timed(experiments.run_mc, cfg)
    out = dataclasses.asdict(rep)
    out.pop("wall_time_s")
    out["wilson_ci_95"] = list(out["wilson_ci_95"])
    return dt, out


def _master_sum(op):
    fn = (
        exactcount.master_sum_directed
        if op["mode"] == "directed"
        else exactcount.master_sum_undirected
    )
    value, *dt = timed(fn, op["n"], op["d"], op["p"])
    return dt, frac(value)


def _walk(op, state):
    dist, *dt = timed(lambda: walkdist.walk_distribution(walkdist.build_support(op["d"], op["p"]), op["n"]))
    state["dist"] = dist
    return dt, table_digest(dist.table)


def _moments(op, state):
    dist = state.pop("dist")
    m, *dt = timed(walkdist.table_moments, dist)
    return dt, {"mean": [frac(x) for x in m.mean], "cov": [[frac(x) for x in r] for r in m.cov]}


def _certify(op):
    rep, *dt = timed(bruteoracle.certify_identities, op["n"], op["d"], op["p"], op["mode"])
    return dt, {
        "passed": rep.passed,
        "class_consistent": rep.class_consistent,
        "mismatches": len(rep.mismatches),
        "classes": len(rep.classes),
        "master_exact": frac(rep.master_exact),
        "master_brute": frac(rep.master_brute),
    }


def _cli(op):
    argv = list(op["argv"]) + ["--out", CLI_OUT]
    code, *dt = timed(cli.main, argv)
    payload = None
    if code == 0:
        with open(CLI_OUT, encoding="utf-8") as fh:
            payload = json.load(fh)
    return dt, {"exit": code, "payload": payload}


def run_op(op: dict, state: dict):
    kind = op["kind"]
    if kind == "mc":
        return _mc(op)
    if kind == "master_sum":
        return _master_sum(op)
    if kind == "walk":
        return _walk(op, state)
    if kind == "moments":
        return _moments(op, state)
    if kind == "certify":
        return _certify(op)
    if kind == "cli":
        return _cli(op)
    raise ValueError(f"unknown op kind {kind!r}")
