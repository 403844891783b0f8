"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import math
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import metrics  # noqa: E402
import ops  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    xs = [float(i) for i in range(1, 21)]
    value, pct, n = metrics.tail(reversed(xs))
    assert (value, pct, n) == (10.0, 50.0, 20)
    assert sum(x > value for x in xs) == 10


def test_tail_steps_below_ties():
    # eight samples tie at the 11th-largest value, so the tail drops below them
    xs = [1.0] * 5 + [2.0] * 8 + [3.0] * 8
    value, pct, n = metrics.tail(xs)
    assert (value, n) == (1.0, 21)
    assert pct == pytest.approx(100 * 5 / 21)


def test_speed_factor_follows_the_nearest_kernel_runs():
    ref = metrics.SPEED_REF_S
    # the machine runs at full speed for ops 0-9 and at half speed after
    samples = [[i, [ref]] for i in range(0, 10, 2)] + [[i, [2 * ref]] for i in range(10, 21, 2)]
    factors = metrics.speed_factors(samples, 20)
    assert factors[:8] == [1.0] * 8 and factors[12:] == [0.5] * 8


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        metrics.tail(range(10))
    assert metrics.tail(range(11))[0] == 0


def test_end_to_end_counts_failures():
    ref = metrics.SPEED_REF_S
    cpu = [0.001 * (i + 1) for i in range(20)]
    slow = [[i, [ref, ref]] for i in (0, 5, 10, 15, 20)]
    values, detail = metrics.end_to_end(
        [1.0, 2.0, 3.0], cpu, [2 * x for x in cpu], slow, 100.0, failed=5, attempted=20)
    assert values["ok_ops_ratio"] == (0.75, "ratio")
    assert detail["failed_ops_ratio"] == 0.25
    # the machine ran at half the reference speed: times are halved
    assert values["cpu_s"][0] == pytest.approx(0.105)
    assert values["op_tail_ms"][0] == pytest.approx(5.0)
    assert detail["unscaled"]["cpu_s"] == pytest.approx(0.21)
    assert detail["elapsed"]["wall_s"] == pytest.approx(0.42)
    assert values["setup_s"] == (1.0, "s")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    a = workloads.make_ops(workload, 7, 12)
    assert a == workloads.make_ops(workload, 7, 12)
    assert a != workloads.make_ops(workload, 8, 12)


def test_probe_plan_is_seeded():
    assert workloads.probe_plan(3) == workloads.probe_plan(3)
    assert workloads.probe_plan(3) != workloads.probe_plan(4)


def _mc_output(p):
    op = workloads._mc_op(10, "directed", p, 30, 12345, "t")
    return op, ops.run_op(op, {})[1]


@pytest.mark.parametrize("p", [None, 3])
def test_planted_wrong_tally_fails(p):
    op, out = _mc_output(p)
    assert workloads.check_ops([op], [out], [None], full={0}) == [True]
    bad = dict(out, singular_count=out["singular_count"] + 1)
    bad["estimate"] = bad["singular_count"] / bad["trials"]
    if p is not None:
        bad["kernel_positive"] += 1
        bad["kernel_total"] = int(bad["kernel_total"]) + p - 1
        bad["kernel_sq_total"] = int(bad["kernel_sq_total"]) + (p - 1) ** 2
    # consistent enough for the per-op check, caught by the recount
    assert workloads.check_ops([op], [bad], [None], full={0}) == [False]


def test_light_check_catches_inconsistent_report():
    op, out = _mc_output(3)
    bad = dict(out, kernel_positive=out["kernel_positive"] + 1)
    assert workloads.check_ops([op], [bad], [None]) == [False]


def test_exception_counts_as_failed():
    op, out = _mc_output(None)
    assert workloads.check_ops([op, op], [out, None], [None, "ValueError: boom"]) == [True, False]


def test_exact_outputs_against_reference():
    ref = workloads.load_reference()
    op = {"kind": "master_sum", "mode": "directed", "n": 3, "d": 3, "p": 2}
    _, out = ops.run_op(op, {})
    assert out == "27/28"
    assert workloads.check_ops([op, op], [out, "1/2"], [None, None], ref=ref) == [True, False]
    walk = {"kind": "walk", "d": 5, "p": 5, "n": 3}
    mom = {"kind": "moments", "d": 5, "p": 5, "n": 3}
    state = {}
    outs = [ops.run_op(walk, state)[1], ops.run_op(mom, state)[1]]
    assert workloads.check_ops([walk, mom], outs, [None, None], ref=ref) == [True, True]
    outs[1]["mean"][0] = "0/1"
    assert workloads.check_ops([walk, mom], outs, [None, None], ref=ref) == [True, False]


@pytest.fixture
def workdir():
    os.makedirs(ops.WORK_DIR, exist_ok=True)
    yield
    shutil.rmtree(ops.WORK_DIR, ignore_errors=True)


def test_rate_check_holds_converged_values_and_flags(workdir):
    nu, d, p = workloads.rate_pool()[0]
    op = workloads._rate_op(nu, d, p, "interior")
    _, out = ops.run_op(op, {})
    assert out["payload"]["converged"]
    assert workloads.check_ops([op], [out], [None]) == [True]
    off = {"exit": 0, "payload": dict(out["payload"], value=out["payload"]["value"] - 1e-9)}
    assert workloads.check_ops([op], [off], [None]) == [False]
    # an infeasible input must not claim a minimiser; its value is not checked
    nu, d, p = workloads.EDGE_RATES[0]
    edge = workloads._rate_op(nu, d, p, workloads.hull_class(nu, d, p))
    assert edge["meta"]["class"] == "infeasible"
    _, out = ops.run_op(edge, {})
    assert workloads.check_ops([edge], [out], [None]) == [True]
    claimed = {"exit": 0, "payload": dict(out["payload"], converged=True, value=-math.inf)}
    assert workloads.check_ops([edge], [claimed], [None]) == [False]
    refused = {"exit": 2, "payload": None}
    assert workloads.check_ops([edge], [refused], [None]) == [False]


def test_table_reuse_ratio():
    op_list = [
        {"kind": "master_sum", "d": 3, "p": 2, "n": 4},
        {"kind": "master_sum", "d": 3, "p": 2, "n": 8},
        {"kind": "certify", "d": 3, "p": 2, "n": 2},
        {"kind": "walk", "d": 3, "p": 3, "n": 4},
    ]
    assert workloads.table_reuse_ratio(op_list) == 4 / 16


def test_tracer_self_time_and_uninstall():
    from regsing import exactcount, walkdist

    original = exactcount.walk_tables
    tracer = Tracer([exactcount, walkdist], {"walkdist.walk_tables": (lambda r: len(r[-1]), True)})
    tracer.install()
    try:
        assert exactcount.walk_tables is not original
        tracer.op = 0
        value = exactcount.master_sum_directed(8, 3, 2)
    finally:
        tracer.uninstall()
    assert exactcount.walk_tables is original
    assert ops.frac(value) == "38934/46189"
    totals = tracer.func_totals()
    calls, incl, excl = totals["exactcount.master_sum_directed"]
    assert calls == 1 and 0 < excl <= incl
    layers = tracer.layer_self_by_op(1)[0]
    assert sum(layers.values()) == incl
    assert tracer.counts["walkdist.walk_tables"] > 0
