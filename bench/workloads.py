"""Seeded op lists, output checks and workload properties (parent side).

Every list is a pure function of ``(workload, seed, seconds)``.  The
measured process receives only the generated ops; the classification
used to build them (for example which rate inputs lie inside the hull
of the step support) stays here, with the checks.

Sizes are chosen so each workload's op list takes about ``seconds`` on
the seed code (2-core x86-64, OpenBLAS on one thread, no gmpy2); the
``*_ROUND_S`` constants are those measured round costs.  A faster
program finishes the same list sooner, which is what ``cpu_s`` shows.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import zlib
from fractions import Fraction

import numpy as np

WORKLOADS = ("mc_integer", "mc_field", "exact", "analytic")
LAYERS = (
    "gfcore", "confmodel", "walkdist", "exactcount",
    "bruteoracle", "asymptotics", "experiments", "cli",
)
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
CHECK_PRIME = 2147483647  # 2**31 - 1: full rank mod it proves det != 0
# Workloads whose ops start from a full garbage collection, as a fresh
# process would.  exact's ops allocate millions of tuples, big integers
# and fractions, so without it an op can pay for a full collection its
# predecessors set off, and the median op would depend on the order.
COLLECT_BETWEEN_OPS = ("exact",)


def _rng(seed: int, *tag) -> np.random.Generator:
    words = [zlib.crc32(str(t).encode()) for t in tag]
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), *words]))


def _op_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


# -- Monte Carlo ---------------------------------------------------------

def _mc_op(n, mode, p, trials, seed, tag):
    return {"kind": "mc", "tag": tag, "n": n, "d": 3, "mode": mode, "p": p,
            "trials": trials, "seed": seed}


# The median op must sit inside one cluster of similar ops, never on
# the border between two kinds whose relative speed can shift, so one
# kind makes up two thirds or three fifths of the ops.  n=50 and n=200
# are the criterion-7 sizes; n=200 ops (about 58 ms) never escalate,
# n=50 ops (about 30 ms) escalate to det_integer in about 2.5% of trials.
MC_INTEGER_ROUND = (
    ("int_n50", 50, "directed", None, 10),
    ("int_n200", 200, "directed", None, 4),
    ("int_n200", 200, "directed", None, 4),
)
MC_INTEGER_ROUND_S = 0.147
# n=100, p=5 (about 55 ms) is criterion 6 (elimination-bound); n=3
# directed and n=4 undirected at p=2 (about 22 ms) are criterion 12
# (per-trial overhead-bound).
MC_FIELD_ROUND = (
    ("p5_n100", 100, "directed", 5, 10),
    ("p5_n100", 100, "directed", 5, 10),
    ("p5_n100", 100, "directed", 5, 10),
    ("p2_n3", 3, "directed", 2, 100),
    ("p2_n4u", 4, "undirected", 2, 100),
)
MC_FIELD_ROUND_S = 0.21


def _mc_ops(name, seed, rounds, spec):
    rng = _rng(seed, name)
    return [
        _mc_op(n, mode, p, trials, _op_seed(rng), tag)
        for _ in range(rounds)
        for tag, n, mode, p, trials in spec
    ]


# -- exact ---------------------------------------------------------------

# (mode, n, d, p).  Anchors of tests/test_acceptance.py are included:
# 27/28 at (3,3,2), 0 at (2,3,2) and the frozen d=3, p=2 master sums.
MASTER_GRID = (
    [("directed", n, 3, 2) for n in (2, 3, 4, 8, 16, 32, 64, 128, 192, 256)]
    + [("undirected", n, 3, 2) for n in (8, 16, 32, 64, 128)]
    + [("directed", n, 3, 3) for n in (8, 12, 16, 24, 32)]
    + [("directed", n, 4, 3) for n in (8, 12, 16, 20)]
    + [("directed", n, 3, 5) for n in (6, 8, 10, 12)]
    + [("undirected", n, 3, 3) for n in (4, 6, 8, 10, 12)]
    + [("undirected", n, 4, 3) for n in (4, 6, 8)]
    + [("undirected", n, 4, 5) for n in (4, 6)]
)
# (d, p, n): walk tables and their moments at large (d, p)
WALK_GRID = ((5, 5, 3), (5, 5, 4), (6, 5, 3), (6, 5, 4), (5, 7, 3), (4, 7, 4), (6, 7, 3))
# (n, d, p, mode): the criterion 1 and 2 certification cases
CERTIFY_GRID = (
    (2, 3, 2, "directed"), (2, 3, 3, "directed"), (2, 3, 5, "directed"), (3, 3, 2, "directed"),
    (2, 4, 2, "directed"), (2, 4, 3, "directed"), (4, 2, 2, "directed"),
    (2, 3, 2, "undirected"), (2, 3, 3, "undirected"), (4, 3, 2, "undirected"),
    (2, 4, 2, "undirected"), (3, 4, 2, "undirected"),
)
EXACT_GRID_S = 12.5
# a cheap slice of the grid for the layer probes of a traced run
PROBE_MASTER = (
    ("directed", 64, 3, 2), ("directed", 128, 3, 2), ("undirected", 64, 3, 2),
    ("directed", 16, 3, 3), ("directed", 12, 4, 3), ("directed", 8, 3, 5),
    ("undirected", 8, 3, 3), ("undirected", 6, 4, 3), ("undirected", 4, 4, 5),
)
PROBE_WALK = ((5, 5, 3), (6, 5, 3))
PROBE_CERTIFY = ((2, 4, 2, "directed"), (4, 2, 2, "directed"), (4, 3, 2, "undirected"), (3, 4, 2, "undirected"))


def _exact_units(masters, walks, certs):
    units = [[{"kind": "master_sum", "mode": m, "n": n, "d": d, "p": p}] for m, n, d, p in masters]
    units += [
        [{"kind": "walk", "d": d, "p": p, "n": n}, {"kind": "moments", "d": d, "p": p, "n": n}]
        for d, p, n in walks
    ]
    units += [[{"kind": "certify", "n": n, "d": d, "p": p, "mode": m}] for n, d, p, m in certs]
    return units


def _shuffled(units, rng, passes=1):
    out = []
    for _ in range(passes):
        for i in rng.permutation(len(units)):
            out.extend(units[int(i)])
    return out


def table_reuse_ratio(op_list) -> float:
    """Share of walk steps an op needs that an earlier op already built
    for the same (d, p): what a cached walk-table provider could skip.
    Counts master-sum and walk ops, in list order."""
    built: dict[tuple[int, int], int] = {}
    need = reuse = 0
    for op in op_list:
        if op["kind"] not in ("master_sum", "walk"):
            continue
        key = (op["d"], op["p"])
        need += op["n"]
        reuse += min(op["n"], built.get(key, 0))
        built[key] = max(op["n"], built.get(key, 0))
    return reuse / need if need else 0.0


# -- analytic ------------------------------------------------------------

RATE_CELLS = tuple((p, d) for p in (2, 3, 5) for d in (3, 4, 5))
# Directed-rate inputs come from a fixed pool of Dirichlet draws whose
# d*nu lies inside the hull of the step support.  About one such input
# in fifteen makes the seed code's Newton stall at its gradient tolerance
# for 0.6-1.1 s, so drawing afresh per run would move cpu_s by about 10%
# between seeds.  Every run therefore uses the whole pool; the run seed
# shuffles it and draws the other analytic inputs.
RATE_POOL_SEED = 2018
RATE_POOL_PER_CELL = 24
# Fixed boundary and infeasible frequency vectors, classed by the LP in
# hull_class: infeasible ones have no minimiser and Newton runs to
# max_iter; boundary ones have an empty symbol.
EDGE_RATES = (
    ((0.1, 0.9), 3, 2),
    ((0.04, 0.12, 0.84), 4, 3),
    ((0.21, 0.04, 0.63, 0.07, 0.05), 3, 5),
    ((0.5, 0.5, 0.0), 3, 3),
    ((0.7, 0.1, 0.1, 0.1, 0.0), 3, 5),
)
# (d, p, K) with delta 0.1: criterion 8 setups plus two more
CF_SCANS = ((3, 2, 64), (3, 3, 32), (4, 3, 32), (5, 3, 64), (3, 5, 8))
CF_DELTA = 0.1
LCLT_CELLS = ((3, 2), (3, 3), (4, 3), (3, 5))
UNDIRECTED_CELLS = ((3, 2), (4, 2), (3, 3), (4, 3))
# one pass: (edge repeats, cf-scan repeats, lclt ops, undirected ops)
ANALYTIC_PASS = (3, 6, 30, 20)
ANALYTIC_PASS_S = 15.5


@functools.lru_cache(maxsize=None)
def step_atoms(d: int, p: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Histograms of zero-sum d-tuples over F_p with multiplicities,
    computed here independently of walkdist."""
    out = []
    for u in itertools.product(range(d + 1), repeat=p):
        if sum(u) != d or sum(j * x for j, x in enumerate(u)) % p:
            continue
        mult = math.factorial(d)
        for x in u:
            mult //= math.factorial(x)
        out.append((u, mult))
    return tuple(out)


def _in_hull(x, atoms) -> bool:
    from scipy.optimize import linprog

    a = np.array([u for u, _ in atoms], dtype=float).T
    res = linprog(
        np.zeros(a.shape[1]),
        A_eq=np.vstack([a, np.ones(a.shape[1])]),
        b_eq=np.concatenate([x, [1.0]]),
        bounds=(0, None),
        method="highs",
    )
    return res.status == 0


def hull_class(nu, d: int, p: int, margin: float = 0.2) -> str:
    """'interior' when d*nu stays in the hull of the step support after
    pushing it away from the centre by the margin; 'infeasible' when it
    is still outside after pulling it in by the margin; else 'edge'."""
    atoms = step_atoms(d, p)
    centre = np.full(p, d / p)
    x = d * np.asarray(nu, dtype=float)
    if _in_hull(centre + (1 + margin) * (x - centre), atoms):
        return "interior"
    if not _in_hull(centre + (1 - margin) * (x - centre), atoms):
        return "infeasible"
    return "edge"


def _fmt(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


def _rate_op(nu, d, p, cls):
    return {"kind": "cli", "argv": ["rate", "--frak-n", _fmt(nu), "--d", str(d), "--p", str(p)],
            "meta": {"cmd": "rate", "nu": [float(x) for x in nu], "d": d, "p": p, "class": cls}}


@functools.lru_cache(maxsize=None)
def rate_pool() -> tuple:
    rng = np.random.default_rng(RATE_POOL_SEED)
    pool = []
    for p, d in RATE_CELLS:
        got = 0
        while got < RATE_POOL_PER_CELL:
            nu = rng.dirichlet(np.ones(p))
            if hull_class(nu, d, p) == "interior":
                pool.append((tuple(float(x) for x in nu), d, p))
                got += 1
    return tuple(pool)


def _analytic_ops(rng, pool, edge_repeat, cf_repeat, n_lclt, n_undirected):
    ops = [_rate_op(nu, d, p, "interior") for nu, d, p in pool]
    for _ in range(edge_repeat):
        ops += [_rate_op(nu, d, p, "boundary" if 0.0 in nu else hull_class(nu, d, p))
                for nu, d, p in EDGE_RATES]
    for _ in range(cf_repeat):
        ops += [{"kind": "cli", "argv": ["cf-scan", "--d", str(d), "--p", str(p),
                                         "--delta", repr(CF_DELTA), "--step", f"2pi/{k}"],
                 "meta": {"cmd": "cf-scan", "d": d, "p": p, "k": k, "delta": CF_DELTA}}
                for d, p, k in CF_SCANS]
    for _ in range(n_lclt):
        d, p = LCLT_CELLS[int(rng.integers(len(LCLT_CELLS)))]
        n = int(rng.integers(8, 65))
        sig = [int(x) for x in rng.multinomial(n, rng.dirichlet(np.ones(p)))]
        ops.append({"kind": "cli", "argv": ["lclt", "--sig", ",".join(map(str, sig)),
                                            "--d", str(d), "--p", str(p)],
                    "meta": {"cmd": "lclt", "sig": sig, "d": d, "p": p}})
    for k in range(n_undirected):
        d, p = UNDIRECTED_CELLS[k % len(UNDIRECTED_CELLS)]
        w = rng.dirichlet(np.ones(p * (p + 1) // 2))
        m = np.zeros((p, p))
        for (i, j), x in zip(itertools.combinations_with_replacement(range(p), 2), w):
            m[i, j] = m[j, i] = x if i == j else x / 2
        rows = [[float(v) for v in row] for row in m]
        ops.append({"kind": "cli", "argv": ["rate", "--mode", "undirected", "--frak-m",
                                            ";".join(_fmt(r) for r in rows), "--d", str(d), "--p", str(p)],
                    "meta": {"cmd": "rate-undirected", "m": rows, "d": d, "p": p}})
    return [ops[int(i)] for i in rng.permutation(len(ops))]


# -- plans ---------------------------------------------------------------

def _rounds(seconds: float, round_s: float) -> int:
    return max(2, round(seconds / round_s))


def make_ops(workload: str, seed: int, seconds: float) -> list[dict]:
    """The timed op list of one run."""
    if workload == "mc_integer":
        return _mc_ops(workload, seed, _rounds(seconds, MC_INTEGER_ROUND_S), MC_INTEGER_ROUND)
    if workload == "mc_field":
        return _mc_ops(workload, seed, _rounds(seconds, MC_FIELD_ROUND_S), MC_FIELD_ROUND)
    if workload == "exact":
        passes = max(1, round(seconds / EXACT_GRID_S))
        units = _exact_units(MASTER_GRID, WALK_GRID, CERTIFY_GRID)
        return _shuffled(units, _rng(seed, workload), passes)
    if workload == "analytic":
        rng = _rng(seed, workload)
        passes = max(1, round(seconds / ANALYTIC_PASS_S))
        return [op for _ in range(passes) for op in _analytic_ops(rng, rate_pool(), *ANALYTIC_PASS)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_ops(workload: str) -> list[dict]:
    """One tiny op per op kind, run before the clock starts."""
    if workload == "mc_integer":
        return [_mc_op(4, "directed", None, 2, 0, "warmup")]
    if workload == "mc_field":
        return [_mc_op(4, "directed", 2, 2, 0, "warmup"), _mc_op(4, "undirected", 2, 2, 0, "warmup")]
    if workload == "exact":
        units = _exact_units([("directed", 2, 3, 2), ("undirected", 2, 3, 2)],
                             [(3, 2, 1)], [(2, 3, 2, "directed")])
        return [op for unit in units for op in unit]
    if workload == "analytic":
        return [
            _rate_op((0.5, 0.5), 3, 2, "interior"),
            {"kind": "cli", "argv": ["rate", "--mode", "undirected", "--frak-m", "0.25,0.25;0.25,0.25",
                                     "--d", "3", "--p", "2"]},
            {"kind": "cli", "argv": ["cf-scan", "--d", "3", "--p", "2", "--delta", "0.1", "--step", "2pi/8"]},
            {"kind": "cli", "argv": ["lclt", "--sig", "2,2", "--d", "3", "--p", "2"]},
        ]
    raise ValueError(f"unknown workload {workload!r}")


MC_PROBE = (
    ("int_n50", 50, "directed", None, 300),
    ("int_n200", 200, "directed", None, 12),
    ("p5_n100", 100, "directed", 5, 30),
    ("p2_n3", 3, "directed", 2, 1000),
    ("p2_n4u", 4, "undirected", 2, 1000),
)
# trial matrices timed directly per probe tag: (count, det matrices)
DIRECT_PROBE = {"int_n50": (40, 5), "int_n200": (8, 0), "p5_n100": (20, 0), "p2_n3": (300, 0), "p2_n4u": (300, 0)}


def probe_plan(seed: int) -> tuple[dict, list[dict]]:
    """Layer probes of a traced run: a small seeded slice of every
    workload, the same whichever workload is traced, plus the trial
    matrices timed directly."""
    rng = _rng(seed, "probe")
    mc = [_mc_op(n, mode, p, trials, _op_seed(rng), tag) for tag, n, mode, p, trials in MC_PROBE]
    exact = _shuffled(_exact_units(PROBE_MASTER, PROBE_WALK, PROBE_CERTIFY), rng)
    pool = rate_pool()
    firsts = [pool[c * RATE_POOL_PER_CELL + j] for c in range(len(RATE_CELLS)) for j in range(2)]
    analytic = _analytic_ops(rng, firsts, 1, 1, 6, 4)
    direct = []
    for op in mc:
        count, det = DIRECT_PROBE[op["tag"]]
        direct.append({"tag": op["tag"], "n": op["n"], "d": op["d"], "mode": op["mode"],
                       "p": op["p"] or CHECK_PRIME, "det": det,
                       "trials": [[op["seed"], i] for i in range(min(count, op["trials"]))]})
    return {"mc": mc, "exact": exact, "analytic": analytic}, direct


# -- workload properties -------------------------------------------------

def properties(workload: str, op_list, outputs) -> dict:
    """Input properties a targeted optimisation depends on, with bases."""
    props: dict = {}
    if workload.startswith("mc_"):
        by_tag: dict[str, dict] = {}
        for op, out in zip(op_list, outputs):
            agg = by_tag.setdefault(op["tag"], {"n": op["n"], "trials": 0, "singular": 0,
                                                "duplicate_rows": 0, "escalations": 0})
            if out is None:
                continue
            agg["trials"] += out["trials"]
            for k in ("singular", "duplicate_rows", "escalations"):
                agg[k] += out["singular_count" if k == "singular" else k]
        for tag, agg in by_tag.items():
            t = max(agg["trials"], 1)
            props[tag] = {
                "trials": agg["trials"],
                "singular_share": agg["singular"] / t,
                "duplicate_row_share": agg["duplicate_rows"] / t,
                "escalation_share": agg["escalations"] / t,
                "matrix_bytes_per_trial": 8 * agg["n"] ** 2,
            }
    elif workload == "exact":
        props["table_reuse_share"] = table_reuse_ratio(op_list)
        props["ops_by_kind"] = {k: sum(op["kind"] == k for op in op_list)
                                for k in ("master_sum", "walk", "moments", "certify")}
    elif workload == "analytic":
        rates = [out["payload"] for op, out in zip(op_list, outputs)
                 if op["meta"]["cmd"] == "rate" and out and out["payload"]]
        props["rate_calls"] = len(rates)
        props["rate_converged_share"] = (
            sum(r["converged"] for r in rates) / len(rates) if rates else 0.0
        )
        props["rate_classes"] = {c: sum(op["meta"].get("class") == c for op in op_list)
                                 for c in ("interior", "infeasible", "boundary")}
    return props


# -- reference values (independent of the package) -------------------------

def rate_explicit_ref(nu, d: int, p: int) -> float:
    alpha = (d - 1) / d
    total = 0.0
    for u, mult in step_atoms(d, p):
        term = float(mult)
        for uk, nk in zip(u, nu):
            if uk:
                term = 0.0 if nk == 0.0 else term * nk ** (alpha * uk)
        total += term
    return math.log(total) if total > 0.0 else -math.inf


def rate_opt_ref(nu, d: int, p: int) -> float:
    """Legendre value by Newton with backtracking, for interior inputs."""
    atoms = step_atoms(d, p)
    a = np.array([u for u, _ in atoms], dtype=float)
    log_w = np.array([math.log(m) for _, m in atoms]) - (d - 1) * math.log(p)
    nu = np.asarray(nu, dtype=float)

    def lse(s):
        top = s.max()
        return top + math.log(np.exp(s - top).sum())

    def f(z):
        t = np.concatenate(([0.0], z))
        return lse(a @ t + log_w) - d * float(t @ nu)

    z = np.zeros(p - 1)
    fz = f(z)
    for _ in range(200):
        t = np.concatenate(([0.0], z))
        s = a @ t + log_w
        q = np.exp(s - lse(s))
        mean = q @ a
        g = (mean - d * nu)[1:]
        if np.linalg.norm(g) <= 1e-13:
            break
        c = a - mean
        h = (c.T @ (q[:, None] * c))[1:, 1:]
        step = -np.linalg.solve(h, g)
        scale = 1.0
        while scale > 1e-10:
            cand = z + scale * step
            fc = f(cand)
            if fc <= fz + 1e-4 * scale * float(g @ step):
                break
            scale /= 2
        z, fz = cand, fc
    ent = sum(x * math.log(x) for x in nu if x > 0)
    return min((d - 1) * math.log(p) + (d - 1) * ent + fz, rate_explicit_ref(nu, d, p))


def rate_undirected_ref(m, d: int, p: int) -> float:
    m = np.asarray(m, dtype=float)
    marg = m.sum(axis=1)
    t1 = sum(
        m[i, j] * math.log(marg[i] * marg[j] / m[i, j])
        for i in range(p) for j in range(p) if m[i, j] > 0
    ) * (d - 2) / 2
    t2 = sum(marg[i] * rate_explicit_ref(m[i] / marg[i], d, p) for i in range(p) if marg[i] > 0)
    return t1 + t2


def lclt_ref(sig, d: int, p: int) -> tuple[float, bool]:
    n = sum(sig)
    q = sum((c / n - 1 / p) ** 2 for c in sig)
    value = p**1.5 * (p / (2 * math.pi * n)) ** ((p - 1) / 2) * math.exp(-p * n * q / 2)
    return value, (d * sum(j * c for j, c in enumerate(sig))) % p == 0


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def master_key(mode, n, d, p) -> str:
    return f"{mode}/{n}/{d}/{p}"


# -- checks ---------------------------------------------------------------

def _close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(b))


def _check_mc_light(op, out) -> bool:
    s, t = out["singular_count"], out["trials"]
    ok = (
        t == op["trials"] and out["n"] == op["n"] and out["p"] == op["p"]
        and out["mode"] == op["mode"] and out["seed"] == op["seed"]
        and 0 <= s <= t and out["estimate"] == s / t
        and 0.0 <= out["wilson_ci_95"][0] <= out["wilson_ci_95"][1] <= 1.0
        and 0 <= out["duplicate_rows"] <= t
    )
    if op["p"] is None:
        # a duplicate row forces a zero determinant
        return ok and out["duplicate_rows"] <= s
    kt, kp = int(out["kernel_total"]), out["kernel_positive"]
    return ok and kp == s and kt >= (op["p"] - 1) * s and int(out["kernel_sq_total"]) >= kt


def recompute_mc(op) -> dict:
    """Tally an MC op trial by trial, from the entropy (seed, 0, i)."""
    from regsing import confmodel, gfcore

    n, d, p = op["n"], op["d"], op["p"]
    params = confmodel.GraphParams(n=n, d=d, mode=op["mode"])
    tally = {"singular_count": 0, "duplicate_rows": 0, "kernel_total": 0,
             "kernel_sq_total": 0, "kernel_positive": 0}
    for i in range(op["trials"]):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(op["seed"], 0, i)))
        rows = [list(r) for r in confmodel.sample(params, rng).adjacency]
        if len({tuple(r) for r in rows}) < n:
            tally["duplicate_rows"] += 1
        if p is None:
            full = gfcore.rank_mod_p(rows, CHECK_PRIME) == n
            tally["singular_count"] += 0 if full else int(gfcore.det_integer(rows) == 0)
            continue
        k = p ** (n - gfcore.rank_mod_p(rows, p)) - 1
        tally["kernel_total"] += k
        tally["kernel_sq_total"] += k * k
        tally["kernel_positive"] += k > 0
        tally["singular_count"] += k > 0
    return tally


def _check_mc_full(op, out) -> bool:
    want = recompute_mc(op)
    keys = ["singular_count", "duplicate_rows"]
    if op["p"] is not None:
        keys += ["kernel_total", "kernel_sq_total", "kernel_positive"]
    return all(int(out[k]) == int(want[k]) for k in keys)


def _moments_ok(op, out) -> bool:
    # n-step moments are n times the step moments: mean d/p, covariance
    # (d/p) on the diagonal minus d/p^2 everywhere
    n, d, p = op["n"], op["d"], op["p"]
    mean = [Fraction(x) for x in out["mean"]]
    cov = [[Fraction(x) for x in row] for row in out["cov"]]
    want_cov = [[n * ((Fraction(d, p) if j == k else 0) - Fraction(d, p * p)) for k in range(p)]
                for j in range(p)]
    return mean == [n * Fraction(d, p)] * p and cov == want_cov


def _check_exact(op, out, ref) -> bool:
    kind = op["kind"]
    if kind == "master_sum":
        return out == ref["master_sum"][master_key(op["mode"], op["n"], op["d"], op["p"])]
    if kind == "walk":
        want = ref["walk"][f"{op['d']}/{op['p']}/{op['n']}"]
        return out == want and int(out["total"]) == op["p"] ** (op["n"] * (op["d"] - 1))
    if kind == "moments":
        return _moments_ok(op, out)
    if kind == "certify":
        master = ref["master_sum"][master_key(op["mode"], op["n"], op["d"], op["p"])]
        return (out["passed"] and out["class_consistent"] and out["mismatches"] == 0
                and out["master_exact"] == master == out["master_brute"])
    return False


def _check_cli(op, out, ref) -> bool:
    meta = op.get("meta", {})
    pay = out["payload"]
    if out["exit"] != 0 or pay is None:
        return False
    cmd = meta.get("cmd")
    if cmd == "rate":
        nu, d, p = meta["nu"], meta["d"], meta["p"]
        explicit = rate_explicit_ref(nu, d, p)
        if not _close(pay["explicit_bound"], explicit, 1e-12):
            return False
        if not pay["value"] <= pay["explicit_bound"] + 1e-9:
            return False
        # a non-converged call is held only to its flag and the bound
        if meta["class"] == "infeasible":
            return pay["converged"] is False
        if meta["class"] == "interior" and pay["converged"]:
            return abs(pay["value"] - rate_opt_ref(nu, d, p)) <= 1e-12
        return True
    if cmd == "cf-scan":
        want = ref["cf_scan"][f"{meta['d']}/{meta['p']}/{meta['k']}/{meta['delta']}"]
        return (pay["near_one_outside"] == 0
                and pay["n_points"] == meta["k"] ** (meta["p"] - 1)
                and _close(pay["max_abs_outside"], want, 1e-12)
                and _close(pay["margin"], 1.0 - pay["max_abs_outside"], 1e-15)
                and pay["margin"] > 0)
    if cmd == "lclt":
        value, applicable = lclt_ref(meta["sig"], meta["d"], meta["p"])
        return _close(pay["value"], value, 1e-9) and pay["applicable"] == applicable
    if cmd == "rate-undirected":
        return _close(pay["value"], rate_undirected_ref(meta["m"], meta["d"], meta["p"]), 1e-9)
    return False


def full_check_indices(workload: str, seed: int, op_list) -> set[int]:
    """Seeded sample of MC ops that are recomputed trial by trial: four
    per op tag."""
    if not workload.startswith("mc_"):
        return set()
    rng = _rng(seed, workload, "check")
    picked: set[int] = set()
    tags = sorted({op["tag"] for op in op_list})
    for tag in tags:
        idx = [i for i, op in enumerate(op_list) if op["tag"] == tag]
        picked.update(int(i) for i in rng.choice(idx, size=min(4, len(idx)), replace=False))
    return picked


def check_ops(op_list, outputs, errors, full=(), ref=None) -> list[bool]:
    """Per op: True when it ran without error and its output checks out."""
    ok = []
    for i, (op, out, err) in enumerate(zip(op_list, outputs, errors)):
        if err is not None or out is None:
            ok.append(False)
            continue
        kind = op["kind"]
        try:
            if kind == "mc":
                good = _check_mc_light(op, out) and (i not in full or _check_mc_full(op, out))
            elif kind == "cli":
                good = _check_cli(op, out, ref)
            else:
                good = _check_exact(op, out, ref)
        except (KeyError, TypeError, ValueError):
            good = False
        ok.append(bool(good))
    return ok
