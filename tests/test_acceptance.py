"""Acceptance suite: twelve numbered criteria, one printed verdict line each.

Criteria 4 and 5 are implemented faithfully and fail on current exact
values: the deviation sequences are not monotone from n=16 onward (both
models) and the directed deviation at n=64 is 0.1047, above the 0.1
threshold.  The underlying sums were triple-checked against independent
oracles, so the failures reflect the stated thresholds, not the code.
"""

import math
import time
from fractions import Fraction

import numpy as np

from regsing import asymptotics as am
from regsing import bruteoracle, exactcount, experiments, walkdist

TWO_PI = 2 * math.pi

DIRECTED_MASTERS_D3_P2 = {
    4: Fraction(54, 77),
    8: Fraction(38934, 46189),
    16: Fraction(15694438598118, 13249079564501),
    32: Fraction(
        179642844863030883571806060846, 150466365767219996377685923121
    ),
}

UNDIRECTED_MASTERS_D3_P2 = {
    8: Fraction(13316400, 7436429),
    16: Fraction(696874832920224, 266186053068611),
    32: Fraction(
        462367089225160066024657128608832, 172237260118446020077177808705495
    ),
}


def verdict(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"[acceptance] criterion {num}: {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_01_directed_certification(capsys):
    cases = [(2, 3, 2), (2, 3, 3), (2, 3, 5), (3, 3, 2), (2, 4, 2), (2, 4, 3), (4, 2, 2)]
    start = time.time()
    reports = [bruteoracle.certify_identities(n, d, p, "directed") for n, d, p in cases]
    good = sum(r.passed for r in reports)
    elapsed = time.time() - start
    passed = good == len(cases) and elapsed < 300
    verdict(capsys, 1, passed, f"{good}/{len(cases)} cases exact in {elapsed:.1f}s")
    assert passed
    for r in reports:
        assert not r.mismatches


def test_criterion_02_undirected_certification(capsys):
    cases = [(2, 3, 2), (2, 3, 3), (4, 3, 2), (2, 4, 2), (3, 4, 2)]
    start = time.time()
    reports = [bruteoracle.certify_identities(n, d, p, "undirected") for n, d, p in cases]
    good = sum(r.passed for r in reports)
    elapsed = time.time() - start
    passed = good == len(cases) and elapsed < 300
    verdict(capsys, 2, passed, f"{good}/{len(cases)} cases exact in {elapsed:.1f}s")
    assert passed
    for r in reports:
        assert not r.mismatches


def test_criterion_03_hand_anchors(capsys):
    checks = [
        exactcount.count_graphs_directed((0, 1, 1), 3, 3) == 72,
        exactcount.count_graphs_undirected((0, 1, 1), 3, 3) == 6,
        exactcount.master_sum_directed(3, 3, 2) == Fraction(27, 28),
        exactcount.master_sum_directed(2, 3, 2) == 0,
    ]
    passed = all(checks)
    verdict(capsys, 3, passed, f"{sum(checks)}/4 anchors exact (72, 6, 27/28, 0)")
    assert passed


def test_criterion_04_directed_master_trend(capsys):
    values = {n: exactcount.master_sum_directed(n, 3, 2) for n in (4, 8, 16, 32, 64)}
    for n, frozen in DIRECTED_MASTERS_D3_P2.items():
        assert values[n] == frozen
    devs = {n: abs(float(v) - 1.0) for n, v in values.items()}
    monotone = devs[16] >= devs[32] >= devs[64]
    small_at_64 = devs[64] < 0.1
    passed = monotone and small_at_64
    detail = (
        "|master-1| at n=4..64: "
        + ", ".join(f"{devs[n]:.6f}" for n in (4, 8, 16, 32, 64))
        + f"; monotone from 16: {monotone}, <0.1 at 64: {small_at_64}"
    )
    verdict(capsys, 4, passed, detail)
    assert monotone, "deviation rises between n=16 and n=32"
    assert small_at_64, "deviation at n=64 is above 0.1"


def test_criterion_05_undirected_indicator_term(capsys):
    values = {n: exactcount.master_sum_undirected(n, 3, 2) for n in (8, 16, 32, 64)}
    for n, frozen in UNDIRECTED_MASTERS_D3_P2.items():
        assert values[n] == frozen
    devs = {n: abs(float(v) - 2.0) for n, v in values.items()}
    in_band = 1.5 < float(values[64]) < 2.5
    monotone = devs[16] >= devs[32] >= devs[64]
    passed = in_band and monotone
    detail = (
        "|master-2| at n=8..64: "
        + ", ".join(f"{devs[n]:.6f}" for n in (8, 16, 32, 64))
        + f"; value at 64: {float(values[64]):.4f} in (1.5,2.5): {in_band}, "
        + f"monotone from 16: {monotone}"
    )
    verdict(capsys, 5, passed, detail)
    assert in_band
    assert monotone, "deviation rises between n=16 and n=32"


def test_criterion_06_field_p_monte_carlo(capsys):
    bound = 1 / 4 + 3 * math.sqrt(0.25 * 0.75 / 10_000)
    start = time.time()
    report = experiments.run_mc(
        experiments.McConfig(n=100, d=3, mode="directed", p=5, trials=10_000, seed=1, workers=4)
    )
    elapsed = time.time() - start
    assert report.singular_count == 2493  # frozen by seed, worker invariant
    passed = report.estimate <= bound and elapsed < 60
    verdict(
        capsys,
        6,
        passed,
        f"estimate {report.estimate:.4f} <= {bound:.4f} in {elapsed:.1f}s",
    )
    assert passed


def test_criterion_07_integer_monte_carlo(capsys):
    reports = {}
    for n in (50, 200):
        reports[n] = experiments.run_mc(
            experiments.McConfig(n=n, d=3, mode="directed", trials=10_000, seed=1, workers=4)
        )
    assert reports[50].singular_count == 445  # frozen by seed
    assert reports[200].singular_count == 93
    e50, e200 = reports[50].estimate, reports[200].estimate
    slope = (math.log(e200) - math.log(e50)) / (math.log(200) - math.log(50))
    exponent = min(1 / 4, (3 - 2) / (2 * 3))
    passed = e50 < 0.1 and e200 < 0.1 and e200 < e50
    verdict(
        capsys,
        7,
        passed,
        f"estimates {e50:.4f} (n=50), {e200:.4f} (n=200); fitted slope {slope:.2f} "
        f"(report only, theory exponents -{exponent:.3f} upper, -{3 - 2} lower)",
    )
    assert passed


def test_criterion_08_characteristic_function_scan(capsys):
    setups = [(3, 2, 64), (3, 3, 32), (4, 3, 32)]
    margins = []
    ok = True
    for d, p, k in setups:
        rep = am.cf_scan(d, p, 0.1, TWO_PI / k)
        margins.append(rep.margin)
        ok = ok and rep.margin >= 1e-6 and rep.near_one_outside == 0
    detail = "margins " + ", ".join(
        f"(d={d},p={p}): {m:.4f}" for (d, p, _), m in zip(setups, margins)
    ) + "; all near-one points inside tubes"
    verdict(capsys, 8, ok, detail)
    assert ok


def test_criterion_09_rate_function_suite(capsys):
    ok_equi = True
    for p in (2, 3, 5):
        for d in (3, 4, 5):
            res = am.rate_directed_opt(tuple(Fraction(1, p) for _ in range(p)), d, p)
            ok_equi = ok_equi and abs(res.value) <= 1e-9

    rng = np.random.default_rng(9)
    ok_bound = True
    for p in (2, 3, 5):
        for d in (3, 4, 5):
            for _ in range(100):
                x = rng.dirichlet(np.ones(p))
                opt = am.rate_directed_opt(x, d, p)
                ok_bound = ok_bound and opt.value <= am.rate_directed_explicit(x, d, p) + 1e-9

    # dense slice grid at p=3, d=3: step 0.01 on [-5, 5]^2, tilt t_0 = 0
    s = walkdist.build_support(3, 3)
    atoms = np.array([u for u, _ in s.atoms], dtype=float)
    w = np.array([m for _, m in s.atoms], dtype=float) / s.total
    axis = np.arange(-5.0, 5.0 + 0.005, 0.01)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    tilts = np.stack([np.zeros_like(g1), g1, g2], axis=-1)
    log_mgf = np.log(np.tensordot(np.exp(tilts @ atoms.T), w, axes=1))
    max_gap = 0.0
    for _ in range(10):
        frak_n = rng.dirichlet(np.ones(3))
        inner = float((log_mgf - 3.0 * (tilts @ frak_n)).min())
        ent = sum(float(x) * math.log(x) for x in frak_n if x > 0)
        grid_value = 2 * math.log(3) + 2 * ent + inner
        opt = am.rate_directed_opt(frak_n, 3, 3)
        max_gap = max(max_gap, abs(opt.value - grid_value))
    ok_grid = max_gap <= 1e-4

    ok_second = True
    for p in (2, 3, 5):
        for d in (3, 4, 5):
            v = rng.normal(size=p)
            v -= v.mean()
            v /= np.linalg.norm(v)
            got = am.rate_directed_explicit(np.full(p, 1.0 / p) + 1e-3 * v, d, p)
            predicted = -(p * (d - 1) / (2 * d)) * 1e-6
            ok_second = ok_second and abs(got / predicted - 1.0) <= 0.1

    passed = ok_equi and ok_bound and ok_grid and ok_second
    verdict(
        capsys,
        9,
        passed,
        f"equidistributed zero: {ok_equi}; opt <= explicit on 900 points: {ok_bound}; "
        f"grid gap {max_gap:.2e} <= 1e-4: {ok_grid}; second order within 10%: {ok_second}",
    )
    assert passed


def test_criterion_10_moment_exactness(capsys):
    pairs = [(d, p) for p in (2, 3, 5, 7) for d in (3, 4, 5, 6)]
    ok_step = True
    for d, p in pairs:
        m = walkdist.moments(walkdist.build_support(d, p))
        ok_step = ok_step and m.mean == tuple([Fraction(d, p)] * p)
        for j in range(p):
            for k in range(p):
                want = (Fraction(d, p) if j == k else Fraction(0)) - Fraction(d, p * p)
                ok_step = ok_step and m.cov[j][k] == want

    ok_lattice = True
    for d, p in pairs:
        s = walkdist.build_support(d, p)
        base = walkdist.moments(s)
        for n in range(1, 6):
            tm = walkdist.table_moments(walkdist.walk_distribution(s, n))
            ok_lattice = ok_lattice and tm.mean == tuple(n * x for x in base.mean)
            ok_lattice = ok_lattice and tm.cov == tuple(
                tuple(n * x for x in row) for row in base.cov
            )

    passed = ok_step and ok_lattice
    verdict(
        capsys,
        10,
        passed,
        f"step moments exact on {len(pairs)} (d,p) pairs: {ok_step}; "
        f"lattice n<=5 scalings exact: {ok_lattice}",
    )
    assert passed


def test_criterion_11_operator_check(capsys):
    ok = True
    residual = 0.0
    for p in (2, 3, 5):
        rep = am.operator_L_check(p, 10, 3)
        residual = max(residual, rep.laplacian_max_residual, rep.bordered_max_residual)
        ok = ok and rep.laplacian_dim == p * (p - 1) // 2 and rep.bordered_dim == p - 1
        ok = ok and rep.dims_consistent and rep.families_orthogonal
    ok = ok and residual < 1e-10
    quad = am.operator_L_check(2, 4, 3)
    ok = ok and quad.quadrature_gap < 1e-8
    verdict(
        capsys,
        11,
        ok,
        f"max residual {residual:.2e} < 1e-10; dims p(p-1)/2 and p-1 confirmed; "
        f"closed vs quadrature gap {quad.quadrature_gap:.2e} < 1e-8",
    )
    assert ok


def test_criterion_12_mc_vs_exact_consistency(capsys):
    cases = [(3, 3, 2, "directed"), (2, 3, 2, "directed"), (4, 3, 2, "undirected")]
    zs = []
    for n, d, p, mode in cases:
        comp = experiments.mc_vs_exact(n, d, p, mode, trials=100_000, seed=1, workers=4)
        zs.append(comp.z_score)
    passed = all(abs(z) <= 4 for z in zs)
    detail = "; ".join(
        f"({n},{d},{p},{mode}): z={z:+.3f}" for (n, d, p, mode), z in zip(cases, zs)
    )
    verdict(capsys, 12, passed, detail)
    assert passed
