"""Regenerate ``reference.json``, the stored outputs the exact and
analytic checks compare against.

    PYTHONPATH=src python3 bench/make_reference.py

The values come from the package itself, so run this only on a commit
whose exact layer is trusted.  Before writing, every value is checked
against an independent source: the frozen anchors of
``tests/test_acceptance.py`` (27/28, 0 and the d=3, p=2 master sums),
the brute-force census of ``certify_identities`` for each certification
case, and the total p**(n(d-1)) of every walk table.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from regsing import asymptotics, bruteoracle, exactcount, walkdist

import ops
import workloads

ANCHORS = {
    ("directed", 3, 3, 2): Fraction(27, 28),
    ("directed", 2, 3, 2): Fraction(0),
    ("directed", 4, 3, 2): Fraction(54, 77),
    ("directed", 8, 3, 2): Fraction(38934, 46189),
    ("directed", 16, 3, 2): Fraction(15694438598118, 13249079564501),
    ("directed", 32, 3, 2): Fraction(179642844863030883571806060846, 150466365767219996377685923121),
    ("undirected", 8, 3, 2): Fraction(13316400, 7436429),
    ("undirected", 16, 3, 2): Fraction(696874832920224, 266186053068611),
    ("undirected", 32, 3, 2): Fraction(
        462367089225160066024657128608832, 172237260118446020077177808705495
    ),
}


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"reference check failed: {what}")


def main() -> None:
    masters = {}
    cases = set(workloads.MASTER_GRID) | set(workloads.PROBE_MASTER)
    cases |= {(m, n, d, p) for n, d, p, m in workloads.CERTIFY_GRID}
    for mode, n, d, p in sorted(cases):
        fn = exactcount.master_sum_directed if mode == "directed" else exactcount.master_sum_undirected
        masters[(mode, n, d, p)] = fn(n, d, p)
    for key, want in ANCHORS.items():
        require(masters[key] == want, f"anchor {key}")
    for n, d, p, mode in workloads.CERTIFY_GRID:
        rep = bruteoracle.certify_identities(n, d, p, mode)
        require(rep.passed and rep.master_brute == masters[(mode, n, d, p)], (n, d, p, mode))

    walks = {}
    for d, p, n in sorted(set(workloads.WALK_GRID) | set(workloads.PROBE_WALK)):
        dist = walkdist.walk_distribution(walkdist.build_support(d, p), n)
        digest = ops.table_digest(dist.table)
        require(int(digest["total"]) == p ** (n * (d - 1)), ("walk", d, p, n))
        walks[f"{d}/{p}/{n}"] = digest

    scans = {}
    for d, p, k in workloads.CF_SCANS:
        rep = asymptotics.cf_scan(d, p, workloads.CF_DELTA, 2 * math.pi / k)
        require(rep.near_one_outside == 0 and rep.margin > 0, ("cf-scan", d, p, k))
        scans[f"{d}/{p}/{k}/{workloads.CF_DELTA}"] = rep.max_abs_outside

    ref = {
        "master_sum": {workloads.master_key(*k): ops.frac(v) for k, v in sorted(masters.items())},
        "walk": walks,
        "cf_scan": scans,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}: {len(masters)} master sums, "
          f"{len(walks)} walk tables, {len(scans)} scans")


if __name__ == "__main__":
    main()
