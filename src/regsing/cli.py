"""Command-line front end.

JSON is the canonical output format (big integers as decimal strings,
rationals as num/den pairs with a float approximation); mc and scaling
also project to CSV.  Exit codes: 0 success, 2 argument or domain
errors, 3 cost-guard refusals.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import secrets
import sys
from fractions import Fraction

from . import asymptotics, bruteoracle, confmodel, exactcount, experiments, gfcore
from .errors import (
    CostGuardError,
    DomainError,
    InvalidModulusError,
    InvalidParamsError,
    ShapeError,
)

CSV_COLUMNS = (
    "n",
    "d",
    "p",
    "mode",
    "trials",
    "singular",
    "estimate",
    "ci_lo",
    "ci_hi",
    "mean_kernel",
    "dup_rate",
)


# Report fields written as decimal strings (big integers), and the one
# left out so that identical seeds give identical bytes
DECIMAL_FIELDS = frozenset({"kernel_total", "kernel_sq_total"})
EXCLUDED_FIELDS = frozenset({"wall_time_s"})


def _json_default(obj):
    """`json.dumps` hook: a dataclass becomes an object of its fields in
    declaration order, a Fraction an exact num/den pair with a float
    approximation; tuples are JSON arrays already."""
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator), "approx": float(obj)}
    if dataclasses.is_dataclass(obj):
        out = {}
        for f in dataclasses.fields(obj):
            if f.name in EXCLUDED_FIELDS:
                continue
            value = getattr(obj, f.name)
            out[f.name] = str(value) if f.name in DECIMAL_FIELDS else value
        return out
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def _parse_step(text: str) -> float:
    """Grid steps come as plain floats or as '2pi/K'."""
    cleaned = text.strip().lower().replace(" ", "")
    try:
        if cleaned.startswith("2pi/"):
            return 2.0 * math.pi / int(cleaned[4:])
        step = float(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid step: {text!r}") from exc
    if not math.isfinite(step):
        raise argparse.ArgumentTypeError(f"bad grid step: {text!r}")
    return step


def _ensure_seed(args) -> int:
    if args.seed is None:
        args.seed = secrets.randbits(63)
        print(f"generated seed: {args.seed}", file=sys.stderr)
    elif args.seed < 0:
        raise DomainError(f"--seed must be nonnegative, got {args.seed}")
    return args.seed


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _emit(args, json.dumps(payload, indent=2, default=_json_default) + "\n")


def _mc_csv_row(r: experiments.McReport) -> list[str]:
    return [
        str(r.n),
        str(r.d),
        "" if r.p is None else str(r.p),
        r.mode,
        str(r.trials),
        str(r.singular_count),
        repr(r.estimate),
        repr(r.wilson_ci_95[0]),
        repr(r.wilson_ci_95[1]),
        "" if r.mean_kernel_count is None else repr(r.mean_kernel_count),
        repr(r.duplicate_row_rate),
    ]


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _cmd_sample(args) -> int:
    _ensure_seed(args)
    params = confmodel.GraphParams(n=args.n, d=args.d, mode=args.mode)
    graph = confmodel.sample(params, args.seed)
    _emit_json(args, confmodel.graph_to_json(graph))
    return 0


def _read_matrix(args) -> list[list[int]]:
    try:
        if args.matrix_file:
            with open(args.matrix_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    except UnicodeDecodeError as exc:
        raise DomainError(f"matrix input is not UTF-8 text: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("matrix", data.get("rows"))
    return gfcore.matrix_from_json(data)


def _cmd_rank(args) -> int:
    matrix = _read_matrix(args)
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    payload: dict = {"rows": rows, "cols": cols}
    # one elimination per input: the kernel count follows from the rank
    if args.p is not None:
        rank = gfcore.rank_mod_p(matrix, args.p)
        payload.update(p=args.p, rank=rank)
        if rows == cols:
            payload.update(kernel_count=str(args.p ** (rows - rank) - 1), singular=rank < rows)
    elif rows == cols:
        rank, det = gfcore.rank_det_integer(matrix)
        payload.update(p=None, rank=rank, det=str(det), singular=rank < rows)
    else:
        payload.update(p=None, rank=gfcore.rank_integer(matrix))
    _emit_json(args, payload)
    return 0


def _cmd_exact_count(args) -> int:
    sig = tuple(_parse_int_list(args.sig))
    if args.mode == "directed":
        count = exactcount.count_graphs_directed(sig, args.d, args.p)
    else:
        count = exactcount.count_graphs_undirected(sig, args.d, args.p)
    _emit_json(
        args,
        {"sig": list(sig), "d": args.d, "p": args.p, "mode": args.mode, "count": str(count)},
    )
    return 0


def _cmd_master_sum(args) -> int:
    if args.mode == "directed":
        master = exactcount.master_sum_directed(args.n, args.d, args.p)
    else:
        master = exactcount.master_sum_undirected(args.n, args.d, args.p)
    bound = exactcount.singularity_bound_from_master(master, args.p)
    payload = {
        "n": args.n,
        "d": args.d,
        "p": args.p,
        "mode": args.mode,
        **_json_default(master),
        "singularity_bound": {**_json_default(bound), "vacuous": bound >= 1},
    }
    _emit_json(args, payload)
    return 0


def _cmd_oracle_check(args) -> int:
    report = bruteoracle.certify_identities(args.n, args.d, args.p, args.mode)
    payload = {
        "n": report.n,
        "d": report.d,
        "p": report.p,
        "mode": report.mode,
        "classes": len(report.classes),
        "mismatches": report.mismatches,
        "class_consistent": report.class_consistent,
        "master_exact": report.master_exact,
        "master_brute": report.master_brute,
        "passed": report.passed,
    }
    _emit_json(args, payload)
    return 0 if report.passed else 1


def _cmd_rate(args) -> int:
    if args.mode == "directed":
        if args.frak_n is None:
            raise argparse.ArgumentTypeError("--frak-n is required for directed rates")
        nu = _parse_float_list(args.frak_n)
        ev = asymptotics.rate_directed_opt(nu, args.d, args.p)
        payload = {
            "mode": "directed",
            "d": args.d,
            "p": args.p,
            "frak_n": nu,
            "value": ev.value,
            "explicit_bound": ev.explicit_bound,
            "minimizer": list(ev.minimizer),
            "converged": ev.converged,
            "boundary": ev.boundary,
        }
    else:
        if args.frak_m is None:
            raise argparse.ArgumentTypeError("--frak-m is required for undirected rates")
        rows = [_parse_float_list(row) for row in args.frak_m.split(";")]
        if len({len(row) for row in rows}) > 1:
            raise DomainError(f"--frak-m rows have differing lengths: {args.frak_m!r}")
        value = asymptotics.rate_undirected_explicit(rows, args.d, args.p)
        payload = {
            "mode": "undirected",
            "d": args.d,
            "p": args.p,
            "frak_m": rows,
            "value": value,
        }
    _emit_json(args, payload)
    return 0


def _cmd_cf_scan(args) -> int:
    _emit_json(args, asymptotics.cf_scan(args.d, args.p, args.delta, args.step))
    return 0


def _cmd_lclt(args) -> int:
    sig = tuple(_parse_int_list(args.sig))
    if args.n is not None and args.n != sum(sig):
        raise argparse.ArgumentTypeError(
            f"--n {args.n} disagrees with the class total {sum(sig)}"
        )
    value = asymptotics.lclt_directed(sig, args.d, args.p)
    _emit_json(
        args,
        {
            "sig": list(sig),
            "n": sum(sig),
            "d": args.d,
            "p": args.p,
            "value": value.value,
            "applicable": value.applicable,
        },
    )
    return 0


def _cmd_mc(args) -> int:
    _ensure_seed(args)
    cfg = experiments.McConfig(
        n=args.n,
        d=args.d,
        mode=args.mode,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    report = experiments.run_mc(cfg)
    if args.format == "csv":
        _emit(args, _csv_text([_mc_csv_row(report)]))
    else:
        _emit_json(args, report)
    return 0


def _cmd_scaling(args) -> int:
    _ensure_seed(args)
    report = experiments.scaling_probe(
        args.d,
        _parse_int_list(args.n_list),
        args.trials,
        args.seed,
        mode=args.mode,
        workers=args.workers,
    )
    if args.format == "csv":
        _emit(args, _csv_text([_mc_csv_row(r) for r in report.rows]))
    else:
        _emit_json(args, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsing",
        description="Exact and empirical toolkit for kernels of random regular multigraph adjacency matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="write output to this file instead of stdout")

    sp = sub.add_parser("sample", help="draw one graph from the configuration model")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--mode", choices=("directed", "undirected"), default="directed")
    sp.add_argument("--seed", type=int, default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_sample)

    sp = sub.add_parser("rank", help="rank of a matrix, mod p or over the integers")
    sp.add_argument("--p", type=int, default=None, help="prime modulus; omit for integer rank")
    sp.add_argument("--matrix-file", help="JSON matrix; stdin when omitted")
    add_common(sp)
    sp.set_defaults(func=_cmd_rank)

    sp = sub.add_parser("exact-count", help="graphs annihilating one vector class")
    sp.add_argument("--sig", required=True, help="class signature, e.g. 0,1,1")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mode", choices=("directed", "undirected"), default="directed")
    add_common(sp)
    sp.set_defaults(func=_cmd_exact_count)

    sp = sub.add_parser("master-sum", help="exact expected number of nonzero kernel vectors")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mode", choices=("directed", "undirected"), default="directed")
    add_common(sp)
    sp.set_defaults(func=_cmd_master_sum)

    sp = sub.add_parser("oracle-check", help="certify the counting identities by brute force")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mode", choices=("directed", "undirected"), default="directed")
    add_common(sp)
    sp.set_defaults(func=_cmd_oracle_check)

    sp = sub.add_parser("rate", help="large-deviation rate function values")
    sp.add_argument("--mode", choices=("directed", "undirected"), default="directed")
    sp.add_argument("--frak-n", help="directed frequencies, e.g. 0.5,0.3,0.2")
    sp.add_argument("--frak-m", help="undirected pair frequencies, rows split by ';'")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_rate)

    sp = sub.add_parser("cf-scan", help="characteristic-function scan outside the tubes")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--step", type=_parse_step, required=True, help="grid step, float or 2pi/K")
    add_common(sp)
    sp.set_defaults(func=_cmd_cf_scan)

    sp = sub.add_parser("lclt", help="local-limit approximation of one class term")
    sp.add_argument("--sig", "--class", dest="sig", required=True, help="class signature")
    sp.add_argument("--n", type=int, default=None, help="optional cross-check of the class total")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=_cmd_lclt)

    sp = sub.add_parser("mc", help="Monte Carlo singularity estimate")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, default=None, help="prime modulus; omit for integer mode")
    sp.add_argument("--mode", choices=("directed", "undirected"), default="directed")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(sp)
    sp.set_defaults(func=_cmd_mc)

    sp = sub.add_parser("scaling", help="integer-mode singularity frequency against n")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--n-list", required=True, help="comma-separated sizes, e.g. 50,100,200")
    sp.add_argument("--mode", choices=("directed", "undirected"), default="directed")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(sp)
    sp.set_defaults(func=_cmd_scaling)

    return parser


# parse_args leaves the parser as it was, so one parser, built on first
# use, serves every call in the process
_parser = functools.cache(build_parser)


# Bad input maps to exit code 2; any other ValueError is a bug and propagates.
USAGE_ERRORS = (
    InvalidModulusError,
    ShapeError,
    DomainError,
    InvalidParamsError,
    argparse.ArgumentTypeError,
    json.JSONDecodeError,
)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except CostGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
