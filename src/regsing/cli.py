"""Command-line front end.

JSON is the canonical output format (big integers as decimal strings,
rationals as num/den pairs with a float approximation); mc and scaling
also project to CSV.  Exit codes: 0 success, 2 argument, domain or
file errors, 3 cost-guard refusals.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import decimal
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

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


def _decimal(value: int) -> str:
    """`value` in decimal at any width: str() stops at the int-string digit
    limit, kept for the JSON that `rank` reads, and Decimal does not."""
    return str(decimal.Decimal(value))


def _json_default(obj):
    """`json.dumps` hook: a dataclass becomes an object of its fields in
    declaration order, a Fraction an exact num/den pair with a float
    approximation; tuples are JSON arrays already."""
    if isinstance(obj, Fraction):
        return {"num": _decimal(obj.numerator), "den": _decimal(obj.denominator),
                "approx": float(obj)}
    if dataclasses.is_dataclass(obj):
        out = {}
        for f in dataclasses.fields(obj):
            if f.name in EXCLUDED_FIELDS:
                continue
            value = getattr(obj, f.name)
            out[f.name] = _decimal(value) if f.name in DECIMAL_FIELDS else value
        return out
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _parse_list(text: str, kind=int) -> list:
    """A comma-separated list of ints or floats; empty items are skipped."""
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        noun = "integer" if kind is int else "float"
        raise argparse.ArgumentTypeError(f"not a comma-separated {noun} list: {text!r}") from exc


def _parse_step(text: str) -> float:
    """Grid steps come as plain floats or as '2pi/K', rounded once from the
    exact ratio, so a K past float range gives 0.0, not an OverflowError."""
    cleaned = text.strip().lower().replace(" ", "")
    try:
        if cleaned.startswith("2pi/"):
            return float(Fraction(2.0 * math.pi) / int(cleaned[4:]))
        step = float(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid step: {text!r}") from exc
    if not math.isfinite(step):
        raise argparse.ArgumentTypeError(f"bad grid step: {text!r}")
    return step


def _ensure_seed(args, validate) -> None:
    """Draw and report a seed when none was given, once `validate(0)` has
    checked the other arguments with a stand-in seed, so a refused call
    reports no seed; the sampler and the Monte Carlo configs validate a
    given one."""
    if args.seed is None:
        import secrets  # only a run without --seed needs it

        validate(0)
        args.seed = secrets.randbits(63)
        print(f"generated seed: {args.seed}", file=sys.stderr)


def _open(path: str, mode: str):
    """open(path, mode) as UTF-8 text; a file that cannot be opened is bad
    input, reported with exit code 2."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise InvalidParamsError(str(exc)) from exc


@contextlib.contextmanager
def _checked_out(path: str | None):
    """Refuse an `--out` file that cannot be written before the work:
    open it for writing without O_TRUNC, which creates a missing file
    and changes no byte of an existing one.  A file created here is
    removed again if the run ends in an error, so a refused run leaves
    no empty file behind."""
    if not path:  # no --out, or an empty one: the output goes to stdout
        yield
        return
    created = not os.path.lexists(path)
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
    except OSError as exc:
        raise InvalidParamsError(str(exc)) from exc
    try:
        yield
    except BaseException:
        if created:
            os.unlink(path)
        raise


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with _open(args.out, "w") as fh:
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


def _emit_report(args, report, rows) -> int:
    """`report` as JSON, or its McReport `rows` as CSV under a header."""
    if args.format == "csv":
        lines = [CSV_COLUMNS, *map(_mc_csv_row, rows)]
        _emit(args, "".join(",".join(line) + "\n" for line in lines))
    else:
        _emit_json(args, report)
    return 0


def _cmd_sample(args) -> int:
    params = confmodel.GraphParams(n=args.n, d=args.d, mode=args.mode)
    _ensure_seed(args, lambda seed: params)
    graph = confmodel.sample(params, args.seed)
    _emit_json(args, confmodel.graph_to_json(graph))
    return 0


def _read_matrix(args) -> np.ndarray:
    try:
        if args.matrix_file:
            with _open(args.matrix_file, "r") as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    except UnicodeDecodeError as exc:
        raise DomainError(f"matrix input is not UTF-8 text: {exc}") from exc
    except ValueError as exc:
        # malformed JSON, or an integer past the int-string digit limit
        raise DomainError(str(exc)) from exc
    if isinstance(data, dict):
        data = data.get("matrix", data.get("rows"))
    return gfcore.matrix_from_json(data)


def _cmd_rank(args) -> int:
    matrix = _read_matrix(args)
    rows, cols = matrix.shape
    payload: dict = {"rows": rows, "cols": cols}
    # one elimination per input: the kernel count follows from the rank
    if args.p is not None:
        rank = gfcore.rank_mod_p(matrix, args.p)
        payload.update(p=args.p, rank=rank)
        if rows == cols:
            kernel_count = _decimal(args.p ** (rows - rank) - 1)
            payload.update(kernel_count=kernel_count, singular=rank < rows)
    elif rows == cols:
        rank, det = gfcore.rank_det_integer(matrix)
        payload.update(p=None, rank=rank, det=_decimal(det), singular=rank < rows)
    else:
        payload.update(p=None, rank=gfcore.rank_integer(matrix))
    _emit_json(args, payload)
    return 0


def _cmd_exact_count(args) -> int:
    sig = tuple(_parse_list(args.sig))
    count = exactcount.count_graphs(sig, args.d, args.p, args.mode)
    _emit_json(
        args,
        {"sig": list(sig), "d": args.d, "p": args.p, "mode": args.mode, "count": _decimal(count)},
    )
    return 0


def _cmd_master_sum(args) -> int:
    master = exactcount.master_sum(args.n, args.d, args.p, args.mode)
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
    _emit_json(args, {**_json_default(report), "classes": len(report.classes)})
    return 0 if report.passed else 1


def _cmd_rate(args) -> int:
    if args.mode == "directed":
        if args.frak_n is None:
            raise argparse.ArgumentTypeError("--frak-n is required for directed rates")
        nu = _parse_list(args.frak_n, float)
        ev = asymptotics.rate_directed_opt(nu, args.d, args.p)
        payload = {"mode": "directed", "d": args.d, "p": args.p, "frak_n": nu, **_json_default(ev)}
    else:
        if args.frak_m is None:
            raise argparse.ArgumentTypeError("--frak-m is required for undirected rates")
        rows = [_parse_list(row, float) for row in args.frak_m.split(";")]
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
    sig = tuple(_parse_list(args.sig))
    if args.n is not None and args.n != sum(sig):
        raise argparse.ArgumentTypeError(
            f"--n {args.n} disagrees with the class total {_decimal(sum(sig))}"
        )
    value = asymptotics.lclt_directed(sig, args.d, args.p)
    _emit_json(
        args, {"sig": list(sig), "n": sum(sig), "d": args.d, "p": args.p, **value._asdict()}
    )
    return 0


def _cmd_mc(args) -> int:
    config = functools.partial(experiments.McConfig, n=args.n, d=args.d, mode=args.mode,
                               p=args.p, trials=args.trials, workers=args.workers)
    _ensure_seed(args, lambda seed: config(seed=seed))
    report = experiments.run_mc(config(seed=args.seed))
    return _emit_report(args, report, [report])


def _cmd_scaling(args) -> int:
    probe = dict(d=args.d, n_list=_parse_list(args.n_list), trials=args.trials, mode=args.mode,
                 workers=args.workers)
    _ensure_seed(args, lambda seed: experiments.scaling_configs(seed=seed, **probe))
    report = experiments.scaling_probe(seed=args.seed, **probe)
    return _emit_report(args, report, report.rows)


def _arg(*flags, **kwargs):
    """One `add_argument` call as data: its flags and keyword arguments."""
    return flags, kwargs


_N = _arg("--n", type=int, required=True)
_D = _arg("--d", type=int, required=True)
_P = _arg("--p", type=int, required=True)
_MODE = _arg("--mode", choices=("directed", "undirected"), default="directed")
_SEED = _arg("--seed", type=int, default=None)
_RUN = (_arg("--trials", type=int, default=1000), _SEED, _arg("--workers", type=int, default=1),
        _arg("--format", choices=("json", "csv"), default="json"))
_OUT = _arg("--out", help="write output to this file instead of stdout")

# (name, help, handler, arguments); every subcommand takes --out last
COMMANDS = (
    ("sample", "draw one graph from the configuration model", _cmd_sample,
     (_N, _D, _MODE, _SEED)),
    ("rank", "rank of a matrix, mod p or over the integers", _cmd_rank,
     (_arg("--p", type=int, default=None, help="prime modulus; omit for integer rank"),
      _arg("--matrix-file", help="JSON matrix; stdin when omitted"))),
    ("exact-count", "graphs annihilating one vector class", _cmd_exact_count,
     (_arg("--sig", required=True, help="class signature, e.g. 0,1,1"), _D, _P, _MODE)),
    ("master-sum", "exact expected number of nonzero kernel vectors", _cmd_master_sum,
     (_N, _D, _P, _MODE)),
    ("oracle-check", "certify the counting identities by brute force", _cmd_oracle_check,
     (_N, _D, _P, _MODE)),
    ("rate", "large-deviation rate function values", _cmd_rate,
     (_MODE, _arg("--frak-n", help="directed frequencies, e.g. 0.5,0.3,0.2"),
      _arg("--frak-m", help="undirected pair frequencies, rows split by ';'"), _D, _P)),
    ("cf-scan", "characteristic-function scan outside the tubes", _cmd_cf_scan,
     (_D, _P, _arg("--delta", type=float, required=True),
      _arg("--step", type=_parse_step, required=True, help="grid step, float or 2pi/K"))),
    ("lclt", "local-limit approximation of one class term", _cmd_lclt,
     (_arg("--sig", "--class", dest="sig", required=True, help="class signature"),
      _arg("--n", type=int, default=None, help="optional cross-check of the class total"), _D, _P)),
    ("mc", "Monte Carlo singularity estimate", _cmd_mc,
     (_N, _D, _arg("--p", type=int, default=None, help="prime modulus; omit for integer mode"),
      _MODE, *_RUN)),
    ("scaling", "integer-mode singularity frequency against n", _cmd_scaling,
     (_D, _arg("--n-list", required=True, help="comma-separated sizes, e.g. 50,100,200"),
      _MODE, *_RUN)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsing",
        description="Exact and empirical toolkit for kernels of random regular multigraph adjacency matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, arguments in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flags, kwargs in (*arguments, _OUT):
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(func=func)
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
)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with _checked_out(args.out):
            return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (CostGuardError, *USAGE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CostGuardError) else 2


if __name__ == "__main__":
    sys.exit(main())
