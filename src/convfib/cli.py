"""Command-line surface: sequence tables, identity verification, benchmarks.

Exit codes: 0 when everything passed, 1 when a verifier or benchmark
cross-check reported a genuine failure, 2 for malformed usage (an argparse
error or a :class:`~convfib.report.UsageError`), 3 for any other error (a
crash, never a disagreement); commands raise, and :func:`main` alone maps
an error to its code.  ``verify --jobs`` reports in identity order, and its
first error ends every worker.  All big numbers are emitted as decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import multiprocessing
import os
import sys
import traceback
from typing import Iterable, Optional

from convfib import bench as bench_mod
from convfib.convolved import CoeffTriangle, conv_fib_poly, conv_fib_row
from convfib.fibonacci import fib
from convfib.identities import IDENTITY_NAMES, run_identity
from convfib.report import UsageError


def _open_out(path: str, mode: str):
    try:
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from exc


def _check_out(path: str) -> None:
    """Fail before any work when --out cannot be opened for writing.

    Opening for append leaves an existing file as it is until the command
    writes its output; a file created only for the check is removed again.
    """
    existed = os.path.lexists(path)
    _open_out(path, "a").close()
    if not existed:
        os.remove(path)


def _emit(text: str, out_path: Optional[str]) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    with _open_out(out_path, "w") as handle:
        handle.write(text)


def _json_doc(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _table(fields: tuple[str, ...], rows: Iterable[tuple], fmt: str) -> str:
    """CSV: a header row of ``fields``, then one row per line, LF endings, no
    quoting.  JSON: a list of objects whose last field is a decimal string."""
    if fmt == "json":
        return _json_doc([dict(zip(fields, (*row[:-1], str(row[-1])))) for row in rows])
    return "".join(",".join(map(str, row)) + "\n" for row in [fields, *rows])


def cmd_fib(args: argparse.Namespace) -> int:
    if args.start > args.stop:
        raise UsageError(f"--from {args.start} exceeds --to {args.stop}")
    rows = [(n, fib(n)) for n in range(args.start, args.stop + 1)]
    _emit(_table(("n", "F"), rows, args.format), args.out)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    fmt = args.format or ("json" if args.mode == "poly" else "csv")
    if args.mode == "values":
        rows = [(n, args.r, v) for n, v in enumerate(conv_fib_row(args.r, args.n_max))]
        text = _table(("n", "r", "p"), rows, fmt)
    elif args.mode == "triangle":
        triangle = CoeffTriangle.from_recurrence(args.n_max)
        rows = [
            (n, i, a)
            for n in range(triangle.n_max + 1)
            for i, a in enumerate(triangle.row(n))
        ]
        text = _table(("N", "i", "a"), rows, fmt)
    else:  # poly
        if args.n is None:
            raise UsageError("--mode poly requires --n")
        if fmt == "csv":
            raise UsageError("the polynomial table is JSON only")
        text = _json_doc(conv_fib_poly(args.n).to_json_dict())
    _emit(text, args.out)
    return 0


def _worker_count(jobs: int, tasks: int) -> int:
    """Processes worth starting: never more than tasks or cores."""
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, tasks, os.cpu_count() or 1)


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(IDENTITY_NAMES) if args.identity == "all" else [args.identity]
    overrides = {
        key: getattr(args, key)
        for key in ("n_max", "big_n_max", "k_max", "r_max", "order", "x_min", "x_max")
    }
    run = functools.partial(run_identity, **overrides)
    workers = _worker_count(args.jobs, len(names))
    if workers > 1:
        # a spawned worker starts with the default digit limit; leaving the block ends every worker
        with multiprocessing.Pool(workers, _set_int_digits, (0,)) as pool:
            reports = list(pool.imap(run, names))
    else:
        reports = list(map(run, names))
    lines = [json.dumps(report.to_json_dict()) for report in reports]
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0 if all(report.passed for report in reports) else 1


def cmd_bench(args: argparse.Namespace) -> int:
    if any(n < 0 for n in args.sizes):
        raise UsageError(f"--sizes must be >= 0, got {min(args.sizes)}")
    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    if args.r < 1:
        raise UsageError(f"--r must be >= 1, got {args.r}")
    if args.triangle_max < 0:
        raise UsageError(f"--triangle-max must be >= 0, got {args.triangle_max}")
    if not 0 <= args.min_time_ms < math.inf:
        raise UsageError(f"--min-time-ms must be a finite number >= 0, got {args.min_time_ms}")
    if args.min_time_ms > 10_000:
        raise UsageError(f"--min-time-ms must be at most 10000, got {args.min_time_ms}")
    results = bench_mod.run_bench(
        args.sizes,
        depth=args.r,
        triangle_max=None if args.skip_triangle else args.triangle_max,
        min_seconds=args.min_time_ms / 1000.0,
        repeats=args.repeats,
    )
    rows = [(row.algorithm, row.params, f"{row.seconds:.9f}") for row in results]
    _emit(_table(("algorithm", "params", "seconds"), rows, "csv"), args.out)
    return 0


def _int_list(text: str) -> list[int]:
    if not text.strip():
        return []
    return [int(part) for part in text.split(",")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves it unchanged, and a build leaves cyclic garbage."""
    parser = argparse.ArgumentParser(
        prog="convfib",
        description="Exact tables and machine-checked identities for convolved Fibonacci numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fib = sub.add_parser("fib", help="emit rows (n, F_n) over a signed index range")
    p_fib.add_argument("--from", dest="start", type=int, required=True, help="first index")
    p_fib.add_argument("--to", dest="stop", type=int, required=True, help="last index")
    p_fib.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fib.set_defaults(func=cmd_fib)

    p_table = sub.add_parser("table", help="emit value grids, the coefficient triangle, or p_N(x)")
    p_table.add_argument("--mode", choices=("values", "triangle", "poly"), required=True)
    p_table.add_argument("--r", type=int, default=1, help="argument r for --mode values")
    p_table.add_argument("--n-max", type=int, default=10, help="last row for values/triangle")
    p_table.add_argument("--n", type=int, help="polynomial index for --mode poly")
    p_table.add_argument(
        "--format", choices=("csv", "json"), help="default: csv (values/triangle), json (poly)"
    )
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run identity verifiers on exact grids")
    p_verify.add_argument("identity", choices=("all",) + IDENTITY_NAMES)
    p_verify.add_argument("--n-max", type=int, help="series-index bound")
    p_verify.add_argument("--N-max", dest="big_n_max", type=int, help="row/derivative bound")
    p_verify.add_argument("--k-max", type=int)
    p_verify.add_argument("--r-max", type=int)
    p_verify.add_argument("--order", type=int, help="series truncation order")
    p_verify.add_argument("--x-min", type=int)
    p_verify.add_argument("--x-max", type=int)
    p_verify.add_argument("--jobs", type=int, default=1, help="verifiers to run in parallel")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="cross-check algorithms, then time them")
    p_bench.add_argument("--r", type=int, default=4, help="nested-sum depth; cells compute p_n(r+1)")
    p_bench.add_argument("--sizes", type=_int_list, default=[10, 20], help="comma-separated n values")
    p_bench.add_argument("--triangle-max", type=int, default=40)
    p_bench.add_argument("--skip-triangle", action="store_true")
    p_bench.add_argument("--min-time-ms", type=float, default=20.0)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.set_defaults(func=cmd_bench)

    for command in sub.choices.values():
        command.add_argument("--out", help="write to a file instead of stdout")

    return parser


def _set_int_digits(limit: int) -> int:
    """Set CPython's limit on the decimal digits of an int/str conversion
    (4,300 by default, 0 for none) and return the previous limit.
    Interpreters older than 3.10.7 have no limit to set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return 0
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    return previous


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.  Numbers of any length are
    read and written in full; the caller's digit limit is restored on return."""
    previous = _set_int_digits(0)
    try:
        args = build_parser().parse_args(argv)
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except bench_mod.CrossCheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a crash must not read as a disagreement (exit 1)
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        _set_int_digits(previous)


if __name__ == "__main__":
    raise SystemExit(main())
