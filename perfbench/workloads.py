"""Seeded request lists, their reference answers, and the output checks.

A pass is one list of requests run in one fresh interpreter.  Every pass
of a run replays the same list, so passes differ only by noise and the
traced counts of two passes must agree exactly.

Requests are plain JSON objects so they can be handed to the child:

* ``{"kind": "cli", "argv": [...]}`` calls ``convfib.cli.main(argv)``;
* ``{"kind": "oracle", "n": N}`` calls ``convfib.conv_fib_poly_oracle(N, N)``,
  which has no command.

Each request list is stratified: every cell of a fixed design gets one
request, and the seed draws the exact size inside the cell and the order
of the list.  The work in a pass thus barely depends on the seed, while
two seeds still ask for different rows.
"""

from __future__ import annotations

import json
import random
from math import factorial
from typing import Callable, Optional

WORKLOADS = ("verify-all", "values", "symbolic")

# -- values ---------------------------------------------------------------------
# One request per (r, bin).  Bins are narrow where the cost of a row grows
# fast with n, so a pass costs about the same for every seed.  Above n = 64
# they are eight wide: the rows there hold the 90th percentile latency, and
# sixteen-wide bins moved it by a tenth between seeds.
VALUES_R = tuple(range(-9, 10))
VALUES_BINS = (
    (0, 7), (8, 15), (16, 31), (32, 47), (48, 63),
    (68, 75), (84, 91), (100, 107), (116, 123),
    (176, 183),
)

# -- symbolic -------------------------------------------------------------------
# Costs grow about 12% per step of N, so the seed draws from bins only two
# wide, and thm6, whose cost doubles per step, runs every N from 1 to 10.
# A wider draw moves the median request by a tenth between seeds.
POLY_BINS = tuple((lo, lo + 1) for lo in range(3, 58, 3))    # table --mode poly
ORACLE_BINS = tuple((lo, lo + 1) for lo in range(2, 40, 2))  # conv_fib_poly_oracle(N, N)
THM6_NS = tuple(range(1, 11))                                # verify thm6, order 3N


def _draw(rng: random.Random, bins) -> list[int]:
    return [rng.randint(lo, hi) for lo, hi in bins]


def cli_request(*argv: object) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def make_requests(workload: str, seed: int) -> list[dict]:
    """The request list of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        # The grid is what users run; the seed has nothing to choose.
        return [cli_request("verify", "all")]
    if workload == "values":
        reqs = [
            cli_request("table", "--mode", "values", "--r", r, "--n-max", n)
            for r in VALUES_R
            for n in _draw(rng, VALUES_BINS)
        ]
    elif workload == "symbolic":
        reqs = [cli_request("table", "--mode", "poly", "--n", n) for n in _draw(rng, POLY_BINS)]
        reqs += [{"kind": "oracle", "n": n} for n in _draw(rng, ORACLE_BINS)]
        reqs += [cli_request("verify", "thm6", "--N-max", n, "--order", 3 * n) for n in THM6_NS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


# -- references -------------------------------------------------------------------

def _option(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def polynomial_row(r: int, n_max: int) -> list[int]:
    """p_n(r) for r <= 0: n! times the coefficients of (1 - t - t^2)^|r|,
    expanded with plain integers."""
    coeffs = [1]
    for _ in range(-r):
        nxt = [0] * (len(coeffs) + 2)
        for k, c in enumerate(coeffs):
            nxt[k] += c
            nxt[k + 1] -= c
            nxt[k + 2] -= c
        coeffs = nxt
    coeffs += [0] * (n_max + 1 - len(coeffs))
    return [factorial(n) * coeffs[n] for n in range(n_max + 1)]


Checker = Callable[[dict, dict], Optional[str]]


def build_checker(workload: str, requests: list[dict]) -> Checker:
    """Compute every reference answer now, before any timing, and return a
    function that names what is wrong with one request's result (None when
    it is right).

    A result is ``{"code": int | None, "out": str | list[str], "error": str | None}``.
    """
    import convfib

    if workload == "verify-all":
        names = list(convfib.IDENTITY_NAMES)

        def check_verify_all(req: dict, res: dict) -> Optional[str]:
            reports = [json.loads(line) for line in res["out"].splitlines()]
            if [rep["identity"] for rep in reports] != names:
                return f"expected one report for each of {names}"
            bad = [rep["identity"] for rep in reports if rep["status"] != "pass" or rep["cells"] <= 0]
            return f"not passed with cells > 0: {bad}" if bad else None

        return _guarded(check_verify_all)

    if workload == "values":
        top: dict[int, int] = {}
        for req in requests:
            r, n = _option(req["argv"], "--r"), _option(req["argv"], "--n-max")
            top[r] = max(top.get(r, 0), n)
        rows = {
            r: convfib.conv_fib_row_by_recurrence(r, n) if r >= 1 else polynomial_row(r, n)
            for r, n in top.items()
        }

        def check_values(req: dict, res: dict) -> Optional[str]:
            r, n_max = _option(req["argv"], "--r"), _option(req["argv"], "--n-max")
            want = [f"{n},{r},{v}" for n, v in enumerate(rows[r][: n_max + 1])]
            lines = res["out"].splitlines()
            if lines != ["n,r,p", *want]:
                return f"table for r={r}, n_max={n_max} differs from the reference"
            return None

        return _guarded(check_values)

    if workload == "symbolic":
        poly_ns = {_option(q["argv"], "--n") for q in requests if "--n" in q.get("argv", ())}
        oracle_ns = {q["n"] for q in requests if q["kind"] == "oracle"}
        triangle = convfib.CoeffTriangle.from_closed_form(max(poly_ns, default=0))
        poly_refs = {
            n: {
                "N": n,
                "rising": [str(a) for a in triangle.row(n)],
                "monomial": [str(c) for c in convfib.conv_fib_poly_oracle(n, n).coefficients],
            }
            for n in poly_ns
        }
        oracle_refs = {
            n: [str(c) for c in convfib.conv_fib_poly(n).monomial.coefficients] for n in oracle_ns
        }

        def check_symbolic(req: dict, res: dict) -> Optional[str]:
            if req["kind"] == "oracle":
                if res["out"] != oracle_refs[req["n"]]:
                    return f"oracle p_{req['n']}(x) differs from conv_fib_poly"
                return None
            argv = req["argv"]
            if argv[0] == "table":
                n = _option(argv, "--n")
                if json.loads(res["out"]) != poly_refs[n]:
                    return f"table --mode poly --n {n} differs from the oracle"
                return None
            n = _option(argv, "--N-max")
            [report] = [json.loads(line) for line in res["out"].splitlines()]
            if report["status"] != "pass" or report["cells"] != n + 1:
                return f"thm6 N={n}: status {report['status']}, {report['cells']} cells"
            return None

        return _guarded(check_symbolic)

    raise ValueError(f"unknown workload {workload!r}")


def _guarded(check: Checker) -> Checker:
    """Exit codes and raised errors fail a request before its output is read;
    output that cannot be parsed fails it too."""

    def guarded(req: dict, res: dict) -> Optional[str]:
        if res["error"] is not None:
            return f"raised {res['error']}"
        if req["kind"] == "cli" and res["code"] != 0:
            return f"exit code {res['code']}"
        try:
            return check(req, res)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"

    return guarded
