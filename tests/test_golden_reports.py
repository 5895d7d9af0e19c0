"""Failing reports pinned byte for byte.

A faster right side must still report the same first failing cell with
the same two values.  Each case alters one input, either one triangle
entry or ``identities.conv_fib`` at one point, and its report is compared
with ``tests/golden/mutated_reports.ndjson``.  Every thm6 report there
fails at t^0, so thm6 is also run on perturbed expansions of F, which
fail above t^0, and compared with ``tests/golden/thm6_perturbed_reports.ndjson``.
Regenerate a file only from a tree whose reports are known good:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden/mutated_reports.ndjson
    PYTHONPATH=src python tests/test_golden_reports.py perturbed > tests/golden/thm6_perturbed_reports.ndjson
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convfib import identities
from convfib.convolved import CoeffTriangle, conv_fib, conv_fib_poly_genfun
from convfib.series import Series
from test_convolved import cold_genfun

GOLDEN = Path(__file__).resolve().parent / "golden" / "mutated_reports.ndjson"
PERTURBED_GOLDEN = GOLDEN.with_name("thm6_perturbed_reports.ndjson")

# the triangle consumers, each on a grid that reads every entry of rows 0..8
TRIANGLE_CHECKS: dict[str, Callable] = {
    "thm6": lambda t: identities.verify_thm6(8, 24, triangle=t),
    "cor8": lambda t: identities.verify_cor8(8, range(-3, 5), triangle=t),
    "cor9": lambda t: identities.verify_cor9(8, triangle=t),
    "thm7": lambda t: identities.verify_thm7(6, 8, range(-2, 4), triangle=t),
}

# the readers of identities.conv_fib, on reduced grids
VALUE_CHECKS: dict[str, Callable] = {
    "prop1": lambda: identities.verify_prop1(12, range(-3, 6)),
    "cor2": lambda: identities.verify_cor2(10, 4),
    "thm3": lambda: identities.verify_thm3(12, 4, range(-2, 6)),
    "cor4": lambda: identities.verify_cor4(14, 4),
    "thm5": lambda: identities.verify_thm5(10, 3),
    "thm7": lambda: identities.verify_thm7(8, 6, range(-2, 5)),
    "cor8": lambda: identities.verify_cor8(10, range(-3, 6)),
    "cor9": lambda: identities.verify_cor9(12),
    "holo": lambda: identities.verify_holo(12, 4),
}
VALUE_POINTS = [(0, 1), (2, 1), (3, -2), (5, 2), (1, 7), (7, 4), (10, 3)]


def mutated_reports(monkeypatch: pytest.MonkeyPatch) -> Iterator[dict]:
    """One record per (mutation, check), in a fixed order."""
    triangle = CoeffTriangle.from_recurrence(8)
    for n, row in enumerate(triangle.rows):
        for i, a in enumerate(row):
            for delta in (1, -3):
                mutant = triangle.with_entry(n, i, a + delta)
                for name, check in TRIANGLE_CHECKS.items():
                    report = check(mutant).to_json_dict()
                    yield {"entry": [n, i], "delta": delta, "check": name, "report": report}
    for point in VALUE_POINTS:
        def wrong(n: int, r: int, point: tuple[int, int] = point) -> int:
            return conv_fib(n, r) + ((n, r) == point)

        with monkeypatch.context() as patch:
            patch.setattr(identities, "conv_fib", wrong)
            for name, check in VALUE_CHECKS.items():
                yield {"conv_fib_wrong_at": list(point), "check": name, "report": check().to_json_dict()}


# thm6 grids, as (n_max, order), on expansions of F with one coefficient off
PERTURBED_GRIDS = [(10, 30), (14, 32), (14, 14)]
PERTURBED_POWERS = [0, 5, 12, 30]
PERTURBED_DELTAS = [1, Fraction(1, 7), Fraction(2, 3), Fraction(-1, 11)]


def perturbed_exp(power: int, delta: Fraction) -> Callable[..., Series]:
    """``Series.exp`` with the t^power coefficient of its result off by delta;
    a known prefix that holds t^power already carries the change."""
    exp = Series.exp

    def perturbed(self: Series, known: Series | None = None) -> Series:
        coeffs = list(exp(self, known).coefficients)
        if known is None or known.order < power:
            coeffs[power] += delta
        return Series(coeffs)

    return perturbed


def perturbed_reports(monkeypatch: pytest.MonkeyPatch) -> Iterator[dict]:
    """One record per (power, delta, grid): thm6 on an expansion of F built
    through t^32 with t^power off by delta.  A power beyond a grid's order
    leaves the grid's truncation exact, so that grid passes."""
    for power in PERTURBED_POWERS:
        for delta in PERTURBED_DELTAS:
            with cold_genfun(), monkeypatch.context() as patch:
                patch.setattr(Series, "exp", perturbed_exp(power, delta))
                conv_fib_poly_genfun(max(order for _, order in PERTURBED_GRIDS))
                for grid in PERTURBED_GRIDS:
                    report = identities.verify_thm6(*grid).to_json_dict()
                    yield {"power": power, "delta": str(delta), "grid": list(grid), "report": report}


def lines(monkeypatch: pytest.MonkeyPatch, records=mutated_reports) -> list[str]:
    return [json.dumps(record) for record in records(monkeypatch)]


def test_mutated_reports_match_the_golden_file(monkeypatch):
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert lines(monkeypatch) == golden


def test_thm6_perturbed_reports_match_the_golden_file(monkeypatch):
    golden = PERTURBED_GOLDEN.read_text(encoding="utf-8").splitlines()
    assert lines(monkeypatch, perturbed_reports) == golden


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 34),
    st.fractions(-3, 3, max_denominator=12).filter(bool),
)
def test_thm6_reports_a_perturbed_expansion_at_n_1(power, delta):
    """No thm6 report fails at N >= 2 above t^0.  Its N = 1 cell is the ODE
    (1 - t - t^2) F' = x (1 + 2t) F, which fixes F through t^order from
    F_0 = 1, so an expansion off at t^power (power <= order) first fails
    there, at t^(power - 1) (at t^0 for power 0); an altered a_i(N) fails
    at t^0 instead (``mutated_reports``)."""
    with cold_genfun(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(Series, "exp", perturbed_exp(power, delta))
        conv_fib_poly_genfun(34)
        report = identities.verify_thm6(10, 30)
    if power > 30:
        assert report.passed
    else:
        assert report.counterexample["params"] == {"N": 1, "t_power": max(power - 1, 0)}


if __name__ == "__main__":
    records = perturbed_reports if sys.argv[1:] == ["perturbed"] else mutated_reports
    with pytest.MonkeyPatch.context() as mp:
        print("\n".join(lines(mp, records)))
