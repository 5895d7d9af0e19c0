"""Verification reports, the grid scan behind them, and the exit-code errors."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Optional


class UsageError(ValueError):
    """A caller's argument is out of range: a negative bound, an empty grid,
    a truncation order too short for the request, an unwritable path."""


class CrossCheckFailure(RuntimeError):
    """Two benchmarked algorithms disagreed on a cell; timings were not produced."""


@dataclass(frozen=True)
class VerificationReport:
    """Result of comparing two independently computed sides over a grid.

    ``status`` is "pass" exactly when every cell agreed; on failure
    ``counterexample`` holds the lexicographically first failing cell with
    both side values rendered as strings.  ``cells`` counts the checks
    performed (on failure: up to and including the failing one).
    """

    identity: str
    grid: dict[str, Any]
    cells: int
    status: str
    counterexample: Optional[dict[str, Any]] = field(default=None)

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail"):
            raise ValueError(f"status must be 'pass' or 'fail', got {self.status!r}")
        if (self.status == "fail") != (self.counterexample is not None):
            raise ValueError("counterexample must be present exactly when status is 'fail'")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)


def scan(
    identity: str, grid: dict[str, Any], cells: Iterable[tuple[dict[str, Any], object, object]]
) -> VerificationReport:
    """Turn a grid scan into a report.

    ``cells`` yields ``(params, lhs, rhs)`` in lexicographic parameter
    order; the scan stops at the first cell whose sides differ and reports
    it as the counterexample.  A grid that yields no cell raises
    :class:`UsageError`, so a pass always means that something was checked.
    """
    count = 0
    for params, lhs, rhs in cells:
        count += 1
        if lhs != rhs:
            counterexample = {"params": params, "lhs": str(lhs), "rhs": str(rhs)}
            return VerificationReport(identity, grid, count, "fail", counterexample)
    if not count:
        raise UsageError(f"{identity}: the grid {grid} has no cells to check")
    return VerificationReport(identity, grid, count, "pass")
