"""Verification reports, the one lower-bound refusal, and the exit-code errors."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Optional


class UsageError(ValueError):
    """A caller's argument is out of range: a negative bound, an empty grid,
    a truncation order too short for the request, an unwritable path."""


def at_least(name: str, value: int, low: int) -> None:
    """Refuse ``value`` below ``low`` with ``UsageError("<name> must be >= <low>, got <value>")``:
    the package's one lower-bound refusal, for parameters and CLI flags alike."""
    if value < low:
        raise UsageError(f"{name} must be >= {low}, got {value}")


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
