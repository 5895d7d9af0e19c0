"""Verification reports, the decorator that scans a grid into one, and the exit-code errors."""

from __future__ import annotations

import functools
import inspect
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Optional


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


def verifier(identity: str):
    """Turn a generator of ``(params, lhs, rhs)`` cells, in lexicographic
    parameter order, into a verifier that returns a report.

    The generator gets the defaults of its signature and ``x_values`` as a
    sorted list; the report's grid is those arguments, less ``triangle``.
    The first cell whose sides differ is the counterexample.  A grid with no
    cell raises :class:`UsageError`, so a pass means that cells were checked.
    """

    def decorate(cells: Callable[..., Iterable[tuple[dict[str, Any], object, object]]]):
        signature = inspect.signature(cells)

        @functools.wraps(cells)
        def run(*args: Any, **kwargs: Any) -> VerificationReport:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if "x_values" in bound.arguments:
                bound.arguments["x_values"] = sorted(bound.arguments["x_values"])
            grid = {key: value for key, value in bound.arguments.items() if key != "triangle"}
            count = 0
            for params, lhs, rhs in cells(*bound.args, **bound.kwargs):
                count += 1
                if lhs != rhs:
                    counterexample = {"params": params, "lhs": str(lhs), "rhs": str(rhs)}
                    return VerificationReport(identity, grid, count, "fail", counterexample)
            if not count:
                raise UsageError(f"{identity}: the grid {grid} has no cells to check")
            return VerificationReport(identity, grid, count, "pass")

        return run

    return decorate
