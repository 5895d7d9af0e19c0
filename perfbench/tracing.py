"""Per-layer tracing from outside the package.

Each layer boundary of ``convfib`` is a function or a class attribute.
:class:`Tracer` swaps in a wrapper that records calls, inclusive time and
self time (inclusive time minus the time of wrapped calls made inside it),
plus a few exact work counts.  Everything stays in memory until
:meth:`Tracer.snapshot`.

Modules bind names with ``from convfib.convolved import ...``, so a
function is replaced in every ``convfib`` namespace that holds it, and
operator aliases such as ``Poly.__rmul__`` are wrapped on their own.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

# Boundaries reported as ``<name>.calls`` and ``<name>.self_s``.
BOUNDARIES = (
    "cli.main",
    "convolved.conv_fib",
    "convolved.conv_fib_row",
    "convolved.rising_factorial_poly",
    "convolved.conv_fib_poly",
    "convolved.conv_fib_poly_oracle",
    "convolved.triangle_recurrence",
    "convolved.triangle_closed_form",
    "convolved.conv_fib_by_nested_sum",
    "fibonacci.fib",
    "series.mul_q",
    "series.mul_qx",
    "series.inverse",
    "series.pow",
    "series.exp",
    "series.log",
    "poly.mul",
    "poly.add",
    "poly.evaluate",
)

# Exact work counts recorded at the boundaries.
COUNTS = (
    "poly.mul.coeff_products",
    "convolved.conv_fib.row_builds",
    "convolved.conv_fib_row.terms",
)


def replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``convfib`` module global that is ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "convfib" or mod_name.startswith("convfib.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


class Tracer:
    """Spans and counts at the convfib layer boundaries of one process."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list[Any]] = []  # [span name, seconds spent in child spans]

    def _wrap(
        self,
        name: str,
        fn: Callable,
        name_of: Optional[Callable[[tuple], str]] = None,
        count: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name_of(args) if name_of else name
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - frame[1]
            if count:
                count(args, result)
            return result

        return traced

    def _function(self, name: str, fn: Callable, count=None) -> None:
        replace_everywhere(fn, self._wrap(name, fn, count=count))

    def _attribute(self, cls: type, attr: str, name: str, name_of=None, count=None) -> None:
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self._wrap(name, original.__func__, name_of, count))
        else:
            wrapped = self._wrap(name, original, name_of, count)
        setattr(cls, attr, wrapped)

    # -- count hooks -----------------------------------------------------------

    def _count_coeff_products(self, args: tuple, result: Any) -> None:
        if result is NotImplemented:
            return
        a, b = args[0], args[1]
        width = len(b.coefficients) if isinstance(b, type(a)) else 1  # a scalar is one term
        self.counts["poly.mul.coeff_products"] += len(a.coefficients) * width

    def _count_row(self, args: tuple, result: list) -> None:
        self.counts["convolved.conv_fib_row.terms"] += len(result)
        if self._stack and self._stack[-1][0] == "convolved.conv_fib":
            self.counts["convolved.conv_fib.row_builds"] += 1

    def _count_cells(self, identity: str) -> Callable[[tuple, Any], None]:
        def count(args: tuple, report: Any) -> None:
            self.counts[f"identities.{identity}.cells"] += report.cells

        return count

    # -- install ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary.  Import the package first."""
        from convfib import cli, convolved, fibonacci, identities
        from convfib.poly import Poly
        from convfib.series import Series

        self._function("cli.main", cli.main)
        self._function("convolved.conv_fib", convolved.conv_fib)
        self._function("convolved.conv_fib_row", convolved.conv_fib_row, count=self._count_row)
        for fn in (
            convolved.rising_factorial_poly,
            convolved.conv_fib_poly,
            convolved.conv_fib_poly_oracle,
            convolved.conv_fib_by_nested_sum,
        ):
            self._function(f"convolved.{fn.__name__}", fn)
        self._function("fibonacci.fib", fibonacci.fib)
        # triangle_recurrence() and every other caller go through the classmethods.
        self._attribute(convolved.CoeffTriangle, "from_recurrence", "convolved.triangle_recurrence")
        self._attribute(
            convolved.CoeffTriangle, "from_closed_form", "convolved.triangle_closed_form"
        )
        def series_ring(args: tuple) -> str:
            poly = any(
                isinstance(a, Poly) or (isinstance(a, Series) and a.is_poly_ring())
                for a in args[:2]
            )
            return "series.mul_qx" if poly else "series.mul_q"

        for attr in ("__mul__", "__rmul__"):
            self._attribute(Series, attr, "", name_of=series_ring)
            self._attribute(Poly, attr, "poly.mul", count=self._count_coeff_products)
        for attr in ("__add__", "__radd__"):
            self._attribute(Poly, attr, "poly.add")
        for attr in ("evaluate", "__call__"):
            self._attribute(Poly, attr, "poly.evaluate")
        for attr, name in (("inverse", "series.inverse"), ("__pow__", "series.pow"),
                           ("exp", "series.exp"), ("log", "series.log")):
            self._attribute(Series, attr, name)
        for identity in identities.IDENTITY_NAMES:
            fn = identities.fib_genfun_check if identity == "genfun" else getattr(
                identities, f"verify_{identity}"
            )
            self._function(f"identities.{identity}", fn, count=self._count_cells(identity))

    def snapshot(self) -> dict[str, Any]:
        """Plain-JSON view: per span [calls, total_s, self_s], and the counts."""
        spans = {k: [self.calls[k], self.total_s[k], self.self_s[k]] for k in self.calls}
        return {"spans": spans, "counts": dict(self.counts)}
