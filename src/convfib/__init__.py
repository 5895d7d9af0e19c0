"""Exact arithmetic for convolved Fibonacci numbers.

The numbers p_n(x) defined by (1 - t - t^2)**(-x) = sum p_n(x) t^n / n!,
the integer triangle a_i(N) produced by repeated t-differentiation of the
generating function, polynomial forms in the rising-factorial basis, and
machine verification of the structural identities tying them together.
"""

from convfib.convolved import (
    CoeffTriangle,
    IndexOutOfTriangle,
    RisingFactorialPoly,
    base_series,
    conv_fib,
    conv_fib_by_nested_sum,
    conv_fib_poly,
    conv_fib_poly_oracle,
    conv_fib_row,
    conv_fib_row_by_recurrence,
    factorial_powers,
    rising_factorial_poly,
    triangle_closed,
    triangle_recurrence,
)
from convfib.fibonacci import fib, fib_pure
from convfib.identities import (
    IDENTITY_NAMES,
    fib_genfun_check,
    run_identity,
    verify_cor2,
    verify_cor4,
    verify_cor8,
    verify_cor9,
    verify_genfun,
    verify_holo,
    verify_prop1,
    verify_thm3,
    verify_thm5,
    verify_thm6,
    verify_thm7,
)
from convfib.poly import Poly
from convfib.report import UsageError, VerificationReport
from convfib.series import BadConstantTerm, NonInvertibleConstantTerm, Series

__version__ = "0.1.0"

__all__ = [
    "BadConstantTerm",
    "CoeffTriangle",
    "IDENTITY_NAMES",
    "IndexOutOfTriangle",
    "NonInvertibleConstantTerm",
    "Poly",
    "RisingFactorialPoly",
    "Series",
    "UsageError",
    "VerificationReport",
    "base_series",
    "conv_fib",
    "conv_fib_by_nested_sum",
    "conv_fib_poly",
    "conv_fib_poly_oracle",
    "conv_fib_row",
    "conv_fib_row_by_recurrence",
    "factorial_powers",
    "fib",
    "fib_genfun_check",
    "fib_pure",
    "rising_factorial_poly",
    "run_identity",
    "triangle_closed",
    "triangle_recurrence",
    "verify_cor2",
    "verify_cor4",
    "verify_cor8",
    "verify_cor9",
    "verify_genfun",
    "verify_holo",
    "verify_prop1",
    "verify_thm3",
    "verify_thm5",
    "verify_thm6",
    "verify_thm7",
]
