"""Machine verification of the convolved-Fibonacci identities.

Every verifier compares two independently computed sides over an explicit
parameter grid, with exact equality and zero tolerance.  Right-hand sides
that the statements give as nested sums are evaluated by literal recursive
loops mirroring the summation structure, never by a shortcut, so each
check really pits two different algorithms against each other.  Each
verifier yields its cells in lexicographic parameter order and
:func:`convfib.report.scan` reports the first failing cell as the
counterexample.  A verifier's signature is the one statement of its
default grid; :func:`run_identity` runs a verifier by name and applies
overrides on top of those defaults.
"""

from __future__ import annotations

import inspect
from math import comb, factorial
from typing import Iterable, Optional

from convfib.convolved import (
    CoeffTriangle,
    TruncationTooShort,
    conv_fib,
    conv_fib_by_nested_sum,
    conv_fib_poly,
    conv_fib_poly_genfun,
    conv_fib_poly_oracle,
    conv_fib_row,
    factorial_powers,
    rising_factorial_poly,
)
from convfib.fibonacci import base_series, fib, fib_genfun_check
from convfib.report import UsageError, VerificationReport, scan
from convfib.series import Series


def verify_prop1(n_max: int = 50, x_values: Iterable[int] = range(-3, 9)) -> VerificationReport:
    """p_n(x) = sum_l C(n,l) p_l(1) p_{n-l}(x-1) over the (n, x) grid."""
    xs = sorted(x_values)
    cells = (
        (
            {"n": n, "x": x},
            conv_fib(n, x),
            sum(comb(n, l) * conv_fib(l, 1) * conv_fib(n - l, x - 1) for l in range(n + 1)),
        )
        for n in range(n_max + 1)
        for x in xs
    )
    return scan("prop1", {"n_max": n_max, "x_values": xs}, cells)


def _cor2_nested(n: int, levels: int) -> int:
    """The literal nested binomial sum with ``levels`` bound indices."""
    if levels == 0:
        return conv_fib(n, 1)
    return sum(
        comb(n, l) * conv_fib(l, 1) * _cor2_nested(n - l, levels - 1) for l in range(n + 1)
    )


def verify_cor2(n_max: int = 20, r_max: int = 4) -> VerificationReport:
    """p_n(r) equals the (r-1)-fold nested binomial sum over p(1) values."""
    cells = (
        ({"n": n, "r": r}, conv_fib(n, r), _cor2_nested(n, r - 1))
        for n in range(n_max + 1)
        for r in range(1, r_max + 1)
    )
    return scan("cor2", {"n_max": n_max, "r_max": r_max}, cells)


def verify_thm3(
    n_max: int = 40, r_max: int = 6, x_values: Iterable[int] = range(-2, 9)
) -> VerificationReport:
    """p_n(x) = sum_l C(n,l) p_l(r) p_{n-l}(x-r).

    The paper also states the ordering sum_l C(n,l) p_{n-l}(r) p_l(x-r).
    Since C(n,l) = C(n,n-l), the substitution l -> n-l maps it onto this
    sum term for term, whatever values p takes, so it is not summed again.
    """
    xs = sorted(x_values)
    cells = (
        (
            {"n": n, "r": r, "x": x},
            conv_fib(n, x),
            sum(comb(n, l) * conv_fib(l, r) * conv_fib(n - l, x - r) for l in range(n + 1)),
        )
        for n in range(n_max + 1)
        for r in range(1, r_max + 1)
        for x in xs
    )
    return scan("thm3", {"n_max": n_max, "r_max": r_max, "x_values": xs}, cells)


def verify_cor4(n_max: int = 60, r_max: int = 6) -> VerificationReport:
    """p_n(r+1) = sum_l (n)_l p_{n-l}(r) F_l."""
    cells = (
        (
            {"n": n, "r": r},
            conv_fib(n, r + 1),
            sum(factorial_powers(n, l)[0] * conv_fib(n - l, r) * fib(l) for l in range(n + 1)),
        )
        for n in range(n_max + 1)
        for r in range(1, r_max + 1)
    )
    return scan("cor4", {"n_max": n_max, "r_max": r_max}, cells)


def verify_thm5(n_max: int = 25, r_max: int = 4) -> VerificationReport:
    """p_n(r+1)/n! equals the r-fold nested Fibonacci convolution sum."""
    cells = (
        ({"n": n, "r": r}, conv_fib(n, r + 1), conv_fib_by_nested_sum(n, r + 1))
        for n in range(n_max + 1)
        for r in range(1, r_max + 1)
    )
    return scan("thm5", {"n_max": n_max, "r_max": r_max}, cells)


def verify_thm6(
    n_max: int = 10, order: int = 30, triangle: Optional[CoeffTriangle] = None
) -> VerificationReport:
    """The derivative family, checked as a polynomial identity in x.

    Over the series ring with Q[x] coefficients, the N-th t-derivative of
    F = exp(-x log(1 - t - t^2)) must equal

        sum_i a_i(N) <x>_{N-i} (1+2t)^{N-2i} (1-t-t^2)^{-(N-i)} * F

    exactly through order - N, for every N <= n_max.  The left side
    differentiates F once per N; the right side multiplies the bracket by
    F.  Each <x>_k is built once per check.  So are the powers of (1+2t)
    and of (1-t-t^2)^{-1}, each from the one before; their coefficients are
    integers, so they are kept over Q[x], where products run on integers.
    """
    if order < n_max:
        raise TruncationTooShort(f"need order >= {n_max}, got {order}")
    if triangle is None:
        triangle = CoeffTriangle.from_recurrence(n_max)

    gen = conv_fib_poly_genfun(order)
    rising = [rising_factorial_poly(k) for k in range(n_max + 1)]
    one = Series.one(order).lift()
    inv_base_pows = [one]
    base_inv = base_series(order).inverse().lift()
    for _ in range(n_max):
        inv_base_pows.append(inv_base_pows[-1] * base_inv)
    # exponents -1 .. n_max; -1 occurs at i = (N+1)/2 for odd N, where the
    # triangle holds a zero unless it was altered
    two_t = Series.from_polynomial((1, 2), order).lift()
    two_t_pows = {-1: two_t.inverse(), 0: one}
    for e in range(1, n_max + 1):
        two_t_pows[e] = two_t_pows[e - 1] * two_t

    def cells():
        lhs = gen
        for n in range(n_max + 1):
            if n:
                lhs = lhs.derivative()
            bracket = Series.zero(order).lift()
            for i, a in enumerate(triangle.row(n)):
                scalar = a * rising[n - i]
                rational = two_t_pows[n - 2 * i] * inv_base_pows[n - i]
                bracket = bracket + rational * scalar
            m = order - n
            rhs = bracket.truncate(m) * gen.truncate(m)
            # one cell per N; a mismatch is reported at its lowest power of t
            k = next((k for k in range(m + 1) if lhs.coefficient(k) != rhs.coefficient(k)), 0)
            yield {"N": n, "t_power": k}, lhs.coefficient(k), rhs.coefficient(k)

    return scan("thm6", {"n_max": n_max, "order": order}, cells())


def verify_thm7(
    k_max: int = 20,
    n_max: int = 8,
    x_values: Iterable[int] = range(1, 6),
    triangle: Optional[CoeffTriangle] = None,
) -> VerificationReport:
    """p_{k+N}(x) against the double sum over the triangle row N."""
    if triangle is None:
        triangle = CoeffTriangle.from_recurrence(n_max)
    xs = sorted(x_values)

    def cells():
        for k in range(k_max + 1):
            for n in range(n_max + 1):
                for x in xs:
                    lhs = conv_fib(k + n, x)
                    rhs = 0
                    for i, a in enumerate(triangle.row(n)):
                        rising = factorial_powers(x, n - i)[1]
                        for l in range(k + 1):
                            falling = factorial_powers(n - 2 * i, l)[0]
                            term = comb(k, l) * falling * 2**l * a * rising
                            rhs += term * conv_fib(k - l, x + n - i)
                    yield {"k": k, "N": n, "x": x}, lhs, rhs

    return scan("thm7", {"k_max": k_max, "n_max": n_max, "x_values": xs}, cells())


def verify_cor8(
    n_max: int = 40,
    x_values: Iterable[int] = range(-5, 11),
    triangle: Optional[CoeffTriangle] = None,
) -> VerificationReport:
    """p_N(x) = sum_i a_i(N) <x>_{N-i}, as polynomials and at sample points.

    For each N the monomial expansion of the rising-factorial form must
    coincide with the triangle-free symbolic construction, read from one
    expansion of the generating function at order n_max, and its value at
    every x in the grid must equal p_N(x).
    """
    if triangle is None:
        triangle = CoeffTriangle.from_recurrence(n_max)
    xs = sorted(x_values)

    def cells():
        genfun = conv_fib_poly_genfun(n_max)  # one expansion serves every N
        for n in range(n_max + 1):
            poly = conv_fib_poly(n, triangle)
            oracle = conv_fib_poly_oracle(n, n_max, genfun)
            yield {"N": n, "check": "polynomial"}, poly.monomial, oracle
            for x in xs:
                yield {"N": n, "x": x}, poly.evaluate(x), conv_fib(n, x)

    return scan("cor8", {"n_max": n_max, "x_values": xs}, cells())


def verify_cor9(n_max: int = 50, triangle: Optional[CoeffTriangle] = None) -> VerificationReport:
    """N!(F_N - 1) = sum_{i>=1} a_i(N) (N-i)!, plus the i = 0 completion.

    The completion re-adds the leading N! term: p_N(1) must equal
    sum_{i>=0} a_i(N) (N-i)!.  Triangle entries come from the closed
    nested-sum form unless an explicit triangle is supplied.
    """
    if triangle is None:
        triangle = CoeffTriangle.from_closed_form(n_max)

    def cells():
        for n in range(n_max + 1):
            row = triangle.row(n)
            yield (
                {"N": n, "check": "fib-minus-one"},
                factorial(n) * (fib(n) - 1),
                sum(a * factorial(n - i) for i, a in enumerate(row) if i >= 1),
            )
            yield (
                {"N": n, "check": "value-at-one"},
                conv_fib(n, 1),
                sum(a * factorial(n - i) for i, a in enumerate(row)),
            )

    return scan("cor9", {"n_max": n_max}, cells())


def verify_holo(n_max: int = 40, r_max: int = 9) -> VerificationReport:
    """p_n(r) from the cached three-term recurrence against n! [t^n] of the
    series power (1 - t - t^2)**(-r), one power per r in [-r_max, r_max]."""

    def cells():
        for r in range(-r_max, r_max + 1):
            row = conv_fib_row(r, n_max)
            for n in range(n_max + 1):
                yield {"r": r, "n": n}, conv_fib(n, r), row[n]

    return scan("holo", {"n_max": n_max, "r_max": r_max}, cells())


# -- uniform runner -----------------------------------------------------------

# The order of `verify all`.  Each default grid is the verifier's signature.
IDENTITY_NAMES = (
    "genfun", "prop1", "cor2", "thm3", "cor4", "thm5", "thm6", "thm7", "cor8", "cor9", "holo"
)


def run_identity(
    name: str,
    *,
    n_max: Optional[int] = None,
    big_n_max: Optional[int] = None,
    k_max: Optional[int] = None,
    r_max: Optional[int] = None,
    order: Optional[int] = None,
    x_min: Optional[int] = None,
    x_max: Optional[int] = None,
) -> VerificationReport:
    """Run one named verifier on the default grid of its signature, with
    optional overrides.

    ``big_n_max`` overrides the row/derivative bound of the identities
    indexed by N; ``n_max`` overrides the series-index bound of the rest.
    ``x_min``/``x_max`` replace an end of the default ``x_values`` range.
    Overrides that an identity does not use are ignored.  An inverted
    x range raises :class:`~convfib.report.UsageError`.
    """
    if name not in IDENTITY_NAMES:
        raise KeyError(f"unknown identity {name!r} (choose from {', '.join(IDENTITY_NAMES)})")
    # Looked up at call time, so a rebound module global is the one called.
    verifier = globals()["fib_genfun_check" if name == "genfun" else f"verify_{name}"]
    parameters = inspect.signature(verifier).parameters
    overrides = {
        # triangle rows are indexed by N, so a verifier that takes one is bounded by N
        "n_max": big_n_max if "triangle" in parameters else n_max,
        "k_max": k_max,
        "r_max": r_max,
        "order": order,
    }
    params = {
        key: value for key, value in overrides.items() if key in parameters and value is not None
    }
    if "x_values" in parameters:
        default = parameters["x_values"].default
        lo = default[0] if x_min is None else x_min
        hi = default[-1] if x_max is None else x_max
        if lo > hi:
            raise UsageError(f"x_min {lo} exceeds x_max {hi}")
        params["x_values"] = range(lo, hi + 1)
    return verifier(**params)
