"""Machine verification of the convolved-Fibonacci identities.

Every verifier compares two independently computed sides over an explicit
parameter grid, with exact equality and zero tolerance.  Right-hand sides
that the statements give as nested sums are evaluated by literal recursive
loops mirroring the summation structure, never by a shortcut, so each
check really pits two different algorithms against each other.  Each
verifier yields its cells in lexicographic parameter order and
:func:`convfib.report.scan` reports the first failing cell as the
counterexample.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterable, Optional

from convfib.convolved import (
    CoeffTriangle,
    TruncationTooShort,
    base_series,
    conv_fib,
    conv_fib_by_nested_sum,
    conv_fib_poly,
    conv_fib_poly_genfun,
    conv_fib_poly_oracle,
    factorial_powers,
    rising_factorial_poly,
)
from convfib.fibonacci import fib, fib_genfun_check
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
    """p_n(x) = sum_l C(n,l) p_l(r) p_{n-l}(x-r), in both stated orderings."""
    xs = sorted(x_values)

    def cells():
        for n in range(n_max + 1):
            for r in range(1, r_max + 1):
                for x in xs:
                    lhs = conv_fib(n, x)
                    rhs_a = sum(
                        comb(n, l) * conv_fib(l, r) * conv_fib(n - l, x - r) for l in range(n + 1)
                    )
                    rhs_b = sum(
                        comb(n, l) * conv_fib(n - l, r) * conv_fib(l, x - r) for l in range(n + 1)
                    )
                    yield {"n": n, "r": r, "x": x}, lhs, rhs_a if lhs != rhs_a else rhs_b

    return scan("thm3", {"n_max": n_max, "r_max": r_max, "x_values": xs}, cells())


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
            for i in range((n + 1) // 2 + 1):
                scalar = triangle.entry(n, i) * rising[n - i]
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
                    for i in range((n + 1) // 2 + 1):
                        a = triangle.entry(n, i)
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


# -- uniform runner -----------------------------------------------------------

# name -> (default grid, whether the main bound is the triangle row /
# derivative order N rather than the series index n).  Order is the
# order of `verify all`.
_REGISTRY: dict[str, tuple[dict[str, int], bool]] = {
    "genfun": ({"order": 200}, False),
    "prop1": ({"n_max": 50, "x_min": -3, "x_max": 8}, False),
    "cor2": ({"n_max": 20, "r_max": 4}, False),
    "thm3": ({"n_max": 40, "r_max": 6, "x_min": -2, "x_max": 8}, False),
    "cor4": ({"n_max": 60, "r_max": 6}, False),
    "thm5": ({"n_max": 25, "r_max": 4}, False),
    "thm6": ({"n_max": 10, "order": 30}, True),
    "thm7": ({"k_max": 20, "n_max": 8, "x_min": 1, "x_max": 5}, True),
    "cor8": ({"n_max": 40, "x_min": -5, "x_max": 10}, True),
    "cor9": ({"n_max": 50}, True),
}

IDENTITY_NAMES = tuple(_REGISTRY)


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
    """Run one named verifier on its default grid with optional overrides.

    ``big_n_max`` overrides the row/derivative bound of the identities
    indexed by N; ``n_max`` overrides the series-index bound of the rest.
    Overrides that an identity does not use are ignored.  An inverted
    x range raises :class:`~convfib.report.UsageError`.
    """
    if name not in _REGISTRY:
        raise KeyError(f"unknown identity {name!r} (choose from {', '.join(IDENTITY_NAMES)})")
    defaults, big_n = _REGISTRY[name]
    overrides = {
        "n_max": big_n_max if big_n else n_max,
        "k_max": k_max,
        "r_max": r_max,
        "order": order,
        "x_min": x_min,
        "x_max": x_max,
    }
    params = {key: defaults[key] if overrides[key] is None else overrides[key] for key in defaults}
    if "x_min" in params:
        lo, hi = params.pop("x_min"), params.pop("x_max")
        if lo > hi:
            raise UsageError(f"x_min {lo} exceeds x_max {hi}")
        params["x_values"] = range(lo, hi + 1)
    # Looked up at call time, so a rebound module global is the one called.
    verifier = globals()["fib_genfun_check" if name == "genfun" else f"verify_{name}"]
    return verifier(**params)
