"""The truncated power-series ring: arithmetic, inverse, log/exp, derivative.

Derived expectations are produced by independent oracles written here in
plain list arithmetic (long division, substitution, termwise integration),
never by the series operations under test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convfib.poly import Poly
from convfib.series import BadConstantTerm, NonInvertibleConstantTerm, Series

FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]


def list_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    """Plain convolution of coefficient lists, truncated."""
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        for j, cb in enumerate(b[: order + 1 - i]):
            out[i + j] += ca * cb
    return out


def through_degree(coeffs: list) -> list:
    """The coefficients through the last nonzero one; [] for the zero series."""
    return coeffs[: max((k + 1 for k, c in enumerate(coeffs) if c), default=0)]


def long_division(dividend: list, divisor: list) -> list:
    """Quotient digits of dividend / divisor through the dividend's length,
    by literal long division over Q or Q[x]; divisor[0] is a nonzero constant."""
    lead = divisor[0].constant_value() if isinstance(divisor[0], Poly) else divisor[0]
    remainder = list(dividend)
    quotient = []
    for k in range(len(remainder)):
        digit = remainder[k] / lead
        quotient.append(digit)
        for j, d in enumerate(divisor[: len(remainder) - k]):
            remainder[k + j] = remainder[k + j] - digit * d
    return quotient


def long_division_inverse(divisor: list[Fraction], order: int) -> list[Fraction]:
    """Quotient digits of 1 / divisor by literal long division."""
    return long_division([Fraction(1)] + [Fraction(0)] * order, divisor)


def rand_series(rng: random.Random, order: int, constant: int | None = None) -> Series:
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    return Series(coeffs)


class TestAddMul:
    def test_multiplying_by_one_is_identity(self):
        rng = random.Random(3)
        a = rand_series(rng, 7)
        assert a * Series.one(7) == a

    def test_difference_of_squares(self):
        """(1+t)(1-t) = 1 - t^2 at order 5."""
        lhs = Series.from_polynomial((1, 1), 5) * Series.from_polynomial((1, -1), 5)
        assert lhs == Series.from_polynomial((1, 0, -1), 5)

    def test_base_annihilates_fibonacci_series(self):
        """(1 - t - t^2) * sum F_k t^k = 1 through the order."""
        order = len(FIB) - 1
        base = Series.from_polynomial((1, -1, -1), order)
        assert base * Series(FIB) == Series.one(order)

    def test_result_order_is_minimum_of_inputs(self):
        a = Series.one(9)
        b = Series.one(5)
        assert (a * b).order == 5
        assert (a + b).order == 5
        assert (a - b).order == 5

    def test_mul_matches_list_convolution_oracle(self):
        """Random dense factors over Q, then a zero series, a constant, a
        polynomial and a dense series over both rings, in both operand orders:
        each product is the convolution of the factors through their last
        nonzero terms, padded with the ring's zero."""
        rng = random.Random(5)
        for _ in range(20):
            a = rand_series(rng, 6)
            b = rand_series(rng, 6)
            expected = list_mul(list(a.coefficients), list(b.coefficients), 6)
            assert list((a * b).coefficients) == expected
        order = 6
        rings = (("Q", Fraction(1), Fraction(0)), ("Q[x]", Poly((1, 1)), Poly.zero()))
        for ring, unit, zero in rings:
            shapes = [
                [zero] * (order + 1),
                [unit * 3] + [zero] * order,
                [unit * (k - 1) if k <= 3 else zero for k in range(order + 1)],
                [unit * (k + 2) for k in range(order + 1)],
            ]
            for a_list in shapes:
                for b_list in shapes:
                    a_low, b_low = through_degree(a_list), through_degree(b_list)
                    top = min(order, len(a_low) + len(b_low) - 2) if a_low and b_low else -1
                    want = list_mul(a_low, b_low, top) + [zero] * (order - top)
                    assert_is(Series(a_list) * Series(b_list), want, ring)


class TestInverse:
    def test_geometric_series_from_long_division(self):
        """1/(1-t) at order 4 must match the long-division quotient."""
        expected = long_division_inverse([Fraction(1), Fraction(-1)], 4)
        assert expected == [1, 1, 1, 1, 1]
        got = Series.from_polynomial((1, -1), 4).inverse()
        assert list(got.coefficients) == expected

    def test_fibonacci_generating_function(self):
        """1/(1 - t - t^2) begins 1, 1, 2, 3, 5, 8, 13."""
        got = Series.from_polynomial((1, -1, -1), 6).inverse()
        assert list(got.coefficients) == [1, 1, 2, 3, 5, 8, 13]

    def test_inverse_of_one(self):
        assert Series.one(5).inverse() == Series.one(5)

    def test_inverse_round_trip_random(self):
        """a * inverse(a) = 1 through order <= 30 for unit constant term."""
        rng = random.Random(9)
        for order in (1, 5, 17, 30):
            a = rand_series(rng, order, constant=1)
            assert a * a.inverse() == Series.one(order)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(NonInvertibleConstantTerm):
            Series.from_polynomial((0, 1), 4).inverse()

    def test_divisor_with_constant_term_one_scales_nothing(self, monkeypatch):
        """A divisor with b_0 = 1 scales nothing that one with b_0 = 2 does not:
        over Q[x] one recurrence scales the 6 dividend coefficients and the
        divisor's 2 nonzero later ones by 1/b_0, and nothing more; both
        quotients are the long-division ones."""
        dividend = Series([Poly((k, 1)) for k in range(6)])  # x + k at t^k
        scaled, mul = [], Poly.__mul__
        for lead in (1, 2):
            divisor = Series.from_polynomial((lead, -1, -1), 5).lift()
            expected = long_division(list(dividend.coefficients), list(divisor.coefficients))
            calls = []
            monkeypatch.setattr(Poly, "__mul__", lambda p, q: calls.append(q) or mul(p, q))
            quotient = dividend / divisor
            monkeypatch.setattr(Poly, "__mul__", mul)
            assert list(quotient.coefficients) == expected
            assert all(q == Fraction(1, lead) for q in calls)
            scaled.append(len(calls))
        assert scaled == [8, 8]


class TestPow:
    def test_square_of_fibonacci_series_by_convolution_oracle(self):
        """(1-t-t^2)^(-2) at order 4: the self-convolution sum F_l F_{n-l}."""
        expected = [sum(FIB[l] * FIB[n - l] for l in range(n + 1)) for n in range(5)]
        assert expected == [1, 2, 5, 10, 20]
        got = Series.from_polynomial((1, -1, -1), 4) ** -2
        assert list(got.coefficients) == expected

    def test_power_zero_and_one(self):
        rng = random.Random(13)
        a = rand_series(rng, 6, constant=2)
        assert a**0 == Series.one(6)
        assert a**1 == a

    def test_exponent_addition_law(self):
        """a^(m+n) = a^m * a^n for m, n in [-5, 5]."""
        rng = random.Random(17)
        for constant in (1, 2, -3):
            a = rand_series(rng, 8, constant=constant)
            for m in range(-5, 6):
                for n in range(-5, 6):
                    assert a ** (m + n) == (a**m) * (a**n)

    def test_negative_power_needs_invertible_constant(self):
        with pytest.raises(NonInvertibleConstantTerm):
            Series.from_polynomial((0, 1), 4) ** -1

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(TypeError):
            Series.one(4) ** Fraction(1, 2)


class TestLogExp:
    def test_log_of_base_by_substitution_oracle(self):
        """-log(1 - t - t^2) = sum_m (t + t^2)^m / m, expanded by hand."""
        order = 3
        expected = [Fraction(0)] * (order + 1)
        u = [Fraction(0), Fraction(1), Fraction(1)]  # t + t^2
        power = [Fraction(1)]
        for m in range(1, order + 1):
            power = list_mul(power, u, order)
            for k, c in enumerate(power):
                expected[k] += c / m
        assert expected == [0, 1, Fraction(3, 2), Fraction(4, 3)]
        got = -(Series.from_polynomial((1, -1, -1), order).log())
        assert list(got.coefficients) == expected

    def test_log_of_one_is_zero(self):
        assert Series.one(6).log() == Series.zero(6)

    def test_log_of_geometric_series_by_integration_oracle(self):
        """log(1/(1-t)) = integral of 1/(1-t): coefficients 1/m."""
        ones = [Fraction(1)] * 3  # 1/(1-t) through order 2
        expected = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(ones)]
        assert expected == [0, 1, Fraction(1, 2), Fraction(1, 3)]
        got = Series.from_polynomial((1, -1), 3).inverse().log()
        assert list(got.coefficients) == expected

    def test_exp_of_t_by_direct_recurrence_oracle(self):
        """exp(t) coefficients from e_{n+1} = e_n / (n+1)."""
        expected = [Fraction(1)]
        for n in range(4):
            expected.append(expected[-1] / (n + 1))
        assert expected == [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]
        got = Series.from_polynomial((0, 1), 4).exp()
        assert list(got.coefficients) == expected

    def test_exp_of_zero_is_one(self):
        assert Series.zero(5).exp() == Series.one(5)

    def test_round_trip_on_base_polynomial(self):
        a = Series.from_polynomial((1, -1, -1), 10)
        assert a.log().exp() == a

    def test_round_trips_random(self):
        """exp(log(a)) = a and log(exp(b)) = b for random series."""
        rng = random.Random(23)
        for _ in range(10):
            a = rand_series(rng, 8, constant=1)
            b = rand_series(rng, 8, constant=0)
            assert a.log().exp() == a
            assert b.exp().log() == b

    def test_log_is_one_recurrence(self, monkeypatch):
        """log builds no derivative, inverse or series product, over Q or Q[x]."""
        base = Series.from_polynomial((1, -1, -1), 8)
        expected = base.log()

        def refuse(*args):
            raise AssertionError("log must not call this")

        for name in ("inverse", "derivative", "__mul__", "__rmul__"):
            monkeypatch.setattr(Series, name, refuse)
        assert base.log() == expected
        assert base.lift().log().coefficients == expected.coefficients

    def test_log_requires_unit_constant(self):
        with pytest.raises(BadConstantTerm):
            Series.from_polynomial((2, 1), 4).log()

    def test_exp_requires_zero_constant(self):
        with pytest.raises(BadConstantTerm):
            Series.one(4).exp()


class TestDerivative:
    def test_fibonacci_series_derivative_oracle(self):
        """Termwise: coefficient k of the derivative is (k+1) F_{k+1}."""
        expected = [(k + 1) * FIB[k + 1] for k in range(5)]
        assert expected == [1, 4, 9, 20, 40]
        fib_series = Series(FIB[:7])
        assert list(fib_series.derivative().coefficients)[:5] == expected

    def test_derivative_of_constant_is_zero(self):
        assert Series.one(5).derivative() == Series.zero(4)

    def test_derivative_of_t_plus_t_squared(self):
        got = Series.from_polynomial((0, 1, 1), 4).derivative()
        assert got == Series.from_polynomial((1, 2), 3)

    def test_order_drops_by_one(self):
        assert Series.one(6).derivative().order == 5

    def test_order_zero_series_has_no_derivative(self):
        with pytest.raises(ValueError):
            Series.one(0).derivative()

    def test_linearity_and_product_rule(self):
        """(a+b)' = a' + b' and (ab)' = a'b + ab', exactly through order-1."""
        rng = random.Random(29)
        for _ in range(10):
            a = rand_series(rng, 7)
            b = rand_series(rng, 7)
            assert (a + b).derivative() == a.derivative() + b.derivative()
            lhs = (a * b).derivative()
            rhs = a.derivative() * b + a * b.derivative()
            assert lhs == rhs


class TestCoefficientNormalization:
    def test_results_are_in_lowest_terms(self):
        """Re-normalization is idempotent and denominators are positive."""
        rng = random.Random(31)
        a = rand_series(rng, 10, constant=1)
        results = [a * a, a.inverse(), a.log(), a.derivative(), a**3]
        for series in results:
            for c in series.coefficients:
                assert c.denominator > 0
                assert math.gcd(c.numerator, c.denominator) == 1
                assert Fraction(c.numerator, c.denominator) == c


class TestPolyCoefficients:
    def test_lift_preserves_values(self):
        a = Series.from_polynomial((1, -1, -1), 5)
        lifted = a.lift()
        assert lifted.is_poly_ring()
        assert lifted == a  # comparison lifts the rational side

    def test_inverse_over_poly_ring(self):
        a = Series.from_polynomial((1, -1, -1), 6).lift()
        assert a * a.inverse() == Series.one(6)

    def test_non_constant_poly_constant_term_not_invertible(self):
        s = Series([Poly.x(), Poly.one()])
        with pytest.raises(NonInvertibleConstantTerm):
            s.inverse()

    def test_exp_with_linear_polynomial_multiplier(self):
        """exp(x * t) has coefficients x^n / n!."""
        t_times_x = Series.from_polynomial((0, 1), 4).lift() * Poly.x()
        got = t_times_x.exp()
        for n, c in enumerate(got.coefficients):
            expected = Poly([0] * n + [Fraction(1, math.factorial(n))])
            assert c == expected

    def test_scalar_poly_multiplication_lifts(self):
        a = Series.from_polynomial((1, 2), 3)
        scaled = a * Poly.x()
        assert scaled.is_poly_ring()
        assert scaled.coefficient(0) == Poly.x()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mixed_ring_arithmetic_lifts(self, data):
        """A series over Q meets one over Q[x], or a Poly scalar, as its lift
        would, in either operand order, and the result is over Q[x]."""
        rational = Series.from_polynomial((1, 1), 4)
        assert (rational + rational.lift()).is_poly_ring()
        assert rational + rational.lift() == rational * 2

        rational, poly, scalar = data.draw(series("Q")), data.draw(series("Q[x]")), data.draw(POLYS)
        lifted = rational.lift()
        for got, want in (
            (rational + poly, lifted + poly),
            (poly + rational, poly + lifted),
            (rational * poly, lifted * poly),
            (poly * rational, poly * lifted),
            (rational * scalar, lifted * scalar),
            (scalar * rational, scalar * lifted),
        ):
            assert got.is_poly_ring()
            assert got.coefficients == want.coefficients
        assert (rational == poly) == (lifted == poly) == (poly == rational)
        assert rational == lifted and lifted == rational


ORDER = 5
RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=6)
POLYS = st.lists(RATIONALS, max_size=3).map(Poly)
RING_ELEMENTS = {"Q": RATIONALS, "Q[x]": POLYS}


@st.composite
def series(draw, ring: str, constant=None) -> Series:
    """A random order-ORDER series over ``ring``, optionally with a fixed t^0 term."""
    coeffs = draw(st.lists(RING_ELEMENTS[ring], min_size=ORDER + 1, max_size=ORDER + 1))
    if constant is not None:
        coeffs[0] = draw(constant)
    return Series(coeffs)


@pytest.mark.parametrize("ring", ["Q", "Q[x]"])
class TestRandomizedRingLaws:
    """Ring laws of the series ring over Q and over Q[x], on random series."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_associative_and_distributive(self, ring, data):
        a, b, c = (data.draw(series(ring)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        for scalar in (data.draw(st.integers(-9, 9)), data.draw(RATIONALS), data.draw(POLYS)):
            assert scalar * a == a * scalar

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_inverse_and_log_exp_round_trip(self, ring, data):
        s = data.draw(series(ring, constant=RATIONALS.filter(bool)))
        assert s * s.inverse() == Series.one(ORDER)
        unit = data.draw(series(ring, constant=st.just(1)))
        assert unit.log().exp() == unit

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_log_and_exp_continue_a_known_prefix(self, ring, data):
        """log and exp given the log or exp of a series that agrees with this
        one through some t^k, shorter or longer than this one, read as a
        build from t^0."""
        unit = data.draw(series(ring, constant=st.just(1)))
        nil = data.draw(series(ring, constant=st.just(0)))
        k = data.draw(st.integers(0, ORDER))
        for a, fn in ((unit, Series.log), (nil, Series.exp)):
            assert fn(a, fn(a.truncate(k))) == fn(a)
            assert fn(a.truncate(k), fn(a)) == fn(a.truncate(k))


def naive_mul(a: list[Poly], b: list[Poly]) -> list[Poly]:
    """Cauchy product over Q[x], each term added with plain Poly operations."""
    out = []
    for n in range(len(a)):
        acc = Poly.zero()
        for k in range(n + 1):
            acc = acc + a[k] * b[n - k]
        out.append(acc)
    return out


def naive_inverse(a: list[Poly]) -> list[Poly]:
    """b_0 = 1/a_0 and a_0 b_n = -sum_{k>=1} a_k b_{n-k}, term by term."""
    c0_inv = Poly.constant(1 / a[0].constant_value())
    out = [c0_inv]
    for n in range(1, len(a)):
        acc = Poly.zero()
        for k in range(1, n + 1):
            acc = acc + a[k] * out[n - k]
        out.append(-(c0_inv * acc))
    return out


def naive_exp(a: list[Poly]) -> list[Poly]:
    """n e_n = sum_{k=1..n} k a_k e_{n-k}, term by term."""
    out = [Poly.one()]
    for n in range(1, len(a)):
        acc = Poly.zero()
        for k in range(1, n + 1):
            acc = acc + (a[k] * k) * out[n - k]
        out.append(acc / n)
    return out


def naive_log(a: list[Poly]) -> list[Poly]:
    """Termwise integral of a'/a: the derivative times the inverse, then / n."""
    derivative = [a[k] * k for k in range(1, len(a))]
    ratio = naive_mul(derivative, naive_inverse(a[:-1]))
    return [Poly.zero(), *(c / n for n, c in enumerate(ratio, start=1))]


class TestPolyRingAgainstTermByTerm:
    """Series over Q[x], whose coefficients are each one fused sum of
    products, against the same recurrences run on plain Poly operations,
    and log against the integral of a'/a."""

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_mul_inverse_exp(self, data):
        a, b = (data.draw(series("Q[x]")) for _ in range(2))
        unit = data.draw(series("Q[x]", constant=RATIONALS.filter(bool)))
        nil = data.draw(series("Q[x]", constant=st.just(0)))
        one = data.draw(series("Q[x]", constant=st.just(1)))
        for got, want in (
            (a * b, naive_mul(list(a.coefficients), list(b.coefficients))),
            (unit.inverse(), naive_inverse(list(unit.coefficients))),
            (nil.exp(), naive_exp(list(nil.coefficients))),
            (one.log(), naive_log(list(one.coefficients))),
        ):
            assert list(got.coefficients) == want
            assert [hash(c) for c in got.coefficients] == [hash(c) for c in want]


@st.composite
def sparse_series(draw, ring: str) -> Series:
    """A series over ``ring`` of order 0 .. 7 whose coefficients are often zero."""
    zero = Fraction(0) if ring == "Q" else Poly.zero()
    element = st.one_of(st.just(zero), st.just(zero), RING_ELEMENTS[ring])
    return Series(draw(st.lists(element, min_size=1, max_size=8)))


@pytest.mark.parametrize("ring", ["Q", "Q[x]"])
class TestDivision:
    """a / b is the q with q * b == a through the lower order."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_quotient_times_divisor_is_dividend(self, ring, data):
        a = data.draw(series(ring))
        b = data.draw(series(ring, constant=RATIONALS.filter(bool)))
        assert (a / b) * b == a

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_long_division(self, ring, data):
        a = data.draw(sparse_series(ring))
        b = data.draw(series(ring, constant=RATIONALS.filter(bool)))
        quotient = a / b
        order = quotient.order
        assert order == min(a.order, b.order)
        assert list(quotient.coefficients) == long_division(
            list(a.truncate(order).coefficients), list(b.truncate(order).coefficients)
        )

    def test_lower_order_wins_and_zero_constant_is_refused(self, ring):
        a = Series.from_polynomial((1, 2, 3), 6)
        b = Series.from_polynomial((1, -1, -1), 3)
        if ring == "Q[x]":
            a, b = a.lift(), b.lift()
        assert (a / b).order == (b / a).order == 3
        with pytest.raises(NonInvertibleConstantTerm):
            a / Series.from_polynomial((0, 1), 6)

    def test_mixed_rings_divide_over_q_x(self, ring):
        """Whichever ring ``ring`` names, the dividend is over it and the divisor over the other."""
        rational = Series.from_polynomial((2, 1, -1), 5)
        poly = Series([Poly((-3,)), Poly.x(), 3, 0, Poly((0, 0, 1)), 1])
        a, b = (rational, poly) if ring == "Q" else (poly, rational)
        got = a / b
        assert got.is_poly_ring()
        assert got.coefficients == (a.lift() / b.lift()).coefficients


@pytest.mark.parametrize("ring", ["Q", "Q[x]"])
class TestSquare:
    """A series times itself takes the symmetric path; the general product
    of two distinct but equal series is its oracle."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_square_equals_the_general_product(self, ring, data):
        a = data.draw(sparse_series(ring))
        twin = Series(a.coefficients)
        assert twin is not a
        assert list((a * a).coefficients) == list((a * twin).coefficients)

    def test_orders_zero_and_one(self, ring):
        for coeffs in ([3], [0], [2, -5], [0, 4]):
            a = Series(coeffs if ring == "Q" else [Poly((c, 1)) for c in coeffs])
            assert (a * a).coefficients == (a * Series(a.coefficients)).coefficients

    def test_powers_square_through_the_product(self, ring):
        a = Series.from_polynomial((1, 1, 0, -2), 9)
        if ring == "Q[x]":
            a = a * Poly((1, 1))
        twin = Series(a.coefficients)  # each product below is a general one
        assert a**5 == twin * a * a * a * a


def plain_product(a: list, b: list, order: int) -> list:
    """Cauchy product of coefficient lists through t^order: every term
    a_k b_{n-k}, zero or not, formed and added with the ring's own +."""
    zero = a[0] - a[0]
    return [sum((a[k] * b[n - k] for k in range(n + 1)), zero) for n in range(order + 1)]


def plain_power(a: list, exponent: int) -> list:
    """a**exponent through a's order by exponent plain products."""
    one = Poly.one() if isinstance(a[0], Poly) else Fraction(1)
    out = [one] + [a[0] - a[0]] * (len(a) - 1)
    for _ in range(exponent):
        out = plain_product(out, a, len(a) - 1)
    return out


@st.composite
def shaped_series(draw, ring: str, order: int) -> Series:
    """A series over ``ring`` through t^order: the zero series, a polynomial
    whose degree is anything up to the order, a sparse series or a dense one."""
    zero = Fraction(0) if ring == "Q" else Poly.zero()
    element, nonzero = RING_ELEMENTS[ring], RING_ELEMENTS[ring].filter(bool)
    shape = draw(st.sampled_from(("zero", "polynomial", "sparse", "dense")))
    if shape == "zero":
        return Series([zero] * (order + 1))
    if shape == "polynomial":
        degree = draw(st.integers(0, order))
        low = draw(st.lists(element, min_size=degree, max_size=degree))
        return Series([*low, draw(nonzero), *[zero] * (order - degree)])
    if shape == "sparse":
        element = st.one_of(st.just(zero), element)
    else:
        element = nonzero
    return Series(draw(st.lists(element, min_size=order + 1, max_size=order + 1)))


def assert_is(got: Series, want: list, ring: str) -> None:
    """``got`` holds exactly the coefficients ``want``, each in ``ring``."""
    assert list(got.coefficients) == want
    assert all(isinstance(c, Fraction if ring == "Q" else Poly) for c in got.coefficients)


@pytest.mark.parametrize("ring", ["Q", "Q[x]"])
class TestDegreeBoundedProducts:
    """Products and squares sum only through t^(deg a + deg b) and fill the
    rest with the ring's zero; plain lists, which form every term, are the
    oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_products_squares_and_powers_match_plain_lists(self, ring, data):
        a = data.draw(shaped_series(ring, data.draw(st.integers(0, 9))))
        b = data.draw(shaped_series(ring, data.draw(st.integers(0, 9))))
        exponent = data.draw(st.integers(0, 6))
        a_list, b_list = list(a.coefficients), list(b.coefficients)
        order = min(a.order, b.order)
        assert_is(a * b, plain_product(a_list, b_list, order), ring)
        assert_is(b * a, plain_product(b_list, a_list, order), ring)
        assert_is(a * a, plain_product(a_list, a_list, a.order), ring)
        assert_is(a**exponent, plain_power(a_list, exponent), ring)

    @pytest.mark.parametrize(
        "order, shapes",
        [
            (0, ("zero", "zero")),
            (0, ("dense", "dense")),
            (6, ("zero", "zero")),
            (6, ("zero", "dense")),
            (6, ("dense", "polynomial")),
            (6, ("polynomial", "polynomial")),
            (6, ("sparse", "polynomial")),
        ],
    )
    def test_named_cases(self, ring, order, shapes):
        """The zero series, order 0, and a dense series times a polynomial,
        with polynomial degrees 0 .. order, so the degree sum runs from below
        to past the order and a degree equals the order."""
        zero = Fraction(0) if ring == "Q" else Poly.zero()
        unit = Fraction(1) if ring == "Q" else Poly((1, 1))
        fixed = {
            "zero": [[zero] * (order + 1)],
            "dense": [[unit * (k + 2) for k in range(order + 1)]],
            "sparse": [[unit if k % 3 == 1 else zero for k in range(order + 1)]],
            "polynomial": [
                [unit * (k - 3) if k <= degree and k != 3 else zero for k in range(order + 1)]
                for degree in range(order + 1)
            ],
        }
        for a_list in fixed[shapes[0]]:
            for b_list in fixed[shapes[1]]:
                a, b = Series(a_list), Series(b_list)
                assert_is(a * b, plain_product(a_list, b_list, order), ring)
                assert_is(b * a, plain_product(b_list, a_list, order), ring)
                assert_is(a * a, plain_product(a_list, a_list, order), ring)
                assert_is(b**3, plain_power(b_list, 3), ring)

    def test_two_polynomials_take_one_sum_per_coefficient_to_the_degree_sum(self, ring, monkeypatch):
        """At order 30, a degree-2 times a degree-3 polynomial runs Series._dot
        2 + 3 + 1 = 6 times, a degree-3 square 7 times and the zero series
        square none; a dense factor still takes one sum per coefficient."""
        calls = []
        dot = Series._dot

        def counted(self, *args):
            calls.append(args[2])
            return dot(self, *args)

        monkeypatch.setattr(Series, "_dot", counted)
        a = Series.from_polynomial((1, 2, 3), 30)
        b = Series.from_polynomial((1, -1, 0, 5), 30)
        dense, zero = Series.from_polynomial([1] * 31, 30), Series.zero(30)
        if ring == "Q[x]":
            a, b, dense, zero = a * Poly((1, 1)), b.lift(), dense.lift(), zero.lift()
        for product, indices in (
            (lambda: a * b, range(6)),
            (lambda: b * a, range(6)),
            (lambda: b * b, range(7)),
            (lambda: zero * zero, []),
            (lambda: a * dense, range(31)),
        ):
            calls.clear()
            got = product()
            assert calls == list(indices)
            assert got.order == 30 and got.is_poly_ring() == (ring == "Q[x]")


class TestConstruction:
    def test_series_needs_a_constant_term(self):
        with pytest.raises(ValueError):
            Series([])

    def test_from_polynomial_pads_and_truncates(self):
        assert Series.from_polynomial((1, 2), 4).coefficients == (1, 2, 0, 0, 0)
        assert Series.from_polynomial((1, 2, 3, 4), 1).coefficients == (1, 2)

    def test_truncate(self):
        a = Series.from_polynomial((1, 2, 3), 5)
        assert a.truncate(2) == Series((1, 2, 3))
        with pytest.raises(ValueError):
            a.truncate(9)

    def test_coefficient_access(self):
        a = Series((5, 6, 7))
        assert a[1] == 6
        with pytest.raises(IndexError):
            a.coefficient(3)
