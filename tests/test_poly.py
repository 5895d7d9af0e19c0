"""Exact polynomial arithmetic in the monomial basis."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convfib.poly import Poly, sum_of_products

# Small rationals, zero and negative ones included, with a few wide integers
# so that numerators and common denominators grow past one machine word.
RATIONALS = st.one_of(
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
    st.integers(-(2**80), 2**80).map(Fraction),
)
COEFFS = st.lists(RATIONALS, max_size=7)


def ref_trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def ref_add(a: list[Fraction], b: list[Fraction]) -> tuple[Fraction, ...]:
    width = max(len(a), len(b))
    padded = [list(c) + [Fraction(0)] * (width - len(c)) for c in (a, b)]
    return ref_trim([x + y for x, y in zip(*padded)])


def ref_mul(a: list[Fraction], b: list[Fraction]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ref_trim(out)


def assert_canonical(p: Poly) -> None:
    """Integer numerators, no trailing zero, positive denominator, content 1."""
    nums, den = p._nums, p._den
    assert all(type(n) is int for n in nums)
    assert den >= 1
    assert not nums or nums[-1] != 0
    assert gcd(den, *nums) == 1


class TestConstruction:
    def test_zero_polynomial_has_degree_minus_one(self):
        assert Poly.zero().degree == -1
        assert Poly.zero().coefficients == ()
        assert Poly.zero().is_zero()

    def test_trailing_zeros_are_trimmed(self):
        assert Poly([1, 2, 0, 0]).degree == 1
        assert Poly([0, 0, 0]).degree == -1

    def test_constant_and_x(self):
        assert Poly.constant(5).degree == 0
        assert Poly.x().degree == 1
        assert Poly.constant(0) == Poly.zero()

    def test_coefficient_beyond_degree_is_zero(self):
        assert Poly([1, 2]).coefficient(7) == 0


class TestArithmetic:
    def test_x_times_x_plus_one(self):
        """x * (x+1) = x^2 + x."""
        assert Poly.x() * Poly([1, 1]) == Poly([0, 1, 1])

    def test_add_sub_neg(self):
        p = Poly([1, 2, 3])
        q = Poly([4, -2, -3])
        assert p + q == Poly([5])
        assert p - p == Poly.zero()
        assert -p == Poly([-1, -2, -3])

    def test_scalar_operations(self):
        p = Poly([1, 2])
        assert 3 * p == Poly([3, 6])
        assert p * Fraction(1, 2) == Poly([Fraction(1, 2), 1])
        assert p / 2 == Poly([Fraction(1, 2), 1])

    def test_division_by_zero_scalar(self):
        with pytest.raises(ZeroDivisionError):
            Poly([1]) / 0

    def test_multiplication_by_zero(self):
        assert Poly([1, 2, 3]) * Poly.zero() == Poly.zero()
        assert Poly([1, 2, 3]) * 0 == Poly.zero()

    def test_ring_axioms_on_random_polynomials(self):
        """Commutativity, associativity and distributivity, exactly."""
        rng = random.Random(7)

        def rand_poly():
            return Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))])

        for _ in range(50):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestRandomizedAgainstFractionLists:
    """Poly on integer numerators against plain list[Fraction] arithmetic."""

    @settings(max_examples=60, deadline=None)
    @given(a=COEFFS, b=COEFFS)
    def test_add_sub_mul(self, a, b):
        p, q = Poly(a), Poly(b)
        neg_b = [-c for c in b]
        for result, expected in (
            (p + q, ref_add(a, b)),
            (p - q, ref_add(a, neg_b)),
            (-q, ref_trim(neg_b)),
            (p * q, ref_mul(a, b)),
        ):
            assert result.coefficients == expected
            assert_canonical(result)

    @settings(max_examples=60, deadline=None)
    @given(a=COEFFS, s=RATIONALS)
    def test_scalar_mul_div_and_evaluate(self, a, s):
        p = Poly(a)
        scaled = ref_trim([c * s for c in a])
        assert (p * s).coefficients == (s * p).coefficients == scaled
        assert (p + s).coefficients == ref_add(a, [s])
        assert (s - p).coefficients == ref_add([s], [-c for c in a])
        if s:
            assert (p / s).coefficients == ref_trim([c / s for c in a])
            assert_canonical(p / s)
        assert p.evaluate(s) == p(s) == sum((c * s**k for k, c in enumerate(a)), Fraction(0))

    @settings(max_examples=40, deadline=None)
    @given(a=COEFFS, b=COEFFS, c=COEFFS, s=RATIONALS.filter(bool))
    def test_equal_polynomials_have_one_form(self, a, b, c, s):
        """Equal values reached by different routes compare, hash and print alike."""
        pa, pb, pc = Poly(a), Poly(b), Poly(c)
        for left, right in (
            ((pa + pb) * pc, pa * pc + pb * pc),
            ((pa * s) / s, pa),
            (pa - pa, Poly.zero()),
        ):
            assert_canonical(left)
            assert left == right
            assert hash(left) == hash(right)
            assert left.coefficients == right.coefficients
            assert str(left) == str(right)

    @settings(max_examples=40, deadline=None)
    @given(s=RATIONALS)
    @example(s=Fraction(0))
    def test_constants_hash_as_their_value(self, s):
        """A constant Poly, zero included, equals its int or Fraction value and hashes alike."""
        values = (s, s.numerator) if s.denominator == 1 else (s,)
        for value in values:
            p = Poly.constant(value)
            assert p == value
            assert hash(p) == hash(value)
            assert len({p, value}) == 1

    def test_reduced_fraction_inputs_are_one_polynomial(self):
        assert Poly([Fraction(2, 4)]) == Poly([Fraction(1, 2)])
        assert hash(Poly([Fraction(2, 4), 3])) == hash(Poly([Fraction(1, 2), 3]))
        assert Poly([Fraction(1, 2), Fraction(1, 2)]) * 2 == Poly([1, 1])
        assert Poly([Fraction(1, 3), Fraction(2, 3)]) + Poly([Fraction(2, 3), Fraction(1, 3)]) == Poly([1, 1])

    @settings(max_examples=30, deadline=None)
    @given(a=COEFFS)
    def test_pickle_round_trip(self, a):
        p = Poly(a)
        for _ in range(2):  # before and after the Fraction coefficients are cached
            clone = pickle.loads(pickle.dumps(p))
            assert clone == p
            assert hash(clone) == hash(p)
            assert clone.coefficients == p.coefficients
            assert_canonical(clone)


def term_by_term(pairs: list[tuple[Poly, Poly]]) -> Poly:
    """The sum of a * b on the Fraction-list references, one term at a time."""
    acc: tuple[Fraction, ...] = ()
    for a, b in pairs:
        acc = ref_add(acc, ref_mul(a.coefficients, b.coefficients))
    return Poly(acc)


PAIRS = st.lists(st.tuples(COEFFS.map(Poly), COEFFS.map(Poly)), max_size=5)


class TestSumOfProducts:
    """The fused kernel against term-by-term accumulation on Fraction lists.

    The coefficient lists hold zero and constant polynomials, negative and
    wide coefficients, and denominators up to 12, so the terms' denominators
    differ.
    """

    @staticmethod
    def assert_same(fused: Poly, naive: Poly) -> None:
        assert_canonical(fused)
        assert fused == naive
        assert hash(fused) == hash(naive)
        assert fused.coefficients == naive.coefficients
        assert str(fused) == str(naive)

    @settings(max_examples=30, deadline=None)
    @given(pairs=PAIRS)
    def test_matches_term_by_term(self, pairs):
        self.assert_same(sum_of_products(pairs), term_by_term(pairs))

    @settings(max_examples=20, deadline=None)
    @given(pairs=PAIRS, a=COEFFS.map(Poly), b=COEFFS.map(Poly), c=COEFFS.map(Poly))
    def test_cancelling_sums(self, pairs, a, b, c):
        """Sums that cancel to zero, and sums whose leading terms cancel."""
        opposite = [(-p, q) for p, q in pairs]
        self.assert_same(sum_of_products(pairs + opposite), Poly.zero())
        self.assert_same(sum_of_products([(a, b + c), (-a, b)]), term_by_term([(a, c)]))

    def test_empty_and_zero_terms(self):
        assert sum_of_products([]) == Poly.zero()
        assert sum_of_products([(Poly.zero(), Poly.x()), (Poly([3]), Poly.zero())]) == Poly.zero()
        assert sum_of_products([(Poly([Fraction(1, 2)]), Poly([Fraction(2, 3)]))]) == Poly([Fraction(1, 3)])
        half_x = Poly([0, Fraction(1, 2)])
        assert sum_of_products([(half_x, Poly([2])), (Poly([1]), Poly([0, Fraction(-1, 3)]))]) == Poly(
            [0, Fraction(2, 3)]
        )


class TestEvaluation:
    def test_known_value(self):
        """eval(x^2 + 3x, 1) = 4, the n = 2 instance of p_n(1) = n! F_n."""
        assert Poly([0, 3, 1]).evaluate(1) == 4

    def test_zero_polynomial_evaluates_to_zero(self):
        assert Poly.zero().evaluate(Fraction(22, 7)) == 0

    def test_horner_matches_power_sum_oracle(self):
        """The Horner scheme agrees with the literal sum of c_k v^k."""
        rng = random.Random(11)
        for _ in range(40):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 8))]
            p = Poly(coeffs)
            v = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            expected = sum((c * v**k for k, c in enumerate(coeffs)), Fraction(0))
            assert p.evaluate(v) == expected

    def test_call_alias(self):
        assert Poly([0, 1])(Fraction(3, 2)) == Fraction(3, 2)


class TestDisplay:
    def test_str_forms(self):
        assert str(Poly.zero()) == "0"
        assert str(Poly([0, 3, 1])) == "x^2 + 3*x"
        assert str(Poly([-1, 0, 1])) == "x^2 - 1"
