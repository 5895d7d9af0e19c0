"""Dense univariate polynomials over exact rationals.

The indeterminate is written ``x`` throughout.  A polynomial is stored as
integer numerators in the monomial basis, lowest power first, over one
positive common denominator, in canonical form: no trailing zero
numerators and gcd(denominator, *numerators) == 1.  The zero polynomial
stores no numerators over denominator 1 and reports degree -1.

Q[x] arithmetic has one integer kernel, :func:`sum_of_products`: a sum
a + b is the sum of a*1 and b*1, a product a*b a sum of one term, and
each result is reduced once.  Multiplying or dividing by a scalar scales
the numerators and the denominator once.  The Fraction coefficients are
built on demand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _ratio(value: Scalar) -> tuple[int, int]:
    """(numerator, positive denominator) of an int or Fraction."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _trimmed(nums: list[int]) -> tuple[int, ...]:
    while nums and not nums[-1]:
        nums.pop()
    return tuple(nums)


def _make(nums: tuple[int, ...], den: int) -> Poly:
    """Wrap numerators and a denominator that are already canonical."""
    p = object.__new__(Poly)
    p._nums = nums
    p._den = den
    return p


def _reduced(nums: list[int], den: int) -> Poly:
    """The canonical Poly equal to nums/den, for den > 0: one content gcd."""
    trimmed = _trimmed(nums)
    if not trimmed:
        return _make((), 1)
    if den != 1:
        g = gcd(den, *trimmed)
        if g != 1:
            trimmed = tuple(n // g for n in trimmed)
            den //= g
    return _make(trimmed, den)


def sum_of_products(pairs: Iterable[tuple[Poly, Poly]]) -> Poly:
    """The canonical Poly equal to the sum of a * b over ``pairs``.

    Every product is scaled to the lcm of the term denominators and added
    into one integer list, so the sum is reduced once, not once per term.
    """
    pairs = [(a, b) for a, b in pairs if a._nums and b._nums]
    if not pairs:
        return _make((), 1)
    den = lcm(*(a._den * b._den for a, b in pairs))
    out = [0] * max(len(a._nums) + len(b._nums) - 1 for a, b in pairs)
    for a, b in pairs:
        an, bn = a._nums, b._nums
        if len(an) > len(bn):
            an, bn = bn, an
        scale = den // (a._den * b._den)
        for i, ca in enumerate(an):
            if ca:
                ca *= scale
                for j, cb in enumerate(bn, i):
                    out[j] += ca * cb
    return _reduced(out, den)


def _scaled(p: Poly, c: Scalar) -> Poly:
    """p * c for an int or a Fraction c."""
    return _reduced([n * c.numerator for n in p._nums], p._den * c.denominator)


class Poly:
    """Immutable polynomial in x with rational coefficients.

    >>> p = Poly([0, 3, 1])     # x^2 + 3x
    >>> p.evaluate(1)
    Fraction(4, 1)
    >>> p.degree
    2
    """

    __slots__ = ("_nums", "_den")

    _nums: tuple[int, ...]
    _den: int

    def __init__(self, coefficients: Iterable[Scalar] = ()):
        pairs = [_ratio(c) for c in coefficients]
        den = lcm(*(d for _, d in pairs))
        # Over the lcm of reduced denominators the content is already 1.
        self._nums = _trimmed([n * (den // d) for n, d in pairs])
        self._den = den if self._nums else 1

    def __reduce__(self):
        return _make, (self._nums, self._den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def x(cls) -> Poly:
        return cls((0, 1))

    @classmethod
    def constant(cls, value: Scalar) -> Poly:
        return cls((value,))

    # -- structure ----------------------------------------------------

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Monomial coefficients, lowest power first, trailing zeros trimmed."""
        return tuple(Fraction(n, self._den) for n in self._nums)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x**k (zero beyond the degree)."""
        if 0 <= k < len(self._nums):
            return Fraction(self._nums[k], self._den)
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._nums

    def is_constant(self) -> bool:
        return len(self._nums) <= 1

    def constant_value(self) -> Fraction:
        """The value of a degree <= 0 polynomial."""
        if not self.is_constant():
            raise ValueError(f"{self!r} is not constant")
        return self.coefficient(0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return sum_of_products([(self, _ONE), (other, _ONE)])

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return _make(tuple(-n for n in self._nums), self._den)

    def __sub__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other: Scalar) -> Poly:
        return -self + other

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if isinstance(other, (int, Fraction)):
            return _scaled(self, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return sum_of_products([(self, other)])

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> Poly:
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return _scaled(self, 1 / Fraction(other))

    # -- comparison / display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._nums == other._nums and self._den == other._den

    def __hash__(self) -> int:
        if self.is_constant():  # equal to its int or Fraction value, so hashed alike
            return hash(self.coefficient(0))
        return hash((self._nums, self._den))

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coefficients]})"

    def __str__(self) -> str:
        coeffs = self.coefficients
        if not coeffs:
            return "0"
        parts = []
        for k in range(len(coeffs) - 1, -1, -1):
            c = coeffs[k]
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            power = "x" if k == 1 else f"x^{k}"
            if c == 1:
                parts.append(power)
            elif c == -1:
                parts.append(f"-{power}")
            else:
                parts.append(f"{c}*{power}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- evaluation -----------------------------------------------------

    def evaluate(self, point: Scalar) -> Fraction:
        """Evaluate at a rational point p/q.

        Horner's scheme on the integer numerators gives
        sum_k n_k p**k q**(degree - k); one Fraction divides it by
        den * q**degree at the end.
        """
        p, q = _ratio(point)
        if not self._nums:
            return Fraction(0)
        acc = 0
        scale = 1  # q ** (degree - k) for the numerator n_k in hand
        for n in reversed(self._nums):
            acc = acc * p + n * scale
            scale *= q
        return Fraction(acc, self._den * q ** self.degree)

    __call__ = evaluate


_ONE = _make((1,), 1)
