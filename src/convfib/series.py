"""Truncated formal power series in t over an exact coefficient ring.

A series stores exactly ``order + 1`` coefficients: it is known exactly
through t**order and unknown beyond.  Coefficients are either Fraction
(series over Q) or :class:`~convfib.poly.Poly` (series over Q[x]).
Mixed operands meet through their coefficients: a Fraction and a Poly
combine through Poly's operators, and the constructor lifts any list
that holds a Poly.  A mixed product lifts both factors first, only so
that it runs on the integer kernel of Q[x].  Every binary operation
returns a series whose order is the minimum of the operand orders.
Equality demands the same order and identical coefficients; compare
through a common prefix by truncating first.

Products, quotients, logarithms and exponentials build each coefficient
as one convolution sum, :meth:`Series._dot`, over the support of a factor
(its nonzero terms), which each operation reads once from one list.  Over
Q[x] that sum is a single :func:`~convfib.poly.sum_of_products` on integer
numerators, reduced once per coefficient; over Q the Fraction terms are
added one by one.  A product sums over the shorter support and only
through t^(deg a + deg b), each degree the last index of its support, so a
polynomial's power costs its degree, not the order.  A series times itself
forms each product c_k c_{n-k} once and doubles the sum.

``/``, ``log`` and ``exp`` are recurrences run by :meth:`Series._recur`:
a / b is one recurrence for every b_0, on a and the divisor's support
scaled by 1/b_0 once, ``inverse`` is 1 / self, ``log`` solves a*L' = a'
for E_n = n*L_n, then divides by n, and ``exp`` solves E' = a'E, from t^0
or onward from a known prefix.  Only scalar divisions occur, by b_0 or by
the index, so all of them stay inside the coefficient ring.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Sequence, Union

from convfib.poly import Poly, sum_of_products
from convfib.report import UsageError, at_least

Coeff = Union[Fraction, Poly]
CoeffLike = Union[int, Fraction, Poly]
_Q_ZERO = Fraction(0)  # shared: a new Fraction(0) per coefficient adds ~4% at order 15


class NonInvertibleConstantTerm(ValueError):
    """Constant term has no inverse in the coefficient ring."""


class BadConstantTerm(ValueError):
    """Constant term violates the precondition of log (must be 1) or exp (must be 0)."""


def _coerce(values: Iterable[CoeffLike]) -> tuple[Coeff, ...]:
    out: list[Coeff] = []
    poly = False
    for v in values:
        if isinstance(v, Poly):
            poly = True
            out.append(v)
        elif isinstance(v, int):
            out.append(Fraction(v))
        elif isinstance(v, Fraction):
            out.append(v)
        else:
            raise TypeError(f"unsupported coefficient type {type(v).__name__}")
    if poly:
        return tuple(c if isinstance(c, Poly) else Poly.constant(c) for c in out)
    return tuple(out)


class Series:
    """Immutable truncated power series in t.

    >>> geom = Series.from_polynomial([1, -1], 4).inverse()
    >>> [str(c) for c in geom.coefficients]
    ['1', '1', '1', '1', '1']
    """

    __slots__ = ("_coeffs", "_poly")

    def __init__(self, coefficients: Iterable[CoeffLike]):
        coeffs = _coerce(coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_poly", isinstance(coeffs[0], Poly))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_polynomial(cls, coefficients: Sequence[CoeffLike], order: int) -> Series:
        """Series of the given order whose low coefficients are as listed.

        Pads with zeros; coefficients beyond the order are dropped (the
        series simply does not know them).
        """
        at_least("order", order, 0)
        coeffs = list(coefficients[: order + 1])
        coeffs.extend([0] * (order + 1 - len(coeffs)))
        return cls(coeffs)

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls.from_polynomial((), order)

    @classmethod
    def one(cls, order: int) -> Series:
        return cls.from_polynomial((1,), order)

    # -- ring bookkeeping ----------------------------------------------

    @property
    def order(self) -> int:
        """Highest power of t through which the series is exact."""
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Coeff, ...]:
        return self._coeffs

    def coefficient(self, k: int) -> Coeff:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside stored order {self.order}")
        return self._coeffs[k]

    __getitem__ = coefficient

    def _zero_coeff(self) -> Coeff:
        return Poly.zero() if self._poly else Fraction(0)

    def _one_coeff(self) -> Coeff:
        return Poly.one() if self._poly else Fraction(1)

    def is_poly_ring(self) -> bool:
        return self._poly

    def lift(self) -> Series:
        """The same series with coefficients in Q[x]."""
        if self._poly:
            return self
        return Series([Poly.constant(c) for c in self._coeffs])

    def truncate(self, order: int) -> Series:
        """Forget everything beyond t**order."""
        at_least("order", order, 0)
        if order > self.order:
            raise UsageError(f"cannot extend order {self.order} series to {order}")
        return Series(self._coeffs[: order + 1])

    @staticmethod
    def _invert_coeff(c: Coeff) -> Fraction:
        """1 / c as a scalar, which multiplies a coefficient of either ring."""
        if isinstance(c, Poly):
            if not c.is_constant() or c.is_zero():
                raise NonInvertibleConstantTerm(f"constant term {c} is not an invertible scalar")
            return 1 / c.constant_value()
        if c == 0:
            raise NonInvertibleConstantTerm("constant term is zero")
        return 1 / c

    def _dot(
        self, support: list[tuple[int, Coeff]], seq: Sequence[Coeff], n: int, top: int | None = None
    ) -> Coeff:
        """Sum of c * seq[n - k] over the (k, c) of ``support``, ascending in k,
        with k <= ``top`` (default n), in this series' ring: one reduced sum of
        products over Q[x]."""
        top = n if top is None else top
        if self._poly:
            return sum_of_products([(c, seq[n - k]) for k, c in support if k <= top])
        acc = _Q_ZERO
        for k, c in support:
            if k > top:
                break
            acc = acc + c * seq[n - k]
        return acc

    def _support(self, order: int) -> list[tuple[int, Coeff]]:
        """The (k, c) with c != 0 and k <= ``order``, ascending in k."""
        return [(k, c) for k, c in enumerate(self._coeffs[: order + 1]) if c]

    def _recur(
        self,
        known: Sequence[Coeff],
        support: list[tuple[int, Coeff]],
        finish: Callable[[int, Coeff], Coeff],
    ) -> Series:
        """The series that starts with ``known`` (at least its t^0
        coefficient) and continues through this order with
        out[n] = finish(n, sum of c * out[n - k] over the (k, c) of ``support``)."""
        out = list(known[: self.order + 1])
        for n in range(len(out), self.order + 1):
            out.append(finish(n, self._dot(support, out, n)))
        return Series(out)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        return Series(map(add, self._coeffs, other._coeffs))

    def __sub__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        return self + -other

    def __neg__(self) -> Series:
        return Series([-c for c in self._coeffs])

    def __mul__(self, other: Series | CoeffLike) -> Series:
        """Scalar multiple, or Cauchy product over the shorter support through t^(deg a + deg b)."""
        if isinstance(other, (int, Fraction, Poly)):
            return Series([c * other for c in self._coeffs])
        if not isinstance(other, Series):
            return NotImplemented
        if self._poly != other._poly:  # mixed rings: multiply on the Q[x] kernel
            return self.lift() * other.lift()
        if other is self:
            return self._square()
        order = min(self.order, other.order)
        sa, sb, b = self._support(order), other._support(order), other
        if len(sb) < len(sa):  # a tie keeps the left factor's support
            sa, sb, b = sb, sa, self
        top = min(order, sa[-1][0] + sb[-1][0]) if sa and sb else -1
        out = [self._dot(sa, b._coeffs, n) for n in range(top + 1)]
        return Series(out + [self._zero_coeff()] * (order + 1 - len(out)))

    __rmul__ = __mul__

    def _square(self) -> Series:
        """self * self from half the products over its support, through t^(2 deg):
        t^n gets twice the sum of c_k c_{n-k} over k < n - k, plus c_{n/2}**2 if n is even."""
        c = self._coeffs
        support = self._support(self.order)
        top = min(self.order, 2 * support[-1][0]) if support else -1
        out = []
        for n in range(top + 1):
            half = self._dot(support, c, n, (n - 1) // 2)
            out.append(half + half + c[n // 2] * c[n // 2] if n % 2 == 0 else half + half)
        return Series(out + [self._zero_coeff()] * (len(c) - len(out)))

    def __truediv__(self, other: Series) -> Series:
        """The q with q * other == self through the lower order, by one recurrence
        for every b_0 on a and the divisor's support scaled by 1/b_0 once:
        q_n = a_n/b_0 - sum_{k>=1} (b_k/b_0) q_{n-k}.

        Raises :class:`NonInvertibleConstantTerm` when b_0 is zero or, over
        Q[x], not a nonzero constant polynomial.
        """
        if not isinstance(other, Series):
            return NotImplemented
        if self._poly != other._poly:  # mixed rings: divide over Q[x]
            return self.lift() / other.lift()
        b0_inv = self._invert_coeff(other._coeffs[0])
        a = Series([c * b0_inv for c in self._coeffs[: other.order + 1]])
        support = [(k, c * b0_inv) for k, c in other._support(a.order)[1:]]  # [0] is b_0 != 0
        return a._recur(a._coeffs[:1], support, lambda n, acc: a._coeffs[n] - acc)

    def inverse(self) -> Series:
        """Multiplicative inverse: self * self.inverse() == 1 through the order.

        Raises :class:`NonInvertibleConstantTerm` as division does.
        """
        return Series.from_polynomial((self._one_coeff(),), self.order) / self

    def __pow__(self, exponent: int) -> Series:
        """Integer power by repeated squaring; negative powers invert first."""
        if not isinstance(exponent, int):
            raise TypeError("series powers must have integer exponents")
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        else:
            base = self
        result = Series.from_polynomial((self._one_coeff(),), self.order)
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def derivative(self) -> Series:
        """Termwise d/dt; the order drops by one.

        The derivative of an order-0 series is not known through any power
        of t, so order >= 1 is required.
        """
        if self.order == 0:
            raise ValueError("derivative of an order-0 series is undetermined")
        return Series([self._coeffs[k] * k for k in range(1, self.order + 1)])

    def log(self, known: Series | None = None) -> Series:
        """Series logarithm L, the L(0) = 0 solution of a * L' = a'.

        Reading t^(n-1) of a * L' = a' with a_0 = 1 gives, for E_n = n*L_n,
        E_n = n*a_n - sum_{k=1..n-1} a_k E_{n-k}; L_n is E_n / n.
        ``known``, when given, is log(b) for a b that agrees with this one
        through t^known.order; it is kept and continued, as in :meth:`exp`.
        Requires constant term exactly 1 (:class:`BadConstantTerm` otherwise).
        """
        if self._coeffs[0] != self._one_coeff():
            raise BadConstantTerm(f"log needs constant term 1, got {self._coeffs[0]}")
        a = self._coeffs
        support = self._support(self.order)[1:]  # past a_0 = 1; k = n reads E_0 = 0
        done = [self._zero_coeff()] if known is None else known.coefficients[: self.order + 1]
        start = [c * n for n, c in enumerate(done)]  # E_n of the kept L_n
        e = self._recur(start, support, lambda n, acc: a[n] * n - acc)._coeffs
        return Series([*done, *(e[n] / n for n in range(len(done), len(e)))])

    def exp(self, known: Series | None = None) -> Series:
        """Series exponential: solves E' = a'E with E(0) = 1.

        ``known``, when given, is exp(b) for a series b that agrees with
        this one through t^known.order: its coefficients are kept and only
        the later ones computed.  That is exact, since e_n depends only on
        a_1 .. a_n and e_0 .. e_{n-1}.
        Requires constant term exactly 0 (:class:`BadConstantTerm` otherwise).
        """
        if self._coeffs[0] != self._zero_coeff():
            raise BadConstantTerm(f"exp needs constant term 0, got {self._coeffs[0]}")
        # n * e_n = sum_{k=1..n} k a_k e_{n-k}
        support = [(k, c * k) for k, c in self._support(self.order)]  # a_0 = 0 is not in it
        start = [self._one_coeff()] if known is None else known.coefficients
        return self._recur(start, support, lambda n, acc: acc / n)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self._coeffs[:8])
        if self.order >= 8:
            shown += ", ..."
        return f"Series([{shown}], order={self.order})"
