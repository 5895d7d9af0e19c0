"""The identity verifiers: passing grids, trivial reductions, and the
sensitivity of every triangle-consuming check to a single wrong entry."""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import nullcontext
from fractions import Fraction
from math import comb, factorial
from operator import add, mul
from typing import Optional
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convfib
from convfib import bench, convolved, identities, poly, series
from convfib.convolved import (
    CoeffTriangle,
    base_series,
    conv_fib,
    conv_fib_poly,
    conv_fib_poly_genfun,
    conv_fib_poly_oracle,
    conv_fib_row,
    conv_fib_row_by_recurrence,
    rising_factorial_poly,
)
from convfib.convolved import _nested_sum as _cor2_nested
from convfib.fibonacci import fib
from convfib.identities import (
    IDENTITY_NAMES,
    _binomial_weights,
    run_identity,
    verify_cor2,
    verify_cor4,
    verify_cor8,
    verify_cor9,
    verify_holo,
    verify_prop1,
    verify_thm3,
    verify_thm5,
    verify_thm6,
    verify_thm7,
    verifier,
)
from convfib.poly import Poly
from convfib.report import CrossCheckFailure, UsageError, at_least
from convfib.series import Series
from test_convolved import cold_genfun, count_exp
from test_golden_reports import perturbed_exp


def series_form_thm6():
    """The Series-form reference for thm6, a verifier of the identity thm6."""

    @verifier
    def verify_thm6(n_max: int = 10, order: int = 30, triangle: Optional[CoeffTriangle] = None):
        """thm6 on Series over Q[x]: the N-th t-derivative of the kept F against
        the bracket, built from series powers over Q, times F / (1-t-t^2)^N.
        identities.verify_thm6 must give the same reports."""
        at_least("order", order, n_max)
        if triangle is None:
            triangle = CoeffTriangle.from_recurrence(n_max)
        gen = conv_fib_poly_genfun(order)
        base = base_series(order).lift()
        rising = [[int(c) for c in rising_factorial_poly(k).coefficients] for k in range(n_max + 1)]
        two_t = Series.from_polynomial((1, 2), order)
        lhs = quotient = gen
        for n in range(n_max + 1):
            m = order - n
            if n:
                lhs = lhs.derivative()
                quotient = quotient.truncate(m) / base
            bracket = [[0] * (n + 1) for _ in range(m + 1)]  # t^j -> coefficients in x
            for i, a in enumerate(triangle.row(n)):
                if a:
                    power = two_t.inverse() if n - 2 * i < 0 else two_t ** (n - 2 * i)
                    powers = [int(c) for c in (power * base_series(order) ** i).coefficients]
                    for row, c in zip(bracket, powers):
                        row[: n - i + 1] = map(add, row, [a * c * r for r in rising[n - i]])
            rhs = Series([Poly(row) for row in bracket]) * quotient
            k = next((k for k in range(m + 1) if lhs.coefficient(k) != rhs.coefficient(k)), 0)
            yield {"N": n, "t_power": k}, lhs.coefficient(k), rhs.coefficient(k)

    return verify_thm6


thm6_reference = series_form_thm6()


class TestGridsPass:
    """Every verifier on a reduced grid (the full grids run in the
    acceptance suite)."""

    def test_prop1(self):
        report = verify_prop1(15, range(-3, 6))
        assert report.passed
        assert report.cells == 16 * 9

    def test_cor2(self):
        assert verify_cor2(12, 4).passed

    def test_thm3(self):
        assert verify_thm3(12, 4, range(-2, 5)).passed

    def test_cor4(self):
        assert verify_cor4(20, 4).passed

    def test_thm5(self):
        assert verify_thm5(12, 3).passed

    def test_thm6(self):
        for n_max, order in ((7, 16), (30, 90)):  # the wider grid, one cell per N
            report = verify_thm6(n_max, order)
            assert report.passed
            assert report.cells == n_max + 1

    def test_thm7(self):
        assert verify_thm7(8, 5, range(1, 4)).passed

    def test_cor8(self):
        assert verify_cor8(12, range(-4, 7)).passed

    def test_cor8_expands_the_generating_function_once(self, monkeypatch):
        exps = count_exp(monkeypatch)
        with cold_genfun():
            assert verify_cor8(12, range(-4, 7)).passed
        assert len(exps) == 1

    def test_thm6_and_cor8_read_a_perturbed_expansion(self):
        """Once the kept expansion is cleared, both checks read the one
        built next, here with t^5 off by one, and fail."""
        conv_fib_poly_genfun(40)
        with cold_genfun(), patch.object(Series, "exp", perturbed_exp(5, 1)):
            assert not verify_thm6().passed
            assert not verify_cor8().passed

    @pytest.mark.parametrize("delta", [1, Fraction(1, 7)])
    def test_thm6_is_exact_on_a_perturbed_expansion(self, delta):
        """With t^5 of the expansion off by a whole or a fractional amount,
        so that 5! [t^5] F is no integer, thm6 fails with the report of the
        Series form."""
        conv_fib_poly_genfun(40)
        with cold_genfun(), patch.object(Series, "exp", perturbed_exp(5, delta)):
            report = verify_thm6()
            assert report.status == "fail"
            assert report == thm6_reference()

    def test_cor9(self):
        assert verify_cor9(25).passed

    def test_holo(self):
        report = verify_holo(12, 4)
        assert report.passed
        assert report.cells == 9 * 13


class TestHolo:
    """holo sets the cached recurrence against one series power per r."""

    def test_off_by_one_series_row_fails_at_its_last_index(self, monkeypatch):
        def off_by_one(r, n_max):
            row = convolved.conv_fib_row(r, n_max)
            row[-1] += 1
            return row

        monkeypatch.setattr(identities, "conv_fib_row", off_by_one)
        report = verify_holo(10, 3)
        assert report.status == "fail"
        assert report.counterexample["params"] == {"r": -3, "n": 10}
        assert report.cells == 11

    def test_wrong_cached_value_fails_at_its_cell(self, monkeypatch):
        def wrong_at_5_2(n, r):
            return conv_fib(n, r) + ((n, r) == (5, 2))

        monkeypatch.setattr(identities, "conv_fib", wrong_at_5_2)
        report = verify_holo(10, 3)
        assert report.counterexample["params"] == {"r": 2, "n": 5}
        assert report.cells == 5 * 11 + 6

    def test_overrides_reach_the_grid(self):
        assert run_identity("holo", n_max=3, r_max=1).grid == {"n_max": 3, "r_max": 1}
        with pytest.raises(ValueError):
            run_identity("holo", r_max=-1)


class TestThm3:
    def test_wrong_value_fails_at_its_cell(self, monkeypatch):
        def wrong_at_5_2(n, r):
            return conv_fib(n, r) + ((n, r) == (5, 2))

        monkeypatch.setattr(identities, "conv_fib", wrong_at_5_2)
        report = verify_thm3()
        p_5_2 = conv_fib_row_by_recurrence(2, 5)[5]
        assert report.counterexample == {
            "params": {"n": 5, "r": 1, "x": 2}, "lhs": str(p_5_2 + 1), "rhs": str(p_5_2)
        }
        # n <= 4: 5 * 6 r * 11 x cells, then x = -2..2 at n = 5, r = 1
        assert report.cells == 335


class TestHoistedFactors:
    """Factors read once per row or grid still come through module globals:
    ``conv_fib``, the falling-factorial walk ``_falling_rows`` for the weights
    of prop1 and thm3, and the falling-factorial row
    ``conv_fib_row_by_recurrence`` for cor2's.  Cells are scanned in the same
    order, so a value off by one at one point fails at the first cell that
    reads it."""

    @staticmethod
    def wrong_at(monkeypatch, point):
        def wrong(n, r):
            return conv_fib(n, r) + ((n, r) == point)

        monkeypatch.setattr(identities, "conv_fib", wrong)

    @staticmethod
    def falling_row_wrong_at(monkeypatch, point):
        def wrong(r, n_max):
            row = conv_fib_row_by_recurrence(r, n_max)
            return [p + ((n, r) == point) for n, p in enumerate(row)]

        monkeypatch.setattr(identities, "conv_fib_row_by_recurrence", wrong)

    @staticmethod
    def falling_walk_wrong_at(monkeypatch, point):
        def wrong(n_max):
            for r, row in enumerate(convolved._falling_rows(n_max), 1):
                yield [p + ((n, r) == point) for n, p in enumerate(row)]

        monkeypatch.setattr(identities, "_falling_rows", wrong)

    def test_prop1_weight_off_by_one(self, monkeypatch):
        # p_3(1) is the l = 3 weight of every n = 3 cell; there p_0(x-1) = 1,
        # so at x = -3 the sum is p_3(-3) + 1 = 31 against p_3(-3) = 30
        self.falling_walk_wrong_at(monkeypatch, (3, 1))
        report = verify_prop1()
        assert report.counterexample == {"params": {"n": 3, "x": -3}, "lhs": "30", "rhs": "31"}
        assert report.cells == 3 * 12 + 1

    def test_thm3_weight_off_by_one(self, monkeypatch):
        # p_2(1) = 4 is the l = 2 weight of every n = 2, r = 1 cell, and no
        # n <= 1 cell reads it.  At x = -2, with p_0..p_2(-3) = 1, -3, 0:
        # rhs = p_2(-3) + 2 p_1(1) p_1(-3) + 5 p_0(-3) = 0 - 6 + 5 = -1,
        # against p_2(-2) = 4 - 6 = -2
        self.falling_walk_wrong_at(monkeypatch, (2, 1))
        report = verify_thm3()
        assert report.counterexample == {
            "params": {"n": 2, "r": 1, "x": -2}, "lhs": "-2", "rhs": "-1"
        }
        # n <= 1: 2 n * 6 r * 11 x cells, then the first cell at n = 2
        assert report.cells == 2 * 6 * 11 + 1

    def test_cor2_weight_off_by_one(self, monkeypatch):
        # the r = 1 sum is the falling row's p_5(1) = 5! F_5 = 960, here 961,
        # and the left side reads p_5(1) from conv_fib; r = 1 comes before r = 2
        self.falling_row_wrong_at(monkeypatch, (5, 1))
        report = verify_cor2()
        assert report.counterexample == {"params": {"n": 5, "r": 1}, "lhs": "960", "rhs": "961"}
        assert report.cells == 5 * 4 + 1

    def test_thm7_inner_value_off_by_one(self, monkeypatch):
        # first read at k = 1, l = 0, i = 0, N = 2, x = 5, with factor <5>_2 = 30
        self.wrong_at(monkeypatch, (1, 7))
        report = verify_thm7()
        assert report.counterexample == {
            "params": {"k": 1, "N": 2, "x": 5}, "lhs": "390", "rhs": "420"
        }
        assert report.cells == 9 * 5 + 2 * 5 + 5

    def test_thm7_triangle_entry_off_by_one(self):
        # at k = 0 the extra a_2(5) adds <1>_3 = 6 at x = 1
        triangle = CoeffTriangle.from_recurrence(8)
        report = verify_thm7(triangle=triangle.with_entry(5, 2, triangle.entry(5, 2) + 1))
        assert report.counterexample == {
            "params": {"k": 0, "N": 5, "x": 1}, "lhs": "960", "rhs": "966"
        }
        assert report.cells == 5 * 5 + 1

    @staticmethod
    def refuse_comb(monkeypatch):
        def refuse(n, l):
            raise AssertionError("a binomial factor was built")

        monkeypatch.setattr(identities, "comb", refuse)

    @pytest.mark.parametrize("verify,grid", [
        (verify_prop1, {"x_values": []}),
        (verify_thm3, {"x_values": []}),
        (verify_thm7, {"x_values": []}),
        (verify_cor2, {"r_max": 0}),
    ])
    def test_a_grid_with_no_cells_builds_no_factors(self, monkeypatch, verify, grid):
        self.refuse_comb(monkeypatch)
        with pytest.raises(UsageError, match="no cells"):
            verify(**grid)

    def test_cor2_at_r_one_builds_no_weights(self, monkeypatch):
        self.refuse_comb(monkeypatch)
        assert verify_cor2(r_max=1).passed


def step_on_base(a: int, b: int):
    """``_extend_holonomic`` for the base 1 - a t - b t^2, by its three-term
    step p_{m+1} = a(m+r) p_m + b m(m-1+2r) p_{m-1}; (a, b) = (1, 1) is
    conv_fib's own step."""

    def extend(row: list[int], r: int, n: int) -> list[int]:
        for m in range(len(row) - 1, n):
            row.append(a * (m + r) * row[m] + b * m * (m - 1 + 2 * r) * row[m - 1])
        return row

    return extend


def conv_fib_on_base(a: int, b: int):
    """p_n(r) for the base 1 - a t - b t^2, by :func:`step_on_base` from
    p_0 = 1, p_1 = a r."""
    rows: dict[int, list[int]] = {}
    extend = step_on_base(a, b)

    def on_base(n: int, r: int) -> int:
        return extend(rows.setdefault(r, [1, a * r]), r, n)[n]

    return on_base


def rebind_everywhere(monkeypatch, original, replacement) -> None:
    """Rebind every ``convfib`` module global that is ``original``, as the
    benchmark's tracer does, so no module keeps reading the original."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "convfib" or module_name.startswith("convfib."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


# identities that read no value of conv_fib, so a wrong base cannot fail them
READ_NO_VALUES = ("genfun", "thm6")

# A foundation mutant: the global of convolved that it replaces, its builder
# from the original, the identities that fail with it at their default grids,
# and whether bench refuses to time.
HOLONOMIC_FAILS = ("prop1", "cor2", "thm3", "cor4", "thm5", "thm7", "cor8", "cor9", "holo")
BASE_FAILS = ("genfun", "thm6", "cor8", "holo")
FIB_FAILS = ("genfun", "prop1", "cor2", "thm3", "cor4", "thm5", "cor9")
FOUNDATION_MUTANTS = {
    "holonomic-pell": ("_extend_holonomic", lambda _: step_on_base(2, 1), HOLONOMIC_FAILS, True),
    "holonomic-jacobsthal": (
        "_extend_holonomic", lambda _: step_on_base(1, 2), HOLONOMIC_FAILS, True
    ),
    "base-pell": (
        "base_series",
        lambda _: lambda order: Series.from_polynomial((1, -2, -1), order),
        BASE_FAILS,
        True,
    ),
    "base-jacobsthal": (
        "base_series",
        lambda _: lambda order: Series.from_polynomial((1, -1, -2), order),
        BASE_FAILS,
        True,
    ),
    "fib-next": ("fib", lambda fib: lambda n: fib(n + 1), FIB_FAILS, True),
    "fib-previous": ("fib", lambda fib: lambda n: fib(n - 1), FIB_FAILS, True),
    "product-row-times-2^i": (
        "_product_row",
        lambda row: lambda n: tuple(a << i for i, a in enumerate(row(n))),
        ("cor8",),
        False,  # bench has no product-row builder
    ),
}


class TestWrongBase:
    """Every value identity pits conv_fib against an algorithm of its own:
    with conv_fib built on the Pell or Jacobsthal base instead, each of them
    fails at its default grid.  Each foundation mutant, rebound wherever the
    package holds it, fails exactly its own identities."""

    def test_the_fibonacci_base_is_conv_fib(self):
        on_base = conv_fib_on_base(1, 1)
        assert all(on_base(n, r) == conv_fib(n, r) for r in range(-4, 7) for n in range(30))

    @pytest.mark.parametrize("a, b", [(2, 1), (1, 2)], ids=["pell", "jacobsthal"])
    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_every_value_identity_fails(self, monkeypatch, name, a, b):
        monkeypatch.setattr(identities, "conv_fib", conv_fib_on_base(a, b))
        assert run_identity(name).passed == (name in READ_NO_VALUES)

    @pytest.mark.parametrize(
        "name, mutant, failing, bench_refuses",
        FOUNDATION_MUTANTS.values(),
        ids=FOUNDATION_MUTANTS,
    )
    def test_each_foundation_mutant_fails_its_identities(
        self, monkeypatch, name, mutant, failing, bench_refuses
    ):
        # no row or expansion built before the mutant is read, or kept after it
        with cold_genfun(), patch.dict(convolved._rows, clear=True):
            original = getattr(convolved, name)
            rebind_everywhere(monkeypatch, original, mutant(original))
            assert tuple(n for n in IDENTITY_NAMES if not run_identity(n).passed) == failing
            with pytest.raises(CrossCheckFailure) if bench_refuses else nullcontext():
                bench.run_bench([5, 8], depth=2, triangle_max=8, min_seconds=0, repeats=1)
            monkeypatch.undo()


class TestSharedRowCode:
    """cor8 and cor4 run the row code that ``table`` and ``bench`` run, and
    ``bench`` the step that ``conv_fib``'s cache runs."""

    def test_cor8_without_a_triangle_checks_the_product_row(self, monkeypatch):
        # a_1(4) off by one in the row that conv_fib_poly(4) reads
        row = convolved._product_row

        def off_at_4_1(n):
            return tuple(a + ((n, i) == (4, 1)) for i, a in enumerate(row(n)))

        monkeypatch.setattr(convolved, "_product_row", off_at_4_1)
        report = verify_cor8(6, range(-2, 5))
        assert report.counterexample["params"] == {"N": 4, "check": "polynomial"}
        assert verify_cor8(6, range(-2, 5), triangle=CoeffTriangle.from_recurrence(6)).passed

    def test_cor8_without_a_triangle_builds_none(self, monkeypatch):
        def refuse(cls, n_max):
            raise AssertionError("cor8 built a triangle")

        monkeypatch.setattr(CoeffTriangle, "from_recurrence", classmethod(refuse))
        assert verify_cor8(6, range(-2, 5)).passed

    def test_cor4_runs_the_step_that_the_falling_row_iterates(self, monkeypatch):
        assert identities._falling_step is convolved._falling_step
        step = convolved._falling_step

        def wrong_at_5(row, fibs, n):
            return step(row, fibs, n) + (n == 5)

        for module in (convolved, identities):
            monkeypatch.setattr(module, "_falling_step", wrong_at_5)
        assert conv_fib_row_by_recurrence(2, 6)[5] == conv_fib(5, 2) + 1
        report = verify_cor4(8, 2)
        assert report.counterexample["params"] == {"n": 5, "r": 1}
        assert report.cells == 5 * 2 + 1

    def test_bench_times_the_step_that_the_row_cache_runs(self, monkeypatch):
        assert bench._extend_holonomic is convolved._extend_holonomic
        step = convolved._extend_holonomic

        def wrong_at_5(row, r, n):
            extended_from = len(row)
            step(row, r, n)
            if extended_from <= 5 < len(row):
                row[5] += 1
            return row

        for module in (convolved, bench):
            monkeypatch.setattr(module, "_extend_holonomic", wrong_at_5)
        rows = {r: list(row) for r, row in convolved._rows.items()}
        r = 3
        right = conv_fib_row(r, 5)[5]
        assert bench.VALUE_ALGORITHMS["holonomic"](5, r - 1) == right + 1
        # the runner builds its row from scratch and leaves the cache as it was
        assert convolved._rows == rows
        monkeypatch.setattr(convolved, "_rows", {})
        assert conv_fib(5, r) == right + 1


class TestWorkDoneOnce:
    """Each verifier does its arithmetic once: value rows are read once
    per grid, and F_l once per grid.  Integer work stays on plain integers:
    thm6 holds every series as n!-scaled polynomials in x, each packed into
    one integer, runs no series arithmetic, makes each copy W_s of F from
    the one before, and forms no polynomial product; p_N(x)'s Horner
    expansion multiplies no Poly.  The generating function is expanded once per rise
    in the largest order asked for.  Each test starts from no kept expansion, so what it counts
    does not depend on the tests before it."""

    @pytest.fixture(autouse=True)
    def cold(self):
        with cold_genfun():
            yield

    @staticmethod
    def count_calls(monkeypatch, name, verify, modules=(identities,)):
        """The calls that ``verify()``, on its default grid, makes to the
        global ``name`` of each of ``modules``; the verifier must pass."""
        calls = []
        for module in modules:
            function = getattr(module, name)

            def counted(*args, _function=function):
                calls.append(args)
                return _function(*args)

            monkeypatch.setattr(module, name, counted)
        assert verify().passed
        return len(calls)

    # On its default grid a verifier reads p_0(s), ..., p_n(s) once for each
    # distinct argument s, up to the largest n it needs there: at most
    # (number of arguments) * (n + 1) calls.
    @pytest.mark.parametrize("name,bound", [
        # n <= 50 at x = -3..8 and x - 1 = -4..7 (the weights read the falling row)
        ("prop1", 13 * 51),
        # n <= 20: left sides at r = 1..4 (weights and leaves read the falling row)
        ("cor2", 4 * 21),
        # n <= 40: left sides at x = -2..8, right sides at x - r = -8..7,
        # so -8..8 (the weights read the falling row)
        ("thm3", 17 * 41),
        # n <= 60: left sides at r + 1 = 2..7, right sides at r = 1..6
        ("cor4", 7 * 61),
        # n <= 25: left sides at r + 1 = 2..5
        ("thm5", 4 * 26),
        # one row per argument through k + N = 28: left sides at x = 1..5,
        # right sides at x + N - i = 1..13
        ("thm7", 13 * 29),
        # N <= 40 at x = -5..10
        ("cor8", 16 * 41),
        # N <= 50 at x = 1
        ("cor9", 51),
        # n <= 40 at r = -9..9
        ("holo", 19 * 41),
    ])
    def test_each_value_row_is_read_once(self, monkeypatch, name, bound):
        verify = getattr(identities, f"verify_{name}")
        assert self.count_calls(monkeypatch, "conv_fib", verify) <= bound

    def test_thm3_walks_the_falling_rows_once(self, monkeypatch):
        # rows 2 .. r_max = 6, one step per value n <= 40 each, and no row past r_max
        assert self.count_calls(monkeypatch, "_falling_step", verify_thm3, (convolved,)) == 5 * 41

    def test_cor4_reads_each_fibonacci_number_once(self, monkeypatch):
        # F_0 .. F_60, one list for the whole grid, however many steps read it
        calls = self.count_calls(monkeypatch, "fib", verify_cor4, (convolved, identities))
        assert calls <= 61

    def test_thm6_runs_no_series_arithmetic(self, monkeypatch):
        # a_4(7) lies on the zero diagonal of an odd row, where (1+2t)^(N-2i) is (1+2t)^-1
        altered = CoeffTriangle.from_recurrence(7).with_entry(7, 4, 1)
        expected = [thm6_reference(7, 16), thm6_reference(7, 16, triangle=altered)]
        assert [report.status for report in expected] == ["pass", "fail"]

        def refuse(*args):
            raise AssertionError("thm6 ran series arithmetic")

        for name in ("__mul__", "__rmul__", "__truediv__", "inverse", "__pow__", "derivative"):
            monkeypatch.setattr(Series, name, refuse)
        assert [verify_thm6(7, 16), verify_thm6(7, 16, triangle=altered)] == expected

    def test_thm6_inverts_once_and_takes_no_power(self, monkeypatch):
        # each copy W_s = <x>_s (1+2t)^2s (1-t-t^2)^-s F is one _next_copy step
        # from W_{s-1}, cut to order - s + 1 entries; the altered a_4(7) reads W_3
        # like any other entry, and no series is raised to a power or inverted
        altered = CoeffTriangle.from_recurrence(7).with_entry(7, 4, 1)
        expected = thm6_reference(7, 16, triangle=altered)
        step, calls = identities._next_copy, []

        def counted(w, s, shift):
            calls.append((len(w), s, shift))
            return step(w, s, shift)

        def refuse(*args):
            raise AssertionError("thm6 inverted a series or took a series power")

        monkeypatch.setattr(identities, "_next_copy", counted)
        monkeypatch.setattr(Series, "inverse", refuse)
        monkeypatch.setattr(Series, "__pow__", refuse)
        assert verify_thm6(7, 16, triangle=altered) == expected
        # one packed step per s = 1..7, all at one shift B >= 1, and apart
        # from them the bound run's steps on the l1 norms, at shift 0
        packed = [(length, s) for length, s, shift in calls if shift]
        bound = [(length, s) for length, s, shift in calls if not shift]
        assert packed == bound == [(17 - s, s) for s in range(1, 8)]
        assert len({shift for _, _, shift in calls if shift}) == 1

    def test_thm6_forms_no_polynomial_product(self, monkeypatch):
        # each copy carries its rising factorial, so a cell's right side is an
        # integer combination of the copies' t^k entries: no product or sum
        # of two polynomials, and no <x>_k built on its own.  Every Poly
        # + and * runs on sum_of_products, so refusing it refuses them all.
        conv_fib_poly_genfun(16)  # the kept expansion, built with products
        altered = CoeffTriangle.from_recurrence(7).with_entry(7, 4, 1)
        expected = [thm6_reference(7, 16), thm6_reference(7, 16, triangle=altered)]
        assert [report.status for report in expected] == ["pass", "fail"]
        step, steps = identities._next_copy, []

        def counted(w, s, shift):
            steps.append((s, shift))
            return step(w, s, shift)

        def refuse(*args):
            raise AssertionError("thm6 formed a polynomial product")

        monkeypatch.setattr(identities, "_next_copy", counted)
        for module, name in (
            (poly, "sum_of_products"), (series, "sum_of_products"),
            (convolved, "rising_factorial_poly"),
        ):
            monkeypatch.setattr(module, name, refuse)
            monkeypatch.setattr(identities, name, refuse, raising=False)  # were it imported
        assert verify_thm6(7, 16) == expected[0]
        # N = 1..7, each with s = N: one packed step, and one step of the bound run at shift 0
        assert [s for s, shift in steps if shift] == list(range(1, 8))
        assert [s for s, shift in steps if not shift] == list(range(1, 8))
        assert verify_thm6(7, 16, triangle=altered) == expected[1]

    def test_one_expansion_serves_every_smaller_order(self, monkeypatch):
        exps = count_exp(monkeypatch)
        for n in (39, 2, 20):
            assert conv_fib_poly_oracle(n, n) == conv_fib_poly(n).monomial
        assert verify_thm6(10, 30).passed
        assert exps == [39]

    def test_one_expansion_per_rise_of_the_largest_order(self, monkeypatch):
        exps = count_exp(monkeypatch)
        orders = [0, 3, 3, 8, 5, 8, 9, 2, 15, 16, 16]
        for order in orders:
            conv_fib_poly_genfun(order)
        assert exps == [0, 3, 8, 9, 15, 16]  # each order above every one before it

    def test_conv_fib_poly_multiplies_no_poly(self, monkeypatch):
        expected = conv_fib_poly_oracle(40, 40)
        multiply = Poly.__mul__
        products = []

        def counted(self, other):
            products.append(other)
            return multiply(self, other)

        monkeypatch.setattr(Poly, "__mul__", counted)
        monkeypatch.setattr(Poly, "__rmul__", counted)
        assert conv_fib_poly(40).monomial == expected
        assert products == []


class TestTrivialReductions:
    def test_prop1_at_x_equal_one(self):
        """x = 1 collapses to p_n(1) = p_n(1) because p_k(0) vanishes."""
        assert verify_prop1(10, [1]).passed

    def test_thm3_at_x_equal_r(self):
        """x = r collapses the sum to the single l = n term."""
        for n in (0, 3, 7):
            for r in (1, 2, 4):
                rhs = sum(comb(n, l) * conv_fib(l, r) * conv_fib(n - l, 0) for l in range(n + 1))
                assert rhs == conv_fib(n, r)

    def test_thm7_at_shift_zero(self):
        """N = 0 collapses to p_k(x) = p_k(x) since (0)_l kills l > 0."""
        assert verify_thm7(10, 0, range(1, 5)).passed

    def test_cor4_hand_expanded_cell(self):
        """n = 2, r = 1: p_2(2) = 1*4*1 + 2*1*1 + 2*1*2 = 10."""
        terms = [
            1 * conv_fib(2, 1) * fib(0),
            2 * conv_fib(1, 1) * fib(1),
            2 * 1 * conv_fib(0, 1) * fib(2),
        ]
        assert terms == [4, 2, 4]
        assert sum(terms) == conv_fib(2, 2) == 10

    def test_thm5_hand_cell(self):
        """n = 2, r = 1: sum_l F_l F_{2-l} = 5 = p_2(2)/2!."""
        s = sum(fib(l) * fib(2 - l) for l in range(3))
        assert s == 5
        assert conv_fib(2, 2) == factorial(2) * s

    def test_cor2_at_r_one_is_definitional(self):
        assert verify_cor2(15, 1).passed


class TestMutationSensitivity:
    """A single +1 on any one triangle entry must break every check that
    consumes the triangle, with the counterexample populated."""

    # (3, 2) is on the zero diagonal of an odd row, where (1+2t)^(N-2i) is (1+2t)^-1
    MUTATIONS = ((3, 1), (3, 2), (5, 2), (6, 3))

    @pytest.fixture()
    def triangle(self):
        return CoeffTriangle.from_recurrence(6)

    @pytest.mark.parametrize("row,col", MUTATIONS)
    def test_thm6_fails(self, triangle, row, col):
        mutated = triangle.with_entry(row, col, triangle.entry(row, col) + 1)
        report = verify_thm6(6, 12, triangle=mutated)
        assert not report.passed
        assert report.counterexample is not None
        assert report.counterexample["params"]["N"] == row

    @pytest.mark.parametrize("row,col", MUTATIONS)
    def test_thm7_fails(self, triangle, row, col):
        mutated = triangle.with_entry(row, col, triangle.entry(row, col) + 1)
        report = verify_thm7(4, 6, range(1, 4), triangle=mutated)
        assert not report.passed
        assert report.counterexample is not None

    @pytest.mark.parametrize("row,col", MUTATIONS)
    def test_cor8_fails(self, triangle, row, col):
        mutated = triangle.with_entry(row, col, triangle.entry(row, col) + 1)
        report = verify_cor8(6, range(-2, 5), triangle=mutated)
        assert not report.passed
        assert report.counterexample is not None

    @pytest.mark.parametrize("row,col", MUTATIONS)
    def test_cor9_fails(self, triangle, row, col):
        mutated = triangle.with_entry(row, col, triangle.entry(row, col) + 1)
        report = verify_cor9(6, triangle=mutated)
        assert not report.passed
        assert report.counterexample is not None

    def test_unmutated_triangle_passes_all_four(self, triangle):
        assert verify_thm6(6, 12, triangle=triangle).passed
        assert verify_thm7(4, 6, range(1, 4), triangle=triangle).passed
        assert verify_cor8(6, range(-2, 5), triangle=triangle).passed
        assert verify_cor9(6, triangle=CoeffTriangle.from_closed_form(6)).passed


class TestThm6AgainstTheSeriesForm:
    """verify_thm6, on packed n!-scaled entries, gives the reports of
    thm6_reference, the same check on Series over Q[x]."""

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.sampled_from([(8, 24), (10, 30)]),
        n=st.integers(0, 10),
        data=st.data(),
        delta=st.integers(-5, 5).filter(bool),
    )
    def test_one_altered_entry(self, grid, n, data, delta):
        i = data.draw(st.integers(0, (n + 1) // 2), label="i")
        triangle = CoeffTriangle.from_recurrence(10)
        altered = triangle.with_entry(n, i, triangle.entry(n, i) + delta)
        report = verify_thm6(*grid, triangle=altered)
        assert report == thm6_reference(*grid, triangle=altered)
        # the bracket changes by delta <x>_{N-i} at t^0, so a row in the grid fails there
        if n <= grid[0]:
            assert report.counterexample["params"] == {"N": n, "t_power": 0}
        else:
            assert report.passed

    @pytest.mark.parametrize(
        "n_max,order", sorted({(n, o) for n in range(13) for o in (n, n + 1, 3 * n)})
    )
    def test_unaltered_triangle(self, n_max, order):
        report = verify_thm6(n_max, order)
        assert report.passed
        assert report == thm6_reference(n_max, order)

    def test_each_copy_against_its_definition(self):
        # W_s, s steps of _next_copy from the kept F on packed entries, unpacked
        # against k! [t^k] <x>_s (1+2t)^2s (1-t-t^2)^-s F built by series powers over Q
        order, n_max = 30, 10
        gen = conv_fib_poly_genfun(order)
        hurwitz = [[int(c) for c in (p * factorial(k)).coefficients] for k, p in enumerate(gen.coefficients)]
        two_t = Series.from_polynomial((1, 2), order)
        expected = []  # [k! [t^k] W_s for every k], as coefficient lists, for s = 1..n_max
        for s in range(1, n_max + 1):
            power = two_t ** (2 * s) * base_series(order) ** -s
            w = power.lift() * rising_factorial_poly(s) * gen
            expected.append(
                [[int(c * factorial(k)) for c in p.coefficients] for k, p in enumerate(w.coefficients)]
            )
        # verify_thm6's B holds every coefficient of the entries it reads, k <= order - s
        shift = identities._thm6_shift(hurwitz, n_max, CoeffTriangle.from_recurrence(n_max))
        for s, w in enumerate(expected, 1):
            assert max(abs(c) for entry in w[: order - s + 1] for c in entry) < 2 ** (shift - 1)
        # every entry, through t^order, at a B that holds them all
        wide = 1 + max(abs(c).bit_length() for w in expected for entry in w for c in entry)
        copy = [identities._pack(h, wide) for h in hurwitz]
        for s in range(1, n_max + 1):
            copy = identities._next_copy(copy, s, wide)
            assert [identities._unpack(entry, wide) for entry in copy] == expected[s - 1]

    @pytest.mark.parametrize("n,i,delta", [
        (0, 0, 10**60), (3, 1, -(10**60)), (6, 2, 10**75 + 1), (7, 4, -(10**61)), (8, 3, 3 * 10**80),
    ])
    def test_huge_altered_entry(self, n, i, delta):
        # a difference can be far larger than any entry: a_i(N) off by delta
        # changes it by delta W_{N-i}, so B must count max_N sum_i |a_i(N)|;
        # the altered row is read inside the grid and as its last row
        triangle = CoeffTriangle.from_recurrence(8)
        altered = triangle.with_entry(n, i, triangle.entry(n, i) + delta)
        for grid in ((8, 24), (n, 3 * n)):
            report = verify_thm6(*grid, triangle=altered)
            assert report.counterexample["params"] == {"N": n, "t_power": 0}
            assert report == thm6_reference(*grid, triangle=altered)

    @pytest.mark.parametrize("n_max", [7, 8, 9])
    def test_last_entry_of_a_row_reads_the_oldest_copy_held(self, n_max):
        # row N reads W_N .. W_{N-i} for i < _width(N), and the walk holds no
        # more copies than row n_max reads; its last entry multiplies the
        # oldest of them, and for odd n_max it lies on the zero diagonal
        width, order = convolved._width(n_max), 2 * n_max
        walk = identities._walk(list(range(order + 1)), n_max, 1)
        assert [len(copies) for _, copies in walk] == [min(n + 1, width) for n in range(n_max + 1)]
        triangle = CoeffTriangle.from_recurrence(n_max)
        altered = triangle.with_entry(n_max, width - 1, triangle.entry(n_max, width - 1) + 1)
        report = verify_thm6(n_max, order, triangle=altered)
        assert report.counterexample["params"] == {"N": n_max, "t_power": 0}
        assert report == thm6_reference(n_max, order, triangle=altered)

    @pytest.mark.parametrize("delta", [-(10**60), Fraction(-(10**70), 7)])
    def test_huge_negative_perturbation(self, delta):
        # an expansion with t^5 off by a huge negative amount: the l1 norms add
        # the numerators' absolute values; their signed sum would be hugely
        # negative here, and B too small for the difference at N = 1
        with cold_genfun(), patch.object(Series, "exp", perturbed_exp(5, delta)):
            conv_fib_poly_genfun(30)
            report = verify_thm6(10, 30)
            assert report.counterexample["params"] == {"N": 1, "t_power": 4}
            assert report == thm6_reference(10, 30)


class TestPacking:
    """thm6's packing: a polynomial in x with integer coefficients as its
    value at x = 2^B, read back as balanced base-2^B digits."""

    @settings(max_examples=200, deadline=None)
    @given(shift=st.integers(1, 100), data=st.data())
    def test_unpack_inverts_pack(self, shift, data):
        half = 1 << (shift - 1)
        digit = st.one_of(st.sampled_from([-half, half - 1]), st.integers(-half, half - 1))
        coefficients = data.draw(st.lists(digit, max_size=12), label="coefficients")
        trimmed = list(coefficients)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        assert identities._unpack(identities._pack(coefficients, shift), shift) == trimmed
        assert identities._unpack(0, shift) == []

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_shift_bounds_every_coefficient_of_the_walk(self, data):
        # _thm6_shift's B on arbitrary signed entries and triangle rows: every
        # entry of V_N and W_s, and every V_N[k] - sum_i a_i(N) W_{N-i}[k],
        # from the walk at a shift far above B, has coefficients in
        # (-2^(B-1), 2^(B-1))
        order = data.draw(st.integers(0, 10), label="order")
        n_max = data.draw(st.integers(0, order), label="n_max")
        coefficient = st.integers(-50, 50)
        entries = [
            data.draw(st.lists(coefficient, min_size=1, max_size=k + 2), label=f"entry {k}")
            for k in range(order + 1)
        ]
        widths = [convolved._width(n) for n in range(n_max + 1)]
        rows = [
            data.draw(st.lists(coefficient, min_size=w, max_size=w), label=f"row {n}")
            for n, w in enumerate(widths)
        ]
        triangle = CoeffTriangle(tuple(map(tuple, rows)))
        shift = identities._thm6_shift(entries, n_max, triangle)
        wide = 2 * shift + 64
        reached = []
        walk = identities._walk([identities._pack(e, wide) for e in entries], n_max, wide)
        for row, (left, copies) in zip(rows, walk):
            reached += left + copies[0]  # each copy is newest at one N
            reached += [v - sum(map(mul, row, column)) for v, *column in zip(left, *copies)]
        half = 1 << (shift - 1)
        assert all(-half < c < half for value in reached for c in identities._unpack(value, wide))


class TestCrossConsistency:
    def test_nested_fibonacci_sum_equals_nested_binomial_sum(self):
        """n! times the r-fold Fibonacci sum equals the r-level binomial
        nested sum over p(1) values; both give p_n(r+1)."""
        for n in range(11):
            for r in range(1, 4):

                def fold(m, depth):
                    if depth == 0:
                        return fib(m)
                    return sum(fib(l) * fold(m - l, depth - 1) for l in range(m + 1))

                ones = [conv_fib(m, 1) for m in range(n + 1)]
                weights = [_binomial_weights(ones, m) for m in range(n + 1)]
                assert factorial(n) * fold(n, r) == _cor2_nested(n, r, ones, weights)


class CountedProducts(int):
    """A base value that counts the products which read it."""

    products = 0

    def __rmul__(self, other):
        CountedProducts.products += 1
        return int(self) * other


class TestLiteralNestedSums:
    """thm5 and cor2 run one nested-sum engine, which forms every term: one
    product with a base value per index tuple, C(n + levels, levels) of them,
    however many of their inner sums repeat."""

    @pytest.mark.parametrize("form", ["thm5", "cor2"])
    def test_one_product_with_the_base_per_index_tuple(self, form):
        for n in range(9):
            if form == "thm5":  # F_l weights at every m, as conv_fib_by_nested_sum passes them
                values = [fib(m) for m in range(n + 1)]
                weights = [values] * (n + 1)
            else:  # C(m,l) p_l(1) weights, as verify_cor2 passes them
                values = [conv_fib(m, 1) for m in range(n + 1)]
                weights = [_binomial_weights(values, m) for m in range(n + 1)]

            def literal(m, levels):
                if levels == 0:
                    return values[m]
                return sum(weights[m][l] * literal(m - l, levels - 1) for l in range(m + 1))

            for levels in range(1, 6):
                CountedProducts.products = 0
                value = convolved._nested_sum(n, levels, [CountedProducts(v) for v in values], weights)
                assert value == literal(n, levels)
                assert CountedProducts.products == comb(n + levels, levels), (n, levels)

    def test_cor2_runs_deeper_than_the_recursion_limit(self):
        # p_1(1200) as 1,199 nested binomial sums over p_0(1), p_1(1)
        ones = [conv_fib(m, 1) for m in range(2)]
        weights = [_binomial_weights(ones, m) for m in range(2)]
        assert _cor2_nested(1, 1199, ones, weights) == conv_fib(1, 1200) == 1200


class TestReports:
    def test_json_shape(self):
        doc = verify_cor2(5, 2).to_json_dict()
        assert list(doc.keys()) == ["identity", "grid", "cells", "status", "counterexample"]
        assert doc["identity"] == "cor2"
        assert doc["status"] == "pass"

    def test_counterexample_is_lexicographically_first(self):
        """Mutating row 5 must surface N = 5 first in cor9 even though
        row 6 cells would also fail if scanned."""
        base = CoeffTriangle.from_closed_form(8)
        mutated = base.with_entry(5, 2, 61).with_entry(6, 2, 181)
        report = verify_cor9(8, triangle=mutated)
        assert not report.passed
        assert report.counterexample["params"]["N"] == 5

    def test_grid_monotonicity_spot_check(self):
        """A pass on a grid implies a pass on a subgrid."""
        assert verify_prop1(12, range(-2, 5)).passed
        assert verify_prop1(6, range(0, 3)).passed

    def test_x_values_are_sorted_and_scanned_in_that_order(self, monkeypatch):
        """An unsorted x iterable with a repeat, also a one-shot iterator, is
        reported sorted, repeat kept, and scanned in that order: of two wrong
        values of p_3, the one at x = -1 is found first although 4 comes
        first in the argument."""
        assert verify_prop1(5, [4, -1, 2, 2]).grid["x_values"] == [-1, 2, 2, 4]
        wrong = {(3, 4), (3, -1)}
        monkeypatch.setattr(
            identities, "conv_fib", lambda n, x: conv_fib(n, x) + ((n, x) in wrong)
        )
        report = verify_prop1(5, iter([4, -1, 2, 2]))
        assert report.grid == {"n_max": 5, "x_values": [-1, 2, 2, 4]}
        assert report.counterexample["params"] == {"n": 3, "x": -1}
        assert report.cells == 3 * 4 + 1

    def test_cells_counted_up_to_failure(self):
        mutated = CoeffTriangle.from_recurrence(4).with_entry(3, 1, 7)
        report = verify_cor9(4, triangle=mutated)
        assert report.status == "fail"
        # rows 0..2 contribute two cells each; the failing check is cell 7
        assert report.cells == 7


class TestRunner:
    def test_all_names_run(self, monkeypatch):
        """Each report's grid is the arguments of its verifier's call, with the
        defaults applied, in signature order, less ``triangle``, and with
        ``x_values`` sorted."""
        overrides = {"n_max": 6, "big_n_max": 4, "k_max": 4, "r_max": 2, "order": 10}
        for name in IDENTITY_NAMES:
            attr = f"verify_{name}"
            verifier, calls = getattr(identities, attr), []

            @functools.wraps(verifier)
            def recording(*, _verifier=verifier, **params):
                calls.append(params)
                return _verifier(**params)

            monkeypatch.setattr(identities, attr, recording)
            report = run_identity(name, **overrides)
            assert report.passed, name
            bound = inspect.signature(verifier).bind(**calls[0])
            bound.apply_defaults()
            expected = [
                (key, sorted(value) if key == "x_values" else value)
                for key, value in bound.arguments.items()
                if key != "triangle"
            ]
            assert list(report.grid.items()) == expected, name

    def test_every_verifier_is_defined_here(self, monkeypatch):
        """Each verifier that run_identity resolves, genfun's included, is
        defined in convfib.identities; the lookup stops at its signature."""
        resolved = []

        def stop(verifier):
            resolved.append(verifier)
            raise LookupError(verifier.__name__)

        monkeypatch.setattr(inspect, "signature", stop)
        for name in IDENTITY_NAMES:
            with pytest.raises(LookupError):
                run_identity(name)
        assert [f.__module__ for f in resolved] == ["convfib.identities"] * len(IDENTITY_NAMES)

    def test_a_verifier_reports_its_name_less_the_prefix(self):
        @verifier
        def verify_demo(n_max: int = 2):
            for n in range(n_max + 1):
                yield {"n": n}, n, n

        report = verify_demo()
        assert (report.identity, report.grid, report.cells) == ("demo", {"n_max": 2}, 3)
        assert report.passed

    def test_identity_names_are_the_verifiers_in_the_order_defined(self):
        lines = [
            inspect.unwrap(getattr(identities, f"verify_{name}")).__code__.co_firstlineno
            for name in IDENTITY_NAMES
        ]
        assert lines == sorted(lines)
        # the package exports each verifier under the same name
        for name in IDENTITY_NAMES:
            assert getattr(convfib, f"verify_{name}") is getattr(identities, f"verify_{name}")
        assert IDENTITY_NAMES == (
            "genfun", "prop1", "cor2", "thm3", "cor4", "thm5", "thm6", "thm7", "cor8", "cor9", "holo"
        )

    def test_genfun_is_one_object_under_each_name(self):
        """``verify_genfun`` is the package's ``fib_genfun_check``, so a tracer
        that rebinds every global that is the function wraps both names."""
        assert identities.fib_genfun_check is identities.verify_genfun
        assert convfib.fib_genfun_check is identities.verify_genfun

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_identity("nosuch")

    def test_genfun_order_override(self):
        report = run_identity("genfun", order=10)
        assert report.grid == {"order": 10}

    def test_big_n_override_reaches_triangle_identities(self):
        """Triangle rows are indexed by N, so ``big_n_max`` bounds exactly the
        verifiers that take a triangle, and ``n_max`` every other bounded one."""
        for name in IDENTITY_NAMES:
            report = run_identity(name, n_max=3, big_n_max=4, order=12)
            expected = {"genfun": None, "thm6": 4, "thm7": 4, "cor8": 4, "cor9": 4}.get(name, 3)
            assert report.grid.get("n_max") == expected, name
        assert run_identity("thm6", big_n_max=4, order=12).grid == {"n_max": 4, "order": 12}

    def test_series_index_override_does_not_touch_triangle_bound(self):
        report = run_identity("cor9", n_max=99, big_n_max=5)
        assert report.grid == {"n_max": 5}

    def test_thm6_short_order_raises(self):
        with pytest.raises(UsageError, match=r"^order must be >= 10, got 5$"):
            verify_thm6(10, 5)

    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_registry_defaults_match_the_verifier_signature(self, monkeypatch, name):
        """``run_identity(name)`` calls the verifier with exactly the defaults
        of its signature, read through a ``functools.wraps`` wrapper."""
        attr = f"verify_{name}"
        signature = inspect.signature(getattr(identities, attr))
        calls = []

        @functools.wraps(getattr(identities, attr))
        def recording(**params):
            calls.append(params)

        monkeypatch.setattr(identities, attr, recording)
        run_identity(name)
        bound = signature.bind(**calls[0])
        bound.apply_defaults()
        assert bound.arguments == {key: p.default for key, p in signature.parameters.items()}

    def test_one_x_override_keeps_the_other_default_end(self):
        assert run_identity("prop1", n_max=2, x_min=2).grid["x_values"] == [2, 3, 4, 5, 6, 7, 8]
        assert run_identity("thm7", k_max=1, big_n_max=1, x_max=3).grid["x_values"] == [1, 2, 3]
