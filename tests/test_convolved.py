"""Convolved Fibonacci values, the coefficient triangle, and p_N(x)."""

from __future__ import annotations

import functools
import inspect
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convfib import bench, cli, convolved, series
from convfib.convolved import (
    CoeffTriangle,
    IndexOutOfTriangle,
    TruncationTooShort,
    base_series,
    conv_fib,
    conv_fib_by_nested_sum,
    conv_fib_poly,
    conv_fib_poly_genfun,
    conv_fib_poly_oracle,
    conv_fib_row,
    conv_fib_row_by_recurrence,
    factorial_powers,
    rising_factorial_poly,
    triangle_closed,
    triangle_recurrence,
)
from convfib.fibonacci import fib
from convfib.identities import verify_cor8, verify_genfun
from convfib.poly import Poly
from convfib.report import UsageError, VerificationReport
from convfib.series import Series


class TestIntegerValues:
    def test_argument_one_gives_scaled_fibonacci(self):
        """p_3(1) = 3! F_3 = 18."""
        assert conv_fib(3, 1) == 18

    def test_argument_two_from_self_convolution(self):
        """p_2(2) = 2! * sum_l F_l F_{2-l} = 2 * 5."""
        oracle = factorial(2) * sum(fib(l) * fib(2 - l) for l in range(3))
        assert oracle == 10
        assert conv_fib(2, 2) == oracle

    def test_argument_zero(self):
        assert conv_fib(0, 0) == 1
        for n in range(1, 8):
            assert conv_fib(n, 0) == 0

    def test_negative_argument_is_polynomial_coefficient(self):
        """p_2(-1) = 2! [t^2](1 - t - t^2) = -2."""
        assert conv_fib(2, -1) == -2
        # (1 - t - t^2)^2 = 1 - 2t - t^2 + 2t^3 + t^4
        expected = [1, -2, -1, 2, 1, 0, 0]
        assert conv_fib_row(-2, 6) == [factorial(n) * c for n, c in enumerate(expected)]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            conv_fib(-1, 1)

    def test_scaled_fibonacci_law(self):
        for n in range(61):
            assert conv_fib(n, 1) == factorial(n) * fib(n)


class TestRow:
    def test_row_at_one(self):
        assert conv_fib_row(1, 6) == [1, 1, 4, 18, 120, 960, 9360]

    def test_row_at_zero(self):
        assert conv_fib_row(0, 3) == [1, 0, 0, 0]

    def test_row_at_two_from_convolution_oracle(self):
        convolved = [sum(fib(l) * fib(n - l) for l in range(n + 1)) for n in range(5)]
        assert convolved == [1, 2, 5, 10, 20]
        assert conv_fib_row(2, 4) == [factorial(n) * c for n, c in enumerate(convolved)]

    def test_row_agrees_with_single_values(self):
        for r in range(-4, 7):
            row = conv_fib_row(r, 25)
            for n, value in enumerate(row):
                assert value == conv_fib(n, r)

    def test_row_scales_by_a_running_factorial(self, monkeypatch):
        """n! is one running product along the row: math.factorial is never called."""
        calls = []

        def counted(n):
            calls.append(n)
            return factorial(n)

        monkeypatch.setattr(convolved, "factorial", counted)
        for r in (-3, 0, 1, 5):
            assert conv_fib_row(r, 40) == convolved._extend_holonomic([1, r], r, 40), r
        assert calls == []

    def test_running_factorial_stops_at_the_power_degree(self, monkeypatch):
        """(1 - t - t^2)^3 has degree 6, so the row forms 1!, ..., 6! and no
        later factorial: six multiplications, not one per n <= 500."""
        products = []

        def counted(a, b):
            products.append((a, b))
            return a * b

        monkeypatch.setattr(convolved, "mul", counted)
        row = conv_fib_row(-3, 500)
        assert len(products) == 6
        assert row == convolved._extend_holonomic([1, -3], -3, 500)


class TestThreeAlgorithms:
    def test_nested_sum_and_recurrence_and_series_agree(self):
        for r in range(1, 5):
            by_recurrence = conv_fib_row_by_recurrence(r, 12)
            for n in range(13):
                series_value = conv_fib(n, r)
                assert conv_fib_by_nested_sum(n, r) == series_value
                assert by_recurrence[n] == series_value

    def test_nested_sum_needs_positive_argument(self):
        with pytest.raises(ValueError):
            conv_fib_by_nested_sum(3, 0)

    def test_nested_sum_reads_each_fibonacci_number_once(self, monkeypatch):
        reads = []

        def counted(l):
            reads.append(l)
            return fib(l)

        monkeypatch.setattr(convolved, "fib", counted)
        assert conv_fib_by_nested_sum(25, 5) == conv_fib(25, 5)
        assert sorted(reads) == list(range(26))

    def test_recurrence_needs_positive_argument(self):
        with pytest.raises(ValueError):
            conv_fib_row_by_recurrence(0, 3)

    def test_nested_sum_runs_deeper_than_the_recursion_limit(self):
        # 1,499 levels, each of them one open entry on the sum's own stack
        assert 1500 > sys.getrecursionlimit()
        assert conv_fib_by_nested_sum(0, 1500) == conv_fib(0, 1500)


# Every library entry refuses a bound below its least value with one
# UsageError, "<name> must be >= <least>, got <value>"; run_bench refuses a
# negative size through the nested sum, before math.factorial sees it.
NEGATIVE_BOUNDS = [
    pytest.param(conv_fib_row, (1, -1), "n_max must be >= 0, got -1", id="conv_fib_row"),
    pytest.param(
        conv_fib_row_by_recurrence, (1, -1), "n_max must be >= 0, got -1",
        id="conv_fib_row_by_recurrence",
    ),
    pytest.param(
        conv_fib_row_by_recurrence, (0, 3), "r must be >= 1, got 0",
        id="conv_fib_row_by_recurrence-r",
    ),
    pytest.param(
        CoeffTriangle.from_recurrence, (-1,), "n_max must be >= 0, got -1", id="from_recurrence"
    ),
    pytest.param(
        CoeffTriangle.from_closed_form, (-1,), "n_max must be >= 0, got -1", id="from_closed_form"
    ),
    pytest.param(conv_fib, (-1, 1), "n must be >= 0, got -1", id="conv_fib"),
    pytest.param(conv_fib_poly, (-1,), "n must be >= 0, got -1", id="conv_fib_poly"),
    pytest.param(
        conv_fib_poly_oracle, (-1, 4), "n must be >= 0, got -1", id="conv_fib_poly_oracle"
    ),
    pytest.param(
        conv_fib_by_nested_sum, (-1, 2), "n must be >= 0, got -1", id="conv_fib_by_nested_sum"
    ),
    pytest.param(
        conv_fib_by_nested_sum, (3, 0), "r must be >= 1, got 0", id="conv_fib_by_nested_sum-r"
    ),
    pytest.param(factorial_powers, (3, -1), "l must be >= 0, got -1", id="factorial_powers"),
    pytest.param(
        rising_factorial_poly, (-1,), "k must be >= 0, got -1", id="rising_factorial_poly"
    ),
    pytest.param(triangle_closed, (-1, 0), "row index must be >= 0, got -1", id="triangle_closed"),
    pytest.param(
        Series.from_polynomial, ((1,), -1), "order must be >= 0, got -1", id="from_polynomial"
    ),
    pytest.param(Series.one(3).truncate, (-1,), "order must be >= 0, got -1", id="truncate"),
    pytest.param(bench.run_bench, ([2], 0), "depth must be >= 1, got 0", id="run_bench-depth"),
    pytest.param(bench.run_bench, ([-1],), "n must be >= 0, got -1", id="run_bench-sizes"),
    pytest.param(verify_genfun, (1,), "order must be >= 2, got 1", id="verify_genfun"),
]


@pytest.mark.parametrize("entry, args, message", NEGATIVE_BOUNDS)
def test_negative_bound_is_usage_error(entry, args, message):
    with pytest.raises(UsageError) as caught:
        entry(*args)
    assert str(caught.value) == message


# guards and reprs that no computation in range reaches: (call, the exact
# exception type it raises or None when it returns, the message or the repr)
GUARDS = [
    pytest.param(
        lambda: convolved._exact_int(Fraction(5, 2)), ArithmeticError,
        "expected an integer, got 5/2", id="_exact_int",
    ),
    pytest.param(
        lambda: CoeffTriangle.from_recurrence(3).row(4), IndexError,
        "row 4 not computed (have 0..3)", id="CoeffTriangle.row",
    ),
    pytest.param(
        lambda: VerificationReport("thm6", {}, 1, "skip"), ValueError,
        "status must be 'pass' or 'fail', got 'skip'", id="report-status",
    ),
    pytest.param(
        lambda: VerificationReport("thm6", {}, 1, "fail"), ValueError,
        "counterexample must be present exactly when status is 'fail'", id="report-counterexample",
    ),
    pytest.param(
        lambda: Poly([1, 2]).constant_value(), ValueError,
        "Poly(['1', '2']) is not constant", id="Poly.constant_value",
    ),
    pytest.param(
        lambda: repr(Poly([1, Fraction(-1, 2), 0, 3])), None,
        "Poly(['1', '-1/2', '0', '3'])", id="Poly.__repr__",
    ),
    pytest.param(
        lambda: repr(Series(range(8))), None,
        "Series([0, 1, 2, 3, 4, 5, 6, 7], order=7)", id="Series.__repr__",
    ),
    pytest.param(
        lambda: repr(Series([Fraction(1, 3)] * 9)), None,
        "Series([1/3, 1/3, 1/3, 1/3, 1/3, 1/3, 1/3, 1/3, ...], order=8)", id="Series.__repr__-elided",
    ),
]


@pytest.mark.parametrize("call, error, text", GUARDS)
def test_guard_message_or_repr(call, error, text):
    if error is None:
        assert call() == text
        return
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == text


N_TOP = 200
ARGUMENTS = range(-9, 10)


@functools.cache
def series_row(r: int) -> tuple[int, ...]:
    """[p_0(r), ..., p_200(r)] from one series power, built once per r."""
    return tuple(conv_fib_row(r, N_TOP))


def empty_cache():
    """conv_fib starts from no cached rows; the rows cached before come back after."""
    return patch.dict(convolved._rows, clear=True)


def cold_genfun():
    """conv_fib_poly_genfun starts from no kept expansion; the one kept before
    comes back after, so nothing built inside (under a patch, say) outlives it."""
    return patch.object(convolved, "_genfun", None)


def count_exp(monkeypatch) -> list[int]:
    """Patch Series.exp to record the order of each expansion; returns the record."""
    exp, orders = Series.exp, []

    def counted(series, known=None):
        orders.append(series.order)
        return exp(series, known)

    monkeypatch.setattr(Series, "exp", counted)
    return orders


class TestRowCache:
    """conv_fib grows its rows by the three-term recurrence; the series power
    and the falling-factorial step check every value it gives."""

    def test_upward_reads_match_series_and_falling_step(self):
        with empty_cache():
            for r in ARGUMENTS:
                values = [conv_fib(n, r) for n in range(N_TOP + 1)]
                assert values == list(series_row(r)), r
                if r >= 1:
                    assert values == conv_fib_row_by_recurrence(r, N_TOP), r

    def test_fresh_row_matches_series(self):
        """The cache's step on a fresh row, as bench's holonomic runner builds it."""
        for r in ARGUMENTS:
            assert convolved._extend_holonomic([1, r], r, N_TOP) == list(series_row(r)), r
        holonomic = bench.VALUE_ALGORITHMS["holonomic"]
        assert [holonomic(n, 4) for n in (0, 1)] == list(series_row(5)[:2]) == [1, 5]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, N_TOP), st.sampled_from(ARGUMENTS)), max_size=40))
    def test_any_read_order_gives_series_values(self, reads):
        """Reads as drawn (r interleaved), then by descending n, each on an
        empty cache, so every extension starts from every kind of row."""
        for order in (reads, sorted(reads, reverse=True)):
            with empty_cache():
                for n, r in order:
                    assert conv_fib(n, r) == series_row(r)[n], (n, r)

    def test_parallel_reads_and_extensions(self):
        """Eight threads at a time read one argument's row upward from an empty
        cache, so nearly every call extends a row that others extend too."""
        tasks = [r for r in ARGUMENTS for _ in range(8)]

        def read_upward(r: int) -> tuple[int, list[int]]:
            return r, [conv_fib(n, r) for n in range(N_TOP + 1)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            with empty_cache(), ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(read_upward, tasks))
        finally:
            sys.setswitchinterval(interval)
        for r, values in results:
            assert values == list(series_row(r)), r


def finite_power_row(m: int, n_max: int) -> list[int]:
    """n! [t^n] (1 - t - t^2)**m for n <= n_max, by plain list products."""
    coeffs = [1]
    for _ in range(m):
        padded = coeffs + [0, 0]  # index -1 and -2 read these zeros: no t^-1, t^-2 terms
        coeffs = [padded[j] - padded[j - 1] - padded[j - 2] for j in range(len(padded))]
    coeffs += [0] * (n_max + 1)
    return [factorial(n) * coeffs[n] for n in range(n_max + 1)]


class TestRandomizedAgreement:
    """Differential checks of the p_n(r) algorithms on random small (n, r)."""

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 14), r=st.integers(1, 5))
    def test_positive_argument_algorithms_agree(self, n, r):
        row = conv_fib_row(r, n)
        assert conv_fib_row_by_recurrence(r, n) == row
        assert conv_fib_by_nested_sum(n, r) == row[n]

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 20), r=st.integers(-8, 0))
    def test_nonpositive_argument_is_finite_expansion(self, n, r):
        assert conv_fib_row(r, n) == finite_power_row(-r, n)

    def test_nonpositive_rows_beyond_the_grids(self):
        """For every r in [-60, 0], the row through n = 300, where each series
        product stops at its factors' degree sum, is n! [t^n] of the
        polynomial (1 - t - t^2)**|r| expanded on plain integers."""
        for r in range(-60, 1):
            assert conv_fib_row(r, 300) == finite_power_row(-r, 300), r

    @pytest.mark.parametrize("r", [1, 2, 7, 12])
    def test_positive_rows_beyond_the_grids(self, r):
        """For r >= 1, where the power is a full series, the row through n = 150
        equals a fresh row of the three-term step."""
        assert conv_fib_row(r, 150) == convolved._extend_holonomic([1, r], r, 150)


class TestFactorialPowers:
    def test_falling_and_rising_at_five(self):
        assert factorial_powers(5, 2) == (20, 30)

    def test_zeroth_power_is_one(self):
        for n in (-3, 0, 5):
            assert factorial_powers(n, 0) == (1, 1)

    def test_rising_from_one_telescopes_to_factorial(self):
        for k in range(8):
            assert factorial_powers(1, k)[1] == factorial(k)

    def test_falling_of_negative_argument(self):
        # (-1)_l = (-1)^l l!
        for l in range(6):
            assert factorial_powers(-1, l)[0] == (-1) ** l * factorial(l)


class TestTriangleGroundTruth:
    """The coefficients printed by the low-order derivative expansions."""

    def test_rows_two_through_six(self):
        triangle = triangle_recurrence(6)
        assert triangle.row(2) == (1, 2)
        assert triangle.row(3) == (1, 6, 0)
        assert triangle.row(4) == (1, 12, 12)
        assert triangle.row(5) == (1, 20, 60, 0)
        assert triangle.row(6) == (1, 30, 180, 120)

    def test_zero_diagonal_on_odd_rows(self):
        triangle = triangle_recurrence(9)
        for n in (1, 3, 5, 7, 9):
            assert triangle.entry(n, (n + 1) // 2) == 0

    def test_leading_entry_always_one(self):
        triangle = triangle_recurrence(30)
        for n in range(31):
            assert triangle.entry(n, 0) == 1

    def test_entries_nonnegative(self):
        triangle = triangle_recurrence(30)
        for row in triangle.rows:
            assert all(a >= 0 for a in row)

    def test_row_widths(self):
        for triangle in (CoeffTriangle.from_recurrence(60), CoeffTriangle.from_closed_form(60)):
            assert [len(row) for row in triangle.rows] == [(n + 1) // 2 + 1 for n in range(61)]

    def test_recurrence_holds_on_stored_entries(self):
        """a_i(N+1) = 2(N - 2i + 2) a_{i-1}(N) + a_i(N)."""
        triangle = triangle_recurrence(20)
        for n in range(20):
            for i in range(1, (n + 2) // 2 + 1):
                prev = triangle.row(n)
                above = prev[i] if i < len(prev) else 0
                assert triangle.entry(n + 1, i) == 2 * (n - 2 * i + 2) * prev[i - 1] + above


class TestTriangleClosedForm:
    def test_column_zero_is_one(self):
        for n in range(10):
            assert triangle_closed(n, 0) == 1

    def test_column_one_is_n_times_n_minus_one(self):
        for n in (3, 4, 5, 6):
            assert triangle_closed(n, 1) == n * (n - 1)
        assert [triangle_closed(n, 1) for n in (3, 4, 5, 6)] == [6, 12, 20, 30]

    def test_entry_six_three_by_literal_triple_loop(self):
        """2^3 sum_{k3<=1} sum_{k2<=k3+1} sum_{k1<=k2+1} k3 k2 k1 = 120."""
        total = 0
        for k3 in range(1, 6 - 6 + 1 + 1):
            for k2 in range(1, k3 + 2):
                for k1 in range(1, k2 + 2):
                    total += k3 * k2 * k1
        assert 2**3 * total == 120
        assert triangle_closed(6, 3) == 120

    def test_matches_recurrence_through_25(self):
        triangle = triangle_recurrence(25)
        for n in range(26):
            for i in range((n + 1) // 2 + 1):
                assert triangle_closed(n, i) == triangle.entry(n, i)

    def test_deep_entry_within_a_tight_recursion_limit(self):
        """a_119(240) = 240!/(119! 2!) with only 60 frames to spare: the top
        call's chain sum recurses a few frames deep, not two per level."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            value = triangle_closed(240, 119)
        finally:
            sys.setrecursionlimit(limit)
        assert value == factorial(240) // (factorial(119) * factorial(2))

    def test_closed_form_table_matches_recurrence_table(self):
        assert CoeffTriangle.from_closed_form(40) == CoeffTriangle.from_recurrence(40)

    def test_out_of_triangle_rejected(self):
        with pytest.raises(IndexOutOfTriangle):
            triangle_closed(6, 4)
        with pytest.raises(IndexOutOfTriangle):
            triangle_recurrence(6).entry(6, 4)

    def test_with_entry_replaces_one_cell(self):
        triangle = triangle_recurrence(6)
        mutated = triangle.with_entry(5, 2, 61)
        assert mutated.entry(5, 2) == 61
        assert mutated.entry(5, 1) == triangle.entry(5, 1)
        assert triangle.entry(5, 2) == 60  # original untouched


class TestTriangleShape:
    """Row N of a triangle holds 1 to floor((N+1)/2) + 1 entries, or it is not built."""

    @pytest.mark.parametrize("rows", [
        ((1, 5), (1, 0)),  # row 0 holds two entries
        ((1,), (1, 0), (1, 2, 0)),  # row 2 holds three
        ((1,), ()),  # row 1 holds none
    ])
    def test_a_row_that_does_not_fit_is_refused(self, rows):
        with pytest.raises(IndexOutOfTriangle):
            CoeffTriangle(rows)

    def test_a_row_step_one_entry_too_wide_is_a_crash(self, capsys, monkeypatch):
        step = convolved._next_row
        monkeypatch.setattr(convolved, "_next_row", lambda prev, n: step(prev, n) + (0,))
        assert cli.main(["verify", "thm7"]) == 3
        assert "IndexOutOfTriangle: row 1 has 3 entries, not 1..2" in capsys.readouterr().err


class TestPolynomialForms:
    def test_degree_two(self):
        """p_2(x) = <x>_2 + 2<x>_1 = x^2 + 3x."""
        poly = conv_fib_poly(2)
        assert poly.rising == (1, 2)
        assert poly.monomial == Poly([0, 3, 1])

    def test_degrees_zero_and_one(self):
        assert conv_fib_poly(0).monomial == Poly.one()
        assert conv_fib_poly(1).monomial == Poly.x()

    def test_degree_three_at_one(self):
        """<1>_3 + 6<1>_2 = 6 + 12 = 18 = 3! F_3."""
        assert conv_fib_poly(3).evaluate(1) == 18

    def test_monic_of_full_degree(self):
        for n in range(16):
            monomial = conv_fib_poly(n).monomial
            assert monomial.degree == n
            assert monomial.coefficient(n) == 1

    def test_rising_and_monomial_views_agree(self):
        rng = random.Random(41)
        for n in range(10):
            poly = conv_fib_poly(n)
            for _ in range(5):
                v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                assert poly.evaluate(v) == poly.evaluate_rising(v)

    def test_evaluation_matches_integer_values(self):
        for n in range(13):
            poly = conv_fib_poly(n)
            for r in range(-5, 11):
                assert poly.evaluate(r) == conv_fib(n, r)

    def test_matches_rising_factorial_sum_through_120(self):
        """Horner's rule against the defining sum of a_i(N) <x>_{N-i}."""
        triangle = triangle_recurrence(120)
        rising = [rising_factorial_poly(k) for k in range(121)]
        for n in range(121):
            expected = Poly.zero()
            for i, a in enumerate(triangle.row(n)):
                expected = expected + a * rising[n - i]
            assert conv_fib_poly(n, triangle).monomial == expected

    def test_rows_without_a_triangle_match_the_closed_form(self):
        """Row N read in product form, against the nested-sum form."""
        closed = CoeffTriangle.from_closed_form(60)
        for n in range(61):
            assert conv_fib_poly(n).rising == closed.row(n)
        assert conv_fib_poly(40).monomial == conv_fib_poly(40, closed).monomial

    def test_product_row_matches_the_row_step_through_300(self):
        """a_{i+1}(N) = a_i(N) (N-2i)(N-2i-1)/(i+1) against rows rolled by the row step."""
        for n, row in enumerate(convolved._recurrence_rows(300)):
            assert convolved._product_row(n) == row, n

    def test_memory_without_a_triangle_stays_near_the_result(self):
        """Without a triangle only row N is held, not all N + 1 rows."""
        tracemalloc.start()
        try:
            poly = conv_fib_poly(200)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert poly.monomial.degree == 200
        assert peak < 3 * held

    def test_json_dict(self):
        doc = conv_fib_poly(2).to_json_dict()
        assert doc == {"N": 2, "rising": ["1", "2"], "monomial": ["0", "3", "1"]}


class TestPolynomialOracle:
    def test_degree_two(self):
        assert conv_fib_poly_oracle(2, 2) == Poly([0, 3, 1])

    def test_degree_zero(self):
        assert conv_fib_poly_oracle(0, 0) == Poly.one()

    def test_degree_five_at_one(self):
        """p_5(1) = 5! F_5 = 960."""
        assert conv_fib_poly_oracle(5, 5).evaluate(1) == 960

    def test_matches_triangle_construction(self):
        for n in range(13):
            assert conv_fib_poly_oracle(n, n) == conv_fib_poly(n).monomial

    def test_stable_under_larger_order(self):
        assert conv_fib_poly_oracle(4, 4) == conv_fib_poly_oracle(4, 9)

    def test_warm_expansion_reads_as_cold(self):
        conv_fib_poly_genfun(12)
        warm = [conv_fib_poly_oracle(n, 12) for n in range(13)]
        with cold_genfun():
            assert warm == [conv_fib_poly_oracle(n, n) for n in range(13)]

    def test_short_order_rejected(self):
        with pytest.raises(TruncationTooShort):
            conv_fib_poly_oracle(5, 4)


@functools.cache
def cold_expansion(order: int) -> Series:
    """conv_fib_poly_genfun(order) built from no kept expansion, once per order."""
    with cold_genfun():
        return conv_fib_poly_genfun(order)


class TestSharedExpansion:
    """conv_fib_poly_genfun keeps the largest expansion asked for and answers
    every order from it; each answer equals a build from nothing."""

    @pytest.mark.parametrize("warm_up", [(40,), (20, 40)])
    def test_every_smaller_order_reads_as_cold(self, warm_up):
        with cold_genfun():
            for order in warm_up:
                conv_fib_poly_genfun(order)
            for k in range(41):
                assert conv_fib_poly_genfun(k) == cold_expansion(k), k

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 60), st.integers(0, 60))
    def test_an_extended_expansion_reads_as_cold(self, a, b):
        """Order a and then order b >= a: the kept expansion is extended to
        b, and it equals a build from nothing at b."""
        a, b = sorted((a, b))
        with cold_genfun():
            conv_fib_poly_genfun(a)
            assert conv_fib_poly_genfun(b) == cold_expansion(b)

    def test_a_shuffled_pass_computes_each_coefficient_once(self, monkeypatch):
        """The orders one ``symbolic`` benchmark pass asks for, shuffled: the
        oracle at N = 2, 4, .., 38 and thm6 at order 3N for N <= 10.  Each
        coefficient of the exp over Q[x] past t^0 is one sum of products, and
        each is computed once, however often a larger order is asked for."""
        orders = [*range(2, 40, 2), *range(3, 31, 3)]
        random.Random(1).shuffle(orders)
        sums = []
        total = series.sum_of_products

        def counted(terms):
            sums.append(terms)
            return total(terms)

        monkeypatch.setattr(series, "sum_of_products", counted)
        with cold_genfun():
            for order in orders:
                conv_fib_poly_genfun(order)
        assert len(sums) == max(orders)

    def test_a_rise_keeps_only_the_log_and_the_expansion(self):
        """After orders 30 and then 40 the kept state is the pair (log over Q,
        F), and their coefficients through t^30 are the very objects kept
        before the rise."""
        with cold_genfun():
            conv_fib_poly_genfun(30)
            log, gen = convolved._genfun
            conv_fib_poly_genfun(40)
            kept = convolved._genfun
        assert isinstance(kept, tuple) and len(kept) == 2
        for before, after in zip((log, gen), kept):
            assert before.order == 30 and after.order == 40
            assert all(c is d for c, d in zip(before.coefficients, after.coefficients[:31]))
        assert kept == (base_series(40).log(), cold_expansion(40))

    def test_a_rise_computes_only_the_new_log_coefficients(self, monkeypatch):
        """From order 30 to 40, the log of 1 - t - t^2 over Q runs its
        recurrence at t^31 .. t^40 alone; the kept log coefficients through
        t^30 are the very objects kept before."""
        indices = []
        dot = Series._dot

        def counted(self, support, seq, n, top=None):
            if not self.is_poly_ring():
                indices.append(n)
            return dot(self, support, seq, n, top)

        with cold_genfun():
            conv_fib_poly_genfun(30)
            log, _ = convolved._genfun
            monkeypatch.setattr(Series, "_dot", counted)
            conv_fib_poly_genfun(40)
            monkeypatch.undo()
            new_log, gen = convolved._genfun
        assert indices == list(range(31, 41))
        kept, extended = log.coefficients, new_log.coefficients
        assert len(kept) == 31 and len(extended) == 41
        assert all(c is d for c, d in zip(kept, extended))
        assert new_log == base_series(40).log()
        assert gen == cold_expansion(40)

    @pytest.mark.parametrize("warm_up", [(), (40,)])
    def test_negative_order_refused(self, warm_up):
        with cold_genfun():
            for order in warm_up:
                conv_fib_poly_genfun(order)
            with pytest.raises(UsageError, match=r"^order must be >= 0, got -1$"):
                conv_fib_poly_genfun(-1)
            with pytest.raises(UsageError, match=r"^order must be >= 0, got -1$"):
                verify_cor8(n_max=-1)

    def test_parallel_orders_read_as_cold(self, monkeypatch):
        """Four threads ask at once for orders that rise and fall from no kept
        expansion.  Each gets a cold build's series; under the lock, order 40
        is built once and no smaller build replaces it."""
        orders = (10, 40, 25, 40)
        start = threading.Barrier(len(orders), timeout=10)
        built = count_exp(monkeypatch)

        def read(order):
            start.wait()
            return conv_fib_poly_genfun(order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            with cold_genfun(), ThreadPoolExecutor(max_workers=len(orders)) as pool:
                results = list(pool.map(read, orders))
                kept = convolved._genfun[1].order
        finally:
            sys.setswitchinterval(interval)
        assert built.count(40) == 1 and kept == 40, built
        for order, result in zip(orders, results):
            assert result == cold_expansion(order), order


class TestRisingFactorialPoly:
    def test_first_few(self):
        assert rising_factorial_poly(0) == Poly.one()
        assert rising_factorial_poly(1) == Poly.x()
        assert rising_factorial_poly(2) == Poly([0, 1, 1])  # x(x+1)

    def test_evaluation_matches_numeric_rising(self):
        for k in range(7):
            poly = rising_factorial_poly(k)
            for n in range(-4, 7):
                assert poly.evaluate(n) == factorial_powers(n, k)[1]

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, 40), v=st.integers(-50, 50))
    def test_evaluation_matches_numeric_rising_random(self, k, v):
        assert rising_factorial_poly(k).evaluate(v) == factorial_powers(v, k)[1]
