"""Fibonacci numbers with F_0 = F_1 = 1, both index directions."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from convfib.fibonacci import FibTable, fib, fib_genfun_check, fib_pure
from convfib.series import Series


class TestBootstrap:
    def test_first_twelve_values(self):
        assert [fib(n) for n in range(12)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]

    def test_seed_values(self):
        assert fib(0) == 1
        assert fib(1) == 1


class TestNegativeIndices:
    def test_backward_recurrence_values(self):
        """Running F_{n-2} = F_n - F_{n-1} backward from the seeds."""
        assert fib(-1) == 0
        assert fib(-2) == 1
        assert fib(-3) == -1
        assert fib(-4) == 2
        assert fib(-5) == -3

    def test_three_term_identity_across_zero(self):
        for n in range(-50, 101):
            assert fib(n) == fib(n - 1) + fib(n - 2)

    def test_reflection_law(self):
        """F_{-n} = (-1)^n F_{n-2} under this indexing."""
        for n in range(1, 51):
            assert fib(-n) == (-1) ** n * fib(n - 2)


class TestGeneratingFunction:
    def test_series_coefficients_match_table(self):
        series = Series.from_polynomial((1, -1, -1), 200).inverse()
        for n, c in enumerate(series.coefficients):
            assert c == fib(n)


class TestPureFallback:
    def test_matches_table_both_directions(self):
        for n in range(-30, 61):
            assert fib_pure(n) == fib(n)


class TestGenfunCheck:
    def test_minimal_order(self):
        report = fib_genfun_check(2)
        assert report.passed
        assert report.cells == 6

    def test_default_sized_orders(self):
        assert fib_genfun_check(12).passed
        assert fib_genfun_check(100).passed

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            fib_genfun_check(1)

    def test_report_shape(self):
        report = fib_genfun_check(5)
        doc = report.to_json_dict()
        assert doc["identity"] == "genfun"
        assert doc["grid"] == {"order": 5}
        assert doc["status"] == "pass"
        assert doc["counterexample"] is None


class TestTableConcurrency:
    def test_parallel_reads_and_extensions(self):
        """Hammer one table from several threads; values stay consistent."""
        table = FibTable()
        indexes = [n for n in range(-120, 121)] * 4

        def worker(n: int) -> tuple[int, int]:
            return n, table.value(n)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, indexes))
        for n, value in results:
            assert value == fib_pure(n)
        lo, hi = table.bounds
        assert lo <= -120 and hi >= 120

    def test_reader_never_sees_an_index_before_its_value(self):
        """Each store reads every index inside the bounds: the table stores
        a value before its bound admits the index, in both directions."""
        table = FibTable()
        probed = []

        class Probing(dict):
            def __setitem__(self, key, value):
                lo, hi = table.bounds
                probed.extend((k, table.value(k)) for k in range(lo, hi + 1))
                super().__setitem__(key, value)

        table._values = Probing(table._values)
        assert table.value(8) == fib_pure(8)
        assert table.value(-8) == fib_pure(-8)
        assert len(probed) > 16
        assert all(value == fib_pure(k) for k, value in probed)
