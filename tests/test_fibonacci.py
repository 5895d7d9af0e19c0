"""Fibonacci numbers with F_0 = F_1 = 1, both index directions."""

from __future__ import annotations

import ast
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convfib import fibonacci
from convfib.fibonacci import fib, fib_pure
from convfib.identities import fib_genfun_check
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
        """The walk against fast doubling, up and down from F_0."""
        for n in range(-30, 61):
            assert fib_pure(n) == fib(n)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-3000, 3000))
    def test_fast_doubling_matches_the_walk(self, n):
        assert fib(n) == fib_pure(n)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-20_000, 20_000))
    def test_three_term_recurrence_at_drawn_indices(self, n):
        assert fib(n) == fib(n - 1) + fib(n - 2)


class TestNoStoredValues:
    def test_large_value_is_not_kept_once_dropped(self):
        """fib(50_000) holds F_50000 only while the caller does."""
        tracemalloc.start()
        try:
            value = fib(50_000)
            assert value.bit_length() > 34_000
            del value
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1 << 20


def test_module_imports_nothing_from_the_package():
    """The Fibonacci numbers are the bottom layer: no series, no verifier."""
    nodes = list(ast.walk(ast.parse(Path(fibonacci.__file__).read_text(encoding="utf-8"))))
    imported = [a.name for node in nodes if isinstance(node, ast.Import) for a in node.names]
    imported += [
        "." * node.level + (node.module or "") for node in nodes if isinstance(node, ast.ImportFrom)
    ]
    assert [name for name in imported if name.startswith((".", "convfib"))] == []


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

    @pytest.mark.parametrize("at", [0, 1, 5])
    def test_recurrence_residues_of_a_perturbed_inverse(self, monkeypatch, at):
        """With the inverse's t^at coefficient off by 7, every cell comes in
        the same order, and every recurrence residue is that of the three
        relations F_0 = 1, F_1 - F_0 = 0, F_k - F_{k-1} - F_{k-2} = 0."""
        inverse = Series.inverse

        def perturbed(series):
            coeffs = list(inverse(series).coefficients)
            coeffs[at] += 7
            return Series(coeffs)

        monkeypatch.setattr(Series, "inverse", perturbed)
        order = 12
        cells = list(fib_genfun_check.__wrapped__(order))
        coeffs = [lhs for params, lhs, _ in cells if params["check"] == "coefficient"]
        expected = [coeffs[0] - 1, coeffs[1] - coeffs[0]]
        expected += [coeffs[k] - coeffs[k - 1] - coeffs[k - 2] for k in range(2, order + 1)]
        assert [params for params, _, _ in cells] == [
            {"k": k, "check": check} for check in ("coefficient", "recurrence") for k in range(order + 1)
        ]
        assert [(lhs, rhs) for params, lhs, rhs in cells if params["check"] == "recurrence"] == [
            (residue, 0) for residue in expected
        ]
        assert any(expected)

    def test_report_shape(self):
        report = fib_genfun_check(5)
        doc = report.to_json_dict()
        assert doc["identity"] == "genfun"
        assert doc["grid"] == {"order": 5}
        assert doc["status"] == "pass"
        assert doc["counterexample"] is None


class TestTableConcurrency:
    def test_parallel_reads_and_extensions(self):
        """Hammer fib from several threads: with no table to extend, every
        read is right whatever the other threads read."""
        indexes = [n for n in range(-120, 121)] * 4

        def worker(n: int) -> tuple[int, int]:
            return n, fib(n)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, indexes))
        assert [n for n, _ in results] == indexes
        for n, value in results:
            assert value == fib_pure(n)
