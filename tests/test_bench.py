"""The benchmark harness: the correctness gate comes before any timing."""

from __future__ import annotations

import pytest

from convfib import bench, cli


class TestRunBench:
    def test_rows_cover_every_algorithm_and_cell(self):
        rows = bench.run_bench([6, 9], depth=3, triangle_max=15, min_seconds=0.002, repeats=1)
        labels = [(r.algorithm, r.params) for r in rows]
        for n in (6, 9):
            for name in bench.VALUE_ALGORITHMS:
                assert (name, f"n={n};r=3") in labels
        for name in bench.TRIANGLE_ALGORITHMS:
            assert (name, "N_max=15") in labels
        assert all(r.seconds > 0 for r in rows)

    def test_empty_grid_produces_no_rows(self):
        assert bench.run_bench([], depth=4, triangle_max=None) == []

    def test_value_disagreement_refuses_to_time(self, monkeypatch):
        monkeypatch.setattr(bench, "conv_fib_by_nested_sum", lambda n, r: -1)
        with pytest.raises(bench.CrossCheckFailure):
            bench.run_bench([5], depth=2, triangle_max=None, min_seconds=0.001, repeats=1)

    def test_triangle_disagreement_refuses_to_time(self, monkeypatch):
        from convfib.convolved import CoeffTriangle

        broken = CoeffTriangle.from_recurrence(10).with_entry(6, 3, 121)
        monkeypatch.setattr(bench.CoeffTriangle, "from_closed_form", classmethod(lambda cls, n: broken))
        with pytest.raises(bench.CrossCheckFailure):
            bench.run_bench([], depth=2, triangle_max=10, min_seconds=0.001, repeats=1)

    def test_added_disagreeing_algorithm_refuses_to_time(self, monkeypatch):
        monkeypatch.setitem(bench.VALUE_ALGORITHMS, "wrong", lambda n, d: -1)
        with pytest.raises(bench.CrossCheckFailure):
            bench.run_bench([5], depth=2, triangle_max=None, min_seconds=0.001, repeats=1)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            bench.run_bench([5], depth=0)


class TestCliBench:
    def test_header_only_for_empty_grid(self, capsys):
        # the --min-time-ms ceiling itself is accepted
        code = cli.main(["bench", "--sizes", "", "--skip-triangle", "--min-time-ms", "10000"])
        assert code == 0
        assert capsys.readouterr().out == "algorithm,params,seconds\n"

    def test_csv_shape(self, capsys):
        code = cli.main([
            "bench", "--sizes", "5,8", "--r", "2", "--skip-triangle",
            "--min-time-ms", "1", "--repeats", "1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "algorithm,params,seconds"
        assert len(lines) == 1 + 2 * len(bench.VALUE_ALGORITHMS)
        for line in lines[1:]:
            algorithm, params, seconds = line.split(",")
            assert algorithm in bench.VALUE_ALGORITHMS
            assert params in ("n=5;r=2", "n=8;r=2")
            assert float(seconds) > 0

    def test_nested_sum_deeper_than_the_recursion_limit(self, capsys):
        # p_1(1501) as 1,500 nested Fibonacci sums
        argv = ["bench", "--sizes", "1", "--r", "1500", "--skip-triangle",
                "--repeats", "1", "--min-time-ms", "0"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            f"{name},n=1;r=1500" for name in bench.VALUE_ALGORITHMS
        ]

    def test_deterministic_modulo_timing_column(self, capsys):
        argv = ["bench", "--sizes", "4,6", "--r", "2", "--triangle-max", "8",
                "--min-time-ms", "1", "--repeats", "1"]
        outputs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
        stripped = [
            [line.rsplit(",", 1)[0] for line in out.splitlines()] for out in outputs
        ]
        assert stripped[0] == stripped[1]
