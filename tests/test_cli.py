"""Golden-run checks for the command-line surface: formats, exit codes,
determinism, and lossless round-trips of every emitted number."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from convfib import cli
from convfib.report import VerificationReport

GOLDEN = Path(__file__).resolve().parent / "golden"


def round_trips(text: str, pattern: str, kind: type) -> bool:
    """``text`` is a plain decimal (or num/den) string that parses back to itself."""
    return re.fullmatch(pattern, text) is not None and str(kind(text)) == text


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestFib:
    def test_first_dozen_csv(self, capsys):
        code, out = run_cli(capsys, "fib", "--from", "0", "--to", "11", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,F"
        assert len(lines) == 13
        assert lines[-1] == "11,144"

    def test_single_row(self, capsys):
        code, out = run_cli(capsys, "fib", "--from", "0", "--to", "0")
        assert code == 0
        assert out == "n,F\n0,1\n"

    def test_negative_range_uses_backward_recurrence(self, capsys):
        code, out = run_cli(capsys, "fib", "--from", "-5", "--to", "-1")
        assert code == 0
        assert out.splitlines()[1:] == ["-5,-3", "-4,2", "-3,-1", "-2,1", "-1,0"]

    def test_json_rows(self, capsys):
        code, out = run_cli(capsys, "fib", "--from", "10", "--to", "11", "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"n": 10, "F": "89"}, {"n": 11, "F": "144"}]

    def test_reversed_range_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "fib", "--from", "5", "--to", "1")
        assert code == 2


class TestTable:
    def test_triangle_contains_row_six(self, capsys):
        code, out = run_cli(capsys, "table", "--mode", "triangle", "--n-max", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,i,a"
        assert "6,3,120" in lines

    def test_triangle_rows_in_lexicographic_order(self, capsys):
        _, out = run_cli(capsys, "table", "--mode", "triangle", "--n-max", "4")
        keys = [tuple(map(int, line.split(",")[:2])) for line in out.splitlines()[1:]]
        assert keys == sorted(keys)

    def test_values_column_is_scaled_fibonacci(self, capsys):
        code, out = run_cli(capsys, "table", "--mode", "values", "--r", "1", "--n-max", "5")
        assert code == 0
        assert out.splitlines() == ["n,r,p", "0,1,1", "1,1,1", "2,1,4", "3,1,18", "4,1,120", "5,1,960"]

    def test_poly_json(self, capsys):
        code, out = run_cli(capsys, "table", "--mode", "poly", "--n", "2")
        assert code == 0
        assert json.loads(out) == {"N": 2, "rising": ["1", "2"], "monomial": ["0", "3", "1"]}

    def test_poly_rejects_csv(self, capsys):
        code, _ = run_cli(capsys, "table", "--mode", "poly", "--n", "2", "--format", "csv")
        assert code == 2

    def test_poly_requires_index(self, capsys):
        code, _ = run_cli(capsys, "table", "--mode", "poly")
        assert code == 2


class TestVerify:
    def test_single_identity_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "cor2", "--n-max", "8", "--r-max", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["identity"] == "cor2"
        assert doc["status"] == "pass"
        assert doc["counterexample"] is None

    def test_all_identities_small_grids(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "all",
            "--n-max", "6", "--N-max", "4", "--k-max", "4", "--r-max", "2", "--order", "10",
        )
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert [d["identity"] for d in docs] == list(cli.IDENTITY_NAMES)
        assert all(d["status"] == "pass" for d in docs)

    def test_parallel_jobs_give_same_output(self, capsys):
        args = ["verify", "all", "--n-max", "5", "--N-max", "3", "--k-max", "3",
                "--r-max", "2", "--order", "8"]
        code_serial, out_serial = run_cli(capsys, *args)
        code_parallel, out_parallel = run_cli(capsys, *args, "--jobs", "2")
        assert code_serial == code_parallel == 0
        assert out_serial == out_parallel

    def test_unknown_identity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nosuch"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_bad_order_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "verify", "thm6", "--N-max", "10", "--order", "5")
        assert code == 2

    def test_negative_table_bound_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "table", "--mode", "values", "--n-max", "-1")
        assert code == 2

    def test_full_default_suite_passes(self, capsys):
        """`verify all` with no overrides is the complete default-grid run;
        its output is pinned byte for byte."""
        code, out = run_cli(capsys, "verify", "all")
        assert code == 0
        assert out.encode() == (GOLDEN / "verify_all.ndjson").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "cor8", "--x-min", "3", "--x-max", "2"),
            ("verify", "prop1", "--x-min", "5", "--x-max", "1"),
            ("verify", "thm7", "--k-max", "-1"),
            ("verify", "thm3", "--r-max", "0"),
            ("verify", "genfun", "--order", "10", "--jobs", "0"),
        ],
    )
    def test_empty_grid_or_bad_jobs_is_usage_error(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code = cli.main(["verify", "genfun", "--order", "10", "--out", str(target)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.exists()

    def test_out_is_checked_before_any_work(self, capsys, monkeypatch, tmp_path):
        def never(name, **kw):
            raise AssertionError("a verifier ran before --out was checked")

        monkeypatch.setattr(cli, "run_identity", never)
        code = cli.main(["verify", "all", "--out", str(tmp_path / "missing" / "x")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write --out: ")

    def test_out_is_untouched_by_a_usage_error(self, capsys, tmp_path):
        kept = tmp_path / "kept.ndjson"
        kept.write_text("earlier output\n")
        fresh = tmp_path / "fresh.ndjson"
        for target in (kept, fresh):
            code = cli.main(["verify", "prop1", "--x-min", "5", "--x-max", "1", "--out", str(target)])
            assert code == 2
        capsys.readouterr()
        assert kept.read_text() == "earlier output\n"
        assert not fresh.exists()

    def test_crash_exits_three(self, capsys, monkeypatch):
        def crash(name, **kw):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_identity", crash)
        code = cli.main(["verify", "cor2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "error: internal: RuntimeError: boom"

    def test_worker_count_is_clamped(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert cli._worker_count(3, 10) == 3
        assert cli._worker_count(8, 10) == 4
        assert cli._worker_count(8, 1) == 1
        with pytest.raises(ValueError):
            cli._worker_count(0, 10)

    def test_failure_exits_one(self, capsys, monkeypatch):
        broken = VerificationReport(
            "cor2", {"n_max": 1}, 1, "fail",
            {"params": {"n": 1}, "lhs": "1", "rhs": "2"},
        )
        monkeypatch.setattr(cli, "run_identity", lambda name, **kw: broken)
        code, out = run_cli(capsys, "verify", "cor2")
        assert code == 1
        assert json.loads(out)["counterexample"]["params"] == {"n": 1}

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.ndjson"
        code, out = run_cli(capsys, "verify", "genfun", "--order", "10", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["status"] == "pass"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("fib", "--from", "-8", "--to", "30"),
            ("fib", "--from", "0", "--to", "20", "--format", "json"),
            ("table", "--mode", "triangle", "--n-max", "12"),
            ("table", "--mode", "values", "--r", "3", "--n-max", "15", "--format", "json"),
            ("table", "--mode", "poly", "--n", "7"),
            ("verify", "cor9", "--N-max", "12"),
        ],
    )
    def test_identical_arguments_identical_bytes(self, capsys, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second


class TestRoundTrip:
    def test_fib_csv_values_round_trip(self, capsys):
        _, out = run_cli(capsys, "fib", "--from", "0", "--to", "120")
        for line in out.splitlines()[1:]:
            n, value = line.split(",")
            assert round_trips(value, r"-?\d+", int)
            assert int(n) <= 120

    def test_poly_json_values_round_trip(self, capsys):
        _, out = run_cli(capsys, "table", "--mode", "poly", "--n", "9")
        doc = json.loads(out)
        for text in doc["rising"] + doc["monomial"]:
            assert round_trips(text, r"-?\d+(/\d+)?", Fraction)

    def test_triangle_csv_values_round_trip(self, capsys):
        _, out = run_cli(capsys, "table", "--mode", "triangle", "--n-max", "20")
        for line in out.splitlines()[1:]:
            _, _, a = line.split(",")
            assert round_trips(a, r"-?\d+", int)
