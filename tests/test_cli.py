"""Golden-run checks for the command-line surface: formats, exit codes,
determinism, and lossless round-trips of every emitted number."""

from __future__ import annotations

import argparse
import json
import multiprocessing
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from convfib import bench, cli, fibonacci, identities
from convfib.fibonacci import fib, fib_pure
from convfib.identities import IDENTITY_NAMES
from convfib.report import UsageError, VerificationReport

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def round_trips(text: str, pattern: str, kind: type) -> bool:
    """``text`` is a plain decimal (or num/den) string that parses back to itself."""
    return re.fullmatch(pattern, text) is not None and str(kind(text)) == text


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def allow_cores(monkeypatch, count: int) -> None:
    """Run as if the process's affinity mask allowed ``count`` cores."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


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

    def test_values_beyond_4300_digits_are_written_in_full(self, capsys):
        """F_20600 has 4,306 digits, past CPython's default int/str limit."""
        code, out = run_cli(capsys, "fib", "--from", "20600", "--to", "20600")
        assert code == 0
        n, value = out.splitlines()[1].split(",")
        assert n == "20600"
        assert re.fullmatch(r"\d{4306}", value)
        assert int(value[-18:]) == fib(20600) % 10**18

    @pytest.mark.parametrize("start", [9, -7])
    def test_range_is_seeded_by_one_walk(self, capsys, monkeypatch, start):
        """The two running values start from two reads, fib(--from) and
        fib(--from + 1); the rows after them are sums, checked against the
        plain walk."""
        reads = []

        def recording(n):
            reads.append(n)
            return fibonacci.fib(n)

        monkeypatch.setattr(cli, "fib", recording)
        code, out = run_cli(capsys, "fib", "--from", str(start), "--to", str(start + 2))
        assert code == 0
        assert reads == [start, start + 1]
        assert out == "n,F\n" + "".join(f"{n},{fib_pure(n)}\n" for n in range(start, start + 3))

    @pytest.mark.parametrize(
        "argv", [("fib", "--from", "0", "--to", "3"), ("fib", "--from", "3", "--to", "0")], ids=["ok", "usage-error"]
    )
    def test_caller_digit_limit_is_restored(self, capsys, argv):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            cli.main(list(argv))
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(previous)
        capsys.readouterr()


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


# Table and fib output pinned byte for byte: file name under tests/golden -> argv.
GOLDEN_TABLES = {
    "table_triangle_n-max_30.csv": "table --mode triangle --n-max 30",
    "table_triangle_n-max_8.json": "table --mode triangle --n-max 8 --format json",
    "table_poly_n_20.json": "table --mode poly --n 20",
    "table_poly_n_60.json": "table --mode poly --n 60",
    **{
        f"table_values_r_{r}_n-max_60.csv": f"table --mode values --r={r} --n-max 60"
        for r in (-9, 0, 1, 9)
    },
    "fib_from_-30_to_90.csv": "fib --from=-30 --to 90",
    "fib_from_-3_to_12.json": "fib --from=-3 --to 12 --format json",
}


@pytest.mark.parametrize("name", GOLDEN_TABLES)
def test_table_matches_golden_file(capsys, name):
    code, out = run_cli(capsys, *GOLDEN_TABLES[name].split())
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


class TestVerify:
    def test_single_identity_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "cor2", "--n-max", "8", "--r-max", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["identity"] == "cor2"
        assert doc["status"] == "pass"
        assert doc["counterexample"] is None

    @pytest.mark.parametrize("argv", [
        ("verify", "thm5", "--n-max", "0", "--r-max", "900"),
        ("verify", "cor2", "--n-max", "0", "--r-max", "1200"),
    ])
    def test_nested_sums_deeper_than_the_recursion_limit_pass(self, capsys, argv):
        # up to 900 and 1,199 levels, each one entry on the sum's own stack
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["status"] == "pass"

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

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="patched verifiers reach only forked workers",
    )
    def test_parallel_run_stops_at_the_first_error(self, capsys, monkeypatch, tmp_path):
        """The first error ends every worker: no verifier runs to its end.

        genfun refuses once another verifier has started.  Every other
        verifier leaves a ``started`` marker, then waits for an event that
        is never set and leaves a ``finished`` marker only if that wait
        runs out, so a worker left alive shows as a finished verifier.
        """
        one_started = multiprocessing.Event()
        never = multiprocessing.Event()

        def refuse(**params):
            one_started.wait(30)
            raise UsageError("refused")

        def marking(name):
            def verifier(**params):
                (tmp_path / f"{name}.started").touch()
                one_started.set()
                never.wait(30)
                (tmp_path / f"{name}.finished").touch()
                return VerificationReport(name, {}, 1, "pass")

            return verifier

        allow_cores(monkeypatch, 2)
        monkeypatch.setattr(identities, "fib_genfun_check", refuse)
        for name in IDENTITY_NAMES[1:]:
            monkeypatch.setattr(identities, f"verify_{name}", marking(name))
        assert cli.main(["verify", "all", "--jobs", "2"]) == 2
        assert capsys.readouterr().err == "error: refused\n"
        assert 0 < len(list(tmp_path.glob("*.started"))) < len(IDENTITY_NAMES) - 1
        assert list(tmp_path.glob("*.finished")) == []
        assert multiprocessing.active_children() == []

    def test_unknown_identity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nosuch"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_full_default_suite_passes(self, capsys):
        """`verify all` with no overrides is the complete default-grid run;
        its output is pinned byte for byte."""
        code, out = run_cli(capsys, "verify", "all")
        assert code == 0
        assert out.encode() == (GOLDEN / "verify_all.ndjson").read_bytes()

    def test_timings_leave_stdout_byte_identical(self, capsys):
        """--timings writes one stderr line per identity; stdout stays the golden file."""
        assert cli.main(["verify", "all", "--timings"]) == 0
        captured = capsys.readouterr()
        golden = (GOLDEN / "verify_all.ndjson").read_bytes()
        assert captured.out.encode() == golden
        pattern = r"(\w+): \d+\.\d{3} s, (\d+) cells"
        timed = [re.fullmatch(pattern, line) for line in captured.err.splitlines()]
        assert all(timed), captured.err
        reports = [json.loads(line) for line in golden.splitlines()]
        assert [m.groups() for m in timed] == [(d["identity"], str(d["cells"])) for d in reports]

    def test_parallel_run_reports_timings_too(self, capsys):
        args = ["verify", "all", "--n-max", "5", "--N-max", "3", "--k-max", "3",
                "--r-max", "2", "--order", "8", "--jobs", "2"]
        code, out = run_cli(capsys, *args)
        assert code == 0
        assert cli.main([*args, "--timings"]) == 0
        captured = capsys.readouterr()
        assert captured.out == out
        names = [line.split(":")[0] for line in captured.err.splitlines()]
        assert names == list(IDENTITY_NAMES)

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

    def test_internal_value_error_is_a_crash(self, capsys, monkeypatch):
        """A ValueError that is not a UsageError is a bug, not a malformed request."""
        def broken(**kw):
            raise ValueError("bug inside a verifier")

        monkeypatch.setattr(identities, "verify_cor2", broken)
        code = cli.main(["verify", "cor2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "Traceback (most recent call last)" in captured.err
        assert captured.err.splitlines()[-1] == "error: internal: ValueError: bug inside a verifier"

    def test_worker_count_is_clamped(self, monkeypatch):
        """Where the platform has no affinity mask, os.cpu_count() caps the workers."""
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert cli._worker_count(3, 10) == 3
        assert cli._worker_count(8, 10) == 4
        assert cli._worker_count(8, 1) == 1
        with pytest.raises(ValueError):
            cli._worker_count(0, 10)

    @pytest.mark.parametrize("cores", [1, 3])
    def test_worker_count_is_capped_by_the_affinity_mask(self, monkeypatch, cores):
        """The cores this process may run on count, not those of the host."""
        allow_cores(monkeypatch, cores)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert cli._worker_count(8, 10) == cores
        assert cli._worker_count(2, 10) == min(2, cores)
        assert cli._worker_count(8, 1) == 1

    def test_one_allowed_core_starts_no_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started on one allowed core")

        allow_cores(monkeypatch, 1)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        code, out = run_cli(capsys, "verify", "all", "--jobs", "2")
        assert code == 0
        assert out.encode() == (GOLDEN / "verify_all.ndjson").read_bytes()

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


# (argv, exit code, stderr): every malformed request exits 2, and a bench
# cross-check that finds a disagreement exits 1.  {missing} is a path in a
# directory that does not exist.
REFUSALS = [
    ("fib --from 5 --to 1", 2, "--from 5 exceeds --to 1"),
    ("table --mode poly", 2, "--mode poly requires --n"),
    ("table --mode poly --n 2 --format csv", 2, "the polynomial table is JSON only"),
    ("table --mode values --n-max -1", 2, "n_max must be >= 0"),
    ("table --mode triangle --n-max -1", 2, "n_max must be >= 0"),
    ("table --mode poly --n -1", 2, "n must be >= 0"),
    ("verify cor8 --x-min 3 --x-max 2", 2, "x_min 3 exceeds x_max 2"),
    ("verify prop1 --x-min 5 --x-max 1", 2, "x_min 5 exceeds x_max 1"),
    ("verify all --jobs 2 --x-min 5 --x-max 1", 2, "x_min 5 exceeds x_max 1"),
    (
        "verify thm7 --k-max -1", 2,
        "thm7: the grid {'k_max': -1, 'n_max': 8, 'x_values': [1, 2, 3, 4, 5]} has no cells to check",
    ),
    (
        "verify thm3 --r-max 0", 2,
        "thm3: the grid {'n_max': 40, 'r_max': 0, 'x_values': "
        "[-2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8]} has no cells to check",
    ),
    ("verify genfun --order 10 --jobs 0", 2, "--jobs must be >= 1, got 0"),
    ("verify cor9 --N-max -1", 2, "n_max must be >= 0"),
    ("verify thm6 --N-max 10 --order 5", 2, "need order >= 10, got 5"),
    ("verify genfun --order 1", 2, "the generating-function check needs order >= 2"),
    (
        "verify genfun --order 10 --out {missing}", 2,
        "cannot write --out: [Errno 2] No such file or directory: '{missing}'",
    ),
    ("bench --sizes -1", 2, "--sizes must be >= 0, got -1"),
    ("bench --repeats 0", 2, "--repeats must be >= 1, got 0"),
    ("bench --r 0", 2, "--r must be >= 1, got 0"),
    ("bench --triangle-max -1", 2, "--triangle-max must be >= 0, got -1"),
    ("bench --sizes 5 --r 0 --skip-triangle", 2, "--r must be >= 1, got 0"),
    # the last occurrence of a flag wins over the valid value before it
    ("bench --sizes 5 --r 2 --triangle-max 4 --sizes -1", 2, "--sizes must be >= 0, got -1"),
    ("bench --sizes 5 --r 2 --triangle-max 4 --repeats 0", 2, "--repeats must be >= 1, got 0"),
    ("bench --sizes 5 --r 2 --triangle-max 4 --r 0", 2, "--r must be >= 1, got 0"),
    (
        "bench --sizes 5 --r 2 --triangle-max 4 --triangle-max -1", 2,
        "--triangle-max must be >= 0, got -1",
    ),
    ("bench --min-time-ms nan", 2, "--min-time-ms must be a finite number >= 0, got nan"),
    ("bench --min-time-ms inf", 2, "--min-time-ms must be a finite number >= 0, got inf"),
    ("bench --min-time-ms -1", 2, "--min-time-ms must be a finite number >= 0, got -1.0"),
    ("bench --min-time-ms 1e9", 2, "--min-time-ms must be at most 10000, got 1000000000.0"),
    (
        "bench --sizes 5 --r 2 --skip-triangle", 1,
        "value algorithms disagree at n=5, r=2: {'nested-sum': -1, "
        "'falling-recurrence': 13320, 'series-power': 13320, 'holonomic': 13320}",
    ),
]


@pytest.mark.parametrize("argv, code, message", REFUSALS, ids=[argv for argv, _, _ in REFUSALS])
def test_refusal_exit_code_and_message(capsys, monkeypatch, tmp_path, argv, code, message):
    # Only the last case gets as far as the cross-check that this breaks.
    monkeypatch.setattr(bench, "conv_fib_by_nested_sum", lambda n, r: -1)
    missing = str(tmp_path / "missing" / "x")
    assert cli.main(argv.replace("{missing}", missing).split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.replace('{missing}', missing)}\n"


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


class TestParser:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        argv = ["table", "--mode", "poly", "--n", "2"]
        assert cli.main(argv) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert cli.main(argv) == 0
        assert cli.main(argv) == 0
        assert built == []
        capsys.readouterr()


# Every layer boundary that the benchmark's tracer (perfbench/tracing.py)
# wraps must exist: install() fails on a missing name.  It patches classes
# process-wide, so it runs in a child interpreter.
TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer
from convfib import bench, cli, fibonacci, identities
from convfib.fibonacci import fib
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "thm6", "--N-max", "2", "--order", "6"])
print(json.dumps({"code": code, "calls": tracer.calls}))
"""


def test_traced_boundaries_exist():
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["code"] == 0
    assert result["calls"]["identities.thm6"] == 1  # through run_identity's module global


# A command's own modules load when it runs, not when the CLI is imported.
IMPORT_CLI = """
import sys
sys.path.insert(0, sys.argv[1])
import convfib.cli
print(sorted(name for name in ("convfib.bench", "multiprocessing", "traceback") if name in sys.modules))
"""


def test_importing_the_cli_loads_no_command_module():
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_CLI, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
