"""Tests of the benchmark itself: seeded inputs, the correctness gate, the
tracing wrappers and the exactness of the traced counts.

    python3 -m pytest perfbench/tests -q

They run real passes in child interpreters and take about 90 seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
from workloads import build_checker, make_requests, polynomial_row  # noqa: E402

import convfib  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Boundaries of the layer table in README.md, with the workloads on which
# each must be called.  verify-all reaches every boundary.
LISTED_ON = {
    "values": [
        "series.mul_q", "series.inverse", "series.pow", "convolved.conv_fib_row", "cli.main",
    ],
    "verify-all": [*run.BOUNDARIES, *(f"identities.{name}" for name in convfib.IDENTITY_NAMES)],
    "symbolic": [
        "poly.mul", "poly.add", "series.mul_qx", "series.exp", "series.log",
        "convolved.rising_factorial_poly", "convolved.conv_fib_poly",
        "convolved.conv_fib_poly_oracle", "convolved.triangle_recurrence", "identities.thm6",
    ],
}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


# -- seeded generation ------------------------------------------------------------

@pytest.mark.parametrize("workload", ["values", "symbolic"])
def test_same_seed_same_requests_other_seed_other_requests(workload):
    assert make_requests(workload, 7) == make_requests(workload, 7)
    assert make_requests(workload, 7) != make_requests(workload, 8)


def test_verify_all_is_the_default_grid_for_every_seed():
    assert make_requests("verify-all", 1) == make_requests("verify-all", 2) == [
        {"kind": "cli", "argv": ["verify", "all"]}
    ]


def test_values_requests_cover_both_signs_of_r():
    rs = {int(q["argv"][q["argv"].index("--r") + 1]) for q in make_requests("values", 1)}
    assert rs == set(range(-9, 10))


# -- references and the gate ---------------------------------------------------------

@pytest.mark.parametrize("r", range(-4, 1))
def test_polynomial_reference_rows(r):
    assert polynomial_row(r, 12) == convfib.conv_fib_row(r, 12)


def test_checker_rejects_a_wrong_value():
    req = {"kind": "cli", "argv": ["table", "--mode", "values", "--r", "2", "--n-max", "3"]}
    check = build_checker("values", [req])
    rows = convfib.conv_fib_row(2, 3)
    good = "n,r,p\n" + "".join(f"{n},2,{v}\n" for n, v in enumerate(rows))
    assert check(req, {"code": 0, "error": None, "out": good}) is None
    assert check(req, {"code": 0, "error": None, "out": good.replace(f",{rows[3]}", f",{rows[3] + 1}")})
    assert check(req, {"code": 1, "error": None, "out": good})
    assert check(req, {"code": None, "error": "ValueError: x", "out": ""})


def test_fault_injection_fails_the_run():
    code, lines = bench("--workload", "values", "--seed", "3", "--seconds", "0.1", "--inject-fault")
    summary = json.loads(lines[-1])
    assert code != 0
    assert not summary["correct"]
    assert summary["failed"] > 0
    record = json.loads((HERE / "results" / "values-seed3-trace0.json").read_text())
    assert record["fail_ratio"] > 0


def test_missing_sources_exit_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, lines = bench("--workload", "values", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert lines == []


# -- reference seconds ----------------------------------------------------------------

def test_reference_seconds_scale_by_speed_and_leave_out_the_probe():
    k = speed.KERNEL_REFERENCE_S
    # Kernel runs at twice the reference time, then at the reference time.
    samples = [(0.0, 2 * k), (1.0, 1.0 + 2 * k), (2.0, 2.0 + k)]
    whole, part = speed.reference_seconds(samples, [(0.0, 2.0 + k), (0.5, 1.5)])
    assert whole == pytest.approx((1.0 - 2 * k) * 0.5 + (1.0 - 2 * k) * 0.75)
    assert part == pytest.approx(0.5 * 0.5 + (0.5 - 2 * k) * 0.75)


def test_end_to_end_times_are_reference_seconds():
    requests = make_requests("values", 2)[:20]
    check = build_checker("values", requests)
    result = run.run_pass(requests, check, trace=False, fault=False,
                          deadline=run.time.perf_counter() + 60)
    assert not result.failures
    assert len(result.ref_latencies_s) == len(requests)
    assert all(t > 0 for t in result.ref_latencies_s)
    assert result.ref_setup_s > 0
    assert result.speed == pytest.approx(sum(result.ref_latencies_s) / result.wall_s)


# -- output format ------------------------------------------------------------------

@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_reported_metrics_are_those_in_benchmark_json(trace, key):
    code, lines = bench("--workload", "symbolic", "--seed", "1", "--seconds", "0.1", "--trace", trace)
    summary = json.loads(lines[-1])
    assert code == 0 and summary["correct"] and summary["failed"] == 0
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[key]
    }
    if key == "end_to_end":
        assert all(v["value"] > 0 for v in summary["metrics"].values())
    record = json.loads((HERE / "results" / f"symbolic-seed1-trace{trace}.json").read_text())
    assert {"python", "platform", "cpu_count", "git_sha", "seed"} <= set(record["env"])


# -- tracing ------------------------------------------------------------------------

@pytest.fixture(scope="module", params=["values", "verify-all", "symbolic"])
def passes(request):
    """One untraced and two traced passes of the same seeded request list."""
    workload = request.param
    requests = make_requests(workload, 5)
    check = build_checker(workload, requests)
    deadline = run.time.perf_counter() + 170
    plain = run.run_pass(requests, check, trace=False, fault=False, deadline=deadline)
    traced = [
        run.run_pass(requests, check, trace=True, fault=False, deadline=deadline)
        for _ in range(2)
    ]
    return workload, plain, traced


def test_traced_outputs_equal_untraced_outputs(passes):
    _, plain, traced = passes
    assert not plain.failures and not traced[0].failures
    assert traced[0].outputs == plain.outputs


def test_every_listed_boundary_is_called(passes):
    workload, _, traced = passes
    spans = traced[0].trace["spans"]
    missing = [name for name in LISTED_ON[workload] if spans.get(name, [0])[0] == 0]
    assert missing == []


def test_counts_repeat_exactly(passes):
    _, _, (first, second) = passes
    calls = [{k: v[0] for k, v in p.trace["spans"].items()} for p in (first, second)]
    assert calls[0] == calls[1]
    assert first.trace["counts"] == second.trace["counts"]


@pytest.mark.parametrize("passes", ["verify-all"], indirect=True)
def test_verify_all_counts(passes):
    _, _, traced = passes
    spans, counts = traced[0].trace["spans"], traced[0].trace["counts"]
    assert spans["convolved.conv_fib"][0] == 337_003
    assert counts["convolved.conv_fib.row_builds"] == 63
    assert all(counts[f"identities.{name}.cells"] > 0 for name in convfib.IDENTITY_NAMES)
