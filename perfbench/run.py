"""The convfib benchmark: seeded workloads, exact output checks, and end-to-end
or per-layer metrics.

    python3 perfbench/run.py --workload values --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It builds the request list of one pass
from ``--seed``, computes every reference answer, then runs passes, each
in a fresh interpreter, one after another (one client, closed loop) until
``--seconds`` have gone by.  Every output is checked against its
reference.  End-to-end times are in reference seconds (``speed.py``):
wall time scaled by the machine's speed, measured while the pass runs.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A copy with the
per-pass samples and an env block goes to ``perfbench/results/``.  The
exit code is 0 only when every request was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

from speed import reference_seconds  # noqa: E402
from tracing import BOUNDARIES, COUNTS  # noqa: E402
from workloads import WORKLOADS, build_checker, make_requests  # noqa: E402

# Leave room under the 180 s that a run may take.
DEADLINE_S = 165.0


@dataclass
class PassResult:
    spawn_s: float = 0.0  # from spawning the child until it is ready
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kib: int = 0
    latencies_s: list[float] = field(default_factory=list)
    # Reference seconds (speed.py), for untraced passes only.
    ref_latencies_s: list[float] = field(default_factory=list)
    ref_cpu_s: float = 0.0
    ref_setup_s: float = 0.0  # import convfib and convfib.cli
    speed: float = 1.0  # reference seconds per wall second over the requests
    outputs: list[Any] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    trace: Optional[dict] = None
    crashed: bool = False


def _read_until_eof(stream, deadline: float) -> bytes:
    chunks = []
    while True:
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([stream], [], [], left)[0]:
            raise TimeoutError
        chunk = stream.read(1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def run_pass(requests: list[dict], check, *, trace: bool, fault: bool, deadline: float) -> PassResult:
    """Start a fresh interpreter, run the request list once, check every output."""
    plan = json.dumps({"requests": requests, "trace": trace, "fault": fault}).encode()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = PassResult()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        bufsize=0,
    )
    line = out = b""
    try:
        proc.stdin.write(plan)
        proc.stdin.close()
        if select.select([proc.stdout], [], [], max(deadline - start, 0))[0]:
            line = proc.stdout.readline()
            result.spawn_s = time.perf_counter() - start
            out = _read_until_eof(proc.stdout, deadline)
    except (TimeoutError, BrokenPipeError):
        out = b""
    finally:
        if proc.poll() is None and not out:
            proc.kill()
        proc.wait()
        proc.stdout.close()

    if line != b"ready\n" or proc.returncode != 0 or not out:
        result.crashed = True
        result.failures = [f"pass crashed (exit {proc.returncode})"] * len(requests)
        return result
    *replies, summary = [json.loads(reply) for reply in out.splitlines()]
    module = Path(summary["module"]).resolve()
    if SRC not in module.parents:
        raise SystemExit(f"error: the child imported convfib from {module}, not from {SRC}")
    result.peak_rss_kib = summary["peak_rss_kib"]
    result.trace = summary["trace"]
    for req, res in zip(requests, replies, strict=True):
        result.latencies_s.append(res["wall_s"])
        result.cpu_s += res["cpu_s"]
        result.outputs.append(res["out"])
        problem = check(req, res)
        if problem:
            result.failures.append(f"{' '.join(req.get('argv', [])) or req}: {problem}")
    result.wall_s = sum(result.latencies_s)
    if summary["probe"]:
        spans = [summary["setup"], *(r["span"] for r in replies)]
        result.ref_setup_s, *result.ref_latencies_s = reference_seconds(summary["probe"], spans)
        result.ref_cpu_s = sum(
            r["cpu_s"] * ref / r["wall_s"]
            for r, ref in zip(replies, result.ref_latencies_s) if r["wall_s"] > 0
        )
        result.speed = sum(result.ref_latencies_s) / result.wall_s
    return result


def run_passes(requests, check, *, seconds: float, trace: bool, fault: bool, deadline: float):
    """Closed loop: each pass starts when the previous one ends.  A new pass
    starts only if one as long as the last still fits in ``seconds``."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(requests, check, trace=trace, fault=fault, deadline=deadline))
        now = time.perf_counter()
        last = now - began
        if passes[-1].crashed or now - start + last > seconds or now + 2 * last > deadline:
            return passes


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(passes: list[PassResult]) -> dict[str, dict]:
    """Times are in reference seconds.  ``wall_s``, ``cpu_s`` and
    ``setup_s`` are medians over passes; ``req_p50_ms`` and ``req_p90_ms``
    are percentiles over every request of every pass."""
    def median(per_pass) -> float:
        return statistics.median(per_pass(p) for p in passes)

    latencies = [t for p in passes for t in p.ref_latencies_s]
    values = {
        "wall_s": (median(lambda p: sum(p.ref_latencies_s)), "s"),
        "cpu_s": (median(lambda p: p.ref_cpu_s), "s"),
        "req_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "req_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
        "setup_s": (median(lambda p: p.ref_setup_s), "s"),
        "peak_rss_mib": (median(lambda p: p.peak_rss_kib) / 1024, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_names(identities) -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    names = []
    for b in BOUNDARIES:
        names += [(f"{b}.calls", "count"), (f"{b}.self_s", "s")]
    names += [(c, "count") for c in COUNTS]
    names.append(("convolved.conv_fib.hit_ratio", "ratio"))
    for ident in identities:
        names += [(f"identities.{ident}.{k}", u) for k, u in
                  (("self_s", "s"), ("total_s", "s"), ("cells", "count"))]
    names += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")]
    return names


def per_layer(traced: list[PassResult], untraced: list[PassResult], identities) -> dict[str, dict]:
    """Counts from the first traced pass (every pass runs the same requests,
    so they must repeat exactly); times are medians over traced passes."""
    first = traced[0].trace
    for p in traced[1:]:
        same_calls = {k: v[0] for k, v in p.trace["spans"].items()} == {
            k: v[0] for k, v in first["spans"].items()
        }
        if not same_calls or p.trace["counts"] != first["counts"]:
            print("warning: traced passes disagree on counts", file=sys.stderr)

    def span(name: str, col: int) -> float:
        vals = [p.trace["spans"].get(name, [0, 0.0, 0.0])[col] for p in traced]
        return first["spans"].get(name, [0])[0] if col == 0 else statistics.median(vals)

    values: dict[str, float] = {}
    for b in BOUNDARIES:
        values[f"{b}.calls"] = span(b, 0)
        values[f"{b}.self_s"] = span(b, 2)
    for c in COUNTS:
        values[c] = first["counts"].get(c, 0)
    calls = values["convolved.conv_fib.calls"]
    values["convolved.conv_fib.hit_ratio"] = (
        1 - values["convolved.conv_fib.row_builds"] / calls if calls else 0.0
    )
    for ident in identities:
        key = f"identities.{ident}"
        values[f"{key}.self_s"] = span(key, 2)
        values[f"{key}.total_s"] = span(key, 1)
        values[f"{key}.cells"] = first["counts"].get(f"{key}.cells", 0)
    traced_wall = statistics.median(p.wall_s for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return {k: {"value": values[k], "unit": u} for k, u in layer_names(identities)}


def git_sha() -> Optional[str]:
    """HEAD of the enclosing git checkout, read from files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def env_block(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--inject-fault", action="store_true",
                        help="for tests: run an off-by-one conv_fib_row in the child")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "convfib" / "__init__.py").is_file():
        print(f"error: no convfib sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import convfib

    requests = make_requests(args.workload, args.seed)
    check = build_checker(args.workload, requests)  # references, before any timing
    common = dict(fault=args.inject_fault, deadline=deadline)
    if args.trace:
        untraced = run_passes(requests, check, seconds=args.seconds / 3, trace=False, **common)
        traced = run_passes(requests, check, seconds=args.seconds * 2 / 3, trace=True, **common)
        passes = untraced + traced
    else:
        passes = run_passes(requests, check, seconds=args.seconds, trace=False, **common)

    attempted = len(requests) * len(passes)
    failures = [f for p in passes for f in p.failures]
    correct = not failures
    for failure in failures[:10]:
        print(f"FAIL {failure}", file=sys.stderr)
    if any(p.crashed for p in passes):
        metrics: dict[str, dict] = {}
    elif args.trace:
        metrics = per_layer(traced, untraced, convfib.IDENTITY_NAMES)
    else:
        metrics = end_to_end(passes)
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }

    RESULTS.mkdir(exist_ok=True)
    record = {
        **summary,
        "fail_ratio": len(failures) / attempted,
        "env": env_block(args),
        "requests": requests,
        "passes": [
            {"spawn_s": p.spawn_s, "ref_setup_s": p.ref_setup_s,
             "wall_s": p.wall_s, "cpu_s": p.cpu_s, "speed": p.speed,
             "peak_rss_kib": p.peak_rss_kib, "traced": p.trace is not None,
             "latencies_s": p.latencies_s, "ref_latencies_s": p.ref_latencies_s}
            for p in passes
        ],
        "failures": failures[:50],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes, "
        f"fail_ratio={record['fail_ratio']:.4f}",
        file=sys.stderr,
    )
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
