"""One benchmark pass in a fresh interpreter; started by ``run.py``.

Reads the plan as JSON on stdin, imports ``convfib`` and writes a line
on stdout to say it is ready.  It then runs every request with its
stdout captured and writes one JSON line per request, holding the output,
wall and CPU time, and last one line with the peak memory and, when the
plan asks for it, the per-layer trace.  Each output is sent as soon as
its request ends, so the child never holds more than one.

While an untraced plan runs, from just before ``import convfib`` to the
end, ``speed.SpeedProbe`` times a calibration kernel every few
milliseconds.  Each request's line also holds its start and end on the
wall clock, and its times leave out the time spent in the probe; the last
line holds the start and end of the import and the probe's samples.

The plan may also ask for a deliberate fault, an off-by-one
``conv_fib_row``, so that tests can show the output checks catch it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from speed import SpeedProbe


def inject_off_by_one_row() -> None:
    from convfib import convolved
    from tracing import replace_everywhere

    original = convolved.conv_fib_row

    def off_by_one(r: int, n_max: int) -> list[int]:
        row = original(r, n_max)
        row[-1] += 1
        return row

    replace_everywhere(original, off_by_one)


def main() -> None:
    plan = json.loads(sys.stdin.read())
    probe = SpeedProbe()
    if not plan["trace"]:
        probe.start()
    setup0 = time.perf_counter()
    import convfib
    from convfib import cli

    setup = (setup0, time.perf_counter())
    channel = sys.stdout
    channel.write("ready\n")
    channel.flush()

    if plan["fault"]:
        inject_off_by_one_row()
    tracer = None
    if plan["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    for req in plan["requests"]:
        buf = io.StringIO()
        code = value = error = None
        probe0 = probe.wall_s, probe.cpu_s
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(buf):
                if req["kind"] == "cli":
                    code = cli.main(req["argv"])
                else:
                    value = convfib.conv_fib_poly_oracle(req["n"], req["n"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed request is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
        span = (wall0, wall0 + wall_s)
        wall_s -= probe.wall_s - probe0[0]
        cpu_s -= probe.cpu_s - probe0[1]
        out = [str(c) for c in value.coefficients] if value is not None else buf.getvalue()
        result = {"code": code, "error": error, "out": out, "wall_s": wall_s, "cpu_s": cpu_s,
                  "span": span}
        channel.write(json.dumps(result) + "\n")
        channel.flush()

    if not plan["trace"]:
        probe.stop()
    summary = {
        "module": convfib.__file__,
        "setup": setup,
        "probe": probe.samples,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer else None,
    }
    channel.write(json.dumps(summary) + "\n")
    channel.flush()


if __name__ == "__main__":
    main()
