"""Runs one benchmark workload's requests in a fresh interpreter.

Reads a JSON job from stdin and writes one JSON line per request to stdout,
then a summary line.  Each request is `riordan_graphs.cli.run(argv)`
in-process, with stdout and stderr captured, one after another (a closed
loop with one client).

Job keys:
  rounds       list of rounds, each a list of argv lists, all run
  max_seconds  but no round after this much wall time has passed
  timeout      per-request limit in seconds
  trace        wrap the package's layers and report per-layer metrics
  spans_path   where the traced run writes its spans (JSON lines)
  probe_every  time speed.calibrate() this often between requests, in
               seconds (0: never); each probe is one (time, seconds) pair
               of the summary's "probes", and each request's line has its
               "start" on the same clock
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import speed
import tracing

SMALL_OUTPUT = 1 << 16  # stdout up to this size goes back for the output checks


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout("request timed out")


def execute(run, argv: list[str], timeout: float, tracer=None) -> dict:
    """One CLI request; returns its exit code, stdout digest and latency."""
    out = io.StringIO()
    error = None
    rc = None
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        if tracer is not None:
            tracer.begin_request()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = run(argv)
        except Exception as exc:  # a raising request is a failed request, not a crash
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            elapsed = tracer.end_request()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    text = out.getvalue()
    return {
        "argv": argv,
        "rc": rc,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stdout": text if len(text) <= SMALL_OUTPUT else None,
        "error": error,
        "seconds": elapsed,
    }


def run_job(job: dict, out) -> None:
    """Run the job, writing one JSON line per request to `out` as it ends,
    then one summary line."""
    import riordan_graphs
    from riordan_graphs import cli, counting, formulas, graphs, series, verify

    tracer = installed = None
    if job["trace"]:
        layers = {
            "cli": cli,
            "series": series,
            "graphs": graphs,
            "counting": counting,
            "formulas": formulas,
            "verify": verify,
        }
        tracer = tracing.Tracer()
        installed = tracing.install(tracer, layers, [riordan_graphs, *layers.values()])

    probe_every = job.get("probe_every", 0)
    probes: list[tuple[float, float]] = []

    def probe() -> None:
        at = time.perf_counter() - start
        probes.append((at, speed.calibrate()))

    start = time.perf_counter()
    try:
        for done, batch in enumerate(job["rounds"], 1):
            for argv in batch:
                # Each CLI call starts without the last call's garbage; freezing
                # what survives keeps later collections off the harness's state.
                gc.collect()
                gc.freeze()
                due = probes[-1][0] + probe_every if probes else 0.0
                if probe_every and time.perf_counter() - start >= due:
                    probe()
                began = time.perf_counter() - start
                result = execute(cli.run, argv, job["timeout"], tracer)
                result["start"] = began
                out.write(json.dumps(result) + "\n")  # not kept: memory is measured
            if time.perf_counter() - start >= job["max_seconds"]:
                break
        wall = time.perf_counter() - start
        if probe_every:
            probe()
    finally:
        if installed is not None:
            installed.restore()

    summary = {
        "wall_s": wall,
        "rounds": done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "package_file": riordan_graphs.__file__,
        "probes": probes,
    }
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        summary["request_s"] = tracer.request_s
        spans_path = Path(job["spans_path"])
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with spans_path.open("w") as fh:
            fh.write(json.dumps(["request", "span", "parent", "layer", "name", "start",
                                 "duration", "calls", "raised", "leaf"]) + "\n")
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    out.write(json.dumps(summary) + "\n")


def main() -> int:
    run_job(json.load(sys.stdin), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
