"""Benchmark of the `riordan` CLI, end to end and per layer.

    python3 bench/run.py --workload exact-count --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's seeded request list (see
workloads.py) goes to a fresh interpreter (worker.py) that runs the
requests one after another through `riordan_graphs.cli.run`.  It runs the
whole number of rounds that would take closest to --seconds on the
reference machine (workloads.ROUND_S), with at least 100 requests, so
every run of a workload and --seconds does the same amount of work
however fast the host is that day.  Every output is then checked
(checks.py).

--trace 0 reports the end-to-end metrics; set-up time is the median wall
time of fresh interpreters that import `riordan_graphs.cli`.  Request
times are scaled to the reference machine's speed by calibration probes
timed around them, and latency quantiles are Harrell-Davis estimates
(speed.py).
--trace 1
runs the same requests again in a second fresh interpreter with every
public function of the package wrapped (tracing.py) and reports the
per-layer metrics instead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller result file, with the run's
metadata and every metric's sample count, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MAX_RUN_S = 60.0  # a run ends after the round that passes this, whatever the count
REQUEST_TIMEOUT_S = 30.0
SETUP_SAMPLES = 10
DEADLINE_S = 170.0  # the whole benchmark process ends before this


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(samples: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI module."""
    cmd = [sys.executable, "-c", "import riordan_graphs.cli"]
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=_env(), check=True)
        times.append(time.perf_counter() - start)
    return times


def run_worker(job: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_env(),
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    *lines, last = proc.stdout.splitlines()
    payload = json.loads(last)
    package = Path(payload["package_file"]).resolve()
    if SRC.resolve() not in package.parents:
        raise RuntimeError(f"worker imported the package from {package}, not from {SRC}")
    payload["results"] = [json.loads(line) for line in lines]
    return payload


def commit() -> str | None:
    """The checkout's git commit, or None when it is not a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, to identify the code measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "riordan_graphs" / "cli.py").is_file():
        print(f"error: no riordan_graphs package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed
    import workloads
    from checks import Checker

    try:
        plan = workloads.rounds(args.workload, args.seed)
        count = workloads.round_count(args.workload, args.seconds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text()).get(args.workload, {})

    # Set-up samples are taken half before and half after the requests, so
    # that one slow spell of the machine does not decide them all.
    setup: list[float] = []
    if not args.trace:
        measure_setup(1)  # writes the bytecode cache, as an install would
        setup = measure_setup(SETUP_SAMPLES // 2)
    job = {
        "rounds": plan[:count],
        "max_seconds": MAX_RUN_S,
        "timeout": REQUEST_TIMEOUT_S,
        "trace": False,
        "probe_every": 0 if args.trace else speed.PROBE_EVERY_S,
    }
    plain = run_worker(job, deadline)
    results = plain["results"]
    traced = None
    if not args.trace:
        setup += measure_setup(SETUP_SAMPLES - len(setup))
    else:
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        traced_job = dict(
            job,
            rounds=[[r["argv"] for r in results]],
            trace=True,
            spans_path=str(spans_path),
        )
        traced = run_worker(traced_job, deadline)

    checker = Checker(references)
    failures = {}
    for run in [plain] + ([traced] if traced else []):
        for i, result in enumerate(run["results"]):
            problem = checker.check(result)
            if problem is not None and i not in failures:
                failures[i] = f"{workloads.request_key(result['argv'])}: {problem}"
    attempted = len(results)
    failed = len(failures)

    latencies = [r["seconds"] for r in results]
    unscaled = None
    if args.trace:
        metrics = {
            name: metric(value, unit, len(traced["results"]))
            for name, (value, unit) in traced["layers"].items()
        }
        metrics["trace.overhead_ratio"] = metric(
            sum(traced["request_s"]) / sum(latencies), "ratio", attempted
        )
    else:
        spans = [(r["start"], r["start"] + r["seconds"]) for r in results]
        slow = speed.slowdowns(spans, plain["probes"])
        scaled = [t / f for t, f in zip(latencies, slow)]
        metrics = {
            "setup_s": metric(statistics.median(setup), "s", len(setup)),
            "latency_p50_ms": metric(speed.quantile(scaled, 0.5) * 1e3, "ms", attempted),
            "latency_p90_ms": metric(speed.quantile(scaled, 0.9) * 1e3, "ms", attempted),
            "requests_per_s": metric((attempted - failed) / sum(scaled), "1/s", attempted),
            "success_ratio": metric((attempted - failed) / attempted, "ratio", attempted),
            "peak_rss_mb": metric(plain["peak_rss_mb"], "MB", 1),
        }
        # The same metrics unscaled, as plain sample quantiles, for reference.
        unscaled = {
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": p90(latencies) * 1e3,
            "requests_per_s": (attempted - failed) / plain["wall_s"],
            "probes": len(plain["probes"]),
            "slowdown_quartiles": statistics.quantiles(slow, n=4),
        }
    fail_ratio = failed / attempted

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "requests": attempted,
        "rounds": plain["rounds"],
        "wall_s": plain["wall_s"],
        "fail_ratio": fail_ratio,
        "failures": list(failures.values()),
        "metrics": metrics,
        "unscaled": unscaled,
        "latencies": [
            [workloads.request_key(r["argv"]), r["seconds"], r["start"]] for r in results
        ],
        "probes": plain["probes"],
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    for problem in list(failures.values())[:10]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {attempted} requests in {plain['wall_s']:.1f} s, "
        f"{failed} failed (fail_ratio {fail_ratio:.4f} ratio), "
        f"python {record['python']}, nproc {record['nproc']}"
    )
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
