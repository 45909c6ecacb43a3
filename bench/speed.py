"""Host speed calibration and the quantile estimator of the timing metrics.

The benchmark runs on shared machines whose speed changes by tens of
percent within seconds, because other tenants contend for the same cores,
caches and memory (process CPU time follows wall time, so it is not
preemption).  To take that out of the timings, the worker times a fixed
pure-Python loop, `calibrate`, between requests, about every PROBE_EVERY_S.
It uses none of the package's code, so a change to the program does not
move it.  Each request's latency is divided by the host's slowdown around
it: the median calibration time of the probes within WINDOW_S of the
request, over REFERENCE_S, the loop's time on the machine where the
benchmark was defined.  Timing metrics are these scaled times, in the units
of that reference machine.

The quantiles of the scaled latencies are Harrell-Davis estimates: a
weighted mean of all order statistics, with weights from the Beta
distribution of the quantile's rank.  A workload mixes requests whose costs
span orders of magnitude, so the sample median is one request's latency
between neighbours 5-10 % apart, and it jumps when one request is slow;
the weighted mean spreads that over the ranks around it.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time

PROBE_EVERY_S = 0.2  # time between calibration probes in the worker
WINDOW_S = 1.0  # probes this close to a request set its slowdown
REFERENCE_S = 0.003  # calibrate() on the reference machine (Python 3.11)

_MODULUS = (1 << 61) - 1


def calibrate() -> float:
    """Wall time of a fixed loop of dict, list, string and big-integer work,
    the kinds of work the package does; about 3 ms on the reference
    machine.  The loop makes no reference cycles, so the cyclic garbage
    collector is paused while it runs: how much garbage the last request
    left must not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, tuple] = {}
        x = 1
        for i in range(2000):
            x = (x * 6364136223846793005 + i) % _MODULUS
            table[x & 0x3FFF] = (i, str(x))
        rows = sorted(table.values(), key=lambda row: row[1])
        big = 3**3000 + len(rows)
        acc = 0
        for i in range(4):
            acc += (big * (big + i)) % (7**2500)
        if acc < 0:  # never; keeps the work from being skipped
            raise AssertionError
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def slowdowns(spans: list[tuple[float, float]], probes: list[tuple[float, float]]) -> list[float]:
    """For each request span (start, end), the median calibration time of
    the probes taken within WINDOW_S of it, over REFERENCE_S; when fewer
    than two probes lie that close, the last probe before the span and
    the first after it."""
    times = [t for t, _ in probes]
    out = []
    for start, end in spans:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        if hi - lo < 2:
            lo = max(bisect.bisect_right(times, start) - 1, 0)
            hi = bisect.bisect_left(times, end) + 1
        out.append(statistics.median(s for _, s in probes[lo:hi]) / REFERENCE_S)
    return out


def _beta_weights(n: int, p: float, steps: int = 16) -> list[float]:
    """The Harrell-Davis weights: the Beta((n+1)p, (n+1)(1-p)) mass of each
    interval [(i-1)/n, i/n], by the midpoint rule on `steps` points each."""
    a = (n + 1) * p
    b = (n + 1) * (1 - p)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    h = 1 / (n * steps)
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            x = (i * steps + j + 0.5) * h
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)
        weights.append(mass * h)
    total = sum(weights)
    return [w / total for w in weights]


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of `values`."""
    ordered = sorted(values)
    return sum(w * v for w, v in zip(_beta_weights(len(ordered), p), ordered))
