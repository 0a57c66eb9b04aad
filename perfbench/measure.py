"""Closed-loop timing and the statistics the benchmark reports.

The machines this runs on change speed by up to ~1.6x for seconds at a
time (shared cores, frequency steps).  So the loop times a fixed
calibration kernel, which does not touch alphatest, every CALIBRATE_EVERY
seconds between operations, and reports each operation's time scaled to
a machine on which the kernel takes its reference time:
``scaled = raw * reference_ms / kernel_ms``, where kernel_ms is the
mean of the kernel samples just before and just after the operation.
Raw times are printed beside them.
"""

import bisect
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# kernel size -> its median time on the 2-core x86-64 VM (OpenBLAS
# 0.3.31, one thread) the benchmark was defined on
REFERENCE_KERNEL_MS = {200: 7.0, 500: 51.0}
CALIBRATE_EVERY = 0.2
TAIL_LEVELS = (0.99, 0.95, 0.9, 0.75, 0.5)
MIN_BEYOND = 10


def nearest_rank(samples, level: float) -> tuple[float, int]:
    """Nearest-rank percentile of `samples` and how many samples lie beyond it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(level * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples, min_beyond: int = MIN_BEYOND):
    """Highest percentile in TAIL_LEVELS with at least `min_beyond` samples
    beyond it, as (level, value); None when even the median has fewer."""
    for level in TAIL_LEVELS:
        value, beyond = nearest_rank(samples, level)
        if beyond >= min_beyond:
            return level, value
    return None


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("nothing was attempted")
    return failed / attempted


class Kernel:
    """Fixed calibration work resembling one test's dense steps at size n:
    a normal draw, a sample covariance, its correlation scale, the upper
    triangle and one symmetric eigendecomposition."""

    def __init__(self, n: int = 200, runs: int = 3):
        self.n = n
        self.runs = runs
        self.reference_ms = REFERENCE_KERNEL_MS[n]
        rng = np.random.default_rng(0)
        self.residuals = rng.standard_normal((n, 100))
        m = rng.standard_normal((n, n))
        self.matrix = m + m.T
        # bound now, so the kernel stays out of a trace that wraps numpy.linalg later
        self.eigh = np.linalg.eigh

    def once(self) -> float:
        start = time.perf_counter()
        np.random.default_rng(1).standard_normal((self.n, 100))
        s = self.residuals @ self.residuals.T / 100.0
        d = np.sqrt(np.diag(s))
        corr = s / np.outer(d, d)
        corr[np.triu_indices(self.n, k=1)].sum()
        self.eigh(self.matrix)
        return time.perf_counter() - start

    def __call__(self) -> float:
        """Median seconds of `runs` runs of the kernel."""
        return statistics.median(self.once() for _ in range(self.runs))


def scale(seconds: float, kernel_seconds: float, reference_ms: float) -> float:
    """`seconds` on a machine where the kernel takes `reference_ms`."""
    return seconds * reference_ms / (1000.0 * kernel_seconds)


@dataclass
class LoopResult:
    durations: list = field(default_factory=list)  # raw seconds, successful ops only
    kernel: list = field(default_factory=list)  # kernel seconds around each of them
    reference_ms: float = 0.0  # the kernel's reference time
    ops: list = field(default_factory=list)  # operation index of each of them
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def scaled(self) -> list:
        """Durations scaled by the kernel time measured around each op."""
        if not self.kernel:
            return list(self.durations)
        return [scale(d, c, self.reference_ms) for d, c in zip(self.durations, self.kernel)]


def bracketing_kernel(marks, start: float, end: float) -> float:
    """Mean of the last kernel sample before `start` and the first after `end`.

    `marks` is a time-ordered list of (time, kernel seconds)."""
    times = [t for t, _ in marks]
    before = marks[max(0, bisect.bisect_right(times, start) - 1)][1]
    after = marks[min(len(marks) - 1, bisect.bisect_left(times, end))][1]
    return (before + after) / 2.0


def closed_loop(op, check, seconds: float, on_start=None, min_ops: int = 1,
                kernel=None) -> LoopResult:
    """Run `op(k)` back to back, one caller, for `seconds` of wall time.

    Only the call to `op` is timed; `check(k, result)` runs afterwards and
    raises if the output is wrong.  An op that raises or fails its check
    counts as failed.  `on_start(k)` runs untimed before op k.  With a
    `kernel`, it is sampled before the first op, between ops once
    CALIBRATE_EVERY seconds have passed, and after the last op.
    """
    result = LoopResult()
    marks = []
    spans = []  # (start, end) of each successful op
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_ops or time.perf_counter() < deadline:
        if kernel and (not marks or time.perf_counter() - marks[-1][0] >= CALIBRATE_EVERY):
            marks.append((time.perf_counter(), kernel()))
        if on_start is not None:
            on_start(k)
        result.attempted += 1
        try:
            start = time.perf_counter()
            out = op(k)
            end = time.perf_counter()
            check(k, out)
        except Exception as exc:  # a failing op is counted, not fatal
            result.failed += 1
            result.errors.append(f"op {k}: {type(exc).__name__}: {exc}")
        else:
            result.durations.append(end - start)
            result.ops.append(k)
            spans.append((start, end))
        k += 1
    if kernel:
        marks.append((time.perf_counter(), kernel()))
        result.kernel = [bracketing_kernel(marks, a, b) for a, b in spans]
        result.reference_ms = kernel.reference_ms
    return result
