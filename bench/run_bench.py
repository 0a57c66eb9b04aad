"""Per-replication stage timings of the simulator, the five tests and the CSV reader,
and the cost of successive power curves on the harness pool.

    python3 bench/run_bench.py --label HEAD --out BENCH.json
    python3 bench/run_bench.py --label parent --src /path/to/other/src --out BENCH.json

For each covariance model M1-M4 and N in {200, 500, 1000, 2000}, and
for M1, M2 and M3 at N=5000, at T=100 (t5-scaled errors, null alpha,
seed 0), times `harness.simulate_panel`, `ols.fit` and
`alpha_tests.run_all_detailed` on replication 0, best of 3 after one
untimed call (which fills the M1/M3 root cache; its time is recorded as
`first_simulate_ms`), counts the minor page faults of the timed `fit` and
`run_all_detailed` calls, per call (`fit_minflt`,
`run_all_detailed_minflt`, from ``getrusage``; null where the
`resource` module is missing, as on Windows), and records the
tracemalloc peak of one more `run_all_detailed` call, untimed
(`run_all_detailed_peak_mb`).  For each N up to 2000 it
also writes that replication's M2 panel once with `panel_io.write_panel`
to a temporary directory and times `panel_io.load_panel` on it, best of
3 (`loads`).  On the benchmark's N=3000, T=100 CLI panel (AR(1) errors
across securities at rho = 0.7, `perfbench/workloads.py` `cli_panel(2, 0)`),
it times `dependence.estimate_dependence` at threshold constants 2.4,
2.5 and 2.7, best of 3 after one untimed call, with its tracemalloc
peak, coupled rows and components (`low_threshold`).  Before all of
that, in a fresh process, it times 10 successive
`harness.run_power_curve` calls of one spec (M2, t5-scaled errors,
N=500, T=100, seed 0, 6 replications at each m in (1, 5, 20)) at
workers 1 and then 2, and records each call, the first call and the
median of the other nine, and the CPU seconds and minor page faults
each pool worker spent over the ten calls, read from ``/proc/<pid>/stat``
(`pool`; null off Linux).  Each run also
records `src_lines`, the line count of the timed tree's `alphatest/*.py`.  BLAS runs on one thread.  The results go under
``runs[label]`` of the JSON file at `--out`, which keeps the runs of
other labels, so two checkouts timed by the same script sit side by
side.  Only numpy, the standard library and `cli_panel` are used besides
the package.
"""

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

try:
    import resource  # POSIX only
except ImportError:
    resource = None

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELS = ("M1", "M2", "M3", "M4")
SIZES = (200, 500, 1000, 2000)
# M4 stays out: each M4 replication at N=5000 roots a fresh dense 5000 x 5000 covariance
EXTRA_CELLS = (("M2", 5000), ("M3", 5000), ("M1", 5000))
T = 100
REPEATS = 3
LOW_DELTAS = (2.4, 2.5, 2.7)  # threshold constants of the low-threshold estimate
LOW_N = 3000
POOL_N = 500
POOL_CALLS = 10
POOL_WORKERS = (1, 2)
PROC = "/proc"  # Linux's per-process status files, read for the pool workers
ABOUT = ("Per-replication wall ms of harness.simulate_panel, ols.fit (fit_ms) and "
         "alpha_tests.run_all_detailed "
         "for M1-M4 x N at T=100 (t5-scaled errors, null alpha, seed 0, replication 0), "
         "best of 3 after one untimed call (first_simulate_ms, which fills the M1/M3 root "
         "cache), and M1, M2 and M3 at N=5000; run_all_detailed_peak_mb: tracemalloc peak "
         "of one more run_all_detailed call, in MB (1e6 bytes); fit_minflt and "
         "run_all_detailed_minflt: minor page faults (getrusage ru_minflt) per timed "
         "fit or run_all_detailed call, null without the resource module; "
         "BLAS on one thread; "
         "coupled = active rows of the dependence estimate. "
         "loads: wall ms of panel_io.load_panel on the M2 panel of each N as written by "
         "panel_io.write_panel, best of 3. "
         "low_threshold: estimate_dependence on perfbench's cli_panel(2, 0) at N=3000, T=100 "
         "per threshold constant delta: estimate_ms (best of 3 after one untimed call), "
         "estimate_peak_mb (tracemalloc peak of one more call), coupled and components. "
         "pool: wall ms of 10 successive harness.run_power_curve calls in one process "
         "(M2, t5_scaled, N=500, T=100, seed 0, 6 replications per m in (1, 5, 20)) "
         "per worker count, run before everything else: calls_ms, first_call_ms and "
         "rest_median_ms, the median of calls 2-10; worker_cpu_s and worker_minflt: "
         "user+system CPU seconds and minor page faults of each pool worker (sorted by "
         "pid, empty at one worker) from /proc/<pid>/stat over the 10 calls, null off Linux. "
         "src_lines: lines of the timed tree's alphatest/*.py, as wc -l counts them.")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this run in the output")
    parser.add_argument("--out", required=True, help="JSON file to add the run to")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the alphatest package to time")
    return parser.parse_args(argv)


def best_ms(fn, repeats=REPEATS):
    """(smallest wall time of `repeats` calls in ms, last result)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best, out


def peak_mb(fn):
    """Peak traced allocation of one call of `fn` in MB (1e6 bytes)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def src_lines(src):
    """Newlines in the `alphatest/*.py` files under `src`, as ``wc -l`` counts them."""
    folder = os.path.join(src, "alphatest")
    total = 0
    for name in os.listdir(folder):
        if name.endswith(".py"):
            with open(os.path.join(folder, name), "rb") as handle:
                total += handle.read().count(b"\n")
    return total


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "cpus": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def minor_faults():
    """Minor page faults of this process so far, or None where `resource` is missing."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def faults_per_call(before):
    """Minor page faults per call of the `REPEATS` timed calls since `before`
    was read by `minor_faults`, or None where `resource` is missing."""
    return None if before is None else round((minor_faults() - before) / REPEATS, 1)


def time_cell(model, n):
    from alphatest.alpha_tests import run_all_detailed
    from alphatest.harness import ScenarioConfig, simulate_panel
    from alphatest.ols import fit

    scenario = ScenarioConfig(n=n, t=T, cov_model=model, error_dist="t5_scaled", m=0, seed=0)
    start = time.perf_counter()
    panel = simulate_panel(scenario, 0, 0)
    first_ms = 1e3 * (time.perf_counter() - start)
    simulate_ms, _ = best_ms(lambda: simulate_panel(scenario, 0, 0))
    faults = minor_faults()
    fit_ms, _ = best_ms(lambda: fit(panel))
    fit_faults = faults_per_call(faults)
    faults = minor_faults()
    tests_ms, (_, diagnostics) = best_ms(lambda: run_all_detailed(panel))
    tests_faults = faults_per_call(faults)
    tests_peak_mb = peak_mb(lambda: run_all_detailed(panel))
    return {
        "model": model,
        "N": n,
        "T": T,
        "first_simulate_ms": round(first_ms, 3),
        "simulate_ms": round(simulate_ms, 3),
        "fit_ms": round(fit_ms, 3),
        "fit_minflt": fit_faults,
        "run_all_detailed_ms": round(tests_ms, 3),
        "run_all_detailed_minflt": tests_faults,
        "run_all_detailed_peak_mb": round(tests_peak_mb, 2),
        "coupled": int(diagnostics["coupled"]),
    }


def time_load(n, folder):
    from alphatest.harness import ScenarioConfig, simulate_panel
    from alphatest.panel_io import load_panel, write_panel

    scenario = ScenarioConfig(n=n, t=T, cov_model="M2", error_dist="t5_scaled", m=0, seed=0)
    paths = (os.path.join(folder, f"returns-{n}.csv"), os.path.join(folder, f"factors-{n}.csv"))
    write_panel(simulate_panel(scenario, 0, 0), *paths)
    load_ms, _ = best_ms(lambda: load_panel(*paths))
    return {"N": n, "T": T, "load_panel_ms": round(load_ms, 3)}


@functools.cache
def low_threshold_fit():
    """The N=3000, T=100 CLI panel and its OLS fit."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from alphatest.ols import FactorPanel, fit
    from workloads import cli_panel

    panel = FactorPanel(*cli_panel(2, 0, n=LOW_N, t=T))
    return panel, fit(panel)


def time_low_threshold(delta):
    from alphatest.alpha_tests import TestConfig, run_all_detailed
    from alphatest.dependence import estimate_dependence

    panel, res = low_threshold_fit()

    def estimate():
        return estimate_dependence(res.residuals, res.dof, delta, 0.05, 1.0)

    estimate()
    estimate_ms, dep = best_ms(estimate)
    _, diagnostics = run_all_detailed(panel, TestConfig(threshold_delta=delta))
    return {
        "N": LOW_N,
        "T": T,
        "delta": delta,
        "estimate_ms": round(estimate_ms, 3),
        "estimate_peak_mb": round(peak_mb(estimate), 2),
        "coupled": int(diagnostics["coupled"]),
        "components": dep.components,
    }


def worker_stats():
    """{pid: (CPU clock ticks, minor page faults)} of each live pool worker so far,
    from ``/proc/<pid>/stat``; None where there is no ``/proc`` (off Linux)."""
    import multiprocessing

    if not os.path.isdir(PROC):
        return None
    stats = {}
    for child in multiprocessing.active_children():
        with open(os.path.join(PROC, str(child.pid), "stat")) as handle:
            # the fields after the parenthesised command name, from field 3 (state) on
            fields = handle.read().rpartition(")")[2].split()
        # utime + stime (fields 14 and 15), minflt (field 10)
        stats[child.pid] = (int(fields[11]) + int(fields[12]), int(fields[7]))
    return stats


def time_pool(workers, n):
    from alphatest.harness import ExperimentSpec, ScenarioConfig, run_power_curve

    scenario = ScenarioConfig(n=n, t=T, cov_model="M2", error_dist="t5_scaled", seed=0)
    spec = ExperimentSpec(scenario=scenario, reps=6, m_grid=(1, 5, 20))
    calls, before = [], worker_stats()
    for _ in range(POOL_CALLS):
        start = time.perf_counter()
        run_power_curve(spec, workers=workers)
        calls.append(1e3 * (time.perf_counter() - start))
    after, spent = worker_stats(), None
    if after is not None:
        # each worker's part of the calls (a worker the first call started had none before);
        # at one worker the calls run in this process and any live pool is not theirs
        tick_s = 1 / os.sysconf("SC_CLK_TCK")
        zero = (0, 0)
        spent = [(round((ticks - before.get(pid, zero)[0]) * tick_s, 2),
                  faults - before.get(pid, zero)[1])
                 for pid, (ticks, faults) in sorted(after.items()) if workers > 1]
    return {
        "N": n,
        "T": T,
        "workers": workers,
        "calls_ms": [round(ms, 3) for ms in calls],
        "first_call_ms": round(calls[0], 3),
        "rest_median_ms": round(statistics.median(calls[1:]), 3),
        "worker_cpu_s": None if spent is None else [cpu for cpu, _ in spent],
        "worker_minflt": None if spent is None else [faults for _, faults in spent],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    start = time.perf_counter()
    pool = []
    for workers in POOL_WORKERS:
        pool.append(time_pool(workers, POOL_N))
        print(json.dumps(pool[-1]), flush=True)
    cells, loads = [], []
    with tempfile.TemporaryDirectory() as folder:
        for n in SIZES:
            for model in MODELS:
                cells.append(time_cell(model, n))
                print(json.dumps(cells[-1]), flush=True)
            loads.append(time_load(n, folder))
            print(json.dumps(loads[-1]), flush=True)
    for model, n in EXTRA_CELLS:
        cells.append(time_cell(model, n))
        print(json.dumps(cells[-1]), flush=True)
    low = []
    for delta in LOW_DELTAS:
        low.append(time_low_threshold(delta))
        print(json.dumps(low[-1]), flush=True)
    wall_s = round(time.perf_counter() - start, 1)
    run = {"environment": environment(), "src_lines": src_lines(args.src), "wall_s": wall_s,
           "pool": pool, "cells": cells, "loads": loads, "low_threshold": low}
    doc = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            doc = json.load(handle)
    doc["about"] = ABOUT
    doc["runs"][args.label] = run
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
