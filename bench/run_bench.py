"""Per-replication stage timings of the simulator, the five tests and the CSV reader.

    python3 bench/run_bench.py --label HEAD --out BENCH.json
    python3 bench/run_bench.py --label parent --src /path/to/other/src --out BENCH.json

For each covariance model M1-M4 and N in {200, 500, 1000, 2000}, and
for M1, M2 and M3 at N=5000, at T=100 (t5-scaled errors, null alpha,
seed 0), times `harness.simulate_panel` and `alpha_tests.run_all_detailed` on
replication 0, best of 3 after one untimed call (which fills the M1/M3
root cache; its time is recorded as `first_simulate_ms`), counts the
minor page faults of the timed `run_all_detailed` calls, per call
(`run_all_detailed_minflt`, from ``getrusage``), and records the
tracemalloc peak of one more `run_all_detailed` call, untimed
(`run_all_detailed_peak_mb`).  For each N up to 2000 it
also writes that replication's M2 panel once with `panel_io.write_panel`
to a temporary directory and times `panel_io.load_panel` on it, best of
3 (`loads`).  Each run also records `src_lines`, the line count of the
timed tree's `alphatest/*.py`.  BLAS runs on one thread.  The results go under
``runs[label]`` of the JSON file at `--out`, which keeps the runs of
other labels, so two checkouts timed by the same script sit side by
side.  Only numpy and the standard library are used besides the package.
"""

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELS = ("M1", "M2", "M3", "M4")
SIZES = (200, 500, 1000, 2000)
# M4 stays out: each M4 replication at N=5000 roots a fresh dense 5000 x 5000 covariance
EXTRA_CELLS = (("M2", 5000), ("M3", 5000), ("M1", 5000))
T = 100
REPEATS = 3
ABOUT = ("Per-replication wall ms of harness.simulate_panel and alpha_tests.run_all_detailed "
         "for M1-M4 x N at T=100 (t5-scaled errors, null alpha, seed 0, replication 0), "
         "best of 3 after one untimed call (first_simulate_ms, which fills the M1/M3 root "
         "cache), and M1, M2 and M3 at N=5000; run_all_detailed_peak_mb: tracemalloc peak "
         "of one more run_all_detailed call, in MB (1e6 bytes); run_all_detailed_minflt: "
         "minor page faults (getrusage ru_minflt) per timed run_all_detailed call; "
         "BLAS on one thread; "
         "coupled = active rows of the dependence estimate. "
         "loads: wall ms of panel_io.load_panel on the M2 panel of each N as written by "
         "panel_io.write_panel, best of 3. "
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


def time_cell(model, n):
    from alphatest.alpha_tests import run_all_detailed
    from alphatest.harness import ScenarioConfig, simulate_panel

    scenario = ScenarioConfig(n=n, t=T, cov_model=model, error_dist="t5_scaled", m=0, seed=0)
    start = time.perf_counter()
    panel = simulate_panel(scenario, 0, 0)
    first_ms = 1e3 * (time.perf_counter() - start)
    simulate_ms, _ = best_ms(lambda: simulate_panel(scenario, 0, 0))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tests_ms, (_, diagnostics) = best_ms(lambda: run_all_detailed(panel))
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults) / REPEATS
    tests_peak_mb = peak_mb(lambda: run_all_detailed(panel))
    return {
        "model": model,
        "N": n,
        "T": T,
        "first_simulate_ms": round(first_ms, 3),
        "simulate_ms": round(simulate_ms, 3),
        "run_all_detailed_ms": round(tests_ms, 3),
        "run_all_detailed_minflt": round(faults, 1),
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


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    start = time.perf_counter()
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
    wall_s = round(time.perf_counter() - start, 1)
    run = {"environment": environment(), "src_lines": src_lines(args.src), "wall_s": wall_s,
           "cells": cells, "loads": loads}
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
