"""Benchmark command for alphatest.

    python3 perfbench/run.py --workload size_m3_n200 --seed 1 --seconds 25 --trace 0

Runs one workload in this process, from one caller, against the package
under ``src/`` of the checkout this file sits in.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
``--workload all`` runs every workload, each in a fresh process.  The
exit code is 0 only when every operation and check passed.
"""

import os
import sys
import time

START = time.perf_counter()
# BLAS is pinned to one thread before numpy loads; parallelism comes
# only from the harness's own worker processes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("size_m3_n200", "power_m2_n500_w2", "cli_test_n1000")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print(f"== {name} (exit {done.returncode})")
        print("\n".join(lines[:-1]))
        if done.returncode not in (0, 1) or not lines:
            sys.stderr.write(done.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "alphatest", "__init__.py")):
        print(f"error: no alphatest package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # both put on the path explicitly: Python leaves the script's own
    # directory off it under PYTHONSAFEPATH, -P or -I
    sys.path[:0] = [BENCH_DIR, SRC]
    import bench

    if args.setup_probe:
        return bench.setup_probe(args, START)
    return bench.run(args, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
