"""`bench/run_bench.py` times the OLS fit and the five tests of a cell, with their page
faults, also where the `resource` module is missing (Windows), and its pool section
times each call and reads each pool worker's CPU time and page faults."""

import json
import os
import subprocess
import sys
from pathlib import Path

import alphatest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Times one small cell with every import of `resource` failing.
WITHOUT_RESOURCE = """
import json, sys
sys.modules["resource"] = None
import run_bench
print(json.dumps(run_bench.time_cell("M2", 20)))
"""


def test_cell_without_resource_records_null_faults():
    src = os.path.dirname(os.path.dirname(alphatest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), src]))
    done = subprocess.run([sys.executable, "-c", WITHOUT_RESOURCE], env=env,
                          capture_output=True, text=True, check=True)
    cell = json.loads(done.stdout)
    assert cell["run_all_detailed_minflt"] is None and cell["fit_minflt"] is None
    assert cell["N"] == 20 and cell["run_all_detailed_ms"] > 0 and cell["fit_ms"] > 0


def test_cell_times_the_fit():
    src = os.path.dirname(os.path.dirname(alphatest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), src]))
    script = "import json, run_bench; print(json.dumps(run_bench.time_cell('M3', 20)))"
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    cell = json.loads(done.stdout)
    assert 0 < cell["fit_ms"] < cell["run_all_detailed_ms"]
    for key in ("fit_minflt", "run_all_detailed_minflt"):
        assert isinstance(cell[key], float) and cell[key] >= 0


def test_pool_section_times_every_call():
    src = os.path.dirname(os.path.dirname(alphatest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), src]))
    script = "import json, run_bench; print(json.dumps(run_bench.time_pool(2, 20)))"
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    pool = json.loads(done.stdout)
    assert len(pool["calls_ms"]) == 10 and min(pool["calls_ms"]) > 0
    assert pool["first_call_ms"] == pool["calls_ms"][0]
    if sys.platform == "linux":  # one entry per pool worker
        assert len(pool["worker_cpu_s"]) == len(pool["worker_minflt"]) == 2
        assert min(pool["worker_cpu_s"]) >= 0 and min(pool["worker_minflt"]) >= 0


# Times the pool at one and two workers with no /proc to read the workers from.
WITHOUT_PROC = """
import json, run_bench
run_bench.PROC = "/nonexistent"
print(json.dumps([run_bench.time_pool(workers, 20) for workers in (1, 2)]))
"""


def test_pool_workers_without_proc_are_null():
    src = os.path.dirname(os.path.dirname(alphatest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), src]))
    done = subprocess.run([sys.executable, "-c", WITHOUT_PROC], env=env,
                          capture_output=True, text=True, check=True)
    for pool in json.loads(done.stdout):
        assert pool["worker_cpu_s"] is None and pool["worker_minflt"] is None


def test_one_worker_records_no_pool_workers():
    src = os.path.dirname(os.path.dirname(alphatest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), src]))
    script = ("import json, run_bench; run_bench.time_pool(2, 20); "
              "print(json.dumps(run_bench.time_pool(1, 20)))")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    pool = json.loads(done.stdout)  # the live 2-worker pool ran none of these calls
    assert pool["worker_cpu_s"] == ([] if sys.platform == "linux" else None)
