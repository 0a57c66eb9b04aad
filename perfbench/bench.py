"""One benchmark run: set-up probes, gate checks, the timed loop, the report.

Imported by ``run.py`` after it has pinned BLAS threads and put the
checkout's ``src/`` on the path.
"""

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy
import scipy

import measure
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_ROOT = os.path.join(ROOT, ".bench_out")
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
COUNTED_CALLS = ("linalg.eigh", "linalg.eigvalsh", "linalg.psd_repair", "rng.substream",
                 "dgp.build_cov", "panel_io.load_panel")


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return None


def manifest(args, blas_threads: str) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def make_workload(args):
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.seed, out_dir)


def setup_probe(args, start: float) -> int:
    """Child process: print import time plus the first warm-up operation,
    raw and scaled, in seconds."""
    imported = time.perf_counter()
    workload = make_workload(args)
    workload.prepare(generate=False)
    warm = time.perf_counter()
    workload.warmup()
    raw = imported - start + time.perf_counter() - warm
    kernel = measure.Kernel(workload.kernel_n)
    print(repr(raw), repr(measure.scale(raw, kernel(), kernel.reference_ms)))
    return 0


class Checks:
    """Checks outside the timed loop; each counts as one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, name, fn):
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # reported, counted, and the run fails
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def add_loop(self, loop):
        self.attempted += loop.attempted
        self.failed += loop.failed
        self.errors += loop.errors


def measure_setup(args, checks: Checks) -> list:
    """(raw, scaled) set-up seconds of SETUP_PROBES fresh processes, one at a time."""
    samples = []

    def probe():
        done = subprocess.run(
            [sys.executable, RUN_PY, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        raw, scaled = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(raw), float(scaled)))

    for i in range(SETUP_PROBES):
        checks.run(f"set-up probe {i}", probe)
    return samples


def warm_up_and_gate(workload, checks: Checks) -> None:
    checks.run("warm-up", workload.warmup)
    for name, gate in workload.gates():
        checks.run(f"gate {name}", gate)


def end_to_end(args, workload, checks: Checks):
    setup = measure_setup(args, checks)
    warm_up_and_gate(workload, checks)
    kernel = measure.Kernel(workload.kernel_n)
    loop = measure.closed_loop(workload.op, workload.check, args.seconds, kernel=kernel)
    checks.add_loop(loop)
    ms = [1000.0 * d for d in loop.scaled] or [0.0]
    busy = sum(loop.scaled)
    reps = workload.reps_per_op * len(loop.durations)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup) if setup else 0.0, "s"),
        "reps_per_s": (reps / busy if busy else 0.0, "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    p90, beyond = measure.nearest_rank(ms, 0.9)
    tail = measure.tail_percentile(ms)
    tail_text = f"p{round(100 * tail[0])} = {tail[1]:.4f} ms" if tail else "none"
    note = "" if beyond >= measure.MIN_BEYOND else "; fewer than 10, indicative only"
    raw_ms = [1000.0 * d for d in loop.durations] or [0.0]
    kernel_ms = [1000.0 * c for c in loop.kernel] or [0.0]
    info = [
        f"op_ms.p90        {p90:.4f} ms (n={len(loop.durations)}, {beyond} beyond{note})",
        f"op_ms tail       highest percentile with >= 10 samples beyond: {tail_text}",
        f"reps             {reps} replications in {busy:.3f} s of scaled operation time",
        f"raw              op_ms.p50 {statistics.median(raw_ms):.4f} ms, reps_per_s "
        f"{reps / sum(loop.durations) if loop.durations else 0.0:.4f}, setup_s "
        f"{', '.join(f'{r:.4f}' for r, _ in setup)}",
        f"kernel_ms        median {statistics.median(kernel_ms):.4f} at n={kernel.n} "
        f"(times above are scaled to its reference {kernel.reference_ms} ms)",
    ]
    return metrics, info


def per_layer(args, workload, checks: Checks):
    """Untraced then traced loops of equal length at the traced configuration,
    then, for a pooled workload, pool counters at its own worker count."""
    warm_up_and_gate(workload, checks)
    half = args.seconds / 2.0

    def traced_op(k):
        return workload.op(k, traced=True)

    kernel = measure.Kernel(workload.kernel_n)
    plain = measure.closed_loop(traced_op, workload.check, half, kernel=kernel)
    checks.add_loop(plain)
    tracer = spans.Tracer()
    stray_pools = spans.PoolCounter()
    with spans.Patches() as patches:
        spans.install(patches, tracer, stray_pools)
        traced = measure.closed_loop(traced_op, workload.check, half, kernel=kernel,
                                     on_start=lambda k: setattr(tracer, "op", k))
    checks.add_loop(traced)
    pools = spans.PoolCounter()
    pool_starts = []  # pools started before each operation
    pool_factor = 1.0
    if workload.workers > 1:
        with spans.Patches() as patches:
            spans.install(patches, None, pools)
            pool_loop = measure.closed_loop(workload.op, workload.check, 0.0, min_ops=2,
                                            kernel=kernel,
                                            on_start=lambda k: pool_starts.append(pools.starts))
        checks.add_loop(pool_loop)
        if pool_loop.kernel:
            pool_factor = measure.scale(1.0, statistics.median(pool_loop.kernel),
                                        kernel.reference_ms)
    pool_ops = len(pool_starts)

    n_ops = traced.attempted
    recorded = tracer.spans
    counts = {name: spans.per_op_counts(recorded, name, n_ops)
              for name in workload.exact_counters}
    ends = pool_starts[1:] + [pools.starts]
    counts["harness.pool.starts"] = [end - start for start, end in zip(pool_starts, ends)]
    for name, per_op in counts.items():
        def constant(per_op=per_op, name=name):
            if len(set(per_op)) > 1:
                raise workloads.CheckFailed(f"{name} differs between operations: {per_op}")

        checks.run(f"exact counter {name}", constant)

    def no_stray_pool():
        if stray_pools.starts:
            raise workloads.CheckFailed(f"{stray_pools.starts} pools in the traced loop")

    checks.run("no pool in the traced loop", no_stray_pool)

    op_factor = {k: measure.scale(1.0, c, kernel.reference_ms)
                 for k, c in zip(traced.ops, traced.kernel)}
    own = spans.self_times(recorded, op_factor)
    calls = spans.call_counts(recorded)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.self_ms"] = (1000.0 * own.get(name, 0.0) / n_ops, "ms")
    for name in COUNTED_CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / n_ops, "count")
    gflop = spans.eig_gflop(tracer.eig_sizes["linalg.eigh"], tracer.eig_sizes["linalg.eigvalsh"])
    metrics["linalg.eig.gflop"] = (gflop / n_ops, "GFLOP")
    fired = tracer.psd_fired
    metrics["linalg.psd_repair.fired_frac"] = (sum(fired) / len(fired) if fired else 0.0,
                                               "fraction")
    metrics["harness.pool.starts"] = (pools.starts / pool_ops if pool_ops else 0.0, "count")
    metrics["harness.pool.ms"] = (
        1000.0 * pools.seconds * pool_factor / pool_ops if pool_ops else 0.0, "ms")
    plain_p50 = 1000.0 * statistics.median(plain.scaled) if plain.durations else 0.0
    traced_p50 = 1000.0 * statistics.median(traced.scaled) if traced.durations else 0.0
    metrics["trace.op_ms.p50"] = (traced_p50, "ms")
    metrics["trace.overhead_ms"] = (traced_p50 - plain_p50, "ms")

    spans_path = os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.json")
    tracer.write(spans_path)
    info = [
        f"operations       {n_ops} traced, {plain.attempted} untraced, {pool_ops} on the pool",
        f"untraced p50     {plain_p50:.4f} ms (traced {traced_p50:.4f} ms)",
        f"spans            {len(recorded)} in {os.path.relpath(spans_path, ROOT)}",
        "linalg.eig.gflop is computed (9n^3 per eigh, 4n^3/3 per eigvalsh), not measured",
    ]
    return metrics, info


def run(args, blas_threads: str) -> int:
    workload = make_workload(args)
    workload.prepare()
    doc = manifest(args, blas_threads)
    with open(os.path.join(OUT_ROOT, f"manifest-{args.workload}-seed{args.seed}.json"),
              "w") as handle:
        json.dump(doc, handle, indent=2)
    print(f"manifest         {json.dumps(doc)}")
    checks = Checks()
    if args.trace:
        metrics, info = per_layer(args, workload, checks)
    else:
        metrics, info = end_to_end(args, workload, checks)
    for error in checks.errors:
        print(f"FAILED           {error}")
        print(f"FAILED {args.workload} seed {args.seed}: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    for line in info:
        print(line)
    print(f"failed_frac      {measure.failed_frac(checks.attempted, checks.failed):.6f} "
          f"({checks.failed} of {checks.attempted} operations and checks)")
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1
