"""In-memory spans around calls into the alphatest modules.

Tracing wraps each public function at the name its caller looks it up
by (``harness.run_all``, ``alpha_tests.estimate_dependence``,
``numpy.linalg.eigh`` ...), so no file of the package changes.  A span
records its name, start, end, parent span and operation id; spans stay
in memory until the run ends.  Wrappers are installed for the traced
phase only and always restored.
"""

import functools
import importlib
import json
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

# (span name, [(module path, attribute the caller looks up)])
TRACED_CALLS = [
    ("linalg.eigh", [("numpy.linalg", "eigh")]),
    ("linalg.eigvalsh", [("numpy.linalg", "eigvalsh")]),
    ("linalg.sym_eigen", [("alphatest.linalg", "sym_eigen"), ("alphatest.dgp", "sym_eigen")]),
    ("linalg.annihilator", [("alphatest.ols", "annihilator")]),
    ("linalg.psd_repair", [("alphatest.dependence", "psd_repair")]),
    ("linalg.inv_sqrt_psd", [("alphatest.dependence", "inv_sqrt_psd")]),
    ("dependence.estimate_dependence", [("alphatest.alpha_tests", "estimate_dependence")]),
    ("dependence.sample_cov", [("alphatest.dependence", "sample_cov")]),
    ("dependence.hard_threshold", [("alphatest.dependence", "hard_threshold")]),
    ("dependence.correlation_from_cov", [("alphatest.dependence", "correlation_from_cov")]),
    ("dependence.precision_root", [("alphatest.dependence", "precision_root")]),
    ("dependence.mt_rho_bar_sq", [("alphatest.alpha_tests", "mt_rho_bar_sq")]),
    ("ols.fit", [("alphatest.alpha_tests", "fit")]),
    ("alpha_tests.run_all", [("alphatest.harness", "run_all")]),
    ("alpha_tests.run_all_detailed", [
        ("alphatest.alpha_tests", "run_all_detailed"), ("alphatest.cli", "run_all_detailed")]),
    ("dgp.build_cov", [("alphatest.harness", "build_cov")]),
    ("dgp.cov_sqrt", [("alphatest.harness", "cov_sqrt")]),
    ("dgp.gen_factors", [("alphatest.harness", "gen_factors")]),
    ("dgp.gen_errors", [("alphatest.harness", "gen_errors")]),
    ("dgp.gen_betas", [("alphatest.harness", "gen_betas")]),
    ("dgp.gen_alpha", [("alphatest.harness", "gen_alpha")]),
    ("dgp.assemble_panel", [("alphatest.harness", "assemble_panel")]),
    ("rng.substream", [("alphatest.rng", "substream")]),
    ("harness.replicate_details", [("alphatest.harness", "replicate_details")]),
    ("harness.run_power_curve", [("alphatest.harness", "run_power_curve")]),
    ("panel_io.load_panel", [("alphatest.cli", "load_panel")]),
    ("panel_io.write_text_atomic", [("alphatest.cli", "write_text_atomic")]),
    ("cli.main", [("alphatest.cli", "main")]),
]

SPAN_NAMES = [name for name, _ in TRACED_CALLS]


class Tracer:
    """Collects spans and per-call counters for one traced phase."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op = 0
        self.eig_sizes = {"linalg.eigh": [], "linalg.eigvalsh": []}
        self.psd_fired = []  # one bool per psd_repair call
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        if name in self.eig_sizes:
            sizes = self.eig_sizes[name]

            @functools.wraps(fn)
            def eig_traced(a, *args, **kwargs):
                sizes.append(np.shape(a)[-1])
                return traced(a, *args, **kwargs)

            return eig_traced
        if name == "linalg.psd_repair":
            fired = self.psd_fired

            @functools.wraps(fn)
            def repair_traced(a, *args, **kwargs):
                out = traced(a, *args, **kwargs)
                a = np.asarray(a, dtype=float)
                fired.append(not np.array_equal(out, (a + a.T) / 2.0))
                return out

            return repair_traced
        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


class PoolCounter:
    """Counts process pools the harness starts and the wall time inside them."""

    def __init__(self):
        self.starts = 0
        self.seconds = 0.0

    def executor_class(self):
        counter = self

        class CountedPool(ProcessPoolExecutor):
            def __enter__(self):
                counter.starts += 1
                self._entered = time.perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    counter.seconds += time.perf_counter() - self._entered

        return CountedPool


class Patches:
    """Replaces module attributes and puts the originals back on exit."""

    def __init__(self):
        self._saved = []

    def set(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def install(patches: Patches, tracer: Tracer | None, pools: PoolCounter) -> None:
    """Wrap every traced call (if `tracer` is given) and the harness pool."""
    harness = importlib.import_module("alphatest.harness")
    patches.set(harness, "ProcessPoolExecutor", pools.executor_class())
    if tracer is None:
        return
    for name, sites in TRACED_CALLS:
        for module_path, attr in sites:
            module = importlib.import_module(module_path)
            patches.set(module, attr, tracer.wrap(name, getattr(module, attr)))


def self_times(spans, op_factor=None) -> dict:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the part of that interval
    covered by its child spans (overlapping children counted once).
    `op_factor` maps an operation id to a factor its spans' times are
    multiplied by (default 1).
    """
    op_factor = op_factor or {}
    children = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)
    totals = {}
    for index, (name, start, end, _parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        intervals = sorted((spans[c][1], spans[c][2]) for c in children.get(index, ()))
        for c_start, c_end in intervals:
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        own = ((end - start) - covered) * op_factor.get(op, 1.0)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def call_counts(spans) -> dict:
    counts = {}
    for span in spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    return counts


def per_op_counts(spans, name: str, n_ops: int) -> list:
    """Number of `name` spans in each operation 0..n_ops-1."""
    counts = [0] * n_ops
    for span in spans:
        if span[0] == name and span[4] < n_ops:
            counts[span[4]] += 1
    return counts


def eig_gflop(eigh_sizes, eigvalsh_sizes) -> float:
    """Computed (not measured) flops: ~9n^3 per eigh, 4n^3/3 per eigvalsh."""
    return (sum(9.0 * n**3 for n in eigh_sizes)
            + sum(4.0 * n**3 / 3.0 for n in eigvalsh_sizes)) / 1e9
