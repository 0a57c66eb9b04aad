"""Replicated Monte Carlo experiments: size tables and power curves.

A replication's random streams are keyed by (master seed, sparsity level,
replication index, purpose), so the output table is a pure function of
the experiment spec regardless of worker count or scheduling.
"""

import functools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import rng as streams
from .alpha_tests import METHODS, TestConfig, run_all
from .dgp import (
    COV_MODELS,
    ERROR_DISTS,
    assemble_panel,
    build_cov,
    cov_sqrt,
    gen_alpha,
    gen_betas,
    gen_errors,
    gen_factors,
)
from .errors import EmptyTable, ParseError
from .ols import FactorPanel

__all__ = [
    "ScenarioConfig",
    "ExperimentSpec",
    "TableRow",
    "SizePowerTable",
    "simulate_panel",
    "run_experiment",
    "run_power_curve",
    "replicate_details",
    "summarize",
    "table_to_csv",
]

# scenario JSON key -> ScenarioConfig field path, in document order; a
# "flags." key lives in the "flags" object, a "test." field in the nested
# TestConfig
JSON_KEYS = {
    "N": "n",
    "T": "t",
    "covModel": "cov_model",
    "errorDist": "error_dist",
    "m": "m",
    "reps": "reps",
    "gamma": "test.gamma",
    "seed": "seed",
    "thresholdDelta": "test.threshold_delta",
    "qMt": "test.q_mt",
    "deltaMt": "test.delta_mt",
    "flags.freezeCov": "freeze_cov",
    "flags.fixedSupport": "fixed_support",
    "flags.adjustedCritical": "test.use_adjusted_critical",
    "flags.sharedFactors": "shared_factors",
}
FIELD_KEYS = {path: key for key, path in JSON_KEYS.items()}
# field path -> the values it may take
CHOICES = {"cov_model": COV_MODELS, "error_dist": ERROR_DISTS}
# field path -> the least value it may take; m may also be at most N
MINIMA = {"n": 3, "m": 0, "reps": 1, "seed": 0}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte Carlo scenario."""

    n: int = 200
    t: int = 100
    cov_model: str = "M1"
    error_dist: str = "normal"
    m: int = 0
    reps: int = 1000
    seed: int = 0
    test: TestConfig = TestConfig()
    freeze_cov: bool = False
    fixed_support: bool = False
    shared_factors: bool = False

    @property
    def scenario_id(self) -> str:
        return f"{self.cov_model}/{self.error_dist}/N{self.n}/T{self.t}"

    def updated(self, values: dict) -> "ScenarioConfig":
        """Copy with {field path: value} applied, each cast to its field's type.

        A bool field takes only true or false; any other field rejects a
        bool, and an int field a non-integral number.  The covariance
        model and error law must be one of `CHOICES`.  In the copy, N, m,
        reps and seed must be at least their `MINIMA`, and m at most N.  A
        ParseError names the scenario JSON key of the field.
        """
        own, test = {}, {}
        for path, value in values.items():
            owner, _, name = path.rpartition(".")
            cls, target = (TestConfig, test) if owner else (ScenarioConfig, own)
            kind = {f.name: f.type for f in fields(cls)}[name]
            key = FIELD_KEYS[path]
            try:
                target[name] = _cast(kind, value)
            except (TypeError, ValueError):
                message = f"{key}: expected {kind.__name__}, got {value!r}"
                raise ParseError(message) from None
            allowed = CHOICES.get(path)
            if allowed and target[name] not in allowed:
                message = f"{key}: expected one of {', '.join(allowed)}, got {value!r}"
                raise ParseError(message)
        new = replace(self, test=replace(self.test, **test), **own)
        for name, low in MINIMA.items():
            if (value := getattr(new, name)) < low:
                raise ParseError(f"{FIELD_KEYS[name]}: expected an integer >= {low}, got {value}")
        if new.m > new.n:
            raise ParseError(f"m: expected an integer <= N={new.n}, got {new.m}")
        return new

    def to_json(self) -> str:
        doc = {}
        for key, path in JSON_KEYS.items():
            group, _, name = key.rpartition(".")
            owner, _, field_name = path.rpartition(".")
            value = getattr(self.test if owner else self, field_name)
            (doc.setdefault(group, {}) if group else doc)[name] = value
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        """Parse a scenario document; absent keys keep the dataclass defaults.

        A missing N or T, an unknown key or a mistyped value is a ParseError.
        """
        doc = json.loads(text)
        if not isinstance(doc, dict) or not isinstance(doc.get("flags", {}), dict):
            raise ParseError("a scenario and its \"flags\" must be JSON objects")
        flat = {f"flags.{key}": value for key, value in doc.pop("flags", {}).items()}
        unknown = [key for key in flat if key not in JSON_KEYS]
        unknown += [key for key in doc if key not in JSON_KEYS or "." in key]
        flat.update(doc)
        if unknown:
            raise ParseError(f"unknown scenario key(s): {', '.join(unknown)}")
        missing = [key for key in ("N", "T") if key not in flat]
        if missing:
            raise ParseError(f"missing scenario key(s): {', '.join(missing)}")
        return cls().updated({JSON_KEYS[key]: value for key, value in flat.items()})


def _cast(kind: type, value):
    """`value` cast to `kind`; TypeError or ValueError if it is not a `kind` value."""
    if (kind is bool) != isinstance(value, bool):
        raise TypeError(value)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return kind(value)


@dataclass(frozen=True)
class ExperimentSpec:
    scenario: ScenarioConfig
    reps: int | None = None  # defaults to scenario.reps
    m_grid: tuple = ()

    def __post_init__(self):
        if self.n_reps < 1:
            raise ValueError(f"need at least one replication, got {self.n_reps}")
        if any(m > self.scenario.n for m in self.m_grid):
            raise ValueError("m_grid entries must not exceed N")

    @property
    def n_reps(self) -> int:
        return self.scenario.reps if self.reps is None else self.reps


@dataclass(frozen=True)
class TableRow:
    method: str
    m: int
    reps: int
    rate: float
    se: float


@dataclass(frozen=True)
class SizePowerTable:
    scenario: ScenarioConfig
    rows: tuple  # TableRows by METHODS, then by m


@functools.lru_cache(maxsize=8)
def _frozen_cov_root(kind: str, n: int, seed: int, m: int):
    # the root of a covariance every replication shares, cached per process:
    # the freezeCov draw of replication 0, or M1's or M3's, which draw nothing
    return cov_sqrt(build_cov(kind, n, streams.substream(seed, m, 0, streams.COV)))


def simulate_panel(scenario: ScenarioConfig, m: int, rep: int) -> FactorPanel:
    """Panel of replication `rep` at sparsity m.

    Each component draws from its own stream keyed by (seed, m, rep,
    purpose); the scenario flags pin the covariance, factor path or alpha
    support to replication 0's draw.
    """
    seed = scenario.seed
    factor_rep = 0 if scenario.shared_factors else rep
    alpha_rep = 0 if scenario.fixed_support else rep
    drawless = scenario.cov_model in ("M1", "M3")  # one covariance per N
    if drawless or scenario.freeze_cov:
        key = (0, 0) if drawless else (seed, m)
        sigma_root = _frozen_cov_root(scenario.cov_model, scenario.n, *key)
    else:
        cov_rng = streams.substream(seed, m, rep, streams.COV)
        sigma_root = cov_sqrt(build_cov(scenario.cov_model, scenario.n, cov_rng))
    factor_rng = streams.substream(seed, m, factor_rep, streams.FACTORS)
    factors = gen_factors(scenario.t, rng=factor_rng)
    error_rng = streams.substream(seed, m, rep, streams.ERRORS)
    errors = gen_errors(sigma_root, scenario.error_dist, scenario.t, error_rng)
    betas = gen_betas(scenario.n, streams.substream(seed, m, rep, streams.BETAS))
    alpha_rng = streams.substream(seed, m, alpha_rep, streams.ALPHA)
    alpha = gen_alpha(scenario.n, m, scenario.t, rng=alpha_rng)
    return assemble_panel(alpha, betas, factors, errors)


def _replicate(scenario: ScenarioConfig, m: int, rep: int) -> dict:
    """{method: TestResult} of one replication."""
    results = run_all(simulate_panel(scenario, m, rep), scenario.test)
    return {r.name: r for r in results}


def replicate_details(scenario: ScenarioConfig, m: int, reps: int) -> list:
    """{method: TestResult} for each of `reps` replications at sparsity m."""
    return [_replicate(scenario, m, rep) for rep in range(reps)]


def _run(spec: ExperimentSpec, m_values, workers: int) -> SizePowerTable:
    """Replicate every (m, rep) pair, through one process pool if workers > 1.

    The pool has at most one process per task and per CPU this process
    may run on; outputs do not depend on the worker count.
    """
    scenario, reps = spec.scenario, spec.n_reps
    ms = [m for m in m_values for _ in range(reps)]
    rep_ids = [rep for _ in m_values for rep in range(reps)]
    tasks = ([scenario] * len(ms), ms, rep_ids)  # argument columns of _replicate
    affinity = getattr(os, "sched_getaffinity", None)  # absent on macOS and Windows
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(workers, len(ms), cpus)
    if workers <= 1:
        outcomes = list(map(_replicate, *tasks))
    else:
        chunk = max(1, len(ms) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_replicate, *tasks, chunksize=chunk))
    # (m, its replications) per grid entry, sorted stably by m
    blocks = [(m, outcomes[i * reps:(i + 1) * reps]) for i, m in enumerate(m_values)]
    blocks.sort(key=lambda block: block[0])
    rows = []
    for method in METHODS:
        for m, block in blocks:
            rate = sum(o[method].reject for o in block) / reps
            se = float(np.sqrt(rate * (1.0 - rate) / reps))
            rows.append(TableRow(method=method, m=m, reps=reps, rate=rate, se=se))
    return SizePowerTable(scenario=scenario, rows=tuple(rows))


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> SizePowerTable:
    """Size (or single-m power) experiment at the scenario's sparsity."""
    return _run(spec, (spec.scenario.m,), workers)


def run_power_curve(spec: ExperimentSpec, workers: int = 1) -> SizePowerTable:
    """One sub-experiment per entry of the m grid, shared scenario."""
    if not spec.m_grid:
        raise ValueError("m_grid must be non-empty for a power curve")
    return _run(spec, spec.m_grid, workers)


def summarize(table: SizePowerTable) -> str:
    """Aligned text table; rates are percentages to one decimal."""
    if not table.rows:
        raise EmptyTable("no rows to summarize")
    header = f"{'method':<8}{'scenario':<28}{'m':>4}  {'rate':>12}  {'reps':>6}"
    lines = [header, "-" * len(header)]
    scenario_id = table.scenario.scenario_id
    for row in table.rows:
        cell = f"{100 * row.rate:.1f} (±{100 * row.se:.1f})"
        lines.append(
            f"{row.method:<8}{scenario_id:<28}{row.m:>4}  {cell:>12}  {row.reps:>6}"
        )
    return "\n".join(lines) + "\n"


def table_to_csv(table: SizePowerTable) -> str:
    """Deterministic CSV serialization, one line per row in table order."""
    s = table.scenario
    lines = ["method,model,error_dist,N,T,m,reps,rate,se"]
    for r in table.rows:
        lines.append(
            f"{r.method},{s.cov_model},{s.error_dist},{s.n},{s.t},{r.m},"
            f"{r.reps},{r.rate:.6f},{r.se:.6f}"
        )
    return "\n".join(lines) + "\n"
