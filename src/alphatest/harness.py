"""Replicated Monte Carlo experiments: size tables and power curves.

A replication's random streams are keyed by (master seed, sparsity level,
replication index, purpose), so the output table is a pure function of
the experiment spec regardless of worker count or scheduling.
"""

import functools
import json
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
        model and error law must be one of `CHOICES`.  A ParseError names
        the scenario JSON key of the field.
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
        return replace(self, test=replace(self.test, **test), **own)

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
    scenario_id: str
    model: str
    error_dist: str
    n: int
    t: int
    m: int
    reps: int
    rate: float
    se: float


@dataclass(frozen=True)
class SizePowerTable:
    rows: tuple


@functools.lru_cache(maxsize=8)
def _fixed_cov_root(kind: str, n: int):
    # M1 and M3 covariances are deterministic; cache their roots per process
    sigma = build_cov(kind, n, np.random.default_rng(0))
    return cov_sqrt(sigma)


def simulate_panel(scenario: ScenarioConfig, m: int, rep: int) -> FactorPanel:
    """Panel of replication `rep` at sparsity m.

    Each component draws from its own stream keyed by (seed, m, rep,
    purpose); the scenario flags pin the covariance, factor path or alpha
    support to replication 0's draw.
    """
    seed = scenario.seed
    cov_rep = 0 if scenario.freeze_cov else rep
    factor_rep = 0 if scenario.shared_factors else rep
    alpha_rep = 0 if scenario.fixed_support else rep
    if scenario.cov_model in ("M1", "M3"):
        sigma_root = _fixed_cov_root(scenario.cov_model, scenario.n)
    else:
        cov_rng = streams.substream(seed, m, cov_rep, streams.COV)
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


def _rows_from_block(scenario, m, outcomes):
    reps = len(outcomes)
    rows = []
    for method in METHODS:
        rate = sum(o[method].reject for o in outcomes) / reps
        se = float(np.sqrt(rate * (1.0 - rate) / reps))
        rows.append(
            TableRow(
                method=method,
                scenario_id=scenario.scenario_id,
                model=scenario.cov_model,
                error_dist=scenario.error_dist,
                n=scenario.n,
                t=scenario.t,
                m=m,
                reps=reps,
                rate=rate,
                se=se,
            )
        )
    return rows


def _run(spec: ExperimentSpec, m_values, workers: int) -> SizePowerTable:
    """Replicate every (m, rep) pair, through one process pool if workers > 1."""
    scenario, reps = spec.scenario, spec.n_reps
    ms = [m for m in m_values for _ in range(reps)]
    rep_ids = [rep for _ in m_values for rep in range(reps)]
    tasks = ([scenario] * len(ms), ms, rep_ids)  # argument columns of _replicate
    if workers <= 1:
        outcomes = list(map(_replicate, *tasks))
    else:
        chunk = max(1, len(ms) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_replicate, *tasks, chunksize=chunk))
    rows = []
    for block, m in enumerate(m_values):
        block_outcomes = outcomes[block * reps:(block + 1) * reps]
        rows.extend(_rows_from_block(scenario, m, block_outcomes))
    ordered = sorted(rows, key=lambda r: (METHODS.index(r.method), r.m))
    return SizePowerTable(rows=tuple(ordered))


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
    for row in table.rows:
        cell = f"{100 * row.rate:.1f} (±{100 * row.se:.1f})"
        lines.append(
            f"{row.method:<8}{row.scenario_id:<28}{row.m:>4}  {cell:>12}  {row.reps:>6}"
        )
    return "\n".join(lines) + "\n"


def table_to_csv(table: SizePowerTable) -> str:
    """Deterministic CSV serialization (method order, then m)."""
    rows = sorted(table.rows, key=lambda r: (METHODS.index(r.method), r.m))
    lines = ["method,model,error_dist,N,T,m,reps,rate,se"]
    for r in rows:
        lines.append(
            f"{r.method},{r.model},{r.error_dist},{r.n},{r.t},{r.m},"
            f"{r.reps},{r.rate:.6f},{r.se:.6f}"
        )
    return "\n".join(lines) + "\n"
