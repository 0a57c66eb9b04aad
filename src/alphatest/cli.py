"""Command-line entry point.

Subcommands:

* ``alphatest test`` - run the five tests on a returns/factors CSV pair
  and write a JSON report.
* ``alphatest size`` - replicated null experiment from a scenario JSON;
  writes a CSV table and prints the text summary.
* ``alphatest power`` - power curve over an m grid; writes the CSV table
  and a plot-ready (m, method, power) CSV.
* ``alphatest gen`` - write a synthetic panel to CSV for round-tripping.

Exit codes: 0 success, 2 I/O or parse failure, 3 numeric failure.  The
``ALPHATEST_SEED`` environment variable overrides the scenario JSON's
seed, and ``--seed`` overrides both.  ``main`` pins glibc's malloc thresholds
in its process, as ``--workers`` above 1 does in each pool worker.
"""

import argparse
import json
import os
import sys

from .alpha_tests import run_all_detailed
from .errors import AlphatestError, ParseError, ShapeMismatch, TooFewObservations
from .harness import (
    ExperimentSpec,
    ScenarioConfig,
    _pin_malloc_thresholds,
    run_experiment,
    run_power_curve,
    simulate_panel,
    summarize,
    table_to_csv,
)
from .panel_io import load_panel, write_panel, write_text_atomic

EXIT_OK = 0
EXIT_IO = 2
EXIT_NUMERIC = 3

# Override options: (flag, ScenarioConfig field path, argparse keywords).
# `test` takes TEST_OPTIONS, `size` and `power` both tables.  Each defaults
# to None, keeping the value from the scenario JSON or the defaults.
TEST_OPTIONS = (
    ("--gamma", "test.gamma", {"type": float, "help": "test level"}),
    ("--delta", "test.threshold_delta", {"type": float, "help": "threshold constant"}),
    ("--qmt", "test.q_mt", {"type": float, "help": "multiple-testing level"}),
    ("--deltamt", "test.delta_mt",
     {"type": float, "help": "multiple-testing threshold constant"}),
    ("--raw-critical", "test.use_adjusted_critical",
     {"action": "store_const", "const": False,
      "help": "use the unadjusted chi-square(4) critical value"}),
)
SCENARIO_OPTIONS = (
    ("--reps", "reps", {"type": int, "help": "override replication count"}),
    ("--seed", "seed", {"type": int, "help": "override master seed"}),
    ("--freeze-cov", "freeze_cov", {"action": "store_const", "const": True}),
    ("--fixed-support", "fixed_support", {"action": "store_const", "const": True}),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphatest",
        description="Alpha tests for high-dimensional linear factor pricing models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run the five tests on observed data")
    test.set_defaults(handler=cmd_test)
    test.add_argument("--returns", required=True, help="time-major returns CSV")
    test.add_argument("--factors", required=True, help="time-major factors CSV")
    test.add_argument("--out", required=True, help="JSON report path")
    _add_options(test, TEST_OPTIONS)

    for name, help_text, handler in (
        ("size", "replicated null (size) experiment", cmd_size),
        ("power", "power curve over an m grid", cmd_power),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--config", required=True, help="scenario JSON path")
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.add_argument("--workers", type=int, default=1)
        _add_options(cmd, SCENARIO_OPTIONS + TEST_OPTIONS)
        if name == "power":
            cmd.add_argument(
                "--m-grid", default="1:20",
                help="sparsity grid, 'lo:hi' or comma-separated values",
            )

    gen = sub.add_parser("gen", help="write a synthetic panel to CSV")
    gen.set_defaults(handler=cmd_gen)
    gen.add_argument("--config", required=True, help="scenario JSON path")
    gen.add_argument("--out-prefix", required=True, help="output path prefix")
    return parser


def _add_options(cmd, options) -> None:
    for flag, path, kwargs in options:
        cmd.add_argument(flag, dest=path, **kwargs)


def _overrides(args) -> dict:
    """{field path: value} of the override options given on the command line."""
    paths = [path for _, path, _ in SCENARIO_OPTIONS + TEST_OPTIONS]
    return {path: getattr(args, path) for path in paths
            if getattr(args, path, None) is not None}


def _load_scenario(args) -> ScenarioConfig:
    """The scenario JSON, then ALPHATEST_SEED, then the override options."""
    with open(args.config) as handle:
        scenario = ScenarioConfig.from_json(handle.read())
    seed = os.environ.get("ALPHATEST_SEED")
    if seed is not None:
        try:
            scenario = scenario.updated({"seed": seed})
        except ParseError as exc:  # the message names the variable, not the key
            raise ParseError(f"ALPHATEST_SEED{str(exc).removeprefix('seed')}") from None
    return scenario.updated(_overrides(args))


def cmd_test(args) -> int:
    config = ScenarioConfig().updated(_overrides(args)).test
    panel = load_panel(args.returns, args.factors)
    results, diagnostics = run_all_detailed(panel, config)
    fields = ("statistic", "p_value", "reject", "critical_value")
    tests = {r.name: {name: getattr(r, name) for name in fields} for r in results}
    report = {"tests": tests, "metadata": diagnostics}
    write_text_atomic(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def _workers(args) -> int:
    if args.workers < 1:
        raise ParseError(f"--workers: expected an integer >= 1, got {args.workers}")
    return args.workers


def cmd_size(args) -> int:
    scenario = _load_scenario(args)
    table = run_experiment(ExperimentSpec(scenario=scenario), workers=_workers(args))
    write_text_atomic(args.out, table_to_csv(table))
    print(summarize(table))
    return EXIT_OK


def _parse_m_grid(text: str, n: int) -> tuple:
    lo, sep, hi = text.partition(":")
    try:  # a lo:hi range is checked by its ends, not expanded first
        grid = range(int(lo), int(hi) + 1) if sep else tuple(map(int, text.split(",")))
        low, high = (grid[0], grid[-1]) if sep else (min(grid), max(grid))
    except (ValueError, IndexError):  # not integers, or an empty range
        low = -1
    if low < 0:
        raise ParseError("--m-grid: expected a nonempty 'lo:hi' range or "
                         f"comma-separated integers >= 0, got {text!r}")
    if high > n:
        raise ParseError(f"--m-grid: entries must not exceed N={n}, got {high}")
    return tuple(grid)


def cmd_power(args) -> int:
    scenario = _load_scenario(args)
    grid = _parse_m_grid(args.m_grid, scenario.n)
    spec = ExperimentSpec(scenario=scenario, m_grid=grid)
    table = run_power_curve(spec, workers=_workers(args))
    write_text_atomic(args.out, table_to_csv(table))
    stem, ext = os.path.splitext(args.out)
    plot_lines = ["m,method,power"]
    for row in sorted(table.rows, key=lambda r: (r.m, r.method)):
        plot_lines.append(f"{row.m},{row.method},{row.rate:.6f}")
    write_text_atomic(stem + "_plot" + (ext or ".csv"), "\n".join(plot_lines) + "\n")
    print(summarize(table))
    return EXIT_OK


def cmd_gen(args) -> int:
    scenario = _load_scenario(args)
    panel = simulate_panel(scenario, scenario.m, 0)
    prefix = args.out_prefix
    write_panel(panel, prefix + "returns.csv", prefix + "factors.csv")
    return EXIT_OK


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, json.JSONDecodeError, ParseError, ShapeMismatch,
            TooFewObservations) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (AlphatestError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
