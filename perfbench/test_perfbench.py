"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import numpy as np
import pytest

import measure
import spans
import workloads
from alphatest import harness, panel_io


class TestTailPercentile:
    def test_p90_needs_a_hundred_samples(self):
        level, value = measure.tail_percentile(range(1, 101))
        assert (level, value) == (0.9, 90)
        assert measure.nearest_rank(range(1, 101), 0.9) == (90, 10)

    def test_falls_back_to_a_lower_level(self):
        assert measure.tail_percentile(range(1, 100)) == (0.75, 75)
        assert measure.tail_percentile(range(1, 21)) == (0.5, 10)

    def test_none_below_twenty_samples(self):
        assert measure.tail_percentile(range(1, 20)) is None

    def test_high_level_with_many_samples(self):
        level, _ = measure.tail_percentile(range(5000))
        assert level == 0.99


def span(name, start, end, parent, op=0):
    return [name, start, end, parent, op]


class TestSelfTimes:
    def test_nested_and_overlapping_children(self):
        recorded = [
            span("root", 0.0, 10.0, -1),
            span("a", 1.0, 4.0, 0),
            span("b", 3.0, 6.0, 0),  # overlaps a: covered once
            span("leaf", 2.0, 3.0, 1),
        ]
        own = spans.self_times(recorded)
        assert own == pytest.approx({"root": 5.0, "a": 2.0, "b": 3.0, "leaf": 1.0})

    def test_child_past_parent_end_is_clipped(self):
        recorded = [span("root", 0.0, 2.0, -1), span("child", 1.5, 3.0, 0)]
        assert spans.self_times(recorded)["root"] == pytest.approx(1.5)

    def test_same_name_sums_over_operations(self):
        recorded = [span("op", 0.0, 1.0, -1, op=0), span("op", 5.0, 7.0, -1, op=1),
                    span("x", 5.5, 6.0, 1, op=1)]
        own = spans.self_times(recorded)
        assert own["op"] == pytest.approx(2.5)
        assert spans.per_op_counts(recorded, "x", 2) == [0, 1]

    def test_tracer_records_parents(self):
        tracer = spans.Tracer()
        outer = tracer.wrap("outer", lambda: inner())
        inner = tracer.wrap("inner", lambda: 7)
        assert outer() == 7
        names = [(s[0], s[3]) for s in tracer.spans]
        assert names == [("outer", -1), ("inner", 0)]
        assert all(s[2] >= s[1] for s in tracer.spans)


class TestFailedFrac:
    def test_injected_failures_are_counted(self):
        def op(k):
            if k == 2:
                raise RuntimeError("injected")
            return k

        def check(k, out):
            if k == 4:
                raise workloads.CheckFailed("wrong output")

        loop = measure.closed_loop(op, check, seconds=0.0, min_ops=5)
        assert (loop.attempted, loop.failed, len(loop.durations)) == (5, 2, 3)
        assert measure.failed_frac(loop.attempted, loop.failed) == pytest.approx(0.4)
        assert "injected" in loop.errors[0]

    def test_nothing_attempted_is_an_error(self):
        with pytest.raises(ValueError):
            measure.failed_frac(0, 0)

    def test_non_finite_statistic_fails_the_check(self):
        good = {name: (1.0, 0.5) for name in workloads.METHODS}
        workloads.check_statistics(good)
        for bad in ((float("nan"), 0.5), (1.0, 1.5), (float("inf"), 0.0)):
            with pytest.raises(workloads.CheckFailed):
                workloads.check_statistics({**good, "MAX2": bad})


class TestCalibration:
    def test_bracketing_samples_are_averaged(self):
        marks = [(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)]
        assert measure.bracketing_kernel(marks, 0.2, 0.8) == pytest.approx(1.5)
        assert measure.bracketing_kernel(marks, 1.5, 2.5) == pytest.approx(3.0)
        assert measure.bracketing_kernel(marks, 1.0, 3.0) == pytest.approx(3.0)

    def test_scaled_times_use_the_reference(self):
        class SlowMachine:
            reference_ms = 4.0

            def __call__(self):
                return 0.008  # twice the reference

        loop = measure.closed_loop(lambda k: k, lambda k, out: None, seconds=0.0,
                                   min_ops=3, kernel=SlowMachine())
        assert len(loop.kernel) == 3
        for raw, scaled in zip(loop.durations, loop.scaled):
            assert scaled == pytest.approx(raw / 2.0)

    def test_kernel_reports_a_positive_time(self):
        kernel = measure.Kernel(200, runs=1)
        assert kernel() > 0.0
        assert kernel.reference_ms == measure.REFERENCE_KERNEL_MS[200]


class TestInputs:
    def test_cli_panel_is_a_pure_function_of_the_seed(self):
        first = workloads.cli_panel(3, 0, n=40, t=30)
        again = workloads.cli_panel(3, 0, n=40, t=30)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(first[0], workloads.cli_panel(3, 1, n=40, t=30)[0])
        assert not np.array_equal(first[0], workloads.cli_panel(4, 0, n=40, t=30)[0])

    def test_cli_panel_errors_are_ar1_across_securities(self):
        returns, factors = workloads.cli_panel(5, 0, n=60, t=4000)
        design = np.column_stack([np.ones(len(factors)), factors])
        coef, *_ = np.linalg.lstsq(design, returns.T, rcond=None)
        resid = returns.T - design @ coef
        corr = np.corrcoef(resid.T)
        assert np.mean(np.diag(corr, 1)) == pytest.approx(0.7, abs=0.03)
        assert np.mean(np.diag(corr, 2)) == pytest.approx(0.49, abs=0.03)

    def test_csv_pair_round_trips_through_load_panel(self, tmp_path):
        returns, factors = workloads.cli_panel(1, 0, n=12, t=20)
        r_path, f_path = str(tmp_path / "r.csv"), str(tmp_path / "f.csv")
        workloads.write_csv_pair(returns, factors, r_path, f_path)
        panel = panel_io.load_panel(r_path, f_path)
        np.testing.assert_array_equal(panel.returns, returns)
        np.testing.assert_array_equal(panel.factors, factors)

    def test_operation_seeds_are_distinct(self):
        seeds = {workloads.op_seed(s, k) for s in range(3) for k in range(1000)}
        assert len(seeds) == 3000


def test_exact_counters_on_size_replications():
    workload = workloads.SizeM3(seed=2, out_dir="")
    workload.warmup()
    kernel = measure.Kernel(200, runs=1)
    tracer = spans.Tracer()
    original = harness.replicate_details
    with spans.Patches() as patches:
        spans.install(patches, tracer, spans.PoolCounter())
        for k in range(3):
            tracer.op = k
            kernel()  # calibration stays out of the trace
            workload.check(k, workload.op(k))
    assert harness.replicate_details is original
    assert spans.per_op_counts(tracer.spans, "linalg.eigh", 3) == [1, 1, 1]
    assert spans.per_op_counts(tracer.spans, "linalg.eigvalsh", 3) == [2, 2, 2]
    assert spans.per_op_counts(tracer.spans, "rng.substream", 3) == [4, 4, 4]
    assert spans.per_op_counts(tracer.spans, "dgp.build_cov", 3) == [0, 0, 0]
    assert tracer.psd_fired == [False, False, False]
