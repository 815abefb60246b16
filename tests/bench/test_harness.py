"""Tests for the bench harness and reporting layer."""

import pytest

from repro.bench import (
    Experiment,
    Series,
    format_table,
    propagator_benchmark,
    run_scaling_point,
    table1,
)
from repro.comms.faults import root_cause
from repro.gpu.memory import DeviceOutOfMemoryError


class TestSeries:
    def test_at(self):
        s = Series("x", [1, 2, 4], [10.0, 20.0, None])
        assert s.at(2) == 20.0
        assert s.at(4) is None
        assert s.at(3) is None  # absent x


class TestExperiment:
    @pytest.fixture
    def exp(self):
        return Experiment(
            exp_id="figX",
            title="demo",
            x_label="GPUs",
            y_label="Gflops",
            series=[Series("a", [1, 2], [100.0, 190.0])],
            paper_points=[("a", 2, 200.0)],
        )

    def test_series_lookup(self, exp):
        assert exp.series_by_label("a").at(1) == 100.0
        with pytest.raises(KeyError):
            exp.series_by_label("missing")

    def test_comparison_rows(self, exp):
        rows = exp.comparison_rows()
        label, x, paper, measured, ratio = rows[0]
        assert (label, x, paper, measured) == ("a", 2, 200.0, 190.0)
        assert ratio == pytest.approx(0.95)

    def test_render_contains_everything(self, exp):
        text = exp.render()
        assert "figX" in text and "190.0" in text and "0.95x" in text

    def test_render_handles_missing_points(self):
        exp = Experiment(
            "figY", "t", "x", "y", series=[Series("a", [1, 2], [1.0, None])]
        )
        assert "-" in exp.render()


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # rectangular

    def test_table1_contains_all_cards(self):
        text = table1()
        assert text.count("\n") == 7  # header + separator + 6 rows


class TestScalingPoint:
    def test_runs_and_reports(self):
        p = run_scaling_point((8, 8, 8, 16), "single", 2, fixed_iterations=3)
        assert p.gflops > 0 and p.model_time > 0

    def test_oom_reported_as_missing(self):
        # 32^3 x 256 mixed on 2 GPUs cannot fit (Section VII-C).
        p = run_scaling_point((32, 32, 32, 256), "single-half", 2, fixed_iterations=1)
        assert p.gflops is None

    def test_oom_cause_walks_chain(self):
        inner = DeviceOutOfMemoryError("boom")
        outer = RuntimeError("rank 0 failed")
        outer.__cause__ = inner
        assert root_cause(outer, DeviceOutOfMemoryError) is inner
        assert root_cause(RuntimeError("other"), DeviceOutOfMemoryError) is None


class TestPropagatorBenchmark:
    def test_six_solve_protocol(self):
        mean, results = propagator_benchmark(
            dims=(4, 4, 4, 8), mode="single-half", n_gpus=2, n_solves=3
        )
        assert len(results) == 3
        assert mean > 0
        assert all(r.stats.converged for r in results)

    def test_deterministic_seed(self):
        a, _ = propagator_benchmark(dims=(4, 4, 4, 8), n_gpus=1, n_solves=1, seed=5)
        b, _ = propagator_benchmark(dims=(4, 4, 4, 8), n_gpus=1, n_solves=1, seed=5)
        assert a == b
