"""Solver under faults: chaos integration with the full invert pipeline.

Faults perturb *time*, never payload bits — so a functional solve under
latency jitter must produce the exact same solution as a healthy one,
just at a later model time; and a rank dying mid-solve must surface a
structured RankFailedError naming the rank and the face exchange that
observed it.
"""

import time

import numpy as np
import pytest

from repro.bench.harness import chaos_solve
from repro.comms import FaultPlan, RankFailedError
from repro.core import invert, invert_model, paper_invert_param
from repro.lattice import random_spinor, weak_field_gauge
from repro.lattice.geometry import LatticeGeometry

DIMS = (4, 4, 4, 8)


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(2010)
    gauge = weak_field_gauge(LatticeGeometry(DIMS), rng, noise=0.1)
    source = random_spinor(gauge.geometry, rng)
    return gauge, source


class TestJitteredInvert:
    def test_same_solution_under_jitter(self, problem):
        gauge, source = problem
        inv = paper_invert_param("single-half", mass=0.2)
        clean = invert(gauge, source, inv, n_gpus=2)
        noisy = invert(
            gauge, source, inv, n_gpus=2,
            fault_plan=FaultPlan.jittery(21, prob=0.6),
        )
        # Bit-identical numerics: same iterates, same solution.
        np.testing.assert_array_equal(
            noisy.solution.data, clean.solution.data
        )
        assert noisy.stats.iterations == clean.stats.iterations
        assert noisy.true_residual == clean.true_residual
        # ... just slower, and the slowdown is on the record.
        assert noisy.stats.model_time > clean.stats.model_time
        assert len(noisy.fault_events) > 0
        assert clean.fault_events == []

    def test_retries_do_not_duplicate_messages(self, problem):
        gauge, source = problem
        inv = paper_invert_param("single-half", mass=0.2)
        clean = invert(gauge, source, inv, n_gpus=2)
        flaky = invert(
            gauge, source, inv, n_gpus=2,
            fault_plan=FaultPlan.flaky(22, fail_prob=0.3),
        )
        np.testing.assert_array_equal(
            flaky.solution.data, clean.solution.data
        )
        assert sum(s.retries for s in flaky.comm_stats) > 0


class TestJitteredModelSolve:
    def test_deterministic_model_time(self):
        inv = paper_invert_param("single-half", fixed_iterations=5)
        plan = FaultPlan.jittery(7, prob=0.4)
        times = {
            invert_model(
                (8, 8, 8, 32), inv, n_gpus=4, enforce_memory=False,
                fault_plan=plan,
            ).stats.model_time
            for _ in range(2)
        }
        assert len(times) == 1  # same seed => same model time, exactly

    def test_fault_time_shows_in_trace(self):
        from repro.bench.trace import render_gantt

        inv = paper_invert_param("single-half", fixed_iterations=5)
        res = invert_model(
            (8, 8, 8, 32), inv, n_gpus=4, enforce_memory=False,
            fault_plan=FaultPlan.jittery(7, prob=0.9, jitter_s=100e-6),
        )
        assert res.fault_events
        # The per-rank solve is not directly traced here; check the
        # renderer contract instead: fault ops paint '!'.
        from repro.gpu.streams import Timeline

        tl = Timeline()
        tl.host_busy("fault:retry", 1e-5, fault=True)
        tl.host_busy("pack", 1e-5)
        chart = render_gantt(tl.ops)
        assert "!" in chart and "=" in chart


class TestDyingRank:
    def test_stall_mid_solve_is_structured(self):
        plan = FaultPlan(seed=1).with_stall(2, after_s=2e-3)
        t0 = time.monotonic()
        report = chaos_solve((8, 8, 8, 32), "single-half", 4, plan,
                             fixed_iterations=20)
        assert time.monotonic() - t0 < 0.5  # the stall wakes its waiters
        assert not report.completed
        assert isinstance(report.failure, RankFailedError)
        assert report.failure.rank == 2
        assert report.failure.mode == "stalled"
        # The error carries where it bit: a ghost relay or a global sum.
        assert any(
            part in report.failure.detail
            for part in ("ghost relay", "global sum", "face exchange")
        ) or report.failure.op.startswith("MPI_")

    def test_crash_mid_solve_is_structured(self):
        inv = paper_invert_param("single-half", fixed_iterations=20)
        plan = FaultPlan(seed=2).with_stall(0, after_s=2e-3, mode="crash")
        with pytest.raises(RuntimeError, match="rank 0 crashed"):
            invert_model(
                (8, 8, 8, 32), inv, n_gpus=4, enforce_memory=False,
                fault_plan=plan,
            )
