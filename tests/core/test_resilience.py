"""Self-healing solves: rank-failure recovery and breakdown escalation.

The acceptance suite of the resilience layer: a seeded FaultPlan kills a
rank mid-solve and the solve still converges (verified against the host
reference operator), byte-reproducibly; with recovery disabled the same
fault raises the same structured error as before; numerical breakdowns
walk the escalation ladder.
"""

import time

import numpy as np
import pytest

from repro.comms import FaultPlan, RankFailedError
from repro.comms.faults import root_cause
from repro.core import (
    RetryPolicy,
    SolverBreakdown,
    blas,
    invert,
    invert_model,
    paper_invert_param,
)
from repro.core.solvers.resilience import (
    EscalationLadder,
    ensure_finite,
    feasible_rank_count,
)
from repro.gpu.precision import Precision
from repro.lattice import LatticeGeometry, random_spinor, weak_field_gauge

MASS = 0.2
DIMS = (4, 4, 4, 8)
GPUS = 4
#: Crash rank 1 at t = 30 ms: mid-solve, several reliable updates in.
CRASH_PLAN = FaultPlan(seed=5).with_stall(1, after_s=0.03, mode="crash")


@pytest.fixture(scope="module")
def lattice():
    rng = np.random.default_rng(31)
    geo = LatticeGeometry(DIMS)
    return weak_field_gauge(geo, rng, noise=0.15), random_spinor(geo, rng)


def _solve(lattice, *, plan=None, policy=RetryPolicy(), **overrides):
    gauge, src = lattice
    inv = paper_invert_param(
        "single-half", mass=MASS, retry_policy=policy, **overrides
    )
    return invert(gauge, src, inv, n_gpus=GPUS, fault_plan=plan)


@pytest.fixture(scope="module")
def recovered(lattice):
    return _solve(lattice, plan=CRASH_PLAN, policy=RetryPolicy(max_attempts=2))


class TestRankFailureRecovery:
    def test_crashed_solve_recovers_and_converges(self, recovered):
        """The headline property: a rank dies mid-solve, the world is
        relaunched over the survivors, the solve resumes from its last
        refresh-point checkpoint — and still converges for real."""
        assert recovered.stats.converged
        assert recovered.true_residual < 1e-6
        assert recovered.recoveries >= 1
        kinds = [e.kind for e in recovered.recovery_events]
        assert "rank_failure" in kinds and "relaunch" in kinds
        assert "resume" in kinds  # picked up mid-solve, not from scratch

    def test_world_shrinks_over_survivors(self, recovered):
        """Rank 1 of 4 died; T=8 admits a 2-rank slicing, so the relaunch
        re-partitions instead of replaying at full size."""
        assert len(recovered.comm_stats) == 2

    def test_recovery_cost_is_accounted(self, recovered):
        assert recovered.stats.lost_time > 0
        assert recovered.stats.model_time > recovered.stats.lost_time
        resume = next(
            e for e in recovered.recovery_events if e.kind == "resume"
        )
        assert resume.iteration > 0  # a checkpoint existed by crash time

    def test_recovery_is_deterministic(self, lattice, recovered):
        """Same seed => byte-identical recovery sequence and solution."""
        again = _solve(
            lattice, plan=CRASH_PLAN, policy=RetryPolicy(max_attempts=2)
        )
        assert again.recovery_events == recovered.recovery_events
        assert (
            again.solution.data.tobytes()
            == recovered.solution.data.tobytes()
        )

    def test_matches_uninterrupted_solve(self, lattice, recovered):
        """The recovered solve meets the same tolerance as the healthy
        one — recovery costs time, never correctness."""
        healthy = _solve(lattice)
        assert healthy.stats.converged and healthy.recoveries == 0
        assert healthy.true_residual < 1e-6
        assert recovered.true_residual < 1e-6

    def test_fail_fast_preserved_by_default(self, lattice):
        """With no RetryPolicy the same fault raises today's structured
        error (chaos tooling depends on the cause chain)."""
        with pytest.raises(RuntimeError, match="rank 1 crashed"):
            _solve(lattice, plan=CRASH_PLAN)

    def test_zero_attempts_policy_also_fails_fast(self, lattice):
        with pytest.raises(RuntimeError, match="rank 1 crashed"):
            _solve(
                lattice, plan=CRASH_PLAN, policy=RetryPolicy(max_attempts=0)
            )

    def test_fail_fast_and_recovery_blame_the_same_rank(self):
        """Rank 0 crashes at 1 ms, rank 1 at 0.4 ms: the fail-fast raise
        and the recovery ledger both name rank 1, the earliest death."""
        plan = (
            FaultPlan(seed=1)
            .with_stall(0, after_s=1000e-6, mode="crash")
            .with_stall(1, after_s=400e-6, mode="crash")
        )

        def run(policy):
            return invert_model(
                (8, 8, 8, 32),
                paper_invert_param(
                    "single-half", fixed_iterations=20, retry_policy=policy
                ),
                n_gpus=4,
                enforce_memory=False,
                fault_plan=plan,
            )

        with pytest.raises(RuntimeError, match="rank 1 failed") as info:
            run(RetryPolicy())
        died = root_cause(info.value, RankFailedError)
        assert (died.rank, round(died.model_time * 1e6, 3)) == (1, 426.487)
        failures = [
            e.rank for e in run(RetryPolicy(max_attempts=1)).recovery_events
            if e.kind == "rank_failure"
        ]
        assert failures == [died.rank]

    def test_no_shrink_relaunches_at_same_size(self, lattice):
        res = _solve(
            lattice,
            plan=CRASH_PLAN,
            policy=RetryPolicy(max_attempts=2, shrink=False),
        )
        assert res.stats.converged and res.recoveries >= 1
        assert len(res.comm_stats) == GPUS

    def test_stall_recovery(self, lattice):
        """A silent stall (no crash notification) is on the failure board
        the moment it happens and recovered the same way — it costs the
        wall clock what the crash of the same rank does, no timeout on top."""
        policy = RetryPolicy(max_attempts=2)
        t0 = time.monotonic()
        _solve(lattice, plan=CRASH_PLAN, policy=policy)
        t1 = time.monotonic()
        res = _solve(
            lattice, plan=FaultPlan(seed=5).with_stall(1, after_s=0.03), policy=policy
        )
        assert time.monotonic() - t1 < (t1 - t0) + 0.5
        assert res.stats.converged and res.recoveries >= 1
        assert res.true_residual < 1e-6


def _lockstep_nan_cdot(real_cdot, hits: set[int]):
    """Poison every cdot reduction whose per-rank count is in ``hits``
    with NaN — per rank, so every rank sees the identical bad value (as a
    real reduction fault would deliver) and the lockstep breakdown
    contract holds."""
    counts = {}

    def poisoned(gpu, x, y, qmp):
        k = id(qmp)
        counts[k] = counts.get(k, 0) + 1
        if counts[k] in hits:
            return complex("nan")
        return real_cdot(gpu, x, y, qmp)

    return poisoned


class TestBreakdownEscalation:
    def test_nan_reduction_escalates_and_converges(self, lattice, monkeypatch):
        monkeypatch.setattr(blas, "cdot", _lockstep_nan_cdot(blas.cdot, {20}))
        gauge, src = lattice
        inv = paper_invert_param("single-half", mass=MASS)
        res = invert(gauge, src, inv, n_gpus=2)
        assert res.stats.converged and res.true_residual < 1e-6
        assert res.stats.restarts >= 1
        assert res.stats.wasted_iterations > 0
        (ev,) = [e for e in res.recovery_events if e.kind == "restart"]
        assert "non_finite" in ev.detail

    def test_exhausted_ladder_raises_structured_breakdown(
        self, lattice, monkeypatch
    ):
        monkeypatch.setattr(blas, "cdot", _lockstep_nan_cdot(blas.cdot, {20}))
        gauge, src = lattice
        inv = paper_invert_param("single-half", mass=MASS, max_escalations=0)
        with pytest.raises(RuntimeError) as info:
            invert(gauge, src, inv, n_gpus=2)
        cause = info.value
        while cause is not None and not isinstance(cause, SolverBreakdown):
            cause = cause.__cause__
        assert cause is not None and cause.kind == "non_finite"

    @pytest.mark.parametrize("n_gpus", [1, 2])
    def test_switch_to_cg_converges(self, lattice, monkeypatch, n_gpus):
        """Two poisoned reductions walk the ladder to its CG rung.  CG's
        target and divergence bound are relative to its own |Mhat^dag b|,
        not to the |b| that BiCGstab left at the head of the history."""
        monkeypatch.setattr(blas, "cdot", _lockstep_nan_cdot(blas.cdot, {20, 34}))
        gauge, src = lattice
        res = invert(gauge, src, paper_invert_param("single-half", mass=MASS), n_gpus=n_gpus)
        assert [e.kind for e in res.recovery_events] == ["restart", "solver_switch"]
        assert res.stats.converged and res.true_residual < 1e-6


class TestCGRefresh:
    @pytest.mark.parametrize("mode", ["double", "single", "double-half", "single-half"])
    def test_cg_converges_through_refreshes(self, lattice, mode):
        """A refresh that does not end the solve restarts CG's search
        direction from the refreshed residual; a stale direction against
        the refreshed ``rr`` diverges in single and single-half."""
        gauge, src = lattice
        inv = paper_invert_param(mode, mass=MASS, solver="cg", max_escalations=0)
        res = invert(gauge, src, inv, n_gpus=1)
        assert res.stats.converged and res.stats.reliable_updates >= 2
        assert res.true_residual < 10 * inv.tol


class TestUnits:
    def test_ladder_order(self):
        ladder = EscalationLadder(
            solver="bicgstab",
            sloppy=Precision.HALF,
            full=Precision.DOUBLE,
            max_steps=4,
        )
        steps = []
        while (s := ladder.next_step()) is not None:
            steps.append((s.kind, s.solver, s.sloppy))
        assert steps == [
            ("restart", "bicgstab", Precision.HALF),
            ("solver_switch", "cg", Precision.HALF),
            ("precision_escalation", "cg", Precision.SINGLE),
            ("precision_escalation", "cg", Precision.DOUBLE),
        ]
        assert ladder.taken == 4

    def test_ladder_caps_at_full_precision_and_max_steps(self):
        ladder = EscalationLadder(
            solver="cg",
            sloppy=Precision.SINGLE,
            full=Precision.SINGLE,
            max_steps=3,
        )
        # CG, uniform precision: nothing to switch or escalate to.
        assert ladder.next_step().kind == "restart"
        assert ladder.next_step() is None

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=-1)

    def test_no_recovery_is_spelled_retry_policy(self):
        """``None`` is not a second "off": it is refused when the
        parameters are built, not when a rank dies mid-solve."""
        with pytest.raises(TypeError, match="RetryPolicy"):
            paper_invert_param("single-half", retry_policy=None)

    def test_ensure_finite(self):
        assert ensure_finite("x", 1.5 + 0j, iteration=3) == 1.5 + 0j
        with pytest.raises(SolverBreakdown) as info:
            ensure_finite("rho", float("nan"), iteration=7, rnorm=0.5)
        assert info.value.kind == "non_finite"
        assert info.value.iteration == 7

    def test_feasible_rank_count(self):
        geo = LatticeGeometry(DIMS)  # T = 8
        assert feasible_rank_count(geo, 4) == 4
        assert feasible_rank_count(geo, 3) == 2  # 3 does not divide 8
        assert feasible_rank_count(geo, 8) == 4  # local extent must be even
