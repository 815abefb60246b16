"""Acceptance tests for end-to-end data integrity in full solves.

The tentpole contract: a seeded corruption plan that flips one bit in a
halo payload mid-solve must be *detected* and *recovered* — the solve
reaches the same true-residual tolerance as a fault-free run — while the
identical plan with verification disabled demonstrably yields a wrong or
non-convergent result.
"""

from repro.bench.harness import chaos_invert, chaos_solve
from repro.comms import FaultPlan, IntegrityPolicy

DIMS = (4, 4, 4, 8)
GPUS = 2

#: One corrupted transmission per rank at probability 1: the very first
#: message each rank sends — the one-time gauge ghost exchange — takes a
#: single bit flip; the first resend redraws clean.
BITFLIP_PLAN = FaultPlan.corrupting(seed=3, bitflip_prob=1.0, budget=1)


class TestDetectAndRecover:
    def test_bitflip_detected_and_solve_recovers(self):
        report = chaos_invert(DIMS, "single", GPUS, BITFLIP_PLAN)
        assert report.completed
        assert report.converged
        assert report.corruptions_detected >= 1
        assert report.corruptions_corrected >= 1
        assert report.resends >= 1
        assert report.integrity_overhead_s > 0
        # The repaired solve reaches the same tolerance as fault-free.
        healthy = chaos_invert(DIMS, "single", GPUS, FaultPlan(seed=3))
        assert report.true_residual < 1e-6
        assert report.true_residual < 10 * max(healthy.true_residual, 1e-12)

    def test_verify_off_same_plan_goes_wrong(self):
        """The regression proving the layer earns its keep: identical
        plan, checksums disabled — the corrupted gauge ghost flows into
        every dslash application and the result cannot be trusted."""
        report = chaos_invert(
            DIMS, "single", GPUS, BITFLIP_PLAN,
            integrity=IntegrityPolicy.off(),
        )
        assert report.corruptions_detected == 0  # nothing watching
        wrong = not (
            report.completed
            and report.converged
            and report.true_residual is not None
            and report.true_residual < 1e-6
        )
        assert wrong

    def test_detection_deterministic_across_runs(self):
        r1 = chaos_invert(DIMS, "single", GPUS, BITFLIP_PLAN)
        r2 = chaos_invert(DIMS, "single", GPUS, BITFLIP_PLAN)
        assert r1.fault_events == r2.fault_events
        assert r1.corruptions_detected == r2.corruptions_detected
        assert r1.model_time == r2.model_time
        assert r1.true_residual == r2.true_residual


class TestResidentCorruption:
    def test_invariant_monitor_triggers_checkpoint_restore(self):
        plan = FaultPlan(seed=11).with_resident_corruption(
            0, after_s=0.002, scale=1e4
        )
        report = chaos_invert(DIMS, "single", GPUS, plan)
        assert report.completed and report.converged
        assert report.true_residual < 1e-6
        assert report.corruptions_detected >= 1
        assert report.corruptions_corrected >= 1
        kinds = [e.kind for e in report.recovery_events]
        assert "checkpoint_restore" in kinds
        assert "resident_corrupt" in [e.kind for e in report.fault_events]

    def test_restore_budget_bounds_the_rung(self):
        from repro.core.solvers.resilience import MAX_CORRUPTION_RESTORES, EscalationLadder
        from repro.gpu.precision import Precision

        ladder = EscalationLadder(
            solver="bicgstab", sloppy=Precision.SINGLE, full=Precision.SINGLE
        )
        steps = [
            ladder.corruption_step("bicgstab", Precision.SINGLE)
            for _ in range(MAX_CORRUPTION_RESTORES)
        ]
        assert MAX_CORRUPTION_RESTORES == 2
        assert all(s is not None and s.kind == "checkpoint_restore" for s in steps)
        assert ladder.corruption_step("bicgstab", Precision.SINGLE) is None
        # The corruption budget is separate: numerical rungs still open.
        assert ladder.next_step() is not None


class TestTimingModeAccounting:
    def test_model_solve_counts_corruptions(self):
        report = chaos_solve(
            DIMS, "single-half", GPUS, BITFLIP_PLAN, fixed_iterations=5
        )
        assert report.completed
        assert report.corruptions_detected >= 1
        assert report.corruptions_corrected >= 1
        assert report.integrity_overhead_s > 0

    def test_healthy_solve_reports_zero_integrity_cost(self):
        report = chaos_solve(
            DIMS, "single-half", GPUS, FaultPlan(seed=3), fixed_iterations=5
        )
        assert report.corruptions_detected == 0
        assert report.integrity_overhead_s == 0.0

    def test_unbounded_corruption_fails_loudly(self):
        plan = FaultPlan.corrupting(seed=3, bitflip_prob=1.0)  # no budget
        report = chaos_solve(
            DIMS, "single-half", GPUS, plan, fixed_iterations=5
        )
        assert not report.completed
        assert report.failure is not None
        assert report.failure.mode == "corrupted"
        assert report.corruptions_detected >= 1
