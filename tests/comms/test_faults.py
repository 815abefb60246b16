"""Chaos regression suite: deterministic fault injection in SimMPI.

The contract under test (see :mod:`repro.comms.faults`):

* same seed => byte-identical fault schedule and identical model times,
  regardless of OS thread scheduling;
* faults perturb *time*, never payload bits;
* rank stalls/crashes surface a structured RankFailedError at once —
  peers are woken by the death itself, no timer runs anywhere — and every
  SPMD thread is joined afterwards;
* ``return_partial=True`` reports survivors' results alongside
  structured failures (graceful degradation).
"""

import threading
import time

import numpy as np
import pytest

from repro.comms import ClusterSpec, run_spmd
from repro.comms.faults import (
    MAX_SEND_ATTEMPTS,
    FaultPlan,
    LinkFaults,
    RankFailedError,
    StallSpec,
    format_schedule,
    root_cause,
)
from repro.comms.mpi_sim import SimMPI, SpmdOutcome
from repro.gpu.streams import Timeline


def _ring_workload(comm):
    """A representative exchange: neighbour ring traffic + reductions."""
    comm.bind_timeline(Timeline())
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    total = 0.0
    for step in range(6):
        payload = np.full(64, float(comm.rank * 100 + step))
        comm.send(payload, right, tag=1)
        got = comm.recv(left, tag=1)
        total += float(got.sum())
        total = comm.allreduce(total)
    return total, comm.timeline.host_time


class TestDeterminism:
    def test_same_seed_same_schedule_and_times(self):
        def once():
            world = SimMPI(4, fault_plan=FaultPlan.jittery(7, prob=0.5))
            results = world.run(_ring_workload)
            return results, world.fault_events()

        r1, ev1 = once()
        r2, ev2 = once()
        assert ev1 == ev2  # frozen dataclasses: exact field equality
        assert format_schedule(ev1) == format_schedule(ev2)
        assert r1 == r2  # values AND model times identical
        assert len(ev1) > 0

    def test_different_seeds_differ(self):
        def schedule(seed):
            world = SimMPI(4, fault_plan=FaultPlan.jittery(seed, prob=0.5))
            world.run(_ring_workload)
            return world.fault_events()

        assert schedule(7) != schedule(8)

    def test_sampling_is_pure(self):
        plan = FaultPlan.jittery(42, prob=0.4, spike_prob=0.1)
        for args in [("ib", 0, 1, 5, 3), ("shm", 2, 3, 1, 0)]:
            assert plan.extra_latency(*args) == plan.extra_latency(*args)
        assert plan.send_failures(0, 1, 5, 3) == plan.send_failures(0, 1, 5, 3)

    def test_faults_never_touch_payloads(self):
        clean = run_spmd(4, _ring_workload)
        noisy = run_spmd(
            4, _ring_workload, fault_plan=FaultPlan.jittery(3, prob=0.8)
        )
        for (v_clean, t_clean), (v_noisy, t_noisy) in zip(clean, noisy):
            assert v_noisy == v_clean  # bit-identical values
            assert t_noisy > t_clean  # strictly later under jitter


class TestJitter:
    def test_jitter_slows_model_time_by_recorded_amount(self):
        plan = FaultPlan.jittery(5, prob=1.0, jitter_s=50e-6)
        world = SimMPI(2, fault_plan=plan)
        results = world.run(_ring_workload)
        events = world.fault_events()
        assert all(e.kind == "jitter" for e in events)
        assert all(e.delay_s > 0 for e in events)
        clean = run_spmd(2, _ring_workload)
        slowdown = max(t for _, t in results) - max(t for _, t in clean)
        assert slowdown > 0
        # The ring serializes, so total slowdown <= total injected delay.
        assert slowdown <= sum(e.delay_s for e in events) + 1e-12

    def test_shm_and_ib_links_configured_independently(self):
        plan = FaultPlan(seed=1, ib=LinkFaults(1.0, 10e-6))
        cluster = ClusterSpec(gpus_per_node=2)
        world = SimMPI(4, cluster, plan)
        world.run(_ring_workload)
        kinds = {
            cluster.link_kind(e.rank, e.peer) for e in world.fault_events()
        }
        assert kinds == {"ib"}  # shm links were left clean


class TestRetries:
    def test_transient_failures_retry_and_charge_backoff(self):
        plan = FaultPlan.flaky(9, fail_prob=0.4)
        world = SimMPI(2, fault_plan=plan)
        results = world.run(_ring_workload)
        retries = [e for e in world.fault_events() if e.kind == "send_retry"]
        assert retries  # p=0.4 over 24 sends: vanishing chance of none
        stats = world.comm_stats()
        assert sum(s.retries for s in stats) == len(retries)
        assert sum(s.fault_delay_s for s in stats) > 0
        # Delivery is exactly-once: results match the clean run's values.
        clean = run_spmd(2, _ring_workload)
        assert [v for v, _ in results] == [v for v, _ in clean]

    def test_retry_count_capped(self):
        plan = FaultPlan(seed=0, send_fail_prob=0.99)
        failures = [plan.send_failures(0, 1, 0, seq) for seq in range(50)]
        # The last attempt always goes through, and at p=0.99 most sends
        # use every retry.
        assert max(failures) == MAX_SEND_ATTEMPTS - 1


class TestRootCause:
    def test_finds_the_kind_through_cause_and_context(self):
        failure = RankFailedError(1, "MPI_Recv", 2e-6, mode="crashed")
        middle = RuntimeError("rank 1 failed")
        middle.__cause__ = failure
        outer = ValueError("solve failed")
        outer.__context__ = middle
        assert root_cause(outer, RankFailedError) is failure
        assert root_cause(failure, RankFailedError) is failure
        assert root_cause(outer, KeyError) is None
        assert root_cause(None, RankFailedError) is None

    def test_a_chain_that_loops_back_ends_the_walk(self):
        a = RuntimeError("a")
        b = RuntimeError("b")
        a.__context__ = b
        b.__context__ = a
        assert root_cause(a, RankFailedError) is None
        a.__context__ = a
        assert root_cause(a, RankFailedError) is None


class TestStallsAndCrashes:
    def test_stall_surfaces_rank_failed_at_once(self):
        plan = FaultPlan(seed=1).with_stall(1, after_s=1e-6)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="rank 1 stalled") as exc_info:
            run_spmd(3, _ring_workload, fault_plan=plan)
        # The stall wakes its waiters; nobody sits out a timeout.
        assert time.monotonic() - t0 < 0.5
        failure = exc_info.value.__cause__
        assert isinstance(failure, RankFailedError)
        assert failure.rank == 1
        assert failure.mode == "stalled"
        assert failure.model_time >= 0.0

    def test_all_threads_joined_after_stall(self):
        plan = FaultPlan(seed=2).with_stall(0, after_s=1e-6)
        before = {t.ident for t in threading.enumerate()}
        t0 = time.monotonic()
        with pytest.raises(RuntimeError):
            run_spmd(4, _ring_workload, fault_plan=plan)
        assert time.monotonic() - t0 < 0.5
        leaked = [
            t
            for t in threading.enumerate()
            if t.ident not in before and t.name.startswith("simmpi-")
        ]
        assert leaked == []

    def test_crash_is_loud_and_attributed(self):
        plan = FaultPlan(seed=3).with_stall(2, after_s=1e-6, mode="crash")
        with pytest.raises(RuntimeError, match="rank 2 crashed"):
            run_spmd(4, _ring_workload, fault_plan=plan)

    def test_stall_out_of_range_rejected(self):
        plan = FaultPlan(seed=0).with_stall(5)
        with pytest.raises(ValueError, match="rank 5"):
            SimMPI(2, fault_plan=plan)

    def test_duplicate_stall_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(seed=0, stalls=(StallSpec(1), StallSpec(1)))


class TestGracefulDegradation:
    def test_partial_results_report_survivors(self):
        plan = FaultPlan(seed=4).with_stall(1, after_s=1e-6)
        t0 = time.monotonic()
        outcome = run_spmd(
            4, _ring_workload, fault_plan=plan, return_partial=True
        )
        assert time.monotonic() - t0 < 0.5
        assert isinstance(outcome, SpmdOutcome)
        assert not outcome.ok
        assert 1 in outcome.failures
        assert outcome.failures[1].mode == "stalled"
        assert outcome.results[1] is None
        # Peers of the dead rank are reported too (blocked on its silence),
        # and nothing in the world is left running.
        assert set(outcome.failures) | set(outcome.survivors) == {0, 1, 2, 3}
        assert len(outcome.stats) == 4

    def test_partial_mode_clean_run(self):
        outcome = run_spmd(2, _ring_workload, return_partial=True)
        assert outcome.ok
        assert outcome.survivors == [0, 1]
        assert outcome.fault_events == []
        assert all(r is not None for r in outcome.results)

    def test_fault_events_attached_to_raised_error(self):
        plan = FaultPlan.jittery(6, prob=0.9).with_stall(0, after_s=1e-6)
        with pytest.raises(RuntimeError) as exc_info:
            run_spmd(2, _ring_workload, fault_plan=plan)
        events = exc_info.value.fault_events
        assert any(e.kind == "stall" for e in events)


class TestSchedule:
    def test_format_schedule_stable_and_complete(self):
        world = SimMPI(4, fault_plan=FaultPlan.jittery(7, prob=0.5))
        world.run(_ring_workload)
        text = format_schedule(world.fault_events())
        assert text.count("\n") == len(world.fault_events())  # + header
        assert "jitter" in text

    def test_empty_schedule(self):
        assert format_schedule([]) == "(no faults injected)"

    def test_describe_mentions_everything(self):
        plan = FaultPlan.jittery(1, prob=0.2, spike_prob=0.05)
        plan = plan.with_stall(3, after_s=2e-3, mode="crash")
        text = plan.describe()
        for needle in ("seed=1", "jitter", "spike", "crash rank 3"):
            assert needle in text
