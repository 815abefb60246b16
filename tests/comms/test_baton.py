"""The baton scheduler under SimMPI: one runnable rank, in a fixed order.

What is pinned here (see the :mod:`repro.comms.mpi_sim` docstring):

* deadlock is a *state* — no runnable rank while one is live — raised at
  once in every waiter with who-waits-on-whom, never a timer;
* the interleaving of rank bodies is a pure function of the program, so
  the event log, the unsorted fault schedule and every model clock repeat
  exactly, whatever the interpreter's switch interval;
* a world can be run again, and nothing of the last run leaks into it;
* rank threads sit on the launcher's CPU and none outlives ``run``.

Running this file as a script re-records ``data/golden_host_times.json``;
the committed values were recorded at the free-running-threads parent of
the baton change, so they also pin "any fixed order yields the same
model clock".
"""

import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.comms import ClusterSpec, SimMPI, run_spmd
from repro.comms.faults import FaultPlan, LinkFaults, RankFailedError
from repro.comms.mpi_sim import MPIDeadlockError

from .test_faults import _ring_workload as _ring

GOLDEN = Path(__file__).parent / "data" / "golden_host_times.json"
WORLD_SIZES = (2, 5, 32)


def chaos_plan() -> FaultPlan:
    """Jitter + transient send failures + in-flight and collective
    corruption: every fault kind that completes."""
    ib = LinkFaults(jitter_prob=0.4, jitter_s=20e-6, bitflip_prob=0.08)
    shm = LinkFaults(jitter_prob=0.4, jitter_s=2e-6, scribble_prob=0.08)
    return FaultPlan(
        seed=7, ib=ib, shm=shm, send_fail_prob=0.15, coll_corrupt_prob=0.05
    )


def logged_workload(log: list):
    """Ring + allreduce + Isend/Irecv; every rank appends ``(rank, step)``
    to the one shared ``log`` around each blocking operation."""

    def fn(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        total = 0.0
        step = 0

        def mark():
            nonlocal step
            log.append((comm.rank, step))
            step += 1

        for it in range(4):
            mark()
            comm.send(np.full(48, float(comm.rank * 100 + it)), right, tag=1)
            mark()
            total += float(comm.recv(left, tag=1).sum())
            mark()
            total = comm.allreduce(total)
            mark()
            req = comm.irecv(left, tag=2)
            comm.isend(np.arange(16.0) + comm.rank, right, tag=2).wait()
            mark()
            total += float(req.wait()[0])
            mark()
        return total, comm.timeline.host_time

    return fn


def run_logged(size: int):
    """One chaos run: ``(event log, results, fault log in arrival order)``."""
    log: list = []
    world = SimMPI(size, ClusterSpec(gpus_per_node=2), chaos_plan())
    results = world.run(logged_workload(log))
    return log, results, list(world._state.fault_log)


def _rank_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("simmpi-")]


class TestDeadlockIsAState:
    """Each case raises within 0.1 s wall: nothing waits out a clock."""

    @staticmethod
    def _deadlock(size, fn) -> str:
        t0 = time.monotonic()
        with pytest.raises(RuntimeError) as exc_info:
            run_spmd(size, fn)
        assert time.monotonic() - t0 < 0.1
        assert isinstance(exc_info.value.__cause__, MPIDeadlockError)
        assert _rank_threads() == []
        return str(exc_info.value.__cause__)

    def test_mismatched_tag(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("x", 1, tag=1)
            else:
                comm.recv(0, tag=2)

        msg = self._deadlock(2, fn)
        assert "rank 1: MPI_Recv(from 0)" in msg and "tag 2" in msg

    def test_missing_sender(self):
        def fn(comm):
            if comm.rank == 1:
                comm.recv(0)

        msg = self._deadlock(2, fn)
        assert "rank 1: MPI_Recv(from 0): rank 0 finished without sending" in msg

    def test_rank_returns_while_peers_sit_in_a_collective(self):
        def fn(comm):
            if comm.rank != 2:
                comm.barrier()

        msg = self._deadlock(4, fn)
        assert "MPI_Barrier: rank 2 returned without entering it" in msg

    def test_three_rank_receive_cycle(self):
        def fn(comm):
            comm.recv((comm.rank + 1) % 3, tag=comm.rank)

        msg = self._deadlock(3, fn)
        assert "no runnable rank" in msg
        for rank in range(3):
            peer = (rank + 1) % 3
            assert f"rank {rank} waits on MPI_Recv(from {peer}) tag {rank}" in msg

    def test_every_waiter_of_a_cycle_is_told(self):
        outcome = run_spmd(
            3, lambda c: c.recv((c.rank + 1) % 3), return_partial=True
        )
        assert sorted(outcome.failures) == [0, 1, 2]
        assert all(
            isinstance(f.error, MPIDeadlockError) for f in outcome.failures.values()
        )

    def test_messages_drain_before_a_finished_sender_is_blamed(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("late", 1)
                return None
            return comm.recv(0)

        assert run_spmd(2, fn)[1] == "late"


class TestFailuresSurfaceUnchanged:
    def test_stall_and_crash_keep_rank_mode_op_and_model_time(self):
        for mode, expect in (("stall", "stalled"), ("crash", "crashed")):
            plan = FaultPlan(seed=3).with_stall(1, after_s=1e-6, mode=mode)
            t0 = time.monotonic()
            outcome = run_spmd(3, _ring, fault_plan=plan, return_partial=True)
            assert time.monotonic() - t0 < 0.5
            root = outcome.root_failure()
            assert (root.rank, root.mode) == (1, expect)
            assert isinstance(root.error, RankFailedError)
            assert root.op.startswith("MPI_") and root.model_time >= 1e-6
            collateral = [f for f in outcome.failures.values() if f is not root]
            assert collateral and all(f.mode == "collateral" for f in collateral)
            assert all(f.error.rank == 1 for f in collateral)
            assert [e.kind for e in outcome.fault_events] == [mode]
            assert _rank_threads() == []

    def test_keyboard_interrupt_in_the_launcher_unwinds_parked_ranks(self):
        """SIGINT lands in the launcher (the main thread) while rank 0
        spins and rank 1 is parked; both must be gone when it re-raises."""
        if threading.current_thread() is not threading.main_thread():
            pytest.skip("signals reach the main thread only")
        entered = []

        def fn(comm):
            if comm.rank == 1:
                return comm.recv(0)
            entered.append(True)
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            deadline = time.monotonic() + 5.0
            while comm._state.verdict is None and time.monotonic() < deadline:
                time.sleep(0.001)  # drops the GIL: the launcher gets to run
            comm.recv(1)  # never sent: raises instead of parking

        with pytest.raises(KeyboardInterrupt):
            run_spmd(2, fn)
        assert entered and _rank_threads() == []


class TestWorldRunsTwice:
    def test_clean_then_clean(self):
        world = SimMPI(4, fault_plan=FaultPlan.jittery(7, prob=0.5))
        first = world.run(_ring)
        events = world.fault_events()
        stats = world.comm_stats()
        assert world.run(_ring) == first
        assert world.fault_events() == events  # the last run's, not both
        assert world.comm_stats() == stats
        assert stats[0].sends == 6

    def test_receiver_first_then_sender_first(self):
        """The parent's failure: run 1's ``finished`` board made run 2's
        early receiver blame a sender that had not started yet."""
        world = SimMPI(2)

        def fn(comm):
            if comm.rank == 0:
                return comm.recv(1)
            comm.send(comm.rank, 0)

        assert world.run(fn) == world.run(fn) == [1, None]

    def test_failed_then_clean(self):
        world = SimMPI(3)

        def flaky(comm, fail=[True]):
            if comm.rank == 1 and fail:
                fail.clear()
                raise ValueError("boom")
            return _ring(comm)

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            world.run(flaky)
        assert world.run(flaky) == SimMPI(3).run(_ring)

    def test_stalled_then_clean(self):
        plan = FaultPlan(seed=1).with_stall(0, after_s=1e-6)
        world = SimMPI(3, fault_plan=plan)
        first = world.run(_ring, return_partial=True)
        second = world.run(_ring, return_partial=True)
        assert first.root_failure().mode == "stalled"
        assert [(f.rank, f.mode, f.op, f.model_time)
                for f in first.failures.values()] == [
            (f.rank, f.mode, f.op, f.model_time) for f in second.failures.values()
        ]
        assert second.fault_events == first.fault_events
        assert len(world.fault_events()) == 1  # one stall, not two

    def test_nothing_to_report_before_the_first_run(self):
        world = SimMPI(2)
        assert world.fault_events() == [] and world.comm_stats() == []


class TestDeterministicInterleaving:
    @pytest.mark.parametrize("size", WORLD_SIZES)
    def test_log_schedule_and_clocks_repeat(self, size):
        first = run_logged(size)
        assert len(first[0]) == size * 24 and first[2]
        for _ in range(19):
            assert run_logged(size) == first
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run_logged(size) == first
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("size", WORLD_SIZES)
    def test_host_times_match_the_free_running_parent(self, size):
        golden = json.loads(GOLDEN.read_text())[str(size)]
        assert [t for _, t in run_logged(size)[1]] == golden

    def test_lowest_runnable_rank_goes_first(self):
        log: list = []
        run_spmd(3, logged_workload(log))
        # Rank 0 parks in its first receive; rank 1 finds rank 0's message
        # waiting, so it runs on into the allreduce before rank 2 starts.
        assert log[:7] == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]


class TestPlacement:
    def test_rank_threads_share_one_cpu_and_the_caller_keeps_its_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no thread affinity on this platform")
        before = os.sched_getaffinity(0)
        masks = run_spmd(4, lambda c: (c.barrier(), os.sched_getaffinity(0))[1])
        assert os.sched_getaffinity(0) == before
        assert len({frozenset(m) for m in masks}) == 1
        assert len(masks[0]) == 1 and masks[0] <= before

    def test_refused_or_missing_affinity_is_a_no_op(self, monkeypatch):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no thread affinity on this platform")
        expected = run_spmd(3, _ring)

        def refuse(pid, mask):
            raise OSError("EPERM")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert run_spmd(3, _ring) == expected
        monkeypatch.delattr(os, "sched_setaffinity")
        assert run_spmd(3, _ring) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {str(n): [t for _, t in run_logged(n)[1]] for n in WORLD_SIZES},
            indent=1,
        )
        + "\n"
    )
    print(f"recorded host times for {WORLD_SIZES} in {GOLDEN}")
