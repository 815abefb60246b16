"""Tests for the SimMPI message-passing runtime."""

import numpy as np
import pytest

from repro.comms import ClusterSpec, FaultPlan, RankFailedError, SimMPI, run_spmd
from repro.gpu.streams import Timeline


class TestPointToPoint:
    def test_ring_pass(self):
        def fn(comm):
            data = np.full(4, comm.rank, dtype=np.float64)
            comm.send(data, (comm.rank + 1) % comm.size)
            got = comm.recv((comm.rank - 1) % comm.size)
            return got[0]

        results = run_spmd(4, fn)
        assert results == [3.0, 0.0, 1.0, 2.0]

    def test_send_copies_buffer(self):
        """Mutating the buffer after send must not corrupt the message."""

        def fn(comm):
            if comm.rank == 0:
                data = np.ones(4)
                comm.send(data, 1)
                data[...] = -1
                return None
            return comm.recv(0).sum()

        assert run_spmd(2, fn)[1] == 4.0

    def test_tags_disambiguate(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
                return None
            # Receive in the opposite order of sending.
            second = comm.recv(0, tag=2)
            first = comm.recv(0, tag=1)
            return (first, second)

        assert run_spmd(2, fn)[1] == ("a", "b")

    def test_isend_irecv(self):
        def fn(comm):
            other = 1 - comm.rank
            req_r = comm.irecv(other)
            comm.isend(np.arange(3) + comm.rank, other).wait()
            return req_r.wait().tolist()

        results = run_spmd(2, fn)
        assert results[0] == [1, 2, 3] and results[1] == [0, 1, 2]

    def test_sendrecv(self):
        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, dest=right, source=left)

        assert run_spmd(3, fn) == [2, 0, 1]

    def test_bad_peer_rejected(self):
        def fn(comm):
            comm.send(1, 5)

        with pytest.raises(RuntimeError, match="rank 0 failed"):
            run_spmd(2, fn)


class TestCollectives:
    def test_allreduce_sum(self):
        results = run_spmd(4, lambda c: c.allreduce(float(c.rank)))
        assert results == [6.0] * 4

    def test_allreduce_array(self):
        def fn(comm):
            return comm.allreduce(np.full(3, comm.rank, dtype=float))

        for r in run_spmd(3, fn):
            np.testing.assert_array_equal(r, [3, 3, 3])

    def test_allreduce_complex(self):
        results = run_spmd(2, lambda c: c.allreduce(complex(c.rank, 1)))
        assert results == [1 + 2j] * 2

    def test_repeated_collectives(self):
        def fn(comm):
            total = 0.0
            for i in range(10):
                total += comm.allreduce(float(comm.rank + i))
            return total

        results = run_spmd(3, fn)
        assert results == [results[0]] * 3

    def test_allgather(self):
        results = run_spmd(3, lambda c: c.allgather(c.rank * 2))
        assert results == [[0, 2, 4]] * 3

    def test_bcast(self):
        results = run_spmd(3, lambda c: c.bcast(c.rank * 10 + 7, root=1))
        assert results == [17] * 3

    def test_barrier(self):
        run_spmd(4, lambda c: c.barrier())  # just must not deadlock


class TestErrors:
    def test_exception_propagates_with_rank(self):
        def fn(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 2 failed"):
            run_spmd(4, fn)

    def test_raise_names_the_earliest_death(self):
        """Two ranks crash on their own, the higher-numbered one first in
        model time: the raise names it, by the rule
        ``SpmdOutcome.root_failure`` (and recovery) use."""

        def body(comm):
            for _ in range(10):
                comm.timeline.host_busy("work", 1e-6)
                comm.send(None, comm.rank)
                comm.recv(comm.rank)

        plan = (
            FaultPlan(seed=1)
            .with_stall(0, after_s=100e-6, mode="crash")
            .with_stall(1, after_s=40e-6, mode="crash")
        )
        with pytest.raises(RuntimeError, match="rank 1 failed") as info:
            SimMPI(2, fault_plan=plan).run(body)
        assert isinstance(info.value.__cause__, RankFailedError)
        assert info.value.__cause__.rank == 1
        root = SimMPI(2, fault_plan=plan).run(body, return_partial=True).root_failure()
        assert (root.rank, root.model_time) == (1, info.value.__cause__.model_time)
        assert sorted(e.rank for e in info.value.fault_events) == [0, 1]

    def test_world_size_validated(self):
        with pytest.raises(ValueError):
            SimMPI(0)

    def test_single_rank_world(self):
        assert run_spmd(1, lambda c: c.allreduce(5.0)) == [5.0]


class TestModelTime:
    def test_recv_advances_clock(self):
        """A receive completes no earlier than send time + network time."""
        cluster = ClusterSpec(gpus_per_node=1)  # all inter-node (IB)

        def fn(comm):
            tl = Timeline()
            comm.bind_timeline(tl)
            if comm.rank == 0:
                tl.host_busy("compute", 1e-3)  # sender is busy for 1 ms
                comm.send(np.zeros(1024), 1)
                return tl.host_time
            got = comm.recv(0)
            assert got.shape == (1024,)
            return tl.host_time

        t0, t1 = run_spmd(2, fn, cluster=cluster)
        # Receiver had to wait for the sender's 1 ms plus the wire time.
        assert t1 > 1e-3
        # Sender pays the MPI posting overhead before the message leaves.
        expected = (
            1e-3
            + cluster.params.mpi_overhead_s
            + cluster.message_time(0, 1, 8 * 1024)
        )
        assert t1 == pytest.approx(expected, rel=1e-6)

    def test_intra_node_faster_than_inter(self):
        def exchange(cluster):
            def fn(comm):
                tl = Timeline()
                comm.bind_timeline(tl)
                other = 1 - comm.rank
                comm.send(np.zeros(2**16), other)
                comm.recv(other)
                return tl.host_time

            return max(run_spmd(2, fn, cluster=cluster))

        t_shm = exchange(ClusterSpec(gpus_per_node=2))
        t_ib = exchange(ClusterSpec(gpus_per_node=1))
        assert t_shm < t_ib

    def test_allreduce_synchronizes_clocks(self):
        def fn(comm):
            tl = Timeline()
            comm.bind_timeline(tl)
            tl.host_busy("work", 1e-3 * (comm.rank + 1))
            comm.allreduce(1.0)
            return tl.host_time

        times = run_spmd(3, fn)
        # Everyone leaves at the same model time, after the slowest rank.
        assert times[0] == pytest.approx(times[2])
        assert times[0] > 3e-3

    def test_determinism_across_runs(self):
        """Model times are identical run to run despite thread scheduling."""

        def fn(comm):
            tl = Timeline()
            comm.bind_timeline(tl)
            for _ in range(5):
                right = (comm.rank + 1) % comm.size
                left = (comm.rank - 1) % comm.size
                comm.sendrecv(np.zeros(512), dest=right, source=left)
                comm.allreduce(1.0)
            return tl.host_time

        a = run_spmd(4, fn)
        b = run_spmd(4, fn)
        assert a == b


class TestDeadlockDetection:
    def test_missing_sender_detected(self):
        def fn(comm):
            if comm.rank == 1:
                comm.recv(0)  # rank 0 never sends

        with pytest.raises(RuntimeError, match="deadlock"):
            run_spmd(2, fn)
