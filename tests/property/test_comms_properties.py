"""Property-based tests of the SimMPI messaging guarantees."""

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms import run_spmd
from repro.comms.faults import RankFailedError
from repro.comms.mpi_sim import MPIDeadlockError


class TestMessagingProperties:
    @given(st.integers(1, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_fifo_per_channel(self, n_msgs, seed):
        """Messages between one (source, dest, tag) triple arrive in
        posting order, whatever the payload sizes."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 2000, size=n_msgs).tolist()

        def fn(comm):
            if comm.rank == 0:
                for i, size in enumerate(sizes):
                    payload = np.full(size, i, dtype=np.int64)
                    comm.send(payload, 1, tag=5)
                return None
            seen = [int(comm.recv(0, tag=5)[0]) for _ in range(len(sizes))]
            return seen

        assert run_spmd(2, fn)[1] == list(range(n_msgs))

    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_allreduce_agrees_with_serial_sum(self, n_ranks, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(n_ranks)

        def fn(comm):
            return comm.allreduce(float(values[comm.rank]))

        results = run_spmd(n_ranks, fn)
        assert all(abs(r - values.sum()) < 1e-12 for r in results)

    @given(st.integers(2, 5))
    @settings(max_examples=10, deadline=None)
    def test_ring_shift_is_a_permutation(self, n_ranks):
        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, dest=right, source=left)

        results = run_spmd(n_ranks, fn)
        assert sorted(results) == list(range(n_ranks))


# --------------------------------------------------------------------------- #
# Random programs against a sequential reference matcher
# --------------------------------------------------------------------------- #


@st.composite
def _programs(draw):
    """Per-rank op lists: ``("send", dest, tag)``, ``("recv", source, tag)``
    or ``("coll",)`` — most of them deadlock somewhere, which is the point."""
    n_ranks = draw(st.integers(2, 4))
    peer, tag = st.integers(0, n_ranks - 1), st.integers(0, 1)
    op = st.one_of(
        st.tuples(st.just("send"), peer, tag),
        st.tuples(st.just("recv"), peer, tag),
        st.just(("coll",)),
    )
    return [draw(st.lists(op, max_size=6)) for _ in range(n_ranks)]


def _reference(programs):
    """Advance whichever rank can move until none can: buffered sends,
    FIFO per ``(source, dest, tag)``, world-wide collectives.  Returns the
    per-rank observations and the set of ranks left stuck."""
    n = len(programs)
    pc = [0] * n
    seen = [[] for _ in range(n)]
    boxes: dict = {}
    progressed = True
    while progressed:
        progressed = False
        for rank, prog in enumerate(programs):
            while pc[rank] < len(prog) and prog[pc[rank]][0] != "coll":
                kind, peer, tag = prog[pc[rank]]
                if kind == "send":
                    boxes.setdefault((rank, peer, tag), []).append((rank, pc[rank]))
                elif boxes.get((peer, rank, tag)):
                    seen[rank].append(boxes[peer, rank, tag].pop(0))
                else:
                    break
                pc[rank] += 1
                progressed = True
        if all(pc[r] < len(programs[r]) and programs[r][pc[r]][0] == "coll"
               for r in range(n)):
            total = sum(pc)  # every rank contributes its step number
            for r in range(n):
                seen[r].append(total)
                pc[r] += 1
            progressed = True
    return seen, {r for r in range(n) if pc[r] < len(programs[r])}


class TestRandomPrograms:
    @given(_programs())
    @settings(max_examples=120, deadline=None)
    def test_completion_matches_the_reference_and_stuck_programs_raise(self, programs):
        def fn(comm):
            seen = []
            for step, op in enumerate(programs[comm.rank]):
                if op[0] == "send":
                    comm.send((comm.rank, step), op[1], tag=op[2])
                elif op[0] == "recv":
                    seen.append(comm.recv(op[1], tag=op[2]))
                else:
                    seen.append(comm.allreduce(step))
            return seen

        box = []
        runner = threading.Thread(
            target=lambda: box.append(
                run_spmd(len(programs), fn, return_partial=True)
            )
        )
        runner.start()
        runner.join(timeout=10.0)
        assert not runner.is_alive(), "a stuck program hung instead of raising"
        (outcome,) = box
        seen, stuck = _reference(programs)
        assert set(outcome.failures) == stuck
        for rank, failure in outcome.failures.items():
            assert isinstance(failure.error, (MPIDeadlockError, RankFailedError))
        for rank in outcome.survivors:
            assert outcome.results[rank] == seen[rank]
