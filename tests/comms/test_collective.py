"""Collectives: one verified contribution list per collective, shared.

The last rank to arrive at a collective verifies every contribution and
fixes the entry time once; each rank then applies the combine itself, so
what a rank receives is what it always received.  Pinned here, at 1, 2
and 5 ranks, for an ndarray ``allreduce``, a scalar ``allreduce`` and an
``allgather``:

* every rank gets an equal result;
* mutating one rank's result in place leaves every other rank's alone;
* with verification on and one poisoned contribution, the repaired
  result, the per-rank ``corruptions_detected`` (rank 0 only) and every
  rank's model clock match ``data/golden_collective.json``, which was
  recorded before the verify-once change.

Running this file as a script re-records that file.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.comms import SimMPI
from repro.comms.faults import FaultPlan, IntegrityPolicy
from repro.gpu.streams import Timeline

GOLDEN = Path(__file__).parent / "data" / "golden_collective.json"
WORLD_SIZES = (1, 2, 5)


def _contribution(kind: str, rank: int):
    if kind == "allreduce_array":
        return np.arange(6.0) * (rank + 1)
    return float(rank + 1) * 0.5


def _collect(comm, kind: str):
    value = _contribution(kind, comm.rank)
    if kind == "allgather":
        return comm.allgather(value)
    return comm.allreduce(value)


def _plain(result):
    """A JSON-able, exact form of a collective result."""
    if isinstance(result, np.ndarray):
        return [repr(x) for x in result.tolist()]
    if isinstance(result, list):
        return [repr(x) for x in result]
    return repr(result)


def one_poison_plan(size: int) -> FaultPlan:
    """The first seed whose plan poisons exactly one contribution to
    collective #0 of a ``size``-rank world."""
    for seed in range(1000):
        plan = FaultPlan(seed=seed, coll_corrupt_prob=0.5)
        if sum(plan.coll_corrupt(r, 0) for r in range(size)) == 1:
            return plan
    raise AssertionError("no single-poison seed below 1000")


def poisoned_record(kind: str, size: int) -> dict:
    def fn(comm):
        comm.bind_timeline(Timeline())
        result = _collect(comm, kind)
        return _plain(result), repr(comm.timeline.host_time)

    world = SimMPI(size, fault_plan=one_poison_plan(size), integrity=IntegrityPolicy())
    out = world.run(fn)
    stats = world.comm_stats()
    return {
        "results": [r for r, _ in out],
        "host_times": [t for _, t in out],
        "corruptions_detected": [s.corruptions_detected for s in stats],
        "fault_delay_s": [repr(s.fault_delay_s) for s in stats],
    }


KINDS = ("allreduce_array", "allreduce_scalar", "allgather")
CASES = [(kind, size) for kind in KINDS for size in WORLD_SIZES]


@pytest.mark.parametrize("kind,size", CASES)
def test_every_rank_gets_an_equal_result(kind, size):
    results = SimMPI(size).run(lambda comm: _plain(_collect(comm, kind)))
    assert all(r == results[0] for r in results)
    expected = [_contribution(kind, r) for r in range(size)]
    if kind == "allgather":
        assert results[0] == _plain(expected)
    else:
        assert results[0] == _plain(sum(expected[1:], expected[0]))


@pytest.mark.parametrize("kind,size", CASES)
def test_mutating_one_result_leaves_the_others(kind, size):
    def fn(comm):
        result = _collect(comm, kind)
        if comm.rank == 0:  # damage it before anyone else has combined
            if isinstance(result, np.ndarray):
                result[:] = -1.0
            elif isinstance(result, list):
                result.append("scribbled")
        comm.barrier()
        return _plain(result)

    results = SimMPI(size).run(fn)
    clean = SimMPI(size).run(lambda comm: _plain(_collect(comm, kind)))
    assert results[1:] == clean[1:]


@pytest.mark.parametrize("kind,size", CASES)
def test_poisoned_contribution_matches_golden(kind, size):
    golden = json.loads(GOLDEN.read_text())[f"{kind}/{size}"]
    record = poisoned_record(kind, size)
    assert record == golden
    assert record["corruptions_detected"][1:] == [0] * (size - 1)
    assert record["corruptions_detected"][0] == 1


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {f"{k}/{s}": poisoned_record(k, s) for k, s in CASES}, indent=2
        )
        + "\n"
    )
    print(f"recorded {len(CASES)} case(s) in {GOLDEN}")
