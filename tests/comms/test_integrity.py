"""Tests for the end-to-end data-integrity layer (checksummed envelopes,
NACK/resend repair, collective contribution verification)."""

import numpy as np
import pytest

from repro.comms import (
    ClusterSpec,
    CorruptionDetected,
    FaultPlan,
    IntegrityPolicy,
    SimMPI,
    checksum_payload,
    corrupt_payload,
    format_schedule,
    run_spmd,
)
from repro.gpu.streams import Timeline


def _exchange(comm):
    """One neighbour exchange + a reduction, returning the received sum."""
    comm.bind_timeline(Timeline())
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    payload = np.full(128, float(comm.rank + 1))
    comm.send(payload, right, tag=3)
    got = comm.recv(left, tag=3)
    total = comm.allreduce(float(got.sum()))
    return total, comm.timeline.host_time


def _cause_chain(exc):
    seen = set()
    while exc is not None and id(exc) not in seen:
        yield exc
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__


class TestChecksums:
    def test_checksum_is_content_function(self):
        a = np.arange(16, dtype=np.float64)
        assert checksum_payload(a) == checksum_payload(a.copy())
        b = a.copy()
        b[3] += 1e-9
        assert checksum_payload(a) != checksum_payload(b)

    def test_digest_is_a_pure_function_of_any_payload_value(self):
        """Arrays, tuples, scalars and values NumPy can only hold as
        ``object`` (dicts, ``None`` among numbers): equal values digest
        equal — fresh objects, so no address leaks in — and changing any
        one element changes the digest."""
        import copy

        def payloads():
            return {
                "array": np.arange(6, dtype=np.complex64),
                "tuple": (np.arange(4.0), np.ones(3, np.float32)),
                "tuple with None part": (np.arange(4.0), None),
                "scalar": 3.5,
                "complex scalar": 1 + 2j,
                "dict": {"norm": 1.5, "iters": [3, 4], "tag": "x"},
                "None among numbers": [1.0, None, 3],
                "mixed tuple": (np.arange(3.0), 2.5, {"k": [1, 2.0, None]}),
            }

        base = {name: checksum_payload(v) for name, v in payloads().items()}
        again = {
            name: checksum_payload(copy.deepcopy(v)) for name, v in payloads().items()
        }
        assert again == base

        changed = payloads()
        changed["array"][5] += 1
        changed["tuple"][1][2] = 2.0
        changed["tuple with None part"][0][0] = -1.0
        changed["scalar"] = 3.5000000000000004
        changed["complex scalar"] = 1 + 2.0000000000000004j
        changed["dict"]["iters"][1] = 5
        changed["None among numbers"][2] = 4
        changed["mixed tuple"][2]["k"][1] = 2.0000000000000004
        for name, value in changed.items():
            assert checksum_payload(value) != base[name], name

    def test_single_bitflip_changes_checksum(self):
        rng_key = dict(seed_key=(1, 2, 3), mode="bitflip", bits=1)
        a = np.ones(64)
        bad, detail = corrupt_payload(a, **rng_key)
        assert "bit" in detail
        assert checksum_payload(bad) != checksum_payload(a)

    def test_clean_sends_carry_verified_envelopes(self):
        world = SimMPI(2, integrity=IntegrityPolicy())
        results = world.run(_exchange)
        stats = world.comm_stats()
        assert all(s.corruptions_detected == 0 for s in stats)
        assert all(s.resends == 0 for s in stats)
        # Verification costs model time on both ends.
        assert all(s.integrity_overhead_s > 0 for s in stats)
        clean = run_spmd(2, _exchange)
        assert [v for v, _ in results] == [v for v, _ in clean]


class TestWireCorruption:
    def test_bitflip_detected_and_repaired_by_resend(self):
        plan = FaultPlan.corrupting(seed=3, bitflip_prob=1.0, budget=1)
        world = SimMPI(2, fault_plan=plan)  # integrity auto-armed
        results = world.run(_exchange)
        stats = world.comm_stats()
        assert sum(s.corruptions_detected for s in stats) == 2  # 1/rank
        assert sum(s.corruptions_corrected for s in stats) == 2
        assert sum(s.resends for s in stats) == 2
        kinds = [e.kind for e in world.fault_events()]
        assert "bitflip" in kinds
        assert "corruption_detected" in kinds
        assert "nack_resend" in kinds
        # Repaired delivery: values match the fault-free run exactly.
        clean = run_spmd(2, _exchange)
        assert [v for v, _ in results] == [v for v, _ in clean]

    def test_resend_exhaustion_is_loud(self):
        # Unlimited budget at p=1: every retransmission is corrupted too,
        # so the bounded NACK/resend gives up with a structured error.
        plan = FaultPlan.corrupting(seed=3, bitflip_prob=1.0)
        world = SimMPI(2, fault_plan=plan)
        with pytest.raises(RuntimeError) as exc_info:
            world.run(_exchange)
        found = [
            e for e in _cause_chain(exc_info.value)
            if isinstance(e, CorruptionDetected)
        ]
        assert found
        assert found[0].mode == "corrupted"
        assert found[0].expected != found[0].actual

    def test_verify_off_delivers_corrupted_payload_silently(self):
        plan = FaultPlan.corrupting(seed=3, bitflip_prob=1.0, budget=1)

        def fn(comm):
            comm.bind_timeline(Timeline())
            if comm.rank == 0:
                comm.send(np.ones(128), 1, tag=1)
                return None
            return float(comm.recv(0, tag=1).sum())

        world = SimMPI(2, fault_plan=plan, integrity=IntegrityPolicy.off())
        results = world.run(fn)
        assert results[1] != 128.0  # the flip went through undetected
        stats = world.comm_stats()
        assert all(s.corruptions_detected == 0 for s in stats)

    def test_scribble_mode_detected(self):
        plan = FaultPlan.corrupting(
            seed=5, bitflip_prob=0.0, scribble_prob=1.0, budget=1
        )
        world = SimMPI(2, fault_plan=plan)
        world.run(_exchange)
        kinds = [e.kind for e in world.fault_events()]
        assert "scribble" in kinds
        assert "corruption_detected" in kinds

    def test_timing_only_payloads_are_modelled(self):
        """nbytes-only sends have no data to hash, but the corruption
        model still detects and repairs by transmission count."""
        plan = FaultPlan.corrupting(seed=3, bitflip_prob=1.0, budget=1)

        def fn(comm):
            comm.bind_timeline(Timeline())
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(None, right, tag=1, nbytes=4096)
            comm.recv(left, tag=1)
            return comm.timeline.host_time

        world = SimMPI(2, fault_plan=plan)
        world.run(fn)
        stats = world.comm_stats()
        assert sum(s.corruptions_detected for s in stats) == 2
        assert sum(s.corruptions_corrected for s in stats) == 2


class TestCollectiveCorruption:
    def test_corrupted_contribution_detected_and_repaired(self):
        plan = FaultPlan.corrupting(seed=11, coll_prob=1.0)

        def fn(comm):
            comm.bind_timeline(Timeline())
            return comm.allreduce(float(comm.rank + 1))

        world = SimMPI(2, fault_plan=plan)
        results = world.run(fn)
        assert results == [3.0, 3.0]  # repaired from the pristine copy
        kinds = [e.kind for e in world.fault_events()]
        assert "coll_corrupt" in kinds
        assert "corruption_detected" in kinds
        stats = world.comm_stats()
        assert sum(s.corruptions_detected for s in stats) >= 1

    def test_verify_off_combines_wrong_value_deterministically(self):
        plan = FaultPlan.corrupting(seed=11, coll_prob=1.0)

        def fn(comm):
            comm.bind_timeline(Timeline())
            return comm.allreduce(float(comm.rank + 1))

        def once():
            world = SimMPI(
                2, fault_plan=plan, integrity=IntegrityPolicy.off()
            )
            return world.run(fn)

        r1, r2 = once(), once()
        assert r1 == r2  # deterministic
        assert r1[0] == r1[1]  # same (wrong) value on every rank
        assert r1[0] != 3.0


class TestIntegrityDefaults:
    def test_auto_armed_only_for_corrupting_plans(self):
        assert FaultPlan.corrupting(seed=1, bitflip_prob=0.1).injects_corruption
        assert not FaultPlan.jittery(1, prob=0.5).injects_corruption
        # A latency-only plan leaves integrity off: byte-identical model
        # times vs the seed behaviour.
        plan = FaultPlan.jittery(7, prob=0.5)
        w1 = SimMPI(2, fault_plan=plan)
        t_default = [t for _, t in w1.run(_exchange)]
        assert all(s.integrity_overhead_s == 0 for s in w1.comm_stats())
        w2 = SimMPI(2, fault_plan=plan, integrity=IntegrityPolicy())
        t_on = [t for _, t in w2.run(_exchange)]
        assert all(t_on[i] > t_default[i] for i in range(2))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            IntegrityPolicy(max_resend=-1)


class TestScheduleDeterminism:
    def test_corruption_events_stable_across_runs(self):
        plan = FaultPlan.corrupting(seed=13, bitflip_prob=0.5, budget=4)
        cluster = ClusterSpec()

        def once():
            world = SimMPI(4, cluster, plan)
            world.run(_exchange)
            return world.fault_events()

        ev1, ev2 = once(), once()
        assert ev1 == ev2
        assert format_schedule(ev1) == format_schedule(ev2)

    def test_schedule_sorted_by_time_rank_kind(self):
        plan = FaultPlan.corrupting(seed=13, bitflip_prob=0.5, budget=4)
        world = SimMPI(4, fault_plan=plan)
        world.run(_exchange)
        events = world.fault_events()
        keys = [(e.time, e.rank, e.kind) for e in events]
        assert keys == sorted(keys)
