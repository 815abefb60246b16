"""A request costs a slotted row.

The daemon keeps every request's record for its report and its
checkpoints, tens of thousands of them a campaign.  These checks hold
the compact layout: the four per-request classes carry no ``__dict__``,
equal batching keys are one tuple, lifecycle notes are kept flat and
read as an immutable ``trace`` (the arrival and admission details are
ints until read), and what a finished campaign retains per request
stays under a ceiling.
"""

import gc
import sys
import tracemalloc

import pytest

import repro.service as service
from repro.service import (
    Batch,
    RequestRecord,
    SolveRequest,
    SolveService,
    StructuredFailure,
    stream_workload,
)

#: Bytes a finished 2,000-request steady campaign retains per request
#: (CPython 3.11, tracemalloc): about 10 % over the 1,337 measured with
#: slotted rows and flat notes.  A ``__dict__`` per row and a tuple per
#: note retained 2,035–2,080.
RETAINED_CEILING = 1470


def _steady_config() -> service.ServiceConfig:
    """The ledger's ``serve-steady`` stack: tenancy, health, hedging,
    brownout and preemption on."""
    return service.ServiceConfig(
        queue_capacity=4096,
        policy=service.BatchPolicy(max_batch=4),
        n_workers=4,
        ranks_per_worker=2,
        preemption=service.PreemptionPolicy(enabled=True),
        health=service.HealthPolicy(enabled=True),
        hedge=service.HedgePolicy(enabled=True),
        brownout=service.BrownoutPolicy(enabled=True),
        tenancy=service.TenancyPolicy.build(("atlas", "bell"), weights=(3.0, 1.0)),
    )


def _steady_stream(n: int):
    return stream_workload(
        n, seed=2010, rate_rps=100.0, dims=(4, 4, 4, 8), mode="double-half",
        priority_mix=(0.1, 0.7, 0.2), deadline_slack_s=0.15,
        tenants=("atlas", "bell"),
    )


@pytest.fixture(scope="module")
def steady():
    return SolveService(_steady_config()).serve(_steady_stream(300))


def _record() -> RequestRecord:
    rec = RequestRecord(request=SolveRequest(req_id=7, priority=2, arrival_s=1e-3))
    rec.note(1e-3, "arrive", 2)
    rec.note(1e-3, "admit", 300)
    rec.note(2e-3, "dispatch", "batch 0 (size 1) on worker 0 (time-sliced), attempt 1")
    return rec


class TestSlottedRows:
    def test_no_instance_dict(self, steady):
        rec = steady.records[0]
        batch = steady.batches[0]
        failure = StructuredFailure(kind="worker_crash")
        for obj, cls in (
            (rec, RequestRecord),
            (rec.request, SolveRequest),
            (failure, StructuredFailure),
            (batch, Batch),
        ):
            assert type(obj) is cls
            assert not hasattr(obj, "__dict__"), cls.__name__

    def test_equal_keys_are_one_tuple(self, steady):
        keys = {}
        for rec in steady.records:
            key = rec.request.compat_key
            assert keys.setdefault(key, key) is key
        assert len(keys) < len(steady.records) // 10

    def test_rebuilt_request_shares_the_key(self):
        a = SolveRequest(req_id=1, config_id=3)
        b = SolveRequest.from_json(a.to_json())
        assert b == a
        assert b.compat_key is a.compat_key


class TestFlatNotes:
    def test_trace_is_immutable(self, steady):
        rec = steady.records[0]
        batch = steady.batches[0]
        for holder in (rec, batch):
            assert isinstance(holder.trace, tuple)
            assert all(type(note) is tuple and len(note) == 3 for note in holder.trace)
            with pytest.raises(AttributeError):
                holder.trace.append((0.0, "late", ""))
            with pytest.raises(AttributeError):
                holder.trace = ()

    def test_note_appends_one_triple(self, steady):
        batch = steady.batches[0]
        before = batch.trace
        batch.note(9.0, "late", "x")
        try:
            assert batch.trace == before + ((9.0, "late", "x"),)
        finally:
            del batch.notes[-3:]

    def test_deferred_details_read_as_strings(self):
        rec = _record()
        assert rec.notes[2] == 2 and rec.notes[5] == 300
        assert [detail for _, _, detail in rec.trace] == [
            "priority 2",
            "depth 300",
            "batch 0 (size 1) on worker 0 (time-sliced), attempt 1",
        ]
        assert rec.render_trace().splitlines()[:2] == [
            "    1000.000us  arrive       priority 2",
            "    1000.000us  admit        depth 300",
        ]

    def test_checkpoint_round_trip(self, steady):
        for rec in [_record(), *steady.records[:50]]:
            data = rec.to_json()
            assert all(isinstance(note[2], str) for note in data["trace"])
            clone = RequestRecord.from_json(data)
            assert clone.trace == rec.trace
            assert clone.render_trace() == rec.render_trace()
            assert clone.to_json() == data


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the ceiling is CPython 3.11's object sizes",
)
def test_retained_bytes_per_request():
    n = 2000
    SolveService(_steady_config()).serve(_steady_stream(50))  # warm the memoised tables
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        result = SolveService(_steady_config()).serve(_steady_stream(n))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del result
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert retained / n <= RETAINED_CEILING, retained / n
