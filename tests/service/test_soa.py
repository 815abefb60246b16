"""The SoA hot-path containers agree with the record-sweep reference.

``RecordColumns`` and the incrementally-sorted admission queue replace
per-call object sweeps; these tests pin that the replacement is
*observationally identical* — same counts, same percentile inputs, same
scheduling order — under randomized lifecycles, including the edge
states (no dispatch, no deadline, zero records).
"""

import math
import random

import numpy as np
import pytest

from repro.service.metrics import percentile
from repro.service.queueing import AdmissionQueue, _order_key
from repro.service.request import (
    COMPLETED,
    FAILED,
    QUEUED,
    REJECTED,
    RequestRecord,
    SolveRequest,
)
from repro.service.soa import RecordColumns


def _records(seed, n=120):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        arrival = rng.uniform(0.0, 1.0)
        req = SolveRequest(
            req_id=i,
            arrival_s=arrival,
            priority=rng.choice([0, 1, 2]),
            deadline_s=(
                arrival + rng.uniform(0.01, 0.5) if rng.random() < 0.6 else None
            ),
            tenant=rng.choice([None, "a", "b", "c"]),
        )
        rec = RequestRecord(request=req)
        state = rng.choice([QUEUED, COMPLETED, COMPLETED, FAILED, REJECTED])
        rec.state = state
        if state in (COMPLETED, FAILED):
            rec.dispatched_s = arrival + rng.uniform(0.0, 0.2)
            rec.attempts = rng.randint(1, 3)
        if state == COMPLETED:
            rec.completed_s = rec.dispatched_s + rng.uniform(0.0, 0.3)
            rec.degraded = rng.random() < 0.2
        if state == REJECTED:
            rec.shed = rng.random() < 0.5
        records.append(rec)
    return records


class TestRecordColumns:
    def test_counts_match_reference(self):
        for seed in range(5):
            records = _records(seed)
            cols = RecordColumns(records)
            assert cols.count(cols.completed) == sum(
                1 for r in records if r.state == COMPLETED
            )
            assert cols.count(cols.failed) == sum(
                1 for r in records if r.state == FAILED
            )
            assert cols.count(cols.rejected) == sum(
                1 for r in records if r.state == REJECTED
            )
            assert cols.retries() == sum(
                max(0, r.attempts - 1) for r in records
            )
            assert cols.count(cols.met_deadline) == sum(
                1 for r in records if r.met_deadline
            )
            assert cols.count(cols.completed & cols.degraded) == sum(
                1 for r in records if r.state == COMPLETED and r.degraded
            )

    def test_percentile_inputs_match_reference(self):
        records = _records(11)
        cols = RecordColumns(records)
        ref_waits = sorted(r.wait_s for r in records if r.wait_s is not None)
        ref_lat = sorted(
            r.latency_s
            for r in records
            if r.state == COMPLETED and r.latency_s is not None
        )
        assert cols.sorted_waits() == ref_waits
        assert cols.sorted_latencies() == ref_lat
        for q in (50, 95, 99):
            assert percentile(cols.sorted_waits(), q) == percentile(
                ref_waits, q
            )

    def test_tenant_masks_match_reference(self):
        records = _records(23)
        cols = RecordColumns(records)
        for name in (None, "a", "b", "c"):
            mask = cols.tenant_mask(name)
            assert cols.count(mask) == sum(
                1 for r in records if r.request.tenant == name
            )
            assert cols.sorted_latencies(mask) == sorted(
                r.latency_s
                for r in records
                if r.request.tenant == name
                and r.state == COMPLETED
                and r.latency_s is not None
            )

    def test_window_counts_match_reference(self):
        records = _records(31)
        cols = RecordColumns(records)
        window_s, n_windows = 0.173, 8
        ref = [0] * n_windows
        for r in records:
            if r.state != COMPLETED or r.completed_s is None:
                continue
            ref[min(int(r.completed_s / window_s), n_windows - 1)] += 1
        assert cols.window_counts(window_s, n_windows) == ref

    def test_empty_records(self):
        cols = RecordColumns([])
        assert cols.n == 0
        assert cols.retries() == 0
        assert cols.sorted_waits() == []
        assert cols.window_counts(1.0, 8) == [0] * 8
        assert cols.count(cols.completed) == 0


@pytest.mark.parametrize("values", [[], [1.0]])
@pytest.mark.parametrize("q", [150, -5])
def test_percentile_rejects_q_out_of_range_even_without_values(values, q):
    with pytest.raises(ValueError, match=r"q must be in \[0, 100\]"):
        percentile(values, q)


class TestIncrementalQueueOrder:
    def test_matches_full_sort_under_churn(self):
        """Interleaved offers and removes keep the incremental order
        identical to a from-scratch stable sort of the snapshot."""
        rng = random.Random(7)
        q = AdmissionQueue(capacity=10_000)
        live = []
        next_id = 0
        for _ in range(400):
            if live and rng.random() < 0.4:
                victims = rng.sample(live, k=rng.randint(1, len(live)))
                q.remove(victims)
                live = [r for r in live if r not in victims]
            else:
                arrival = rng.uniform(0.0, 1.0)
                req = SolveRequest(
                    req_id=next_id,
                    arrival_s=arrival,
                    priority=rng.choice([0, 1, 2]),
                    deadline_s=(
                        arrival + rng.uniform(0.01, 0.4)
                        if rng.random() < 0.5
                        else None
                    ),
                )
                next_id += 1
                rec = RequestRecord(request=req)
                assert q.offer(rec)
                live.append(rec)
            assert q.ordered() == sorted(q.snapshot(), key=_order_key)
            assert len(q) == len(live)

    def test_requeue_after_remove(self):
        """A record handed back by a failed worker re-enters at the right
        position (its key is recomputed on re-offer)."""
        q = AdmissionQueue(capacity=4)
        recs = [
            RequestRecord(
                request=SolveRequest(req_id=i, arrival_s=float(i), priority=1)
            )
            for i in range(3)
        ]
        for r in recs:
            q.offer(r)
        q.remove([recs[1]])
        assert q.offer(recs[1], force=True)
        assert [r.request.req_id for r in q.ordered()] == [0, 1, 2]

    def test_order_key_shape(self):
        rec = RequestRecord(
            request=SolveRequest(req_id=9, arrival_s=0.5, priority=2)
        )
        assert _order_key(rec) == (2, math.inf, 0.5, 9)
