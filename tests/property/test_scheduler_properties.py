"""Oracle checks of the two scheduler hot-path structures.

Each structure has exactly one implementation; these tests hold it to a
specification written out here, not to a second copy of itself:

* ``AdmissionQueue.ordered()`` is ``sorted(snapshot(), key=order_key)``
  with the documented key (priority, deadline or +inf, arrival, id),
  under generated offer / remove / forced re-offer sequences — including
  re-queueing a record whose tombstoned copy is still physically in the
  insertion-order list;
* ``select_batch`` returns what a brute-force pass over the whole group
  map returns (the selection rule of its docstring, no early exit).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import BatchPolicy, SolveRequest, select_batch
from repro.service.queueing import AdmissionQueue
from repro.service.request import RequestRecord

# Window-expiry slack of the batching policy (1 ns of model time).
WAIT_SLACK_S = 1e-9


def order_key(rec):
    req = rec.request
    deadline = math.inf if req.deadline_s is None else req.deadline_s
    return (req.priority, deadline, req.arrival_s, req.req_id)


# Few distinct values on purpose: ties on every key component are common.
_times = st.sampled_from([0.0, 1e-4, 2e-4, 5e-4, 1e-3])
_offer = st.tuples(
    st.just("offer"), st.integers(0, 2), st.one_of(st.none(), _times), _times
)
_remove = st.tuples(st.just("remove"), st.integers(0, 2**16))
_requeue = st.tuples(st.just("requeue"), st.integers(0, 2**16))
# snapshot() and oldest_arrival() flush tombstones, so they are drawn like
# any other operation: sequences exist where a tombstone outlives several
# offers and removes.
_snapshot = st.tuples(st.just("snapshot"))
_ops = st.lists(st.one_of(_offer, _offer, _remove, _requeue, _snapshot), max_size=60)


class TestAdmissionQueueOracle:
    @given(_ops, st.integers(1, 8))
    @settings(max_examples=300, deadline=None)
    def test_ordered_is_sorted_snapshot(self, ops, capacity):
        q = AdmissionQueue(capacity)
        live: list[RequestRecord] = []  # insertion order, the model
        removed: list[RequestRecord] = []
        next_id = 0
        for op in [*ops, ("snapshot",)]:
            if op[0] == "offer":
                _, priority, deadline, arrival = op
                rec = RequestRecord(
                    request=SolveRequest(
                        req_id=next_id,
                        priority=priority,
                        arrival_s=arrival,
                        # A deadline may not precede its arrival.
                        deadline_s=None if deadline is None else arrival + deadline,
                    )
                )
                next_id += 1
                admitted = q.offer(rec)
                assert admitted == (len(live) < capacity)
                if admitted:
                    live.append(rec)
            elif op[0] == "remove" and live:
                # A seeded subset, plus one record that is not queued
                # (removing it must be a no-op).
                victims = [r for i, r in enumerate(live) if (op[1] >> i) & 1]
                q.remove(victims + removed[:1])
                live = [r for r in live if all(r is not v for v in victims)]
                removed.extend(victims)
            elif op[0] == "requeue" and removed:
                # A worker failure hands the record back: forced past the
                # capacity check, possibly while its tombstone is still in
                # the insertion-order list.
                rec = removed.pop(op[1] % len(removed))
                assert q.offer(rec, force=True)
                live.append(rec)

            elif op[0] == "snapshot":
                snapshot = q.snapshot()
                assert [id(r) for r in snapshot] == [id(r) for r in live]
                assert [id(r) for r in q.ordered()] == [
                    id(r) for r in sorted(snapshot, key=order_key)
                ]
                assert q.oldest_arrival() == (
                    min(r.request.arrival_s for r in live) if live else None
                )

            # `live` is the snapshot the queue would give; asking the queue
            # for it here would flush the tombstones under test.
            assert [id(r) for r in q.ordered()] == [
                id(r) for r in sorted(live, key=order_key)
            ]
            assert len(q) == len(live)
            assert q.full == (len(live) >= capacity)

    def test_requeue_while_tombstone_present(self):
        """The case the lazy compaction exists for, spelled out: remove one
        of many (no compaction yet), then force it back."""
        q = AdmissionQueue(16)
        recs = [
            RequestRecord(request=SolveRequest(req_id=i, arrival_s=float(i)))
            for i in range(8)
        ]
        for r in recs:
            q.offer(r)
        q.remove([recs[2]])
        assert q._dead  # tombstoned, not yet flushed
        assert q.offer(recs[2], force=True)
        assert [r.request.req_id for r in q.snapshot()] == [0, 1, 3, 4, 5, 6, 7, 2]
        assert [r.request.req_id for r in q.ordered()] == list(range(8))


def brute_force_select(ordered, now, policy):
    """The selection rule, the slow obvious way: build every group, then
    return the first (in first-seen order) that is full, window-expired or
    expedited, truncated to ``max_batch``."""
    groups = {}
    for rec in ordered:
        key = (rec.request.tenant, rec.request.compat_key)
        groups.setdefault(key, []).append(rec)
    for group in groups.values():
        group = group[: policy.max_batch]
        head = group[0].request
        if (
            len(group) >= policy.max_batch
            or now - head.arrival_s >= policy.max_wait_s - WAIT_SLACK_S
            or head.priority <= policy.expedite_priority
        ):
            return group
    return None


_request = st.builds(
    lambda priority, arrival, tenant, config, mass: dict(
        priority=priority, arrival_s=arrival, tenant=tenant, config_id=config, mass=mass
    ),
    st.integers(0, 2),
    _times,
    st.sampled_from([None, "atlas", "bell"]),
    st.integers(0, 1),
    st.sampled_from([0.1, 0.2]),
)


class TestSelectBatchOracle:
    @given(
        st.lists(_request, max_size=24),
        st.sampled_from([0.0, 1e-4, 3e-4, 6e-4, 2e-3]),
        st.integers(1, 5),
        st.sampled_from([0.0, 1e-4, 5e-4, 1.0]),
        st.integers(-1, 2),
        st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_brute_force(
        self, requests, now, max_batch, max_wait_s, expedite, in_queue_order
    ):
        recs = [
            RequestRecord(request=SolveRequest(req_id=i, **kw))
            for i, kw in enumerate(requests)
        ]
        if in_queue_order:
            recs.sort(key=order_key)
        policy = BatchPolicy(
            max_batch=max_batch, max_wait_s=max_wait_s, expedite_priority=expedite
        )
        got = select_batch(list(recs), now, policy)
        want = brute_force_select(recs, now, policy)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert [id(r) for r in got] == [id(r) for r in want]
