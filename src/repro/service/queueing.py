"""Bounded admission queue with priority/deadline-aware ordering.

The queue is the service's backpressure point: admission beyond
``capacity`` is refused (the caller gets a retry-after hint computed
from the live backlog) rather than letting latency grow without bound —
the same load-shedding contract a serving stack's admission controller
provides.  Ordering is (priority, deadline, arrival): urgent tiers
first, earliest SLO first within a tier, FIFO within equal SLOs, so the
schedule is a pure function of the submitted workload.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .request import RequestRecord

__all__ = ["AdmissionQueue", "DrainEstimator", "partition_by_tenant"]


class DrainEstimator:
    """EWMA of observed batch service times, for retry-after hints.

    A rejected request is told when to come back; the quality of that
    hint is the quality of the service-time estimate behind it.  A
    campaign's batch durations are not stationary — residency hits,
    tunecache warm-up and grid routing all make *later* batches cheaper
    than earlier ones — so a global mean (the old estimator) lags the
    live drain rate and over-quotes the backlog.  An exponentially
    weighted moving average tracks the recent regime instead: with
    smoothing factor ``alpha``, a sample ``k`` batches old carries weight
    ``alpha * (1 - alpha)**k``, so the estimate converges to the current
    per-batch cost within a few observations of a regime change.
    """

    def __init__(self, *, alpha: float = 0.3, initial_s: float = 2e-3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if initial_s <= 0:
            raise ValueError("initial_s must be > 0")
        self.alpha = alpha
        self.initial_s = initial_s
        self.samples = 0
        self._ewma: float | None = None

    def observe(self, duration_s: float) -> None:
        """Fold one measured batch duration into the estimate."""
        if duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        self.samples += 1
        if self._ewma is None:
            self._ewma = duration_s
        else:
            self._ewma = self.alpha * duration_s + (1 - self.alpha) * self._ewma

    @property
    def batch_s(self) -> float:
        """Current per-batch service-time estimate (the configured hint
        until the first batch has been measured)."""
        return self._ewma if self._ewma is not None else self.initial_s

    def backlog_drain_s(
        self, backlog: int, *, max_batch: int, n_workers: int
    ) -> float:
        """Estimated model time to drain the current backlog across the
        pool — the *pressure* signal the brownout controller levels on
        (and the quantity behind retry-after hints)."""
        if max_batch < 1 or n_workers < 1:
            raise ValueError("max_batch and n_workers must be >= 1")
        backlog_batches = -(-backlog // max_batch)
        return self.batch_s * backlog_batches / n_workers

    def retry_after_s(
        self, backlog: int, *, max_batch: int, n_workers: int
    ) -> float:
        """How long a rejected caller should wait before resubmitting:
        the backlog (in batches, plus the one slot the caller needs)
        drained at the estimated rate across the worker pool."""
        if max_batch < 1 or n_workers < 1:
            raise ValueError("max_batch and n_workers must be >= 1")
        backlog_batches = -(-max(backlog, 1) // max_batch)
        return self.batch_s * (backlog_batches + 1) / n_workers

    # ------------------------------------------------------------------ #
    # Campaign-checkpoint round trip (the estimate survives a scheduler
    # crash — a resumed daemon should not re-learn the drain rate from
    # the configured hint).
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "initial_s": self.initial_s,
            "samples": self.samples,
            "ewma": self._ewma,
        }

    def restore(self, data: dict) -> None:
        self.alpha = float(data["alpha"])
        self.initial_s = float(data["initial_s"])
        self.samples = int(data["samples"])
        self._ewma = data["ewma"]

    def summary(self, cols, horizon_s) -> dict:
        """Nothing of its own: the estimate shows in retry-after hints."""
        return {}


def _order_key(rec: RequestRecord) -> tuple:
    req = rec.request
    deadline = req.deadline_s if req.deadline_s is not None else math.inf
    return (req.priority, deadline, req.arrival_s, req.req_id)


def partition_by_tenant(
    ordered: list[RequestRecord], registry
) -> dict[str | None, list[RequestRecord]]:
    """Split a scheduling-ordered record list into per-tenant sublists.

    Each sublist preserves the global scheduling order, so per-tenant
    batch selection sees exactly the view it would have seen had only
    that tenant's traffic been queued.  Records whose tenant is absent
    from ``registry`` (including untenanted ``None`` traffic) share the
    ``None`` partition — they bypass fairness accounting and fill idle
    capacity only when no registered tenant holds ready work in the head
    priority tier.
    """
    parts: dict[str | None, list[RequestRecord]] = {}
    for rec in ordered:
        tenant = rec.request.tenant
        key = tenant if tenant in registry else None
        parts.setdefault(key, []).append(rec)
    return parts


class AdmissionQueue:
    """Bounded, priority/deadline-ordered request queue.

    The scheduling order is maintained *incrementally* (parallel
    key/record lists kept sorted by binary insertion): the scheduler
    asks for the order at every dispatch opportunity, and under a deep
    backlog a full sort per call — recomputing every record's key tuple
    through two dataclass hops — dominated the campaign.  Keys are
    computed once per admission (they are immutable for a queued
    record), so ``ordered()`` is a plain list copy.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: list[RequestRecord] = []
        # Live membership by object identity.  ``_items`` may lag behind
        # it: removal tombstones entries (``_dead``) and compacts the
        # insertion-order list lazily, so a dispatch costs O(batch log n)
        # instead of an O(n) rebuild.  ``_dead`` maps id -> record (the
        # retained reference keeps the id from being recycled).
        self._ids: set[int] = set()
        self._dead: dict[int, RequestRecord] = {}
        # Parallel arrays, kept sorted by key (struct-of-arrays so the
        # bisection compares bare tuples, never record objects).
        self._sorted_keys: list[tuple] = []
        self._sorted_recs: list[RequestRecord] = []

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def full(self) -> bool:
        return len(self._ids) >= self.capacity

    def _compact(self) -> None:
        """Flush tombstoned entries out of the insertion-order list."""
        if self._dead:
            self._items = [r for r in self._items if id(r) not in self._dead]
            self._dead.clear()

    def offer(self, rec: RequestRecord, *, force: bool = False) -> bool:
        """Admit ``rec`` unless the queue is full.

        ``force`` bypasses the capacity check — used when the service
        *re*-queues a request that a worker failure handed back: that
        request was already admitted once, and bouncing it would break
        the no-lost-requests invariant.
        """
        if self.full and not force:
            return False
        if id(rec) in self._dead:
            # Re-queue of a record whose earlier tombstoned copy is
            # still physically present — flush it first so the list
            # never holds the same record twice.
            self._compact()
        self._items.append(rec)
        self._ids.add(id(rec))
        key = _order_key(rec)
        # bisect_right keeps equal keys in insertion order, like a stable
        # sort of the snapshot (keys end in req_id, so true ties cannot
        # occur anyway).
        i = bisect_right(self._sorted_keys, key)
        self._sorted_keys.insert(i, key)
        self._sorted_recs.insert(i, rec)
        return True

    def ordered(self) -> list[RequestRecord]:
        """The scheduling order: priority, then deadline, then arrival."""
        return list(self._sorted_recs)

    def remove(self, recs: list[RequestRecord]) -> None:
        """Withdraw dispatched records (identity comparison)."""
        for rec in recs:
            rid = id(rec)
            if rid not in self._ids:
                continue
            self._ids.discard(rid)
            self._dead[rid] = rec
            # Locate the record in the sorted view by its (immutable,
            # near-unique) key, then by identity among key-equals.
            key = _order_key(rec)
            i = bisect_left(self._sorted_keys, key)
            n = len(self._sorted_keys)
            while i < n and self._sorted_keys[i] == key:
                if self._sorted_recs[i] is rec:
                    del self._sorted_keys[i]
                    del self._sorted_recs[i]
                    break
                i += 1
        if 2 * len(self._dead) >= len(self._items):
            self._compact()

    def oldest_arrival(self) -> float | None:
        self._compact()
        if not self._items:
            return None
        return min(r.request.arrival_s for r in self._items)

    def snapshot(self) -> list[RequestRecord]:
        """The queue's contents in insertion order (for campaign
        checkpoints — ordering is recomputed from the records, so the
        insertion order is all a restore needs)."""
        self._compact()
        return list(self._items)
