"""Batching policy: when compatible requests become one multi-RHS batch.

One device setup (gauge/clover upload, ghost exchange, autotune) serves
every right-hand side in a batch — the amortization ``invert_multi``
provides and ``bench_multi_rhs`` measures.  Batching therefore trades a
bounded queueing delay for setup amortization:

* a batch dispatches as soon as ``max_batch`` compatible requests are
  queued (the setup amortizes fully), or
* when its oldest member has waited ``max_wait_s`` of model time (the
  latency bound — a lone request is never parked indefinitely), or
* immediately, when its head request's priority is at or above
  ``expedite_priority`` (the interactive tier pays setup for latency).

Selection walks the queue in scheduling order, so a high-priority
request's group is always considered before lower tiers: a full
low-priority batch can never capture the worker a waiting high-priority
request is entitled to (no priority inversion through batching).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .request import PRIORITY_HIGH, RequestRecord, flag_field

__all__ = ["BatchPolicy", "Batch", "next_boundary", "select_batch"]

#: Window-expiry slack: a timeout scheduled at ``arrival + max_wait``
#: re-enters the scheduler at a clock where ``(arrival + max_wait) -
#: arrival`` can round *below* ``max_wait``, which would strand the
#: request until some unrelated event revisits the queue (or forever).
#: One nanosecond of model time is far below any modeled duration and
#: far above double rounding error at any reachable model time.
_WAIT_SLACK_S = 1e-9

#: Float-rounding slack for refresh-boundary arithmetic (same scale as
#: the batching window slack).
BOUNDARY_SLACK_S = 1e-9


@dataclass(frozen=True)
class BatchPolicy:
    """The two-knob batching contract (size cap + wait window)."""

    max_batch: int = flag_field(8, "--batch-max", "multi-RHS batch size cap (1 disables batching)")
    max_wait_s: float = flag_field(500e-6, "--batch-wait-us", "batching window: max model time "
                                   "a batch head waits", scale=1e-6)
    #: Priorities at or above this (numerically <=) skip the wait window
    #: entirely: dispatched at the next scheduling opportunity, batched
    #: only with whatever compatible work is already queued.
    expedite_priority: int = PRIORITY_HIGH

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")


@dataclass
class Batch:
    """One dispatched multi-RHS batch and its lifecycle."""

    batch_id: int
    records: list[RequestRecord]
    key: tuple
    formed_s: float
    worker_id: int = -1
    #: Process grid the batch ran on (``None`` = time-only slicing).
    grid: tuple[int, int] | None = None
    #: The placement layer routed this batch to a gauge-resident worker.
    residency_hit: bool = False
    #: Refresh-point boundary at which this batch will yield to
    #: higher-priority work (``None`` = no preemption scheduled).  A
    #: batch with a pending yield is "already checkpointing": a second
    #: HIGH arrival must not re-preempt it.
    preempt_at_s: float | None = None
    #: The batch yielded at a refresh boundary; its requests resumed in a
    #: later batch instead of restarting.
    preempted: bool = False
    #: Batch id this batch resumes (checkpoint handoff), or ``None``.
    resumed_from: int | None = None
    #: Straggler-hedging linkage: ``hedge_of`` marks a replica (the
    #: original's batch id); ``hedge_batch_id`` marks an original with a
    #: launched replica.  First completion wins; the loser carries
    #: ``hedge_cancelled`` after it is abandoned at a refresh boundary.
    hedge_of: int | None = None
    hedge_batch_id: int | None = None
    hedge_cancelled: bool = False
    #: Precision tier the batch actually ran at under brownout
    #: DEGRADE_PRECISION (``None`` = the requests' own mode).
    degraded_mode: str | None = None
    completed_s: float | None = None
    duration_s: float | None = None
    ok: bool | None = None
    #: Worker-side recovery accounting (self-healing batches).
    recoveries: int = 0
    detail: str = ""
    #: Lifecycle trace mirroring the per-request traces.
    trace: list[tuple[float, str, str]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.records)

    @property
    def partner_id(self) -> int | None:
        """The other copy of a hedged pair (``None`` = not hedged)."""
        return self.hedge_of if self.hedge_of is not None else self.hedge_batch_id

    def occupancy(self, policy: BatchPolicy) -> float:
        return self.size / policy.max_batch


def next_boundary(now: float, start: float, end: float, points: int) -> float:
    """The first of a batch's ``points`` refresh boundaries at or after
    ``now`` (one on this very instant counts: its checkpoint is
    consistent now).  May lie at or past ``end``; callers clamp."""
    interval = (end - start) / points
    k = max(1, -int(-(now - start - BOUNDARY_SLACK_S) // interval))
    return start + k * interval


def select_batch(
    ordered: list[RequestRecord], now: float, policy: BatchPolicy
) -> list[RequestRecord] | None:
    """The next dispatchable batch, or ``None`` to keep waiting.

    ``ordered`` is the queue in scheduling order (priority, deadline,
    arrival).  Records are grouped by compatibility key; the first group
    (in scheduling order) that is *ready* — full, window-expired, or
    expedited — is returned, truncated to ``max_batch``.  Groups that
    are not ready are skipped, so a ready low-priority batch may use an
    idle worker while a fresher high-priority singleton still rides its
    window — but a ready high-priority group always wins the worker.

    Groups are additionally partitioned by tenant: a batch is one
    tenant's work, never a blend, so the weighted-fair accounting
    upstream charges exactly one clock per dispatch.  Untenanted
    records all share the ``None`` partition — grouping (and therefore
    scheduling) is unchanged for tenancy-free campaigns.

    The scan exits early: when the head group is window-expired or
    expedited it wins whatever its size, so only its members are
    collected; otherwise groups are built in one pass capped at
    ``max_batch`` and the head group returns the moment it fills.
    """
    if not ordered:
        return None
    max_batch = policy.max_batch
    window = policy.max_wait_s - _WAIT_SLACK_S
    head = ordered[0].request
    head_key = (head.tenant, head.compat_key)
    if now - head.arrival_s >= window or head.priority <= policy.expedite_priority:
        # The head group is ready regardless of size; no later-seen group
        # can outrank it.  Collect its members and stop at a full batch.
        group = []
        for rec in ordered:
            req = rec.request
            if (req.tenant, req.compat_key) == head_key:
                group.append(rec)
                if len(group) == max_batch:
                    break
        return group
    # The head group is ready only if it fills.  Scan in order, capping
    # every group at max_batch; the moment the head group fills it wins
    # outright (it is checked first).  Readiness of later groups is
    # evaluated after the scan, in first-seen order.
    groups: dict[tuple, list[RequestRecord]] = {head_key: []}
    order = [head_key]
    for rec in ordered:
        req = rec.request
        key = (req.tenant, req.compat_key)
        group = groups.get(key)
        if group is None:
            group = groups[key] = []
            order.append(key)
        if len(group) < max_batch:
            group.append(rec)
            if key == head_key and len(group) == max_batch:
                return group
    for key in order:
        group = groups[key]
        first = group[0].request
        if (
            len(group) >= max_batch
            or now - first.arrival_s >= window
            or first.priority <= policy.expedite_priority
        ):
            return group
    return None
