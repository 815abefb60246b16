"""Refresh-boundary preemption: running LOW batches yield to HIGH work.

:class:`Preemption` is the campaign part: it registers the ``PREEMPT``
event kind, an admission hook that probes a qualifying arrival after
the dispatch pass, and the kernel's ``resume`` slot, which hands a
parked batch the next idle worker when it outranks the next fresh
batch.  Its counters live in the kernel's ``counters`` part.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .batching import BOUNDARY_SLACK_S, Batch, next_boundary
from .request import PRIORITY_HIGH, PRIORITY_LOW, QUEUED, RUNNING, RequestRecord, flag_field
from .workers import BatchExecution

__all__ = ["PreemptionPolicy", "Preemption"]

#: Event kind of a batch's yield at its refresh boundary: after
#: completions, before arrivals (the boundary belongs to the batch, not
#: the trigger).
_EV_PREEMPT = 1


@dataclass(frozen=True)
class PreemptionPolicy:
    """When running batches yield to more urgent work.

    A batch is *preemptible* when every member is ``PRIORITY_LOW``; a
    ``PRIORITY_HIGH`` arrival that finds no idle worker schedules the
    victim's yield at its next refresh-point boundary — the instant the
    solve's checkpoint machinery is consistent, so the preempted solve
    later *resumes* (remaining work + a modeled checkpoint-reload
    overhead) instead of restarting.  With ``N`` refresh points (the
    reliable-update cadence) a batch can yield at ``k/N`` of its
    duration, ``k = 1..N-1``.
    """

    enabled: bool = flag_field(False, "--preempt", "LOW batches yield to waiting HIGH arrivals "
                               "at refresh-point boundaries and later resume from checkpoint")
    refresh_points: int = flag_field(
        4, "--refresh-points", "refresh boundaries per batch a preempted solve may yield at")
    resume_overhead_s: float = flag_field(100e-6, "--resume-overhead-us", "model time to reload "
                                          "a preempted batch's checkpoint on resume", scale=1e-6)

    def __post_init__(self) -> None:
        if self.refresh_points < 1:
            raise ValueError("refresh_points must be >= 1")
        if self.resume_overhead_s < 0:
            raise ValueError("resume_overhead_s must be >= 0")


@dataclass
class _ParkedRun:
    """A batch parked at a refresh-point checkpoint, awaiting resume."""

    batch: Batch
    remaining_s: float
    #: The original execution: its outcomes replay on resume (the solve
    #: continues from checkpoint — same trajectory, same answer).
    execution: BatchExecution
    priority: int
    preempted_s: float


class Preemption:
    """The preemption part: yields, parks and resumes."""

    def __init__(self, policy: PreemptionPolicy) -> None:
        self.policy = policy

    def install(self, campaign) -> None:
        self.campaign = campaign
        campaign.handlers[_EV_PREEMPT] = self._yield
        campaign.on_admit.append(self._admitted)
        campaign.resume = self._resume

    def _admitted(self, rec: RequestRecord) -> None:
        """A qualifying arrival is probed once the event's dispatch pass
        has run: only if it is still queued then does it preempt."""
        if rec.request.priority <= PRIORITY_HIGH:
            self.campaign.after_dispatch.append(partial(self._maybe_preempt, rec))

    def _maybe_preempt(self, trigger: RequestRecord) -> None:
        """Schedule the best LOW victim's yield at its next refresh
        point."""
        if trigger.state != QUEUED:
            return
        k = self.campaign
        best = None
        for batch, _, start, end in k.running.values():
            if batch.preempt_at_s is not None:
                # Already checkpointing toward a yield — a second HIGH
                # arrival must not re-preempt it (it will free the
                # worker at that same boundary anyway).
                continue
            if batch.partner_id is not None:
                # Hedged pairs are off-limits: preempting either copy
                # would double-account the shared records' lifecycle
                # (the pair resolves at first completion instead).
                continue
            worst = min(r.request.priority for r in batch.records)
            if worst < PRIORITY_LOW:
                continue
            if worst <= trigger.request.priority:
                continue  # never preempt work as urgent as the trigger
            # Most remaining work = most latency bought; ties to the
            # older batch for determinism.
            key = (end - k.now, -batch.batch_id)
            if best is None or key > best[0]:
                best = (key, batch, start, end)
        if best is None:
            return
        _, batch, start, end = best
        boundary = next_boundary(k.now, start, end, self.policy.refresh_points)
        if boundary >= end - BOUNDARY_SLACK_S:
            return  # no checkpoint boundary left before completion
        batch.preempt_at_s = boundary
        batch.note(
            k.now,
            "preempt_scheduled",
            f"HIGH request {trigger.request.req_id} waiting; yield at "
            f"refresh boundary {boundary * 1e6:.1f}us",
        )
        k._push(boundary, _EV_PREEMPT, batch)

    def _yield(self, batch: Batch) -> None:
        """Yield a running batch at its refresh boundary: checkpoint,
        free the worker, park the remainder for resume."""
        k = self.campaign
        entry = k._teardown(batch.batch_id, k.now)
        if entry is None:
            return  # completed (or failed) before the boundary
        _, execution, _, end = entry
        batch.preempted = True
        batch.detail = "preempted at refresh boundary"
        batch.note(k.now, "preempt", f"{(end - k.now) * 1e6:.1f}us remaining")
        for rec in batch.records:
            rec.state = QUEUED
            rec.preemptions += 1
            rec.note(
                k.now,
                "preempt",
                f"batch {batch.batch_id} yielded at refresh boundary; "
                "will resume from checkpoint",
            )
        priority = min(r.request.priority for r in batch.records)
        k.parked.append(_ParkedRun(batch, end - k.now, execution, priority, k.now))
        k.counters.preemptions += 1
        k._release(batch.worker_id)

    def _resume(self, selected: list[RequestRecord] | None) -> bool:
        """Resume the most urgent parked batch from its refresh-point
        checkpoint unless the fresh batch ``selected`` is strictly more
        urgent: remaining work plus the modeled reload overhead,
        outcomes replayed from the original execution.  Returns whether
        it took the worker."""
        k = self.campaign
        run = min(
            k.parked, key=lambda r: (r.priority, r.preempted_s, r.batch.batch_id)
        )
        if selected is not None and selected[0].request.priority < run.priority:
            return False
        k.parked.remove(run)
        parked = run.batch
        head = parked.records[0].request
        residency_key = (head.config_id, head.dims, head.mode, parked.grid)
        worker_id, hit = k.placement.router.route(residency_key, k.idle)
        batch = k._form(
            parked.records, worker_id, parked.grid, resumed_from=parked.batch_id
        )
        for rec in batch.records:
            rec.state = RUNNING
            rec.batch_ids.append(batch.batch_id)
            rec.note(
                k.now,
                "resume",
                f"batch {batch.batch_id} resumes batch {parked.batch_id} "
                f"on worker {worker_id} from checkpoint "
                f"({run.remaining_s * 1e6:.1f}us remaining)",
            )
        batch.note(k.now, "resume", f"worker {worker_id}, from batch {parked.batch_id}")
        k.workers[worker_id].resident_key = residency_key
        k.counters.resumed_batches += 1
        k._launch(
            batch,
            replace(
                run.execution,
                duration_s=run.remaining_s + self.policy.resume_overhead_s,
                residency_hit=hit,
                gauge_saved_s=0.0,
            ),
        )
        return True
