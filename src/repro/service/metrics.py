"""Latency/throughput accounting for a served campaign.

Everything a serving stack's dashboard shows, computed from the model
clock so the numbers are deterministic: queue-wait and end-to-end
latency percentiles (nearest-rank, so two same-seed runs agree to the
last bit), batch occupancy (how full the batching policy keeps the
multi-RHS slots), per-worker utilization, throughput and *goodput*
(completions that honoured their deadline).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .. import codec
from .batching import Batch, BatchPolicy
from .request import PRIORITY_NAMES, RequestRecord
from .soa import RecordColumns

__all__ = ["percentile", "ServiceReport"]

#: Windows the daemon-era throughput series is bucketed into.
_N_WINDOWS = 8


def _fmt_us(us: float | None) -> str:
    """Render a latency percentile given in microseconds, showing ``n/a``
    for ``None`` (a tenant with zero completions has no percentile, not
    a zero one)."""
    return "n/a" if us is None else f"{us:.1f} us"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


@dataclass
class ServiceReport:
    """One campaign's scorecard: the kernel's own numbers, plus the
    ``daemon`` block its parts report."""

    n_requests: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    #: Dispatches beyond each request's first (service-level retries
    #: after worker failures).
    retries: int = 0
    #: Worker-side self-healing relaunches observed inside batches.
    recoveries: int = 0
    #: Batch executions that died with a structured failure.
    worker_crashes: int = 0
    n_batches: int = 0
    mean_batch_size: float = 0.0
    batch_occupancy: float = 0.0
    #: Queue-wait percentiles (arrival -> first dispatch), seconds.
    wait_p50_s: float = 0.0
    wait_p95_s: float = 0.0
    wait_p99_s: float = 0.0
    #: End-to-end latency percentiles (arrival -> terminal), seconds.
    latency_p50_s: float = 0.0
    latency_p99_s: float = 0.0
    #: Model time of the last completion, measured from t = 0 (not from
    #: the first arrival).
    makespan_s: float = 0.0
    throughput_rps: float = 0.0
    goodput_rps: float = 0.0
    #: Completions that met their deadline / completions with one.
    slo_attainment: float = 1.0
    worker_utilization: list[float] = field(default_factory=list)
    #: Placement scorecard (:meth:`PlacementEngine.summary`): batches per
    #: decomposition, gauge-residency hits/misses and upload seconds
    #: saved, shared-tunecache hits/misses and sweep seconds spent/saved.
    placement: dict = field(default_factory=dict)
    #: Per-priority completion latency: ``{"high": {"completed": n,
    #: "p50_s": ..., "p99_s": ...}, ...}`` — the number preemption exists
    #: to move is HIGH's p99.
    priority_latency: dict = field(default_factory=dict)
    #: Completions per window of the campaign (len :data:`_N_WINDOWS`),
    #: as requests/second — the daemon's throughput timeline.
    throughput_windows: list[float] = field(default_factory=list)
    window_s: float = 0.0
    #: Workers still in the pool when the campaign ended.
    final_workers: int = 0
    #: Campaign-checkpoint accounting: commits made, restores performed
    #: (a resumed run reports >= 1), and how many non-terminal requests
    #: the restore re-queued.
    checkpoints_committed: int = 0
    checkpoint_restores: int = 0
    restored_requests: int = 0
    #: What the scheduler's parts report, merged, in its final JSON
    #: form: each part's ``summary(cols, horizon_s)``, and the off block
    #: of each feature the config left off (DESIGN.md, "Daemon
    #: lifecycle").
    daemon: dict = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        records: list[RequestRecord],
        batches: list[Batch],
        policy: BatchPolicy,
        *,
        worker_busy_s: list[float],
        makespan_s: float,
        placement: dict | None = None,
        parts: Iterable = (),
        off: Iterable[type] = (),
        **counters,
    ) -> "ServiceReport":
        """Score a finished campaign.  ``parts`` report their blocks from
        the one columnar pass over ``records``; ``off`` are the classes
        of the features left off, which report their ``off_summary()``
        if they declare one; ``counters`` are the kernel's own
        (``final_workers`` and the checkpoint counters)."""
        # One pass over the records builds the columnar (SoA) view;
        # every aggregate below is a vectorized expression over it.
        cols = RecordColumns(records)
        n_completed = cols.count(cols.completed)
        n_failed = cols.count(cols.failed)
        n_rejected = cols.count(cols.rejected)
        waits = cols.sorted_waits()
        latencies = cols.sorted_latencies()
        n_with_deadline = cols.count(cols.completed & cols.has_deadline)
        n_met = cols.count(cols.met_deadline)
        n_met_with_deadline = cols.count(
            cols.met_deadline & cols.has_deadline
        )
        horizon = makespan_s if makespan_s > 0 else 1.0
        sizes = [b.size for b in batches]

        by_priority: dict[str, dict] = {}
        for value, name in PRIORITY_NAMES.items():
            tier = cols.latencies_in_order(cols.priority == value)
            if tier:
                by_priority[name] = {
                    "completed": len(tier),
                    "p50_s": percentile(tier, 50),
                    "p99_s": percentile(tier, 99),
                }

        window_s = horizon / _N_WINDOWS
        windows = cols.window_counts(window_s, _N_WINDOWS)
        throughput_windows = (
            [round(n / window_s, 3) for n in windows] if n_completed else []
        )

        # Each key has one owner, so the blocks merge by plain update.
        daemon: dict = {}
        for kind in off:
            if hasattr(kind, "off_summary"):
                daemon.update(kind.off_summary())
        for part in parts:
            daemon.update(part.summary(cols, horizon))
        return cls(
            n_requests=cols.n,
            admitted=cols.n - n_rejected,
            rejected=n_rejected,
            completed=n_completed,
            failed=n_failed,
            retries=cols.retries(),
            recoveries=sum(b.recoveries for b in batches),
            worker_crashes=sum(1 for b in batches if b.ok is False),
            n_batches=len(batches),
            mean_batch_size=(sum(sizes) / len(sizes)) if sizes else 0.0,
            batch_occupancy=(
                sum(sizes) / (len(sizes) * policy.max_batch) if sizes else 0.0
            ),
            wait_p50_s=percentile(waits, 50),
            wait_p95_s=percentile(waits, 95),
            wait_p99_s=percentile(waits, 99),
            latency_p50_s=percentile(latencies, 50),
            latency_p99_s=percentile(latencies, 99),
            makespan_s=makespan_s,
            throughput_rps=n_completed / horizon,
            goodput_rps=n_met / horizon,
            slo_attainment=(
                n_met_with_deadline / n_with_deadline
                if n_with_deadline
                else 1.0
            ),
            worker_utilization=[
                min(1.0, busy / horizon) for busy in worker_busy_s
            ],
            placement=placement or {},
            priority_latency=by_priority,
            throughput_windows=throughput_windows,
            window_s=window_s if n_completed else 0.0,
            daemon=daemon,
            **counters,
        )

    def to_json(self) -> dict:
        return {
            "requests": self.n_requests,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "failed": self.failed,
            "retries": self.retries,
            "recoveries": self.recoveries,
            "worker_crashes": self.worker_crashes,
            "batches": self.n_batches,
            "mean_batch_size": round(self.mean_batch_size, 4),
            "batch_occupancy": round(self.batch_occupancy, 4),
            "wait_p50_us": round(self.wait_p50_s * 1e6, 3),
            "wait_p95_us": round(self.wait_p95_s * 1e6, 3),
            "wait_p99_us": round(self.wait_p99_s * 1e6, 3),
            "latency_p50_us": round(self.latency_p50_s * 1e6, 3),
            "latency_p99_us": round(self.latency_p99_s * 1e6, 3),
            "makespan_us": round(self.makespan_s * 1e6, 3),
            "throughput_rps": round(self.throughput_rps, 3),
            "goodput_rps": round(self.goodput_rps, 3),
            "slo_attainment": round(self.slo_attainment, 4),
            "worker_utilization": [
                round(u, 4) for u in self.worker_utilization
            ],
            "placement": self._placement_json(),
            "priority_latency": {
                name: {
                    "completed": tier["completed"],
                    "p50_us": round(tier["p50_s"] * 1e6, 3),
                    "p99_us": round(tier["p99_s"] * 1e6, 3),
                }
                for name, tier in sorted(self.priority_latency.items())
            },
            "throughput_windows_rps": list(self.throughput_windows),
            "window_us": round(self.window_s * 1e6, 3),
            "final_workers": self.final_workers,
            "checkpoints_committed": self.checkpoints_committed,
            "checkpoint_restores": self.checkpoint_restores,
            "restored_requests": self.restored_requests,
            **self.daemon,
        }

    def _placement_json(self) -> dict:
        p = self.placement
        if not p:
            return {}
        return {
            "grids": dict(p.get("grids", {})),
            "residency_hits": p.get("residency_hits", 0),
            "residency_misses": p.get("residency_misses", 0),
            "residency_hit_rate": round(p.get("residency_hit_rate", 0.0), 4),
            "gauge_saved_us": round(p.get("gauge_saved_s", 0.0) * 1e6, 3),
            "tunecache_hits": p.get("tunecache_hits", 0),
            "tunecache_misses": p.get("tunecache_misses", 0),
            "tunecache_hit_rate": round(p.get("tunecache_hit_rate", 0.0), 4),
            "tune_setup_spent_us": round(
                p.get("tune_setup_spent_s", 0.0) * 1e6, 3
            ),
            "tune_setup_saved_us": round(
                p.get("tune_setup_saved_s", 0.0) * 1e6, 3
            ),
        }

    def render(self) -> str:
        util = ", ".join(
            f"w{i} {u * 100:.1f}%" for i, u in enumerate(self.worker_utilization)
        )
        lines = [
            f"requests: {self.n_requests} submitted, {self.admitted} admitted, "
            f"{self.rejected} rejected (backpressure)",
            f"terminal: {self.completed} completed, {self.failed} failed, "
            f"{self.retries} retries, {self.recoveries} recoveries, "
            f"{self.worker_crashes} worker crash(es)",
            f"batches:  {self.n_batches} dispatched, mean size "
            f"{self.mean_batch_size:.2f} "
            f"(occupancy {self.batch_occupancy * 100:.1f}%)",
            f"queue wait:   p50 {self.wait_p50_s * 1e6:10.3f} us   "
            f"p95 {self.wait_p95_s * 1e6:10.3f} us   "
            f"p99 {self.wait_p99_s * 1e6:10.3f} us",
            f"latency:      p50 {self.latency_p50_s * 1e6:10.3f} us   "
            f"p99 {self.latency_p99_s * 1e6:10.3f} us",
            f"throughput:   {self.throughput_rps:.1f} req/s over "
            f"{self.makespan_s * 1e3:.3f} ms (goodput {self.goodput_rps:.1f} "
            f"req/s, SLO attainment {self.slo_attainment * 100:.1f}%)",
            f"utilization:  {util}" if util else "utilization:  (no workers)",
        ]
        p = self.placement
        if p:
            grids = ", ".join(
                f"{label} x{count}"
                for label, count in sorted(p.get("grids", {}).items())
            )
            lines.append(
                f"placement:    grids [{grids}]; residency "
                f"{p.get('residency_hits', 0)}/"
                f"{p.get('residency_hits', 0) + p.get('residency_misses', 0)}"
                f" hits ({p.get('residency_hit_rate', 0.0) * 100:.1f}%), "
                f"gauge saved {p.get('gauge_saved_s', 0.0) * 1e6:.1f} us"
            )
            lines.append(
                f"tunecache:    {p.get('tunecache_hits', 0)} hit(s), "
                f"{p.get('tunecache_misses', 0)} miss(es) "
                f"({p.get('tunecache_hit_rate', 0.0) * 100:.1f}%); sweep "
                f"spent {p.get('tune_setup_spent_s', 0.0) * 1e6:.1f} us, "
                f"saved {p.get('tune_setup_saved_s', 0.0) * 1e6:.1f} us"
            )
        if self.priority_latency:
            tiers = "   ".join(
                f"{name} p99 {_fmt_us(tier['p99_s'] * 1e6)} ({tier['completed']})"
                for name, tier in sorted(self.priority_latency.items())
            )
            lines.append(f"per priority: {tiers}")
        d = self.daemon
        for name, t in sorted(d.get("tenants", {}).items()):
            lines.append(
                f"tenant {name}:  weight {t['weight']:g} "
                f"(share {t['weight_share'] * 100:.1f}%), "
                f"{t['completed']}/{t['requests']} completed, "
                f"{t['quota_rejected']} quota-rejected, {t['shed']} shed; "
                f"p50 {_fmt_us(t['p50_us'])}  p95 {_fmt_us(t['p95_us'])}  "
                f"p99 {_fmt_us(t['p99_us'])}; "
                f"SLO {t['slo_attainment'] * 100:.1f}%, "
                f"goodput share {t['goodput_share'] * 100:.1f}%"
            )
        if d.get("preemptions") or d.get("resumed_batches"):
            lines.append(
                f"preemption:   {d['preemptions']} yield(s) at refresh "
                f"boundaries, {d['resumed_batches']} resumed from checkpoint"
            )
        if d.get("scale_events"):
            lines.append(
                f"autoscaler:   {d['scale_ups']} scale-up(s), "
                f"{d['scale_downs']} scale-down(s), final pool "
                f"{self.final_workers} worker(s), spin-up spent "
                f"{d['spinup_spent_us']:.1f} us"
            )
        if self.checkpoints_committed or self.checkpoint_restores:
            lines.append(
                f"checkpoints:  {self.checkpoints_committed} commit(s), "
                f"{self.checkpoint_restores} restore(s)"
                + (
                    f", {self.restored_requests} request(s) re-queued"
                    if self.checkpoint_restores
                    else ""
                )
            )
        if d.get("quarantines") or d.get("retired_sick"):
            lines.append(
                f"breaker:      {d['quarantines']} quarantine(s), "
                f"{d['reinstated']} reinstated, "
                f"{d['retired_sick']} retired sick"
            )
        if d.get("hedges_launched"):
            lines.append(
                f"hedging:      {d['hedges_launched']} replica(s) launched, "
                f"{d['hedges_won']} won, {d['hedges_cancelled']} cancelled"
            )
        if d.get("brownout"):
            lines.append(
                f"brownout:     peak {d['brownout'].get('max_level', 'normal')}"
                f", {d['shed_low']} LOW shed, {d['brownout_rejected']} "
                f"rejected, {d['degraded_served']} served degraded"
            )
        if d.get("workers_killed"):
            lines.append(
                f"faults:       {d['workers_killed']} worker(s) killed"
            )
        dom = d.get("domains")
        if dom:
            lines.append(
                f"domains:      topology {dom.get('topology', '?')}, "
                f"{dom.get('nodes_killed', 0)} node(s) lost, "
                f"{dom.get('partitions', 0)} partition(s) "
                f"({dom.get('partition_heals', 0)} healed)"
            )
            lines.append(
                f"              checkpoint mirror restores: "
                f"{dom.get('mirror_restores', 0)}"
            )
        return "\n".join(lines)

    def render_json(self) -> str:
        return codec.pretty_json(self.to_json())
