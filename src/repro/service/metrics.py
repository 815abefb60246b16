"""Latency/throughput accounting for a served campaign.

Everything a serving stack's dashboard shows, computed from the model
clock so the numbers are deterministic: queue-wait and end-to-end
latency percentiles (nearest-rank, so two same-seed runs agree to the
last bit), batch occupancy (how full the batching policy keeps the
multi-RHS slots), per-worker utilization, throughput and *goodput*
(completions that honoured their deadline).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .. import codec
from .batching import Batch, BatchPolicy
from .request import (
    COMPLETED,
    FAILED,
    PRIORITY_LOW,
    PRIORITY_NAMES,
    REJECTED,
    RequestRecord,
)
from .soa import RecordColumns

__all__ = ["percentile", "ServiceReport"]

#: Windows the daemon-era throughput series is bucketed into.
_N_WINDOWS = 8


def _maybe_us(seconds: float | None) -> float | None:
    """Seconds -> rounded microseconds, passing ``None`` through (a tier
    or tenant with zero completions has no percentile, not a zero one)."""
    return None if seconds is None else round(seconds * 1e6, 3)


def _fmt_us(seconds: float | None) -> str:
    """Render a latency percentile, showing ``n/a`` for ``None``."""
    return "n/a" if seconds is None else f"{seconds * 1e6:.1f} us"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


@dataclass
class ServiceReport:
    """One campaign's scorecard."""

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
    #: Model time from first arrival to last completion.
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
    # ---- daemon era --------------------------------------------------- #
    #: Per-priority completion latency: ``{"high": {"completed": n,
    #: "p50_s": ..., "p99_s": ...}, ...}`` — the number preemption exists
    #: to move is HIGH's p99.
    priority_latency: dict = field(default_factory=dict)
    #: Completions per window of the campaign (len :data:`_N_WINDOWS`),
    #: as requests/second — the daemon's throughput timeline.
    throughput_windows: list[float] = field(default_factory=list)
    window_s: float = 0.0
    #: Batches that yielded at a refresh boundary to higher-priority
    #: work, and how many of those later resumed from their checkpoint.
    preemptions: int = 0
    resumed_batches: int = 0
    #: Autoscaler ledger.
    scale_ups: int = 0
    scale_downs: int = 0
    scale_events: list[dict] = field(default_factory=list)
    final_workers: int = 0
    spinup_spent_s: float = 0.0
    #: Campaign-checkpoint accounting: commits made, restores performed
    #: (a resumed run reports >= 1), and how many non-terminal requests
    #: the restore re-queued.
    checkpoints_committed: int = 0
    checkpoint_restores: int = 0
    restored_requests: int = 0
    # ---- resilience era ----------------------------------------------- #
    #: Straggler-hedging ledger: replicas launched, replicas that beat
    #: their original, losers cancelled at a refresh boundary.
    hedges_launched: int = 0
    hedges_won: int = 0
    hedges_cancelled: int = 0
    #: Brownout ledger: LOW requests shed with a retry-after, NORMAL
    #: refused at the REJECT level, completions served at a degraded
    #: precision tier.
    shed_low: int = 0
    brownout_rejected: int = 0
    degraded_served: int = 0
    #: Brownout controller summary (final/max level + transitions).
    brownout: dict = field(default_factory=dict)
    #: Circuit-breaker ledger.
    quarantines: int = 0
    reinstated: int = 0
    retired_sick: int = 0
    #: Whole-worker kills injected by the fault plan.
    workers_killed: int = 0
    #: Failure-domain scorecard (present when the service ran with a
    #: :class:`~repro.comms.cluster.Topology`): topology string, nodes
    #: lost, partitions seen/healed, domain quarantines by node,
    #: anti-affinity placements/hedges, mirror restores, and per-node
    #: time-to-isolate in ms.
    domains: dict = field(default_factory=dict)
    #: Per-tenant scorecard (present when the service ran with a
    #: :class:`~repro.service.tenancy.TenancyPolicy`): weight and fair
    #: share, request/terminal counts, quota rejects and sheds, latency
    #: percentiles (``None`` when the tenant saw zero completions), SLO
    #: attainment, and goodput share versus the configured weight share.
    tenants: dict = field(default_factory=dict)

    @property
    def residency_hit_rate(self) -> float:
        return self.placement.get("residency_hit_rate", 0.0)

    @property
    def tunecache_hit_rate(self) -> float:
        return self.placement.get("tunecache_hit_rate", 0.0)

    @property
    def setup_saved_s(self) -> float:
        """Total modeled setup time placement avoided: gauge uploads
        skipped on residency hits plus autotune sweeps skipped on
        tunecache hits."""
        return self.placement.get("gauge_saved_s", 0.0) + self.placement.get(
            "tune_setup_saved_s", 0.0
        )

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
        daemon: dict | None = None,
    ) -> "ServiceReport":
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

        daemon = daemon or {}
        tenants = cls._tenant_scorecard(
            daemon.get("tenancy", {}), cols, horizon
        )
        # The daemon block fills every report field it has a key for —
        # counters and ledgers the scheduler's parts report under the
        # field's own name; a part that is off leaves the default.
        carried = {
            name: value
            for name, value in daemon.items()
            if name in cls.__dataclass_fields__
        }
        carried.setdefault("final_workers", len(worker_busy_s))
        if "domains" in carried:
            # Two rows of the scorecard are other layers' counters: the
            # placement engine's diversions and the store's fallbacks.
            carried["domains"] = {
                **carried["domains"],
                "anti_affinity_placements": (placement or {}).get(
                    "anti_affinity_placements", 0
                ),
                "mirror_restores": daemon.get("mirror_restores", 0),
            }
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
            shed_low=cols.count(
                cols.rejected & cols.shed & (cols.priority == PRIORITY_LOW)
            ),
            brownout_rejected=cols.count(
                cols.rejected & cols.shed & (cols.priority != PRIORITY_LOW)
            ),
            degraded_served=cols.count(cols.completed & cols.degraded),
            tenants=tenants,
            **carried,
        )

    @staticmethod
    def _tenant_scorecard(
        tenancy: dict, cols: RecordColumns, horizon: float
    ) -> dict:
        """Per-tenant slice of the campaign, keyed by tenant name.

        Percentiles are ``None`` — not zero — for a tenant with no
        completions: "saw no traffic" and "answered instantly" must not
        be confusable on a dashboard.  ``goodput_share`` is the tenant's
        slice of deadline-met completions across all *registered*
        tenants (falling back to the completed-count slice when no
        tenanted request carried a met deadline), which is the number
        the weighted-fair scheduler promises converges to
        ``weight_share`` under sustained backlog.
        """
        if not tenancy:
            return {}
        weights = tenancy.get("weights", {})
        counters = tenancy.get("counters", {})
        total_weight = sum(weights.values()) or 1.0
        masks = {name: cols.tenant_mask(name) for name in weights}
        good = {
            name: cols.count(cols.met_deadline & mask)
            for name, mask in masks.items()
        }
        done = {
            name: cols.count(cols.completed & mask)
            for name, mask in masks.items()
        }
        share_of = good if sum(good.values()) else done
        share_total = sum(share_of.values())
        out: dict[str, dict] = {}
        for name in sorted(weights):
            mask = masks[name]
            lat = cols.sorted_latencies(mask)
            n_with_deadline = cols.count(
                cols.completed & cols.has_deadline & mask
            )
            n_met = cols.count(
                cols.met_deadline & cols.has_deadline & mask
            )
            ctr = counters.get(name, {})
            out[name] = {
                "weight": float(weights[name]),
                "weight_share": weights[name] / total_weight,
                "requests": cols.count(mask),
                "completed": done[name],
                "failed": cols.count(cols.failed & mask),
                "rejected": cols.count(cols.rejected & mask),
                "quota_rejected": int(ctr.get("quota_rejected", 0)),
                "shed": int(ctr.get("shed", 0)),
                "p50_s": percentile(lat, 50) if lat else None,
                "p95_s": percentile(lat, 95) if lat else None,
                "p99_s": percentile(lat, 99) if lat else None,
                "slo_attainment": (
                    n_met / n_with_deadline if n_with_deadline else 1.0
                ),
                "goodput_rps": good[name] / horizon,
                "goodput_share": (
                    share_of[name] / share_total if share_total else 0.0
                ),
            }
        return out

    def to_json(self) -> dict:
        out = {
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
                    "p50_us": _maybe_us(tier["p50_s"]),
                    "p99_us": _maybe_us(tier["p99_s"]),
                }
                for name, tier in sorted(self.priority_latency.items())
            },
            "throughput_windows_rps": list(self.throughput_windows),
            "window_us": round(self.window_s * 1e6, 3),
            "preemptions": self.preemptions,
            "resumed_batches": self.resumed_batches,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "scale_events": list(self.scale_events),
            "final_workers": self.final_workers,
            "spinup_spent_us": round(self.spinup_spent_s * 1e6, 3),
            "checkpoints_committed": self.checkpoints_committed,
            "checkpoint_restores": self.checkpoint_restores,
            "restored_requests": self.restored_requests,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "hedges_cancelled": self.hedges_cancelled,
            "shed_low": self.shed_low,
            "brownout_rejected": self.brownout_rejected,
            "degraded_served": self.degraded_served,
            "brownout": dict(self.brownout),
            "quarantines": self.quarantines,
            "reinstated": self.reinstated,
            "retired_sick": self.retired_sick,
            "workers_killed": self.workers_killed,
        }
        # Only topology-enabled runs carry a scorecard, so legacy report
        # JSON stays byte-identical to what pre-domain builds emitted.
        if self.domains:
            out["domains"] = dict(self.domains)
        # Same contract for tenancy: tenancy-free reports never gain the
        # key, so their bytes match pre-tenancy builds.
        if self.tenants:
            out["tenants"] = {
                name: {
                    "weight": t["weight"],
                    "weight_share": round(t["weight_share"], 4),
                    "requests": t["requests"],
                    "completed": t["completed"],
                    "failed": t["failed"],
                    "rejected": t["rejected"],
                    "quota_rejected": t["quota_rejected"],
                    "shed": t["shed"],
                    "p50_us": _maybe_us(t["p50_s"]),
                    "p95_us": _maybe_us(t["p95_s"]),
                    "p99_us": _maybe_us(t["p99_s"]),
                    "slo_attainment": round(t["slo_attainment"], 4),
                    "goodput_rps": round(t["goodput_rps"], 3),
                    "goodput_share": round(t["goodput_share"], 4),
                }
                for name, t in sorted(self.tenants.items())
            }
        return out

    def _placement_json(self) -> dict:
        p = self.placement
        if not p:
            return {}
        out = {
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
        # Anti-affinity only exists under a topology; omit the zero so
        # legacy placement JSON is unchanged byte for byte.
        if p.get("anti_affinity_placements"):
            out["anti_affinity_placements"] = p["anti_affinity_placements"]
        return out

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
                f"{name} p99 {_fmt_us(tier['p99_s'])} ({tier['completed']})"
                for name, tier in sorted(self.priority_latency.items())
            )
            lines.append(f"per priority: {tiers}")
        for name, t in sorted(self.tenants.items()):
            lines.append(
                f"tenant {name}:  weight {t['weight']:g} "
                f"(share {t['weight_share'] * 100:.1f}%), "
                f"{t['completed']}/{t['requests']} completed, "
                f"{t['quota_rejected']} quota-rejected, {t['shed']} shed; "
                f"p50 {_fmt_us(t['p50_s'])}  p95 {_fmt_us(t['p95_s'])}  "
                f"p99 {_fmt_us(t['p99_s'])}; "
                f"SLO {t['slo_attainment'] * 100:.1f}%, "
                f"goodput share {t['goodput_share'] * 100:.1f}%"
            )
        if self.preemptions or self.resumed_batches:
            lines.append(
                f"preemption:   {self.preemptions} yield(s) at refresh "
                f"boundaries, {self.resumed_batches} resumed from checkpoint"
            )
        if self.scale_events:
            lines.append(
                f"autoscaler:   {self.scale_ups} scale-up(s), "
                f"{self.scale_downs} scale-down(s), final pool "
                f"{self.final_workers} worker(s), spin-up spent "
                f"{self.spinup_spent_s * 1e6:.1f} us"
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
        if self.quarantines or self.retired_sick:
            lines.append(
                f"breaker:      {self.quarantines} quarantine(s), "
                f"{self.reinstated} reinstated, "
                f"{self.retired_sick} retired sick"
            )
        if self.hedges_launched:
            lines.append(
                f"hedging:      {self.hedges_launched} replica(s) launched, "
                f"{self.hedges_won} won, {self.hedges_cancelled} cancelled"
            )
        if self.brownout:
            lines.append(
                f"brownout:     peak {self.brownout.get('max_level', 'normal')}"
                f", {self.shed_low} LOW shed, {self.brownout_rejected} "
                f"rejected, {self.degraded_served} served degraded"
            )
        if self.workers_killed:
            lines.append(
                f"faults:       {self.workers_killed} worker(s) killed"
            )
        if self.domains:
            d = self.domains
            lines.append(
                f"domains:      topology {d.get('topology', '?')}, "
                f"{d.get('nodes_killed', 0)} node(s) lost, "
                f"{d.get('partitions', 0)} partition(s) "
                f"({d.get('partition_heals', 0)} healed)"
            )
            by_domain = d.get("quarantines_by_domain", {})
            quarantined = ", ".join(
                f"node{n} x{c}" for n, c in sorted(by_domain.items())
            )
            lines.append(
                f"              {d.get('domain_quarantines', 0)} domain "
                f"quarantine(s)"
                + (f" [{quarantined}]" if quarantined else "")
                + f", {d.get('domain_reinstated', 0)} reinstated, "
                f"{d.get('domain_retired', 0)} retired"
            )
            lines.append(
                f"              anti-affinity: "
                f"{d.get('anti_affinity_placements', 0)} placement(s), "
                f"{d.get('anti_affinity_hedges', 0)} hedge(s); "
                f"checkpoint mirror restores: {d.get('mirror_restores', 0)}"
            )
        return "\n".join(lines)

    def render_json(self) -> str:
        return codec.pretty_json(self.to_json())
