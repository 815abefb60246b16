"""The solve service: a long-lived, self-healing campaign daemon.

PR 4 built a one-shot scheduler — ``run(requests)`` drained a fixed list
and returned.  This module is the daemon era: requests arrive over an
open admission channel (any iterator of
:class:`~repro.service.request.SolveRequest` in event-time order — a
materialized list or a lazy :func:`~repro.service.workload.stream_workload`),
and the :class:`~repro.service.queueing.AdmissionQueue`,
:class:`~repro.service.batching.BatchPolicy` and
:class:`~repro.service.placement.PlacementEngine` operate *continuously*
instead of draining a snapshot.  On top of the PR 4/5 pipeline
(admission → batching → placement → execution → accounting), the daemon
adds three behaviours a service that "never stops" needs:

1. **Scheduler self-healing** — the in-flight campaign (queue contents,
   per-request lifecycle, worker residency, tunecache, estimator and
   autoscaler state) commits to a
   :class:`~repro.service.campaign.CampaignCheckpointStore` at batch
   boundaries — the campaign analogue of PR 2's refresh-point solve
   checkpoints.  A simulated scheduler crash (:class:`SchedulerCrash`)
   resumes via :meth:`SolveService.resume`: terminal outcomes restore
   verbatim, admitted-but-unserved requests re-enter the queue, and
   everything after the last commit replays deterministically — the
   no-lost-requests invariant holds *across* the crash.

2. **Preemption** — when HIGH work lands mid-batch with no idle worker,
   a running LOW batch yields at its next refresh-point boundary (the
   same boundaries PR 2 checkpoints solves at, so the preempted solve
   *resumes* from checkpoint rather than restarting: the re-dispatch
   charges only the remaining work plus a modeled resume overhead).

3. **Elastic workers** — a :class:`~repro.service.elastic.PoolController`
   scales the simulated pool against an EWMA of the measured arrival
   rate (the PR 5 :class:`~repro.service.queueing.DrainEstimator`
   pointed at interarrival gaps), charging a modeled spin-up delay on
   scale-up and draining gauge residency on scale-down.

4. **Failure-domain resilience** (:mod:`repro.service.health`) — a
   per-worker health ledger feeds a circuit breaker (drain → cooldown →
   seeded probe → reinstate or retire), running batches that outlive a
   model-relative threshold earn a hedged replica on an idle healthy
   worker (first completion wins, the loser abandons at its next
   refresh boundary), and a brownout controller sheds/degrades/rejects
   under sustained overload instead of failing HIGH traffic.

The event loop still orders (time, kind, sequence) totally, every
duration is model time, and every decision — including preemption
points, scale events, breaker transitions, hedge launches and
checkpoint commits — is a pure function of the workload and the seed,
so daemon campaigns replay byte-identically.  With health, hedging and
brownout disabled (the default) no new event is ever pushed, so legacy
schedules are unchanged.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Iterable, Iterator

from ..comms.cluster import ClusterSpec, Topology
from ..comms.faults import (
    DomainFaultPlan,
    FaultPlan,
    HcaDegrade,
    IntegrityPolicy,
    SwitchPartition,
    WorkerFaultPlan,
)
from ..core import RetryPolicy
from ..gpu.specs import GTX285, GPUSpec
from .batching import Batch, BatchPolicy, select_batch
from .campaign import (
    CampaignCheckpoint,
    CampaignCheckpointStore,
    CampaignDelta,
    SchedulerCrash,
)
from .elastic import (
    ArrivalRateEstimator,
    ElasticPolicy,
    PoolController,
    spread_domain,
)
from .health import (
    BROWNOUT_DEGRADE,
    BROWNOUT_NORMAL,
    BROWNOUT_REJECT,
    BROWNOUT_SHED_LOW,
    DEGRADE_MODE,
    HEALTHY,
    PROBING,
    QUARANTINED,
    BrownoutController,
    BrownoutPolicy,
    DomainBoard,
    DomainPolicy,
    DomainState,
    HealthBoard,
    HealthPolicy,
    HedgeLedger,
    HedgePolicy,
)
from .metrics import ServiceReport
from .placement import PlacementEngine, PlacementPolicy, SharedTuneCache
from .queueing import AdmissionQueue, DrainEstimator, partition_by_tenant
from .tenancy import TenancyPolicy, TenantRegistry
from .request import (
    COMPLETED,
    FAILED,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    QUEUED,
    REJECTED,
    RUNNING,
    RequestRecord,
    SolveRequest,
    StructuredFailure,
)
from .workers import BatchExecution, SimWorker

__all__ = [
    "ServiceConfig",
    "ServiceResult",
    "SolveService",
    "ServiceInvariantError",
    "PreemptionPolicy",
    "SchedulerCrash",
]

# Event kinds, in same-time processing order: completions free workers
# first; preemption yields fire before new arrivals are admitted (the
# boundary belongs to the batch, not the trigger); spun-up workers join
# before arrivals so fresh capacity takes same-instant traffic; timeouts
# merely re-trigger dispatch.  The resilience kinds (hedge checks,
# hedge-loser worker frees, worker kills, quarantine probes) come after
# every legacy kind and are only ever pushed when their feature is
# enabled — with health/hedging/brownout off, legacy schedules are
# byte-identical.
_EV_DONE = 0
_EV_PREEMPT = 1
_EV_WORKER_UP = 2
_EV_ARRIVAL = 3
_EV_TIMEOUT = 4
_EV_HEDGE = 5
_EV_HEDGE_CANCEL = 6
_EV_KILL = 7
_EV_PROBE = 8
# Failure-domain kinds (PR 8): correlated faults and the domain breaker's
# single probe.  Pushed only when a DomainFaultPlan / DomainPolicy is
# configured, so topology-free schedules stay byte-identical.
_EV_NODE_KILL = 9
_EV_HCA_DEGRADE = 10
_EV_PARTITION = 11
_EV_HEAL = 12
_EV_DOMAIN_PROBE = 13

#: The breaker boards and the event kind that probes a quarantined
#: ledger of each — what a restore must push again.
_PROBE_EVENT = {HealthBoard: _EV_PROBE, DomainBoard: _EV_DOMAIN_PROBE}

#: Float-rounding slack for refresh-boundary arithmetic (same scale as
#: the batching window slack).
_BOUNDARY_SLACK_S = 1e-9


class ServiceInvariantError(RuntimeError):
    """A request left the event loop in a non-terminal state — the
    service lost work, which must never pass silently."""


@dataclass(frozen=True)
class PreemptionPolicy:
    """When running batches yield to more urgent work.

    A batch is *preemptible* when every member sits at or below
    ``victim_priority`` (numerically >=); an arrival at or above
    ``trigger_priority`` (numerically <=) that finds no idle worker
    schedules the victim's yield at its next refresh-point boundary —
    the instant PR 2's machinery has a consistent checkpoint, so the
    preempted solve later *resumes* (remaining work + a modeled
    checkpoint-reload overhead) instead of restarting.
    """

    enabled: bool = False
    #: Refresh-point boundaries per batch (the reliable-update cadence):
    #: a batch can yield at ``k/N`` of its duration, ``k = 1..N-1``.
    refresh_points: int = 4
    #: Model time to reload the checkpoint and re-establish device state
    #: when a preempted batch resumes.
    resume_overhead_s: float = 100e-6
    #: Arrivals at or above this urgency (numerically <=) may trigger.
    trigger_priority: int = PRIORITY_HIGH
    #: Batches whose every member is at or below this urgency
    #: (numerically >=) may be preempted.
    victim_priority: int = PRIORITY_LOW

    def __post_init__(self) -> None:
        if self.refresh_points < 1:
            raise ValueError("refresh_points must be >= 1")
        if self.resume_overhead_s < 0:
            raise ValueError("resume_overhead_s must be >= 0")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that shapes a campaign's schedule."""

    queue_capacity: int = 64
    policy: BatchPolicy = dataclass_field(default_factory=BatchPolicy)
    n_workers: int = 2
    ranks_per_worker: int = 2
    #: Additional dispatches after a worker failure before the request
    #: fails terminally.
    max_retries: int = 1
    #: Real numerics (weak-field configs, actual sources) instead of the
    #: timing-only schedule.
    functional: bool = False
    fixed_iterations: int = 15
    overlap: bool = True
    #: Fault template: worker ``w`` in ``chaos_workers`` runs under
    #: ``fault_plan.reseeded(w)`` — independent schedules, one seed.
    fault_plan: FaultPlan | None = None
    chaos_workers: tuple[int, ...] = ()
    #: Worker-side self-healing (checkpoint resume over survivors);
    #: ``None`` leaves recovery to service-level re-dispatch.
    retry_policy: RetryPolicy | None = None
    integrity: IntegrityPolicy | None = None
    #: Seeds the service's own bookkeeping (reserved; scheduling is
    #: already deterministic without randomness).
    seed: int = 0
    #: Retry-after fallback before any batch has been measured.
    service_time_hint_s: float = 2e-3
    #: EWMA smoothing factor of the drain-rate estimator behind the
    #: retry-after hint (1.0 = last batch only).
    drain_alpha: float = 0.3
    #: The placement layer's knobs: grid selection, residency routing,
    #: shared tunecache.
    placement: PlacementPolicy = dataclass_field(default_factory=PlacementPolicy)
    #: Refresh-boundary preemption of LOW batches by HIGH arrivals.
    preemption: PreemptionPolicy = dataclass_field(default_factory=PreemptionPolicy)
    #: Autoscaling of the worker pool (``None`` = fixed ``n_workers``).
    elastic: ElasticPolicy | None = None
    #: Campaign-checkpoint cadence, in batch completions per commit.
    checkpoint_every: int = 1
    #: Circuit-breaker policy (``None`` or ``enabled=False`` = off).
    health: HealthPolicy | None = None
    #: Straggler-hedging policy (``None`` or ``enabled=False`` = off).
    hedge: HedgePolicy | None = None
    #: Graceful-brownout policy (``None`` or ``enabled=False`` = off).
    brownout: BrownoutPolicy | None = None
    #: Whole-worker fault injection: scheduled kills and per-worker
    #: straggler slowdowns (the failure modes the resilience layer is
    #: exercised against).
    worker_faults: WorkerFaultPlan | None = None
    #: Physical failure-domain hierarchy (worker -> node -> rack).
    #: ``None`` = flat pool; every domain feature below requires it.
    topology: Topology | None = None
    #: Correlated fault injection at domain granularity: silent node
    #: loss, HCA degradation, switch partitions.
    domain_faults: DomainFaultPlan | None = None
    #: Domain-level breaker: k-of-n correlated worker strikes escalate
    #: to a whole-node quarantine with a single probe per domain.
    domain_health: DomainPolicy | None = None
    #: Place warm-pool / hedge replicas in a different failure domain
    #: than the primary whenever one is available.
    anti_affinity: bool = False
    #: Multi-tenant capacity control: per-tenant token-bucket quotas and
    #: weighted-fair dispatch.  ``None`` (or a tenant-less policy) keeps
    #: the whole subsystem inert — tenancy-free schedules byte-identical.
    tenancy: TenancyPolicy | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if not 0.0 < self.drain_alpha <= 1.0:
            raise ValueError("drain_alpha must be in (0, 1]")
        g = self.placement.grid
        if isinstance(g, tuple) and g[0] * g[1] != self.ranks_per_worker:
            raise ValueError(
                f"pinned grid {g} needs {g[0] * g[1]} ranks but workers "
                f"have {self.ranks_per_worker}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        for w in self.chaos_workers:
            if not 0 <= w < self.n_workers:
                raise ValueError(f"chaos worker {w} outside the pool")
        if self.chaos_workers and self.fault_plan is None:
            raise ValueError("chaos_workers requires a fault_plan")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.elastic is not None and not (
            self.elastic.min_workers <= self.n_workers <= self.elastic.max_workers
        ):
            raise ValueError(
                f"n_workers={self.n_workers} outside the elastic range "
                f"[{self.elastic.min_workers}, {self.elastic.max_workers}]"
            )
        if self.topology is not None:
            if self.n_workers > self.topology.n_workers:
                raise ValueError(
                    f"n_workers={self.n_workers} exceeds the topology's "
                    f"{self.topology.n_workers} worker slot(s)"
                )
        else:
            if self.domain_faults is not None:
                raise ValueError("domain_faults requires a topology")
            if self.domain_health is not None and self.domain_health.enabled:
                raise ValueError("domain_health requires a topology")
            if self.anti_affinity:
                raise ValueError("anti_affinity requires a topology")


@dataclass
class ServiceResult:
    """A served campaign: the report plus every artifact behind it."""

    report: ServiceReport
    records: list[RequestRecord]
    batches: list[Batch]
    #: Request ids in completion order — the determinism witness.
    completion_order: list[int]
    workers: list[SimWorker]

    def record_for(self, req_id: int) -> RequestRecord:
        for rec in self.records:
            if rec.request.req_id == req_id:
                return rec
        raise KeyError(req_id)


@dataclass
class _ProbeRun:
    """A quarantined worker's seeded probe batch in flight.

    Rides the ``_EV_DONE`` queue like any batch completion (discriminated
    by type), but its request never enters the campaign's records — a
    probe is the breaker's instrument, not admitted traffic.
    """

    worker_id: int
    #: Filled in by :meth:`_Campaign._run_probe` once the probe has run.
    execution: BatchExecution | None = None


@dataclass
class _DeadRun:
    """A batch condemned by a *silent* node loss, awaiting detection.

    The scheduler dispatched to a dead node without knowing it: the
    send can only fail by timeout, so the failure surfaces ``detect_s``
    after dispatch — not at the instant of death.  Rides ``_EV_DONE``
    discriminated by type, like :class:`_ProbeRun`.
    """

    batch: Batch


@dataclass
class _DomainProbeRun:
    """The domain breaker's single probe for a quarantined node."""

    node: int
    execution: BatchExecution | None = None


@dataclass
class _PreemptedRun:
    """A batch parked at a refresh-point checkpoint, awaiting resume."""

    records: list[RequestRecord]
    key: tuple
    residency_key: tuple
    grid: tuple[int, int] | None
    remaining_s: float
    #: The original execution: its outcomes replay on resume (the solve
    #: continues from checkpoint — same trajectory, same answer).
    execution: BatchExecution
    priority: int
    preempted_s: float
    from_batch: int


@dataclass
class _Counters:
    """Counters of the two features the kernel implements itself —
    preemption and whole-worker kills — as one checkpoint part.

    ``resumed_batches`` is reported but not carried across a scheduler
    crash: the carried set is frozen by the ledger's pinned
    ``serve-durable`` report, so a resumed campaign under-reports it
    (ROADMAP item 5, "bug the artifact still shows").
    """

    preemptions: int = 0
    resumed_batches: int = 0
    workers_killed: int = 0

    def to_json(self) -> dict:
        return {
            "preemptions": self.preemptions,
            "workers_killed": self.workers_killed,
        }

    def restore(self, data: dict) -> None:
        self.preemptions = int(data["preemptions"])
        self.workers_killed = int(data["workers_killed"])

    def summary(self) -> dict:
        return {
            "preemptions": self.preemptions,
            "resumed_batches": self.resumed_batches,
            "workers_killed": self.workers_killed,
        }


def _on(policy) -> bool:
    return policy is not None and policy.enabled


class SolveService:
    """Deterministic scheduler over a simulated (elastic) worker pool."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        gpu_spec: GPUSpec = GTX285,
        cluster: ClusterSpec | None = None,
        tune_cache: SharedTuneCache | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.gpu_spec = gpu_spec
        self.cluster = cluster
        self.workers = [
            self._make_worker(w) for w in range(self.config.n_workers)
        ]
        #: The dispatch loop's oracle; ``tune_cache`` may be a store
        #: loaded from disk (``repro serve --tunecache``) so the sweep
        #: amortizes across campaigns.
        self.placement = PlacementEngine(
            self.config.placement,
            self.workers,
            gpu_spec=gpu_spec,
            tune_cache=tune_cache,
        )

    def _make_worker(self, worker_id: int, node: int | None = None) -> SimWorker:
        """One worker slot — the factory the elastic controller uses, so
        a scaled-up worker is indistinguishable from a boot-time one.

        ``node`` is the failure domain an elastic scale-up landed on:
        its straggler factor then derives from the (domain, seed) pair
        instead of the pool index, so a resumed run with different
        scale history stays deterministic per worker *identity*.
        """
        cfg = self.config
        if cfg.worker_faults is None:
            straggler = 1.0
        elif node is not None and worker_id >= cfg.n_workers:
            straggler = cfg.worker_faults.reseeded(
                node,
                cfg.seed,
                boot_workers=cfg.n_workers,
                n_nodes=cfg.topology.n_nodes,
            )
        else:
            straggler = cfg.worker_faults.straggler_factor(worker_id)
        return SimWorker(
            worker_id,
            ranks=cfg.ranks_per_worker,
            gpu_spec=self.gpu_spec,
            cluster=self.cluster,
            # Chaos covers the configured boot workers *and* every
            # elastic scale-up (ids past the boot pool): each gets its
            # own ``reseeded(worker_id)`` stream, so scaled-up capacity
            # is never fault-immune and never replays worker 0's faults.
            fault_plan=(
                cfg.fault_plan.reseeded(worker_id)
                if cfg.fault_plan is not None
                and (worker_id in cfg.chaos_workers or worker_id >= cfg.n_workers)
                else None
            ),
            retry_policy=cfg.retry_policy,
            integrity=cfg.integrity,
            functional=cfg.functional,
            fixed_iterations=cfg.fixed_iterations,
            overlap=cfg.overlap,
            residency=cfg.placement.residency,
            straggler_factor=straggler,
        )

    # ------------------------------------------------------------------ #

    def run(self, requests: list[SolveRequest]) -> ServiceResult:
        """Serve a fixed campaign; returns when every request is terminal.

        The one-shot entry point (PR 4 compatible): the list becomes an
        arrival stream ordered by event time (stable for ties, so legacy
        schedules are unchanged).
        """
        return self.serve(sorted(requests, key=lambda r: r.arrival_s))

    def serve(
        self,
        arrivals: Iterable[SolveRequest],
        *,
        checkpoint: CampaignCheckpointStore | None = None,
        crash_at_s: float | None = None,
    ) -> ServiceResult:
        """Serve an arrival stream until the channel closes and every
        admitted request is terminal.

        ``checkpoint`` enables campaign-level self-healing: the schedule
        commits at batch boundaries, and a :class:`SchedulerCrash`
        (raised when the model clock reaches ``crash_at_s``) carries the
        store so the supervisor can :meth:`resume`.
        """
        campaign = _Campaign(
            self, iter(arrivals), store=checkpoint, crash_at_s=crash_at_s
        )
        return campaign.run()

    def resume(
        self,
        arrivals: Iterable[SolveRequest],
        *,
        checkpoint: CampaignCheckpointStore,
        crash_at_s: float | None = None,
    ) -> ServiceResult:
        """Resume a crashed campaign from its last verified commit.

        ``arrivals`` must be the same (deterministic) source the crashed
        run consumed — the restore skips exactly the prefix the
        checkpoint recorded.  With no verified commit the campaign
        simply restarts from scratch (at-least-once, never lost).
        """
        snapshot = checkpoint.latest()
        source: Iterator[SolveRequest] = iter(arrivals)
        if snapshot is not None:
            source = itertools.islice(
                source, snapshot.arrivals_consumed, None
            )
        campaign = _Campaign(
            self,
            source,
            store=checkpoint,
            crash_at_s=crash_at_s,
            restore=snapshot,
        )
        return campaign.run()


class _Campaign:
    """One daemon run: the event loop and all of its mutable state.

    The *kernel* is the heap, the clock, the queue, dispatch and the
    no-lost-requests invariant, plus a few verbs every feature goes
    through instead of reaching into ``running`` / ``cancelled`` /
    ``predicted`` / ``idle`` itself: :meth:`_eligible`,
    :meth:`_reassess`, :meth:`_release` and :meth:`_hold` (who may take
    traffic, the view of it kept on change, the one sorted re-idle),
    :meth:`_launch` (the dispatch tail),
    :meth:`_teardown` (a batch leaves its worker early),
    :meth:`_surrender` (a lost batch's records: hedged partner, retry
    budget, terminal failure), :meth:`_refuse`, :meth:`_next_boundary`,
    :meth:`_run_probe` and :meth:`_after_batch`.

    Every stateful feature object sits in ``parts`` behind the same
    three methods — ``to_json()``, ``restore(data)``, ``summary()`` —
    so checkpoint commit, restore and the report's daemon block are
    loops over ``parts``, not a parallel list of features that could
    drift.
    """

    def __init__(
        self,
        service: SolveService,
        arrivals: Iterator[SolveRequest],
        *,
        store: CampaignCheckpointStore | None,
        crash_at_s: float | None,
        restore: CampaignCheckpoint | None = None,
    ) -> None:
        self.service = service
        self.cfg = service.config
        self.workers = service.workers
        self.placement = service.placement
        self.arrivals = arrivals
        self.store = store
        self.crash_at_s = crash_at_s

        cfg = self.cfg
        self.queue = AdmissionQueue(cfg.queue_capacity)
        self.records: list[RequestRecord] = []
        self.batches: list[Batch] = []
        self.completion_order: list[int] = []
        self.preempted: list[_PreemptedRun] = []
        self.running: dict[int, tuple[Batch, BatchExecution, float, float]] = {}
        self.cancelled: set[int] = set()
        self.events: list[tuple] = []
        self.seq = 0
        self.now = 0.0
        self.makespan = 0.0
        self.batch_seq = 0
        self.arrivals_consumed = 0
        self.checkpoints_committed = 0
        self.batches_since_commit = 0
        #: What the checkpoint log does not hold yet.  A terminal record
        #: never changes again, so each is serialised by exactly one
        #: commit: ``open`` is the positions in ``records`` that were
        #: not terminal at the last commit, ``records[scanned:]`` has
        #: not met one, and ``logged`` is how much of each append-only
        #: list (``completion_order``, a part's ``LEDGER``) is written,
        #: by owner.
        #: ``epoch`` is the commit this incarnation started from.
        self.epoch = 0
        self.open: list[int] = []
        self.scanned = 0
        self.logged: dict[str, int] = {}
        self.restored_requests = 0
        self.restored = False
        self.pending_up: set[int] = set()
        #: Drain-model estimate taken at each batch's dispatch — the
        #: baseline hedging and the slow-completion signal compare to.
        self.predicted: dict[int, float] = {}
        #: Head request of the most recent fresh dispatch: the probe
        #: batch a quarantined worker must survive to be reinstated.
        self.probe_template: SolveRequest | None = None

        self.drain = DrainEstimator(
            alpha=cfg.drain_alpha, initial_s=cfg.service_time_hint_s
        )
        self.arrival_est = ArrivalRateEstimator(
            alpha=cfg.elastic.alpha if cfg.elastic else 0.3
        )
        self.counters = _Counters()
        # Each optional feature is its object or ``None``; ``None``
        # keeps every hook of that feature inert.
        self.controller = (
            PoolController(cfg.elastic) if cfg.elastic is not None else None
        )
        self.board = HealthBoard(cfg.health) if _on(cfg.health) else None
        self.hedge = HedgeLedger(cfg.hedge) if _on(cfg.hedge) else None
        self.brownout = (
            BrownoutController(cfg.brownout) if _on(cfg.brownout) else None
        )
        self.tenants = TenantRegistry(cfg.tenancy) if _on(cfg.tenancy) else None
        self.domains = (
            DomainState(cfg.topology, cfg.n_workers)
            if cfg.topology is not None
            else None
        )
        self.domain_board = (
            DomainBoard(cfg.domain_health) if _on(cfg.domain_health) else None
        )
        #: Everything that checkpoints and reports, in restore order
        #: (the worker board re-arms its probes before the domain board:
        #: re-arm pushes consume ``seq``).
        parts = {
            "drain": self.drain,
            "arrival_rate": self.arrival_est,
            "tunecache": self.placement.tune_cache,
            "counters": self.counters,
            "elastic": self.controller,
            "health": self.board,
            "hedge": self.hedge,
            "brownout": self.brownout,
            "tenancy": self.tenants,
            "domains": self.domains,
            "domain_health": self.domain_board,
        }
        self.parts: dict[str, object] = {
            name: part for name, part in parts.items() if part is not None
        }

        if restore is not None:
            self._restore(restore)
        self.placement.reset_stats()
        #: The workers :meth:`_eligible` admits, kept by :meth:`_reassess`
        #: at every transition that can change the answer, so admission
        #: and completion read it instead of recounting the pool.
        self.serving = {
            w.worker_id for w in self.workers if self._eligible(w.worker_id)
        }
        self.idle = sorted(self.serving)

    # ------------------------------------------------------------------ #
    # Checkpoint commit / restore (scheduler self-healing)
    # ------------------------------------------------------------------ #

    def _restore(self, ckpt: CampaignCheckpoint) -> None:
        """Rebuild campaign state from the last verified commit."""
        self.restored = True
        self.now = ckpt.time_s
        self.makespan = ckpt.makespan_s
        self.batch_seq = ckpt.next_batch_id
        self.arrivals_consumed = ckpt.arrivals_consumed
        self.checkpoints_committed = self.epoch = ckpt.checkpoints_committed
        self.completion_order = list(ckpt.completion_order)
        terminal, pending = ckpt.restored_records()
        self.records.extend(terminal)
        self.open = list(range(len(terminal), len(terminal) + len(pending)))
        self.scanned = len(terminal) + len(pending)
        for rec in pending:
            # The record's batch (if any) died with the scheduler:
            # re-queue at the restore clock.  Not counted against the
            # retry budget — the worker did not fail, the scheduler did.
            rec.state = QUEUED
            rec.note(self.now, "restore", "re-queued after scheduler crash")
            self.records.append(rec)
            self.queue.offer(rec, force=True)
        self.restored_requests = len(pending)
        for name, part in self.parts.items():
            if name in ckpt.parts:
                part.restore(ckpt.parts[name])
        self._grown()  # everything restored came out of the log
        # After the parts: a worker added by a scale-up is rebuilt on
        # its restored node assignment, which fixes its straggler factor.
        for wd in ckpt.workers:
            while wd["worker_id"] >= len(self.workers):
                wid = len(self.workers)
                self.workers.append(
                    self.service._make_worker(wid, node=self._assigned_node(wid))
                )
            self.workers[wd["worker_id"]].restore_state(wd)
        # Re-arm pending probes: quarantines survive the crash (a
        # known-flaky worker must not restart HEALTHY), but their probe
        # events died with the scheduler.  A ledger caught mid-probe
        # re-enters QUARANTINED — its probe batch is gone, so it earns
        # a fresh one.
        for part in self.parts.values():
            kind = _PROBE_EVENT.get(type(part))
            if kind is None:
                continue
            for ident, ledger in part.ledgers.items():
                if ledger.state == PROBING:
                    ledger.state = QUARANTINED
                if ledger.state == QUARANTINED:
                    self._push(
                        max(ledger.cooldown_until_s, self.now), kind, ident
                    )

    def _grown(self) -> tuple[list[int], dict[str, dict[str, list]]]:
        """What every append-only list — the completion order, each
        part's ``LEDGER`` attribute — gained since the last call, as
        :class:`CampaignDelta` takes it."""

        def tail(name: str, rows: list) -> list:
            start = self.logged.get(name, 0)
            self.logged[name] = len(rows)
            return rows[start:]

        return tail("completion_order", self.completion_order), {
            name: {part.LEDGER: tail(name, getattr(part, part.LEDGER))}
            for name, part in self.parts.items()
            if hasattr(part, "LEDGER")
        }

    def _commit_checkpoint(self) -> None:
        """Commit the campaign at a batch boundary (every request in a
        well-defined lifecycle state; no event half-processed): what
        became final since the last commit goes to the log, the rest —
        the head — is written whole."""
        if self.store is None:
            return
        done, pending, still_open = [], [], []
        for pos in itertools.chain(
            self.open, range(self.scanned, len(self.records))
        ):
            rec = self.records[pos]
            if rec.terminal:
                done.append([pos, rec.to_json()])
            else:
                pending.append(rec.to_json())
                still_open.append(pos)
        self.open, self.scanned = still_open, len(self.records)
        completion_order, ledgers = self._grown()
        delta = CampaignDelta(
            epoch=self.epoch,
            terminal=done,
            completion_order=completion_order,
            ledgers=ledgers,
        )
        head = CampaignCheckpoint(
            time_s=self.now,
            arrivals_consumed=self.arrivals_consumed,
            next_batch_id=self.batch_seq,
            next_req_seq=len(self.records),
            makespan_s=self.makespan,
            checkpoints_committed=self.checkpoints_committed + 1,
            pending=pending,
            workers=[w.state_json() for w in self.workers],
            parts={name: part.to_json() for name, part in self.parts.items()},
        )
        self.store.commit(head, delta)
        self.checkpoints_committed += 1
        self.batches_since_commit = 0

    # ------------------------------------------------------------------ #
    # Event helpers
    # ------------------------------------------------------------------ #

    def _push(self, time_s: float, kind: int, payload) -> None:
        heapq.heappush(self.events, (time_s, kind, self.seq, payload))
        self.seq += 1

    def _push_next_arrival(self) -> None:
        req = next(self.arrivals, None)
        if req is not None:
            self._push(req.arrival_s, _EV_ARRIVAL, req)

    def _next_batch_id(self) -> int:
        bid = self.batch_seq
        self.batch_seq += 1
        return bid

    def _next_boundary(self, start: float, end: float, points: int) -> float:
        """The first of a batch's ``points`` refresh boundaries at or
        after now (one on this very instant counts: its checkpoint is
        consistent now).  May lie at or past ``end``; callers clamp."""
        interval = (end - start) / points
        k = max(
            1,
            -int(-(self.now - start - _BOUNDARY_SLACK_S) // interval),
        )
        return start + k * interval

    @staticmethod
    def _partner_id(batch: Batch) -> int | None:
        """The other copy of a hedged pair (``None`` = not hedged)."""
        return (
            batch.hedge_of if batch.hedge_of is not None else batch.hedge_batch_id
        )

    @staticmethod
    def _grid_label(grid: tuple[int, int] | None) -> str:
        return "time-sliced" if grid is None else f"grid {grid[0]}x{grid[1]}"

    # ------------------------------------------------------------------ #
    # Who may take traffic
    # ------------------------------------------------------------------ #

    def _domain_ok(self, worker_id: int) -> bool:
        """May this worker take traffic, as far as *domain* state knows?

        True by construction when no topology is configured, so every
        call site degenerates to the legacy schedule byte-for-byte.
        """
        if self.domains is None:
            return True
        node = self.domains.node_of(worker_id)
        if self.domain_board is not None and not self.domain_board.is_serving(
            node
        ):
            return False
        return self.domains.reachable(node)

    def _eligible(self, worker_id: int) -> bool:
        """The one predicate: may this worker take traffic?  Not
        retired, not held by the per-worker breaker, not in a held or
        unreachable domain — direct checks, not a loop over features.
        Readers take the kept answer, ``serving``; only
        :meth:`_reassess` (and the constructor) ask this."""
        if self.workers[worker_id].retired:
            return False
        if self.board is not None and not self.board.is_serving(worker_id):
            return False
        return self.domains is None or self._domain_ok(worker_id)

    def _reassess(self, worker_ids) -> None:
        """Re-derive ``serving`` for ``worker_ids`` after a transition
        that can change :meth:`_eligible` for them: a retire, a
        scale-up, a breaker opening or closing, a domain hold or its
        heal."""
        for wid in worker_ids:
            if self._eligible(wid):
                self.serving.add(wid)
            else:
                self.serving.discard(wid)

    def _release(self, worker_id: int) -> None:
        """A worker has nothing to do: back to the idle set, if it is
        eligible and not there already."""
        if worker_id not in self.idle and worker_id in self.serving:
            self.idle.append(worker_id)
            self.idle.sort()

    def _hold(self, worker_id: int) -> None:
        """Take a worker out of the idle set (it may not be in it)."""
        if worker_id in self.idle:
            self.idle.remove(worker_id)

    def _active_workers(self) -> int:
        return sum(1 for w in self.workers if not w.retired)

    def _serving_workers(self) -> int:
        """Workers actually taking traffic: active minus the breaker's
        quarantined/probing holds *and* minus whole domains parked by a
        quarantine or partition (identical to :meth:`_active_workers`
        when neither health tracking nor a topology is configured).

        Retry-after hints divide the backlog by this count — when a
        domain quarantine parks most of the pool, computing against the
        full pool would tell shed clients to come back far too soon.
        """
        return len(self.serving)

    def _refuse(
        self,
        rec: RequestRecord,
        event: str,
        why: str,
        retry_after_s: float | None = None,
        basis: str = "",
    ) -> None:
        """The rejection transition.  The come-back hint defaults to the
        drain estimate: the backlog over the pool actually serving."""
        if retry_after_s is None:
            retry_after_s = self.drain.retry_after_s(
                len(self.queue),
                max_batch=self.cfg.policy.max_batch,
                n_workers=max(self._serving_workers(), 1),
            )
        rec.state = REJECTED
        rec.completed_s = self.now
        rec.retry_after_s = retry_after_s
        rec.note(
            self.now,
            event,
            f"{why}; retry after {retry_after_s * 1e6:.1f}us{basis}",
        )

    # ------------------------------------------------------------------ #
    # Failure-domain helpers (all vacuous when topology is None)
    # ------------------------------------------------------------------ #

    def _members(self, node: int) -> list[int]:
        """Every pool worker (any lifecycle state) on ``node``."""
        return self.domains.members(node, len(self.workers))

    def _assigned_node(self, worker_id: int) -> int | None:
        """The node an elastic scale-up landed on (``None`` for boot
        workers and topology-free pools)."""
        if self.domains is None:
            return None
        return self.domains.worker_node.get(worker_id)

    def _node_dead(self, worker_id: int) -> bool:
        return (
            self.domains is not None
            and self.domains.node_of(worker_id) in self.domains.dead_nodes
        )

    def _record_isolation(self, worker_id: int) -> None:
        if self.domains is not None:
            self.domains.isolation_s.setdefault(worker_id, self.now)

    def _domain_strike(self, worker_id: int) -> None:
        """One worker-level fault is one strike against its domain; the
        k-th *distinct* striking worker in the window escalates to a
        whole-domain quarantine."""
        if self.domain_board is None:
            return
        node = self.domains.node_of(worker_id)
        if self.domain_board.observe_strike(node, worker_id, self.now):
            self._quarantine_domain(node)

    def _reidle_members(self, nodes) -> None:
        """After a heal or a domain reinstate: re-derive who on
        ``nodes`` may serve, and return every eligible parked worker
        there to the idle set."""
        busy = {b.worker_id for b, _, _, _ in self.running.values()}
        for node in nodes:
            members = self._members(node)
            self._reassess(members)
            for wid in members:
                if wid not in busy and wid not in self.pending_up:
                    self._release(wid)

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #

    def _arrive(self, req: SolveRequest) -> RequestRecord | None:
        self.arrivals_consumed += 1
        probe = self._admit(req)
        self._push_next_arrival()
        return probe

    def _admit(self, req: SolveRequest) -> RequestRecord | None:
        """Process one arrival; returns the record when it might warrant
        a preemption probe after the dispatch pass."""
        cfg = self.cfg
        rec = RequestRecord(request=req)
        self.records.append(rec)
        rec.note(self.now, "arrive", f"priority {req.priority}")
        self.arrival_est.observe(self.now)
        if self.tenants is not None and req.tenant in self.tenants:
            # Quota gate: one bucket token per admission.  The reject's
            # retry-after is the bucket's *refill* time — when the tenant
            # next has a token — not the drain estimate, which says when
            # the cluster has room (a different, usually shorter, answer
            # that would invite an immediate second reject).  A quota
            # reject never reaches a worker, so it never touches the
            # health ledgers either: it is the tenant's fault, not a
            # worker's.
            retry = self.tenants.admit(req.tenant, self.now)
            if retry is not None:
                self._refuse(
                    rec,
                    "quota",
                    f"tenant {req.tenant} over quota",
                    retry_after_s=retry,
                    basis=" (bucket refill)",
                )
                return None
        level = self._update_brownout()
        if level >= BROWNOUT_SHED_LOW and req.priority != PRIORITY_HIGH:
            # HIGH is admitted at every level (capacity itself, i.e. the
            # queue bound, is its only limit); LOW sheds first, NORMAL
            # only at the top level.
            if level >= BROWNOUT_REJECT or req.priority == PRIORITY_LOW:
                shed = True
                if self.tenants is not None and req.tenant in self.tenants:
                    if level < BROWNOUT_REJECT:
                        # Weight-proportional shedding: the heaviest
                        # tenant keeps every LOW request, lighter tenants
                        # shed in proportion to their weight deficit —
                        # instead of the tenant-blind shed-all.
                        shed = self.tenants.shed_low(req.tenant)
                    else:
                        self.tenants.note_shed(req.tenant)
                if shed:
                    rec.shed = True
                    if req.priority == PRIORITY_LOW:
                        self.brownout.shed += 1
                    else:
                        self.brownout.brownout_rejected += 1
                    self._refuse(rec, "shed", f"brownout level {level}")
                    return None
        if not self.queue.offer(rec):
            self._refuse(rec, "reject", f"queue full ({cfg.queue_capacity})")
            return None
        rec.admitted_s = self.now
        rec.note(self.now, "admit", f"depth {len(self.queue)}")
        self._push(self.now + cfg.policy.max_wait_s, _EV_TIMEOUT, None)
        self._evaluate_scale()
        if (
            cfg.preemption.enabled
            and req.priority <= cfg.preemption.trigger_priority
        ):
            return rec
        return None

    def _on_timeout(self, _payload: None) -> None:
        """A batching window expired.  Nothing to do here: the event
        exists to reach the dispatch pass that follows every event."""

    # ------------------------------------------------------------------ #
    # Elastic pool
    # ------------------------------------------------------------------ #

    def _evaluate_scale(self) -> None:
        if self.controller is None:
            return
        delta = self.controller.decide(
            self.now,
            current=self._serving_workers() + len(self.pending_up),
            idle=len(self.idle),
            rate_rps=self.arrival_est.rate_rps(self.now),
            batch_s=self.drain.batch_s,
            max_batch=self.cfg.policy.max_batch,
            backlog=len(self.queue),
            quarantined=(
                (self.board.n_quarantined() if self.board is not None else 0)
                + self._domain_held_workers()
            ),
        )
        if delta > 0:
            for _ in range(delta):
                wid = len(self.workers)
                node = self._scale_up_node()
                self.workers.append(self.service._make_worker(wid, node=node))
                if node is not None:
                    self.domains.worker_node[wid] = node
                    factor = self.domains.hca_factor.get(node)
                    if factor is not None:
                        # New capacity on a degraded node inherits the
                        # node's sick HCA like every co-resident worker.
                        self.workers[wid].straggler_factor *= factor
                self._reassess((wid,))
                self.pending_up.add(wid)
                self._push(
                    self.now + self.cfg.elastic.spinup_s, _EV_WORKER_UP, wid
                )
        elif delta < 0:
            # Retire from the top so worker ids stay dense at the bottom
            # (and the pick is deterministic).  Removing the id from
            # ``idle`` *before* anything else closes the scale-down /
            # dispatch race: a retired worker can never be selected.
            wid = max(self.idle)
            self.idle.remove(wid)
            self.workers[wid].retire()
            self._reassess((wid,))

    def _domain_held_workers(self) -> int:
        """Not-retired workers parked by a *domain* hold (quarantine or
        partition) that the worker board still considers serving — the
        controller must not read them as shrinkable idle capacity."""
        if self.domains is None:
            return 0
        return sum(
            1
            for w in self.workers
            if not w.retired
            and (self.board is None or self.board.is_serving(w.worker_id))
            and not self._domain_ok(w.worker_id)
        )

    def _scale_up_node(self) -> int | None:
        """Anti-pack the elastic surge: least-loaded healthy domain,
        lowest node id on ties.  ``None`` without a topology."""
        domains = self.domains
        if domains is None:
            return None
        nodes = list(range(domains.topology.n_nodes))
        healthy = [
            n
            for n in nodes
            if n not in domains.dead_nodes
            and domains.reachable(n)
            and (
                self.domain_board is None or self.domain_board.is_serving(n)
            )
        ]
        loads: dict[int, int] = {}
        for w in self.workers:
            if not w.retired:
                n = domains.node_of(w.worker_id)
                loads[n] = loads.get(n, 0) + 1
        # With every domain unhealthy the pool still must not starve:
        # fall back to spreading across all nodes.
        return spread_domain(loads, healthy or nodes)

    def _worker_up(self, worker_id: int) -> None:
        self.pending_up.discard(worker_id)
        self._release(worker_id)

    # ------------------------------------------------------------------ #
    # Preemption
    # ------------------------------------------------------------------ #

    def _maybe_preempt(self, trigger: RequestRecord) -> None:
        """A qualifying arrival is still queued after the dispatch pass:
        schedule the best LOW victim's yield at its next refresh point."""
        pre = self.cfg.preemption
        best = None
        for batch, execution, start, end in self.running.values():
            if batch.preempt_at_s is not None:
                # Already checkpointing toward a yield — a second HIGH
                # arrival must not re-preempt it (it will free the
                # worker at that same boundary anyway).
                continue
            if self._partner_id(batch) is not None:
                # Hedged pairs are off-limits: preempting either copy
                # would double-account the shared records' lifecycle
                # (the pair resolves at first completion instead).
                continue
            worst = min(r.request.priority for r in batch.records)
            if worst < pre.victim_priority:
                continue
            if worst <= trigger.request.priority:
                continue  # never preempt work as urgent as the trigger
            # Most remaining work = most latency bought; ties to the
            # older batch for determinism.
            remaining = end - self.now
            key = (remaining, -batch.batch_id)
            if best is None or key > best[0]:
                best = (key, batch, start, end)
        if best is None:
            return
        _, batch, start, end = best
        boundary = self._next_boundary(start, end, pre.refresh_points)
        if boundary >= end - _BOUNDARY_SLACK_S:
            return  # no checkpoint boundary left before completion
        batch.preempt_at_s = boundary
        batch.trace.append(
            (
                self.now,
                "preempt_scheduled",
                f"HIGH request {trigger.request.req_id} waiting; yield at "
                f"refresh boundary {boundary * 1e6:.1f}us",
            )
        )
        self._push(boundary, _EV_PREEMPT, batch)

    def _do_preempt(self, batch: Batch) -> None:
        """Yield a running batch at its refresh boundary: checkpoint,
        free the worker, park the remainder for resume."""
        entry = self._teardown(batch.batch_id, self.now)
        if entry is None:
            return  # completed (or failed) before the boundary
        _, execution, _, end = entry
        batch.preempted = True
        batch.detail = "preempted at refresh boundary"
        batch.trace.append(
            (self.now, "preempt", f"{(end - self.now) * 1e6:.1f}us remaining")
        )
        head = batch.records[0].request
        for rec in batch.records:
            rec.state = QUEUED
            rec.preemptions += 1
            rec.note(
                self.now,
                "preempt",
                f"batch {batch.batch_id} yielded at refresh boundary; "
                "will resume from checkpoint",
            )
        self.preempted.append(
            _PreemptedRun(
                records=batch.records,
                key=head.compat_key,
                residency_key=(head.config_id, head.dims, head.mode, batch.grid),
                grid=batch.grid,
                remaining_s=end - self.now,
                execution=execution,
                priority=min(r.request.priority for r in batch.records),
                preempted_s=self.now,
                from_batch=batch.batch_id,
            )
        )
        self.counters.preemptions += 1
        self._release(batch.worker_id)

    # ------------------------------------------------------------------ #
    # Failure-domain resilience: brownout, hedging, breaker, kills
    # ------------------------------------------------------------------ #

    def _update_brownout(self) -> int:
        """Fold the current backlog pressure (estimated drain time across
        the serving pool) into the controller; returns the active level
        (NORMAL when brownout is disabled)."""
        if self.brownout is None:
            return BROWNOUT_NORMAL
        backlog = len(self.queue)
        pressure = 0.0  # what the drain estimate gives an empty queue
        if backlog:
            pressure = self.drain.backlog_drain_s(
                backlog,
                max_batch=self.cfg.policy.max_batch,
                n_workers=max(self._serving_workers(), 1),
            )
        return self.brownout.update(self.now, pressure)

    def _arm_hedge(self, batch: Batch) -> None:
        """Schedule the straggler check: if the batch is still running
        when elapsed time crosses ``trigger_factor`` x the dispatch-time
        drain estimate, it earns a speculative replica."""
        if self.hedge is None:
            return
        policy = self.hedge.policy
        if self.drain.samples < policy.min_samples:
            return
        self._push(
            self.now + policy.trigger_factor * self.predicted[batch.batch_id],
            _EV_HEDGE,
            batch,
        )

    def _maybe_hedge(self, batch: Batch) -> None:
        """The hedge threshold passed with the batch still running:
        launch a replica on an idle healthy worker.  First completion
        wins; the loser abandons at its next refresh boundary."""
        entry = self.running.get(batch.batch_id)
        if entry is None or batch.preempt_at_s is not None:
            return
        if self._partner_id(batch) is not None:
            return
        if not self.idle:
            return  # no healthy idle worker to hedge on
        _, _, start, end = entry
        if end - self.now <= _BOUNDARY_SLACK_S:
            return  # completing at this very instant anyway
        pick = 0
        if self.cfg.anti_affinity:
            # A hedge exists because the primary looks sick; a replica
            # sharing the primary's failure domain shares its fate.
            # Prefer an idle worker on a *different* node — gauge-
            # resident ones first, so the diversion never trades warmth
            # for diversity when it can have both.
            node_of = self.domains.node_of
            primary_node = node_of(batch.worker_id)
            head = batch.records[0].request
            rkey = (head.config_id, head.dims, head.mode, batch.grid)
            best = None
            for i, cand in enumerate(self.idle):
                if node_of(cand) == primary_node:
                    continue
                score = (0 if self.workers[cand].resident_key == rkey else 1, i)
                if best is None or score < best[0]:
                    best = (score, i)
            if best is not None:
                pick = best[1]
                self.domains.anti_affinity_hedges += 1
        wid = self.idle.pop(pick)
        replica = Batch(
            batch_id=self._next_batch_id(),
            records=batch.records,
            key=batch.key,
            formed_s=self.now,
            worker_id=wid,
            grid=batch.grid,
            hedge_of=batch.batch_id,
            degraded_mode=batch.degraded_mode,
        )
        batch.hedge_batch_id = replica.batch_id
        self.batches.append(replica)
        self.hedge.launched += 1
        batch.trace.append(
            (
                self.now,
                "hedge",
                f"straggling ({(self.now - start) * 1e6:.1f}us elapsed); "
                f"replica batch {replica.batch_id} on worker {wid}",
            )
        )
        replica.trace.append(
            (self.now, "hedge_replica", f"of batch {batch.batch_id}")
        )
        for rec in batch.records:
            rec.batch_ids.append(replica.batch_id)
            rec.note(
                self.now,
                "hedge",
                f"replica batch {replica.batch_id} launched on worker {wid}",
            )
        self._launch(replica, self._run_batch(replica))

    def _resolve_hedge(self, batch: Batch) -> None:
        """``batch`` completed first: cancel the surviving copy at its
        next refresh-point boundary (the earliest instant the worker can
        abandon the solve with consistent device state), crediting back
        the occupancy it will not spend."""
        partner_id = self._partner_id(batch)
        entry = self.running.get(partner_id)
        if entry is None:
            return
        loser, _, lstart, lend = entry
        free_at = min(
            self._next_boundary(lstart, lend, self.hedge.policy.refresh_points),
            lend,
        )
        self._teardown(partner_id, free_at)
        loser.hedge_cancelled = True
        loser.detail = f"hedge: batch {batch.batch_id} finished first"
        loser.trace.append(
            (
                self.now,
                "hedge_cancel",
                f"batch {batch.batch_id} won; abandoning at "
                f"{free_at * 1e6:.1f}us",
            )
        )
        self.hedge.cancelled += 1
        if batch.hedge_of is not None:
            self.hedge.won += 1
        # The loser's worker rejoins the idle set at its abandon
        # boundary (unless retired or quarantined in the meantime).
        self._push(free_at, _EV_HEDGE_CANCEL, loser.worker_id)

    def _quarantine(self, worker_id: int) -> None:
        """Open the breaker: hold the worker out of the idle set, evict
        its warm residency (a sick device's warmth must not keep
        attracting traffic), and schedule the post-cooldown probe."""
        wh = self.board.quarantine(worker_id, self.now)
        self._reassess((worker_id,))
        self._hold(worker_id)
        self.workers[worker_id].evict_residency()
        self._push(wh.cooldown_until_s, _EV_PROBE, worker_id)
        self._record_isolation(worker_id)
        self._domain_strike(worker_id)

    def _run_probe(self, worker: SimWorker, req_id: int, run) -> None:
        """Run one seeded probe batch on ``worker`` — representative
        work (the head request of the most recent fresh dispatch) at LOW
        priority, outside the campaign's records — and deliver ``run``,
        carrying the execution, when it is done."""
        probe_req = replace(
            self.probe_template,
            req_id=req_id,
            priority=PRIORITY_LOW,
            arrival_s=self.now,
            deadline_s=None,
        )
        execution = worker.execute(
            [probe_req], grid=None, tune_cache=self.placement.tune_cache
        )
        duration = execution.duration_s
        if self._node_dead(worker.worker_id):
            # A probe sent to a dead node can only time out.
            execution = replace(execution, ok=False)
            duration = self.cfg.domain_faults.detect_s
        run.execution = execution
        worker.busy_s += duration
        self._push(self.now + duration, _EV_DONE, run)

    def _start_probe(self, worker_id: int) -> None:
        """Cooldown expired: probe the quarantined worker."""
        worker = self.workers[worker_id]
        if worker.retired or self.board.state(worker_id) != QUARANTINED:
            return
        if not self._domain_ok(worker_id):
            # The whole domain is held (quarantined or partitioned): a
            # per-worker probe would race the domain's single probe.
            # Retry once the domain resolves.
            self._push(
                self.now + max(self.board.policy.cooldown_s, 1e-6),
                _EV_PROBE,
                worker_id,
            )
            return
        if self.probe_template is None:
            # Nothing dispatched yet to probe with; close the breaker
            # optimistically — the ledger re-opens it on the next fault.
            self.board.reinstate(worker_id)
            self._reassess((worker_id,))
            self._release(worker_id)
            return
        self.board.start_probe(worker_id)
        self._run_probe(worker, -(worker_id + 1), _ProbeRun(worker_id))

    def _probe_done(self, run: _ProbeRun) -> None:
        """The probe's verdict: clean closes the breaker with a reset
        ledger; a failure is a strike — re-quarantine, or retire the
        worker for good at ``max_strikes``."""
        wid = run.worker_id
        worker = self.workers[wid]
        if worker.retired:
            return
        if run.execution.ok:
            self.board.reinstate(wid)
            self._reassess((wid,))
            self._release(wid)
            return
        self.board.observe_failure(wid, "probe")
        if self.board.tracker(wid).strikes >= self.board.policy.max_strikes:
            # Probing, so already out of ``serving``.
            self.board.retire_sick(wid)
            worker.retire()
            self._evaluate_scale()  # the pool may want a replacement
        else:
            wh = self.board.quarantine(wid, self.now)
            self._push(wh.cooldown_until_s, _EV_PROBE, wid)
            self._domain_strike(wid)

    def _kill_worker(self, worker_id: int) -> None:
        """A whole worker dies (injected correlated failure): retire it,
        fail its in-flight batches, and hand their requests back to the
        queue — the no-lost-requests invariant does not care whose fault
        the loss was."""
        if not 0 <= worker_id < len(self.workers):
            return
        worker = self.workers[worker_id]
        if worker.retired:
            return
        worker.retire()
        self._reassess((worker_id,))
        self.counters.workers_killed += 1
        self._hold(worker_id)
        if self.board is not None:
            self.board.observe_failure(worker_id, "kill")
            self.board.retire_sick(worker_id)
        self._record_isolation(worker_id)
        self._domain_strike(worker_id)
        detail = f"worker {worker_id} killed"
        for bid in self._running_on({worker_id}):
            batch = self._teardown(bid, self.now)[0]
            batch.trace.append((self.now, "killed", "worker died mid-batch"))
            self._surrender(batch, kind="worker_crash", detail=detail)
        self._evaluate_scale()

    # ------------------------------------------------------------------ #
    # Correlated domain faults: silent node loss, HCA rot, partitions
    # ------------------------------------------------------------------ #

    def _kill_node(self, node: int) -> None:
        """A node dies *silently*: no retire, no idle eviction — the
        scheduler keeps dispatching to its workers and only learns of
        the death through timed-out sends.  The resilience stack (worker
        strikes escalating to a domain quarantine) must infer the rest.

        Idempotent on the restored ``dead_nodes`` set so the refired
        event replays safely after a scheduler resume."""
        domains = self.domains
        if domains is None or node in domains.dead_nodes:
            return
        domains.dead_nodes.add(node)
        domains.nodes_killed += 1
        if self.store is not None and hasattr(self.store, "lose_domain"):
            # The checkpoint replica hosted on this node goes with it.
            self.store.lose_domain(node)
        for bid in self._running_on(self._members(node)):
            self._condemn(bid)

    def _condemn(self, batch_id: int) -> None:
        """A batch is in flight to (or running on) a dead node: its
        completion will never arrive.  Replace it with a timeout firing
        ``detect_s`` from now — the earliest instant the scheduler can
        notice anything is wrong.  Occupancy past the detection point is
        never spent; occupancy before it models the scheduler believing
        the worker is busy."""
        fail_at = self.now + self.cfg.domain_faults.detect_s
        entry = self._teardown(batch_id, fail_at)
        if entry is not None:
            self._push(fail_at, _EV_DONE, _DeadRun(entry[0]))

    def _dead_done(self, run: _DeadRun) -> None:
        """The send timeout fired: surface the condemned batch's failure
        exactly like a worker crash — requeue within budget, terminal
        fail past it — but *without* retiring the worker.  The slot
        rejoins the idle set and keeps attracting traffic until the
        breakers catch on: that detection lag is the cost the domain
        quarantine exists to bound."""
        batch = run.batch
        wid = batch.worker_id
        node = self.domains.node_of(wid)
        batch.trace.append(
            (
                self.now,
                "node_dead",
                f"send to worker {wid} timed out after "
                f"{self.cfg.domain_faults.detect_s * 1e6:.1f}us",
            )
        )
        self._surrender(
            batch,
            kind="node_lost",
            detail=f"node {node} unreachable",
            why=f"worker {wid} unreachable (node {node} lost)",
        )
        self._release(wid)
        if (
            self.board is not None
            and not self.workers[wid].retired
            and self.board.state(wid) == HEALTHY
        ):
            self.board.observe_failure(wid, "crash")
            if self.board.should_trip(wid):
                self._quarantine(wid)
                batch.trace.append(
                    (self.now, "quarantine", f"worker {wid} quarantined")
                )
        self._after_batch()

    def _hca_degrade(self, spec: HcaDegrade) -> None:
        """A node's HCA rots: every co-resident worker slows by the
        spec's factor (in-flight batches keep their schedule; only
        future executions pay).  Re-applies exactly once after resume
        because rebuilt workers carry base factors."""
        if spec.node in self.domains.hca_factor:
            return
        self.domains.hca_factor[spec.node] = spec.factor
        for wid in self._members(spec.node):
            worker = self.workers[wid]
            if not worker.retired:
                worker.straggler_factor *= spec.factor

    def _partition(self, spec: SwitchPartition) -> None:
        """A switch partitions a whole rack — loud, unlike a node kill:
        the scheduler sees the link drop, parks every rack worker, and
        requeues their in-flight work immediately.  The rack is not
        retired; the seeded heal returns it."""
        rack = spec.rack
        domains = self.domains
        if rack in domains.partitioned or rack in domains.healed_racks:
            return
        domains.partitioned.add(rack)
        domains.partitions_seen += 1
        member_ids = {
            wid
            for node in domains.topology.nodes_in_rack(rack)
            for wid in self._members(node)
        }
        self._reassess(member_ids)
        for wid in sorted(member_ids):
            self._hold(wid)
        detail = f"rack {rack} partitioned"
        for bid in self._running_on(member_ids):
            batch = self._teardown(bid, self.now)[0]
            batch.trace.append(
                (self.now, "partitioned", "switch uplink lost mid-batch")
            )
            self._surrender(batch, kind="partition", detail=detail)
        self._update_brownout()
        self._evaluate_scale()

    def _heal(self, rack: int) -> None:
        domains = self.domains
        if rack not in domains.partitioned:
            return
        domains.partitioned.discard(rack)
        domains.healed_racks.add(rack)
        domains.partition_heals += 1
        self._reidle_members(domains.topology.nodes_in_rack(rack))
        self._evaluate_scale()

    # ------------------------------------------------------------------ #
    # Domain quarantine: escalation, single probe, reinstate/retire
    # ------------------------------------------------------------------ #

    def _quarantine_domain(self, node: int) -> None:
        """k distinct workers on one node struck inside the window:
        stop debating worker by worker and park the whole domain — idle
        eviction and residency eviction for every member, one probe for
        the node instead of one per worker."""
        dh = self.domain_board.quarantine(node, self.now)
        members = self._members(node)
        self._reassess(members)
        for wid in members:
            worker = self.workers[wid]
            if worker.retired:
                continue
            self._hold(wid)
            worker.evict_residency()
            self._record_isolation(wid)
        self._push(dh.cooldown_until_s, _EV_DOMAIN_PROBE, node)

    def _start_domain_probe(self, node: int) -> None:
        """The domain cooldown expired: one probe for the whole node,
        on its lowest-id live member."""
        if (
            self.domain_board is None
            or self.domain_board.state(node) != QUARANTINED
        ):
            return
        members = [
            wid
            for wid in self._members(node)
            if not self.workers[wid].retired
        ]
        if not members:
            self.domain_board.retire_sick(node)
            return
        if not self.domains.reachable(node):
            # Unreachable domains cannot be probed; wait out the heal.
            self._push(
                self.now + max(self.domain_board.policy.cooldown_s, 1e-6),
                _EV_DOMAIN_PROBE,
                node,
            )
            return
        if self.probe_template is None:
            self.domain_board.reinstate(node)
            self._reidle_members((node,))
            return
        self.domain_board.start_probe(node)
        self._run_probe(
            self.workers[members[0]],
            # Below the per-worker probe id range, so traces never alias.
            -(len(self.workers) + node + 1),
            _DomainProbeRun(node),
        )

    def _domain_probe_done(self, run: _DomainProbeRun) -> None:
        """The domain probe's verdict: clean reinstates every eligible
        member at once; a strike re-quarantines, and ``max_strikes``
        retires the whole node for good."""
        node = run.node
        if self.domain_board is None:
            return
        dh = self.domain_board.tracker(node)
        if dh.state != PROBING:
            return
        if run.execution.ok:
            self.domain_board.reinstate(node)
            self._reidle_members((node,))
            return
        if dh.probe_strikes >= self.domain_board.policy.max_strikes:
            # The domain is probing, so its members are already out of
            # ``serving``.
            self.domain_board.retire_sick(node)
            for wid in self._members(node):
                worker = self.workers[wid]
                if not worker.retired:
                    worker.retire()
                    self._record_isolation(wid)
                self._hold(wid)
            self._evaluate_scale()  # the pool lost a whole node
        else:
            dh = self.domain_board.quarantine(node, self.now)
            self._push(dh.cooldown_until_s, _EV_DOMAIN_PROBE, node)

    # ------------------------------------------------------------------ #
    # A batch leaves its worker: launch, teardown, surrender
    # ------------------------------------------------------------------ #

    def _run_batch(self, batch: Batch) -> BatchExecution:
        """Run the batch on its worker, at the precision tier it was
        dispatched at (its requests' own mode unless brownout degraded
        it).  The worker takes the recipe from the head request alone,
        so only the head is rebuilt at the degraded mode."""
        requests = [r.request for r in batch.records]
        if batch.degraded_mode is not None:
            requests[0] = replace(requests[0], mode=batch.degraded_mode)
        return self.workers[batch.worker_id].execute(
            requests, grid=batch.grid, tune_cache=self.placement.tune_cache
        )

    def _launch(self, batch: Batch, execution: BatchExecution) -> None:
        """The dispatch tail: occupy the worker, schedule the
        completion — or the send timeout, when the worker's node is
        silently dead."""
        duration = execution.duration_s
        self.workers[batch.worker_id].busy_s += duration
        if batch.hedge_of is None:
            # A replica is no sample of the drain model, is judged
            # against no prediction and earns no replica of its own.
            self.predicted[batch.batch_id] = self.drain.batch_s
            self._arm_hedge(batch)
            self.drain.observe(duration)
        end = self.now + duration
        self.running[batch.batch_id] = (batch, execution, self.now, end)
        self._push(end, _EV_DONE, (batch, execution))
        if self._node_dead(batch.worker_id):
            self._condemn(batch.batch_id)

    def _running_on(self, worker_ids) -> list[int]:
        """Ids of the batches running on any of ``worker_ids``, oldest
        first (a snapshot: callers tear batches down while iterating)."""
        return sorted(
            bid
            for bid, (batch, _, _, _) in self.running.items()
            if batch.worker_id in worker_ids
        )

    def _teardown(
        self, batch_id: int, at: float
    ) -> tuple[Batch, BatchExecution, float, float] | None:
        """Take a running batch off its worker at model time ``at``
        (now, or the future instant it is abandoned): its completion
        event is void from here on, the occupancy it will not spend is
        credited back, and the batch is stamped.  Returns the running
        entry ``(batch, execution, start, end)``, or ``None`` when the
        batch is no longer running."""
        entry = self.running.pop(batch_id, None)
        if entry is None:
            return None
        batch, _, start, end = entry
        self.cancelled.add(batch_id)
        self.predicted.pop(batch_id, None)
        self.workers[batch.worker_id].busy_s -= max(end - at, 0.0)
        batch.completed_s = at
        batch.duration_s = at - start
        return entry

    def _surrender(
        self,
        batch: Batch,
        *,
        kind: str,
        detail: str,
        why: str = "",
        failed_rank: int = -1,
        exhausted: str = "{detail}; retries exhausted",
    ) -> None:
        """A batch was lost (rank crash, worker kill, node loss, rack
        partition): decide what becomes of its records.

        The one hedged-partner check and the one retry-budget decision.
        A partner copy still running keeps the records; otherwise each
        record re-queues while it has retry budget (``why``, else
        ``detail``, opens the note) or fails terminally as ``kind``
        (``exhausted`` is the note, formatted with ``detail`` and the
        record's ``attempts``).
        """
        batch.ok = False
        batch.detail = detail
        partner_id = self._partner_id(batch)
        if partner_id is not None and partner_id in self.running:
            # The other copy of the hedged pair is still running and
            # owns the shared records — no requeue, no terminal fail.
            batch.trace.append(
                (
                    self.now,
                    "hedge_survivor",
                    f"records stay with running batch {partner_id}",
                )
            )
            return
        max_retries = self.cfg.max_retries
        for rec in batch.records:
            if rec.attempts <= max_retries:
                rec.state = QUEUED
                self.queue.offer(rec, force=True)
                rec.note(
                    self.now,
                    "requeue",
                    f"{why or detail}; retry {rec.attempts}/{max_retries}",
                )
            else:
                self._fail(
                    rec,
                    kind,
                    detail,
                    exhausted.format(detail=detail, attempts=rec.attempts),
                    failed_rank,
                )

    def _fail(
        self,
        rec: RequestRecord,
        kind: str,
        detail: str,
        note: str,
        failed_rank: int = -1,
    ) -> None:
        """The terminal-failure transition: structured, never silent."""
        rec.state = FAILED
        rec.completed_s = self.now
        rec.failure = StructuredFailure(
            kind=kind,
            detail=detail,
            failed_rank=failed_rank,
            model_time=self.now,
            attempts=rec.attempts,
        )
        rec.note(self.now, "fail", note)
        self.completion_order.append(rec.request.req_id)

    def _after_batch(self) -> None:
        """Every batch boundary, in this order: the backlog it leaves
        sets the brownout level, the pool re-sizes against it, and the
        checkpoint cadence advances."""
        self._update_brownout()
        self._evaluate_scale()
        self.batches_since_commit += 1
        if self.batches_since_commit >= self.cfg.checkpoint_every:
            self._commit_checkpoint()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _best_preempted(self) -> _PreemptedRun | None:
        best = None
        for run in self.preempted:
            key = (run.priority, run.preempted_s, run.from_batch)
            if best is None or key < best[0]:
                best = (key, run)
        return best[1] if best is not None else None

    def _select_fresh(self) -> list[RequestRecord] | None:
        """The next dispatchable fresh batch.

        Without tenancy this is plain :func:`select_batch` over the
        scheduling order.  With tenants, each tenant's partition runs
        its own selection, and the weighted-fair scheduler arbitrates
        among the tenants whose ready batch sits in the most urgent
        tier — so no tenant starves another within a priority class,
        while a more urgent tier still always wins the worker.
        """
        ordered = self.queue.ordered()
        if self.tenants is None:
            return select_batch(ordered, self.now, self.cfg.policy)
        ready: dict[str | None, list[RequestRecord]] = {}
        for name, subset in partition_by_tenant(ordered, self.tenants).items():
            group = select_batch(subset, self.now, self.cfg.policy)
            if group is not None:
                ready[name] = group
        if not ready:
            return None
        best = min(g[0].request.priority for g in ready.values())
        tier = {
            name: g
            for name, g in ready.items()
            if g[0].request.priority == best
        }
        names = [name for name in tier if name is not None]
        if not names:
            return tier[None]  # only untenanted work in the head tier
        return tier[self.tenants.wfq.pick(names)]

    def _dispatch(self) -> None:
        while self.idle and (len(self.queue) or self.preempted):
            selected = self._select_fresh()
            resume = self._best_preempted()
            if selected is not None and (
                resume is None
                or selected[0].request.priority < resume.priority
            ):
                self._dispatch_fresh(selected)
            elif resume is not None:
                self._dispatch_resume(resume)
            else:
                return

    def _dispatch_fresh(self, selected: list[RequestRecord]) -> None:
        cfg = self.cfg
        self.queue.remove(selected)
        try:
            decision = self.placement.place(
                selected,
                self.idle,
                node_of=(
                    self.domains.node_of if self.domains is not None else None
                ),
                anti_affinity=cfg.anti_affinity,
            )
        except ValueError as exc:
            # No decomposition fits the pool: the request can never run
            # here, so it fails terminally (structured, not silently).
            for rec in selected:
                self._fail(rec, "infeasible_volume", str(exc), f"placement: {exc}")
            return
        if self.domain_board is not None:
            node = self.domains.node_of(decision.worker_id)
            if not self.domain_board.is_serving(node):
                # Structural invariant (the idle set never holds a
                # worker in a quarantined domain); a trip here is a
                # scheduler bug.
                raise ServiceInvariantError(
                    f"batch dispatched to worker {decision.worker_id} in "
                    f"quarantined domain {node}"
                )
        self.idle.remove(decision.worker_id)
        worker = self.workers[decision.worker_id]
        degraded = None
        if (
            self.brownout is not None
            and self.brownout.level >= BROWNOUT_DEGRADE
        ):
            # One step down the precision ladder before failing anyone:
            # the whole batch shares a mode (it is in the compat key).
            degraded = DEGRADE_MODE.get(selected[0].request.mode)
        batch = Batch(
            batch_id=self._next_batch_id(),
            records=selected,
            key=selected[0].request.compat_key,
            formed_s=self.now,
            worker_id=worker.worker_id,
            grid=decision.grid,
            degraded_mode=degraded,
        )
        self.batches.append(batch)
        self.probe_template = selected[0].request
        if (
            self.tenants is not None
            and selected[0].request.tenant in self.tenants
        ):
            # One batch = one tenant (select_batch partitions by tenant),
            # so the fairness clock advances by exactly this dispatch's
            # size over the tenant's weight.
            self.tenants.wfq.charge(
                selected[0].request.tenant, float(len(selected))
            )
        for rec in selected:
            rec.state = RUNNING
            rec.attempts += 1
            if rec.dispatched_s is None:
                rec.dispatched_s = self.now
            rec.batch_ids.append(batch.batch_id)
            rec.grid = decision.grid
            if degraded is not None:
                rec.degraded = True
                rec.note(
                    self.now,
                    "degrade",
                    f"brownout: serving at {degraded} instead of "
                    f"{rec.request.mode}",
                )
            rec.note(
                self.now,
                "dispatch",
                f"batch {batch.batch_id} (size {batch.size}) "
                f"on worker {worker.worker_id} "
                f"({self._grid_label(decision.grid)}"
                + (", gauge-resident" if decision.predicted_hit else "")
                + f"), attempt {rec.attempts}",
            )
        batch.trace.append(
            (
                self.now,
                "dispatch",
                f"worker {worker.worker_id}, "
                f"{self._grid_label(decision.grid)}"
                + (", gauge-resident" if decision.predicted_hit else "")
                + (f", degraded to {degraded}" if degraded is not None else ""),
            )
        )
        self._launch(batch, self._run_batch(batch))

    def _dispatch_resume(self, run: _PreemptedRun) -> None:
        """Resume a preempted batch from its refresh-point checkpoint:
        remaining work plus the modeled reload overhead, outcomes
        replayed from the original execution."""
        self.preempted.remove(run)
        worker_id, hit = self.placement.router.route(
            run.residency_key, self.idle
        )
        self.idle.remove(worker_id)
        batch = Batch(
            batch_id=self._next_batch_id(),
            records=run.records,
            key=run.key,
            formed_s=self.now,
            worker_id=worker_id,
            grid=run.grid,
            resumed_from=run.from_batch,
        )
        self.batches.append(batch)
        for rec in run.records:
            rec.state = RUNNING
            rec.batch_ids.append(batch.batch_id)
            rec.note(
                self.now,
                "resume",
                f"batch {batch.batch_id} resumes batch {run.from_batch} "
                f"on worker {worker_id} from checkpoint "
                f"({run.remaining_s * 1e6:.1f}us remaining)",
            )
        batch.trace.append(
            (
                self.now,
                "resume",
                f"worker {worker_id}, from batch {run.from_batch}",
            )
        )
        self.workers[worker_id].resident_key = run.residency_key
        self.counters.resumed_batches += 1
        self._launch(
            batch,
            replace(
                run.execution,
                duration_s=(
                    run.remaining_s + self.cfg.preemption.resume_overhead_s
                ),
                residency_hit=hit,
                gauge_saved_s=0.0,
            ),
        )

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #

    def _done(self, payload) -> None:
        """``_EV_DONE`` carries a batch completion or one of the
        out-of-band runs; the payload's type says which."""
        self._DONE_HANDLERS[type(payload)](self, payload)

    def _batch_done(self, payload: tuple[Batch, BatchExecution]) -> None:
        batch, execution = payload
        if batch.batch_id not in self.cancelled:
            self._complete(batch, execution)

    def _complete(self, batch: Batch, execution: BatchExecution) -> None:
        self.running.pop(batch.batch_id, None)
        predicted = self.predicted.pop(batch.batch_id, 0.0)
        worker = self.workers[batch.worker_id]
        self._release(batch.worker_id)
        batch.completed_s = self.now
        batch.duration_s = execution.duration_s
        batch.ok = execution.ok
        batch.recoveries = execution.recoveries
        batch.residency_hit = execution.residency_hit
        self.placement.observe(execution)
        self.makespan = max(self.makespan, self.now)
        if execution.ok:
            batch.trace.append((self.now, "complete", ""))
            for rec, outcome in zip(batch.records, execution.outcomes):
                rec.state = COMPLETED
                rec.completed_s = self.now
                rec.iterations = outcome["iterations"]
                rec.converged = outcome["converged"]
                rec.residual_norm = outcome["residual_norm"]
                rec.recoveries = outcome["recoveries"]
                rec.note(
                    self.now,
                    "complete",
                    f"{outcome['iterations']} iterations"
                    + (
                        f", {outcome['recoveries']} recover(ies)"
                        if outcome["recoveries"]
                        else ""
                    ),
                )
                self.completion_order.append(rec.request.req_id)
            if self._partner_id(batch) is not None:
                self._resolve_hedge(batch)
        else:
            failure = execution.failure
            batch.trace.append((self.now, "worker_failure", str(failure)))
            self._surrender(
                batch,
                kind="worker_crash",
                detail=str(failure),
                why=(
                    f"worker {batch.worker_id} failed "
                    f"(rank {failure.rank} {failure.mode})"
                ),
                failed_rank=failure.rank,
                exhausted="retries exhausted after {attempts} attempts: {detail}",
            )
        if (
            self.board is not None
            and not worker.retired
            and self.board.state(batch.worker_id) == HEALTHY
        ):
            if execution.ok:
                slow = self.board.observe_success(
                    batch.worker_id, execution.duration_s, predicted
                )
                if slow:
                    batch.trace.append(
                        (
                            self.now,
                            "slow",
                            f"{execution.duration_s * 1e6:.1f}us vs model "
                            f"{predicted * 1e6:.1f}us",
                        )
                    )
            else:
                self.board.observe_failure(
                    batch.worker_id,
                    execution.failure.mode
                    if execution.failure is not None
                    else "crash",
                )
            if self.board.should_trip(batch.worker_id):
                self._quarantine(batch.worker_id)
                batch.trace.append(
                    (
                        self.now,
                        "quarantine",
                        f"worker {batch.worker_id} quarantined (failure "
                        f"rate "
                        f"{self.board.tracker(batch.worker_id).failure_rate:.2f})",
                    )
                )
        self._after_batch()

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    #: ``_EV_DONE`` payload type -> handler.
    _DONE_HANDLERS = {
        tuple: _batch_done,
        _ProbeRun: _probe_done,
        _DomainProbeRun: _domain_probe_done,
        _DeadRun: _dead_done,
    }

    #: Event kind -> handler, called with the event's payload.  Only
    #: the arrival handler returns something: the record that may
    #: warrant a preemption probe after the dispatch pass.
    _HANDLERS = {
        _EV_DONE: _done,
        _EV_PREEMPT: _do_preempt,
        _EV_WORKER_UP: _worker_up,
        _EV_ARRIVAL: _arrive,
        _EV_TIMEOUT: _on_timeout,
        _EV_HEDGE: _maybe_hedge,
        _EV_HEDGE_CANCEL: _release,
        _EV_KILL: _kill_worker,
        _EV_PROBE: _start_probe,
        _EV_NODE_KILL: _kill_node,
        _EV_HCA_DEGRADE: _hca_degrade,
        _EV_PARTITION: _partition,
        _EV_HEAL: _heal,
        _EV_DOMAIN_PROBE: _start_domain_probe,
    }

    def run(self) -> ServiceResult:
        if self.cfg.worker_faults is not None:
            for kill in self.cfg.worker_faults.kills:
                self._push(max(kill.at_s, self.now), _EV_KILL, kill.worker_id)
        if self.cfg.domain_faults is not None:
            df = self.cfg.domain_faults
            for nk in df.node_kills:
                self._push(max(nk.at_s, self.now), _EV_NODE_KILL, nk.node)
            for hd in df.hca_degrades:
                self._push(max(hd.at_s, self.now), _EV_HCA_DEGRADE, hd)
            for sp in df.partitions:
                self._push(max(sp.at_s, self.now), _EV_PARTITION, sp)
                # The heal is seeded at schedule time (an absolute model
                # time), so a resumed run heals at the same instant.
                self._push(max(df.heal_time(sp), self.now), _EV_HEAL, sp.rack)
        self._push_next_arrival()
        self._dispatch()  # restored queue contents may already be ready
        while self.events:
            t, kind, _, payload = heapq.heappop(self.events)
            if self.crash_at_s is not None and t >= self.crash_at_s:
                raise SchedulerCrash(
                    self.crash_at_s,
                    self.store
                    if self.store is not None
                    else CampaignCheckpointStore(),
                )
            self.now = t
            probe = self._HANDLERS[kind](self, payload)
            self._dispatch()
            if probe is not None and probe.state == QUEUED:
                self._maybe_preempt(probe)

        stuck = [rec for rec in self.records if not rec.terminal]
        if stuck:
            raise ServiceInvariantError(
                f"{len(stuck)} request(s) left non-terminal: "
                f"{[r.request.req_id for r in stuck]}"
            )

        report = ServiceReport.collect(
            self.records,
            self.batches,
            self.cfg.policy,
            worker_busy_s=[w.busy_s for w in self.workers],
            makespan_s=self.makespan,
            placement=self.placement.summary(),
            daemon=self._daemon_summary(),
        )
        return ServiceResult(
            report=report,
            records=self.records,
            batches=self.batches,
            completion_order=self.completion_order,
            workers=self.workers,
        )

    def _daemon_summary(self) -> dict:
        """The report's daemon block: the kernel's own counters, then
        whatever each part has to say (two parts may fill one nested
        block of the report, so those merge one level deep)."""
        out = {
            "final_workers": self._active_workers(),
            "checkpoints_committed": self.checkpoints_committed,
            "checkpoint_restores": 1 if self.restored else 0,
            "restored_requests": self.restored_requests,
            "mirror_restores": int(getattr(self.store, "mirror_restores", 0)),
        }
        for part in self.parts.values():
            for key, value in part.summary().items():
                if isinstance(value, dict):
                    out.setdefault(key, {}).update(value)
                else:
                    out[key] = value
        return out
