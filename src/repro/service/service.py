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
adds the behaviours a service that "never stops" needs:

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

2. **Optional features as parts** — preemption
   (:mod:`repro.service.preemption`), elastic workers
   (:mod:`repro.service.elastic`), tenancy
   (:mod:`repro.service.tenancy`), and the resilience layer of
   :mod:`repro.service.health` (circuit breaker, hedging, brownout,
   worker and failure-domain faults).  The scheduler kernel names none
   of them: each is built from the config and registers its own event
   kinds and hooks (``_features``; DESIGN.md, "Daemon lifecycle").

The event loop orders (time, kind, sequence) totally, every duration is
model time, and every decision — including preemption points, scale
events, breaker transitions, hedge launches and checkpoint commits — is
a pure function of the workload and the seed, so daemon campaigns
replay byte-identically.  A feature the config leaves off is never
built, so it pushes no event and legacy schedules are unchanged.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Iterable, Iterator

from ..comms.cluster import ClusterSpec, Topology
from ..comms.faults import DomainFaultPlan, FaultPlan, WorkerFaultPlan
from ..core import RetryPolicy
from ..gpu.specs import GTX285, GPUSpec
from .batching import Batch, BatchPolicy, select_batch
from .campaign import (
    CampaignCheckpoint,
    CampaignCheckpointStore,
    CampaignDelta,
    SchedulerCrash,
)
from .elastic import ArrivalRateEstimator, ElasticPolicy, PoolController
from .health import (
    BrownoutController,
    BrownoutPolicy,
    DomainState,
    HealthBoard,
    HealthPolicy,
    HedgeLedger,
    HedgePolicy,
    WorkerKills,
)
from .metrics import ServiceReport
from .placement import PlacementEngine, PlacementPolicy, SharedTuneCache
from .preemption import Preemption, PreemptionPolicy
from .queueing import AdmissionQueue, DrainEstimator
from .tenancy import TenancyPolicy, TenantRegistry
from .request import (
    COMPLETED,
    FAILED,
    QUEUED,
    REJECTED,
    RUNNING,
    RequestRecord,
    SolveRequest,
    StructuredFailure,
    flag_field,
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

# The kernel's event kinds, in same-time processing order: completions
# free workers first; arrivals are admitted next; timeouts merely
# re-trigger dispatch.  The features' kinds (preemption 1, worker-up 2,
# the resilience kinds 5–13) interleave by number.
_EV_DONE = 0
_EV_ARRIVAL = 3
_EV_TIMEOUT = 4


class ServiceInvariantError(RuntimeError):
    """A request left the event loop in a non-terminal state — the
    service lost work, which must never pass silently."""


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that shapes a campaign's schedule.

    Each default here is the only copy.  A field, or a policy's field,
    that one ``repro serve`` flag sets declares that flag
    (:func:`~repro.service.request.flag_field`); left out, the default
    holds.  A feature
    with a policy is off until the policy says ``enabled=True`` — the
    default policy is the off one.  What no caller varies is a constant
    of the module that uses it, not a field: workers always overlap
    communication (``QudaInvertParam.overlap_comms``), and their
    checksums arm exactly when the fault plan injects corruption.
    """

    queue_capacity: int = flag_field(
        64, "--queue-capacity", "admission queue bound (beyond it: reject with retry-after)")
    policy: BatchPolicy = dataclass_field(default_factory=BatchPolicy)
    n_workers: int = flag_field(2, "--workers", "worker pool size (each an n-rank SimMPI cluster)")
    ranks_per_worker: int = flag_field(2, "--ranks", "GPUs (ranks) per worker")
    max_retries: int = flag_field(1, "--max-retries", "re-dispatches after a worker failure "
                                  "before a request fails terminally")
    functional: bool = flag_field(False, "--functional", "real numerics on weak-field "
                                  "configurations instead of the timing-only schedule")
    fixed_iterations: int = flag_field(
        15, "--iterations", "solver iterations per request (timing-only mode)")
    #: Fault template: worker ``w`` in ``chaos_workers`` runs under
    #: ``fault_plan.reseeded(w)`` — independent schedules, one seed.
    fault_plan: FaultPlan | None = None
    chaos_workers: tuple[int, ...] = ()
    #: Worker-side self-healing (checkpoint resume over survivors);
    #: ``None`` leaves recovery to service-level re-dispatch.
    retry_policy: RetryPolicy | None = None
    #: Derives an elastic worker's straggler factor from its node
    #: (``WorkerFaultPlan.reseeded``); scheduling itself draws nothing.
    seed: int = 0
    #: The placement layer's knobs: grid selection, residency routing.
    placement: PlacementPolicy = dataclass_field(default_factory=PlacementPolicy)
    #: Refresh-boundary preemption of LOW batches by HIGH arrivals.
    preemption: PreemptionPolicy = dataclass_field(default_factory=PreemptionPolicy)
    #: Autoscaling of the worker pool.
    elastic: ElasticPolicy = dataclass_field(default_factory=ElasticPolicy)
    #: Campaign-checkpoint cadence, in batch completions per commit.
    checkpoint_every: int = 1
    #: Circuit breaker per worker.
    health: HealthPolicy = dataclass_field(default_factory=HealthPolicy)
    #: Straggler hedging.
    hedge: HedgePolicy = dataclass_field(default_factory=HedgePolicy)
    #: Graceful brownout under overload.
    brownout: BrownoutPolicy = dataclass_field(default_factory=BrownoutPolicy)
    #: Whole-worker fault injection: scheduled kills and per-worker
    #: straggler slowdowns (the failure modes the resilience layer is
    #: exercised against).
    worker_faults: WorkerFaultPlan | None = None
    #: Physical failure-domain hierarchy (worker -> node -> rack).
    #: ``None`` = flat pool; domain faults require it.
    topology: Topology | None = None
    #: Correlated fault injection at domain granularity: silent node
    #: loss, HCA degradation, switch partitions.
    domain_faults: DomainFaultPlan | None = None
    #: Multi-tenant capacity control: per-tenant token-bucket quotas and
    #: weighted-fair dispatch.  A tenant-less policy keeps the whole
    #: subsystem inert — tenancy-free schedules byte-identical.
    tenancy: TenancyPolicy = dataclass_field(default_factory=TenancyPolicy)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
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
        if self.elastic.enabled and not (
            self.elastic.min_workers <= self.n_workers <= self.elastic.max_workers
        ):
            raise ValueError(
                f"n_workers={self.n_workers} outside the elastic range "
                f"[{self.elastic.min_workers}, {self.elastic.max_workers}]"
            )
        if self.worker_faults is not None and not self.elastic.enabled:
            # Elastic ids past the boot pool name workers a scale-up may
            # yet add; a fixed pool has no such worker.
            kills = [k.worker_id for k in self.worker_faults.kills]
            _within("worker kill", "worker", kills, self.n_workers, "fixed pool")
        if self.topology is not None:
            if self.n_workers > self.topology.n_workers:
                raise ValueError(
                    f"n_workers={self.n_workers} exceeds the topology's "
                    f"{self.topology.n_workers} worker slot(s)"
                )
            df = self.domain_faults or DomainFaultPlan()
            nodes = [spec.node for spec in (*df.node_kills, *df.hca_degrades)]
            racks = [spec.rack for spec in df.partitions]
            _within("domain fault", "node", nodes, self.topology.n_nodes, "topology")
            _within("partition", "rack", racks, self.topology.n_racks, "topology")
        elif self.domain_faults is not None:
            raise ValueError("domain_faults requires a topology")


def _within(fault: str, unit: str, targets, count: int, where: str) -> None:
    for target in targets:
        if target >= count:
            raise ValueError(
                f"{fault} targets {unit} {target}, but the {where} has "
                f"{count} {unit}(s)"
            )


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
class _Counters:
    """Counters the kernel keeps for two features — preemption and
    whole-worker kills — as one checkpoint part.

    ``resumed_batches`` is reported but not carried across a scheduler
    crash: the carried set is frozen by the ledger's pinned
    ``serve-durable`` report, so a resumed campaign under-reports it.
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

    def summary(self, cols, horizon_s) -> dict:
        return {**self.to_json(), "resumed_batches": self.resumed_batches}


#: The optional features in registration order, which is the order
#: their hooks run in (DESIGN.md, "Daemon lifecycle"): the
#: ``ServiceConfig`` field that configures each, the part's class, and
#: the checkpoint part name it keeps (``None`` = no state of its own).
FEATURES = (
    ("tenancy", TenantRegistry, "tenancy"),
    ("brownout", BrownoutController, "brownout"),
    ("elastic", PoolController, "elastic"),
    ("preemption", Preemption, None),
    ("hedge", HedgeLedger, "hedge"),
    ("health", HealthBoard, "health"),
    ("worker_faults", WorkerKills, None),
    ("topology", DomainState, "domains"),
)


def _features(cfg: ServiceConfig) -> tuple:
    """Each row of :data:`FEATURES` as (part name, class, the arguments
    that build the part) — the arguments something false when the
    config leaves the feature off, and the report asks the class for its
    off block instead.  A policy is on when ``enabled``; the two fault
    rows when their plan or topology is given."""
    rows = []
    for field, kind, name in FEATURES:
        value = getattr(cfg, field)
        if field == "worker_faults":
            args = value is not None and bool(value.kills) and (value.kills,)
        elif field == "topology":
            args = value is not None and (value, cfg.n_workers)
        else:
            args = value.enabled and (value,)
        rows.append((name, kind, args))
    return tuple(rows)


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
            functional=cfg.functional,
            fixed_iterations=cfg.fixed_iterations,
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

    This is the *kernel* — the heap, the clock, the queue, dispatch, the
    pool view and the no-lost-requests invariant — plus the verbs the
    parts go through instead of reaching into ``running`` /
    ``cancelled`` / ``predicted`` / ``idle``: who may take traffic
    (:meth:`_eligible`, the kept view :meth:`_reassess` maintains,
    :meth:`_release`, :meth:`_hold`, :meth:`_reidle`), the dispatch tail
    (:meth:`_form`, :meth:`_launch`), a batch leaving its worker early
    (:meth:`_teardown`, :meth:`_surrender`), :meth:`_refuse`,
    :meth:`_deliver`, :meth:`_strike`, :meth:`_finished` and
    :meth:`_after_batch`.

    It names no feature: each part ``_features`` builds registers its
    event kinds, ``_EV_DONE`` run types and hooks in
    ``install(campaign)``.  Every stateful part sits in ``parts`` behind
    ``to_json()``, ``restore(data)`` and ``summary(cols, horizon_s)``, so
    checkpoint commit, restore and the report's daemon block are loops
    over ``parts``; a feature left off is its class in ``off``.
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
        self.cfg = cfg = service.config
        self.workers = service.workers
        self.placement = service.placement
        self.arrivals = arrivals
        self.store = store
        self.crash_at_s = crash_at_s

        self.queue = AdmissionQueue(cfg.queue_capacity)
        self.records: list[RequestRecord] = []
        self.batches: list[Batch] = []
        self.completion_order: list[int] = []
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
        #: Workers added to the pool that do not take traffic yet.
        self.pending_up: set[int] = set()
        #: Drain-model estimate taken at each batch's dispatch — the
        #: baseline hedging and the slow-completion signal compare to.
        self.predicted: dict[int, float] = {}
        #: Head request of the most recent fresh dispatch: representative
        #: work (a breaker probes with it).
        self.template: SolveRequest | None = None
        #: Batches parked off their worker, awaiting ``resume``.
        self.parked: list = []
        #: One-shot calls after the current event's dispatch pass.
        self.after_dispatch: list = []

        self.drain = DrainEstimator()
        self.arrival_est = ArrivalRateEstimator()
        self.counters = _Counters()

        # What the parts register (DESIGN.md, "Daemon lifecycle"):
        # handlers by event kind and by ``_EV_DONE`` payload type; hook
        # lists, run in registration order; the holders, parts with
        # ``is_serving(worker_id)`` and ``n_quarantined()``; and
        # single-slot hooks with what holds when no part fills them.
        self.handlers = {
            _EV_DONE: self._done,
            _EV_ARRIVAL: self._arrive,
            # A batching window expired: the event only exists to reach
            # the dispatch pass that follows every event.
            _EV_TIMEOUT: lambda payload: None,
        }
        self.done_handlers = {tuple: self._batch_done}
        self.gates: list = []  # before the queue: rec -> refused?
        self.on_admit: list = []  # rec queued
        self.on_dispatch: list = []  # fresh batch formed
        self.on_launch: list = []  # batch occupies its worker
        self.on_complete: list = []  # batch back (execution None: lost)
        self.after_batch: list = []  # every batch boundary
        self.on_kill: list = []  # a worker killed
        self.on_strike: list = []  # a worker-level fault
        self.on_start: list = []  # before the first event
        self.holders: list = []
        self.select = self._select_fresh
        self.resume = None  # asked only while a batch is parked
        self.rescale = lambda: None
        self.make_worker = service._make_worker
        self.send_timeout = lambda worker_id: None  # None: the send arrives

        self.parts: dict[str, object] = {
            "drain": self.drain,
            "arrival_rate": self.arrival_est,
            "tunecache": self.placement.tune_cache,
            "counters": self.counters,
        }
        #: The classes of the features the config leaves off.
        self.off: list[type] = []
        for name, kind, args in _features(cfg):
            if not args:
                self.off.append(kind)
                continue
            part = kind(*args)
            if name is not None:
                self.parts[name] = part
            part.install(self)

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
        """Rebuild campaign state from the last verified commit (the
        breaker re-arms its probes when the run starts)."""
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
                self.workers.append(self.make_worker(len(self.workers)))
            self.workers[wd["worker_id"]].restore_state(wd)

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

    def _deliver(self, time_s: float, run) -> None:
        """An out-of-band run (a probe, a send timing out) completes at
        ``time_s``; the handler its part registered for its type runs."""
        self._push(time_s, _EV_DONE, run)

    def _push_next_arrival(self) -> None:
        req = next(self.arrivals, None)
        if req is not None:
            self._push(req.arrival_s, _EV_ARRIVAL, req)

    def _form(self, records, worker_id: int, grid, **links) -> Batch:
        """A new batch of ``records`` on ``worker_id``, taken off the
        idle set; ``links`` tie it to the batch it resumes or hedges."""
        self.idle.remove(worker_id)
        batch = Batch(
            batch_id=self.batch_seq,
            records=records,
            key=records[0].request.compat_key,
            formed_s=self.now,
            worker_id=worker_id,
            grid=grid,
            **links,
        )
        self.batch_seq += 1
        self.batches.append(batch)
        return batch

    # ------------------------------------------------------------------ #
    # Who may take traffic
    # ------------------------------------------------------------------ #

    def _eligible(self, worker_id: int) -> bool:
        """The one predicate: may this worker take traffic?  Not
        retired, and no holder holds it.  Readers take the kept answer,
        ``serving``; only :meth:`_reassess` (and the constructor) ask
        this."""
        if self.workers[worker_id].retired:
            return False
        for holder in self.holders:
            if not holder.is_serving(worker_id):
                return False
        return True

    def _reassess(self, worker_ids) -> None:
        """Re-derive ``serving`` for ``worker_ids`` after a transition
        that can change :meth:`_eligible` for them: a retire, a
        scale-up, a hold placed or lifted."""
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

    def _reidle(self, worker_ids) -> None:
        """A hold lifted: re-derive who among ``worker_ids`` may serve,
        and return every one with nothing running or booting to the
        idle set."""
        busy = {b.worker_id for b, _, _, _ in self.running.values()}
        self._reassess(worker_ids)
        for wid in worker_ids:
            if wid not in busy and wid not in self.pending_up:
                self._release(wid)

    def _strike(self, worker_id: int) -> None:
        """A worker-level fault (a quarantine, a kill) struck."""
        for hook in self.on_strike:
            hook(worker_id)

    def _serving_workers(self) -> int:
        """Workers taking traffic.  Retry-after hints divide the backlog
        by this count — against the full pool, a hold parking most of it
        would tell shed clients to come back far too soon."""
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
    # Admission
    # ------------------------------------------------------------------ #

    def _arrive(self, req: SolveRequest) -> None:
        """Process one arrival — the gates, the queue bound, then the
        hooks of a queued record — and pull the next one."""
        cfg = self.cfg
        self.arrivals_consumed += 1
        rec = RequestRecord(request=req)
        self.records.append(rec)
        rec.note(self.now, "arrive", f"priority {req.priority}")
        self.arrival_est.observe(self.now)
        if not any(gate(rec) for gate in self.gates):
            if self.queue.offer(rec):
                rec.admitted_s = self.now
                rec.note(self.now, "admit", f"depth {len(self.queue)}")
                self._push(self.now + cfg.policy.max_wait_s, _EV_TIMEOUT, None)
                for hook in self.on_admit:
                    hook(rec)
            else:
                self._refuse(rec, "reject", f"queue full ({cfg.queue_capacity})")
        self._push_next_arrival()

    # ------------------------------------------------------------------ #
    # A batch leaves its worker: launch, teardown, surrender
    # ------------------------------------------------------------------ #

    def _run_batch(self, batch: Batch) -> BatchExecution:
        """Run the batch on its worker, at the precision tier it was
        dispatched at (its requests' own mode unless it was degraded).
        The worker takes the recipe from the head request alone, so
        only the head is rebuilt at the degraded mode."""
        requests = [r.request for r in batch.records]
        if batch.degraded_mode is not None:
            requests[0] = replace(requests[0], mode=batch.degraded_mode)
        return self.workers[batch.worker_id].execute(
            requests, grid=batch.grid, tune_cache=self.placement.tune_cache
        )

    def _launch(self, batch: Batch, execution: BatchExecution) -> None:
        """The dispatch tail: occupy the worker, schedule the
        completion, run the launch hooks."""
        duration = execution.duration_s
        self.workers[batch.worker_id].busy_s += duration
        # A replica is no sample of the drain model, is judged against
        # no prediction and earns no replica of its own.
        primary = batch.hedge_of is None
        if primary:
            self.predicted[batch.batch_id] = self.drain.batch_s
        end = self.now + duration
        self.running[batch.batch_id] = (batch, execution, self.now, end)
        self._push(end, _EV_DONE, (batch, execution))
        for hook in self.on_launch:
            hook(batch)
        if primary:
            # After the hooks: a hedge check arms against the samples the
            # prediction was made from.
            self.drain.observe(duration)

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
        partner_id = batch.partner_id
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

    def _finished(
        self, batch: Batch, execution: BatchExecution | None, predicted: float = 0.0
    ) -> None:
        """A batch is back — ``execution`` is its outcome, or ``None``
        when it was lost in flight: the completion hooks, then the batch
        boundary."""
        for hook in self.on_complete:
            hook(batch, execution, predicted)
        self._after_batch()

    def _rebalance(self) -> None:
        """The backlog or the pool changed: the after-batch hooks."""
        for hook in self.after_batch:
            hook()

    def _after_batch(self) -> None:
        """Every batch boundary, in this order: the after-batch hooks
        (the brownout level, then the pool size), then the checkpoint
        cadence."""
        self._rebalance()
        self.batches_since_commit += 1
        if self.batches_since_commit >= self.cfg.checkpoint_every:
            self._commit_checkpoint()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _select_fresh(self) -> list[RequestRecord] | None:
        """The next dispatchable fresh batch: :func:`select_batch` over
        the scheduling order."""
        return select_batch(self.queue.ordered(), self.now, self.cfg.policy)

    def _dispatch(self) -> None:
        while self.idle and (len(self.queue) or self.parked):
            selected = self.select()
            if self.parked and self.resume(selected):
                continue
            if selected is None:
                return
            self._dispatch_fresh(selected)

    def _dispatch_fresh(self, selected: list[RequestRecord]) -> None:
        self.queue.remove(selected)
        try:
            decision = self.placement.place(selected, self.idle)
        except ValueError as exc:
            # No decomposition fits the pool: the request can never run
            # here, so it fails terminally (structured, not silently).
            for rec in selected:
                self._fail(rec, "infeasible_volume", str(exc), f"placement: {exc}")
            return
        if decision.worker_id not in self.serving:
            # Structural invariant (the idle set only holds workers that
            # may take traffic); a trip here is a scheduler bug.
            raise ServiceInvariantError(
                f"batch dispatched to worker {decision.worker_id}, "
                "which may not take traffic"
            )
        wid, grid = decision.worker_id, decision.grid
        batch = self._form(selected, wid, grid)
        self.template = selected[0].request
        for hook in self.on_dispatch:
            hook(batch)
        where = ("time-sliced" if grid is None else f"grid {grid[0]}x{grid[1]}") + (
            ", gauge-resident" if decision.predicted_hit else ""
        )
        for rec in selected:
            rec.state = RUNNING
            rec.attempts += 1
            if rec.dispatched_s is None:
                rec.dispatched_s = self.now
            rec.batch_ids.append(batch.batch_id)
            rec.grid = grid
            rec.note(
                self.now,
                "dispatch",
                f"batch {batch.batch_id} (size {batch.size}) on worker {wid} "
                f"({where}), attempt {rec.attempts}",
            )
        degraded = batch.degraded_mode
        if degraded is not None:
            where += f", degraded to {degraded}"
        batch.trace.append((self.now, "dispatch", f"worker {wid}, {where}"))
        self._launch(batch, self._run_batch(batch))

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #

    def _done(self, payload) -> None:
        """``_EV_DONE`` carries a batch completion or one of the parts'
        out-of-band runs; the payload's type says which."""
        self.done_handlers[type(payload)](payload)

    def _batch_done(self, payload: tuple[Batch, BatchExecution]) -> None:
        batch, execution = payload
        if batch.batch_id not in self.cancelled:
            self._complete(batch, execution)

    def _complete(self, batch: Batch, execution: BatchExecution) -> None:
        self.running.pop(batch.batch_id, None)
        predicted = self.predicted.pop(batch.batch_id, 0.0)
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
        self._finished(batch, execution, predicted)

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    def run(self) -> ServiceResult:
        try:
            for hook in self.on_start:
                hook()
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
                self.handlers[kind](payload)
                self._dispatch()
                if self.after_dispatch:
                    for call in self.after_dispatch:
                        call()
                    self.after_dispatch.clear()

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
                parts=self.parts.values(),
                off=self.off,
                final_workers=sum(1 for w in self.workers if not w.retired),
                checkpoints_committed=self.checkpoints_committed,
                checkpoint_restores=1 if self.restored else 0,
                restored_requests=self.restored_requests,
            )
            return ServiceResult(
                report=report,
                records=self.records,
                batches=self.batches,
                completion_order=self.completion_order,
                workers=self.workers,
            )
        finally:
            # The parts hold the campaign and it holds them (and bound
            # methods of itself): empty it, so a finished or crashed run
            # is freed now, not when the cycle collector next walks it.
            self.__dict__.clear()
