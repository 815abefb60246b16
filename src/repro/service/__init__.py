"""Solve service: a queued, batched, SLO-aware campaign scheduler.

The paper's production workload is not one solve but a *campaign*: "The
calculations involve 32768 calls to the solver for each configuration"
(Section VIII), running for days on a shared cluster ("Scaling Lattice
QCD beyond 100 GPUs", arXiv:1109.2935).  This package serves that
workload the way an inference-serving stack serves model traffic:

* :class:`~repro.service.request.SolveRequest` — one solver call (gauge
  config id, source, precision recipe, priority, deadline);
* :class:`~repro.service.queueing.AdmissionQueue` — bounded admission
  with priority/deadline ordering and reject-with-retry-after
  backpressure;
* :class:`~repro.service.batching.BatchPolicy` — groups compatible
  requests into multi-RHS batches (max size + max wait window),
  amortizing the device setup the way
  :func:`repro.core.invert_multi` does;
* :mod:`repro.service.placement` — the topology/residency layer: a
  :class:`~repro.service.placement.GridSelector` scoring per-request
  process grids with the calibrated perf model, a
  :class:`~repro.service.placement.ResidencyRouter` steering batches to
  gauge-resident workers, and a persistent
  :class:`~repro.service.placement.SharedTuneCache` amortizing the
  Section V-E autotune sweep across batches and campaigns;
* :class:`~repro.service.workers.SimWorker` — a simulated multi-GPU
  worker (an n-rank SimMPI cluster per batch), optionally under a
  :class:`~repro.comms.faults.FaultPlan`, optionally self-healing via
  the resilience stack;
* :class:`~repro.service.service.SolveService` — the deterministic
  event-driven scheduler tying it together, with per-request lifecycle
  tracing and p50/p95/p99 latency accounting
  (:class:`~repro.service.metrics.ServiceReport`).

The daemon era (PR 6) makes the service *long-lived*: requests arrive
over an open channel (:func:`~repro.service.workload.stream_workload` /
:func:`~repro.service.workload.bursty_workload`), the in-flight campaign
checkpoints at batch boundaries
(:class:`~repro.service.campaign.CampaignCheckpointStore`) so a
scheduler crash resumes with no lost requests, LOW batches yield to HIGH
arrivals at refresh-point boundaries
(:class:`~repro.service.preemption.PreemptionPolicy`), and the worker pool
scales elastically against the measured arrival rate
(:class:`~repro.service.elastic.ElasticPolicy`).

The resilience era (PR 7, :mod:`repro.service.health`) hardens the
daemon against its own pool and against overload: a per-worker
:class:`~repro.service.health.HealthBoard` feeds a circuit breaker
(quarantine → cooldown → seeded probe → reinstate or retire), straggling
batches earn hedged replicas (:class:`~repro.service.health.HedgePolicy`,
first completion wins), and a
:class:`~repro.service.health.BrownoutController` sheds, degrades and
finally rejects under sustained pressure instead of failing HIGH
traffic.  :class:`~repro.comms.faults.WorkerFaultPlan` injects the
correlated whole-worker kills and straggler slowdowns these features are
exercised against.

The multi-tenant era (:mod:`repro.service.tenancy`) shares the daemon
between competing campaigns: per-tenant token-bucket quotas
(:class:`~repro.service.tenancy.TokenBucket`, rejects carrying an honest
refill-derived retry-after), a start-time weighted-fair scheduler
(:class:`~repro.service.tenancy.WeightedFairScheduler`) arbitrating
dispatch across tenants within each priority tier, and a per-tenant
scorecard on the report.  Tenancy-free campaigns are untouched — the
same schedule, byte for byte.

Everything is driven by *model time* — the same discrete-event clock the
rest of the repository runs on — so a campaign with a fixed seed is
fully deterministic: identical completion order, identical percentiles,
byte-identical reports, on any machine.
"""

from .batching import Batch, BatchPolicy, select_batch
from .campaign import (
    CampaignCheckpoint,
    CampaignCheckpointStore,
    CampaignDelta,
    MirroredCheckpointStore,
    SchedulerCrash,
)
from .elastic import (
    ArrivalRateEstimator,
    ElasticPolicy,
    PoolController,
    ScaleEvent,
    spread_domain,
)
from .health import (
    BROWNOUT_DEGRADE,
    BROWNOUT_NORMAL,
    BROWNOUT_REJECT,
    BROWNOUT_SHED_LOW,
    HEALTHY,
    PROBING,
    QUARANTINED,
    RETIRED_SICK,
    BrownoutController,
    BrownoutPolicy,
    HealthBoard,
    HealthPolicy,
    HedgePolicy,
    WorkerHealth,
)
from .metrics import ServiceReport, percentile
from .placement import (
    GridCandidate,
    GridSelector,
    PlacementDecision,
    PlacementEngine,
    PlacementPolicy,
    ResidencyRouter,
    SharedTuneCache,
    gauge_upload_s,
    residency_key,
)
from .queueing import AdmissionQueue, DrainEstimator, partition_by_tenant
from .request import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    RequestRecord,
    SolveRequest,
    StructuredFailure,
)
from .service import (
    PreemptionPolicy,
    ServiceConfig,
    ServiceInvariantError,
    ServiceResult,
    SolveService,
)
from .tenancy import (
    TenancyPolicy,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
    WeightedFairScheduler,
)
from .workers import BatchExecution, SimWorker
from .workload import bursty_workload, stream_workload, synthetic_workload

__all__ = [
    "SolveRequest",
    "RequestRecord",
    "StructuredFailure",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
    "AdmissionQueue",
    "DrainEstimator",
    "BatchPolicy",
    "Batch",
    "select_batch",
    "GridCandidate",
    "GridSelector",
    "ResidencyRouter",
    "SharedTuneCache",
    "PlacementPolicy",
    "PlacementDecision",
    "PlacementEngine",
    "gauge_upload_s",
    "residency_key",
    "SimWorker",
    "BatchExecution",
    "SolveService",
    "ServiceConfig",
    "ServiceInvariantError",
    "ServiceResult",
    "ServiceReport",
    "percentile",
    "synthetic_workload",
    "stream_workload",
    "bursty_workload",
    "CampaignCheckpoint",
    "CampaignCheckpointStore",
    "CampaignDelta",
    "SchedulerCrash",
    "PreemptionPolicy",
    "ElasticPolicy",
    "ScaleEvent",
    "ArrivalRateEstimator",
    "PoolController",
    "HealthPolicy",
    "WorkerHealth",
    "HealthBoard",
    "HedgePolicy",
    "BrownoutPolicy",
    "BrownoutController",
    "HEALTHY",
    "QUARANTINED",
    "PROBING",
    "RETIRED_SICK",
    "BROWNOUT_NORMAL",
    "BROWNOUT_SHED_LOW",
    "BROWNOUT_DEGRADE",
    "BROWNOUT_REJECT",
    "MirroredCheckpointStore",
    "spread_domain",
    "TenancyPolicy",
    "TenantSpec",
    "TenantRegistry",
    "TokenBucket",
    "WeightedFairScheduler",
    "partition_by_tenant",
]
