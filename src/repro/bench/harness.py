"""Experiment harness: run solver configurations and report sustained Gflops.

The measurement protocol follows Section VII-A: performance numbers are
sustained "effective Gflops" (no gauge-reconstruction flops counted),
quoted as averages over propagator-style solves.  Paper-scale lattices run
through :func:`repro.core.invert_model` (timing-only; exact schedule, no
array data); small lattices can run fully numerically through
:func:`repro.core.invert` with the weak-field configurations of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclasses_field

import numpy as np

from ..comms.cluster import ClusterSpec
from ..comms.faults import FaultEvent, FaultPlan, IntegrityPolicy, RankFailedError
from ..comms.mpi_sim import CommStats
from ..core import RecoveryEvent, RetryPolicy, invert, invert_model, paper_invert_param
from ..gpu.memory import DeviceOutOfMemoryError
from ..gpu.specs import GTX285, GPUSpec

__all__ = [
    "ScalingPoint",
    "run_scaling_point",
    "sweep_gpus",
    "propagator_benchmark",
    "oom_cause",
    "ChaosReport",
    "chaos_solve",
    "chaos_invert",
    "service_benchmark",
    "throughput_benchmark",
    "write_service_bench",
    "capacity_sweep",
    "render_capacity_map",
]

#: Iterations per timing-only measurement.  The sustained rate is a
#: steady-state quantity, so a modest fixed count suffices; reliable
#: updates fire on the same cadence the functional runs exhibit.
FIXED_ITERATIONS = 40


@dataclass
class ScalingPoint:
    """One (configuration, GPU count) measurement."""

    n_gpus: int
    gflops: float | None  # None => did not fit in device memory
    model_time: float | None = None


def oom_cause(exc: BaseException) -> bool:
    """Whether a SimMPI failure was a device OOM (expected for some
    configurations, e.g. mixed precision on 4 GPUs — Section VII-C)."""
    seen = set()
    while exc is not None and id(exc) not in seen:
        if isinstance(exc, DeviceOutOfMemoryError):
            return True
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return False


def run_scaling_point(
    dims: tuple[int, int, int, int],
    mode: str,
    n_gpus: int,
    *,
    overlap: bool = True,
    cluster: ClusterSpec | None = None,
    gpu_spec: GPUSpec = GTX285,
    fixed_iterations: int = FIXED_ITERATIONS,
    solver: str = "bicgstab",
) -> ScalingPoint:
    """One timing-only solve; returns sustained Gflops or an OOM marker."""
    inv = paper_invert_param(
        mode,
        overlap_comms=overlap,
        fixed_iterations=fixed_iterations,
        solver=solver,
    )
    try:
        res = invert_model(
            dims, inv, n_gpus=n_gpus, cluster=cluster, gpu_spec=gpu_spec
        )
    except RuntimeError as exc:
        if oom_cause(exc):
            return ScalingPoint(n_gpus=n_gpus, gflops=None)
        raise
    return ScalingPoint(
        n_gpus=n_gpus,
        gflops=res.stats.sustained_gflops,
        model_time=res.stats.model_time,
    )


def sweep_gpus(
    dims_for: "callable",
    mode: str,
    gpu_counts: list[int],
    **kwargs,
) -> list[ScalingPoint]:
    """Run a scaling sweep; ``dims_for(n)`` gives the lattice at each count
    (constant for strong scaling, growing-T for weak scaling)."""
    return [
        run_scaling_point(dims_for(n), mode, n, **kwargs) for n in gpu_counts
    ]


def propagator_benchmark(
    dims: tuple[int, int, int, int] = (4, 4, 4, 8),
    mode: str = "single-half",
    n_gpus: int = 2,
    n_solves: int = 6,
    seed: int = 2010,
    mass: float = 0.2,
    **invert_kwargs,
):
    """The paper's functional measurement: "performing 6 linear solves for
    each test (one for each of the 3 color components of the upper 2 spin
    components), with the quoted performance results given by averages
    over these solves" — on a weak-field configuration.

    Returns ``(mean Gflops, per-solve InvertResults)``.
    """
    from ..lattice import LatticeGeometry, point_source, weak_field_gauge

    rng = np.random.default_rng(seed)
    geo = LatticeGeometry(dims)
    gauge = weak_field_gauge(geo, rng, noise=0.1)
    inv = paper_invert_param(mode, mass=mass)
    results = []
    sources = [(s, c) for s in range(2) for c in range(3)][:n_solves]
    for spin, color in sources:
        src = point_source(geo, site=0, spin=spin, color=color)
        results.append(invert(gauge, src, inv, n_gpus=n_gpus, **invert_kwargs))
    mean_gflops = float(
        np.mean([r.stats.sustained_gflops for r in results])
    )
    return mean_gflops, results


# ------------------------------------------------------------------------ #
# Chaos runs (fault-injected solves)
# ------------------------------------------------------------------------ #


@dataclass
class ChaosReport:
    """Outcome of one fault-injected solve (success or structured failure).

    Everything here is a function of (lattice, plan seed, communication
    pattern) — model times, retry counts and the fault schedule are all
    byte-reproducible across runs and platforms.
    """

    plan: FaultPlan
    completed: bool
    failure: RankFailedError | None
    model_time: float | None  # solver model time (None if the run died)
    gflops: float | None
    retries: int  # transient send failures survived, summed over ranks
    injected_delay_s: float  # total fault model time, summed over ranks
    fault_events: list[FaultEvent]
    comm_stats: list[CommStats]
    # --- self-healing accounting (zero unless a RetryPolicy is enabled) --- #
    recoveries: int = 0  # worlds relaunched after a rank failure
    restarts: int = 0  # breakdown-ladder rungs taken
    wasted_iterations: int = 0
    lost_time_s: float = 0.0  # failed attempts + retry backoff
    recovery_events: list[RecoveryEvent] = dataclasses_field(default_factory=list)
    final_ranks: int | None = None  # world size of the attempt that finished
    # Functional chaos runs only (``chaos_invert``):
    converged: bool | None = None
    true_residual: float | None = None
    # --- data integrity (silent-corruption protection) ----------------- #
    corruptions_detected: int = 0  # checksum mismatches + invariant hits
    corruptions_corrected: int = 0  # repaired by resend / checkpoint restore
    resends: int = 0  # NACK-triggered retransmissions, summed over ranks
    integrity_overhead_s: float = 0.0  # hash/verify model time, max over ranks


def _rank_failure(exc: BaseException) -> RankFailedError | None:
    """The RankFailedError at the root of a SimMPI failure, if any."""
    seen = set()
    while exc is not None and id(exc) not in seen:
        if isinstance(exc, RankFailedError):
            return exc
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return None


def _failed_report(plan: FaultPlan, exc: BaseException) -> ChaosReport | None:
    """A structured death report, or None if ``exc`` was not a rank failure."""
    failure = _rank_failure(exc)
    if failure is None:
        return None
    events = list(getattr(exc, "fault_events", []))
    return ChaosReport(
        plan=plan, completed=False, failure=failure, model_time=None,
        gflops=None,
        retries=sum(1 for e in events if e.kind == "send_retry"),
        injected_delay_s=sum(e.delay_s for e in events),
        fault_events=events, comm_stats=[],
        corruptions_detected=sum(
            1 for e in events if e.kind == "corruption_detected"
        ),
        resends=sum(1 for e in events if e.kind == "nack_resend"),
    )


def _completed_report(plan: FaultPlan, res) -> ChaosReport:
    """A success report from an :class:`~repro.core.quda.InvertResult`."""
    return ChaosReport(
        plan=plan,
        completed=True,
        failure=None,
        model_time=res.stats.model_time,
        gflops=res.stats.sustained_gflops,
        retries=sum(s.retries for s in res.comm_stats),
        injected_delay_s=sum(s.fault_delay_s for s in res.comm_stats),
        fault_events=res.fault_events,
        comm_stats=res.comm_stats,
        recoveries=res.stats.recoveries,
        restarts=res.stats.restarts,
        wasted_iterations=res.stats.wasted_iterations,
        lost_time_s=res.stats.lost_time,
        recovery_events=res.recovery_events,
        final_ranks=len(res.comm_stats) or None,
        converged=res.stats.converged if res.true_residual is not None else None,
        true_residual=res.true_residual,
        corruptions_detected=res.stats.corruptions_detected,
        corruptions_corrected=res.stats.corruptions_corrected,
        resends=sum(s.resends for s in res.comm_stats),
        integrity_overhead_s=res.stats.integrity_overhead,
    )


def chaos_solve(
    dims: tuple[int, int, int, int],
    mode: str,
    n_gpus: int,
    plan: FaultPlan,
    *,
    overlap: bool = True,
    cluster: ClusterSpec | None = None,
    gpu_spec: GPUSpec = GTX285,
    fixed_iterations: int = FIXED_ITERATIONS,
    solver: str = "bicgstab",
    retry_policy: RetryPolicy | None = None,
    integrity: IntegrityPolicy | None = None,
) -> ChaosReport:
    """One timing-only solve under a fault plan.

    Jitter/retry plans complete (later); lethal plans (stall/crash) end
    in a structured :class:`~repro.comms.faults.RankFailedError`, which
    is reported rather than raised — graceful degradation is the point
    of a chaos run.  With a ``retry_policy`` the solve instead relaunches
    over the survivors and resumes from its last refresh-point
    checkpoint, and the report carries the recovery accounting.
    """
    inv = paper_invert_param(
        mode, overlap_comms=overlap, fixed_iterations=fixed_iterations,
        solver=solver, retry_policy=retry_policy,
    )
    try:
        res = invert_model(
            dims, inv, n_gpus=n_gpus, cluster=cluster, gpu_spec=gpu_spec,
            enforce_memory=False, fault_plan=plan, integrity=integrity,
        )
    except RuntimeError as exc:
        report = _failed_report(plan, exc)
        if report is None:
            raise
        return report
    return _completed_report(plan, res)


def chaos_invert(
    dims: tuple[int, int, int, int],
    mode: str,
    n_gpus: int,
    plan: FaultPlan,
    *,
    mass: float = 0.2,
    seed: int = 31,
    noise: float = 0.15,
    overlap: bool = True,
    cluster: ClusterSpec | None = None,
    gpu_spec: GPUSpec = GTX285,
    solver: str = "bicgstab",
    retry_policy: RetryPolicy | None = None,
    integrity: IntegrityPolicy | None = None,
) -> ChaosReport:
    """One *functional* solve (real numerics) under a fault plan.

    The acceptance test for self-healing solves: a weak-field
    configuration, a random source, a fault plan that kills a rank
    mid-solve — with a ``retry_policy`` the report must come back
    ``completed`` *and* ``converged`` with the true residual verified
    against the host reference operator.
    """
    from ..lattice import LatticeGeometry, random_spinor, weak_field_gauge

    rng = np.random.default_rng(seed)
    geo = LatticeGeometry(dims)
    gauge = weak_field_gauge(geo, rng, noise=noise)
    src = random_spinor(geo, rng)
    inv = paper_invert_param(
        mode, mass=mass, overlap_comms=overlap, solver=solver,
        retry_policy=retry_policy,
    )
    try:
        res = invert(
            gauge, src, inv, n_gpus=n_gpus, cluster=cluster,
            gpu_spec=gpu_spec, fault_plan=plan, integrity=integrity,
        )
    except RuntimeError as exc:
        report = _failed_report(plan, exc)
        if report is None:
            raise
        return report
    return _completed_report(plan, res)


# --------------------------------------------------------------------- #
# Solve-service benchmark (closed-loop, batched vs unbatched)
# --------------------------------------------------------------------- #

def service_benchmark(
    n_requests: int = 64,
    *,
    dims: tuple[int, int, int, int] = (16, 16, 16, 64),
    mode: str = "single-half",
    workers: int = 2,
    ranks: int = 2,
    max_batch: int = 8,
    rate_rps: float = 2000.0,
    iterations: int = 10,
    seed: int = 2010,
) -> dict:
    """Serve one synthetic campaign twice — multi-RHS batching on
    (``max_batch``) versus off (batch size 1) — and report both
    scorecards plus the throughput ratio.

    Setup (gauge upload, ghost-zone allocation, operator construction)
    is paid once per *batch*, so the batched schedule completes the same
    campaign in less model time; the margin grows with lattice volume
    because the setup transfers scale with the gauge field while the
    per-iteration cost is amortized over right-hand sides.
    """
    from ..service import (
        BatchPolicy,
        ServiceConfig,
        SolveService,
        synthetic_workload,
    )

    workload = synthetic_workload(
        n_requests, seed=seed, rate_rps=rate_rps, dims=dims, mode=mode
    )

    def serve(batch: int) -> dict:
        config = ServiceConfig(
            queue_capacity=max(n_requests, 1),
            policy=BatchPolicy(max_batch=batch),
            n_workers=workers,
            ranks_per_worker=ranks,
            fixed_iterations=iterations,
        )
        return SolveService(config).run(workload).report.to_json()

    batched = serve(max_batch)
    unbatched = serve(1)
    speedup = (
        batched["throughput_rps"] / unbatched["throughput_rps"]
        if unbatched["throughput_rps"]
        else float("inf")
    )
    return {
        "campaign": {
            "requests": n_requests,
            "dims": list(dims),
            "mode": mode,
            "workers": workers,
            "ranks_per_worker": ranks,
            "max_batch": max_batch,
            "rate_rps": rate_rps,
            "iterations": iterations,
            "seed": seed,
        },
        "batched": batched,
        "unbatched": unbatched,
        "batched_vs_unbatched_throughput": round(speedup, 4),
    }


def residency_benchmark(
    n_requests: int = 48,
    *,
    dims: tuple[int, int, int, int] = (16, 16, 16, 64),
    mode: str = "single-half",
    workers: int = 2,
    ranks: int = 2,
    n_configs: int = 2,
    max_batch: int = 8,
    rate_rps: float = 2000.0,
    iterations: int = 10,
    seed: int = 2010,
) -> dict:
    """Serve one ``n_configs``-configuration campaign twice — gauge
    residency on (*warm pool*: batches route to a worker whose device
    already holds the configuration, the upload is charged only on a
    miss) versus off (*cold*: every batch pays the host→device gauge
    upload) — and report both scorecards plus the makespan ratio.

    With two configurations interleaving over two workers, the warm run
    settles into one-config-per-worker affinity and most batches are
    residency hits; the cold run re-uploads on every batch.  The shared
    tunecache is enabled in both runs, so the measured margin isolates
    the residency credit.
    """
    from ..service import (
        BatchPolicy,
        PlacementPolicy,
        ServiceConfig,
        SolveService,
        synthetic_workload,
    )

    workload = synthetic_workload(
        n_requests,
        seed=seed,
        rate_rps=rate_rps,
        dims=dims,
        mode=mode,
        n_configs=n_configs,
    )

    def serve(residency: bool) -> dict:
        config = ServiceConfig(
            queue_capacity=max(n_requests, 1),
            policy=BatchPolicy(max_batch=max_batch),
            n_workers=workers,
            ranks_per_worker=ranks,
            fixed_iterations=iterations,
            placement=PlacementPolicy(residency=residency),
        )
        return SolveService(config).run(workload).report.to_json()

    warm = serve(True)
    cold = serve(False)
    ratio = (
        cold["makespan_us"] / warm["makespan_us"]
        if warm["makespan_us"]
        else float("inf")
    )
    return {
        "campaign": {
            "requests": n_requests,
            "dims": list(dims),
            "mode": mode,
            "workers": workers,
            "ranks_per_worker": ranks,
            "configs": n_configs,
            "max_batch": max_batch,
            "rate_rps": rate_rps,
            "iterations": iterations,
            "seed": seed,
        },
        "warm": warm,
        "cold": cold,
        "cold_vs_warm_makespan": round(ratio, 4),
    }


def daemon_benchmark(
    n_requests: int = 96,
    *,
    dims: tuple[int, int, int, int] = (8, 8, 8, 32),
    mode: str = "single-half",
    ranks: int = 2,
    max_batch: int = 8,
    base_rps: float = 300.0,
    burst_rps: float = 12000.0,
    burst_start_s: float = 0.01,
    burst_len_s: float = 0.01,
    iterations: int = 10,
    seed: int = 11,
) -> dict:
    """Stream one seeded bursty campaign through the daemon twice —
    refresh-boundary preemption on versus off — on an elastic pool, and
    report both scorecards plus the HIGH-priority p99 ratio.

    The burst drives the autoscaler up and the quiet tail back down
    (both runs share the scale trajectory: preemption does not change
    arrival accounting); preemption lets HIGH arrivals claim a worker at
    the next refresh boundary instead of queueing behind a full LOW
    batch, so the HIGH p99 improves while LOW pays the resume overhead.
    """
    from ..service import (
        BatchPolicy,
        ElasticPolicy,
        PreemptionPolicy,
        ServiceConfig,
        SolveService,
        bursty_workload,
    )

    def serve(preempt: bool) -> dict:
        config = ServiceConfig(
            queue_capacity=max(4 * n_requests, 64),
            policy=BatchPolicy(max_batch=max_batch),
            n_workers=1,
            ranks_per_worker=ranks,
            fixed_iterations=iterations,
            preemption=PreemptionPolicy(enabled=preempt),
            elastic=ElasticPolicy(min_workers=1, max_workers=6),
        )
        workload = bursty_workload(
            n_requests,
            seed=seed,
            base_rps=base_rps,
            burst_rps=burst_rps,
            burst_start_s=burst_start_s,
            burst_len_s=burst_len_s,
            dims=dims,
            mode=mode,
            priority_mix=(0.2, 0.3, 0.5),
        )
        return SolveService(config).serve(workload).report.to_json()

    preempt_on = serve(True)
    preempt_off = serve(False)
    p99_on = preempt_on["priority_latency"]["high"]["p99_us"]
    p99_off = preempt_off["priority_latency"]["high"]["p99_us"]
    return {
        "campaign": {
            "requests": n_requests,
            "dims": list(dims),
            "mode": mode,
            "ranks_per_worker": ranks,
            "max_batch": max_batch,
            "base_rps": base_rps,
            "burst_rps": burst_rps,
            "burst_start_ms": burst_start_s * 1e3,
            "burst_len_ms": burst_len_s * 1e3,
            "iterations": iterations,
            "seed": seed,
        },
        "preempt_on": preempt_on,
        "preempt_off": preempt_off,
        "high_p99_off_vs_on": (
            round(p99_off / p99_on, 4) if p99_on else float("inf")
        ),
    }


def resilience_benchmark(
    n_requests: int = 64,
    *,
    dims: tuple[int, int, int, int] = (4, 4, 4, 8),
    mode: str = "double-half",
    ranks: int = 2,
    workers: int = 3,
    max_batch: int = 8,
    base_rps: float = 1500.0,
    burst_rps: float = 12000.0,
    burst_start_s: float = 1e-3,
    burst_len_s: float = 3e-3,
    deadline_slack_s: float = 0.3,
    straggler_factor: float = 3.0,
    iterations: int = 10,
    seed: int = 23,
) -> dict:
    """The PR-7 acceptance campaign: one seeded overloaded bursty stream
    served twice — resilience (breaker + hedging + brownout) on versus
    off — against the same hostile pool: worker 0 flaky (one planned
    crash), worker 2 a ``straggler_factor``x straggler.

    With resilience on, the breaker quarantines the flaky worker and
    reinstates it after a clean probe, hedged replicas rescue straggling
    batches, and the brownout controller sheds LOW under the burst
    instead of blowing every deadline — so the HIGH p99 must be strictly
    better and the SLO attainment no worse than the undefended run,
    while *both* runs terminate every admitted request.
    """
    from ..comms.faults import FaultPlan, WorkerFaultPlan
    from ..service import (
        BatchPolicy,
        BrownoutPolicy,
        HealthPolicy,
        HedgePolicy,
        ServiceConfig,
        SolveService,
        bursty_workload,
    )

    def serve(resilient: bool) -> dict:
        config = ServiceConfig(
            queue_capacity=max(4 * n_requests, 64),
            policy=BatchPolicy(max_batch=max_batch),
            n_workers=workers,
            ranks_per_worker=ranks,
            fixed_iterations=iterations,
            max_retries=2,
            fault_plan=FaultPlan(seed=3).with_stall(
                0, after_s=0.0, mode="crash"
            ),
            chaos_workers=(0,),
            worker_faults=WorkerFaultPlan().with_straggler(
                2, factor=straggler_factor
            ),
            # One hard failure trips the breaker; the soft slow signal
            # is muted (slow_ratio) so the known straggler is handled by
            # hedging, not by repeatedly parking a third of the pool.
            health=HealthPolicy(
                enabled=True, min_samples=1, trip_rate=0.5,
                cooldown_s=1e-3, slow_ratio=1e3,
            ) if resilient else None,
            hedge=HedgePolicy(enabled=True) if resilient else None,
            # Thresholds scaled to this campaign's ~50 ms batches: LOW
            # sheds at about one queued batch per worker, precision
            # degrades at two, and only a three-deep backlog refuses
            # NORMAL traffic.
            brownout=BrownoutPolicy(
                enabled=True,
                shed_low_at_s=60e-3,
                degrade_at_s=120e-3,
                reject_at_s=240e-3,
            ) if resilient else None,
        )
        workload = bursty_workload(
            n_requests,
            seed=seed,
            base_rps=base_rps,
            burst_rps=burst_rps,
            burst_start_s=burst_start_s,
            burst_len_s=burst_len_s,
            dims=dims,
            mode=mode,
            priority_mix=(0.25, 0.5, 0.25),
            deadline_slack_s=deadline_slack_s,
        )
        return SolveService(config).serve(workload).report.to_json()

    on = serve(True)
    off = serve(False)
    p99_on = on["priority_latency"]["high"]["p99_us"]
    p99_off = off["priority_latency"]["high"]["p99_us"]
    return {
        "campaign": {
            "requests": n_requests,
            "dims": list(dims),
            "mode": mode,
            "workers": workers,
            "ranks_per_worker": ranks,
            "max_batch": max_batch,
            "base_rps": base_rps,
            "burst_rps": burst_rps,
            "burst_start_ms": burst_start_s * 1e3,
            "burst_len_ms": burst_len_s * 1e3,
            "deadline_slack_ms": deadline_slack_s * 1e3,
            "straggler_factor": straggler_factor,
            "iterations": iterations,
            "seed": seed,
        },
        "resilience_on": on,
        "resilience_off": off,
        "high_p99_off_vs_on": (
            round(p99_off / p99_on, 4) if p99_on else float("inf")
        ),
    }


def domain_resilience_benchmark(
    n_requests: int = 64,
    *,
    dims: tuple[int, int, int, int] = (4, 4, 4, 8),
    mode: str = "double-half",
    ranks: int = 2,
    nodes: int = 3,
    workers_per_node: int = 3,
    racks: int = 3,
    max_batch: int = 4,
    base_rps: float = 1500.0,
    burst_rps: float = 12000.0,
    burst_start_s: float = 1e-3,
    burst_len_s: float = 3e-3,
    kill_node: int = 1,
    kill_at_s: float = 2e-3,
    partition_rack: int = 2,
    partition_at_s: float = 3e-3,
    heal_mean_s: float = 2e-3,
    iterations: int = 10,
    n_configs: int = 4,
    seed: int = 11,
) -> dict:
    """The PR-8 acceptance campaign: one seeded bursty stream served
    twice against the same correlated faults — a *silent* node kill plus
    a switch partition — with the failure-domain layer on versus off.

    Both runs carry the full per-worker resilience stack (breaker,
    hedging); the ablation isolates exactly the domain features.  OFF
    must discover the dead node one worker at a time (each keeps
    attracting traffic until its own ledger trips); ON escalates the
    second correlated strike into a whole-node quarantine, so its
    time-to-isolate is strictly lower and its HIGH p99 no worse, while
    both runs terminate every admitted request.  A separate mini-run
    crashes the scheduler after the node hosting the primary checkpoint
    replica dies and must resume from the cross-domain mirror.
    """
    from ..comms.cluster import Topology
    from ..comms.faults import DomainFaultPlan
    from ..service import (
        BatchPolicy,
        DomainPolicy,
        HealthPolicy,
        HedgePolicy,
        MirroredCheckpointStore,
        SchedulerCrash,
        ServiceConfig,
        SolveService,
        bursty_workload,
    )

    topology = Topology(
        n_nodes=nodes, workers_per_node=workers_per_node, n_racks=racks
    )
    faults = (
        DomainFaultPlan(seed=seed)
        .with_node_kill(kill_node, at_s=kill_at_s)
        .with_partition(
            partition_rack, at_s=partition_at_s, mean_heal_s=heal_mean_s
        )
    )

    def config(domain_aware: bool, checkpoint_every: int = 1000000):
        return ServiceConfig(
            queue_capacity=max(4 * n_requests, 64),
            policy=BatchPolicy(max_batch=max_batch),
            n_workers=topology.n_workers,
            ranks_per_worker=ranks,
            fixed_iterations=iterations,
            max_retries=4,
            seed=seed,
            topology=topology,
            domain_faults=faults,
            domain_health=(
                DomainPolicy(enabled=True, strike_k=2, cooldown_s=2e-3)
                if domain_aware
                else None
            ),
            anti_affinity=domain_aware,
            health=HealthPolicy(
                enabled=True, min_samples=1, trip_rate=0.5,
                cooldown_s=1e-3, slow_ratio=1e3,
            ),
            hedge=HedgePolicy(enabled=True),
            checkpoint_every=checkpoint_every,
        )

    def workload():
        return bursty_workload(
            n_requests,
            seed=seed,
            base_rps=base_rps,
            burst_rps=burst_rps,
            burst_start_s=burst_start_s,
            burst_len_s=burst_len_s,
            dims=dims,
            mode=mode,
            priority_mix=(0.25, 0.5, 0.25),
            deadline_slack_s=0.5,
            n_configs=n_configs,
        )

    on = SolveService(config(True)).serve(workload()).report.to_json()
    off = SolveService(config(False)).serve(workload()).report.to_json()
    isolate_on = on["domains"]["isolation_ms"].get(str(kill_node))
    isolate_off = off["domains"]["isolation_ms"].get(str(kill_node))
    p99_on = on["priority_latency"]["high"]["p99_us"]
    p99_off = off["priority_latency"]["high"]["p99_us"]

    # Cross-domain checkpoint replication: the primary replica lives on
    # the node the kill takes out; the scheduler then crashes and must
    # come back from the mirror with nothing lost.
    store = MirroredCheckpointStore(
        primary_domain=kill_node,
        mirror_domain=(kill_node + 1) % nodes,
    )
    try:
        SolveService(config(True, checkpoint_every=2)).serve(
            workload(), checkpoint=store, crash_at_s=kill_at_s + 2e-3
        )
        mirror_report = None  # pragma: no cover - crash always fires
    except SchedulerCrash as crash:
        mirror_report = (
            SolveService(config(True, checkpoint_every=2))
            .resume(workload(), checkpoint=crash.store)
            .report.to_json()
        )

    return {
        "campaign": {
            "requests": n_requests,
            "dims": list(dims),
            "mode": mode,
            "topology": str(topology),
            "ranks_per_worker": ranks,
            "max_batch": max_batch,
            "base_rps": base_rps,
            "burst_rps": burst_rps,
            "burst_start_ms": burst_start_s * 1e3,
            "burst_len_ms": burst_len_s * 1e3,
            "kill_node": kill_node,
            "kill_at_ms": kill_at_s * 1e3,
            "partition_rack": partition_rack,
            "partition_at_ms": partition_at_s * 1e3,
            "heal_mean_ms": heal_mean_s * 1e3,
            "iterations": iterations,
            "n_configs": n_configs,
            "seed": seed,
        },
        "domain_on": on,
        "domain_off": off,
        "time_to_isolate_ms_on": isolate_on,
        "time_to_isolate_ms_off": isolate_off,
        "isolate_off_vs_on": (
            round(isolate_off / isolate_on, 4)
            if isolate_on and isolate_off
            else None
        ),
        "high_p99_off_vs_on": (
            round(p99_off / p99_on, 4) if p99_on else float("inf")
        ),
        "mirror_resume": {
            "mirror_restores": (
                mirror_report["domains"]["mirror_restores"]
                if mirror_report
                else 0
            ),
            "checkpoint_restores": (
                mirror_report["checkpoint_restores"] if mirror_report else 0
            ),
            "failed": mirror_report["failed"] if mirror_report else None,
        },
    }


def capacity_sweep(
    n_requests: int = 192,
    *,
    dims: tuple[int, int, int, int] = (4, 4, 4, 8),
    mode: str = "double-half",
    ranks: int = 2,
    max_batch: int = 4,
    rates: tuple[float, ...] = (40.0, 80.0, 160.0, 320.0),
    workers: tuple[int, ...] = (2, 4),
    deadline_slack_s: float = 0.15,
    iterations: int = 10,
    seed: int = 31,
) -> dict:
    """The multi-tenant saturation map: arrival rate x tenant mix x
    worker count, one seeded streaming campaign per cell.

    Each cell serves the same Poisson request stream split across two
    tenants under weighted-fair dispatch (the ``equal`` mix at 1:1
    weights, the ``weighted_3to1`` mix at 3:1) and reports SLO
    attainment, throughput/goodput, the per-tenant completion shares,
    and the no-lost-requests check.  Per (mix, workers) series the
    *knee* is the highest swept rate whose SLO attainment still holds
    ``slo_floor`` — beyond it the service is saturated and attainment
    degrades monotonically with offered load, which is the capacity
    contract the CI smoke job pins.
    """
    from ..service import (
        BatchPolicy,
        ServiceConfig,
        SolveService,
        TenancyPolicy,
        stream_workload,
    )

    slo_floor = 0.95
    mixes = {
        "equal": ("atlas", "bell", (1.0, 1.0)),
        "weighted_3to1": ("atlas", "bell", (3.0, 1.0)),
    }
    cells = []
    for mix_name, (a, b, mix_weights) in mixes.items():
        for n_workers in workers:
            for rate in rates:
                config = ServiceConfig(
                    queue_capacity=max(4 * n_requests, 64),
                    policy=BatchPolicy(max_batch=max_batch),
                    n_workers=n_workers,
                    ranks_per_worker=ranks,
                    fixed_iterations=iterations,
                    seed=seed,
                    tenancy=TenancyPolicy.build(
                        (a, b), weights=mix_weights
                    ),
                )
                workload = stream_workload(
                    n_requests,
                    seed=seed,
                    rate_rps=rate,
                    dims=dims,
                    mode=mode,
                    priority_mix=(0.0, 1.0, 0.0),
                    deadline_slack_s=deadline_slack_s,
                    tenants=(a, b),
                )
                result = SolveService(config).serve(workload)
                rep = result.report.to_json()
                # Fairness shows while *both* tenants are backlogged: a
                # finite campaign eventually serves everyone, so whole-run
                # completion counts just mirror the arrival mix.  Count
                # completions inside the arrival window instead — while
                # load keeps arriving, the completion shares are the
                # dispatch shares WFQ controls.
                last_arrival = max(
                    r.request.arrival_s for r in result.records
                )
                in_window = {
                    name: sum(
                        1
                        for r in result.records
                        if r.request.tenant == name
                        and r.completed_s is not None
                        and r.state == "completed"
                        and r.completed_s <= last_arrival
                    )
                    for name in rep["tenants"]
                }
                served = sum(in_window.values())
                cells.append(
                    {
                        "mix": mix_name,
                        "workers": n_workers,
                        "rate_rps": rate,
                        "slo_attainment": rep["slo_attainment"],
                        "throughput_rps": rep["throughput_rps"],
                        "goodput_rps": rep["goodput_rps"],
                        "completed": rep["completed"],
                        "failed": rep["failed"],
                        "rejected": rep["rejected"],
                        "lost": rep["requests"]
                        - rep["completed"]
                        - rep["failed"]
                        - rep["rejected"],
                        "tenants": {
                            name: {
                                "weight_share": t["weight_share"],
                                "completed": t["completed"],
                                "completed_in_window": in_window[name],
                                # The fairness signal: this tenant's slice
                                # of the work served while load was still
                                # arriving, which WFQ drives toward
                                # weight_share under sustained backlog.
                                "share": (
                                    round(in_window[name] / served, 4)
                                    if served
                                    else 0.0
                                ),
                                "goodput_rps": t["goodput_rps"],
                                "quota_rejected": t["quota_rejected"],
                            }
                            for name, t in rep["tenants"].items()
                        },
                    }
                )
    knees = []
    for mix_name in mixes:
        for n_workers in workers:
            series = [
                c
                for c in cells
                if c["mix"] == mix_name and c["workers"] == n_workers
            ]
            holding = [
                c["rate_rps"]
                for c in series
                if c["slo_attainment"] >= slo_floor
            ]
            knees.append(
                {
                    "mix": mix_name,
                    "workers": n_workers,
                    "knee_rate_rps": max(holding) if holding else None,
                }
            )
    # Aggregate fairness over *deep* overload (rate >= 4x the series
    # knee): WFQ shares converge to weights only while every tenant's
    # demand exceeds its allocation, and single cells are quantized to
    # batch granularity — summing in-window completions across the
    # saturated cells is the statistically honest share estimate.
    fairness = {}
    for mix_name, (a, b, mix_weights) in mixes.items():
        used = []
        for k in knees:
            if k["mix"] != mix_name or k["knee_rate_rps"] is None:
                continue
            used.extend(
                c
                for c in cells
                if c["mix"] == mix_name
                and c["workers"] == k["workers"]
                and c["rate_rps"] >= 4 * k["knee_rate_rps"]
            )
        counts = {
            name: sum(c["tenants"][name]["completed_in_window"] for c in used)
            for name in (a, b)
        }
        total = sum(counts.values())
        shares = {
            name: (counts[name] / total if total else 0.0) for name in counts
        }
        weight_shares = {
            a: mix_weights[0] / sum(mix_weights),
            b: mix_weights[1] / sum(mix_weights),
        }
        normalized = [
            shares[name] / weight_shares[name] if shares[name] else 0.0
            for name in counts
        ]
        fairness[mix_name] = {
            "cells_used": len(used),
            "completed_in_window": counts,
            "shares": {n: round(s, 4) for n, s in shares.items()},
            "weight_shares": weight_shares,
            # max/min of share/weight_share: 1.0 = perfectly weighted-fair.
            "imbalance": (
                round(max(normalized) / min(normalized), 4)
                if all(n > 0 for n in normalized)
                else float("inf")
            ),
        }
    return {
        "campaign": {
            "requests": n_requests,
            "dims": list(dims),
            "mode": mode,
            "ranks_per_worker": ranks,
            "max_batch": max_batch,
            "rates_rps": list(rates),
            "workers": list(workers),
            "deadline_slack_ms": deadline_slack_s * 1e3,
            "iterations": iterations,
            "seed": seed,
            "slo_floor": slo_floor,
        },
        "cells": cells,
        "knees": knees,
        "fairness": fairness,
    }


def hot_campaign(
    n_requests: int = 1024,
    *,
    dims: tuple[int, int, int, int] = (4, 4, 4, 8),
    rate_rps: float = 20000.0,
    max_batch: int = 4,
    workers: int = 2,
    ranks: int = 2,
    queue_capacity: int = 4096,
    iterations: int = 10,
    seed: int = 7,
):
    """The saturated scheduler campaign the wall-clock tools share.

    A high arrival rate against a small lattice keeps the backlog deep
    for the whole run, so wall-clock time is dominated by the scheduler
    hot path (ordering, batch selection, placement, perf-model
    evaluation) rather than by the simulated solves.  Returns
    ``(config, workload)``; the same seed always yields the same campaign.
    """
    from ..service import (
        BatchPolicy,
        ServiceConfig,
        synthetic_workload,
    )

    config = ServiceConfig(
        queue_capacity=queue_capacity,
        policy=BatchPolicy(max_batch=max_batch),
        n_workers=workers,
        ranks_per_worker=ranks,
        fixed_iterations=iterations,
    )
    workload = synthetic_workload(
        n_requests, seed=seed, rate_rps=rate_rps, dims=dims
    )
    return config, workload


#: PR 10's one-process measurement of the full-sort queue, full-scan
#: selector and unmemoized perf model against the incremental forms that
#: are now the only ones.  Frozen: the slow forms are deleted, so nothing
#: can (or should) re-measure it.
THROUGHPUT_HISTORY = {
    "pr10_full_sort_vs_incremental": {
        "before_rps": 6352.1,
        "after_rps": 41015.7,
        "speedup": 6.46,
    }
}


def throughput_benchmark(
    n_requests: int = 1024,
    *,
    warmup_requests: int = 48,
    repeats: int = 3,
    **campaign_kwargs,
) -> dict:
    """Wall-clock requests/second of the hot campaign.

    Unlike every other benchmark in this module this one measures *wall*
    time, not model time: how fast the host CPU gets through a saturated
    schedule.  One small warm-up campaign (memo caches, imports) is
    excluded from timing; the result is the **best** of ``repeats``
    rounds (wall benchmarks take the minimum time — anything slower is
    interference, not the code).  The number is machine-specific: CI
    holds it to an absolute floor, and the ledger's ``serve-saturated``
    workload tracks the same campaign at 4096 requests on every PR.
    """
    import time as _time

    from ..service import SolveService

    def measure(n: int) -> float:
        config, workload = hot_campaign(n, **campaign_kwargs)
        t0 = _time.perf_counter()
        SolveService(config).run(workload)
        return n / (_time.perf_counter() - t0)

    measure(warmup_requests)
    rps = max(measure(n_requests) for _ in range(repeats))
    config, _ = hot_campaign(n_requests, **campaign_kwargs)
    return {
        "campaign": {
            "requests": n_requests,
            "warmup_requests": warmup_requests,
            "repeats": repeats,
            "queue_capacity": config.queue_capacity,
            "max_batch": config.policy.max_batch,
            "workers": config.n_workers,
            "ranks_per_worker": config.ranks_per_worker,
            "iterations": config.fixed_iterations,
            **{
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in campaign_kwargs.items()
            },
        },
        "rps": round(rps, 1),
    }


def render_capacity_map(cap: dict) -> str:
    """Human-readable saturation map (the ``--capacity-sweep`` output)."""
    lines = [
        f"capacity sweep: {cap['campaign']['requests']} requests/cell, "
        f"rates {cap['campaign']['rates_rps']} rps, "
        f"workers {cap['campaign']['workers']}, "
        f"SLO floor {cap['campaign']['slo_floor']:.2f}",
        f"{'mix':<14} {'workers':>7} {'rate':>7} {'SLO':>7} "
        f"{'goodput':>8} {'shares (vs weights)':>24}",
    ]
    for c in cap["cells"]:
        shares = ", ".join(
            f"{name} {t['share'] * 100:.0f}%/{t['weight_share'] * 100:.0f}%"
            for name, t in sorted(c["tenants"].items())
        )
        lines.append(
            f"{c['mix']:<14} {c['workers']:>7} {c['rate_rps']:>7.0f} "
            f"{c['slo_attainment'] * 100:>6.1f}% "
            f"{c['goodput_rps']:>8.1f} {shares:>24}"
        )
    for k in cap["knees"]:
        knee = (
            f"{k['knee_rate_rps']:.0f} rps"
            if k["knee_rate_rps"] is not None
            else "below sweep range"
        )
        lines.append(
            f"knee [{k['mix']} @ {k['workers']} worker(s)]: {knee}"
        )
    for mix_name, f in cap.get("fairness", {}).items():
        shares = ", ".join(
            f"{name} {s * 100:.1f}%" for name, s in sorted(f["shares"].items())
        )
        lines.append(
            f"fairness [{mix_name}]: {shares} over {f['cells_used']} "
            f"saturated cell(s), imbalance {f['imbalance']:.3f}"
        )
    return "\n".join(lines)


def write_service_bench(path: str = "BENCH_service.json", **kwargs) -> dict:
    """Run :func:`service_benchmark` plus the gauge-residency ablation
    (:func:`residency_benchmark`), the daemon-era preemption/elastic
    benchmark (:func:`daemon_benchmark`), and the resilience-era
    failure-domain benchmark (:func:`resilience_benchmark`), and write
    the machine-readable scorecard (wait percentiles, throughput, batch
    occupancy, warm- vs cold-pool makespans, HIGH-p99 preemption margin,
    scale events, breaker/hedging/brownout ledgers) to ``path``."""
    import json

    result = service_benchmark(**kwargs)
    result["residency_ablation"] = residency_benchmark()
    result["daemon"] = daemon_benchmark()
    result["resilience"] = resilience_benchmark()
    result["domain_resilience"] = domain_resilience_benchmark()
    result["capacity_map"] = capacity_sweep()
    # Wall-clock (not model-time), so machine-specific.
    result["throughput"] = {**throughput_benchmark(), "history": THROUGHPUT_HISTORY}
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result
