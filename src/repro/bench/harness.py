"""Experiment harness: run solver configurations and report sustained Gflops.

The measurement protocol follows Section VII-A: performance numbers are
sustained "effective Gflops" (no gauge-reconstruction flops counted),
quoted as averages over propagator-style solves.  Paper-scale lattices run
through :func:`repro.core.invert_model` (timing-only; exact schedule, no
array data); small lattices can run fully numerically through
:func:`repro.core.invert` with the weak-field configurations of the paper.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from dataclasses import field as dataclasses_field

import numpy as np

from ..comms.cluster import ClusterSpec
from ..comms.faults import (
    FaultEvent,
    FaultPlan,
    IntegrityPolicy,
    RankFailedError,
    root_cause,
)
from ..comms.mpi_sim import CommStats
from ..core import RecoveryEvent, RetryPolicy, invert, invert_model, paper_invert_param
from ..gpu.memory import DeviceOutOfMemoryError
from ..gpu.specs import GTX285, GPUSpec

__all__ = [
    "ScalingPoint",
    "run_scaling_point",
    "propagator_benchmark",
    "ChaosReport",
    "chaos_solve",
    "chaos_invert",
    "Ablation",
    "ABLATIONS",
    "run_ablation",
    "campaign_params",
    "ablation_block",
    "throughput_benchmark",
    "service_bench",
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
        # A device OOM is expected for some configurations, e.g. mixed
        # precision on 4 GPUs (Section VII-C).
        if root_cause(exc, DeviceOutOfMemoryError) is not None:
            return ScalingPoint(n_gpus=n_gpus, gflops=None)
        raise
    return ScalingPoint(
        n_gpus=n_gpus,
        gflops=res.stats.sustained_gflops,
        model_time=res.stats.model_time,
    )


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


def _failed_report(plan: FaultPlan, exc: BaseException) -> ChaosReport | None:
    """A structured death report, or None if ``exc`` was not a rank failure."""
    failure = root_cause(exc, RankFailedError)
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
    retry_policy: RetryPolicy = RetryPolicy(),
    integrity: IntegrityPolicy | None = None,
) -> ChaosReport:
    """One timing-only solve under a fault plan.

    Jitter/retry plans complete (later); lethal plans (stall/crash) end
    in a structured :class:`~repro.comms.faults.RankFailedError`, which
    is reported rather than raised — graceful degradation is the point
    of a chaos run.  With an enabled ``retry_policy`` the solve instead relaunches
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
    retry_policy: RetryPolicy = RetryPolicy(),
    integrity: IntegrityPolicy | None = None,
) -> ChaosReport:
    """One *functional* solve (real numerics) under a fault plan.

    The acceptance test for self-healing solves: a weak-field
    configuration, a random source, a fault plan that kills a rank
    mid-solve — with an enabled ``retry_policy`` the report must come back
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
# Solve-service ablations: one ON/OFF runner over a declared table
# --------------------------------------------------------------------- #

#: How a parameter is recorded in the ``campaign`` entry of a
#: ``BENCH_service.json`` block: ``parameter -> (key, scale)``, the
#: recorded value being ``value * scale`` (model seconds are recorded in
#: milliseconds).  A parameter not listed is recorded under its own
#: name.  :func:`_record` writes through this table and
#: :func:`campaign_params` inverts it; nothing else knows a recorded key.
_RECORDED_AS = {
    "n_requests": ("requests", 1),
    "ranks": ("ranks_per_worker", 1),
    "rates": ("rates_rps", 1),
    "burst_start_s": ("burst_start_ms", 1e3),
    "burst_len_s": ("burst_len_ms", 1e3),
    "deadline_slack_s": ("deadline_slack_ms", 1e3),
    "kill_at_s": ("kill_at_ms", 1e3),
    "partition_at_s": ("partition_at_ms", 1e3),
    "heal_mean_s": ("heal_mean_ms", 1e3),
}


def _record(params: dict) -> dict:
    """The ``campaign`` entry of the block ``params`` produced."""
    campaign = {}
    for name, value in params.items():
        key, scale = _RECORDED_AS.get(name, (name, 1))
        if isinstance(value, tuple):
            value = list(value)
        elif scale != 1:
            value = value * scale
        campaign[key] = value
    return campaign


def campaign_params(campaign: dict, names) -> dict:
    """Invert :func:`_record`: the parameters ``names`` as a block's
    ``campaign`` entry records them, ready to run the block again."""
    params = {}
    for name in names:
        key, scale = _RECORDED_AS.get(name, (name, 1))
        value = campaign[key]
        if isinstance(value, list):
            value = tuple(value)
        elif scale != 1:
            value = value / scale
        params[name] = value
    return params


def _params(defaults: dict, overrides: dict) -> dict:
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise TypeError(f"unknown parameter(s) {unknown}; expected {sorted(defaults)}")
    return {**defaults, **overrides}


def _service_config(p: dict, n_workers: int, queue_capacity: int | None = None, **features):
    """The part of a ``ServiceConfig`` every campaign below shares."""
    from ..service import BatchPolicy, ServiceConfig

    if queue_capacity is None:
        queue_capacity = max(4 * p["n_requests"], 64)
    return ServiceConfig(
        queue_capacity=queue_capacity,
        policy=BatchPolicy(max_batch=p["max_batch"]),
        n_workers=n_workers,
        ranks_per_worker=p["ranks"],
        fixed_iterations=p["iterations"],
        **features,
    )


def _poisson_workload(p: dict, **shape):
    from ..service import synthetic_workload

    return synthetic_workload(
        p["n_requests"],
        seed=p["seed"],
        rate_rps=p["rate_rps"],
        dims=p["dims"],
        mode=p["mode"],
        **shape,
    )


def _bursty_workload(p: dict, priority_mix: tuple[float, float, float], **shape):
    from ..service import bursty_workload

    return bursty_workload(
        p["n_requests"],
        seed=p["seed"],
        base_rps=p["base_rps"],
        burst_rps=p["burst_rps"],
        burst_start_s=p["burst_start_s"],
        burst_len_s=p["burst_len_s"],
        dims=p["dims"],
        mode=p["mode"],
        priority_mix=priority_mix,
        **shape,
    )


def _breaker():
    """The per-worker circuit breaker of the two resilience campaigns.

    One hard failure trips it; the soft slow signal is muted
    (``slow_ratio=1e3``) so a known straggler is handled by hedging, not
    by repeatedly parking a third of the pool.
    """
    from ..service import HealthPolicy

    return HealthPolicy(
        enabled=True, min_samples=1, trip_rate=0.5, cooldown_s=1e-3, slow_ratio=1e3
    )


def _batching_config(p: dict, batched: bool):
    """Multi-RHS batching on (``max_batch``) versus off (batch size 1).

    Setup (gauge upload, ghost-zone allocation, operator construction)
    is paid once per *batch*, so the batched schedule completes the same
    campaign in less model time; the margin grows with lattice volume
    because the setup transfers scale with the gauge field while the
    per-iteration cost is amortized over right-hand sides.
    """
    return _service_config(
        p if batched else {**p, "max_batch": 1},
        p["workers"],
        queue_capacity=max(p["n_requests"], 1),
    )


def _residency_config(p: dict, warm: bool):
    """Gauge residency on (*warm pool*: batches route to a worker whose
    device already holds the configuration, the upload is charged only
    on a miss) versus off (*cold*: every batch pays the host→device
    gauge upload).

    With two configurations interleaving over two workers, the warm run
    settles into one-config-per-worker affinity and most batches are
    residency hits; the cold run re-uploads on every batch.  The shared
    tunecache is enabled in both runs, so the measured margin isolates
    the residency credit.
    """
    from ..service import PlacementPolicy

    return _service_config(
        p,
        p["workers"],
        queue_capacity=max(p["n_requests"], 1),
        placement=PlacementPolicy(residency=warm),
    )


def _daemon_config(p: dict, preempt: bool):
    """Refresh-boundary preemption on versus off, on an elastic pool.

    The burst drives the autoscaler up and the quiet tail back down
    (both runs share the scale trajectory: preemption does not change
    arrival accounting); preemption lets HIGH arrivals claim a worker at
    the next refresh boundary instead of queueing behind a full LOW
    batch, so the HIGH p99 improves while LOW pays the resume overhead.
    """
    from ..service import ElasticPolicy, PreemptionPolicy

    return _service_config(
        p,
        1,
        preemption=PreemptionPolicy(enabled=preempt),
        elastic=ElasticPolicy(enabled=True, min_workers=1, max_workers=6),
    )


def _resilience_config(p: dict, resilient: bool):
    """The PR-7 acceptance campaign: resilience (breaker + hedging +
    brownout) on versus off against the same hostile pool — worker 0
    flaky (one planned crash), worker 2 a ``straggler_factor``x
    straggler.

    With resilience on, the breaker quarantines the flaky worker and
    reinstates it after a clean probe, hedged replicas rescue straggling
    batches, and the brownout controller sheds LOW under the burst
    instead of blowing every deadline — so the HIGH p99 must be strictly
    better and the SLO attainment no worse than the undefended run,
    while *both* runs terminate every admitted request.
    """
    from ..comms.faults import WorkerFaultPlan
    from ..service import BrownoutPolicy, HedgePolicy

    defences = {}
    if resilient:
        defences = dict(
            health=_breaker(),
            hedge=HedgePolicy(enabled=True),
            # Thresholds scaled to this campaign's ~50 ms batches: LOW
            # sheds at about one queued batch per worker, precision
            # degrades at two, and only a three-deep backlog refuses
            # NORMAL traffic.
            brownout=BrownoutPolicy(
                enabled=True,
                shed_low_at_s=60e-3,
                degrade_at_s=120e-3,
                reject_at_s=240e-3,
            ),
        )
    return _service_config(
        p,
        p["workers"],
        max_retries=2,
        fault_plan=FaultPlan(seed=3).with_stall(0, after_s=0.0, mode="crash"),
        chaos_workers=(0,),
        worker_faults=WorkerFaultPlan().with_straggler(2, factor=p["straggler_factor"]),
        **defences,
    )


@dataclass(frozen=True)
class Ablation:
    """One ON/OFF experiment on the solve service: the same seeded
    workload served with one feature set on and off.  The *reason* for
    each lives in the docstring of its ``config`` function."""

    #: Result keys of the ON and the OFF scorecard.
    arms: tuple[str, str]
    #: Every parameter and its default; a run may override any of them.
    defaults: dict
    #: ``(params, on) -> ServiceConfig`` for one arm.
    config: Callable[[dict, bool], object]
    #: ``params -> arrivals``, called once per arm.
    workload: Callable[[dict], object]
    #: ``(result key, dotted path into a scorecard, ON over OFF?)``.
    ratio: tuple[str, str, bool]


_HIGH_P99_GAIN = ("high_p99_off_vs_on", "priority_latency.high.p99_us", False)

#: Keyed as the blocks of ``BENCH_service.json`` are.
ABLATIONS = {
    "batching": Ablation(
        arms=("batched", "unbatched"),
        defaults=dict(
            n_requests=64, dims=(16, 16, 16, 64), mode="single-half", workers=2,
            ranks=2, max_batch=8, rate_rps=2000.0, iterations=10, seed=2010,
        ),
        config=_batching_config,
        workload=_poisson_workload,
        ratio=("batched_vs_unbatched_throughput", "throughput_rps", True),
    ),
    "residency_ablation": Ablation(
        arms=("warm", "cold"),
        defaults=dict(
            n_requests=48, dims=(16, 16, 16, 64), mode="single-half", workers=2,
            ranks=2, configs=2, max_batch=8, rate_rps=2000.0, iterations=10, seed=2010,
        ),
        config=_residency_config,
        workload=lambda p: _poisson_workload(p, n_configs=p["configs"]),
        ratio=("cold_vs_warm_makespan", "makespan_us", False),
    ),
    "daemon": Ablation(
        arms=("preempt_on", "preempt_off"),
        defaults=dict(
            n_requests=96, dims=(8, 8, 8, 32), mode="single-half", ranks=2,
            max_batch=8, base_rps=300.0, burst_rps=12000.0, burst_start_s=0.01,
            burst_len_s=0.01, iterations=10, seed=11,
        ),
        config=_daemon_config,
        workload=lambda p: _bursty_workload(p, (0.2, 0.3, 0.5)),
        ratio=_HIGH_P99_GAIN,
    ),
    "resilience": Ablation(
        arms=("resilience_on", "resilience_off"),
        defaults=dict(
            n_requests=64, dims=(4, 4, 4, 8), mode="double-half", workers=3, ranks=2,
            max_batch=8, base_rps=1500.0, burst_rps=12000.0, burst_start_s=1e-3,
            burst_len_s=3e-3, deadline_slack_s=0.3, straggler_factor=3.0,
            iterations=10, seed=23,
        ),
        config=_resilience_config,
        workload=lambda p: _bursty_workload(
            p, (0.25, 0.5, 0.25), deadline_slack_s=p["deadline_slack_s"]
        ),
        ratio=_HIGH_P99_GAIN,
    ),
}


def run_ablation(name: str, **overrides) -> dict:
    """Serve ``ABLATIONS[name]``'s campaign twice — feature on, feature
    off — and report both scorecards, the ratios the entry declares and
    the parameters that produced them (``campaign``)."""
    from ..service import SolveService

    spec = ABLATIONS[name]
    p = _params(spec.defaults, overrides)
    on, off = (
        SolveService(spec.config(p, arm)).serve(spec.workload(p)).report.to_json()
        for arm in (True, False)
    )
    result = {"campaign": _record(p), spec.arms[0]: on, spec.arms[1]: off}
    key, path, on_over_off = spec.ratio
    num, den = (on, off) if on_over_off else (off, on)
    for part in path.split("."):
        num, den = num[part], den[part]
    result[key] = round(num / den, 4) if den else float("inf")
    return result


CAPACITY_DEFAULTS = dict(
    n_requests=192, dims=(4, 4, 4, 8), mode="double-half", ranks=2, max_batch=4,
    rates=(40.0, 80.0, 160.0, 320.0), workers=(2, 4), deadline_slack_s=0.15,
    iterations=10, seed=31,
)


#: The capacity sweep's tenant mixes: two tenants and their weights.
_CAPACITY_MIXES = {
    "equal": ("atlas", "bell", (1.0, 1.0)),
    "weighted_3to1": ("atlas", "bell", (3.0, 1.0)),
}


def capacity_sweep(**overrides) -> dict:
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
    p = _params(CAPACITY_DEFAULTS, overrides)
    slo_floor = 0.95
    cells = [
        _capacity_cell(p, mix_name, n_workers, rate)
        for mix_name in _CAPACITY_MIXES
        for n_workers in p["workers"]
        for rate in p["rates"]
    ]
    knees = [
        _capacity_knee(cells, mix_name, n_workers, slo_floor)
        for mix_name in _CAPACITY_MIXES
        for n_workers in p["workers"]
    ]
    return {
        "campaign": {**_record(p), "slo_floor": slo_floor},
        "cells": cells,
        "knees": knees,
        "fairness": {
            mix_name: _capacity_fairness(cells, knees, mix_name)
            for mix_name in _CAPACITY_MIXES
        },
    }


def _capacity_cell(p: dict, mix_name: str, n_workers: int, rate: float) -> dict:
    """One cell of the capacity map: a seeded two-tenant streaming
    campaign at ``rate`` on ``n_workers``."""
    from ..service import SolveService, TenancyPolicy, stream_workload

    a, b, mix_weights = _CAPACITY_MIXES[mix_name]
    config = _service_config(
        p,
        n_workers,
        seed=p["seed"],
        tenancy=TenancyPolicy.build((a, b), weights=mix_weights),
    )
    workload = stream_workload(
        p["n_requests"],
        seed=p["seed"],
        rate_rps=rate,
        dims=p["dims"],
        mode=p["mode"],
        priority_mix=(0.0, 1.0, 0.0),
        deadline_slack_s=p["deadline_slack_s"],
        tenants=(a, b),
    )
    result = SolveService(config).serve(workload)
    rep = result.report.to_json()
    # Fairness shows while *both* tenants are backlogged: a finite
    # campaign eventually serves everyone, so whole-run completion counts
    # just mirror the arrival mix.  Count completions inside the arrival
    # window instead — while load keeps arriving, the completion shares
    # are the dispatch shares WFQ controls.
    last_arrival = max(r.request.arrival_s for r in result.records)
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
    return {
        "mix": mix_name,
        "workers": n_workers,
        "rate_rps": rate,
        "slo_attainment": rep["slo_attainment"],
        "throughput_rps": rep["throughput_rps"],
        "goodput_rps": rep["goodput_rps"],
        "completed": rep["completed"],
        "failed": rep["failed"],
        "rejected": rep["rejected"],
        "lost": rep["requests"] - rep["completed"] - rep["failed"] - rep["rejected"],
        "tenants": {
            name: {
                "weight_share": t["weight_share"],
                "completed": t["completed"],
                "completed_in_window": in_window[name],
                # The fairness signal: this tenant's slice of the work
                # served while load was still arriving, which WFQ drives
                # toward weight_share under sustained backlog.
                "share": round(in_window[name] / served, 4) if served else 0.0,
                "goodput_rps": t["goodput_rps"],
                "quota_rejected": t["quota_rejected"],
            }
            for name, t in rep["tenants"].items()
        },
    }


def _capacity_knee(
    cells: list[dict], mix_name: str, n_workers: int, slo_floor: float
) -> dict:
    """The highest swept rate of one (mix, workers) series whose SLO
    attainment still holds ``slo_floor`` (``None``: none does)."""
    holding = [
        c["rate_rps"]
        for c in cells
        if c["mix"] == mix_name
        and c["workers"] == n_workers
        and c["slo_attainment"] >= slo_floor
    ]
    return {
        "mix": mix_name,
        "workers": n_workers,
        "knee_rate_rps": max(holding) if holding else None,
    }


def _capacity_fairness(cells: list[dict], knees: list[dict], mix_name: str) -> dict:
    """One mix's tenant shares over *deep* overload (rate >= 4x the
    series knee).

    WFQ shares converge to weights only while every tenant's demand
    exceeds its allocation, and single cells are quantized to batch
    granularity — summing in-window completions across the saturated
    cells is the statistically honest share estimate.
    """
    a, b, mix_weights = _CAPACITY_MIXES[mix_name]
    used = [
        c
        for k in knees
        if k["mix"] == mix_name and k["knee_rate_rps"] is not None
        for c in cells
        if c["mix"] == mix_name
        and c["workers"] == k["workers"]
        and c["rate_rps"] >= 4 * k["knee_rate_rps"]
    ]
    counts = {
        name: sum(c["tenants"][name]["completed_in_window"] for c in used)
        for name in (a, b)
    }
    total = sum(counts.values())
    shares = {name: (counts[name] / total if total else 0.0) for name in counts}
    weight_shares = {
        a: mix_weights[0] / sum(mix_weights),
        b: mix_weights[1] / sum(mix_weights),
    }
    normalized = [
        shares[name] / weight_shares[name] if shares[name] else 0.0
        for name in counts
    ]
    return {
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
    """The saturated scheduler campaign of the wall-clock measurements.

    :func:`throughput_benchmark` times it and the benchmark ledger's
    ``serve-saturated`` workload runs it at 4096 requests.  To see where
    its host time goes, profile the same shape from the command line:
    ``python -m cProfile -s cumtime -m repro serve --requests 128
    --rate 20000 --workers 2 --ranks 2 --batch-max 4 --queue-capacity 4096
    --iterations 10 --dims 4,4,4,8``.

    A high arrival rate against a small lattice keeps the backlog deep
    for the whole run, so wall-clock time is dominated by the scheduler
    hot path (ordering, batch selection, placement, perf-model
    evaluation) rather than by the simulated solves.  Returns
    ``(config, workload)``; the same seed always yields the same campaign.
    """
    from ..service import synthetic_workload

    config = _service_config(
        dict(max_batch=max_batch, ranks=ranks, iterations=iterations),
        workers,
        queue_capacity,
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
        "campaign": _record(
            dict(
                n_requests=n_requests,
                warmup_requests=warmup_requests,
                repeats=repeats,
                queue_capacity=config.queue_capacity,
                max_batch=config.policy.max_batch,
                workers=config.n_workers,
                ranks=config.ranks_per_worker,
                iterations=config.fixed_iterations,
                **campaign_kwargs,
            )
        ),
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


#: The ablation whose block is the top level of a service bench, not an
#: entry of it: it was the whole file once.
_TOP_LEVEL = "batching"


def ablation_block(bench: dict, name: str) -> dict:
    """Ablation ``name``'s block of a service bench."""
    return bench if name == _TOP_LEVEL else bench[name]


def service_bench() -> dict:
    """Every model-time block of ``BENCH_service.json`` at its defaults:
    pure functions of the schedule, so two runs are equal value for
    value (``tests/bench/test_service_bench.py`` holds the file to it)."""
    blocks = {name: run_ablation(name) for name in ABLATIONS}
    return {**blocks.pop(_TOP_LEVEL), **blocks, "capacity_map": capacity_sweep()}


def write_service_bench(path: str = "BENCH_service.json") -> dict:
    """Write :func:`service_bench` plus the wall-clock (machine-specific)
    :func:`throughput_benchmark` to ``path``: the one service-bench
    artifact, and this its one writer."""
    result = service_bench()
    result["throughput"] = {**throughput_benchmark(), "history": THROUGHPUT_HISTORY}
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result
