"""The top-level solver interface (QUDA's ``invertQuda`` analogue).

One call — :func:`invert` — runs the full paper pipeline on a simulated
GPU cluster:

1. slice the time dimension over ``n_gpus`` ranks (Section VI-A), one
   MPI process bound per GPU, NUMA placement per the cluster policy;
2. upload each rank's gauge slab and clover blocks at the requested
   precision(s), including the one-time gauge ghost exchange into the pad
   region (Section VI-B);
3. even-odd precondition the source on the device (Section II);
4. run the reliably-updated BiCGstab (or CGNR) solver at the sloppy
   precision with full-precision refreshes (Sections V-D, VI-E), with
   either communication strategy (Section VI-D);
5. reconstruct the full solution and download it.

:func:`invert` is the *functional* entry point (real numerics, host
fields in and out).  :func:`invert_model` is the *timing-only* entry
point used by the benchmark harness at paper-scale volumes: it takes just
the lattice dimensions, runs the identical kernel/communication schedule
for a fixed iteration count, and reports the same
:class:`~repro.core.interface.SolveStats`.

**Self-healing** (the resilience layer): every reliable-update refresh
checkpoints the solve into a rank-collective
:class:`~repro.core.solvers.checkpoint.CheckpointStore`; with a
:class:`~repro.core.solvers.resilience.RetryPolicy` enabled on the invert
params, a rank killed by a :class:`~repro.comms.faults.FaultPlan`
triggers a bounded relaunch (optionally re-partitioned over the
survivors) that resumes from the last checkpoint, and numerical
breakdowns walk a deterministic escalation ladder (restart →
BiCGstab→CG → sloppy precision up a notch) in lockstep on all ranks.

**Data integrity**: with an :class:`~repro.comms.faults.IntegrityPolicy`
active (on by default whenever the bound fault plan injects corruption),
every message travels in a checksummed envelope verified on receive,
ghost zones are re-verified after scatter, and the solvers monitor cheap
algebraic invariants on their existing reductions.  Detected wire
corruption is repaired by bounded NACK/resend; detected resident-state
corruption walks a dedicated ``checkpoint_restore`` ladder rung that
restores the last verified checkpoint without consuming the numerical
escalation budget.  :class:`~repro.core.interface.SolveStats` reports
detections, corrections, and the verification overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..comms.cluster import ClusterSpec
from ..comms.faults import FaultEvent, FaultPlan, IntegrityPolicy
from ..comms.mpi_sim import Comm, CommStats
from ..comms.qmp import QMPMachine
from ..gpu.device import VirtualGPU
from ..gpu.precision import Precision
from ..gpu.specs import GTX285, GPUSpec
from ..gpu.streams import Timeline
from ..lattice.clover import make_clover
from ..lattice.evenodd import EVEN, full_to_parity, parity_to_full
from ..lattice.fields import GaugeField, SpinorField
from ..lattice.geometry import LatticeGeometry
from .autotune import TuneCache, autotune
from .dslash import DeviceSchurOperator, diagonal_blocks
from .interface import QudaGaugeParam, QudaInvertParam, SolveStats
from .solvers.bicgstab import bicgstab_solve
from .solvers.cg import cg_solve
from .solvers.checkpoint import CheckpointStore
from .solvers.defect import defect_correction_solve
from .solvers.resilience import (
    EscalationLadder,
    RecoveryEvent,
    SolverBreakdown,
    run_with_recovery,
)
from .solvers.stopping import LocalSolveInfo

__all__ = [
    "InvertResult",
    "invert",
    "invert_multi",
    "invert_model",
    "invert_model_multi",
]

#: The largest magnitude a single or half field holds without Inf.
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass
class InvertResult:
    """Outcome of one :func:`invert` call."""

    solution: SpinorField | None
    stats: SolveStats
    per_rank: list[LocalSolveInfo]
    #: Verified ``|b - M x| / |b|`` against the host reference operator
    #: (functional mode only).
    true_residual: float | None = None
    #: Peak device memory over ranks (bytes) — the footprint the paper's
    #: "at least 8 GPUs" constraint comes from.
    peak_device_bytes: int = 0
    #: Fault schedule injected by the bound FaultPlan (chaos runs only;
    #: empty for healthy runs).  Merged across ranks and attempts, stable
    #: order within each attempt.
    fault_events: list[FaultEvent] = field(default_factory=list)
    #: Per-rank comm counters (sends/recvs/retries/injected delay) of the
    #: final (successful) attempt.
    comm_stats: list[CommStats] = field(default_factory=list)
    #: The recovery ledger: rank failures, relaunches, checkpoint
    #: resumes, and breakdown-ladder rungs, in decision order.
    #: Deterministic for a given fault-plan seed.
    recovery_events: list[RecoveryEvent] = field(default_factory=list)
    #: Process grid the solve was asked for: ``(ranks_z, ranks_t)`` for
    #: a pinned grid, ``None`` for the paper's time slicing over
    #: ``n_gpus`` (run as the ``(1, n)`` grid, which may shrink over the
    #: survivors of a rank failure) — the placement layer's audit trail.
    grid: tuple[int, int] | None = None
    #: Rank 0's GPU timeline of the attempt that finished: every op of the
    #: setup and of all sources, so ``per_rank[0].t_start``/``t_end`` cut
    #: out this source's solver window (what ``repro profile`` renders).
    timeline: Timeline | None = None

    @property
    def recoveries(self) -> int:
        """Rank-failure relaunches survived (0 for a healthy solve)."""
        return self.stats.recoveries


def invert(
    gauge: GaugeField,
    source: SpinorField,
    inv: QudaInvertParam,
    *,
    n_gpus: int = 1,
    grid: tuple[int, int] | None = None,
    gauge_param: QudaGaugeParam | None = None,
    cluster: ClusterSpec | None = None,
    gpu_spec: GPUSpec = GTX285,
    enforce_memory: bool = False,
    tune_cache: TuneCache | None = None,
    verify: bool = True,
    fault_plan: FaultPlan | None = None,
    integrity: IntegrityPolicy | None = None,
) -> InvertResult:
    """Solve ``M x = source`` for the Wilson-clover matrix on ``gauge``.

    Functional mode: real numerics at the requested precisions on a
    simulated cluster of ``n_gpus`` devices.  ``enforce_memory`` applies
    the 2 GiB per-card capacity (off by default so small-machine tests
    don't need paper-size cards).

    ``grid=None`` is the paper's time slicing over ``n_gpus`` ranks (the
    ``(1, n_gpus)`` grid; a recovering solve may shrink it over the
    survivors).  ``grid = (ranks_z, ranks_t)`` pins a process grid — the
    multi-dimensional decomposition of Section VI-A's future work when
    ``ranks_z > 1`` — and ``n_gpus`` is then ignored in favour of the
    grid's rank count.  ``tune_cache=None`` derives the kernel tunings
    fresh (Section V-E).
    """
    return invert_multi(
        gauge,
        [source],
        inv,
        n_gpus=n_gpus,
        grid=grid,
        gauge_param=gauge_param,
        cluster=cluster,
        gpu_spec=gpu_spec,
        enforce_memory=enforce_memory,
        tune_cache=tune_cache,
        verify=verify,
        fault_plan=fault_plan,
        integrity=integrity,
    )[0]


def invert_multi(
    gauge: GaugeField,
    sources: list[SpinorField],
    inv: QudaInvertParam,
    *,
    n_gpus: int = 1,
    grid: tuple[int, int] | None = None,
    gauge_param: QudaGaugeParam | None = None,
    cluster: ClusterSpec | None = None,
    gpu_spec: GPUSpec = GTX285,
    enforce_memory: bool = False,
    tune_cache: TuneCache | None = None,
    verify: bool = True,
    fault_plan: FaultPlan | None = None,
    integrity: IntegrityPolicy | None = None,
) -> list[InvertResult]:
    """Solve ``M x = b`` for many right-hand sides on one setup.

    The production pattern of the paper's analysis campaigns ("The
    calculations involve 32768 calls to the solver for each
    configuration", Section VIII): the gauge/clover upload, the one-time
    gauge ghost exchange, and the autotuning are paid once; the solver
    loop runs per source.  Returns one :class:`InvertResult` per source.

    A source must be finite and, unless both precisions are ``DOUBLE``,
    within float32 range: a single or half device field would hold an
    out-of-range entry as Inf, and the solve would only break down
    iterations later.
    """
    if not sources:
        raise ValueError("need at least one source")
    narrow = inv.precision is not Precision.DOUBLE or inv.precision_sloppy is not Precision.DOUBLE
    for i, src in enumerate(sources):
        if src.geometry.dims != gauge.geometry.dims:
            raise ValueError(
                f"source {i} geometry {src.geometry.dims} does not match the "
                f"gauge geometry {gauge.geometry.dims}: every source of one "
                "invert_multi call shares a single device setup (gauge "
                "upload, ghost exchange, operators), so all sources must "
                "share one geometry and one precision recipe"
            )
        # Real and imaginary parts side by side, without a temporary copy.
        parts = np.ascontiguousarray(src.data).view(src.data.real.dtype)
        lo, hi = parts.min(), parts.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"source {i} has a non-finite entry")
        peak = max(hi, -lo)
        if narrow and peak > _FLOAT32_MAX:
            raise ValueError(
                f"source {i} has an entry of magnitude {peak:.3g}, beyond the "
                f"float32 range of {inv.precision.name}/"
                f"{inv.precision_sloppy.name} precision"
            )
    clover_blocks = (
        make_clover(gauge, c_sw=inv.clover_coeff).data
        if inv.clover_coeff != 0.0
        else None
    )
    results = _run(
        geometry=gauge.geometry,
        inv=inv,
        n_gpus=n_gpus,
        grid=grid,
        gauge_param=gauge_param or QudaGaugeParam(precision=inv.precision),
        cluster=cluster or ClusterSpec(),
        gpu_spec=gpu_spec,
        enforce_memory=enforce_memory,
        tune_cache=tune_cache,
        execute=True,
        host_gauge=gauge,
        host_clover=clover_blocks,
        host_sources=sources,
        fault_plan=fault_plan,
        integrity=integrity,
    )
    if verify:
        from ..lattice.dirac import WilsonCloverOperator
        from ..lattice.fields import CloverField

        clover = (
            CloverField(gauge.geometry, clover_blocks)
            if clover_blocks is not None
            else None
        )
        op = WilsonCloverOperator(gauge, inv.mass, clover)
        for source, result in zip(sources, results):
            r = source.data - op.apply(result.solution).data
            result.true_residual = float(
                np.linalg.norm(r) / np.linalg.norm(source.data)
            )
    return results


def invert_model(
    dims: tuple[int, int, int, int],
    inv: QudaInvertParam,
    *,
    n_gpus: int = 1,
    grid: tuple[int, int] | None = None,
    gauge_param: QudaGaugeParam | None = None,
    cluster: ClusterSpec | None = None,
    gpu_spec: GPUSpec = GTX285,
    enforce_memory: bool = True,
    tune_cache: TuneCache | None = None,
    fault_plan: FaultPlan | None = None,
    integrity: IntegrityPolicy | None = None,
) -> InvertResult:
    """Timing-only solve at paper scale (no field data, exact schedule).

    Runs ``inv.fixed_iterations`` iterations of the identical kernel and
    communication sequence and reports sustained effective Gflops; device
    memory is fully accounted (and enforced by default), so configurations
    that do not fit raise :class:`~repro.gpu.memory.DeviceOutOfMemoryError`
    exactly as the paper describes for the 32^3 x 256 mixed-precision
    solve on fewer than 8 GPUs.
    """
    return invert_model_multi(
        dims,
        inv,
        n_sources=1,
        n_gpus=n_gpus,
        grid=grid,
        gauge_param=gauge_param,
        cluster=cluster,
        gpu_spec=gpu_spec,
        enforce_memory=enforce_memory,
        tune_cache=tune_cache,
        fault_plan=fault_plan,
        integrity=integrity,
    )[0]


def invert_model_multi(
    dims: tuple[int, int, int, int],
    inv: QudaInvertParam,
    *,
    n_sources: int = 1,
    n_gpus: int = 1,
    grid: tuple[int, int] | None = None,
    gauge_param: QudaGaugeParam | None = None,
    cluster: ClusterSpec | None = None,
    gpu_spec: GPUSpec = GTX285,
    enforce_memory: bool = True,
    tune_cache: TuneCache | None = None,
    fault_plan: FaultPlan | None = None,
    integrity: IntegrityPolicy | None = None,
) -> list[InvertResult]:
    """Timing-only multi-RHS solve: ``n_sources`` solver loops, one setup.

    The schedule analogue of :func:`invert_multi` — the gauge/clover
    upload, the gauge ghost exchange, and the autotuning are paid once,
    then ``inv.fixed_iterations`` iterations run per source.  This is the
    batch a solve *service* dispatches: the amortization it buys is
    exactly what a batching policy trades queueing delay against.
    Returns one :class:`InvertResult` per source; per-rank
    ``t_start``/``t_end`` bracket each source's window on the shared
    timeline, so ``per_rank[i].t_end`` of the last source is the total
    batch model time on rank ``i``.
    """
    if n_sources < 1:
        raise ValueError("need at least one source")
    geometry = LatticeGeometry(dims)
    return _run(
        geometry=geometry,
        inv=inv,
        n_gpus=n_gpus,
        grid=grid,
        gauge_param=gauge_param or QudaGaugeParam(precision=inv.precision),
        cluster=cluster or ClusterSpec(),
        gpu_spec=gpu_spec,
        enforce_memory=enforce_memory,
        tune_cache=tune_cache,
        execute=False,
        host_gauge=None,
        host_clover=None,
        host_sources=None,
        n_model_sources=n_sources,
        fault_plan=fault_plan,
        integrity=integrity,
    )


# ------------------------------------------------------------------------ #
# Breakdown escalation (per source, inside the SPMD body)
# ------------------------------------------------------------------------ #


def _solve_with_escalation(
    *,
    inv: QudaInvertParam,
    op_full: DeviceSchurOperator,
    get_sloppy,
    b_hat,
    x_p,
    source: int,
    rank: int,
    local: LatticeGeometry,
    slab,
    store: CheckpointStore,
    execute: bool,
    solver_kwargs: dict,
) -> LocalSolveInfo:
    """One source's solve, wrapped in the breakdown-escalation ladder.

    Every :class:`SolverBreakdown` is raised identically on all ranks
    (the guarded scalars are global reductions), so each rank walks the
    ladder in lockstep with zero extra communication: restart from the
    last checkpoint, then switch BiCGstab→CG, then raise the sloppy
    precision a notch at a time.  A relaunched attempt lands here too —
    ``store.latest`` then hands back the checkpointed configuration and
    solution of the previous attempt.

    Breakdowns of kind ``'corruption'`` (invariant-monitor hits on
    resident state) take the dedicated ``checkpoint_restore`` rung
    instead: resume from the last *verified* checkpoint with the same
    solver and precision, on a separate bounded budget that does not
    consume the numerical escalation rungs.
    """
    ckpt = store.latest(source)
    if ckpt is not None:
        solver_name = ckpt.solver
        sloppy_prec = Precision[ckpt.sloppy_precision]
    else:
        solver_name = inv.solver
        sloppy_prec = inv.precision_sloppy
    ladder = EscalationLadder(
        solver=solver_name,
        sloppy=sloppy_prec,
        full=inv.precision,
        max_steps=inv.max_escalations,
    )
    op_sloppy, owned = get_sloppy(sloppy_prec)
    parity = inv.solve_parity

    def on_refresh(*, iteration, rnorm, reliable_updates, history) -> None:
        # Refresh-point checkpoint: embed this rank's parity solution
        # into its full-lattice slab (off-parity zeros); the store
        # commits globally once every rank has contributed.  The solution
        # is taken at the precision x_p stores it in (complex64 in a
        # single-precision solve), which loses nothing.
        x_slab = None
        if execute:
            xp = x_p.get() if x_p.precision.needs_norm else x_p.working()
            zeros = np.zeros_like(xp)
            x_slab = (
                parity_to_full(local, xp, zeros)
                if parity == EVEN
                else parity_to_full(local, zeros, xp)
            )
        store.contribute(
            source,
            rank,
            iteration=iteration,
            rnorm=rnorm,
            reliable_updates=reliable_updates,
            history=history,
            solver=solver_name,
            sloppy_precision=sloppy_prec.name,
            slab=x_slab,
        )

    try:
        while True:
            resume = store.latest(source)
            if resume is not None:
                if execute and resume.x_full is not None:
                    x_p.set(full_to_parity(local, resume.x_full[slab], parity))
                store.note_resume(source, resume.iteration)
            solve = bicgstab_solve if solver_name == "bicgstab" else cg_solve
            try:
                return solve(
                    op_full,
                    op_sloppy,
                    b_hat,
                    x_p,
                    resume=resume,
                    on_refresh=on_refresh,
                    divergence_factor=inv.divergence_factor,
                    stagnation_window=inv.stagnation_window,
                    **solver_kwargs,
                )
            except SolverBreakdown as bd:
                step = (
                    ladder.corruption_step(solver_name, sloppy_prec)
                    if bd.kind == "corruption"
                    else ladder.next_step()
                )
                if step is None:
                    raise
                if rank == 0:  # one ledger entry; the decision is global
                    ckpt_iter = resume.iteration if resume is not None else 0
                    store.log_event(
                        RecoveryEvent(
                            step.kind,
                            attempt=store.attempt,
                            source=source,
                            iteration=bd.iteration,
                            wasted_iterations=max(0, bd.iteration - ckpt_iter),
                            detail=(
                                f"{bd.kind}; retry with {step.solver}/"
                                f"{step.sloppy.name.lower()}"
                            ),
                        )
                    )
                solver_name = step.solver
                if step.sloppy is not sloppy_prec:
                    if owned:
                        op_sloppy.release()
                    sloppy_prec = step.sloppy
                    op_sloppy, owned = get_sloppy(sloppy_prec)
    finally:
        if owned:  # escalated operator built for this source only
            op_sloppy.release()


# ------------------------------------------------------------------------ #
# Shared SPMD driver
# ------------------------------------------------------------------------ #


def _run(
    *,
    geometry: LatticeGeometry,
    inv: QudaInvertParam,
    n_gpus: int,
    gauge_param: QudaGaugeParam,
    cluster: ClusterSpec,
    gpu_spec: GPUSpec,
    enforce_memory: bool,
    execute: bool,
    tune_cache: TuneCache | None = None,
    host_gauge: GaugeField | None,
    host_clover: np.ndarray | None,
    host_sources: list[SpinorField] | None,
    grid: tuple[int, int] | None = None,
    n_model_sources: int = 1,
    fault_plan: FaultPlan | None = None,
    integrity: IntegrityPolicy | None = None,
) -> list[InvertResult]:
    if tune_cache is None:
        # No shared cache supplied: derive the tunings fresh (the
        # pre-placement-layer behaviour; the service hands in a
        # SharedTuneCache-backed cache to amortize this).
        tune_cache = autotune(gpu_spec)
    n_sources = (
        len(host_sources) if host_sources is not None else n_model_sources
    )
    store = CheckpointStore(n_sources)

    def make_body(slicing):
        def body(comm: Comm) -> dict:
            rank = comm.rank
            local = slicing.locals[rank]
            gpu = VirtualGPU(
                spec=gpu_spec,
                params=cluster.params,
                execute=execute,
                numa_ok=cluster.numa_ok(rank),
                enforce_memory=enforce_memory,
                name=f"gpu{rank}",
            )
            comm.bind_timeline(gpu.timeline)
            qmp = QMPMachine(comm, grid=slicing.machine_grid)
            # Global sites of this rank's slab — built only in functional
            # mode (a Z-split index table at paper scale is huge).  Time
            # slicing hands back a slice, so the slabs below are views.
            slab = slicing.local_sites(rank) if execute else None

            gauge_slab = host_gauge.data[:, slab] if host_gauge is not None else None
            clover_slab = host_clover[slab] if host_clover is not None else None

            def setup_operator(
                precision: Precision, diagonal=None
            ) -> DeviceSchurOperator:
                return DeviceSchurOperator.setup(
                    gpu,
                    qmp,
                    local,
                    gauge_slab,
                    clover_slab,
                    inv.mass,
                    precision=precision,
                    compressed=gauge_param.reconstruct_12,
                    overlap=inv.overlap_comms,
                    pad=gauge_param.pad_spatial_volume,
                    occupancy={"dslash": tune_cache.occupancy("dslash", precision)},
                    solve_parity=inv.solve_parity,
                    diagonal=diagonal,
                )

            # Both precisions upload the same host blocks: prepare them
            # once, and let them go before the solve (an escalation's
            # fresh operator prepares its own).
            diagonal = (
                diagonal_blocks(local, clover_slab, inv.mass, inv.solve_parity)
                if execute
                else None
            )
            op_full = setup_operator(inv.precision, diagonal)
            op_sloppy = (
                setup_operator(inv.precision_sloppy, diagonal)
                if inv.mixed_precision
                else op_full  # no duplicate storage in uniform precision
            )
            del diagonal

            def get_sloppy(precision: Precision):
                """(operator, owned) at a precision the escalation ladder
                asked for; existing operators are reused unowned, and the
                ghost exchange of a fresh build matches on all ranks
                because ladder decisions are lockstep."""
                if precision is inv.precision:
                    return op_full, False
                if precision is inv.precision_sloppy:
                    return op_sloppy, False
                return setup_operator(precision), True

            # ---- one solve per right-hand side, amortizing the setup ---- #
            # This is the production pattern the paper's conclusion
            # stresses: "The calculations involve 32768 calls to the
            # solver for each configuration" — gauge/clover upload, ghost
            # exchange, and autotuning happen once, the solver loop many
            # times.
            per_source = []
            for s in range(n_sources):
                done = store.completed(s)
                if done is not None:
                    # Solved by a previous attempt: reuse the committed
                    # global solution instead of burning iterations.
                    x_global, done_info = done
                    per_source.append(
                        {
                            "info": done_info,
                            "solution": (
                                x_global[slab]
                                if execute and x_global is not None
                                else None
                            ),
                        }
                    )
                    continue
                parity = inv.solve_parity
                b_p = op_full.make_spinor("b_p")
                b_q = op_full.make_spinor("b_q")
                gpu.memcpy("source_h2d", "h2d", b_p.nbytes + b_q.nbytes)
                if execute:
                    src_slab = host_sources[s].data[slab]
                    b_p.set(full_to_parity(local, src_slab, parity))
                    b_q.set(full_to_parity(local, src_slab, 1 - parity))
                scratch = op_full.make_spinor("scratch")
                b_hat = op_full.make_spinor("b_hat")
                op_full.prepare_source(b_p, b_q, scratch, b_hat)
                # Device memory is the scarce resource (Section VII-C):
                # release what the solve does not need; b_q stays for the
                # reconstruction.
                b_p.release()
                scratch.release()

                x_p = op_full.make_spinor("x_p")
                solver_kwargs = dict(
                    tol=inv.tol,
                    delta=inv.delta,
                    maxiter=inv.maxiter,
                    fixed_iterations=inv.fixed_iterations,
                    corruption_factor=inv.corruption_factor,
                )
                if inv.use_defect_correction:
                    # The defect-correction baseline keeps its own restart
                    # machinery; recovery still works via from-scratch
                    # relaunch (no mid-solve checkpoints).
                    info = defect_correction_solve(
                        op_full, op_sloppy, b_hat, x_p, tol=inv.tol,
                        maxiter=inv.maxiter,
                    )
                else:
                    info = _solve_with_escalation(
                        inv=inv,
                        op_full=op_full,
                        get_sloppy=get_sloppy,
                        b_hat=b_hat,
                        x_p=x_p,
                        source=s,
                        rank=rank,
                        local=local,
                        slab=slab,
                        store=store,
                        execute=execute,
                        solver_kwargs=solver_kwargs,
                    )

                # Reconstruction and download.
                scratch = op_full.make_spinor("scratch2")
                x_q = op_full.make_spinor("x_q")
                op_full.reconstruct(x_p, b_q, scratch, x_q)
                gpu.memcpy("solution_d2h", "d2h", x_p.nbytes + x_q.nbytes)
                solution_slab = None
                if execute:
                    even_cb, odd_cb = (
                        (x_p.get(), x_q.get()) if parity == EVEN
                        else (x_q.get(), x_p.get())
                    )
                    solution_slab = parity_to_full(local, even_cb, odd_cb)
                per_source.append({"info": info, "solution": solution_slab})
                store.record_result(s, rank, slab=solution_slab, info=info)
                for f in (b_q, b_hat, x_p, scratch, x_q):
                    f.release()
            return {
                "solves": per_source,
                "peak_bytes": gpu.allocator.peak_bytes,
                "timeline": gpu.timeline,
            }

        return body

    out = run_with_recovery(
        geometry=geometry,
        n_gpus=n_gpus,
        grid=grid,
        cluster=cluster,
        fault_plan=fault_plan,
        policy=inv.retry_policy,
        store=store,
        make_body=make_body,
        integrity=integrity,
        # A timing-only body moves no data: its clock depends on its rank
        # only through numa_ok and the kinds of its links.
        rank_uniform=not execute,
    )
    slicing = out.slicing
    outcomes = out.results
    peak = max(o["peak_bytes"] for o in outcomes)
    events = store.events()

    results = []
    for s in range(n_sources):
        infos = [o["solves"][s]["info"] for o in outcomes]
        # Global events (relaunches, rank failures: source == -1) count
        # against every source; ladder/resume events are source-scoped.
        src_events = [e for e in events if e.source in (-1, s)]
        stats = SolveStats(
            iterations=infos[0].iterations,
            residual_norm=infos[0].residual_norm,
            converged=infos[0].converged,
            model_time=max(i.seconds for i in infos) + out.lost_time_s,
            total_flops=sum(i.flops for i in infos),
            reliable_updates=infos[0].reliable_updates,
            history=infos[0].history,
            recoveries=sum(1 for e in src_events if e.kind == "relaunch"),
            restarts=sum(
                1
                for e in src_events
                if e.kind in ("restart", "solver_switch", "precision_escalation")
            ),
            precision_escalations=sum(
                1 for e in src_events if e.kind == "precision_escalation"
            ),
            solver_switches=sum(
                1 for e in src_events if e.kind == "solver_switch"
            ),
            wasted_iterations=sum(e.wasted_iterations for e in src_events),
            lost_time=out.lost_time_s,
            corruptions_detected=(
                sum(cs.corruptions_detected for cs in out.comm_stats)
                + sum(1 for e in src_events if e.kind == "checkpoint_restore")
            ),
            corruptions_corrected=(
                sum(cs.corruptions_corrected for cs in out.comm_stats)
                + sum(1 for e in src_events if e.kind == "checkpoint_restore")
            ),
            integrity_overhead=max(
                (cs.integrity_overhead_s for cs in out.comm_stats),
                default=0.0,
            ),
        )
        solution = None
        if execute:
            full = slicing.gather([o["solves"][s]["solution"] for o in outcomes])
            solution = SpinorField(geometry, full)
        results.append(
            InvertResult(
                solution=solution,
                stats=stats,
                per_rank=infos,
                peak_device_bytes=peak,
                fault_events=out.fault_events,
                comm_stats=out.comm_stats,
                recovery_events=src_events,
                grid=grid,
                timeline=outcomes[0]["timeline"],
            )
        )
    return results
