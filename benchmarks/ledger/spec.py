"""The ledger's vocabulary: workloads, end-to-end metrics, traced spans.

Pure data — no repro or NumPy import — so the runner, the workload
subprocess, the tests and ``BENCHMARK.json`` all read one table.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Pinned before NumPy loads: two SimMPI rank threads already fill a
#: 2-core box, and unpinned BLAS widens run-to-run spread from about
#: +-1 % to +-7 %.
BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

DEFAULT_SEED = 2010
#: Never used while a change is written; a claimed gain must hold here too.
HELD_OUT_SEED = 2011
#: How long one run measures each workload (``BENCHMARK.json`` agrees) ...
RUN_SECONDS = 10
#: ... but a timing is always the median of at least this many repetitions
#: (a workload may ask for more).
MIN_REPS = 3

#: name -> why it exists (one line; ``BENCHMARK.json`` carries the same).
WORKLOADS: dict[str, str] = {
    "solve-mixed": (
        "functional 8^3x16 single-half solve on 2 ranks: arithmetic and "
        "half-precision decode dominate, so the gpu layer does the work"
    ),
    "solve-small-double": (
        "functional 4^3x16 uniform-double solve on 2 ranks: 256 sites per "
        "rank, so per-call cost rules and no half encode/decode runs"
    ),
    "model-sweep": (
        "timing-only 24^3x128 single-half solves, overlap on/off x "
        "2..32 GPUs: rank-thread rendezvous, so comms does the work"
    ),
    "serve-saturated": (
        "4096-request 20k rps campaign, every optional subsystem off: deep "
        "backlog, so queueing/batching/placement do the work"
    ),
    "serve-steady": (
        "20000-request 100 rps stream with tenancy, health, hedge, brownout "
        "and preemption on: shallow queue, every feature hook live"
    ),
    "serve-durable": (
        "the serve-steady stack at 600 requests with a checkpoint per batch, "
        "one scheduler crash and a resume: campaign + codec do the work"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "host" (wall clock of this machine) or "model" (the simulator's
    #: deterministic clock); stated on every number the runner prints.
    clock: str
    better: str
    #: Share of the reference median (or absolute step, where ``absolute``)
    #: by which the metric may worsen before it counts as a regression.
    bound: float
    workloads: tuple[str, ...]
    #: Model-clock metrics repeat bit-for-bit; any difference is a change
    #: of behaviour, not noise.
    exact: bool = False
    absolute: bool = False


_ALL = tuple(WORKLOADS)
_SOLVES = ("solve-mixed", "solve-small-double")
_SERVES = ("serve-saturated", "serve-steady", "serve-durable")

#: The nine end-to-end metrics a user of the system would see.  The host
#: wall bounds are 15 %, not the 10 % first proposed: two back-to-back sets of
#: the same code differed by up to 10.4 % here (``solve-mixed`` settles at
#: 6.8 s in one process and 7.5 s in the next), and a bound inside the noise
#: cannot be resolved.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "host", "lower", 0.25, _ALL),
    Metric("peak_rss_mb", "MiB", "host", "lower", 0.05, _ALL),
    Metric("solve_wall_s", "s", "host", "lower", 0.15, _SOLVES),
    Metric("model_sweep_wall_s", "s", "host", "lower", 0.15, ("model-sweep",)),
    Metric(
        "model_anchor_err_pct", "%", "model", "lower", 0.5, ("model-sweep",),
        exact=True, absolute=True,
    ),
    Metric("serve_req_per_wall_s", "1/s", "host", "higher", 0.15, _SERVES),
    Metric(
        "serve_model_p99_ms", "ms", "model", "lower", 0.02, ("serve-steady",),
        exact=True,
    ),
    Metric(
        "serve_slo_attainment", "share", "model", "higher", 0.005,
        ("serve-steady",), exact=True, absolute=True,
    ),
    Metric("failed_share", "share", "host", "lower", 0.0, _ALL, exact=True, absolute=True),
)

#: What ``BENCHMARK.json`` lists under ``end_to_end``.  Its contract wants
#: every end-to-end metric on every workload and never zero, so the three
#: per-family wall metrics above fold into ``op_wall_s`` (the same number
#: under one name); ``failed_share`` travels as ``failed``/``attempted``;
#: the model-clock metrics are bit-exact, so the correctness gate holds
#: them and ``--trace 1`` reports them.  These bounds are judged across
#: *different* seeds, whose inputs differ in work (iterations, batches),
#: so ``op_wall_s`` needs more room than the same-seed 15 % above.
DRIVER_END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "host", "lower", 0.25, _ALL),
    Metric("peak_rss_mb", "MiB", "host", "lower", 0.05, _ALL),
    Metric("op_wall_s", "s", "host", "lower", 0.25, _ALL),
)

#: Traced spans by layer; ``True`` marks the ones that also report
#: ``self_s`` (busy minus same-thread child spans).
SPANS: dict[str, bool] = {
    "lattice.weak_field_gauge": False,
    "lattice.make_clover": False,
    "lattice.host_apply": False,
    "gpu.dslash_kernel": False,
    "gpu.clover_kernel": False,
    "gpu.gather_face_kernel": False,
    "gpu.spinor_set": False,
    "gpu.spinor_get": False,
    "gpu.gauge_set": False,
    "gpu.timeline": False,
    "gpu.memcpy": False,
    "comms.spmd_run": True,
    "comms.rank_body": False,
    "comms.send": False,
    "comms.recv": False,
    "comms.request_wait": False,
    "comms.allreduce": False,
    "core.invert": True,
    "core.invert_model": True,
    "core.schur_setup": False,
    "core.schur_apply": True,
    "core.dslash_with_exchange": True,
    "core.blas": True,
    "core.bicgstab_solve": True,
    "core.autotune": False,
    "core.solve_checkpoint": False,
    "service.serve": True,
    "service.workload_next": False,
    "service.queue_offer": False,
    "service.queue_ordered": False,
    "service.queue_remove": False,
    "service.select_batch": False,
    "service.partition_by_tenant": False,
    "service.place": False,
    "service.worker_execute": False,
    "service.tenancy": False,
    "service.health": False,
    "service.checkpoint_commit": True,
    "service.checkpoint_latest": False,
    "service.report_collect": False,
    "codec.encode_record": False,
    "codec.decode_record": False,
    "bench.run_scaling_point": True,
}

#: Exact counts and derived numbers: name -> (unit, better).
DERIVED: dict[str, tuple[str, str]] = {
    "core.solver.iterations": ("count", "lower"),
    "core.solver.reliable_updates": ("count", "lower"),
    "comms.messages": ("count", "lower"),
    "comms.bytes_sent": ("B", "lower"),
    "service.batches": ("count", "lower"),
    "service.checkpoint.bytes_last": ("B", "lower"),
    "service.us_per_request": ("us", "lower"),
    "model.gflops_32_overlap": ("Gflops", "higher"),
    "model.gflops_32_no_overlap": ("Gflops", "higher"),
    "core.invert.rank1_wall_s": ("s", "lower"),
    "core.invert.rank_scaling_eff": ("ratio", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "model_anchor_err_pct": ("%", "lower"),
    "serve_model_p99_ms": ("ms", "lower"),
    "serve_slo_attainment": ("share", "higher"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``."""
    out = []
    for span, has_self in SPANS.items():
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.busy_s", "s", "lower"))
        if has_self:
            out.append((f"{span}.self_s", "s", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in DERIVED.items())
    return out


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 1000:
            ordered = sorted(samples)
            return p, ordered[min(n - 1, (n * p) // 100)]
    return None


def worse_by(metric: Metric, reference: float, value: float) -> float:
    """How much worse ``value`` is than ``reference``, in the bound's own
    terms (a share, or an absolute step); negative means better."""
    delta = value - reference if metric.better == "lower" else reference - value
    return delta if metric.absolute else delta / abs(reference)
