"""Profiler-style reports from a GPU timeline (an nvprof for the model).

Aggregates a :class:`~repro.gpu.streams.Timeline`'s op record into the
table every CUDA developer lives in: per-kernel call counts, total time,
share of the schedule, bytes moved, and achieved bandwidth — making it
obvious *where* a solver configuration spends its model time (dslash vs
BLAS vs PCIe vs waiting on the network).

The second half of the module profiles the *host*, not the model:
:func:`hotspot_profile` runs the saturated scheduler campaign under
``cProfile`` with per-phase wall-time attribution
(``repro profile --hotspots``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.streams import TimelineOp
from .report import format_table

__all__ = [
    "ProfileRow",
    "profile_ops",
    "profile_solve",
    "render_profile",
    "hotspot_profile",
    "render_hotspots",
]


@dataclass
class ProfileRow:
    """Aggregated statistics for one operation name-group."""

    name: str
    kind: str
    calls: int
    total_s: float
    nbytes: int
    flops: int

    @property
    def bandwidth_gbs(self) -> float:
        return self.nbytes / self.total_s / 1e9 if self.total_s > 0 else 0.0

    @property
    def gflops(self) -> float:
        return self.flops / self.total_s / 1e9 if self.total_s > 0 else 0.0


def _group(name: str) -> str:
    """Collapse per-instance suffixes: 'face_d2h[3][backward][1]' ->
    'face_d2h'."""
    return name.split("[")[0]


def profile_ops(ops: list[TimelineOp]) -> list[ProfileRow]:
    """Aggregate ops by name group, sorted by total time (descending)."""
    acc: dict[str, ProfileRow] = {}
    for op in ops:
        key = _group(op.name)
        row = acc.get(key)
        if row is None:
            acc[key] = ProfileRow(
                name=key, kind=op.kind, calls=1, total_s=op.duration,
                nbytes=op.nbytes, flops=op.flops,
            )
        else:
            row.calls += 1
            row.total_s += op.duration
            row.nbytes += op.nbytes
            row.flops += op.flops
    return sorted(acc.values(), key=lambda r: -r.total_s)


def profile_solve(
    dims: tuple[int, int, int, int],
    mode: str = "single-half",
    *,
    n_gpus: int = 2,
    overlap: bool = True,
    iterations: int = 10,
    rank: int = 0,
) -> list[TimelineOp]:
    """Run a timing-only solve and return one rank's solver-window ops.

    The profiling analogue of :func:`repro.core.invert_model`: same
    schedule, but the raw timeline comes back for analysis.
    """
    from ..comms.mpi_sim import SimMPI
    from ..comms.qmp import QMPMachine
    from ..core.dslash import DeviceSchurOperator
    from ..core.interface import PRECISION_MODES
    from ..core.solvers.bicgstab import bicgstab_solve
    from ..gpu.device import VirtualGPU
    from ..lattice.geometry import LatticeGeometry

    full_prec, sloppy_prec = PRECISION_MODES[mode]
    geometry = LatticeGeometry(dims)
    slicing = geometry.slice_grid(1, n_gpus)

    def body(comm):
        gpu = VirtualGPU(execute=False, enforce_memory=False, name=f"gpu{comm.rank}")
        comm.bind_timeline(gpu.timeline)
        qmp = QMPMachine(comm, grid=slicing.machine_grid)
        local = slicing.locals[comm.rank]
        op_full = DeviceSchurOperator.setup(
            gpu, qmp, local, None, None, 0.1, precision=full_prec, overlap=overlap
        )
        op_sloppy = (
            op_full
            if sloppy_prec is full_prec
            else DeviceSchurOperator.setup(
                gpu, qmp, local, None, None, 0.1,
                precision=sloppy_prec, overlap=overlap,
            )
        )
        b = op_full.make_spinor("b")
        x = op_full.make_spinor("x")
        i0 = gpu.timeline.op_count
        bicgstab_solve(
            op_full, op_sloppy, b, x, tol=1e-7, delta=0.1, maxiter=1,
            fixed_iterations=iterations,
        )
        return gpu.timeline.ops[i0:]

    return SimMPI(n_gpus).run(body)[rank]


def hotspot_profile(
    n_requests: int = 1024,
    *,
    top: int = 15,
    **campaign_kwargs,
) -> dict:
    """CPU hotspots of the saturated scheduler campaign.

    Runs the shared hot campaign (:func:`repro.bench.harness.hot_campaign`,
    the same workload the throughput benchmark times) under ``cProfile``
    and reports the top ``top`` functions by cumulative wall time plus a
    per-phase attribution (workload build / campaign / report render),
    each phase timed with ``perf_counter``.
    """
    import cProfile
    import pstats
    import time as _time

    from ..service import SolveService
    from .harness import hot_campaign

    phases: list[tuple[str, float]] = []
    t0 = _time.perf_counter()
    config, workload = hot_campaign(n_requests, **campaign_kwargs)
    service = SolveService(config)
    t1 = _time.perf_counter()
    phases.append(("build workload + service", t1 - t0))

    profiler = cProfile.Profile()
    profiler.enable()
    campaign = service.run(workload)
    profiler.disable()
    t2 = _time.perf_counter()
    phases.append(("run campaign (profiled)", t2 - t1))

    report_json = campaign.report.render_json()
    t3 = _time.perf_counter()
    phases.append(("collect + render report", t3 - t2))

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    total_s = t3 - t0
    rows = []
    for func, (cc, nc, tt, ct, _callers) in sorted(
        stats.stats.items(), key=lambda kv: -kv[1][3]
    ):
        filename, line, name = func
        if name.startswith("<") and filename == "~":
            continue
        rows.append(
            {
                "function": name,
                "where": f"{filename.rsplit('/', 1)[-1]}:{line}",
                "calls": nc,
                "tottime_ms": round(tt * 1e3, 3),
                "cumtime_ms": round(ct * 1e3, 3),
            }
        )
        if len(rows) >= top:
            break
    return {
        "requests": n_requests,
        "completed": campaign.report.to_json()["completed"],
        "total_wall_s": round(total_s, 6),
        "wall_rps": round(n_requests / total_s, 1),
        "report_bytes_json": len(report_json.encode()),
        "phases": [
            {"phase": name, "wall_ms": round(dt * 1e3, 3)}
            for name, dt in phases
        ],
        "hotspots": rows,
    }


def render_hotspots(prof: dict) -> str:
    """The ``repro profile --hotspots`` table pair."""
    lines = [
        f"{prof['requests']} requests: "
        f"{prof['total_wall_s'] * 1e3:.1f} ms wall, "
        f"{prof['wall_rps']:.0f} req/s; report "
        f"{prof['report_bytes_json']} B JSON",
        "",
        format_table(
            ["phase", "wall (ms)"],
            [[p["phase"], f"{p['wall_ms']:.3f}"] for p in prof["phases"]],
        ),
        "",
        format_table(
            ["function", "where", "calls", "tottime (ms)", "cumtime (ms)"],
            [
                [
                    r["function"],
                    r["where"],
                    r["calls"],
                    f"{r['tottime_ms']:.3f}",
                    f"{r['cumtime_ms']:.3f}",
                ]
                for r in prof["hotspots"]
            ],
        ),
    ]
    return "\n".join(lines)


def render_profile(ops: list[TimelineOp], *, top: int | None = None) -> str:
    """A profiler table for a timeline window."""
    rows = profile_ops(ops)
    busy = sum(r.total_s for r in rows)
    if top is not None:
        rows = rows[:top]
    table = format_table(
        ["name", "kind", "calls", "time (ms)", "share", "GB/s", "Gflops"],
        [
            [
                r.name,
                r.kind,
                r.calls,
                f"{r.total_s * 1e3:.3f}",
                f"{r.total_s / busy:6.1%}" if busy else "-",
                f"{r.bandwidth_gbs:.1f}" if r.nbytes else "-",
                f"{r.gflops:.1f}" if r.flops else "-",
            ]
            for r in rows
        ],
    )
    return table
