"""Profiler-style reports from a GPU timeline (an nvprof for the model).

Aggregates a :class:`~repro.gpu.streams.Timeline`'s op record into the
table every CUDA developer lives in: per-kernel call counts, total time,
share of the schedule, bytes moved, and achieved bandwidth — making it
obvious *where* a solver configuration spends its model time (dslash vs
BLAS vs PCIe vs waiting on the network).

``repro profile`` feeds it the solver window of the solve
:func:`repro.core.invert_model` runs (``InvertResult.timeline`` cut at
``per_rank[0].t_start``/``t_end``), so the table describes the schedule
every figure measures.  The host CPU is profiled with the stdlib
(``python -m cProfile -s cumtime -m repro serve ...``) and per layer by
the benchmark ledger's ``--traced`` run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.streams import TimelineOp
from .report import format_table

__all__ = ["ProfileRow", "profile_ops", "render_profile"]


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
