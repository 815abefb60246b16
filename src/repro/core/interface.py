"""QUDA-style parameter structures (the library's C-interface analogue).

QUDA exposes "a simple C interface to allow for easy integration with LQCD
application software" built around two parameter structs; we mirror them
as dataclasses:

* :class:`QudaGaugeParam` — how the gauge field is stored on the device
  (precision, 2-row compression, pad).
* :class:`QudaInvertParam` — everything about a solve: solver type,
  solve precision and *sloppy* (low) precision, target residual, the
  reliable-update ``delta``, the communication-overlap policy, and the
  physics parameters (mass, clover coefficient).

The precision-mode vocabulary matches the paper's Section VII-A: uniform
``single``/``double`` runs use equal full and sloppy precisions; the
mixed ``single-half`` / ``double-half`` modes set ``precision_sloppy`` to
half.  The per-mode defaults for the target residual and delta reproduce
the paper's table of run parameters: ``||r|| = 1e-7`` with ``delta =
1e-3`` (single) / ``1e-1`` (single-half), and ``||r|| = 1e-14`` with
``delta = 1e-5`` (double) / ``1e-2`` (double-half).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.precision import Precision
from .solvers.resilience import RetryPolicy

__all__ = [
    "QudaGaugeParam",
    "QudaInvertParam",
    "SolveStats",
    "PRECISION_MODES",
    "paper_invert_param",
]

#: The four precision modes benchmarked by the paper (Figs. 4-6), mapping
#: mode name -> (full precision, sloppy precision).
PRECISION_MODES: dict[str, tuple[Precision, Precision]] = {
    "single": (Precision.SINGLE, Precision.SINGLE),
    "double": (Precision.DOUBLE, Precision.DOUBLE),
    "single-half": (Precision.SINGLE, Precision.HALF),
    "double-half": (Precision.DOUBLE, Precision.HALF),
}

#: Section VII-A run parameters per precision mode: (tol, delta).
_PAPER_RUN_PARAMS: dict[str, tuple[float, float]] = {
    "single": (1e-7, 1e-3),
    "single-half": (1e-7, 1e-1),
    "double": (1e-14, 1e-5),
    "double-half": (1e-14, 1e-2),
}


@dataclass
class QudaGaugeParam:
    """Device storage parameters for the gauge field."""

    precision: Precision = Precision.SINGLE
    #: 2-row compression (Section V-C1).  QUDA's production default.
    reconstruct_12: bool = True
    #: Pad the fields by one spatial volume (Section V-B); also hosts the
    #: gauge ghost zone in multi-GPU runs (Section VI-B).
    pad_spatial_volume: bool = True

    def __post_init__(self) -> None:
        self.precision = Precision.parse(self.precision)


@dataclass
class QudaInvertParam:
    """Solve parameters (QudaInvertParam analogue)."""

    mass: float = 0.0
    clover_coeff: float = 1.0
    solver: str = "bicgstab"  # 'bicgstab' | 'cg' (CGNR)
    precision: Precision = Precision.SINGLE
    precision_sloppy: Precision | None = None
    tol: float = 1e-7
    #: Reliable-update threshold (Section V-D); ignored when the sloppy
    #: precision equals the full precision.
    delta: float = 1e-1
    maxiter: int = 10_000
    #: Overlap communication and computation (Section VI-D2) or not
    #: (VI-D1) — the paper shows the best choice is system/size dependent.
    overlap_comms: bool = True
    #: Use defect-correction restarts instead of reliable updates (the
    #: baseline strategy the paper's Section V-D argues against).
    use_defect_correction: bool = False
    #: In timing-only mode there is no convergence test; run exactly this
    #: many iterations to measure the sustained rate.
    fixed_iterations: int = 50
    #: Which checkerboard carries the preconditioned system (QUDA's
    #: QudaMatPCType): "even-even" (default) or "odd-odd".  Both give the
    #: same full solution.
    matpc: str = "even-even"
    #: Rank-failure recovery budget.  The default ``RetryPolicy()`` is
    #: disabled — a planned fault raises the structured RankFailedError;
    #: ``RetryPolicy(max_attempts=k)`` lets the solve relaunch and resume
    #: from its last checkpoint up to k times.
    retry_policy: RetryPolicy = RetryPolicy()
    #: Maximum rungs of the breakdown-escalation ladder (restart from
    #: checkpoint → BiCGstab→CG → sloppy precision up one notch) before a
    #: SolverBreakdown propagates to the caller.  The breakdown thresholds
    #: themselves are constants of :mod:`repro.core.solvers.reliable`.
    max_escalations: int = 3

    def __post_init__(self) -> None:
        if self.matpc not in ("even-even", "odd-odd"):
            raise ValueError(f"unknown matpc {self.matpc!r}")
        self.precision = Precision.parse(self.precision)
        if self.precision_sloppy is None:
            self.precision_sloppy = self.precision
        self.precision_sloppy = Precision.parse(self.precision_sloppy)
        if self.solver not in ("bicgstab", "cg"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.precision_sloppy.real_bytes > self.precision.real_bytes:
            raise ValueError("sloppy precision must not exceed full precision")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must be in (0, 1]")
        if self.max_escalations < 0:
            raise ValueError("max_escalations must be >= 0")
        if not isinstance(self.retry_policy, RetryPolicy):
            raise TypeError("retry_policy must be a RetryPolicy; RetryPolicy() recovers nothing")

    @property
    def mixed_precision(self) -> bool:
        return self.precision_sloppy is not self.precision

    @property
    def solve_parity(self) -> int:
        return 0 if self.matpc == "even-even" else 1


def paper_invert_param(mode: str, **overrides) -> QudaInvertParam:
    """An invert parameter set matching the paper's Section VII-A runs."""
    try:
        full, sloppy = PRECISION_MODES[mode]
    except KeyError:
        raise ValueError(
            f"unknown precision mode {mode!r}; expected one of "
            f"{sorted(PRECISION_MODES)}"
        ) from None
    tol, delta = _PAPER_RUN_PARAMS[mode]
    params = dict(
        precision=full, precision_sloppy=sloppy, tol=tol, delta=delta
    )
    params.update(overrides)
    return QudaInvertParam(**params)


@dataclass
class SolveStats:
    """Everything the paper reports about one solve."""

    iterations: int
    residual_norm: float
    converged: bool
    #: Model wall-clock of the solve, max over ranks (seconds).
    model_time: float
    #: Total flops executed across all GPUs, by the paper's "effective"
    #: convention (no gauge-row reconstruction counted).
    total_flops: float
    reliable_updates: int = 0
    history: list[float] = field(default_factory=list, repr=False)
    # --- recovery accounting (self-healing solves) --------------------- #
    #: Worlds relaunched after a rank failure (0 for a healthy solve).
    recoveries: int = 0
    #: Breakdown-ladder rungs taken (restarts + solver switches +
    #: precision escalations).
    restarts: int = 0
    #: Rungs that raised the sloppy precision a notch.
    precision_escalations: int = 0
    #: Rungs that switched BiCGstab → CG.
    solver_switches: int = 0
    #: Iterations of progress thrown away by restarts and resumes.
    wasted_iterations: int = 0
    #: Model time burned by failed attempts + retry backoff; included in
    #: ``model_time`` so recovered solves report their honest cost.
    lost_time: float = 0.0
    # --- data integrity (silent-corruption protection) ----------------- #
    #: Checksum mismatches observed (wire + collective) plus invariant-
    #: monitor hits on resident state, summed across ranks.
    corruptions_detected: int = 0
    #: Corruptions repaired (NACK/resend, collective re-contribution, or
    #: checkpoint restore) rather than escalated to a failure.
    corruptions_corrected: int = 0
    #: Model time spent hashing/verifying envelopes, max over ranks —
    #: the protection cost ``bench_chaos`` reports.
    integrity_overhead: float = 0.0

    @property
    def sustained_gflops(self) -> float:
        """The paper's headline metric: effective Gflops."""
        if self.model_time <= 0:
            return 0.0
        return self.total_flops / self.model_time / 1e9
