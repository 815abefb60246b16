"""The reliably-updated BiCGstab solver (the paper's production solver).

"The solver we employed was the reliably updated BiCGstab solver
discussed in [4]" (Section VII-A).  This module is the standard
BiCGstab recurrence running at *sloppy* precision; the reliable-update
loop it runs in (:mod:`repro.core.solvers.reliable`) folds the
accumulated delta into a full-precision solution whenever the residual
has dropped by the δ factor, checkpoints, resumes and watches for
divergence, stagnation and corruption.  Every global decision flows
through QMP reductions so all ranks stay in lockstep (Section VI-E).

Per iteration the recurrence costs 2 matrix applications and 7 (fused)
BLAS kernels, 4 of which are global reductions — the kernel-fusion
choices follow QUDA's (Section V-E), which is why the full solver
sustains only 10-20% less than the bare matrix-vector product.

**Device-memory budget** (the scarce resource of Section VII-C):

* uniform precision: 8 persistent fields — ``b, x(=y), r(=r_full), r0,
  p, v, t, tmp`` — with the reliable updater borrowing ``t``/``tmp`` as
  refresh scratch and aliasing away the delta bookkeeping;
* mixed precision: 5 full-precision fields (``b, y, r_full`` + 2 refresh
  scratch) plus 7 sloppy fields.

This is what lets uniform single precision solve the 32^3 x 256 problem
on four 2 GiB cards while mixed single-half needs eight (Section VII-C).

**Breakdown detection.**  The recurrence's own pivots raise a structured
:class:`~repro.core.solvers.resilience.SolverBreakdown` when they go
NaN/Inf (half-precision overflow) or vanish (ρ, <r0,v>, |t|², ω).  All
guards run *before* the iterate update that would fold the scalar into
``x``, so a breakdown never poisons the solution.

**Timing-only mode** (``fixed_iterations``): with no field data the
recurrence uses unit scalars, issuing exactly the same
kernel/communication schedule.
"""

from __future__ import annotations

from typing import Callable

from ...gpu.fields import DeviceSpinorField
from .. import blas
from ..dslash import DeviceSchurOperator
from .checkpoint import SolveCheckpoint
from .reliable import ReliableUpdater
from .stopping import LocalSolveInfo

__all__ = ["bicgstab_solve"]


def bicgstab_solve(
    op_full: DeviceSchurOperator,
    op_sloppy: DeviceSchurOperator,
    b: DeviceSpinorField,
    x_out: DeviceSpinorField,
    *,
    tol: float,
    delta: float,
    maxiter: int,
    fixed_iterations: int = 50,
    resume: SolveCheckpoint | None = None,
    on_refresh: Callable[..., None] | None = None,
) -> LocalSolveInfo:
    """Solve ``Mhat x = b``; ``b`` and ``x_out`` are full-precision fields.

    Returns this rank's :class:`LocalSolveInfo` (identical scalars on all
    ranks).  Plain non-convergence raises nothing — the caller inspects
    ``converged`` (matching QUDA's C-interface behaviour of reporting the
    achieved residual); numerical pathologies raise a structured
    :class:`SolverBreakdown` before they can touch ``x``.
    """
    loop = ReliableUpdater.allocate(
        op_full, op_sloppy, x_out, ("r0", "p", "v", "t", "mtmp"), borrow=("mtmp", "t"),
        tol=tol, delta=delta, maxiter=maxiter, fixed_iterations=fixed_iterations,
        resume=resume, on_refresh=on_refresh,
    )
    r0, p, v, t, tmp = loop.krylov
    r, x_s = loop.r, loop.x_s
    sgpu, qmp, execute = op_sloppy.gpu, op_full.qmp, loop.execute
    rho = alpha = omega = 1.0 + 0.0j

    def start() -> None:
        blas.copy(sgpu, r, r0)
        blas.zero(sgpu, p)
        blas.zero(sgpu, v)

    def step() -> float | None:
        nonlocal rho, alpha, omega
        rho_new = blas.cdot(sgpu, r0, r, qmp)
        if execute:
            loop.finite("rho", rho_new)
            if rho_new == 0:  # serious breakdown: restart the shadow vector
                blas.copy(sgpu, r, r0)
                rho_new = loop.finite("rho", blas.cdot(sgpu, r0, r, qmp))
                if rho_new == 0:
                    raise loop.breakdown(
                        "rho_breakdown", "<r0, r> = 0 after shadow-residual restart"
                    )
            beta = loop.finite("beta", (rho_new / rho) * (alpha / omega))
        else:
            beta = 1.0
        blas.update_p(sgpu, r, p, v, beta, omega)
        op_sloppy.apply(p, tmp, v)
        r0v = blas.cdot(sgpu, r0, v, qmp)
        if execute:
            loop.finite("<r0, v>", r0v)
            if r0v == 0:
                raise loop.breakdown("pivot_breakdown", "<r0, v> = 0")
            alpha = loop.finite("alpha", rho_new / r0v)
        else:
            alpha = 1.0
        # r <- s = r - alpha v, fused with |s|^2.
        s2 = blas.axpy_norm(sgpu, -alpha, v, r, qmp)
        if execute and loop.squared("|s|^2", s2) ** 0.5 <= loop.conv.target:
            # Early exit on s: x += alpha p, then verify in full precision.
            blas.axpy(sgpu, alpha, p, x_s)
            return None
        op_sloppy.apply(r, tmp, t)
        ts, t2 = blas.cdot_norm(sgpu, t, r, qmp)
        if execute:
            loop.finite("<t, s>", ts)
            loop.finite("|t|^2", t2)
            if t2 == 0:
                raise loop.breakdown("omega_breakdown", "|t|^2 = 0")
            omega = loop.finite("omega", ts / t2)
            if omega == 0:
                raise loop.breakdown("omega_breakdown", "omega = 0 stalls the recurrence")
        else:
            omega = 1.0
        blas.caxpy_pair(sgpu, alpha, p, omega, r, x_s)
        r2 = blas.axpy_norm(sgpu, -omega, t, r, qmp)
        rho = rho_new
        return loop.squared("|r|^2", r2) ** 0.5 if execute else loop.rnorm

    return loop.run(b, start, step)
