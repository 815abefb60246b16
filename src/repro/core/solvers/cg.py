"""Mixed-precision CG on the normal equations (CGNR).

"The matrix is non-Hermitian, so either Conjugate Gradients on the normal
equations (CGNE or CGNR) is used, or more commonly, the system is solved
directly using a non-symmetric method, e.g., BiCGstab" (Section II).
QUDA ships both; this is the CG variant, solving

    (Mhat^dag Mhat) x = Mhat^dag b

in the same reliable-update loop as the BiCGstab solver
(:mod:`repro.core.solvers.reliable`), with the same breakdown,
checkpoint and resume contract.  Each iteration costs *two* matrix
applications (Mhat then Mhat^dag) plus 3 fused BLAS kernels (2
reductions), so on well-conditioned systems BiCGstab wins — the reason
it is the production choice.  Its guaranteed descent on the normal
equations is exactly why the breakdown-escalation ladder falls back to
it when BiCGstab's biorthogonal recurrence breaks.
"""

from __future__ import annotations

from typing import Callable

from ...gpu.fields import DeviceSpinorField
from .. import blas
from ..dslash import DeviceSchurOperator
from .checkpoint import SolveCheckpoint
from .reliable import ReliableUpdater
from .stopping import LocalSolveInfo

__all__ = ["cg_solve"]


def cg_solve(
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
    """Solve ``Mhat x = b`` via CGNR with reliable updates.

    The convergence criterion is on the normal-equation residual
    ``|Mhat^dag b - Mhat^dag Mhat x|`` relative to ``|Mhat^dag b|``
    (QUDA's convention for its CG solver).
    """
    # Uniform mode borrows q/mid as refresh scratch (idle at refresh points).
    loop = ReliableUpdater.allocate(
        op_full, op_sloppy, x_out, ("p", "q", "mid", "mtmp"), borrow=("mid", "q"),
        tol=tol, delta=delta, maxiter=maxiter, fixed_iterations=fixed_iterations,
        resume=resume, on_refresh=on_refresh, dagger_pair=True,
    )
    p, q, mid, tmp = loop.krylov
    r, x_s = loop.r, loop.x_s
    sgpu, qmp, execute = op_sloppy.gpu, op_full.qmp, loop.execute
    # Normal-equation right-hand side b' = Mhat^dag b (full precision),
    # computed into a dedicated field using the refresh scratch as tmp.
    b_normal = loop.field("b_normal", full=True)
    op_full.apply(b, loop.scratch_a, b_normal, dagger=True)
    # A resumed chain may have begun in BiCGstab, whose |b| heads the
    # history; CG's target and divergence bound are relative to |b'|.
    b_norm = None if resume is None else blas.norm2(op_full.gpu, b_normal, qmp) ** 0.5
    rr = 0.0

    def start() -> None:
        """Search direction from the current (possibly refreshed) residual:
        a refreshed ``rr`` with the stale ``p`` loses conjugacy and diverges."""
        nonlocal rr
        blas.copy(sgpu, r, p)
        rr = loop.rnorm**2

    def step() -> float:
        nonlocal rr
        op_sloppy.apply(p, tmp, mid)  # q = Mhat^dag Mhat p
        op_sloppy.apply(mid, tmp, q, dagger=True)
        pq = blas.redot(sgpu, p, q, qmp)
        if execute:
            loop.finite("<p, q>", pq)
            if pq == 0:
                raise loop.breakdown("pivot_breakdown", "<p, Ap> = 0")
            alpha = loop.finite("alpha", rr / pq)
        else:
            alpha = 1.0
        blas.axpy(sgpu, alpha, p, x_s)
        rr_new = blas.axpy_norm(sgpu, -alpha, q, r, qmp)
        if execute:
            beta = loop.finite("beta", loop.squared("|r|^2", rr_new) / rr)
            rr = rr_new
        else:
            beta = 1.0
        blas.xpay(sgpu, r, beta, p)
        return rr**0.5

    return loop.run(b_normal, start, step, restart=start, b_norm=b_norm)
