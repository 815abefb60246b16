"""Reliable updates: the one mixed-precision solve loop (paper Section V-D).

"QUDA uses a variant of reliable updates [21] to implement mixed-precision
iterative refinement.  This approach has the advantage that a single
Krylov space is preserved throughout the solve, as opposed to the
traditional approach of defect correction which explicitly restarts the
Krylov space with every correction."

The scheme (Sleijpen & van der Vorst):

* iterate in *sloppy* precision, accumulating a solution delta ``x_s``
  and the recursed residual ``r_s``;
* track the largest residual norm seen since the last update; when the
  current residual has dropped by the factor ``delta`` relative to that
  peak (the paper's δ parameter), perform a **reliable update**:
  fold ``x_s`` into the high-precision solution ``y``, recompute the
  *true* residual ``r = b - A y`` in full precision, and continue the
  sloppy recurrences from the refreshed residual — no restart;
* convergence is only ever declared on a *freshly recomputed* true
  residual.

Uniform-precision solves use exactly the same loop with sloppy == full
(the paper runs uniform single with δ = 1e-3 and uniform double with
δ = 1e-5 — reliable updates guard against residual drift there too).

:class:`ReliableUpdater` is that loop, and both device solvers run it
(:mod:`~repro.core.solvers.bicgstab`, :mod:`~repro.core.solvers.cg`).  A
solver supplies only its Krylov recurrence — ``start`` (set up the
directions from the current residual) and ``step`` (one iteration) — and
the loop owns the rest: work fields and their release, the fresh or
resumed start, refreshes, convergence, checkpoints, the breakdown
monitors below and the returned :class:`LocalSolveInfo`.

**Memory discipline.**  Device memory is the paper's scarcest resource
(Section VII-C), so the updater allocates *nothing* beyond the true
residual: its matrix-application scratch is borrowed from the solver
(two Krylov fields idle at refresh points), and in uniform precision the
loop aliases ``x_s ≡ y`` and ``r_s ≡ r_full`` outright — QUDA's aliasing,
and the reason a uniform-single 32^3 x 256 solve fits on four 2 GiB cards
while the mixed solve needs eight.

**Breakdowns.**  Every scalar tested is a global reduction, so every rank
raises the identical
:class:`~repro.core.solvers.resilience.SolverBreakdown` at the identical
iteration, always before the scalar can touch ``y``: a non-finite
residual; a negative squared norm (only a poisoned reduction yields one);
a true residual that jumped past :data:`CORRUPTION_FACTOR` over the
previous refresh (the ABFT monitor: resident-state damage never shows in
the recursed residual); divergence past :data:`DIVERGENCE_FACTOR` x |b|;
and no 10 % progress in :data:`STAGNATION_WINDOW` iterations.

**Checkpoint/resume.**  At every refresh the true residual is in hand and
``y`` is consistent, so ``on_refresh`` snapshots exactly that state.  A
``resume`` checkpoint (with ``y`` pre-restored by the caller) recomputes
the true residual and continues the iteration count and history — the
Krylov space restarts, from a solution of checkpoint quality.

**Timing-only mode** (no field data): no convergence test — the loop
runs ``fixed_iterations`` iterations with the same kernel/communication
schedule, plus one refresh per :data:`UPDATE_CADENCE` iterations so
mixed-precision runs pay their full-precision refresh costs.
"""

from __future__ import annotations

import math
from typing import Callable

from ...comms.faults import resident_scribble
from ...gpu.fields import DeviceSpinorField
from .. import blas
from ..dslash import DeviceSchurOperator
from .checkpoint import SolveCheckpoint
from .resilience import SolverBreakdown, ensure_finite
from .stopping import ConvergenceState, LocalSolveInfo

__all__ = ["ReliableUpdater"]

#: A recursed |r| past this multiple of |b| is divergence.
DIVERGENCE_FACTOR = 1e5
#: Iterations without a 10 % best-residual improvement: stagnation.
STAGNATION_WINDOW = 1000
#: A true residual jumping past this multiple of the previous refresh's
#: is resident-state corruption — rounding drift between refreshes is
#: orders of magnitude smaller.
CORRUPTION_FACTOR = 1e3
#: Timing-only mode pays one refresh per this many iterations.
UPDATE_CADENCE = 25


class ReliableUpdater:
    """One reliably-updated solve; built by :meth:`allocate`, run by :meth:`run`.

    The recurrence works on ``krylov`` (its sloppy fields), ``x_s`` (the
    sloppy solution delta) and ``r`` (the recursed residual), and quotes
    ``iteration`` and ``rnorm`` through :meth:`finite`, :meth:`squared`
    and :meth:`breakdown`.  ``dagger_pair`` refreshes against the normal
    system ``A^dag A`` (CGNR).
    """

    def __init__(
        self,
        op_full: DeviceSchurOperator,
        op_sloppy: DeviceSchurOperator,
        y: DeviceSpinorField,
        *,
        tol: float,
        delta: float,
        maxiter: int,
        fixed_iterations: int,
        resume: SolveCheckpoint | None,
        on_refresh: Callable[..., None] | None,
        dagger_pair: bool = False,
    ) -> None:
        self.op_full, self.op_sloppy, self.y = op_full, op_sloppy, y
        self.tol, self.delta, self.maxiter = tol, delta, maxiter
        self.fixed_iterations = fixed_iterations
        self.resume, self.on_refresh = resume, on_refresh
        self.dagger_pair = dagger_pair
        self.qmp = op_full.qmp
        self.execute = op_full.gpu.execute
        self.aliased = op_sloppy is op_full
        timeline = op_full.gpu.timeline
        self._op_index, self._t_start = timeline.op_count, timeline.host_time
        self.work: list[DeviceSpinorField] = []
        self.max_r = self.rnorm = 0.0
        self.updates = self.iteration = 0

    @classmethod
    def allocate(
        cls,
        op_full: DeviceSchurOperator,
        op_sloppy: DeviceSchurOperator,
        y: DeviceSpinorField,
        krylov: tuple[str, ...],
        *,
        borrow: tuple[str, str],
        **options,
    ) -> ReliableUpdater:
        """Allocate a solve's work fields: the sloppy Krylov fields labelled
        ``krylov`` (in that order), then the full-precision state.

        Uniform precision aliases ``x_s ≡ y`` and ``r ≡ r_full`` and borrows
        the two Krylov fields labelled ``borrow`` as refresh scratch;
        mixed precision allocates ``r_full``, two scratch fields and the
        sloppy ``r`` and ``x_s``.
        """
        loop = cls(op_full, op_sloppy, y, **options)
        named = {label: loop.field(label) for label in krylov}
        loop.krylov = tuple(named.values())
        if loop.aliased:
            loop.r = loop.r_full = loop.field("r_full", full=True)
            loop.x_s = y
            loop.scratch_a, loop.scratch_b = (named[label] for label in borrow)
        else:
            loop.r_full = loop.field("r_full", full=True)
            loop.scratch_a = loop.field("ru_scratch_a", full=True)
            loop.scratch_b = loop.field("ru_scratch_b", full=True)
            loop.r = loop.field("r")
            loop.x_s = loop.field("x_sloppy")
        return loop

    def field(self, label: str, *, full: bool = False) -> DeviceSpinorField:
        """A work field, released when :meth:`run` ends."""
        f = (self.op_full if full else self.op_sloppy).make_spinor(label)
        self.work.append(f)
        return f

    # -- guards a recurrence raises through ------------------------------ #

    def breakdown(self, kind: str, detail: str) -> SolverBreakdown:
        return SolverBreakdown(
            kind, iteration=self.iteration, rnorm=self.rnorm, detail=detail
        )

    def finite(self, name: str, value):
        """``value`` unchanged, or a ``non_finite`` breakdown."""
        return ensure_finite(name, value, iteration=self.iteration, rnorm=self.rnorm)

    def squared(self, name: str, value: float) -> float:
        """A guarded squared norm from a global sum: negativity can only
        mean a poisoned reduction (a free ABFT check on an allreduce the
        recurrence already pays for)."""
        self.finite(name, value)
        if value < 0:
            raise self.breakdown(
                "corruption", f"{name} = {value!r} < 0 from global reduction"
            )
        return value

    # -- the refresh ----------------------------------------------------- #

    def should_update(self, rnorm_sloppy: float) -> bool:
        """The δ criterion: residual fell by delta vs the running peak."""
        self.max_r = max(self.max_r, rnorm_sloppy)
        return rnorm_sloppy < self.delta * self.max_r

    def _true_residual(self) -> float:
        """``r_full = b - A y`` (or ``A^dag A y``) in full precision; |r|."""
        gpu, op = self.op_full.gpu, self.op_full
        op.apply(self.y, self.scratch_a, self.scratch_b)
        if self.dagger_pair:
            op.apply(self.scratch_b, self.scratch_a, self.scratch_b, dagger=True)
        blas.copy(gpu, self.b, self.r_full)
        blas.axpy(gpu, -1.0, self.scratch_b, self.r_full)
        return blas.norm2(gpu, self.r_full, self.qmp) ** 0.5

    def refresh(self) -> float:
        """Perform the reliable update; returns the true ``|r|``.

        ``y += x_s``; ``r = b - A y`` in full precision; ``x_s = 0``;
        ``r_s = r`` (precision conversion).  The Krylov recurrence
        continues untouched — the single-Krylov-space property.  In
        aliased (uniform) mode the fold-in and conversions vanish.
        """
        gpu = self.op_full.gpu
        if not self.aliased:
            # Precision-converting accumulate: y += x_s.
            blas.copy(gpu, self.x_s, self.scratch_b)
            blas.axpy(gpu, 1.0, self.scratch_b, self.y)
        rnorm = self._true_residual()
        if not self.aliased:
            # Restart the sloppy delta from zero with the fresh residual.
            blas.zero(self.x_s.gpu, self.x_s)
            blas.copy(gpu, self.r_full, self.r)
        self.max_r = rnorm
        self.updates += 1
        return rnorm

    def _checkpoint(self) -> None:
        if self.on_refresh is not None:
            self.on_refresh(
                iteration=self.iteration,
                rnorm=self.rnorm,
                reliable_updates=self.updates,
                history=list(self.history),
            )

    def _verified_refresh(self) -> None:
        """A functional refresh: checked, recorded, then checkpointed."""
        self.rnorm = rnorm = self.refresh()
        if not math.isfinite(rnorm):
            # Never checkpoint a poisoned solution.
            raise self.breakdown("non_finite", "true residual after reliable update")
        # Refresh-point invariant monitor (ABFT), raised before the
        # checkpoint, so a poisoned solution is never committed as a
        # recovery point.
        last = self._last_refresh
        if last > 0 and rnorm > CORRUPTION_FACTOR * last:
            raise self.breakdown(
                "corruption",
                f"true residual jumped {rnorm / last:.1e}x "
                f"over the last refresh ({last:.6e})",
            )
        self._last_refresh = rnorm
        self.history.append(rnorm)
        self._checkpoint()

    # -- the loop -------------------------------------------------------- #

    def run(
        self,
        b: DeviceSpinorField,
        start: Callable[[], None],
        step: Callable[[], float | None],
        *,
        restart: Callable[[], None] | None = None,
        b_norm: float | None = None,
    ) -> LocalSolveInfo:
        """Solve ``A y = b`` with the recurrence ``start``/``step``.

        ``step`` runs one iteration and returns the recursed |r|, or
        ``None`` once it has folded its last update into ``x_s`` and wants
        the true residual now.  ``restart`` runs after a refresh that did
        not end the solve.  ``b_norm`` (default: the first entry of the
        history, which survives resume chains) scales the target and the
        divergence bound.
        """
        gpu, qmp, execute = self.op_full.gpu, self.qmp, self.execute
        self.b = b
        if self.resume is None:
            blas.zero(gpu, self.y)
            blas.copy(gpu, b, self.r_full)
            self.rnorm = blas.norm2(gpu, self.r_full, qmp) ** 0.5
            self.history = [self.rnorm]
        else:
            # y was pre-restored from the checkpoint by the caller.
            self.updates = self.resume.reliable_updates
            self.iteration = self.resume.iteration
            self.rnorm = self._true_residual()
            self.history = [*self.resume.history, self.rnorm]
        self.max_r = self._last_refresh = best_rnorm = self.rnorm
        self.conv = conv = ConvergenceState(
            b_norm=self.history[0] if b_norm is None else b_norm, tol=self.tol
        )
        try:
            if execute and not math.isfinite(self.rnorm):
                raise self.breakdown("non_finite", "|r| at initialization")
            if not self.aliased:
                blas.copy(gpu, self.r_full, self.r)  # precision conversion
                blas.zero(self.op_sloppy.gpu, self.x_s)
            start()
            # A zero source (or a checkpoint taken at the brink of
            # convergence) is already converged — entering the loop would
            # manufacture a breakdown out of a solved system.
            converged = execute and conv.converged(self.rnorm)
            limit = self.maxiter if execute else self.fixed_iterations
            since_improvement = 0
            while self.iteration < limit and not converged:
                self.iteration += 1
                # Planned resident-field corruption (a soft error in device
                # RAM) fires here — polled unconditionally so timing-only
                # runs record the event, applied only to real field data.
                hit = None if qmp is None else qmp.take_resident_corruption()
                if hit is not None and execute:
                    spec, plan_seed = hit
                    damaged = self.x_s.get()
                    resident_scribble(
                        damaged, seed=plan_seed, rank=qmp.rank, scale=spec.scale
                    )
                    self.x_s.set(damaged)
                rnorm = step()
                if rnorm is not None:
                    self.rnorm = rnorm
                    self.history.append(rnorm)
                    if not execute:
                        if self.iteration % UPDATE_CADENCE == 0:
                            self.refresh()  # pay the refresh cost on a cadence
                            self._checkpoint()
                        continue
                    if conv.b_norm > 0 and rnorm > DIVERGENCE_FACTOR * conv.b_norm:
                        raise self.breakdown(
                            "divergence", f"|r| exceeded {DIVERGENCE_FACTOR:g} x |b|"
                        )
                    if rnorm < 0.9 * best_rnorm:
                        best_rnorm, since_improvement = rnorm, 0
                    else:
                        since_improvement += 1
                        if since_improvement >= STAGNATION_WINDOW:
                            raise self.breakdown(
                                "stagnation",
                                f"no residual progress in {STAGNATION_WINDOW} iterations",
                            )
                    if not (conv.converged(rnorm) or self.should_update(rnorm)):
                        continue
                self._verified_refresh()
                converged = conv.converged(self.rnorm)
                if restart is not None and not converged:
                    restart()
            if execute and not converged:
                # Fold any outstanding delta into the answer before reporting.
                self._verified_refresh()
                converged = conv.converged(self.rnorm)
        finally:
            gpu.device_synchronize()
            for f in self.work:  # free solver temporaries (QUDA does the same)
                f.release()
        timeline = gpu.timeline
        return LocalSolveInfo(
            iterations=self.iteration,
            residual_norm=self.rnorm,
            converged=converged,
            reliable_updates=self.updates,
            history=self.history,
            t_start=self._t_start,
            t_end=timeline.host_time,
            flops=float(timeline.flops_since(self._op_index)),
        )
