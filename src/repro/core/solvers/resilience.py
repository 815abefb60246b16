"""Solver resilience: breakdown detection, escalation, and rank-failure
recovery.

The paper's reliable-update machinery (Section V-D) recomputes the *true*
full-precision residual at every refresh — which makes refresh points
natural, already-consistent recovery points.  This module builds the
self-healing layer on top of them:

* :class:`SolverBreakdown` — a numerical pathology (BiCGstab ρ/ω
  breakdown, NaN/Inf in a reduction, divergence, stagnation), detected
  from *globally reduced* scalars so every rank observes the identical
  event at the identical iteration and acts in lockstep;
* :class:`EscalationLadder` — the deterministic response sequence:
  restart from the last checkpoint → switch BiCGstab→CG → raise the
  sloppy precision one notch (half→single→double, capped at the full
  precision);
* :class:`RetryPolicy` + :func:`run_with_recovery` — the SPMD supervisor:
  when a :class:`~repro.comms.faults.FaultPlan` kills a rank mid-solve,
  the partial :class:`~repro.comms.mpi_sim.SpmdOutcome` is caught, the
  fired faults are retired from the plan, a time-sliced solve
  (``grid=None``: the ``(1, n)`` grid, which may shrink) is
  re-partitioned over the largest surviving rank count the lattice
  admits (:func:`feasible_rank_count`, by the one divisibility rule
  :func:`~repro.lattice.geometry.grid_error`) or relaunched at the same
  count, and the solve resumes from the last committed checkpoint under
  a bounded, deterministic retry budget.

Every decision here is a pure function of (fault-plan seed, communication
history, reduction values), so a recovered solve is byte-reproducible:
same seed, same recovery sequence, same answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from ...comms.cluster import ClusterSpec
from ...comms.faults import FaultEvent, FaultPlan, IntegrityPolicy, RankFailedError
from ...comms.mpi_sim import CommStats, SimMPI
from ...comms.qmp import rank_orbits
from ...gpu.precision import Precision
from ...lattice.geometry import GridSlicing, grid_error

__all__ = [
    "SolverBreakdown",
    "RetryPolicy",
    "RecoveryEvent",
    "EscalationStep",
    "EscalationLadder",
    "RecoveryOutcome",
    "ensure_finite",
    "feasible_rank_count",
    "run_with_recovery",
]


class SolverBreakdown(RuntimeError):
    """A structured numerical pathology inside a Krylov solve.

    Raised *before* the offending scalar can be folded into the solution
    vector, so ``x`` is never poisoned by NaN/Inf.  Because every scalar
    tested is the output of a QMP global reduction, all ranks raise the
    identical breakdown at the identical iteration — the escalation
    ladder can therefore act without any extra communication.

    ``kind`` is one of ``'rho_breakdown'`` (BiCGstab shadow-residual
    orthogonality lost), ``'pivot_breakdown'`` (``<r0, v>`` or ``<p, q>``
    vanished), ``'omega_breakdown'`` (``|t|^2`` vanished or ω = 0),
    ``'non_finite'`` (NaN/Inf in a reduction), ``'divergence'``,
    ``'stagnation'``, or ``'corruption'`` (a refresh-point invariant
    monitor caught resident-state damage — handled by its own ladder
    rung, a restore from the last verified checkpoint).
    """

    def __init__(
        self,
        kind: str,
        *,
        iteration: int,
        rnorm: float = float("nan"),
        detail: str = "",
    ) -> None:
        self.kind = kind
        self.iteration = iteration
        self.rnorm = rnorm
        self.detail = detail
        msg = f"{kind} at iteration {iteration} (|r| = {rnorm:.6e})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


def ensure_finite(name: str, value: complex | float, *, iteration: int, rnorm: float = 0.0):
    """Raise :class:`SolverBreakdown` if a reduction result is NaN/Inf.

    Returns ``value`` unchanged so guards can be inserted inline.
    """
    v = complex(value)
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise SolverBreakdown(
            "non_finite", iteration=iteration, rnorm=rnorm,
            detail=f"{name} = {value!r}",
        )
    return value


#: Model time charged on top of a failed attempt before its relaunch.
RELAUNCH_BACKOFF_S = 1e-3


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded recovery budget for rank failures mid-solve.

    ``max_attempts = 0`` (the default) preserves the fail-fast behaviour:
    a dying rank raises the structured
    :class:`~repro.comms.faults.RankFailedError` exactly as before.  With
    ``max_attempts = k``, up to ``k`` relaunches are attempted, each
    resuming from the last committed checkpoint, each charging
    ``RELAUNCH_BACKOFF_S`` of deterministic *model* time on top of the
    failed attempt's wasted wall.  ``shrink`` re-partitions the time dimension
    over the largest feasible surviving rank count; with it off, the
    relaunch reuses the original rank count (a "replacement rank" model).
    """

    max_attempts: int = 0
    shrink: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ValueError("max_attempts must be >= 0")


@dataclass(frozen=True)
class RecoveryEvent:
    """One recovery decision, on the record for traces and benchmarks.

    ``kind`` is ``'rank_failure'`` (a planned fault killed a rank),
    ``'relaunch'`` (the supervisor rebuilt the world), ``'resume'`` (a
    source restarted from its checkpoint after a relaunch),
    ``'restart'`` / ``'solver_switch'`` / ``'precision_escalation'``
    (breakdown-ladder rungs), ``'checkpoint_restore'`` (corruption
    detected by an invariant monitor; solve rewound to the last verified
    checkpoint), or ``'checkpoint_fallback'`` (a stored snapshot failed
    its checksum on load and was discarded).  The full sequence is
    deterministic for a given fault-plan seed — tests compare it byte
    for byte.
    """

    kind: str
    attempt: int
    rank: int = -1
    source: int = -1
    iteration: int = -1
    model_time: float = 0.0
    wasted_iterations: int = 0
    detail: str = ""

    def render(self) -> str:
        where = f"r{self.rank}" if self.rank >= 0 else "  "
        src = f"s{self.source}" if self.source >= 0 else "  "
        it = f"it {self.iteration:>5d}" if self.iteration >= 0 else " " * 8
        wasted = (
            f"  wasted {self.wasted_iterations}"
            if self.wasted_iterations > 0
            else ""
        )
        return (
            f"attempt {self.attempt}  {where} {src} {it} "
            f"{self.kind:<21}{wasted}"
            + (f"  {self.detail}" if self.detail else "")
        )


# ------------------------------------------------------------------------ #
# Breakdown escalation
# ------------------------------------------------------------------------ #

#: Checkpoint restores one solve may spend on detected corruption.
MAX_CORRUPTION_RESTORES = 2

#: One notch up the precision ladder (half -> single -> double).
_PRECISION_UP: dict[Precision, Precision] = {
    Precision.HALF: Precision.SINGLE,
    Precision.SINGLE: Precision.DOUBLE,
}


@dataclass(frozen=True)
class EscalationStep:
    """One rung of the ladder: the configuration to retry with."""

    kind: str  # 'restart' | 'solver_switch' | 'precision_escalation'
    solver: str
    sloppy: Precision


class EscalationLadder:
    """The deterministic breakdown-response sequence for one solve.

    Rungs, in order: (1) restart from the last checkpoint with the same
    configuration — transient breakdowns (an unlucky shadow residual, a
    half-precision overflow near a reliable update) usually clear; (2)
    switch BiCGstab→CG, trading iterations for the guaranteed descent of
    the normal equations; (3+) raise the sloppy precision one notch at a
    time until it reaches the full precision.  ``max_steps`` bounds the
    total rungs taken; all ranks walk the ladder identically because
    breakdowns derive from globally reduced scalars.
    """

    def __init__(
        self,
        *,
        solver: str,
        sloppy: Precision,
        full: Precision,
        max_steps: int = 3,
    ) -> None:
        rungs: list[EscalationStep] = [EscalationStep("restart", solver, sloppy)]
        if solver == "bicgstab":
            solver = "cg"
            rungs.append(EscalationStep("solver_switch", solver, sloppy))
        up = _PRECISION_UP.get(sloppy)
        while up is not None and up.real_bytes <= full.real_bytes:
            sloppy = up
            rungs.append(EscalationStep("precision_escalation", solver, sloppy))
            up = _PRECISION_UP.get(sloppy)
        self._rungs = rungs[: max(0, max_steps)]
        self._taken = 0
        self._restores = 0

    @property
    def taken(self) -> int:
        return self._taken

    def next_step(self) -> EscalationStep | None:
        """The next rung, or ``None`` when the ladder is exhausted."""
        if self._taken >= len(self._rungs):
            return None
        step = self._rungs[self._taken]
        self._taken += 1
        return step

    def corruption_step(
        self, solver: str, sloppy: Precision
    ) -> EscalationStep | None:
        """The corruption rung: restore from the last *verified*
        checkpoint with the current configuration unchanged.

        Kept on its own bounded counter rather than consuming the
        numerical rungs — detected corruption says nothing about the
        solver or precision being wrong, so switching either would waste
        the ladder.  ``None`` once :data:`MAX_CORRUPTION_RESTORES`
        restores have been spent (a plan corrupting state faster than the
        solve progresses must fail loudly, not loop forever)."""
        if self._restores >= MAX_CORRUPTION_RESTORES:
            return None
        self._restores += 1
        return EscalationStep("checkpoint_restore", solver, sloppy)


# ------------------------------------------------------------------------ #
# Rank-failure recovery supervisor
# ------------------------------------------------------------------------ #


@dataclass
class RecoveryOutcome:
    """What :func:`run_with_recovery` hands back to the solve driver."""

    results: list[Any]
    slicing: GridSlicing
    fault_events: list[FaultEvent]
    comm_stats: list[CommStats]
    attempts: int = 0
    #: Model time burned by failed attempts plus retry backoff — added to
    #: the recovered solve's reported model time so benchmarks see the
    #: honest cost of recovery.
    lost_time_s: float = 0.0


def feasible_rank_count(geometry, max_ranks: int) -> int | None:
    """Largest time-slicing rank count ``<= max_ranks`` the lattice admits
    (:func:`~repro.lattice.geometry.grid_error` accepts ``(1, n)``), or
    ``None`` if there is none."""
    for n in range(max(max_ranks, 0), 0, -1):
        if grid_error(geometry.dims, 1, n) is None:
            return n
    return None


def run_with_recovery(
    *,
    geometry,
    n_gpus: int,
    grid: tuple[int, int] | None,
    cluster: ClusterSpec,
    fault_plan: FaultPlan | None,
    policy: RetryPolicy,
    store,
    make_body: Callable[[GridSlicing], Callable],
    integrity: IntegrityPolicy | None = None,
    rank_uniform: bool = False,
) -> RecoveryOutcome:
    """Run an SPMD solve body, surviving planned rank failures.

    ``grid=None`` is the paper's time slicing over ``n_gpus`` ranks, which
    may shrink over the survivors of a rank failure; a pinned
    ``(ranks_z, ranks_t)`` grid relaunches at its own size.  Both run as
    a :meth:`~repro.lattice.geometry.LatticeGeometry.slice_grid`
    decomposition (time slicing is the ``(1, n)`` grid), whose
    ``machine_grid`` declares the QMP machine and the orbit symmetry.

    ``make_body(slicing)`` builds the per-rank function for one
    attempt; ``store`` is the shared
    :class:`~repro.core.solvers.checkpoint.CheckpointStore` the body
    checkpoints into (it is rebound to each attempt's slicing, so
    committed checkpoints survive re-partitioning).

    A failure the policy cannot recover (it is disabled or spent, or no
    planned rank death fired) raises ``RuntimeError("rank r failed: ...")``
    from the root failure, with every attempt's ``fault_events`` attached.

    ``rank_uniform`` says the body's cost depends on its rank only through
    the cluster (link kinds, NUMA binding) — true of a timing-only solve.
    Such a body with no fault plan and no integrity checks runs one
    thread per symmetry orbit (:func:`~repro.comms.qmp.rank_orbits`);
    every other world simulates every rank.  Either way the results and
    stats come back per rank.
    """
    plan = fault_plan
    current = n_gpus
    attempt = 0
    lost = 0.0
    all_events: list[FaultEvent] = []

    while True:
        slicing = geometry.slice_grid(*(grid or (1, current)))
        fold = rank_uniform and plan is None and (integrity is None or not integrity.verify)
        orbit = (
            rank_orbits(slicing.n_ranks, slicing.machine_grid, cluster) if fold else None
        )
        store.rebind(slicing, attempt=attempt, orbit=orbit)
        world = SimMPI(slicing.n_ranks, cluster, plan, integrity, orbit=orbit)
        outcome = world.run(make_body(slicing), return_partial=True)
        all_events.extend(outcome.fault_events)
        if outcome.ok:
            return RecoveryOutcome(
                results=outcome.results,
                slicing=slicing,
                fault_events=all_events,
                comm_stats=outcome.stats,
                attempts=attempt,
                lost_time_s=lost,
            )

        root = outcome.root_failure()
        deaths = FaultPlan.deaths(outcome.fault_events)
        fired = sorted({e.rank for e in deaths})
        recoverable = (
            bool(fired)
            and isinstance(root.error, RankFailedError)
            and attempt < policy.max_attempts
        )
        if not recoverable:
            err = RuntimeError(f"rank {root.rank} failed: {root.error!r}")
            err.fault_events = all_events
            raise err from root.error

        attempt += 1
        t_fail = max((e.time for e in deaths), default=root.model_time)
        lost += t_fail + RELAUNCH_BACKOFF_S
        store.log_event(
            RecoveryEvent(
                "rank_failure",
                attempt=attempt,
                rank=root.rank,
                model_time=t_fail,
                detail=f"{root.mode} in {root.op}",
            )
        )
        # Retire the fired faults: the relaunched sub-run must not replay
        # them (their model-time triggers restart from zero with the new
        # world's clocks).
        plan = plan.without_ranks(fired)
        survivors = slicing.n_ranks - len(fired)
        if grid is None and policy.shrink:
            nxt = feasible_rank_count(geometry, max(survivors, 1))
            if nxt is not None:
                current = nxt
        if grid is None:
            # Stalls scheduled beyond the new world size cannot be hosted.
            plan = plan.without_ranks(
                [s.rank for s in plan.stalls if s.rank >= current]
            )
        store.log_event(
            RecoveryEvent(
                "relaunch",
                attempt=attempt,
                detail=(
                    f"{current if grid is None else slicing.n_ranks} ranks, "
                    f"backoff {RELAUNCH_BACKOFF_S * 1e6:.1f}us"
                ),
            )
        )

