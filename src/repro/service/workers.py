"""Simulated multi-GPU workers: each batch runs on an n-rank cluster.

A :class:`SimWorker` is the service's execution unit — the analogue of
one multi-GPU job slot on the paper's cluster.  Executing a batch spins
up an n-rank SimMPI world (exactly what :func:`repro.core.invert_multi`
/ :func:`repro.core.invert_model_multi` do), pays the device setup once,
and runs one solver loop per right-hand side.  The batch's *service
time* is the model time the worker was occupied: the max over ranks of
the last source's timeline end, plus any model time lost to recovery.

**Placement integration** (the placement layer decides, the worker
executes):

* ``grid=(ranks_z, ranks_t)`` runs the batch on the multi-dimensional
  decomposition instead of time-only slicing — the worker's rank count
  is fixed; the grid reshapes it.
* The worker tracks the :func:`~repro.service.placement.residency_key`
  of its last successful batch.  When the next batch matches, the
  device already holds the gauge configuration in the right precisions
  and the right slicing, and the modeled host→device gauge upload is
  credited back (charged only on a miss).  A failed batch tears the
  context down, clearing residency.
* A :class:`~repro.service.placement.SharedTuneCache` replaces per-batch
  retuning: on a miss the worker pays the Section V-E exhaustive-sweep
  model time and stores the tunings; on a hit the stored launch
  parameters are reused for free.

Fault integration: a :class:`~repro.comms.faults.FaultPlan` bound to the
worker perturbs its batches.  With an enabled
:class:`~repro.core.solvers.resilience.RetryPolicy` the worker
*self-heals* (relaunch over survivors, resume from checkpoint) and the
batch completes with recovery accounting; with the default (disabled)
one the batch dies with a structured
:class:`~repro.comms.faults.RankFailedError` and the service decides (retry elsewhere or fail the requests).  Either way a
fired rank fault is retired from the worker's plan — a planned crash is
a one-shot event, not a curse on every later batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from ..comms.cluster import ClusterSpec
from ..comms.faults import FaultPlan, RankFailedError, root_cause
from ..core import (
    InvertResult,
    RetryPolicy,
    invert_model_multi,
    invert_multi,
    paper_invert_param,
)
from ..gpu.specs import GTX285, GPUSpec
from .placement import SharedTuneCache, gauge_upload_s, residency_key
from .request import SolveRequest

__all__ = ["BatchExecution", "SimWorker"]


#: Amplitude of the weak-field gauge a functional worker builds per
#: configuration id.
GAUGE_NOISE = 0.1
#: Model time charged for tearing down a crashed batch before the worker
#: can accept new work.
FAILURE_PENALTY_S = 1e-3


@dataclass
class BatchExecution:
    """What one batch run cost and produced."""

    ok: bool
    #: Model time the worker was occupied (successful batches: setup +
    #: all solver loops + recovery, plus any tunecache-miss sweep, minus
    #: any residency-hit upload credit; failed batches: time to the
    #: failure plus the teardown penalty).
    duration_s: float
    failure: RankFailedError | None = None
    #: Per-request solver outcomes, aligned with the submitted batch
    #: (empty for failed executions).
    outcomes: list[dict] = field(default_factory=list)
    recoveries: int = 0
    restarts: int = 0
    corruptions_detected: int = 0
    #: Ranks whose planned stall/crash fired during this execution.
    fired_ranks: tuple[int, ...] = ()
    # ---- placement outcome ------------------------------------------- #
    #: Process grid the batch ran on (``None`` = time-only slicing).
    grid: tuple[int, int] | None = None
    #: The gauge configuration was already device-resident: the modeled
    #: host→device upload was credited back.
    residency_hit: bool = False
    gauge_saved_s: float = 0.0
    #: Shared-tunecache outcome: a miss charges the exhaustive-sweep
    #: model time, a hit charges nothing.
    tune_hit: bool = False
    tune_cost_s: float = 0.0


class SimWorker:
    """One simulated multi-GPU worker slot."""

    #: Model-mode service times are pure functions of the schedule, so
    #: identical clean batches share one measurement (a wall-clock
    #: optimization only — model time is unaffected).  Durations are
    #: cached *cold*: before the residency credit and the tunecache
    #: charge, which are applied per execution.
    _model_cache: dict[tuple, tuple[float, list[dict]]] = {}

    def __init__(
        self,
        worker_id: int,
        *,
        ranks: int = 2,
        gpu_spec: GPUSpec = GTX285,
        cluster: ClusterSpec | None = None,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy = RetryPolicy(),
        functional: bool = False,
        fixed_iterations: int = 15,
        #: Track gauge residency and credit the upload on hits.
        residency: bool = True,
        #: Straggler injection: successful batches take this multiple of
        #: their modeled duration (a throttled GPU or degraded link slows
        #: the node without failing it).  1.0 = healthy.
        straggler_factor: float = 1.0,
    ) -> None:
        if ranks < 1:
            raise ValueError("ranks must be >= 1")
        if straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        self.worker_id = worker_id
        self.ranks = ranks
        self.gpu_spec = gpu_spec
        self.cluster = cluster
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.functional = functional
        self.fixed_iterations = fixed_iterations
        self.residency = residency
        self.straggler_factor = straggler_factor
        self.batches_run = 0
        self.busy_s = 0.0
        #: Identity of the gauge setup left on the device by the last
        #: successful batch (config, dims, mode, grid) — ``None`` after
        #: a failure (the crashed context is torn down) or before any
        #: batch ran.
        self.resident_key: tuple | None = None
        #: Retired by the elastic pool controller: the slot takes no new
        #: work and its device memory has been drained.
        self.retired = False
        self._gauges: dict[tuple, object] = {}

    def retire(self) -> None:
        """Scale-down: release the slot and drain its device memory.

        Residency must go with the worker — a retired device's gauge
        warmth leaking into the routing tables would let the placement
        layer credit uploads nobody can skip."""
        self.retired = True
        self.evict_residency()

    def evict_residency(self) -> None:
        """Drain the device's warm gauge state without retiring the slot.

        Quarantine uses this: the circuit breaker may reinstate the
        worker after its probe, but while it sits in cooldown its warmth
        must not keep attracting traffic through the routing tables —
        and a genuinely sick device's resident state is not to be
        trusted anyway."""
        self.resident_key = None
        self._gauges.clear()

    # ------------------------------------------------------------------ #
    # Campaign-checkpoint round trip: the scheduler died, the worker
    # (and its device-resident gauge) did not.
    # ------------------------------------------------------------------ #

    def state_json(self) -> dict:
        key = self.resident_key
        return {
            "worker_id": self.worker_id,
            "busy_s": self.busy_s,
            "batches_run": self.batches_run,
            "retired": self.retired,
            "resident": (
                None
                if key is None
                else {
                    "config_id": key[0],
                    "dims": list(key[1]),
                    "mode": key[2],
                    "grid": list(key[3]) if key[3] is not None else None,
                }
            ),
        }

    def restore_state(self, data: dict) -> None:
        self.busy_s = float(data["busy_s"])
        self.batches_run = int(data["batches_run"])
        self.retired = bool(data["retired"])
        res = data["resident"]
        self.resident_key = (
            None
            if res is None
            else (
                int(res["config_id"]),
                tuple(res["dims"]),
                res["mode"],
                tuple(res["grid"]) if res["grid"] is not None else None,
            )
        )

    # ------------------------------------------------------------------ #

    def _invert_param(self, head: SolveRequest):
        return paper_invert_param(
            head.mode,
            mass=head.mass,
            solver=head.solver,
            fixed_iterations=self.fixed_iterations,
            retry_policy=self.retry_policy,
        )

    def _gauge_for(self, head: SolveRequest, grid: tuple[int, int] | None):
        """The worker's resident copy of a gauge configuration (weak
        field derived deterministically from the config id).

        The cache key includes the grid: the *device-resident* slabs of
        a grid-routed upload are a different object from the T-sliced
        slabs of the same configuration, so the two must never alias
        (the host field's values are identical either way — the identity
        is per-slicing on purpose).
        """
        key = (head.config_id, head.dims, grid)
        if key not in self._gauges:
            from ..lattice import LatticeGeometry, weak_field_gauge

            rng = np.random.default_rng(
                np.random.SeedSequence([head.config_id, 0xC0F1])
            )
            self._gauges[key] = weak_field_gauge(
                LatticeGeometry(head.dims), rng, noise=GAUGE_NOISE
            )
        return self._gauges[key]

    @staticmethod
    def _batch_duration(results: list[InvertResult]) -> float:
        last = results[-1]
        return max(i.t_end for i in last.per_rank) + last.stats.lost_time

    @staticmethod
    def _outcomes(results: list[InvertResult]) -> list[dict]:
        return [
            {
                "iterations": r.stats.iterations,
                "converged": r.stats.converged,
                "residual_norm": r.stats.residual_norm,
                "recoveries": r.stats.recoveries,
            }
            for r in results
        ]

    def _retire_fired(self, events) -> tuple[int, ...]:
        """Drop rank faults that fired from this worker's plan (each
        batch restarts model clocks at zero, so a fired stall/crash
        would otherwise replay on every subsequent batch)."""
        fired = tuple(sorted({e.rank for e in FaultPlan.deaths(events)}))
        if fired and self.fault_plan is not None:
            self.fault_plan = self.fault_plan.without_ranks(fired)
        return fired

    # ------------------------------------------------------------------ #

    def local_volume(self, dims: tuple[int, int, int, int]) -> int:
        """Sites per rank — the tunecache key's volume component (equal
        for time-only slicing and any grid over the same rank count)."""
        volume = prod(dims)
        if volume % self.ranks:
            raise ValueError(
                f"volume {volume} not divisible over {self.ranks} ranks"
            )
        return volume // self.ranks

    def execute(
        self,
        requests: list[SolveRequest],
        *,
        grid: tuple[int, int] | None = None,
        tune_cache: SharedTuneCache | None = None,
    ) -> BatchExecution:
        """Run one batch to completion or structured failure.

        All requests share a compatibility key (the scheduler's
        invariant); the head request supplies the recipe, and of the
        others only ``req_id`` and ``source_seed`` are read.  ``grid``
        reshapes the worker's ranks into a (Z, T) process grid;
        ``tune_cache`` swaps per-batch retuning for the shared store.
        """
        if not requests:
            raise ValueError("empty batch")
        head = requests[0]
        if grid is not None and grid[0] * grid[1] != self.ranks:
            raise ValueError(
                f"grid {grid} needs {grid[0] * grid[1]} ranks; worker "
                f"{self.worker_id} has {self.ranks}"
            )
        self.batches_run += 1

        key = residency_key(head.config_id, head.dims, head.mode, grid)
        hit = self.residency and self.resident_key == key
        saved_s = (
            gauge_upload_s(head.dims, self.ranks, mode=head.mode) if hit else 0.0
        )
        tunings = None
        tune_hit = False
        tune_cost = 0.0
        if tune_cache is not None:
            tunings, tune_cost = tune_cache.acquire(
                self.gpu_spec, self.local_volume(head.dims)
            )
            tune_hit = tune_cost == 0.0

        try:
            if self.functional:
                results = self._execute_functional(head, requests, grid, tunings)
            else:
                cached = self._execute_model(head, len(requests), grid)
                if cached is not None:
                    duration, outcomes = cached
                    results = None
                else:
                    results = invert_model_multi(
                        head.dims,
                        self._invert_param(head),
                        n_sources=len(requests),
                        n_gpus=self.ranks,
                        grid=grid,
                        cluster=self.cluster,
                        gpu_spec=self.gpu_spec,
                        enforce_memory=False,
                        tune_cache=tunings,
                        fault_plan=self.fault_plan,
                    )
        except RuntimeError as exc:
            failure = root_cause(exc, RankFailedError)
            if failure is None:
                raise
            fired = self._retire_fired(getattr(exc, "fault_events", []))
            # The crashed context is torn down with the batch: whatever
            # gauge the device held is gone (residency eviction), and no
            # upload credit is taken — the setup must be repaid.
            self.resident_key = None
            return BatchExecution(
                ok=False,
                duration_s=max(failure.model_time, 0.0)
                + FAILURE_PENALTY_S
                + tune_cost,
                failure=failure,
                fired_ranks=fired or (failure.rank,),
                grid=grid,
                tune_hit=tune_hit,
                tune_cost_s=tune_cost,
            )
        if results is not None:
            fired = self._retire_fired(
                [e for r in results for e in r.fault_events]
            )
            duration = self._batch_duration(results)
            outcomes = self._outcomes(results)
            recoveries = max(r.stats.recoveries for r in results)
            restarts = max(r.stats.restarts for r in results)
            corruptions = max(r.stats.corruptions_detected for r in results)
            self._maybe_cache(head, len(requests), grid, duration, outcomes)
        else:
            fired = ()
            recoveries = restarts = corruptions = 0
        self.resident_key = key
        # Straggler injection scales the solve itself, not the cacheable
        # cold duration (the model cache is shared across workers) and
        # not the setup credits/charges.
        execution = BatchExecution(
            ok=True,
            duration_s=max(
                duration * self.straggler_factor + tune_cost - saved_s, 0.0
            ),
            outcomes=outcomes,
            recoveries=recoveries,
            restarts=restarts,
            corruptions_detected=corruptions,
            fired_ranks=fired,
            grid=grid,
            residency_hit=hit,
            gauge_saved_s=saved_s,
            tune_hit=tune_hit,
            tune_cost_s=tune_cost,
        )
        return execution

    def _execute_functional(
        self,
        head: SolveRequest,
        requests: list[SolveRequest],
        grid: tuple[int, int] | None,
        tunings,
    ) -> list[InvertResult]:
        from ..lattice import random_spinor

        gauge = self._gauge_for(head, grid)
        sources = [
            random_spinor(
                gauge.geometry,
                np.random.default_rng(
                    np.random.SeedSequence([r.source_seed, r.req_id, 0x50CE])
                ),
            )
            for r in requests
        ]
        return invert_multi(
            gauge,
            sources,
            self._invert_param(head),
            n_gpus=self.ranks,
            grid=grid,
            cluster=self.cluster,
            gpu_spec=self.gpu_spec,
            tune_cache=tunings,
            verify=False,
            fault_plan=self.fault_plan,
        )

    # ------------------------------------------------------------------ #
    # Model-mode duration cache (wall-clock only; model time unaffected)
    # ------------------------------------------------------------------ #

    def _cache_key(
        self, head: SolveRequest, n: int, grid: tuple[int, int] | None
    ) -> tuple | None:
        if self.functional or self.fault_plan is not None or self.cluster is not None:
            return None
        # The grid is part of the key: a grid-routed schedule and a
        # T-sliced schedule of the same volume have different comm
        # patterns and must never alias.
        return (
            head.dims, head.mode, head.solver, head.mass, n,
            self.ranks, grid, self.gpu_spec.name, self.fixed_iterations,
        )

    def _execute_model(
        self, head: SolveRequest, n: int, grid: tuple[int, int] | None
    ):
        key = self._cache_key(head, n, grid)
        if key is None:
            return None
        return self._model_cache.get(key)

    def _maybe_cache(
        self,
        head: SolveRequest,
        n: int,
        grid: tuple[int, int] | None,
        duration: float,
        outcomes: list[dict],
    ) -> None:
        key = self._cache_key(head, n, grid)
        if key is not None:
            self._model_cache[key] = (duration, outcomes)
