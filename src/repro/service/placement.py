"""Topology- and residency-aware placement: *where and how* a batch runs.

PR 4's scheduler answered only *when*: round-robin worker pulls, every
worker slicing the time dimension, every batch re-uploading its gauge
configuration and re-deriving its kernel tunings.  This module is the
layer the dispatch loop now consults instead, and it decides three
things per batch:

* **How to partition** — :class:`GridSelector` scores every feasible
  process grid ``(ranks_z, ranks_t)`` for the request volume with the
  calibrated perf model (:mod:`repro.gpu.perfmodel`) at the tuned dslash
  occupancy (:mod:`repro.core.autotune`) and picks the cheapest
  per-iteration critical path.  One-dimensional time slicing minimizes
  *total* surface, but its per-face message is the whole spatial volume;
  once local T gets thin (the paper's >16-GPU regime, "Scaling Lattice
  QCD beyond 100 GPUs" arXiv:1109.2935), splitting a second dimension
  shrinks the largest face — and faces of different dimensions travel
  concurrently over different neighbour links — so a 2-D grid wins the
  critical path even though it moves more bytes in aggregate.

* **Where to run** — :class:`ResidencyRouter` routes a batch to an idle
  worker whose device already holds the batch's gauge configuration (in
  the same precisions and the same slicing), so the host→device gauge
  upload — the dominant per-batch setup transfer — is paid only on a
  residency miss.

* **What is already tuned** — :class:`SharedTuneCache` is the
  process-wide analogue of the ``tunecache.tsv`` real QUDA ships: the
  exhaustive Section V-E block-size sweep is paid once per (kernel,
  precision, local volume, device spec) and every later batch of the
  same shape reuses the stored launch parameters.  The store serializes
  to JSON, so ``repro serve --tunecache PATH`` amortizes the sweep
  across *campaigns*, not just across batches.

All three decisions are pure functions of the request, the pool state,
and the calibrated constants — the service's determinism witness is
unchanged by placement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import prod

from ..core.autotune import (
    KERNEL_REGISTERS,
    TuneCache,
    TuneResult,
    autotune,
    tune_sweep_cost_s,
)
from ..core.interface import PRECISION_MODES
from ..gpu.perfmodel import DEFAULT_PARAMS, PerfModelParams, kernel_time, pcie_time
from ..gpu.specs import GTX285, GPUSpec
from ..lattice.geometry import grid_error

__all__ = [
    "GridCandidate",
    "GridSelector",
    "ResidencyRouter",
    "SharedTuneCache",
    "PlacementPolicy",
    "PlacementDecision",
    "PlacementEngine",
    "gauge_upload_s",
    "residency_key",
]

#: Device traffic of one dslash application, in reals per site: 8 gauge
#: links (12 reals, compressed) + 8 neighbour spinors + source + result
#: (24 reals each).
_DSLASH_REALS_PER_SITE = 8 * 12 + 10 * 24
#: Wilson dslash arithmetic per site (the paper's effective-flops
#: convention).
_DSLASH_FLOPS_PER_SITE = 1320
#: A spinor face site travels as 24 reals at the sloppy precision.
_SPINOR_REALS = 24


def gauge_upload_s(
    dims: tuple[int, int, int, int],
    ranks: int,
    *,
    mode: str = "single-half",
) -> float:
    """Modeled host→device upload time of one rank's gauge slab(s).

    Mixed-precision modes upload the gauge twice (full + sloppy operator
    copies), serialized on each rank's own PCIe link; ranks upload
    concurrently, so the batch-level cost equals the per-rank cost.
    Ghost/pad regions are excluded — the estimate deliberately
    under-counts the charge :class:`~repro.core.dslash.DeviceSchurOperator`
    actually pays, so a residency discount can never drive a batch
    duration negative.
    """
    volume = prod(dims)
    if ranks < 1 or volume % ranks:
        raise ValueError(f"volume {volume} not divisible over {ranks} ranks")
    v_loc = volume // ranks
    full, sloppy = PRECISION_MODES[mode]
    # Four 2-row compressed links (12 reals each) per site.
    nbytes = sum(v_loc * 4 * 12 * p.real_bytes for p in {full, sloppy})
    return pcie_time(DEFAULT_PARAMS, nbytes, "h2d", asynchronous=False)


def residency_key(
    config_id: int,
    dims: tuple[int, int, int, int],
    mode: str,
    grid: tuple[int, int] | None,
) -> tuple:
    """Identity of a device-resident gauge setup.

    The *slicing* is part of the identity: a configuration uploaded as
    time slabs is laid out differently from the same configuration on a
    Z×T grid, and the precisions of the resident copies come from the
    mode — so neither grid-routed vs. T-sliced solves nor different
    precision recipes may alias.
    """
    return (config_id, dims, mode, grid)


# --------------------------------------------------------------------- #
# Grid selection
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class GridCandidate:
    """One feasible decomposition and its scored critical path."""

    #: ``(ranks_z, ranks_t)``, or ``None`` for the paper's time-only
    #: slicing (dispatched through the classic ``n_gpus`` path).
    grid: tuple[int, int] | None
    #: Estimated per-iteration critical path (seconds): kernel + the
    #: slowest dimension's face exchange.
    score_s: float
    kernel_s: float
    comm_s: float


class GridSelector:
    """Per-request process-grid selection from the calibrated perf model.

    For a worker of ``ranks`` GPUs and a request volume, every
    ``(ranks_z, ranks_t)`` grid the lattice admits
    (:func:`~repro.lattice.geometry.grid_error`, the rule
    :meth:`~repro.lattice.geometry.LatticeGeometry.slice_grid` enforces)
    — the time-only ``(1, ranks)`` among them, reported as ``grid=None``
    — is scored as *kernel time + communication critical path* per solver
    iteration:

    * kernel time is the dslash streaming cost of the local volume at
      the tuned occupancy (identical across candidates of equal local
      volume, but it keeps the score an absolute time);
    * each partitioned dimension exchanges two faces over its neighbour
      links, serialized within the dimension but concurrent *across*
      dimensions (distinct neighbours), so the communication term is the
      ``max`` over dimensions of ``2*(overhead + latency + face/bw)``.

    Small volumes therefore degrade to time-only slicing (per-message
    overhead dominates, and one partitioned dimension beats two), while
    large anisotropic volumes on many ranks route to a 2-D grid (the
    largest face shrinks).  Selection is memoized and deterministic.
    """

    def __init__(
        self,
        *,
        gpu_spec: GPUSpec = GTX285,
        params: PerfModelParams = DEFAULT_PARAMS,
        tune_cache: TuneCache | None = None,
    ) -> None:
        self.gpu_spec = gpu_spec
        self.params = params
        self._tunings = tune_cache if tune_cache is not None else autotune(gpu_spec)
        self._memo: dict[tuple, tuple[int, int] | None] = {}

    # ------------------------------------------------------------------ #

    def _estimate(self, dims, rz: int, rt: int, mode: str) -> GridCandidate:
        X, Y, Z, T = dims
        v_loc = (X * Y * Z * T) // (rz * rt)
        _, sloppy = PRECISION_MODES[mode]
        occ = self._tunings.occupancy("dslash", sloppy)
        kern = kernel_time(
            self.gpu_spec,
            self.params,
            sloppy,
            bytes_moved=v_loc * _DSLASH_REALS_PER_SITE * sloppy.real_bytes,
            flops=v_loc * _DSLASH_FLOPS_PER_SITE,
            occupancy=occ,
        )
        comm = 0.0
        for r, local in ((rz, Z // rz), (rt, T // rt)):
            if r == 1:
                continue
            face_bytes = (v_loc // local) * _SPINOR_REALS * sloppy.real_bytes
            per_face = (
                self.params.mpi_overhead_s
                + self.params.ib_latency_s
                + face_bytes / self.params.ib_bw
            )
            comm = max(comm, 2.0 * per_face)
        return GridCandidate(
            grid=None if rz == 1 else (rz, rt),
            score_s=kern + comm,
            kernel_s=kern,
            comm_s=comm,
        )

    def candidates(
        self, dims: tuple[int, int, int, int], ranks: int, mode: str = "single-half"
    ) -> list[GridCandidate]:
        """Every feasible decomposition, cheapest critical path first.

        Ties break toward time-only slicing, then toward the smaller
        ``ranks_z`` (fewer partitioned Z planes).
        """
        if ranks < 1:
            raise ValueError("ranks must be >= 1")
        out = [
            self._estimate(dims, rz, ranks // rz, mode)
            for rz in range(1, ranks + 1)
            if ranks % rz == 0 and grid_error(dims, rz, ranks // rz) is None
        ]
        out.sort(key=lambda c: (c.score_s, 0 if c.grid is None else c.grid[0]))
        return out

    def select(
        self, dims: tuple[int, int, int, int], ranks: int, mode: str = "single-half"
    ) -> tuple[int, int] | None:
        """The chosen grid (``None`` = time-only) for a request shape.

        Single-rank workers always degrade to time-only.  Raises
        :class:`ValueError` when *no* decomposition divides the volume —
        the request cannot run on this worker at all.
        """
        if ranks == 1:
            return None
        memo_key = (dims, ranks, mode)
        if memo_key not in self._memo:
            cands = self.candidates(dims, ranks, mode)
            if not cands:
                raise ValueError(
                    f"volume {dims} admits no decomposition over {ranks} "
                    "ranks: T is not divisible into even slabs and no "
                    "(ranks_z, ranks_t) grid divides Z and T evenly"
                )
            self._memo[memo_key] = cands[0].grid
        return self._memo[memo_key]


# --------------------------------------------------------------------- #
# Gauge residency
# --------------------------------------------------------------------- #


class ResidencyRouter:
    """Routes batches to gauge-resident workers (warm pools).

    The router reads each worker's ``resident_key`` — what its device
    held after its last successful batch — and prefers, in order: an
    idle worker already resident for this batch's key (a *hit*: the
    gauge upload is skipped), an idle worker holding nothing (a cold
    miss that does not evict another configuration's warmth), and only
    then the lowest-id idle worker (evicting its residency).  Ordering
    is by worker id at every step, so routing stays deterministic.
    """

    def __init__(self, workers, *, enabled: bool = True) -> None:
        self.workers = workers
        self.enabled = enabled

    def route(self, key: tuple, idle_ids: list[int]) -> tuple[int, bool]:
        """``(worker_id, predicted_hit)`` for a batch with residency ``key``."""
        if not idle_ids:
            raise ValueError("no idle workers to route to")
        ordered = sorted(idle_ids)
        if self.enabled:
            for w in ordered:
                if self.workers[w].resident_key == key:
                    return w, True
            for w in ordered:
                if self.workers[w].resident_key is None:
                    return w, False
        return ordered[0], False


# --------------------------------------------------------------------- #
# Shared tunecache
# --------------------------------------------------------------------- #


class SharedTuneCache:
    """Process-wide, serializable autotune store (QUDA's ``tunecache``).

    Entries are keyed by ``(kernel, precision, local volume, spec)``;
    :meth:`acquire` either assembles a complete
    :class:`~repro.core.autotune.TuneCache` from stored entries (a *hit*
    — zero model-time setup charge, the avoided sweep cost is credited
    to ``saved_s``) or runs the exhaustive sweep, stores every result,
    and charges :func:`~repro.core.autotune.tune_sweep_cost_s` to the
    batch (a *miss*, accumulated in ``spent_s``).  ``save``/``load``
    persist the entries as JSON so the sweep amortizes across campaigns
    and across scheduler restarts.

    A complete cache is assembled once per ``(spec, local volume)`` and
    handed to every later batch of that shape; callers only read it.
    Changing the entries (``store``, ``restore``) drops the assembled
    caches.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str, int, str], TuneResult] = {}
        self._assembled: dict[tuple[str, int], TuneCache] = {}
        self.hits = 0
        self.misses = 0
        self.saved_s = 0.0
        self.spent_s = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def reset_counters(self) -> None:
        """Start a fresh campaign scorecard (entries are kept)."""
        self.hits = 0
        self.misses = 0
        self.saved_s = 0.0
        self.spent_s = 0.0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------ #

    def lookup(self, spec: GPUSpec, local_volume: int) -> TuneCache | None:
        """A complete per-device cache for this local volume, or ``None``
        if any (kernel, precision) variant is missing."""
        cache = self._assembled.get((spec.name, local_volume))
        if cache is not None:
            return cache
        cache = TuneCache(spec_name=spec.name)
        for kernel, per_prec in KERNEL_REGISTERS.items():
            for precision in per_prec:
                res = self._entries.get(
                    (kernel, precision.name, local_volume, spec.name)
                )
                if res is None:
                    return None
                cache.results[(kernel, precision)] = res
        self._assembled[(spec.name, local_volume)] = cache
        return cache

    def store(self, spec: GPUSpec, local_volume: int, cache: TuneCache) -> None:
        self._assembled.clear()
        for (kernel, precision), res in cache.results.items():
            self._entries[(kernel, precision.name, local_volume, spec.name)] = res

    def acquire(self, spec: GPUSpec, local_volume: int) -> tuple[TuneCache, float]:
        """``(tunings, model setup charge)`` for one batch's shape."""
        sweep = tune_sweep_cost_s(spec, local_volume=local_volume)
        cached = self.lookup(spec, local_volume)
        if cached is not None:
            self.hits += 1
            self.saved_s += sweep
            return cached, 0.0
        fresh = autotune(spec)
        self.store(spec, local_volume, fresh)
        self.misses += 1
        self.spent_s += sweep
        return fresh, sweep

    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        return {
            "entries": [
                {
                    "kernel": kernel,
                    "precision": precision,
                    "local_volume": volume,
                    "spec": spec,
                    **res.to_json(),
                }
                for (kernel, precision, volume, spec), res in sorted(
                    self._entries.items()
                )
            ]
        }

    def restore(self, data: dict) -> None:
        """Hold exactly the checkpointed entries: one tuned after the
        commit is dropped, so the resumed run pays its sweep again just
        as the crashed one did."""
        self._assembled.clear()
        self._entries = {
            (
                entry["kernel"],
                entry["precision"],
                int(entry["local_volume"]),
                entry["spec"],
            ): TuneResult.from_json(entry)
            for entry in data["entries"]
        }

    def summary(self, cols, horizon_s) -> dict:
        """Nothing of its own: its rows are the placement block's."""
        return {}

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "SharedTuneCache":
        cache = cls()
        with open(path) as fh:
            cache.restore(json.load(fh))
        return cache


# --------------------------------------------------------------------- #
# The placement engine the dispatch loop consults
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PlacementPolicy:
    """The placement layer's two knobs (the shared tunecache is always
    consulted)."""

    #: ``"auto"`` scores grids per request; ``None`` forces the paper's
    #: time-only slicing; a ``(ranks_z, ranks_t)`` tuple pins the grid.
    grid: str | tuple[int, int] | None = "auto"
    #: Route batches to gauge-resident workers and charge the upload
    #: only on a miss.
    residency: bool = True

    def __post_init__(self) -> None:
        g = self.grid
        if g is None or g == "auto":
            return
        if (
            isinstance(g, tuple)
            and len(g) == 2
            and all(isinstance(v, int) and v >= 1 for v in g)
        ):
            return
        raise ValueError(
            f"grid must be 'auto', None, or a (ranks_z, ranks_t) tuple; got {g!r}"
        )


@dataclass(frozen=True)
class PlacementDecision:
    """Where and how one batch will run."""

    worker_id: int
    grid: tuple[int, int] | None
    residency_key: tuple
    predicted_hit: bool


@dataclass
class PlacementStats:
    """Campaign-level placement accounting (fed into the report)."""

    residency_hits: int = 0
    residency_misses: int = 0
    gauge_saved_s: float = 0.0
    #: Batches per decomposition, keyed by ``"ZxT"`` or ``"time"``.
    grids: dict[str, int] = field(default_factory=dict)


class PlacementEngine:
    """The dispatch loop's oracle: grid, worker, and tunings per batch."""

    def __init__(
        self,
        policy: PlacementPolicy,
        workers,
        *,
        gpu_spec: GPUSpec = GTX285,
        params: PerfModelParams = DEFAULT_PARAMS,
        tune_cache: SharedTuneCache | None = None,
    ) -> None:
        self.policy = policy
        self.workers = workers
        self.params = params
        self.selector = GridSelector(gpu_spec=gpu_spec, params=params)
        self.router = ResidencyRouter(workers, enabled=policy.residency)
        self.tune_cache = (
            tune_cache if tune_cache is not None else SharedTuneCache()
        )
        self.stats = PlacementStats()

    # ------------------------------------------------------------------ #

    def reset_stats(self) -> None:
        """Start a fresh campaign scorecard (the tunecache's *entries*
        survive — that persistence is the point — but its hit/miss and
        saved/spent counters restart with the stats)."""
        self.stats = PlacementStats()
        self.tune_cache.reset_counters()

    def grid_for(self, request, ranks: int) -> tuple[int, int] | None:
        g = self.policy.grid
        if g == "auto":
            return self.selector.select(request.dims, ranks, request.mode)
        if g is None:
            return None
        rz, rt = g
        if rz * rt != ranks:
            raise ValueError(
                f"pinned grid {g} needs {rz * rt} ranks but workers have {ranks}"
            )
        return None if rz == 1 else (rz, rt)

    def place(self, records, idle_ids: list[int]) -> PlacementDecision:
        """Decide worker and grid for a selected batch."""
        head = records[0].request
        ranks = self.workers[idle_ids[0]].ranks if idle_ids else 0
        grid = self.grid_for(head, ranks)
        key = residency_key(head.config_id, head.dims, head.mode, grid)
        worker_id, predicted = self.router.route(key, idle_ids)
        return PlacementDecision(
            worker_id=worker_id,
            grid=grid,
            residency_key=key,
            predicted_hit=predicted,
        )

    def observe(self, execution) -> None:
        """Fold one batch execution's placement outcome into the stats."""
        if execution.residency_hit:
            self.stats.residency_hits += 1
            self.stats.gauge_saved_s += execution.gauge_saved_s
        else:
            self.stats.residency_misses += 1
        label = (
            "time"
            if execution.grid is None
            else f"{execution.grid[0]}x{execution.grid[1]}"
        )
        self.stats.grids[label] = self.stats.grids.get(label, 0) + 1

    def summary(self) -> dict:
        """The placement block of :class:`~repro.service.metrics.ServiceReport`."""
        s, tc = self.stats, self.tune_cache
        routed = s.residency_hits + s.residency_misses
        return {
            "residency_hits": s.residency_hits,
            "residency_misses": s.residency_misses,
            "residency_hit_rate": s.residency_hits / routed if routed else 0.0,
            "gauge_saved_s": s.gauge_saved_s,
            "grids": dict(sorted(s.grids.items())),
            "tunecache_hits": tc.hits,
            "tunecache_misses": tc.misses,
            "tunecache_hit_rate": tc.hit_rate,
            "tune_setup_spent_s": tc.spent_s,
            "tune_setup_saved_s": tc.saved_s,
        }
