"""Solve checkpoints at reliable-update refresh points.

The reliable-update scheme (paper Section V-D) recomputes the *true*
full-precision residual ``r = b - A y`` every time the sloppy residual
has dropped by the δ factor.  At that instant the high-precision solution
``y`` is globally consistent and its quality is *known* — which makes the
refresh the natural (and free) place to checkpoint: no extra reductions,
no extra matrix applications, just a device→host download of ``y``.

:class:`SolveCheckpoint` is the serializable snapshot — enough state to
resume the Krylov solve (solution, iteration count, residual history,
solver identity, sloppy precision).  The solution is held at the solve's
own precision — the dtype of the full operator's store, complex64 in a
single-precision solve — which is lossless: it is what the solver keeps.
Serialization is one :mod:`repro.codec` record: a canonical-JSON header
(bookkeeping plus the solution's dtype and shape) followed by the raw
solution bytes, both inside the versioned, CRC32-protected frame, built
with one copy of the array (:func:`~repro.codec.encode_frame_parts`), so
the bytes are a pure
function of the state — no zip timestamps, no pickle — and two
same-seed runs produce byte-identical checkpoints.  A torn or corrupted
checkpoint is rejected (``ValueError``) on load, and the store falls
back to the previous verified commit instead of resuming a solve from
damaged state.  That is the only format: anything else, including
streams written before the frame existed, is rejected.

:class:`CheckpointStore` is the rank-collective side: every rank
contributes its slab at a refresh; when all simulated ranks of the current
attempt have contributed at the same iteration the store commits a *global*
checkpoint (a folded world's representative stands in for its orbit).
The store outlives the SPMD world, so a relaunched world — possibly
re-partitioned over fewer ranks — restores from the last commit
regardless of the old rank layout.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from ... import codec
from .resilience import RecoveryEvent

__all__ = ["SolveCheckpoint", "CheckpointStore"]

#: Payload layout: u32 header length, JSON header, raw ``x_full`` bytes.
_HEADER_LEN = struct.Struct("<I")


@dataclass
class SolveCheckpoint:
    """One committed recovery point of a Krylov solve.

    ``x_full`` is the *global* full-lattice solution ``(V, 4, 3)`` with
    zeros on the off-solve parity (the preconditioned solver only evolves
    one checkerboard; the other is reconstructed after convergence), in
    the dtype the solve stores it in: complex64 for a single-precision
    solve, complex128 for a double one.
    ``None`` in timing-only mode, where there is no field data — resuming
    then just restores the iteration bookkeeping.
    """

    iteration: int
    rnorm: float
    reliable_updates: int
    history: list[float] = field(default_factory=list)
    solver: str = "bicgstab"
    sloppy_precision: str = "SINGLE"
    x_full: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Deterministic serialization
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialize to deterministic bytes (same state → same bytes).

        The frame CRC covers the whole payload (bookkeeping *and*
        solution data), so a snapshot validates itself on load.  The
        array is copied once, into the frame itself."""
        x = self.x_full
        header = codec.canonical_bytes(
            {
                "iteration": self.iteration,
                "rnorm": self.rnorm,
                "reliable_updates": self.reliable_updates,
                "history": [float(h) for h in self.history],
                "solver": self.solver,
                "sloppy_precision": self.sloppy_precision,
                # dtype.str spells the byte order out ("<c16").
                "x": None if x is None else {"dtype": x.dtype.str, "shape": x.shape},
            }
        )
        raw = () if x is None else (np.ascontiguousarray(x).reshape(-1).view(np.uint8),)
        return codec.encode_frame_parts(
            (_HEADER_LEN.pack(len(header)), header, *raw), codec.KIND_CHECKPOINT
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SolveCheckpoint":
        _, payload = codec.decode_frame(data, expect_kind=codec.KIND_CHECKPOINT)
        # Past the CRC, a layout error means to_bytes did not write this
        # payload; callers handle ValueError, so every such error is one.
        try:
            (hlen,) = _HEADER_LEN.unpack_from(payload)
            body = _HEADER_LEN.size + hlen
            header = codec.parse_json(payload[_HEADER_LEN.size : body])
            spec = header["x"]
            x_full = (
                None
                if spec is None
                else np.frombuffer(payload[body:], dtype=np.dtype(spec["dtype"]))
                .reshape(spec["shape"])
                .copy()
            )
            return cls(
                iteration=header["iteration"],
                rnorm=header["rnorm"],
                reliable_updates=header["reliable_updates"],
                history=list(header["history"]),
                solver=header["solver"],
                sloppy_precision=header["sloppy_precision"],
                x_full=x_full,
            )
        except (struct.error, KeyError, TypeError) as exc:
            raise codec.UnknownFormat(
                f"not a SolveCheckpoint payload: {exc!r}"
            ) from exc


class CheckpointStore:
    """Rank-collective checkpoint/result store shared across attempts.

    One instance per :func:`~repro.core.invert_multi` call.  The SPMD
    body threads of the *current* attempt contribute slabs; the recovery
    supervisor rebinds the store to each attempt's slicing (clearing any
    half-contributed pieces a dead attempt left behind — a commit
    requires every rank, so a committed checkpoint is always globally
    consistent).  Also the ledger of :class:`RecoveryEvent`\\ s, so the
    full recovery sequence can be asserted byte-for-byte in tests.
    """

    def __init__(self, n_sources: int) -> None:
        self._lock = threading.RLock()
        self.n_sources = n_sources
        self.attempt = 0
        self._orbit: tuple[int, ...] = ()
        self._n_simulated = 0
        self._gather = None
        # source -> iteration -> rank -> (slab | None)
        self._pending: dict[int, dict[int, dict[int, np.ndarray | None]]] = {}
        self._meta: dict[tuple[int, int], dict] = {}
        # source -> committed snapshots as *serialized, self-validating
        # bytes* (most recent last; the previous commit is retained as
        # the fallback when the latest fails its checksum on load).
        self._latest: dict[int, list[bytes]] = {}
        # Highest iteration any attempt reached per source (for honest
        # wasted-iteration accounting on resume).
        self._progress: dict[int, int] = {}
        # source -> (x_global | None, info) for fully solved sources.
        self._completed: dict[int, tuple[np.ndarray | None, object]] = {}
        self._result_pending: dict[int, dict[int, np.ndarray | None]] = {}
        self._result_info: dict[int, object] = {}
        self._events: list[RecoveryEvent] = []
        self._resumed: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------ #
    # Attempt lifecycle
    # ------------------------------------------------------------------ #

    def rebind(
        self, slicing, *, attempt: int = 0, orbit: tuple[int, ...] | None = None
    ) -> None:
        """Bind the store to one attempt's decomposition.

        ``orbit`` is the attempt's world's orbit map
        (:class:`~repro.comms.mpi_sim.SimMPI`): only representatives
        contribute, each standing in for the ranks it represents.
        Clears every half-contributed piece (checkpoints *and* results):
        a dead attempt's partial contributions must never mix with a new
        attempt's at the same key.  Committed checkpoints survive.
        """
        with self._lock:
            self.attempt = attempt
            self._orbit = (
                tuple(range(slicing.n_ranks)) if orbit is None else tuple(orbit)
            )
            self._n_simulated = len(set(self._orbit))
            self._gather = slicing.gather
            self._pending.clear()
            self._meta.clear()
            self._result_pending.clear()
            self._result_info.clear()

    # ------------------------------------------------------------------ #
    # Rank-collective contributions
    # ------------------------------------------------------------------ #

    def contribute(
        self,
        source: int,
        rank: int,
        *,
        iteration: int,
        rnorm: float,
        reliable_updates: int,
        history: list[float],
        solver: str,
        sloppy_precision: str,
        slab: np.ndarray | None,
    ) -> None:
        """One rank's refresh-point contribution; commits when complete."""
        with self._lock:
            pieces = self._pending.setdefault(source, {}).setdefault(iteration, {})
            pieces[rank] = slab
            self._meta[(source, iteration)] = {
                "rnorm": rnorm,
                "reliable_updates": reliable_updates,
                "history": list(history),
                "solver": solver,
                "sloppy_precision": sloppy_precision,
            }
            self._progress[source] = max(self._progress.get(source, 0), iteration)
            if len(pieces) < self._n_simulated:
                return
            meta = self._meta.pop((source, iteration))
            slabs = [pieces[rep] for rep in self._orbit]
            x_full = (
                None
                if any(s is None for s in slabs)
                else self._gather(slabs)
            )
            del self._pending[source][iteration]
            ckpt = SolveCheckpoint(
                iteration=iteration,
                rnorm=meta["rnorm"],
                reliable_updates=meta["reliable_updates"],
                history=meta["history"],
                solver=meta["solver"],
                sloppy_precision=meta["sloppy_precision"],
                x_full=x_full,
            )
            blobs = self._latest.setdefault(source, [])
            blobs.append(ckpt.to_bytes())
            del blobs[:-2]  # latest + one verified fallback

    def record_result(self, source: int, rank: int, *, slab, info) -> None:
        """One rank's final-solution contribution; a completed source is
        skipped outright by any later attempt."""
        with self._lock:
            pieces = self._result_pending.setdefault(source, {})
            pieces[rank] = slab
            if rank == 0:
                self._result_info[source] = info
            if len(pieces) < self._n_simulated or source not in self._result_info:
                return
            slabs = [pieces[rep] for rep in self._orbit]
            x = (
                None
                if any(s is None for s in slabs)
                else self._gather(slabs)
            )
            del self._result_pending[source]
            self._completed[source] = (x, self._result_info.pop(source))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def latest(self, source: int) -> SolveCheckpoint | None:
        """Most recent checkpoint whose checksum validates.

        A snapshot that fails validation is discarded (once, under the
        lock, with one ``checkpoint_fallback`` ledger entry — every rank
        of the attempt then resumes from the same surviving commit)
        rather than resuming the solve from torn or corrupted state."""
        with self._lock:
            blobs = self._latest.get(source)
            if not blobs:
                return None
            while blobs:
                try:
                    return SolveCheckpoint.from_bytes(blobs[-1])
                except ValueError as exc:
                    blobs.pop()
                    self._events.append(
                        RecoveryEvent(
                            "checkpoint_fallback",
                            attempt=self.attempt,
                            source=source,
                            detail=(
                                f"discarded corrupt snapshot ({exc}); "
                                + (
                                    "falling back to previous commit"
                                    if blobs
                                    else "no verified checkpoint left"
                                )
                            ),
                        )
                    )
            return None

    def completed(self, source: int) -> tuple[np.ndarray | None, object] | None:
        with self._lock:
            return self._completed.get(source)

    def progress(self, source: int) -> int:
        with self._lock:
            return self._progress.get(source, 0)

    # ------------------------------------------------------------------ #
    # Recovery ledger
    # ------------------------------------------------------------------ #

    def log_event(self, ev: RecoveryEvent) -> None:
        with self._lock:
            self._events.append(ev)

    def events(self) -> list[RecoveryEvent]:
        with self._lock:
            return list(self._events)

    def note_resume(self, source: int, resume_iteration: int) -> None:
        """Log one 'resume' event per (source, attempt) — whichever rank
        arrives first wins; the content is rank-independent, so the
        ledger stays deterministic."""
        with self._lock:
            if self.attempt == 0:
                return
            key = (source, self.attempt)
            if key in self._resumed:
                return
            self._resumed.add(key)
            wasted = max(0, self._progress.get(source, 0) - resume_iteration)
            self._events.append(
                RecoveryEvent(
                    "resume",
                    attempt=self.attempt,
                    source=source,
                    iteration=resume_iteration,
                    wasted_iterations=wasted,
                    detail=f"from checkpoint at iteration {resume_iteration}",
                )
            )
