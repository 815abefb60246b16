"""Campaign-level checkpointing: the scheduler self-heals like a solve.

PR 2 taught *solves* to survive rank crashes: refresh-point
:class:`~repro.core.solvers.checkpoint.SolveCheckpoint` snapshots,
deterministic bytes, checksum-validated restore with a previous-commit
fallback.  This module applies the identical design one level up — to
the scheduler itself.  A long-lived daemon streaming requests for days
*will* lose its scheduler process eventually; when it does, the in-flight
campaign (admitted-but-unserved requests, terminal outcomes already
acked, the worker pool's residency state, the shared tunecache, the
drain/arrival estimators, the autoscaler's position) must not evaporate.

:class:`CampaignCheckpoint` is the serializable snapshot, committed at
batch boundaries — the campaign analogue of a reliable-update refresh
point, where the scheduler's view is globally consistent: no event is
half-processed, every request is in a well-defined lifecycle state.
Serialization is one :mod:`repro.codec` record — canonical JSON behind
a versioned CRC32 frame — so the bytes are a pure function of the state
and a torn or corrupted snapshot is *rejected on load* rather than
resuming a campaign from damaged bookkeeping.  That is the only format:
anything else is rejected.

:class:`CampaignCheckpointStore` keeps the latest commit plus one
verified fallback (exactly like the solve-level store) and optionally
mirrors each commit to a file, so a restarted process — not just a
surviving one — can resume.  Restore semantics are at-least-once:
whatever happened after the last commit (completions the scheduler never
acked, arrivals it never logged) is deterministically *replayed* by the
resumed run, so the no-lost-requests invariant holds across the crash.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from .. import codec
from .request import RequestRecord

__all__ = [
    "CampaignCheckpoint",
    "CampaignCheckpointStore",
    "MirroredCheckpointStore",
    "SchedulerCrash",
]

class SchedulerCrash(RuntimeError):
    """The (simulated) scheduler process died mid-campaign.

    Raised by :meth:`SolveService.serve` when the model clock reaches the
    configured crash time.  Carries the checkpoint store so the caller
    can hand it straight to :meth:`SolveService.resume` — the same
    supervisor pattern ``run_with_recovery`` uses for solves.
    """

    def __init__(self, time_s: float, store: "CampaignCheckpointStore") -> None:
        super().__init__(
            f"scheduler crashed at {time_s * 1e6:.1f}us with "
            f"{store.committed} checkpoint commit(s)"
        )
        self.time_s = time_s
        self.store = store


def _object(item) -> dict:
    if not isinstance(item, dict):
        raise TypeError(f"expected a JSON object, got {type(item).__name__}")
    return item


@dataclass
class CampaignCheckpoint:
    """One committed recovery point of a streaming campaign.

    The scheduler kernel's own state, keyed by lifecycle class, plus one
    opaque blob per stateful *part* (estimators, tunecache, autoscaler,
    breakers, brownout, hedge and domain ledgers, tenancy):

    * ``terminal`` — records already completed/failed/rejected: restored
      verbatim (their outcomes were acked; re-running them would violate
      exactly-once acking).
    * ``pending`` — records admitted but not terminal (queued, running,
      or preempted at commit time).  Their batches died with the
      scheduler, so they re-enter the queue on restore.
    * ``arrivals_consumed`` — how many arrivals the scheduler had pulled
      from the (deterministic) source; the resumed run regenerates the
      source and skips exactly this prefix.
    * ``workers`` — per-worker residency keys, busy time, retired flags:
      the *workers* survived the scheduler; their devices still hold
      gauge configurations, and throwing that warmth away on every
      scheduler restart would repay setup the whole placement layer
      exists to avoid.
    * ``parts`` — ``{name: part.to_json()}`` for every part the campaign
      was configured with.  The checkpoint does not know what a part
      holds; the part's own ``restore`` reads its blob back.  Breaker
      quarantines, the brownout level, token-bucket levels and fairness
      clocks are *state*, not recomputable — a resumed scheduler must
      not hand a known-flaky worker traffic again, rediscover an
      overload from NORMAL, or re-charge a tenant.
    """

    time_s: float = 0.0
    arrivals_consumed: int = 0
    next_batch_id: int = 0
    next_req_seq: int = 0
    makespan_s: float = 0.0
    checkpoints_committed: int = 0
    completion_order: list[int] = field(default_factory=list)
    #: ``RequestRecord.to_json()`` dicts, split by lifecycle class.
    terminal: list[dict] = field(default_factory=list)
    pending: list[dict] = field(default_factory=list)
    #: Per-worker ``{"resident": key-or-None, "busy_s": float, ...}``.
    workers: list[dict] = field(default_factory=list)
    parts: dict[str, dict] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Deterministic serialization (PR-2 recipe: magic + JSON + checksum)
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict) -> "CampaignCheckpoint":
        """Rebuild from :meth:`to_json` output.

        A CRC-valid frame only proves the bytes are the ones written,
        not that this build wrote them: a body of any other shape —
        including the pre-``parts`` layout with one field per feature —
        raises :class:`~repro.codec.UnknownFormat`, so
        :meth:`CampaignCheckpointStore.latest` falls back to the
        previous commit instead of dying on a ``KeyError``.
        """
        try:
            return cls(
                time_s=float(data["time_s"]),
                arrivals_consumed=int(data["arrivals_consumed"]),
                next_batch_id=int(data["next_batch_id"]),
                next_req_seq=int(data["next_req_seq"]),
                makespan_s=float(data["makespan_s"]),
                checkpoints_committed=int(data["checkpoints_committed"]),
                completion_order=[int(r) for r in data["completion_order"]],
                terminal=[_object(d) for d in data["terminal"]],
                pending=[_object(d) for d in data["pending"]],
                workers=[_object(d) for d in data["workers"]],
                parts={
                    name: _object(blob) for name, blob in data["parts"].items()
                },
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise codec.UnknownFormat(
                f"campaign checkpoint body has the wrong shape: {exc!r}"
            ) from exc

    def to_bytes(self) -> bytes:
        return codec.encode_record(self.to_json(), kind=codec.KIND_CAMPAIGN)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CampaignCheckpoint":
        _, body = codec.decode_record(data, expect_kind=codec.KIND_CAMPAIGN)
        return cls.from_json(body)

    # ------------------------------------------------------------------ #

    def restored_records(self) -> tuple[list[RequestRecord], list[RequestRecord]]:
        """``(terminal, pending)`` as live records."""
        return (
            [RequestRecord.from_json(d) for d in self.terminal],
            [RequestRecord.from_json(d) for d in self.pending],
        )


class CampaignCheckpointStore:
    """Latest + one verified fallback commit, optionally file-mirrored.

    The in-memory pair mirrors the solve-level store's contract: a
    commit that later fails its checksum on load is discarded (once)
    and the previous verified commit restores instead.  ``path`` makes
    each commit durable, so a *restarted* scheduler process — not just a
    surviving supervisor — can :meth:`load` and resume.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.committed = 0
        self._blobs: list[bytes] = []

    def __len__(self) -> int:
        return len(self._blobs)

    def commit(self, checkpoint: CampaignCheckpoint) -> None:
        blob = checkpoint.to_bytes()
        self._blobs.append(blob)
        del self._blobs[:-2]  # latest + one verified fallback
        self.committed += 1
        if self.path:
            # Flush to the disk before the rename publishes the file, or
            # a host crash can leave an empty/torn mirror under the name.
            tmp = f"{self.path}.tmp"
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)

    def latest(self) -> CampaignCheckpoint | None:
        """Most recent commit whose checksum validates (fallback on a
        torn latest), or ``None`` when nothing committed."""
        while self._blobs:
            try:
                return CampaignCheckpoint.from_bytes(self._blobs[-1])
            except ValueError:
                self._blobs.pop()
        return None

    def destroy(self) -> None:
        """Drop every blob — the domain hosting this replica died.

        The file mirror (if any) is left alone: a dead node's disk is
        unreachable, not rewritten."""
        self._blobs.clear()

    @classmethod
    def load(cls, path: str) -> "CampaignCheckpointStore":
        store = cls(path)
        with open(path, "rb") as fh:
            store._blobs = [fh.read()]
        return store


class MirroredCheckpointStore:
    """Cross-domain checkpoint replication: primary + mirror replicas.

    A checkpoint store that lives on one node is a single point of
    failure the rest of this PR just abolished: lose that node and the
    campaign loses its resume point along with the workers.  Every
    commit therefore lands on *two* replicas pinned to different failure
    domains; :meth:`latest` reads the primary and falls back to the
    mirror (each replica keeping its own CRC/verified-fallback recipe),
    and :meth:`lose_domain` — called by the scheduler when a node dies —
    wipes whichever replica that node hosted.  Duck-type compatible with
    :class:`CampaignCheckpointStore` everywhere the scheduler touches a
    store (``commit`` / ``latest`` / ``committed`` / ``len``).
    """

    def __init__(
        self,
        primary: CampaignCheckpointStore | None = None,
        mirror: CampaignCheckpointStore | None = None,
        *,
        primary_domain: int = 0,
        mirror_domain: int = 1,
    ) -> None:
        if primary_domain == mirror_domain:
            raise ValueError("primary and mirror must live in different domains")
        self.primary = primary if primary is not None else CampaignCheckpointStore()
        self.mirror = mirror if mirror is not None else CampaignCheckpointStore()
        self.primary_domain = primary_domain
        self.mirror_domain = mirror_domain
        self.committed = 0
        self.lost: set[int] = set()
        #: Times :meth:`latest` had to serve from the mirror.
        self.mirror_restores = 0

    def __len__(self) -> int:
        return max(len(self.primary), len(self.mirror))

    def commit(self, checkpoint: CampaignCheckpoint) -> None:
        if self.primary_domain not in self.lost:
            self.primary.commit(checkpoint)
        if self.mirror_domain not in self.lost:
            self.mirror.commit(checkpoint)
        self.committed += 1

    def lose_domain(self, node: int) -> None:
        """The node died; wipe whichever replica it hosted (if any)."""
        if node in self.lost:
            return
        if node == self.primary_domain:
            self.lost.add(node)
            self.primary.destroy()
        elif node == self.mirror_domain:
            self.lost.add(node)
            self.mirror.destroy()

    def latest(self) -> CampaignCheckpoint | None:
        if self.primary_domain not in self.lost:
            ckpt = self.primary.latest()
            if ckpt is not None:
                return ckpt
        ckpt = self.mirror.latest()
        if ckpt is not None:
            self.mirror_restores += 1
        return ckpt
