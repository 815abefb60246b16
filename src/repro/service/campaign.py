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
Serialization is :mod:`repro.codec` records — canonical JSON behind a
versioned CRC32 frame — so the bytes are a pure function of the state
and a torn or corrupted commit is *rejected on load* rather than
resuming a campaign from damaged bookkeeping.  That is the only format:
anything else is rejected.

A commit writes what changed, not the campaign.  Most of a checkpoint is
history that is never rewritten — a request's terminal record, the
completion order, a part's ledger of level changes — so
:class:`CampaignCheckpointStore` keeps two streams: an append-only *log*
with one frame per commit (:class:`CampaignDelta`: what became final
since the previous commit), and a small *head* that is overwritten (the
clock, the counters, the pending requests, workers and parts), of which
it holds the latest plus one verified fallback, exactly like the
solve-level store.  Commit number ``c`` is the head that covers log
frames ``[0, c)``; :meth:`CampaignCheckpointStore.latest` folds a head
and the frames it covers back into one :class:`CampaignCheckpoint`.
With a ``path`` every commit is durable — the log frame is appended and
fsynced *before* the head that cites it is published — so a restarted
process, not just a surviving one, can resume.  Restore semantics are
at-least-once: whatever happened after the last commit (completions the
scheduler never acked, arrivals it never logged) is deterministically
*replayed* by the resumed run, whose first commit drops the log frames
past the head it resumed from, so the no-lost-requests invariant holds
across the crash and nothing is logged twice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from .. import codec
from .request import RequestRecord

__all__ = [
    "CampaignCheckpoint",
    "CampaignCheckpointStore",
    "CampaignDelta",
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
    breaker, brownout, hedge and domain ledgers, tenancy):

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
    # of the whole checkpoint as one record — what a reader of
    # ``latest()`` gets in one piece.  The store writes heads and log
    # frames instead and never reads this layout back.
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


#: The checkpoint fields that only grow: a head leaves them out, the log
#: holds them.
_LOGGED = ("terminal", "completion_order")


@dataclass
class CampaignDelta:
    """What became final between two commits — one frame of the log.

    * ``epoch`` — the commit number the writing incarnation started from
      (0 for a fresh campaign, the restored ``checkpoints_committed``
      after a resume).  A resume restores terminal records first, so the
      folded ``terminal`` list is ordered by ``(epoch, position)``.
    * ``terminal`` — ``[position, RequestRecord.to_json()]`` for each
      record that became terminal since the previous commit; the
      position is its index in that incarnation's ``records``.
    * ``completion_order`` — the request ids appended since then.
    * ``ledgers`` — ``{part: {key: rows}}``, the rows each part's
      append-only ledger gained (possibly none); the fold hands them
      back whole as ``parts[part][key]``.
    """

    epoch: int = 0
    terminal: list[list] = field(default_factory=list)
    completion_order: list[int] = field(default_factory=list)
    ledgers: dict[str, dict[str, list]] = field(default_factory=dict)


def _head_body(blob: bytes) -> dict:
    _, body = codec.decode_record(blob, expect_kind=codec.KIND_CAMPAIGN)
    if not isinstance(body, dict) or any(key in body for key in _LOGGED):
        raise codec.UnknownFormat(
            "not a checkpoint head (a whole-campaign snapshot is not read)"
        )
    return body


def _publish(path: str, blob: bytes) -> None:
    """Replace ``path`` atomically.  The bytes reach the disk before the
    rename publishes them, or a host crash can leave an empty or torn
    file under the name."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CampaignCheckpointStore:
    """The log, the latest head and one verified fallback head.

    The in-memory heads mirror the solve-level store's contract: a head
    that later fails its checksum on load — or cites log frames that are
    missing or damaged — is discarded (once) and the previous verified
    commit restores instead.  ``path`` makes each commit durable in two
    files, the head at ``path`` and the log at ``path + ".log"``, so a
    *restarted* scheduler process — not just a surviving supervisor —
    can :meth:`load` and resume.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        #: Number of the newest commit (the campaign's own counter).
        self.committed = 0
        #: Frame ``i`` was appended by commit ``i + 1``.
        self._log: list[bytes] = []
        #: ``(commit number, frame)``, oldest first, at most two.
        self._heads: list[tuple[int, bytes]] = []

    def __len__(self) -> int:
        return len(self._heads)

    def commit(self, head: CampaignCheckpoint, delta: CampaignDelta) -> None:
        """Append ``delta`` to the log, then publish ``head`` — the
        checkpoint with its ``terminal`` and ``completion_order`` left
        empty and its parts' ledgers left out, all of which the log
        holds.  ``head.checkpoints_committed`` numbers the commit."""
        number = head.checkpoints_committed
        base = number - 1  # log frames this commit builds on
        rewound = len(self._log) != base
        if rewound:
            # A resumed campaign replays what was logged past the head
            # it restored (and a new one starts over): neither those
            # frames nor a head that cites them may survive.
            del self._log[base:]
            self._heads = [h for h in self._heads if h[0] <= base]
        frame = codec.encode_record(
            {
                "commit": number,
                "epoch": delta.epoch,
                "terminal": delta.terminal,
                "completion_order": delta.completion_order,
                "ledgers": delta.ledgers,
            },
            kind=codec.KIND_CAMPAIGN_LOG,
        )
        body = head.to_json()
        for key in _LOGGED:
            del body[key]
        blob = codec.encode_record(body, kind=codec.KIND_CAMPAIGN)
        self._log.append(frame)
        self._heads = [*self._heads[-1:], (number, blob)]
        self.committed = number
        if self.path:
            # The log first: a published head never cites a frame that
            # is not on the disk.  A torn append is past every head.
            log_path = f"{self.path}.log"
            if rewound or not base:
                _publish(log_path, b"".join(self._log))
            else:
                with open(log_path, "ab") as fh:
                    fh.write(frame)
                    fh.flush()
                    os.fsync(fh.fileno())
            _publish(self.path, blob)

    def latest(self) -> CampaignCheckpoint | None:
        """Most recent commit that verifies — its head and every log
        frame it covers — folded into one checkpoint (fallback on a torn
        latest), or ``None`` when nothing committed."""
        while self._heads:
            try:
                return self._fold(self._heads[-1][1])
            except ValueError:
                self._heads.pop()
        return None

    def _fold(self, head: bytes) -> CampaignCheckpoint:
        body = _head_body(head)
        try:
            covered = int(body["checkpoints_committed"])
            if covered > len(self._log):
                raise codec.TruncatedRecord(
                    f"head cites {covered} log frame(s), "
                    f"the log holds {len(self._log)}"
                )
            terminal, completion_order = [], []
            for index, frame in enumerate(self._log[:covered]):
                _, delta = codec.decode_record(
                    frame, expect_kind=codec.KIND_CAMPAIGN_LOG
                )
                if delta["commit"] != index + 1:
                    raise codec.UnknownFormat(
                        f"log frame {index} was written by commit "
                        f"{delta['commit']!r}"
                    )
                epoch = int(delta["epoch"])
                terminal.extend(
                    (epoch, int(pos), record) for pos, record in delta["terminal"]
                )
                completion_order.extend(delta["completion_order"])
                for part, grown in delta["ledgers"].items():
                    for key, rows in grown.items():
                        body["parts"][part].setdefault(key, []).extend(rows)
            terminal.sort(key=lambda entry: entry[:2])
        except codec.CodecError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise codec.UnknownFormat(
                f"campaign log has the wrong shape: {exc!r}"
            ) from exc
        return CampaignCheckpoint.from_json(
            {
                **body,
                "terminal": [record for _, _, record in terminal],
                "completion_order": completion_order,
            }
        )

    def destroy(self) -> None:
        """Drop the log and every head — the domain hosting this replica
        died.

        The files (if any) are left alone: a dead node's disk is
        unreachable, not rewritten."""
        self._log.clear()
        self._heads.clear()

    @classmethod
    def load(cls, path: str) -> "CampaignCheckpointStore":
        """What reached the disk under ``path``.  A head that does not
        verify leaves the store empty (the resume starts from scratch);
        a torn log tail is past the head and is cut off."""
        store = cls(path)
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            number = int(_head_body(blob)["checkpoints_committed"])
        except (ValueError, KeyError, TypeError):
            return store
        with open(f"{path}.log", "rb") as fh:
            log = fh.read()
        store._log = codec.split_frames(log)
        whole = sum(map(len, store._log))
        if whole != len(log):
            # Cut the torn tail off, or the next commit appends after it.
            os.truncate(f"{path}.log", whole)
        store._heads = [(number, blob)]
        store.committed = number
        return store


class MirroredCheckpointStore:
    """Cross-domain checkpoint replication: primary + mirror replicas.

    A checkpoint store that lives on one node is a single point of
    failure the rest of this PR just abolished: lose that node and the
    campaign loses its resume point along with the workers.  Every
    commit therefore lands on *two* replicas pinned to different failure
    domains; :meth:`latest` reads the primary and falls back to the
    mirror (each replica keeping its own log, heads and CRC/verified-
    fallback recipe), and :meth:`lose_domain` — called by the scheduler
    when a node dies — wipes whichever replica that node hosted.
    Duck-type compatible with :class:`CampaignCheckpointStore`
    everywhere the scheduler touches a store (``commit`` / ``latest`` /
    ``committed`` / ``len``).
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

    def commit(self, head: CampaignCheckpoint, delta: CampaignDelta) -> None:
        if self.primary_domain not in self.lost:
            self.primary.commit(head, delta)
        if self.mirror_domain not in self.lost:
            self.mirror.commit(head, delta)
        self.committed = head.checkpoints_committed

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
