"""Campaign checkpoint serialization: the PR-2 recipe, one level up."""

import json

import pytest

from repro.service import (
    CampaignCheckpoint,
    CampaignCheckpointStore,
    CampaignDelta,
    RequestRecord,
    SolveRequest,
    StructuredFailure,
)
from repro.service.request import COMPLETED, QUEUED


def _record(req_id: int, *, terminal: bool = False) -> RequestRecord:
    rec = RequestRecord(
        request=SolveRequest(req_id=req_id, arrival_s=req_id * 1e-4)
    )
    rec.note(req_id * 1e-4, "arrive", "priority 1")
    rec.admitted_s = req_id * 1e-4
    if terminal:
        rec.state = COMPLETED
        rec.completed_s = 1e-3
        rec.iterations = 15
        rec.converged = True
        rec.residual_norm = 1e-12
    return rec


def _checkpoint(**overrides) -> CampaignCheckpoint:
    kw = dict(
        time_s=2.5e-3,
        arrivals_consumed=7,
        next_batch_id=3,
        next_req_seq=7,
        makespan_s=2.5e-3,
        checkpoints_committed=2,
        completion_order=[0, 2, 1],
        terminal=[_record(i, terminal=True).to_json() for i in range(3)],
        pending=[_record(i).to_json() for i in range(3, 7)],
        workers=[
            {
                "worker_id": 0,
                "busy_s": 1e-3,
                "batches_run": 2,
                "retired": False,
                "resident": {
                    "config_id": 0,
                    "dims": [8, 8, 8, 32],
                    "mode": "single-half",
                    "grid": None,
                },
            }
        ],
        parts={
            "drain": {"alpha": 0.3, "initial_s": 2e-3, "samples": 2, "ewma": 1e-3},
            "counters": {"preemptions": 1, "workers_killed": 0},
        },
    )
    kw.update(overrides)
    return CampaignCheckpoint(**kw)


class TestRequestRecordRoundTrip:
    def test_pending_round_trip(self):
        rec = _record(5)
        clone = RequestRecord.from_json(rec.to_json())
        assert clone.request.req_id == 5
        assert clone.state == QUEUED
        assert clone.admitted_s == rec.admitted_s
        assert clone.trace == rec.trace

    def test_terminal_round_trip(self):
        rec = _record(2, terminal=True)
        clone = RequestRecord.from_json(rec.to_json())
        assert clone.terminal
        assert clone.iterations == 15
        assert clone.converged is True

    def test_failure_round_trip(self):
        rec = _record(9)
        rec.failure = StructuredFailure(
            kind="worker_crash", detail="rank 1 crash", failed_rank=1,
            model_time=1e-3, attempts=2,
        )
        rec.preemptions = 3
        clone = RequestRecord.from_json(rec.to_json())
        assert clone.failure.kind == "worker_crash"
        assert clone.failure.failed_rank == 1
        assert clone.preemptions == 3


class TestCheckpointBytes:
    def test_round_trip(self):
        ckpt = _checkpoint()
        clone = CampaignCheckpoint.from_bytes(ckpt.to_bytes())
        # json.dumps rather than dict equality: un-set residual norms are
        # NaN, which never compares equal to itself.
        assert json.dumps(clone.to_json(), sort_keys=True) == json.dumps(
            ckpt.to_json(), sort_keys=True
        )

    def test_bytes_deterministic(self):
        assert _checkpoint().to_bytes() == _checkpoint().to_bytes()

    def test_bad_magic_rejected(self):
        blob = bytearray(_checkpoint().to_bytes())
        blob[0] ^= 0xFF
        with pytest.raises(ValueError, match="bad magic"):
            CampaignCheckpoint.from_bytes(bytes(blob))

    def test_pre_frame_stream_rejected(self):
        """One on-disk format: the ``RPCS`` length-prefixed JSON stream that
        predates the frame is refused, never decoded."""
        import struct
        import zlib

        from repro import codec

        body = json.dumps(_checkpoint().to_json(), sort_keys=True).encode()
        stream = b"RPCS\x01" + struct.pack("<II", len(body), zlib.crc32(body)) + body
        with pytest.raises(codec.UnknownFormat, match="bad magic"):
            CampaignCheckpoint.from_bytes(stream)

    def test_corrupted_body_rejected(self):
        blob = bytearray(_checkpoint().to_bytes())
        blob[-1] ^= 0x01
        with pytest.raises(ValueError, match="checksum"):
            CampaignCheckpoint.from_bytes(bytes(blob))

    def test_truncation_rejected(self):
        blob = _checkpoint().to_bytes()
        with pytest.raises(ValueError):
            CampaignCheckpoint.from_bytes(blob[: len(blob) // 2])

    @pytest.mark.parametrize(
        "body",
        [
            {},
            [],
            {**_checkpoint().to_json(), "terminal": [[]]},
            {**_checkpoint().to_json(), "parts": {"drain": None}},
            {**_checkpoint().to_json(), "time_s": "soon"},
        ],
    )
    def test_wrong_shaped_body_is_unknown_format(self, body):
        """A CRC-valid frame only proves the bytes are the ones written:
        a body of the wrong shape is a structured rejection, never a
        ``KeyError`` out of the middle of a resume."""
        from repro import codec

        blob = codec.encode_record(body, kind=codec.KIND_CAMPAIGN)
        with pytest.raises(codec.UnknownFormat, match="wrong shape"):
            CampaignCheckpoint.from_bytes(blob)

    def test_pre_parts_layout_rejected(self):
        """The pre-``parts`` layout (one field per feature, no ``parts``)
        is refused by the same shape check, not auto-detected."""
        from repro import codec

        old = _checkpoint().to_json()
        parts = old.pop("parts")
        old.update(
            preemptions=1, tunecache=None, drain=parts["drain"],
            arrival_rate={}, elastic={}, health={}, brownout={}, hedges={},
            workers_killed=0, domains={}, tenancy={},
        )
        blob = codec.encode_record(old, kind=codec.KIND_CAMPAIGN)
        with pytest.raises(codec.UnknownFormat, match="parts"):
            CampaignCheckpoint.from_bytes(blob)

    def test_restored_records_split(self):
        terminal, pending = _checkpoint().restored_records()
        assert [r.request.req_id for r in terminal] == [0, 1, 2]
        assert [r.request.req_id for r in pending] == [3, 4, 5, 6]
        assert all(r.terminal for r in terminal)
        assert not any(r.terminal for r in pending)


def _commit(store, number: int, *, epoch: int = 0, req_id: int | None = None):
    """Commit ``number`` of a campaign that finishes one request per
    commit: request ``number - 1`` (or ``req_id``) becomes terminal, the
    rest of the seven stay pending."""
    done = number - 1 if req_id is None else req_id
    store.commit(
        _checkpoint(
            checkpoints_committed=number,
            completion_order=[],
            terminal=[],
            pending=[_record(i).to_json() for i in range(number, 7)],
        ),
        CampaignDelta(
            epoch=epoch,
            terminal=[[number - 1, _record(done, terminal=True).to_json()]],
            completion_order=[done],
        ),
    )


def _finished(ckpt: CampaignCheckpoint) -> list[int]:
    assert ckpt.completion_order == [
        r["request"]["req_id"] for r in ckpt.terminal
    ]
    return ckpt.completion_order


def _flip_last_bit(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 0x01])


class TestCheckpointStore:
    def test_latest_none_when_empty(self):
        assert CampaignCheckpointStore().latest() is None

    def test_latest_returns_newest(self):
        store = CampaignCheckpointStore()
        _commit(store, 1)
        _commit(store, 2)
        latest = store.latest()
        assert latest.checkpoints_committed == 2
        assert _finished(latest) == [0, 1]
        assert [r["request"]["req_id"] for r in latest.pending] == [2, 3, 4, 5, 6]
        assert store.committed == 2

    def test_keeps_latest_plus_one_fallback(self):
        """Two heads however many commits; the log keeps a frame each."""
        store = CampaignCheckpointStore()
        for number in range(1, 6):
            _commit(store, number)
        assert len(store) == 2
        assert len(store._log) == 5
        assert _finished(store.latest()) == [0, 1, 2, 3, 4]

    def test_corrupt_latest_falls_back(self):
        store = CampaignCheckpointStore()
        _commit(store, 1)
        _commit(store, 2)
        number, blob = store._heads[-1]
        store._heads[-1] = (number, _flip_last_bit(blob))
        fallback = store.latest()
        assert fallback.checkpoints_committed == 1
        # Commit 2's log frame is intact but no verified head covers it.
        assert _finished(fallback) == [0]

    def test_corrupt_log_frame_fails_every_head_that_covers_it(self):
        store = CampaignCheckpointStore()
        for number in (1, 2, 3):
            _commit(store, number)
        store._log[2] = _flip_last_bit(store._log[2])
        assert _finished(store.latest()) == [0, 1]
        store._log[0] = _flip_last_bit(store._log[0])
        assert store.latest() is None

    def test_head_citing_more_log_than_exists_falls_back(self):
        store = CampaignCheckpointStore()
        _commit(store, 1)
        _commit(store, 2)
        del store._log[-1]
        assert store.latest().checkpoints_committed == 1
        assert len(store) == 1

    def test_wrong_shaped_latest_falls_back(self):
        """Good commit, then a CRC-valid frame whose body is ``{}``: the
        verified-fallback loop discards it like any torn blob."""
        from repro import codec

        store = CampaignCheckpointStore()
        _commit(store, 1)
        store._heads.append((2, codec.encode_record({}, kind=codec.KIND_CAMPAIGN)))
        assert store.latest().checkpoints_committed == 1
        assert len(store) == 1

    def test_whole_snapshot_is_not_read_as_a_head(self, tmp_path):
        """One layout: the single-record snapshot a store used to keep
        is ``UnknownFormat`` where a head is expected, in memory and as
        a ``--checkpoint PATH`` file an older build left behind."""
        from repro import codec
        from repro.service.campaign import _head_body

        snapshot = _checkpoint().to_bytes()
        with pytest.raises(codec.UnknownFormat, match="not a checkpoint head"):
            _head_body(snapshot)
        store = CampaignCheckpointStore()
        _commit(store, 1)
        store._heads.append((2, snapshot))
        assert store.latest().checkpoints_committed == 1
        path = tmp_path / "campaign.ckpt"
        path.write_bytes(snapshot)
        assert CampaignCheckpointStore.load(str(path)).latest() is None

    def test_resumed_commit_rewinds_the_log(self):
        """At-least-once replay must not duplicate: a campaign resumed
        from commit 2 commits a new number 3, which replaces the old
        frame 2 *and* drops the old head 3 that cited it."""
        store = CampaignCheckpointStore()
        for number in (1, 2, 3):
            _commit(store, number)
        number, blob = store._heads[-1]
        store._heads[-1] = (number, _flip_last_bit(blob))
        assert store.latest().checkpoints_committed == 2
        _commit(store, 3, epoch=2, req_id=5)
        assert len(store._log) == 3
        assert _finished(store.latest()) == [0, 1, 5]
        # Were the old head 3 still held (and readable), losing the new
        # one would fold it over the new frame: a mixture.
        assert [n for n, _ in store._heads] == [2, 3]
        store._heads.pop()
        assert _finished(store.latest()) == [0, 1]

    def test_fold_orders_terminal_records_by_epoch_then_position(self):
        """A resumed incarnation's records sit after the restored
        terminal ones whatever their positions say."""
        store = CampaignCheckpointStore()
        head = _checkpoint(
            checkpoints_committed=1, completion_order=[], terminal=[], pending=[]
        )
        done = {i: _record(i, terminal=True).to_json() for i in range(5)}
        store.commit(
            head, CampaignDelta(epoch=0, terminal=[[3, done[3]], [4, done[4]]])
        )
        head.checkpoints_committed = 2
        store.commit(head, CampaignDelta(epoch=0, terminal=[[1, done[1]]]))
        head.checkpoints_committed = 3
        store.commit(
            head, CampaignDelta(epoch=2, terminal=[[3, done[0]], [2, done[2]]])
        )
        order = [r["request"]["req_id"] for r in store.latest().terminal]
        assert order == [1, 3, 4, 2, 0]

    def test_part_ledger_rows_fold_back_under_their_key(self):
        store = CampaignCheckpointStore()
        head = _checkpoint(
            checkpoints_committed=1, completion_order=[], terminal=[], pending=[],
            parts={"brownout": {"level": 1}, "drain": {"ewma": 1e-3}},
        )
        rows = [[1e-3, 1, 5e-3], [2e-3, 2, 9e-3], [3e-3, 1, 1e-3]]
        store.commit(
            head, CampaignDelta(ledgers={"brownout": {"transitions": rows[:2]}})
        )
        head.checkpoints_committed = 2
        store.commit(head, CampaignDelta(ledgers={"brownout": {"transitions": []}}))
        head.checkpoints_committed = 3
        store.commit(
            head, CampaignDelta(ledgers={"brownout": {"transitions": rows[2:]}})
        )
        assert store.latest().parts == {
            "brownout": {"level": 1, "transitions": rows},
            "drain": {"ewma": 1e-3},
        }

    def test_mirrored_store_falls_back_past_a_wrong_shaped_frame(self):
        from repro import codec
        from repro.service import MirroredCheckpointStore

        empty = (2, codec.encode_record({}, kind=codec.KIND_CAMPAIGN))
        store = MirroredCheckpointStore()
        _commit(store, 1)
        store.primary._heads.append(empty)
        assert store.latest().checkpoints_committed == 1
        assert store.mirror_restores == 0
        # With the primary holding nothing else, the mirror serves.
        store.primary._heads[:] = [empty]
        assert store.latest().checkpoints_committed == 1
        assert store.mirror_restores == 1

    def test_file_mirror_and_load(self, tmp_path):
        """Two files under ``path``: the head and, beside it, the log."""
        path = str(tmp_path / "campaign.ckpt")
        store = CampaignCheckpointStore(path)
        _commit(store, 1)
        _commit(store, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "campaign.ckpt", "campaign.ckpt.log",
        ]
        loaded = CampaignCheckpointStore.load(path)
        assert loaded.latest().to_bytes() == store.latest().to_bytes()
        assert _finished(loaded.latest()) == [0, 1]
        assert loaded.committed == 2

    def test_new_campaign_replaces_a_stale_log_file(self, tmp_path):
        """``repro serve --checkpoint PATH`` twice: the second campaign
        must not append to the first one's log."""
        path = str(tmp_path / "campaign.ckpt")
        first = CampaignCheckpointStore(path)
        for number in (1, 2, 3):
            _commit(first, number)
        _commit(CampaignCheckpointStore(path), 1, req_id=4)
        assert _finished(CampaignCheckpointStore.load(path).latest()) == [4]

    def test_torn_log_tail_is_past_the_head(self, tmp_path):
        """A host crash mid-append leaves a torn frame after the last
        one a head cites; it costs nothing, and the next commit lands
        after the good frames."""
        path = str(tmp_path / "campaign.ckpt")
        store = CampaignCheckpointStore(path)
        _commit(store, 1)
        _commit(store, 2)
        with open(f"{path}.log", "ab") as fh:
            fh.write(store._log[-1][:40])
        loaded = CampaignCheckpointStore.load(path)
        assert _finished(loaded.latest()) == [0, 1]
        _commit(loaded, 3)
        assert _finished(CampaignCheckpointStore.load(path).latest()) == [0, 1, 2]

    def test_commit_reaches_the_disk_before_the_rename(self, tmp_path, monkeypatch):
        """Crash safety of the two files: the log frame is appended and
        fsynced first, then the head is written and fsynced to its
        temporary file, and only then does ``os.replace`` publish the
        head that cites the frame (append -> fsync -> write -> fsync ->
        replace)."""
        import os

        path = str(tmp_path / "campaign.ckpt")
        store = CampaignCheckpointStore(path)
        _commit(store, 1)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            # fstat sees only what write + flush already handed to the OS.
            events.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", src, dst, os.path.getsize(f"{path}.log")))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        _commit(store, 2)
        log = b"".join(store._log)
        head = store._heads[-1][1]
        assert events == [
            ("fsync", len(log)),
            ("fsync", len(head)),
            ("replace", f"{path}.tmp", path, len(log)),
        ]
        assert open(path, "rb").read() == head
        assert open(f"{path}.log", "rb").read() == log

    def test_loaded_corrupt_file_yields_none(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        path.write_bytes(b"garbage that is not a checkpoint")
        assert CampaignCheckpointStore.load(str(path)).latest() is None
