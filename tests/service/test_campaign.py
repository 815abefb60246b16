"""Campaign checkpoint serialization: the PR-2 recipe, one level up."""

import json

import pytest

from repro.service import (
    CampaignCheckpoint,
    CampaignCheckpointStore,
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
        """The 22-field layout (one field per feature, no ``parts``) is
        refused by the same shape check, not auto-detected."""
        from repro import codec

        old = _checkpoint().to_json()
        parts = old.pop("parts")
        old.update(
            preemptions=1, tunecache=None, drain=parts["drain"],
            arrival_rate={}, elastic={}, health={}, brownout={}, hedges={},
            workers_killed=0, domain_health={}, domains={}, tenancy={},
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


class TestCheckpointStore:
    def test_latest_none_when_empty(self):
        assert CampaignCheckpointStore().latest() is None

    def test_latest_returns_newest(self):
        store = CampaignCheckpointStore()
        store.commit(_checkpoint(checkpoints_committed=1))
        store.commit(_checkpoint(checkpoints_committed=2))
        assert store.latest().checkpoints_committed == 2
        assert store.committed == 2

    def test_keeps_latest_plus_one_fallback(self):
        store = CampaignCheckpointStore()
        for i in range(5):
            store.commit(_checkpoint(checkpoints_committed=i))
        assert len(store) == 2

    def test_corrupt_latest_falls_back(self):
        store = CampaignCheckpointStore()
        store.commit(_checkpoint(checkpoints_committed=1))
        store.commit(_checkpoint(checkpoints_committed=2))
        blob = bytearray(store._blobs[-1])
        blob[-1] ^= 0x01
        store._blobs[-1] = bytes(blob)
        assert store.latest().checkpoints_committed == 1

    def test_wrong_shaped_latest_falls_back(self):
        """Good commit, then a CRC-valid frame whose body is ``{}``: the
        verified-fallback loop discards it like any torn blob."""
        from repro import codec

        store = CampaignCheckpointStore()
        store.commit(_checkpoint(checkpoints_committed=1))
        store._blobs.append(codec.encode_record({}, kind=codec.KIND_CAMPAIGN))
        assert store.latest().checkpoints_committed == 1
        assert len(store) == 1

    def test_mirrored_store_falls_back_past_a_wrong_shaped_frame(self):
        from repro import codec
        from repro.service import MirroredCheckpointStore

        empty = codec.encode_record({}, kind=codec.KIND_CAMPAIGN)
        store = MirroredCheckpointStore()
        store.commit(_checkpoint(checkpoints_committed=1))
        store.primary._blobs.append(empty)
        assert store.latest().checkpoints_committed == 1
        assert store.mirror_restores == 0
        # With the primary holding nothing else, the mirror serves.
        store.primary._blobs[:] = [empty]
        assert store.latest().checkpoints_committed == 1
        assert store.mirror_restores == 1

    def test_file_mirror_and_load(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        store = CampaignCheckpointStore(path)
        store.commit(_checkpoint(checkpoints_committed=1))
        store.commit(_checkpoint(checkpoints_committed=2))
        loaded = CampaignCheckpointStore.load(path)
        assert loaded.latest().checkpoints_committed == 2

    def test_commit_reaches_the_disk_before_the_rename(self, tmp_path, monkeypatch):
        """Crash safety of the file mirror: the whole blob is written and
        fsynced to the temporary file *before* ``os.replace`` publishes it
        under the real name (write -> fsync -> replace)."""
        import os

        path = str(tmp_path / "campaign.ckpt")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            # fstat sees only what write + flush already handed to the OS.
            events.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", src, dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store = CampaignCheckpointStore(path)
        store.commit(_checkpoint())
        blob = store._blobs[-1]
        assert events == [("fsync", len(blob)), ("replace", f"{path}.tmp", path)]
        assert open(path, "rb").read() == blob

    def test_loaded_corrupt_file_yields_none(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        path.write_bytes(b"garbage that is not a checkpoint")
        assert CampaignCheckpointStore.load(str(path)).latest() is None
