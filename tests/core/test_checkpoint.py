"""Checkpoint serialization and the rank-collective store."""

import numpy as np
import pytest

from repro.core.solvers.checkpoint import CheckpointStore, SolveCheckpoint
from repro.core.solvers.resilience import RecoveryEvent


class FakeSlicing:
    """Just enough of a GridSlicing for the store: rank count + gather."""

    def __init__(self, n_ranks: int) -> None:
        self.n_ranks = n_ranks

    @staticmethod
    def gather(slabs):
        return np.concatenate(slabs, axis=0)


def _checkpoint(dtype, precision_name):
    rng = np.random.default_rng(7)
    x = (rng.standard_normal((16, 4, 3)) + 1j * rng.standard_normal((16, 4, 3)))
    return SolveCheckpoint(
        iteration=12,
        rnorm=3.5e-4,
        reliable_updates=2,
        history=[1.0, 0.1, 3.5e-4],
        solver="bicgstab",
        sloppy_precision=precision_name,
        x_full=x.astype(dtype),
    )


class TestSerialization:
    @pytest.mark.parametrize(
        "dtype,precision_name",
        [
            (np.complex64, "HALF"),
            (np.complex64, "SINGLE"),
            (np.complex128, "DOUBLE"),
        ],
    )
    def test_roundtrip(self, dtype, precision_name):
        ck = _checkpoint(dtype, precision_name)
        back = SolveCheckpoint.from_bytes(ck.to_bytes())
        assert back.iteration == ck.iteration
        assert back.rnorm == ck.rnorm
        assert back.reliable_updates == ck.reliable_updates
        assert back.history == ck.history
        assert back.solver == ck.solver
        assert back.sloppy_precision == ck.sloppy_precision
        assert back.x_full.dtype == dtype
        np.testing.assert_array_equal(back.x_full, ck.x_full)

    def test_roundtrip_without_solution(self):
        """Timing-only checkpoints carry bookkeeping but no field data."""
        ck = SolveCheckpoint(iteration=5, rnorm=0.25, reliable_updates=1)
        back = SolveCheckpoint.from_bytes(ck.to_bytes())
        assert back.x_full is None
        assert (back.iteration, back.rnorm) == (5, 0.25)

    def test_bytes_deterministic(self):
        """Same state => byte-identical stream (no timestamps, no pickle)."""
        a = _checkpoint(np.complex64, "HALF").to_bytes()
        b = _checkpoint(np.complex64, "HALF").to_bytes()
        assert a == b
        # And the roundtrip is a fixed point of the encoding.
        assert SolveCheckpoint.from_bytes(a).to_bytes() == a

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="bad magic"):
            SolveCheckpoint.from_bytes(b"NOPE" + b"\x00" * 32)

    def test_flipped_payload_byte_rejected(self):
        """Snapshots are self-validating: one damaged body byte fails the
        embedded checksum on load."""
        blob = bytearray(_checkpoint(np.complex128, "SINGLE").to_bytes())
        blob[-10] ^= 0x40
        with pytest.raises(ValueError, match="checksum mismatch"):
            SolveCheckpoint.from_bytes(bytes(blob))

    @staticmethod
    def _legacy_bytes(ck, *, with_checksum):
        """The pre-frame stream: RPCK magic + JSON header + .npy body."""
        import io
        import json
        import struct
        import zlib

        body = io.BytesIO()
        if ck.x_full is not None:
            np.lib.format.write_array(
                body, np.ascontiguousarray(ck.x_full), version=(1, 0)
            )
        body_bytes = body.getvalue()
        header = {
            "iteration": ck.iteration,
            "rnorm": ck.rnorm,
            "reliable_updates": ck.reliable_updates,
            "history": list(ck.history),
            "solver": ck.solver,
            "sloppy_precision": ck.sloppy_precision,
            "has_x": ck.x_full is not None,
        }
        if with_checksum:
            header["checksum"] = zlib.crc32(body_bytes) & 0xFFFFFFFF
        blob = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode()
        return b"RPCK\x01" + struct.pack("<I", len(blob)) + blob + body_bytes

    @pytest.mark.parametrize("with_checksum", [True, False])
    def test_legacy_stream_rejected(self, with_checksum):
        """One on-disk format: a pre-frame ``RPCK`` stream is refused with
        a structured error, never decoded."""
        from repro import codec

        ck = _checkpoint(np.complex64, "HALF")
        with pytest.raises(codec.UnknownFormat, match="bad magic"):
            SolveCheckpoint.from_bytes(
                self._legacy_bytes(ck, with_checksum=with_checksum)
            )

    def test_legacy_corruption_still_rejected(self):
        blob = bytearray(
            self._legacy_bytes(
                _checkpoint(np.complex128, "SINGLE"), with_checksum=True
            )
        )
        blob[-10] ^= 0x40
        with pytest.raises(ValueError):
            SolveCheckpoint.from_bytes(bytes(blob))

    def test_campaign_record_is_not_a_solve_checkpoint(self):
        from repro import codec

        blob = codec.encode_record({"iteration": 1}, codec.KIND_CAMPAIGN)
        with pytest.raises(ValueError, match="expected a checkpoint record"):
            SolveCheckpoint.from_bytes(blob)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_one_copy_frame_equals_joined_payload(self, dtype):
        """``to_bytes`` frames the array without flattening it to bytes
        first; the record is the one the joined payload gives."""
        from repro import codec
        from repro.core.solvers.checkpoint import _HEADER_LEN

        ck = _checkpoint(dtype, "SINGLE")
        header = codec.canonical_bytes(
            {
                "iteration": ck.iteration,
                "rnorm": ck.rnorm,
                "reliable_updates": ck.reliable_updates,
                "history": ck.history,
                "solver": ck.solver,
                "sloppy_precision": ck.sloppy_precision,
                "x": {"dtype": np.dtype(dtype).str, "shape": list(ck.x_full.shape)},
            }
        )
        joined = b"".join(
            (_HEADER_LEN.pack(len(header)), header, ck.x_full.tobytes())
        )
        assert ck.to_bytes() == codec.encode_frame(joined, codec.KIND_CHECKPOINT)

    def test_frame_parts_equal_frame_of_their_join(self):
        from repro import codec

        parts = (b"head", np.arange(6, dtype=np.complex64).view(np.uint8), b"", b"!")
        joined = b"".join(bytes(p) for p in parts)
        assert codec.encode_frame_parts(parts, codec.KIND_CHECKPOINT) == (
            codec.encode_frame(joined, codec.KIND_CHECKPOINT)
        )

    def test_crc_valid_foreign_payload_rejected(self):
        """A frame that passes its CRC but was not laid out by ``to_bytes``
        is still a ValueError, never a half-built checkpoint."""
        from repro import codec

        for payload in (b"", b"\xff\xff\xff\x7f{}", b"\x02\x00\x00\x00{}"):
            blob = codec.encode_frame(payload, codec.KIND_CHECKPOINT)
            with pytest.raises(ValueError):
                SolveCheckpoint.from_bytes(blob)


class TestCheckpointStore:
    def _contribute(self, store, source, rank, iteration, slab):
        store.contribute(
            source,
            rank,
            iteration=iteration,
            rnorm=0.5,
            reliable_updates=1,
            history=[1.0, 0.5],
            solver="bicgstab",
            sloppy_precision="HALF",
            slab=slab,
        )

    def test_commit_requires_every_rank(self):
        store = CheckpointStore(1)
        store.rebind(FakeSlicing(2))
        self._contribute(store, 0, 0, 4, np.zeros((2, 4, 3), np.complex64))
        assert store.latest(0) is None
        self._contribute(store, 0, 1, 4, np.ones((2, 4, 3), np.complex64))
        ck = store.latest(0)
        assert ck is not None and ck.iteration == 4
        assert ck.x_full.shape == (4, 4, 3)
        np.testing.assert_array_equal(ck.x_full[2:], 1.0)

    def test_timing_mode_commits_without_slabs(self):
        store = CheckpointStore(1)
        store.rebind(FakeSlicing(2))
        self._contribute(store, 0, 0, 4, None)
        self._contribute(store, 0, 1, 4, None)
        ck = store.latest(0)
        assert ck is not None and ck.x_full is None

    def test_rebind_clears_partial_pieces(self):
        """A dead attempt's half-contributed pieces must never mix with a
        new attempt's at the same iteration."""
        store = CheckpointStore(1)
        store.rebind(FakeSlicing(2))
        self._contribute(store, 0, 0, 4, np.zeros((2, 4, 3), np.complex64))
        store.rebind(FakeSlicing(2), attempt=1)
        self._contribute(store, 0, 1, 4, np.ones((2, 4, 3), np.complex64))
        assert store.latest(0) is None  # old rank-0 piece was discarded
        self._contribute(store, 0, 0, 4, np.ones((2, 4, 3), np.complex64))
        assert store.latest(0) is not None

    def test_committed_checkpoint_survives_rebind(self):
        store = CheckpointStore(1)
        store.rebind(FakeSlicing(1))
        self._contribute(store, 0, 0, 9, np.ones((4, 4, 3), np.complex64))
        store.rebind(FakeSlicing(2), attempt=1)  # shrank from 1 -> 2 ranks
        ck = store.latest(0)
        assert ck is not None and ck.iteration == 9

    def test_record_result_needs_all_ranks_and_info(self):
        store = CheckpointStore(2)
        store.rebind(FakeSlicing(2))
        store.record_result(1, 1, slab=np.ones((2, 4, 3)), info="info1")
        assert store.completed(1) is None  # info comes from rank 0
        store.record_result(1, 0, slab=np.zeros((2, 4, 3)), info="info0")
        x, info = store.completed(1)
        assert info == "info0" and x.shape == (4, 4, 3)
        assert store.completed(0) is None

    def test_note_resume_dedup_and_wasted_accounting(self):
        store = CheckpointStore(1)
        store.rebind(FakeSlicing(1))
        self._contribute(store, 0, 0, 8, None)
        self._contribute(store, 0, 0, 14, None)  # progress reaches 14
        store.note_resume(0, 14)
        assert store.events() == []  # attempt 0: nothing to resume from
        store.rebind(FakeSlicing(1), attempt=1)
        store.note_resume(0, 8)
        store.note_resume(0, 8)  # second rank arriving: deduped
        events = store.events()
        assert len(events) == 1
        ev = events[0]
        assert ev.kind == "resume" and ev.attempt == 1
        assert ev.iteration == 8 and ev.wasted_iterations == 6

    def test_ledger_renders(self):
        store = CheckpointStore(1)
        store.log_event(RecoveryEvent("relaunch", attempt=1, detail="2 ranks"))
        (ev,) = store.events()
        assert "relaunch" in ev.render() and "2 ranks" in ev.render()

    def _corrupt_latest(self, store, source):
        blobs = store._latest[source]
        bad = bytearray(blobs[-1])
        bad[-7] ^= 0x01
        blobs[-1] = bytes(bad)

    def test_corrupt_latest_falls_back_to_previous_commit(self):
        store = CheckpointStore(1)
        store.rebind(FakeSlicing(1))
        self._contribute(store, 0, 0, 5, np.ones((4, 4, 3), np.complex64))
        self._contribute(store, 0, 0, 10, np.full((4, 4, 3), 2, np.complex64))
        self._corrupt_latest(store, 0)
        ck = store.latest(0)
        assert ck is not None and ck.iteration == 5  # previous verified
        np.testing.assert_array_equal(ck.x_full, 1.0)
        events = [e for e in store.events() if e.kind == "checkpoint_fallback"]
        assert len(events) == 1
        assert "falling back to previous commit" in events[0].detail
        # The corrupt blob was discarded once; further loads are silent.
        assert store.latest(0).iteration == 5
        assert len(
            [e for e in store.events() if e.kind == "checkpoint_fallback"]
        ) == 1

    def test_all_snapshots_corrupt_yields_none(self):
        store = CheckpointStore(1)
        store.rebind(FakeSlicing(1))
        self._contribute(store, 0, 0, 5, np.ones((4, 4, 3), np.complex64))
        self._contribute(store, 0, 0, 10, np.ones((4, 4, 3), np.complex64))
        blobs = store._latest[0]  # corrupt every retained snapshot
        for i in range(len(blobs)):
            bad = bytearray(blobs[i])
            bad[-7] ^= 0x01
            blobs[i] = bytes(bad)
        assert store.latest(0) is None
        events = [e for e in store.events() if e.kind == "checkpoint_fallback"]
        assert events
        assert "no verified checkpoint left" in events[-1].detail

    def test_only_two_snapshots_retained(self):
        store = CheckpointStore(1)
        store.rebind(FakeSlicing(1))
        for it in (3, 6, 9, 12):
            self._contribute(store, 0, 0, it, None)
        assert len(store._latest[0]) == 2
        assert store.latest(0).iteration == 12


def test_single_half_solve_commits_the_stored_solution(monkeypatch):
    """A refresh commits ``x_p`` at the precision the solve keeps it in:
    complex64 in a single-precision solve, equal to the store bit for bit
    on the solve parity and zero on the other."""
    from repro.core import invert, paper_invert_param
    from repro.core import quda
    from repro.lattice import LatticeGeometry, random_spinor, weak_field_gauge
    from repro.lattice.evenodd import full_to_parity

    stored, committed = [], []
    solve = quda.bicgstab_solve

    def spying_solve(op_full, op_sloppy, b, x, **kwargs):
        on_refresh = kwargs["on_refresh"]

        def refresh(**state):
            stored.append(x._store.array.copy())
            on_refresh(**state)

        return solve(op_full, op_sloppy, b, x, **{**kwargs, "on_refresh": refresh})

    contribute = CheckpointStore.contribute

    def recording_contribute(self, source, rank, **kwargs):
        contribute(self, source, rank, **kwargs)
        committed.append(self.latest(source))

    monkeypatch.setattr(quda, "bicgstab_solve", spying_solve)
    monkeypatch.setattr(CheckpointStore, "contribute", recording_contribute)
    rng = np.random.default_rng(31)
    geo = LatticeGeometry((4, 4, 4, 8))
    gauge, src = weak_field_gauge(geo, rng, noise=0.15), random_spinor(geo, rng)
    inv = paper_invert_param("single-half", mass=0.2)
    invert(gauge, src, inv, n_gpus=1)

    assert committed and len(committed) == len(stored)
    for ck, x_p in zip(committed, stored):
        assert x_p.dtype == np.complex64
        assert ck.x_full.dtype == np.complex64
        parity = inv.solve_parity
        np.testing.assert_array_equal(full_to_parity(geo, ck.x_full, parity), x_p)
        np.testing.assert_array_equal(full_to_parity(geo, ck.x_full, 1 - parity), 0)
