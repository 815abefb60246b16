"""Property-based tests of the CRC-framed record codec.

The contract under test (the same one PR-3 enforces on the wire):

* round trip is the identity — ``decode(encode(v)) == v`` for every
  JSON-shaped value, and ``encode(decode(b)) == b`` for every buffer the
  encoder wrote, so records re-encode byte-identically;
* *every* damaged buffer fails loudly with a structured error — any
  truncation and any single-bit flip raises a
  :class:`~repro.codec.CodecError` subclass, and nothing ever decodes;
* there is one format: a version-1 frame and the two pre-frame streams
  (``RPCS``, ``RPCK``) are rejected, not read.
"""

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec
from repro.core.solvers.checkpoint import SolveCheckpoint
from repro.service import CampaignCheckpoint

HEADER = 16

# JSON-shaped values.  Floats exclude NaN so equality is usable (NaN is
# pinned separately); ±inf and −0.0 are in; integers reach past 64 bits;
# text (keys included) is full Unicode, not just ASCII.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=40),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)

_kinds = st.sampled_from(sorted(codec.KIND_NAMES))


def _same(a, b) -> bool:
    """Equality that also tells −0.0 from 0.0 (``==`` does not)."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


@st.composite
def _solve_checkpoints(draw):
    dtype = draw(st.sampled_from([np.complex64, np.complex128]))
    volume = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = (
        rng.standard_normal((volume, 4, 3)) + 1j * rng.standard_normal((volume, 4, 3))
    ).astype(dtype)
    return SolveCheckpoint(
        iteration=draw(st.integers(0, 10**6)),
        rnorm=draw(st.floats(min_value=0.0, allow_nan=False)),
        reliable_updates=draw(st.integers(0, 100)),
        history=draw(st.lists(st.floats(allow_nan=False), max_size=6)),
        solver=draw(st.sampled_from(["bicgstab", "cg"])),
        sloppy_precision=draw(st.sampled_from(["HALF", "SINGLE", "DOUBLE"])),
        x_full=draw(st.sampled_from([x, None])),
    )


class TestRoundTrip:
    @given(_values, _kinds)
    @settings(max_examples=200, deadline=None)
    def test_value_round_trip_identity(self, value, kind):
        _, back = codec.decode_record(codec.encode_record(value, kind))
        assert _same(back, value)

    @given(_values, _kinds)
    @settings(max_examples=100, deadline=None)
    def test_pack_is_fixed_point(self, value, kind):
        """``encode(decode(b)) == b``."""
        blob = codec.encode_record(value, kind)
        got_kind, back = codec.decode_record(blob)
        assert codec.encode_record(back, got_kind) == blob

    @given(_values, _kinds)
    @settings(max_examples=100, deadline=None)
    def test_record_round_trip(self, value, kind):
        blob = codec.encode_record(value, kind)
        assert codec.is_packed(blob)
        got_kind, got = codec.decode_record(blob, expect_kind=kind)
        assert got_kind == kind
        assert got == value

    def test_nan_round_trips(self):
        blob = codec.encode_record([float("nan"), 1.0], codec.KIND_CAMPAIGN)
        back = codec.decode_record(blob)[1]
        assert np.isnan(back[0]) and back[1] == 1.0

    def test_edge_values_round_trip(self):
        value = {
            "−0": -0.0,
            "∞": [float("inf"), float("-inf")],
            "2**200": 2**200,
            "-2**64": -(2**64),
            "ключ": "värde",
            "tiny": 5e-324,
        }
        back = codec.decode_record(codec.encode_record(value, codec.KIND_CAMPAIGN))[1]
        assert _same(back, value)

    @given(_solve_checkpoints())
    @settings(max_examples=60, deadline=None)
    def test_ndarray_round_trips(self, ck):
        """A ``SolveCheckpoint`` carries its array as raw bytes behind the
        JSON header: dtype, shape and every bit survive."""
        blob = ck.to_bytes()
        back = SolveCheckpoint.from_bytes(blob)
        assert back.to_bytes() == blob
        assert (back.iteration, back.rnorm, back.history) == (
            ck.iteration,
            ck.rnorm,
            ck.history,
        )
        if ck.x_full is None:
            assert back.x_full is None
        else:
            assert back.x_full.dtype == ck.x_full.dtype
            assert back.x_full.shape == ck.x_full.shape
            assert back.x_full.tobytes() == ck.x_full.tobytes()
            back.x_full[...] = 0  # an owned, writable copy


_SOLVE_BLOB = SolveCheckpoint(
    iteration=12,
    rnorm=3.5e-4,
    reliable_updates=2,
    history=[1.0, 0.1, 3.5e-4],
    x_full=(np.arange(24).reshape(2, 4, 3) * (1 + 2j)).astype(np.complex64),
).to_bytes()
_RECORD_BLOB = codec.encode_record(
    {"k": list(range(20)), "s": "žluťoučký", "f": [1.5, -0.0]}, codec.KIND_CAMPAIGN
)


class TestCorruption:
    @given(_values, _kinds, st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_truncation_fails_loudly(self, value, kind, data):
        blob = codec.encode_record(value, kind)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(codec.CodecError):
            codec.decode_record(blob[:cut])

    @given(_values, _kinds, st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_payload_bit_flip_fails_loudly(self, value, kind, data):
        blob = bytearray(codec.encode_record(value, kind))
        pos = data.draw(st.integers(HEADER, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        blob[pos] ^= 1 << bit
        with pytest.raises(codec.ChecksumMismatch):
            codec.decode_record(bytes(blob))

    @pytest.mark.parametrize(
        "blob,decode",
        [
            pytest.param(
                _RECORD_BLOB,
                lambda b: codec.decode_record(b, expect_kind=codec.KIND_CAMPAIGN),
                id="record",
            ),
            pytest.param(_SOLVE_BLOB, SolveCheckpoint.from_bytes, id="solve-checkpoint"),
        ],
    )
    def test_every_bit_flip_and_every_truncation_raises(self, blob, decode):
        """Exhaustive, header included: no single-bit flip and no prefix of
        a record decodes.  (A flip of the kind byte to the *other* valid
        kind passes the frame; typed loaders refuse it via expect_kind.)"""
        for cut in range(len(blob)):
            with pytest.raises(codec.CodecError):
                decode(blob[:cut])
        for pos in range(len(blob)):
            for bit in range(8):
                bad = bytearray(blob)
                bad[pos] ^= 1 << bit
                with pytest.raises(ValueError) as err:
                    decode(bytes(bad))
                if pos != 5:  # the kind byte
                    assert isinstance(err.value, codec.CodecError)

    def test_bad_magic(self):
        blob = bytearray(_RECORD_BLOB)
        blob[0] ^= 0xFF
        with pytest.raises(codec.UnknownFormat, match="magic"):
            codec.decode_record(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(_RECORD_BLOB)
        blob[4] = 99
        with pytest.raises(codec.UnknownFormat, match="version"):
            codec.decode_record(bytes(blob))

    def test_version_1_buffer_rejected(self):
        """A frame-v1 buffer (tagged-value payload: ``m`` = dict, zero
        entries) has a valid CRC and still must not decode."""
        payload = b"m" + struct.pack("<I", 0)
        v1 = struct.pack(
            "<4sBBHII", b"RPB1", 1, codec.KIND_CAMPAIGN, 0, len(payload),
            zlib.crc32(payload),
        ) + payload
        assert codec.is_packed(v1)
        with pytest.raises(codec.UnknownFormat, match="version 1"):
            codec.decode_record(v1)
        with pytest.raises(codec.UnknownFormat, match="version 1"):
            CampaignCheckpoint.from_bytes(v1)
        with pytest.raises(codec.UnknownFormat, match="version 1"):
            SolveCheckpoint.from_bytes(v1)

    @pytest.mark.parametrize("magic", [b"RPCS\x01", b"RPCK\x01"])
    @pytest.mark.parametrize(
        "load",
        [codec.decode_record, CampaignCheckpoint.from_bytes, SolveCheckpoint.from_bytes],
    )
    def test_pre_frame_streams_rejected(self, magic, load):
        body = b'{"iteration":3,"has_x":false}'
        stream = magic + struct.pack("<I", len(body)) + body
        with pytest.raises(codec.UnknownFormat, match="bad magic"):
            load(stream)

    def test_unknown_kind(self):
        blob = bytearray(_RECORD_BLOB)
        blob[5] = 200
        with pytest.raises(codec.UnknownFormat, match="kind"):
            codec.decode_record(bytes(blob))
        with pytest.raises(ValueError, match="kind"):
            codec.encode_record({}, 200)

    def test_kind_mismatch(self):
        blob = codec.encode_record({"a": 1}, codec.KIND_CHECKPOINT)
        with pytest.raises(ValueError, match="expected a campaign record"):
            codec.decode_record(blob, expect_kind=codec.KIND_CAMPAIGN)

    def test_reserved_flags_rejected(self):
        blob = bytearray(_RECORD_BLOB)
        blob[6] = 1
        with pytest.raises(codec.UnknownFormat, match="flags"):
            codec.decode_record(bytes(blob))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(codec.UnknownFormat, match="trailing"):
            codec.decode_record(_RECORD_BLOB + b"\x00")

    def test_forged_length_cannot_hide_damage(self):
        """Rewriting the header length to 'legalize' a truncated payload
        still fails: the CRC covers the payload that remains."""
        cut = _RECORD_BLOB[:-7]
        forged = bytearray(cut)
        forged[8:12] = struct.pack("<I", len(cut) - HEADER)
        with pytest.raises(codec.ChecksumMismatch):
            codec.decode_record(bytes(forged))

    def test_non_frame_bytes_rejected(self):
        """Bare JSON is not a record either: there is no format sniffing."""
        for junk in (b"\x01\x02\x03not json" + b"\x00" * HEADER, b'{"a":1}' + b" " * HEADER):
            with pytest.raises(codec.UnknownFormat, match="magic"):
                codec.decode_record(junk)

    def test_crc_valid_non_json_payload_rejected(self):
        for payload in (b"\xff\xfe", b"{not json", b""):
            blob = codec.encode_frame(payload, codec.KIND_CAMPAIGN)
            with pytest.raises(codec.UnknownFormat, match="not JSON"):
                codec.decode_record(blob)


class TestDeterminism:
    @given(_values, _kinds)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_deterministic(self, value, kind):
        assert codec.encode_record(value, kind) == codec.encode_record(value, kind)

    def test_key_order_does_not_change_the_bytes(self):
        a = codec.encode_record({"x": 1, "y": 2}, codec.KIND_CAMPAIGN)
        b = codec.encode_record({"y": 2, "x": 1}, codec.KIND_CAMPAIGN)
        assert a == b

    def test_crc_matches_zlib(self):
        """The frame reuses the PR-3 CRC32 primitive bit-for-bit, over the
        canonical-JSON payload."""
        blob = codec.encode_record({"x": 1.5}, codec.KIND_CAMPAIGN)
        payload = codec.canonical_bytes({"x": 1.5})
        assert blob[HEADER:] == payload == b'{"x":1.5}'
        assert struct.unpack_from("<I", blob, 12)[0] == zlib.crc32(payload)
        assert struct.unpack_from("<I", blob, 8)[0] == len(payload)
