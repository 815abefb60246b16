"""CRC-framed durable records with a canonical-JSON payload.

Every durable byte stream — solve checkpoints, campaign checkpoints — is
one *record*: a fixed 16-byte frame, then a payload the frame's CRC32
covers.  The frame is the safety part: a torn buffer raises
:class:`TruncatedRecord`, a flipped bit :class:`ChecksumMismatch`,
anything that is not a current-version frame :class:`UnknownFormat`.
Nothing decodes silently wrong.

Frame layout (little-endian)::

    magic   4s   b"RPB1"
    version u8   format version (currently 2)
    kind    u8   record kind (KIND_*)
    flags   u16  reserved, must be zero
    length  u32  payload byte count
    crc32   u32  CRC32 of the payload bytes

The payload is canonical JSON (sorted keys, no whitespace, UTF-8): equal
state gives equal bytes and ``encode(decode(b)) == b``.  ``json``
round-trips everything the records hold — floats by shortest repr (NaN,
±inf, −0.0 included), ints of any size, nested lists and string-keyed
dicts.  A record with array data (``SolveCheckpoint``) lays out its own
payload — JSON header, then raw bytes — over :func:`encode_frame_parts` /
:func:`decode_frame`.

Frame version 1 carried a hand-rolled tagged-value payload that was
slower and larger than this one on real campaign checkpoints (README,
"Performance"); it is rejected by the version check, not decoded.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections.abc import Sequence
from typing import Any

__all__ = [
    "CodecError",
    "TruncatedRecord",
    "ChecksumMismatch",
    "UnknownFormat",
    "canonical_bytes",
    "pretty_json",
    "MAGIC",
    "VERSION",
    "KIND_CHECKPOINT",
    "KIND_CAMPAIGN",
    "KIND_CAMPAIGN_LOG",
    "KIND_NAMES",
    "encode_frame",
    "encode_frame_parts",
    "decode_frame",
    "split_frames",
    "parse_json",
    "encode_record",
    "decode_record",
    "is_packed",
]


class CodecError(ValueError):
    """Base class: a buffer failed to decode as a record."""


class TruncatedRecord(CodecError):
    """The buffer ends before the frame or the payload completes."""


class ChecksumMismatch(CodecError):
    """The payload's CRC32 disagrees with the frame header."""


class UnknownFormat(CodecError):
    """Wrong magic, version, kind or flags, or a payload that is not
    what the frame says it is."""


#: ``json.dumps`` builds one of these per call; a commit encodes twice.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_bytes(obj: Any) -> bytes:
    """Canonical JSON as UTF-8: sorted keys, no whitespace.

    The one deterministic-bytes convention: two writers of the same
    state produce the same bytes by construction.
    """
    return _CANONICAL.encode(obj).encode()


def pretty_json(obj: Any) -> str:
    """Human-facing JSON: sorted keys, 2-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True)


MAGIC = b"RPB1"
VERSION = 2

KIND_CHECKPOINT = 2
KIND_CAMPAIGN = 3
KIND_CAMPAIGN_LOG = 4

KIND_NAMES = {
    KIND_CHECKPOINT: "checkpoint",
    KIND_CAMPAIGN: "campaign",
    KIND_CAMPAIGN_LOG: "campaign log",
}

_HEADER = struct.Struct("<4sBBHII")


def encode_frame(payload: bytes, kind: int) -> bytes:
    """``payload`` behind the 16-byte frame."""
    return encode_frame_parts((payload,), kind)


def encode_frame_parts(parts: Sequence[Any], kind: int) -> bytes:
    """The frame of the concatenation of ``parts``, built in one copy.

    Each part is any contiguous bytes-like object (``bytes``, a NumPy
    array): the CRC runs over the parts in turn and the frame is joined
    from them, so a large array is never flattened to ``bytes`` first.
    The result equals ``encode_frame(b"".join(parts), kind)``.
    """
    if kind not in KIND_NAMES:
        raise ValueError(f"unknown record kind {kind}")
    crc = length = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
        length += memoryview(part).nbytes
    return b"".join((_HEADER.pack(MAGIC, VERSION, kind, 0, length, crc), *parts))


def is_packed(data: bytes) -> bool:
    """Whether ``data`` starts with the record magic."""
    return data[: len(MAGIC)] == MAGIC


def decode_frame(
    data: bytes, *, expect_kind: int | None = None
) -> tuple[int, memoryview]:
    """``(kind, payload)`` from a framed record, validating everything.

    Raises :class:`TruncatedRecord` on short buffers,
    :class:`ChecksumMismatch` on payload damage, :class:`UnknownFormat`
    on bad magic/version/kind/flags or trailing bytes, and ``ValueError``
    when ``expect_kind`` is given and disagrees.  The payload is a view
    into ``data``, not a copy.
    """
    if len(data) < _HEADER.size:
        raise TruncatedRecord(
            f"buffer of {len(data)} byte(s) shorter than the "
            f"{_HEADER.size}-byte frame header"
        )
    magic, version, kind, flags, length, crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise UnknownFormat(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise UnknownFormat(
            f"unsupported record version {version} (this build reads {VERSION})"
        )
    if kind not in KIND_NAMES:
        raise UnknownFormat(f"unknown record kind {kind}")
    if flags != 0:
        raise UnknownFormat(f"reserved flags set ({flags:#06x})")
    payload = memoryview(data)[_HEADER.size :]
    if len(payload) < length:
        raise TruncatedRecord(
            f"payload truncated: header promises {length} byte(s), "
            f"buffer holds {len(payload)}"
        )
    if len(payload) > length:
        raise UnknownFormat(
            f"{len(payload) - length} trailing byte(s) after the payload"
        )
    actual = zlib.crc32(payload)
    if actual != crc:
        raise ChecksumMismatch(
            f"payload checksum mismatch: {actual:#010x} != {crc:#010x}"
        )
    if expect_kind is not None and kind != expect_kind:
        raise ValueError(
            f"expected a {KIND_NAMES[expect_kind]} record, "
            f"got {KIND_NAMES[kind]}"
        )
    return kind, payload


def split_frames(data: bytes) -> list[bytes]:
    """The frames of an append-only stream, cut by header length alone.

    Stops at the first header that is short, foreign or promises more
    payload than remains — a torn tail — and drops the rest.  Nothing is
    verified here: each frame still goes through :func:`decode_frame`.
    """
    frames, offset = [], 0
    while len(data) - offset >= _HEADER.size:
        magic, _, _, _, length, _ = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if magic != MAGIC or end > len(data):
            break
        frames.append(data[offset:end])
        offset = end
    return frames


def parse_json(payload: bytes | memoryview) -> Any:
    """The value in a CRC-verified payload (or payload slice); one that
    is not JSON was not written here and is :class:`UnknownFormat`."""
    try:
        return json.loads(str(payload, "utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise UnknownFormat(f"record payload is not JSON: {exc}") from exc


def encode_record(obj: Any, kind: int) -> bytes:
    """The durable form of one JSON-shaped record."""
    return encode_frame(canonical_bytes(obj), kind)


def decode_record(
    data: bytes, *, expect_kind: int | None = None
) -> tuple[int, Any]:
    """``(kind, value)`` from :func:`encode_record` output (errors as
    :func:`decode_frame`)."""
    kind, payload = decode_frame(data, expect_kind=expect_kind)
    return kind, parse_json(payload)
