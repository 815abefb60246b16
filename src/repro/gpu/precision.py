"""Storage precisions, including 16-bit fixed-point "half" (Section V-C3).

QUDA accelerates its bandwidth-bound kernels by *precision truncation*:
fields may be stored in 16-bit fixed point ("half precision") and expanded
to 32-bit floats on read via the texture unit's
``cudaReadModeNormalizedFloat`` mode, which maps a signed int16 to a float
in [-1, 1].

* **Gauge links** fit the format directly: unitarity bounds every element
  by 1 in magnitude.
* **Spinors** need a scale: QUDA stores each color-spinor as 6 ``short4``
  vectors plus a single ``float`` normalization shared by all 24 real
  components ("a spinor is stored as 6 short4 arrays and a single float
  normalization array").  The shared norm is justified because the matrix
  mixes all spin/color components of a site (paper footnote 2).

This module implements the encode/decode pair and quantization-error
bounds; the device fields of :mod:`repro.gpu.fields` call the decode
where a kernel reads (``DeviceSpinorField.working``).
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "Precision",
    "HALF_SCALE",
    "quantize_normalized",
    "dequantize_normalized",
    "quantize_block",
    "dequantize_block",
    "half_roundtrip_bound",
]

#: Largest representable magnitude of a signed 16-bit normalized value.
HALF_SCALE = 32767.0


#: Per storage width (bytes per real): the storage dtype, the
#: arithmetic dtype (half computes in float32), its complex twin and the
#: optimal short-vector length ``Nvec`` (Section V-B: QUDA found float4
#: optimal in single and double2 in double — both 16 bytes; half uses
#: short4, 8 bytes paired with the norm array).
_LAYOUT = {
    8: (np.dtype(np.float64), np.dtype(np.float64), np.dtype(np.complex128), 2),
    4: (np.dtype(np.float32), np.dtype(np.float32), np.dtype(np.complex64), 4),
    2: (np.dtype(np.int16), np.dtype(np.float32), np.dtype(np.complex64), 4),
}


class Precision(enum.Enum):
    """Field storage precision.

    ``value`` is the storage bytes per real number.  Note ``HALF`` is fixed
    point, not IEEE fp16: the decode is ``int16 / 32767 -> [-1, 1]`` as in
    CUDA's normalized texture reads.

    The layout is plain attributes of each member, set once from
    :data:`_LAYOUT`: kernels read them per call.
    """

    DOUBLE = 8
    SINGLE = 4
    HALF = 2

    def __init__(self, real_bytes: int) -> None:
        self.real_bytes = real_bytes
        (
            self.storage_dtype,
            self.compute_dtype,
            self.complex_compute_dtype,
            self.vector_length,
        ) = _LAYOUT[real_bytes]
        #: Whether spinor/clover storage carries a per-site norm array.
        self.needs_norm = real_bytes == 2

    @classmethod
    def parse(cls, name: "str | Precision") -> "Precision":
        if isinstance(name, cls):
            return name
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown precision {name!r}; expected double/single/half"
            ) from None


def quantize_normalized(values: np.ndarray) -> np.ndarray:
    """Encode reals in [-1, 1] as int16 (CUDA normalized-read convention).

    Used for gauge links, whose elements are bounded by unitarity.  Values
    that stray infinitesimally outside [-1, 1] from roundoff are clipped.
    """
    scaled = np.clip(values, -1.0, 1.0) * HALF_SCALE
    return np.round(scaled).astype(np.int16)


def dequantize_normalized(stored: np.ndarray) -> np.ndarray:
    """Decode int16 to float32 in [-1, 1]."""
    return stored.astype(np.float32) / np.float32(HALF_SCALE)


def quantize_block(
    reals: np.ndarray,
    norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode per-site blocks of reals with a shared per-site norm.

    ``reals`` has shape ``(sites, n)``; returns ``(int16 (sites, n),
    float32 norms (sites,))`` with ``decoded = int16 / 32767 * norm``.
    The norm of a site is its largest component, unless ``norms`` are
    given (a face that arrived with the norms it was sent with); a
    component beyond its given norm saturates at +/-32767.  Sites with
    norm 0 decode to exact zeros.
    """
    if reals.ndim != 2:
        raise ValueError(f"expected (sites, n) reals, got shape {reals.shape}")
    if norms is None:
        norms = np.max(np.abs(reals), axis=1).astype(np.float32)
    else:
        norms = np.asarray(norms, dtype=np.float32)
    # The ratio must be formed in float64 against the *stored* (float32)
    # norm: the decoded levels are q * norm32 / 32767, so rounding the
    # exact ratio w.r.t. norm32 lands on the nearest level at any scale.
    # One float64 temporary, computed in place: the same operations, in
    # the same order, as the expression ``round(clip(reals / safe * S))``.
    safe = np.where(norms == 0.0, np.float32(1.0), norms).astype(np.float64)
    ratio = np.divide(reals, safe[:, None], dtype=np.float64)
    ratio *= HALF_SCALE
    np.clip(ratio, -HALF_SCALE, HALF_SCALE, out=ratio)
    np.round(ratio, out=ratio)
    return ratio.astype(np.int16), norms


def dequantize_block(stored: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Decode ``quantize_block`` output.

    The product ``int16 * float32-norm`` is exact in float64 (16 + 24
    significant bits), so decoding in double incurs a single rounding.
    Decoding in float32 instead would add ~``eps32 * norm`` of noise on
    top of the rounding error, breaking the half-step roundtrip bound at
    scales where that noise is comparable to half a quantization step.
    """
    reals = stored.astype(np.float64)
    reals *= norms.astype(np.float64)[:, None]
    reals /= HALF_SCALE
    return reals


def half_roundtrip_bound(norms: np.ndarray) -> float:
    """Worst-case absolute error of one encode/decode pass.

    Rounding to the nearest of 2*32767 levels of ``[-norm, norm]`` gives
    ``|err| <= norm / (2 * 32767)`` per component.
    """
    return float(np.max(norms)) / (2.0 * HALF_SCALE)
