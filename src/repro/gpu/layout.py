"""The QUDA device field layout: paper eqs. (3)-(5) and Fig. 2.

A lattice field with ``Nint`` internal real numbers per site is stored on
the device as ``Nint / Nvec`` *blocks* of short vectors:

    i_new = Nvec * ( stride * floor(n / Nvec) + x ) + n mod Nvec      (5)

where ``x`` is the site index, ``n`` the internal index, ``Nvec`` the
short-vector length (float4 in single, double2 in double — 16 bytes
either way), and ``stride = V + pad``.  Successive threads (sites) then
read successive 16-byte vectors, giving coalesced memory transactions.

The pad of one spatial volume ``Vs = X*Y*Z`` serves two purposes:

1. it breaks the stride pattern that causes *partition camping* for
   certain problem sizes (Section III / V-B), and
2. it is "exactly the correct size to store the additional gauge field
   slice" — the gauge ghost zone of the multi-GPU code hides entirely in
   the padding (Section VI-B, Fig. 2).

Spinor fields additionally carry an *end zone* appended after the last
block: the two transferred faces of the multi-GPU spinor ghost
(Section VI-C, Fig. 3), deliberately *outside* the blocked body so that
reduction kernels can exclude it without double counting.

Everything here is pure index arithmetic plus vectorized ``pack``/
``unpack`` converters between host ("CPU order", eq. (3)) and device
order; the tests verify the mapping is a bijection for every supported
``(Nint, Nvec, pad, precision)`` combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .specs import GPUSpec
from .precision import Precision

__all__ = [
    "FieldLayout",
    "spinor_to_reals",
    "reals_to_spinor",
    "matrices_to_reals",
    "reals_to_matrices",
    "SPINOR_REALS",
    "GAUGE_REALS_FULL",
    "GAUGE_REALS_COMPRESSED",
    "CLOVER_REALS",
]

#: Internal reals per site for each field species (paper Section V-B).
SPINOR_REALS = 24
GAUGE_REALS_FULL = 18
GAUGE_REALS_COMPRESSED = 12
CLOVER_REALS = 72


@dataclass(frozen=True)
class FieldLayout:
    """Device layout of one field: block/stride geometry of eq. (5).

    Parameters
    ----------
    sites:
        Number of body sites ``V`` (for checkerboarded fields this is the
        half volume).
    internal_reals:
        ``Nint``: 24 for spinors, 12/18 for (compressed/full) gauge per
        direction, 72 for clover.
    nvec:
        Short-vector length.  Must divide ``internal_reals``.
    pad_sites:
        Pad between blocks, in sites.  QUDA uses one spatial volume.
    endzone_reals:
        Extra reals appended after the body (the spinor ghost end zone).
    """

    sites: int
    internal_reals: int
    nvec: int
    pad_sites: int = 0
    endzone_reals: int = 0

    def __post_init__(self) -> None:
        if self.internal_reals % self.nvec:
            raise ValueError(
                f"Nvec={self.nvec} must divide Nint={self.internal_reals}"
            )
        if min(self.sites, self.internal_reals, self.nvec) <= 0:
            raise ValueError("sites, internal_reals and nvec must be positive")
        if self.pad_sites < 0 or self.endzone_reals < 0:
            raise ValueError("pad and end zone must be non-negative")

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #

    @property
    def n_blocks(self) -> int:
        """Number of short-vector blocks, ``Nint / Nvec`` (Fig. 2)."""
        return self.internal_reals // self.nvec

    @property
    def stride(self) -> int:
        """Sites per block including pad: the ``(T+1) Vs`` of eq. (5)."""
        return self.sites + self.pad_sites

    @property
    def body_reals(self) -> int:
        return self.n_blocks * self.stride * self.nvec

    @property
    def total_reals(self) -> int:
        return self.body_reals + self.endzone_reals

    def nbytes(self, precision: Precision) -> int:
        """Device bytes of the stored field (norm arrays accounted by the
        field wrapper, not here)."""
        return self.total_reals * precision.real_bytes

    def index(self, x: int, n: int) -> int:
        """Eq. (5): flat device index of internal real ``n`` at site ``x``."""
        if not 0 <= x < self.sites:
            raise IndexError(f"site {x} outside body [0, {self.sites})")
        if not 0 <= n < self.internal_reals:
            raise IndexError(f"internal index {n} outside [0, {self.internal_reals})")
        return self.nvec * (self.stride * (n // self.nvec) + x) + n % self.nvec

    # ------------------------------------------------------------------ #
    # Pack / unpack (vectorized)
    # ------------------------------------------------------------------ #

    @cached_property
    def _scatter_index(self) -> np.ndarray:
        """Device index for every (site, internal) pair, shape (V, Nint)."""
        x = np.arange(self.sites)[:, None]
        n = np.arange(self.internal_reals)[None, :]
        return self.nvec * (self.stride * (n // self.nvec) + x) + n % self.nvec

    def pack(self, host: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Host order ``(V, Nint)`` reals -> flat device array.

        Pad regions and end zone are zero-initialized (the multi-GPU layer
        fills them with ghost data separately).
        """
        if host.shape != (self.sites, self.internal_reals):
            raise ValueError(
                f"expected host shape {(self.sites, self.internal_reals)}, "
                f"got {host.shape}"
            )
        flat = np.zeros(self.total_reals, dtype=dtype)
        flat[self._scatter_index] = host
        return flat

    def unpack(self, flat: np.ndarray) -> np.ndarray:
        """Flat device array -> host order ``(V, Nint)`` reals."""
        if flat.shape != (self.total_reals,):
            raise ValueError(
                f"expected flat shape ({self.total_reals},), got {flat.shape}"
            )
        return flat[self._scatter_index]

    # ------------------------------------------------------------------ #
    # Pad (gauge ghost) region and end zone
    # ------------------------------------------------------------------ #

    @cached_property
    def _pad_index(self) -> np.ndarray:
        """Device index of every (pad site, internal) pair, (pad, Nint)."""
        if self.pad_sites == 0:
            return np.empty((0, self.internal_reals), dtype=np.int64)
        x = self.sites + np.arange(self.pad_sites)[:, None]
        n = np.arange(self.internal_reals)[None, :]
        return self.nvec * (self.stride * (n // self.nvec) + x) + n % self.nvec

    def write_pad(self, flat: np.ndarray, ghost: np.ndarray) -> None:
        """Store ghost sites in the pad region (gauge ghost, Section VI-B).

        ``ghost`` has host order ``(pad_sites, Nint)``.  The kernel then
        addresses ghost site ``k`` exactly like body site ``V + k`` — "the
        gauge field array indices are set to the padded region".
        """
        if ghost.shape != (self.pad_sites, self.internal_reals):
            raise ValueError(
                f"expected ghost shape {(self.pad_sites, self.internal_reals)}, "
                f"got {ghost.shape}"
            )
        flat[self._pad_index] = ghost

    def read_pad(self, flat: np.ndarray) -> np.ndarray:
        """Read back the pad region in host order (for tests/debugging)."""
        return flat[self._pad_index]

    def endzone(self, flat: np.ndarray) -> np.ndarray:
        """View of the end zone (the spinor ghost faces, Section VI-C)."""
        if self.endzone_reals == 0:
            return flat[self.total_reals :]  # empty view
        return flat[self.body_reals :]

    # ------------------------------------------------------------------ #
    # Partition camping (Section III / V-B)
    # ------------------------------------------------------------------ #

    def block_stride_bytes(self, precision: Precision) -> int:
        """Bytes between the starts of successive blocks."""
        return self.stride * self.nvec * precision.real_bytes

    def partition_camping(self, precision: Precision, spec: GPUSpec) -> bool:
        """Whether this layout stresses only a subset of memory partitions.

        Successive 256-byte regions round-robin over the 8 partitions
        (GT200).  If the block stride is a multiple of the full partition
        cycle (8 x 256 bytes), the same-numbered vector of every block
        lands in the same partition and the concurrent block streams
        "camp" on it — the effect hits exactly the power-of-two-ish
        production volumes (Section V-B).  QUDA's cure is the pad, whose
        presence staggers the streams; we model "padded => no camping"
        (the pad size is chosen by the library to break the alignment).
        """
        if self.pad_sites > 0:
            return False
        cycle = spec.memory_partitions * spec.partition_width_bytes
        return self.block_stride_bytes(precision) % cycle == 0


# ---------------------------------------------------------------------- #
# Host <-> flat-real conversions for each field species
# ---------------------------------------------------------------------- #


def spinor_to_reals(data: np.ndarray) -> np.ndarray:
    """Complex spinor data ``(V, 4, 3)`` -> reals ``(V, 24)``.

    Internal ordering: spin major, then color, then (re, im) — the
    ordering is a private convention; only its consistency matters.
    Single-precision data comes back as a float32 view of its (re, im)
    pairs, not a float64 copy (see :func:`_complex_reals`).
    """
    return _complex_reals(data, SPINOR_REALS)


def reals_to_spinor(reals: np.ndarray) -> np.ndarray:
    """Inverse of :func:`spinor_to_reals`."""
    v = reals.shape[0]
    flat = reals[:, 0::2] + 1j * reals[:, 1::2]
    return flat.reshape(v, 4, 3)


def matrices_to_reals(data: np.ndarray) -> np.ndarray:
    """Complex matrices ``(V, r, c)`` -> reals ``(V, 2*r*c)`` (row major)."""
    return _complex_reals(data, 2 * data.shape[1] * data.shape[2])


def _complex_reals(data: np.ndarray, n: int) -> np.ndarray:
    """``(V, ...)`` complex -> ``(V, n)`` interleaved (re, im) reals.

    complex64 is a view of its float32 pairs (the half encode reads the
    values, and ``abs``, ``max`` and a float64 ratio of them are exact
    either way); anything else is copied out as float64.
    """
    v = data.shape[0]
    if data.dtype == np.complex64:
        return np.ascontiguousarray(data).view(np.float32).reshape(v, n)
    out = np.empty((v, n), dtype=np.float64)
    flat = data.reshape(v, n // 2)
    out[:, 0::2] = flat.real
    out[:, 1::2] = flat.imag
    return out


def reals_to_matrices(reals: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`matrices_to_reals`."""
    v = reals.shape[0]
    flat = reals[:, 0::2] + 1j * reals[:, 1::2]
    return flat.reshape(v, rows, cols)
