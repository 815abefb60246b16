"""Device-resident field containers at any storage precision.

Each device field pairs

* a *logical* NumPy backing store (complex arrays for float precisions;
  genuine ``int16`` plus ``float32`` norms for half precision, so that
  quantization error is physically present in the numerics), with
* a :class:`~repro.gpu.layout.FieldLayout` describing its true on-device
  shape — blocked, padded, end-zoned per paper eqs. (4)-(5) — which is
  what the allocator charges against the 2 GiB card and what the traffic
  accounting of the kernels is derived from.

The layout's pack/unpack bijection is tested exhaustively in
``tests/gpu/test_layout.py``; storing the working data logically (rather
than permuted) keeps the NumPy kernels vectorized without changing any
observable: bytes, addresses, and numerics all follow the real layout.

Ghost storage follows the paper:

* **Spinor fields** carry an *end zone* holding the two transferred
  half-spinor faces (12 real numbers per face site, Section VI-C) plus,
  in half precision, a ``2 * faces`` norm end zone.
* **Gauge fields** receive their ghost timeslice inside the *pad* region
  (Section VI-B) — here a dedicated ghost array whose bytes were already
  part of the padded allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .device import VirtualGPU
from .layout import (
    CLOVER_REALS,
    GAUGE_REALS_COMPRESSED,
    GAUGE_REALS_FULL,
    SPINOR_REALS,
    FieldLayout,
    matrices_to_reals,
    reals_to_matrices,
    reals_to_spinor,
    spinor_to_reals,
)
from .precision import (
    Precision,
    dequantize_block,
    dequantize_normalized,
    quantize_block,
    quantize_normalized,
)

__all__ = [
    "DeviceSpinorField",
    "DeviceGaugeField",
    "DeviceCloverField",
    "BACKWARD",
    "FORWARD",
]

#: Face direction labels: BACKWARD = the face at local t = 0 (received
#: from the -t neighbor), FORWARD = the face at local t = T_loc - 1.
BACKWARD, FORWARD = "backward", "forward"

#: Reals in one projected half-spinor (2 spins x 3 colors, complex).
HALF_SPINOR_REALS = 12


@dataclass
class DeviceSpinorField:
    """A spinor field on one virtual GPU.

    Parameters
    ----------
    sites:
        Body sites (half volume for checkerboarded solver fields).
    pad_sites:
        Layout pad (one spatial volume in QUDA).
    faces:
        Sites per ghost face, by partitioned direction (empty on a single
        GPU; ``{3: Vs/2}`` under the paper's time slicing).  The end zone
        holds two faces per direction: the P+mu half first, then the
        P-mu half, matching Fig. 3.
    """

    gpu: VirtualGPU
    sites: int
    precision: Precision
    pad_sites: int = 0
    basis: str = "degrand_rossi"
    label: str = "spinor"
    faces: dict[int, int] = field(default_factory=dict)
    layout: FieldLayout = field(init=False)

    T_DIR = 3

    def __post_init__(self) -> None:
        self.faces = {mu: n for mu, n in self.faces.items() if n > 0}
        total_faces = sum(self.faces.values())
        self.layout = FieldLayout(
            sites=self.sites,
            internal_reals=SPINOR_REALS,
            nvec=self.precision.vector_length,
            pad_sites=self.pad_sites,
            endzone_reals=2 * total_faces * HALF_SPINOR_REALS,
        )
        nbytes = self.layout.nbytes(self.precision)
        ghost_keys = [
            (mu, d) for mu in self.faces for d in (BACKWARD, FORWARD)
        ]
        if self.precision.needs_norm:
            # Body norms + the 2*Vs norm end zone (Section VI-C).
            nbytes += (self.sites + 2 * total_faces) * 4
            self._store = self.gpu.allocator.alloc_bytes(
                nbytes, (self.sites, SPINOR_REALS), np.int16,
                f"{self.gpu.name}:{self.label}[half]",
            )
            self._norms = self.gpu.empty_like_field((self.sites,), np.float32)
            self._ghost = {
                key: self.gpu.empty_like_field(
                    (self.faces[key[0]], HALF_SPINOR_REALS), np.int16
                )
                for key in ghost_keys
            }
            self._ghost_norms = {
                key: self.gpu.empty_like_field((self.faces[key[0]],), np.float32)
                for key in ghost_keys
            }
        else:
            self._store = self.gpu.allocator.alloc_bytes(
                nbytes,
                (self.sites, 4, 3),
                self.precision.complex_compute_dtype,
                f"{self.gpu.name}:{self.label}[{self.precision.name.lower()}]",
            )
            self._norms = None
            self._ghost = {
                key: self.gpu.empty_like_field(
                    (self.faces[key[0]], 2, 3), self.precision.complex_compute_dtype
                )
                for key in ghost_keys
            }
            self._ghost_norms = {key: None for key in ghost_keys}

    # ------------------------------------------------------------------ #
    # Body data
    # ------------------------------------------------------------------ #

    @property
    def nbytes(self) -> int:
        return self._store.nbytes

    @property
    def body_bytes(self) -> int:
        """Device bytes of the body data alone (for traffic accounting)."""
        n = self.sites * SPINOR_REALS * self.precision.real_bytes
        if self.precision.needs_norm:
            n += self.sites * 4
        return n

    def set(self, data: np.ndarray) -> None:
        """Upload complex spinor data ``(sites, 4, 3)`` (quantizing)."""
        if not self.gpu.execute:
            return
        if data.shape != (self.sites, 4, 3):
            raise ValueError(f"expected {(self.sites, 4, 3)}, got {data.shape}")
        if self.precision.needs_norm:
            reals = spinor_to_reals(data)
            self._store.array[...], self._norms[...] = quantize_block(reals)
        else:
            self._store.array[...] = data

    def get(self) -> np.ndarray:
        """Download as complex128 ``(sites, 4, 3)`` (dequantizing)."""
        self._require_execute()
        if self.precision.needs_norm:
            reals = dequantize_block(self._store.array, self._norms)
            return reals_to_spinor(reals.astype(np.float64))
        return self._store.array.astype(np.complex128)

    def working(self, rows: np.ndarray | None = None) -> np.ndarray:
        """What kernels compute on: complex, in compute dtype.

        The whole body, or the sites ``rows`` of it (a face).  For half
        precision this performs the texture-style decode — of the sites
        asked for, not the field — and results written back must go
        through :meth:`set`; other precisions read the store itself.
        """
        self._require_execute()
        if not self.precision.needs_norm:
            return self._store.array if rows is None else self._store.array[rows]
        if rows is None:
            rows = slice(None)
        reals = dequantize_block(self._store.array[rows], self._norms[rows])
        # (re, im) pairs of float32 *are* complex64: one rounding per
        # real, as in reals_to_spinor(reals).astype(complex64).
        return reals.astype(np.float32).view(np.complex64).reshape(-1, 4, 3)

    def zero(self) -> None:
        if not self.gpu.execute:
            return
        self._store.array[...] = 0
        if self._norms is not None:
            self._norms[...] = 0

    def copy_from(self, other: "DeviceSpinorField") -> None:
        """Precision-converting copy (the mixed-precision solver's tool)."""
        if other.sites != self.sites:
            raise ValueError("site count mismatch in spinor copy")
        if not self.gpu.execute:
            return
        self.set(other.get())

    # ------------------------------------------------------------------ #
    # Ghost end zone
    # ------------------------------------------------------------------ #

    def set_ghost(
        self,
        direction: str,
        halves: np.ndarray,
        norms: np.ndarray | None = None,
        mu: int = T_DIR,
    ) -> None:
        """Store a received face into the end zone.

        ``halves``: complex half-spinors ``(faces[mu], 2, 3)``.  For half
        precision the face was transferred quantized; pass its norms, and
        it is stored against them (:func:`~repro.gpu.precision.quantize_block`).
        ``mu`` selects the partitioned direction (temporal by default).
        """
        if not self.gpu.execute:
            return
        n = self.faces[mu]
        key = (mu, direction)
        if halves.shape != (n, 2, 3):
            raise ValueError(f"expected {(n, 2, 3)}, got {halves.shape}")
        if self.precision.needs_norm:
            self._ghost[key][...], self._ghost_norms[key][...] = quantize_block(
                matrices_to_reals(halves), norms
            )
        else:
            self._ghost[key][...] = halves

    def get_ghost(self, direction: str, mu: int = T_DIR) -> np.ndarray:
        """Read a face from the end zone as complex compute-dtype data."""
        self._require_execute()
        key = (mu, direction)
        if self.precision.needs_norm:
            reals = dequantize_block(self._ghost[key], self._ghost_norms[key])
            return reals_to_matrices(reals, 2, 3).astype(np.complex64)
        return self._ghost[key]

    def face_message_bytes(self, mu: int = T_DIR) -> int:
        """Wire size of one face: 12 reals/site (+ norms in half)."""
        sites = self.faces.get(mu, 0)
        n = sites * HALF_SPINOR_REALS * self.precision.real_bytes
        if self.precision.needs_norm:
            n += sites * 4
        return n

    def _require_execute(self) -> None:
        if not self.gpu.execute:
            raise RuntimeError(
                "field data is not materialized in timing-only mode"
            )

    def release(self) -> None:
        self.gpu.free(self._store)


@dataclass
class DeviceGaugeField:
    """The link field on one virtual GPU.

    ``compressed`` selects 2-row (12-real) storage with in-kernel
    reconstruction (Section V-C1) — QUDA's default, and the paper's
    operation-count convention excludes the reconstruction flops.

    ``ghosts`` maps each partitioned direction to its ghost-slice sites
    (``{3: Vs}`` under the paper's time slicing).  The temporal ghost
    slice (``U_t`` links of the previous rank's last timeslice) lives in
    the pad region per Section VI-B; it is transferred once at
    initialization because "the link matrices are constant throughout the
    execution of the linear solver".  Other directions need dedicated
    buffers, accounted explicitly.
    """

    gpu: VirtualGPU
    sites: int
    precision: Precision
    compressed: bool = True
    pad_sites: int = 0
    label: str = "gauge"
    ghosts: dict[int, int] = field(default_factory=dict)
    layout: FieldLayout = field(init=False)
    #: What kernels derived from the stored links (see :meth:`derived`).
    _derived: dict = field(init=False, default_factory=dict, repr=False)

    T_DIR = 3

    def __post_init__(self) -> None:
        self.ghosts = {mu: n for mu, n in self.ghosts.items() if n > 0}
        reals = GAUGE_REALS_COMPRESSED if self.compressed else GAUGE_REALS_FULL
        if self.pad_sites < self.ghosts.get(self.T_DIR, 0):
            # QUDA's pad (one spatial volume) is "exactly the correct size
            # to store the additional gauge field slice".
            raise ValueError(
                f"gauge ghost ({self.ghosts[self.T_DIR]} sites) does not fit "
                f"in the pad ({self.pad_sites} sites)"
            )
        self.layout = FieldLayout(
            sites=self.sites,
            internal_reals=reals,
            nvec=self.precision.vector_length
            if reals % self.precision.vector_length == 0
            else 2,
            pad_sites=self.pad_sites,
        )
        rows = 2 if self.compressed else 3
        nbytes = 4 * self.layout.nbytes(self.precision)  # one block set per mu
        # Non-temporal ghosts live outside the pad: account their bytes.
        for mu, n in self.ghosts.items():
            if mu != self.T_DIR:
                nbytes += n * reals * self.precision.real_bytes
        dtype = (
            np.int16 if self.precision.needs_norm else self.precision.complex_compute_dtype
        )
        shape = (
            (4, self.sites, rows * 6)
            if self.precision.needs_norm
            else (4, self.sites, rows, 3)
        )
        self._store = self.gpu.allocator.alloc_bytes(
            nbytes, shape, dtype, f"{self.gpu.name}:{self.label}"
        )
        self._ghost = {
            mu: self.gpu.empty_like_field(
                (n, rows * 6) if self.precision.needs_norm else (n, rows, 3), dtype
            )
            for mu, n in self.ghosts.items()
        }

    @property
    def nbytes(self) -> int:
        return self._store.nbytes

    def matvec_link_bytes(self) -> int:
        """Bytes of one link matrix as stored (traffic accounting)."""
        reals = GAUGE_REALS_COMPRESSED if self.compressed else GAUGE_REALS_FULL
        return reals * self.precision.real_bytes

    # ------------------------------------------------------------------ #

    def _encode(self, matrices: np.ndarray) -> np.ndarray:
        """Complex link matrices -> stored representation."""
        from ..lattice import su3

        rows = su3.compress_rows(matrices) if self.compressed else matrices
        if self.precision.needs_norm:
            # Unitarity bounds every element by 1: direct fixed point.
            flat = matrices_to_reals(rows.reshape(rows.shape[0], -1, 3))
            return quantize_normalized(flat)
        return rows.astype(self.precision.complex_compute_dtype)

    def _decode(self, stored: np.ndarray) -> np.ndarray:
        """Stored representation -> full complex link matrices."""
        from ..lattice import su3

        rows_n = 2 if self.compressed else 3
        if self.precision.needs_norm:
            reals = dequantize_normalized(stored)
            rows = reals_to_matrices(reals, rows_n, 3).astype(np.complex64)
        else:
            rows = stored
        return su3.reconstruct_rows(rows) if self.compressed else rows

    def set(self, data: np.ndarray) -> None:
        """Upload links ``(4, sites, 3, 3)`` complex."""
        if not self.gpu.execute:
            return
        if data.shape != (4, self.sites, 3, 3):
            raise ValueError(f"expected {(4, self.sites, 3, 3)}, got {data.shape}")
        self._derived.clear()
        for mu in range(4):
            self._store.array[mu] = self._encode(data[mu])

    def links(self, mu: int) -> np.ndarray:
        """Full (reconstructed, decoded) link matrices for direction mu."""
        self._require_execute()
        return self._decode(self._store.array[mu])

    def derived(self, key, build):
        """``build()``, computed once per ``key`` for the links now stored.

        "The link matrices are constant throughout the execution of the
        linear solver" (Section VI-B), so whatever a kernel derives from
        them — decoded, reconstructed, reordered — is kept from one
        application to the next.  The field owns those results so that it
        can drop them the moment the links change (:meth:`set`,
        :meth:`set_ghost`) or the storage goes away (:meth:`release`).
        Each field keeps its own: a mixed-precision solve alternates its
        two operators at every reliable update, and neither rebuilds.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def set_ghost(self, links: np.ndarray, mu: int = T_DIR) -> None:
        """Store the ``mu`` gauge ghost slice (done once at init)."""
        if not self.gpu.execute:
            return
        n = self.ghosts[mu]
        if links.shape != (n, 3, 3):
            raise ValueError(f"expected {(n, 3, 3)}, got {links.shape}")
        self._derived.clear()
        self._ghost[mu][...] = self._encode(links)

    def ghost_links(self, mu: int = T_DIR) -> np.ndarray:
        """The decoded ghost slice (U_mu of the -mu neighbor's last slice)."""
        self._require_execute()
        return self._decode(self._ghost[mu])

    def ghost_message_bytes(self, mu: int = T_DIR) -> int:
        reals = GAUGE_REALS_COMPRESSED if self.compressed else GAUGE_REALS_FULL
        return self.ghosts.get(mu, 0) * reals * self.precision.real_bytes

    def _require_execute(self) -> None:
        if not self.gpu.execute:
            raise RuntimeError("field data is not materialized in timing-only mode")

    def release(self) -> None:
        self._derived.clear()
        self.gpu.free(self._store)


@dataclass
class DeviceCloverField:
    """Per-site chiral 6x6 blocks (the clover term or its inverse).

    Stored as the packed 72 reals per site (paper footnote 1); half
    precision quantizes the packed block with a shared per-site norm, as
    QUDA does.
    """

    gpu: VirtualGPU
    sites: int
    precision: Precision
    label: str = "clover"
    layout: FieldLayout = field(init=False)
    #: Half precision: the stored blocks decoded, once per upload (see
    #: :meth:`blocks`).
    _decoded: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        self.layout = FieldLayout(
            sites=self.sites,
            internal_reals=CLOVER_REALS,
            nvec=self.precision.vector_length,
        )
        nbytes = self.layout.nbytes(self.precision)
        if self.precision.needs_norm:
            nbytes += self.sites * 4
            self._store = self.gpu.allocator.alloc_bytes(
                nbytes, (self.sites, CLOVER_REALS), np.int16,
                f"{self.gpu.name}:{self.label}[half]",
            )
            self._norms = self.gpu.empty_like_field((self.sites,), np.float32)
        else:
            self._store = self.gpu.allocator.alloc_bytes(
                nbytes,
                (self.sites, 2, 6, 6),
                self.precision.complex_compute_dtype,
                f"{self.gpu.name}:{self.label}[{self.precision.name.lower()}]",
            )
            self._norms = None

    @property
    def nbytes(self) -> int:
        return self._store.nbytes

    def site_bytes(self) -> int:
        n = CLOVER_REALS * self.precision.real_bytes
        if self.precision.needs_norm:
            n += 4
        return n

    def set(self, blocks: np.ndarray) -> None:
        """Upload chiral blocks ``(sites, 2, 6, 6)`` complex."""
        if not self.gpu.execute:
            return
        if blocks.shape != (self.sites, 2, 6, 6):
            raise ValueError(f"expected {(self.sites, 2, 6, 6)}, got {blocks.shape}")
        if self.precision.needs_norm:
            packed = _pack_blocks(blocks)
            self._store.array[...], self._norms[...] = quantize_block(packed)
            self._decoded = None
        else:
            self._store.array[...] = blocks

    def blocks(self) -> np.ndarray:
        """Chiral blocks of every site, in compute dtype.

        The blocks are constant for the life of a solve, like the links
        (Section VI-B), so half precision decodes the whole store once,
        on first use after :meth:`set`, and keeps the complex64 blocks
        beside the int16 store until the next :meth:`set` or
        :meth:`release`; every application reads them as a slice.
        """
        self._require_execute()
        if not self.precision.needs_norm:
            return self._store.array
        if self._decoded is None:
            self._decoded = _unpack_blocks(
                dequantize_block(self._store.array, self._norms)
            )
        return self._decoded

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Blockwise apply to spinor data ``(sites, 4, 3)``."""
        from ..lattice.fields import apply_chiral_blocks

        return apply_chiral_blocks(self.blocks(), psi)

    def _require_execute(self) -> None:
        if not self.gpu.execute:
            raise RuntimeError("field data is not materialized in timing-only mode")

    def release(self) -> None:
        self._decoded = None
        self.gpu.free(self._store)


def _pack_blocks(blocks: np.ndarray) -> np.ndarray:
    """Chiral blocks ``(V, 2, 6, 6)`` -> 72 reals/site (Hermitian packing)."""
    v = blocks.shape[0]
    out = np.empty((v, CLOVER_REALS), dtype=np.float64)
    tri = np.tril_indices(6, k=-1)
    for c in range(2):
        base = 36 * c
        out[:, base : base + 6] = np.real(blocks[:, c, np.arange(6), np.arange(6)])
        lower = blocks[:, c, tri[0], tri[1]]
        out[:, base + 6 : base + 36 : 2] = lower.real
        out[:, base + 7 : base + 36 : 2] = lower.imag
    return out


@lru_cache(maxsize=None)
def _unpack_map() -> tuple[np.ndarray, np.ndarray]:
    """Where each real of an unpacked site comes from, and its sign.

    For the 2 x 6 x 6 x (re, im) reals of one site's blocks: the index of
    the packed real that fills it (``CLOVER_REALS`` = "none", a zero) and
    +1 or -1 (the upper triangle is the conjugate of the lower).
    """
    source = np.full((2, 6, 6, 2), CLOVER_REALS, dtype=np.intp)
    sign = np.ones((2, 6, 6, 2), dtype=np.float32)
    row, col = np.tril_indices(6, k=-1)
    for c in range(2):
        base = 36 * c
        source[c, np.arange(6), np.arange(6), 0] = base + np.arange(6)
        lower = base + 6 + 2 * np.arange(row.size)
        for part in (0, 1):
            source[c, row, col, part] = lower + part
            source[c, col, row, part] = lower + part
        sign[c, col, row, 1] = -1.0
    source, sign = source.reshape(-1), sign.reshape(-1)
    source.setflags(write=False)
    sign.setflags(write=False)
    return source, sign


def _unpack_blocks(packed: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_pack_blocks`, as complex64 ``(V, 2, 6, 6)``."""
    v = packed.shape[0]
    source, sign = _unpack_map()
    reals = np.zeros((v, CLOVER_REALS + 1), dtype=np.float32)
    reals[:, :CLOVER_REALS] = packed
    blocks = np.take(reals, source, axis=1)
    blocks *= sign
    return blocks.view(np.complex64).reshape(v, 2, 6, 6)
