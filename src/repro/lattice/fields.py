"""Lattice field containers (host-side, "CPU order").

These are the reference representations that application code (Chroma, in
the paper's stack) hands to the library: spacetime index slowest-varying
container axis, internal indices (spin, color) trailing.  The virtual-GPU
layer reorders them into the coalescing-friendly GPU layout of paper
eqs. (3)-(5) (see :mod:`repro.gpu.layout`).

* :class:`SpinorField` — one complex 4(spin) x 3(color) "color-spinor" per
  site: 24 real numbers apiece.
* :class:`GaugeField` — one SU(3) link matrix per (direction, site); the
  matrix ``U_mu(x)`` lives on the link from ``x`` to ``x + mu_hat`` and is
  stored at site ``x`` (paper Section V-B).
* :class:`CloverField` — the clover term ``A_x``: two 6x6 Hermitian chiral
  blocks per site (72 real numbers, paper footnote 1), stored as
  ``(V, 2, 6, 6)`` complex with the 6 = (2 spins x 3 colors) within a
  chirality, spin-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import NDIM, LatticeGeometry
from .su3 import NCOLOR
from .gamma import NSPIN

__all__ = [
    "SpinorField",
    "GaugeField",
    "CloverField",
    "spinor_like",
    "zeros_spinor",
]


def _check_geometry_shape(
    geometry: LatticeGeometry, data: np.ndarray, expected_tail: tuple[int, ...], axis: int
) -> None:
    if data.shape[axis] != geometry.volume:
        raise ValueError(
            f"field volume {data.shape[axis]} does not match geometry "
            f"volume {geometry.volume}"
        )
    if tuple(data.shape[axis + 1 :]) != expected_tail:
        raise ValueError(
            f"expected trailing shape {expected_tail}, got {data.shape[axis + 1:]}"
        )


@dataclass
class SpinorField:
    """A color-spinor field: ``data`` has shape ``(V, 4, 3)`` complex.

    ``basis`` records which spin basis the components are expressed in
    (see :mod:`repro.lattice.gamma`); operators must be applied in a
    matching basis, and the library checks this where it is cheap to do so.
    """

    geometry: LatticeGeometry
    data: np.ndarray
    basis: str = "degrand_rossi"

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data)
        if not np.iscomplexobj(self.data):
            raise TypeError("spinor data must be complex")
        _check_geometry_shape(self.geometry, self.data, (NSPIN, NCOLOR), axis=0)

    # -- vector-space helpers (host reference; device BLAS lives in core) --

    def copy(self) -> "SpinorField":
        return SpinorField(self.geometry, self.data.copy(), self.basis)

    def zeros_like(self) -> "SpinorField":
        return SpinorField(self.geometry, np.zeros_like(self.data), self.basis)

    def norm2(self) -> float:
        """Squared 2-norm over all sites and internal components."""
        return float(np.vdot(self.data, self.data).real)

    def dot(self, other: "SpinorField") -> complex:
        """Global inner product ``<self | other>`` (conjugate-linear in self)."""
        self._check_compatible(other)
        return complex(np.vdot(self.data, other.data))

    def axpy(self, a: complex, x: "SpinorField") -> None:
        """In-place ``self += a * x`` (in-place per the optimization guide)."""
        self._check_compatible(x)
        self.data += a * x.data

    def to_basis(self, basis: str) -> "SpinorField":
        """Rotate the spin components to another basis."""
        from . import gamma as _g

        if basis == self.basis:
            return self.copy()
        # psi_nr = S psi_dr ; going back uses S^dagger.
        s = _g.nr_transform()
        mat = s if basis == _g.NONRELATIVISTIC else np.conj(s.T)
        out = np.einsum("ab,vbc->vac", mat, self.data)
        return SpinorField(self.geometry, out, basis)

    def _check_compatible(self, other: "SpinorField") -> None:
        if other.geometry.dims != self.geometry.dims:
            raise ValueError("spinor fields live on different lattices")
        if other.basis != self.basis:
            raise ValueError(
                f"spin basis mismatch: {self.basis} vs {other.basis}"
            )


@dataclass
class GaugeField:
    """A gauge (link) field: ``data`` has shape ``(4, V, 3, 3)`` complex.

    ``data[mu, x]`` is ``U_mu(x)``, the SU(3) matrix on the link from ``x``
    to ``x + mu_hat``.
    """

    geometry: LatticeGeometry
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data)
        if self.data.shape[0] != NDIM:
            raise ValueError(f"expected leading direction axis of {NDIM}")
        _check_geometry_shape(self.geometry, self.data, (NCOLOR, NCOLOR), axis=1)

    def copy(self) -> "GaugeField":
        return GaugeField(self.geometry, self.data.copy())

    def plaquette(self) -> float:
        """Average plaquette ``Re tr(U_munu) / 3`` over all sites and planes.

        A cheap scalar invariant: exactly 1.0 on the free field, slightly
        below 1.0 on the paper's weak-field configurations, and gauge
        invariant (handy in tests).
        """
        from . import su3

        geo = self.geometry
        fwd = geo.neighbor_fwd
        total = 0.0
        n_planes = 0
        for mu in range(NDIM):
            for nu in range(mu + 1, NDIM):
                u_mu = self.data[mu]
                u_nu_fwd = self.data[nu][fwd[mu]]
                u_mu_fwd = self.data[mu][fwd[nu]]
                u_nu = self.data[nu]
                plaq = u_mu @ u_nu_fwd @ su3.adjoint(u_mu_fwd) @ su3.adjoint(u_nu)
                total += float(np.mean(su3.trace(plaq).real)) / NCOLOR
                n_planes += 1
        return total / n_planes


@dataclass
class CloverField:
    """The clover term ``A_x`` in chiral-block storage.

    ``data`` has shape ``(V, 2, 6, 6)`` complex: for each site, two
    Hermitian 6x6 blocks (upper/lower chirality), each acting on the
    (2 spin x 3 color) components of that chirality with spin-major
    flattening.  72 real numbers per site, as in the paper's footnote 1.

    ``inverse_data``, when present, caches the blockwise inverse used by
    the even-odd preconditioned operator (``A_oo^{-1}``).
    """

    geometry: LatticeGeometry
    data: np.ndarray
    inverse_data: np.ndarray | None = None

    BLOCK = NSPIN // 2 * NCOLOR  # 6

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data)
        _check_geometry_shape(self.geometry, self.data, (2, self.BLOCK, self.BLOCK), axis=0)

    def copy(self) -> "CloverField":
        inv = None if self.inverse_data is None else self.inverse_data.copy()
        return CloverField(self.geometry, self.data.copy(), inv)

    def hermiticity_violation(self) -> float:
        """``max |A - A^dag|`` over all blocks (should be ~1e-15)."""
        diff = self.data - np.conj(np.swapaxes(self.data, -1, -2))
        return float(np.max(np.abs(diff)))

    def compute_inverse(self) -> np.ndarray:
        """Blockwise 6x6 inverses, cached on the field.

        QUDA likewise precomputes the inverse clover term once per
        configuration for use in the even-odd preconditioned operator.
        """
        if self.inverse_data is None:
            self.inverse_data = np.linalg.inv(self.data)
        return self.inverse_data

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """Apply ``A`` sitewise to spinor data of shape ``(V, 4, 3)``.

        The chiral blocks act on spin components (0, 1) and (2, 3)
        respectively.
        """
        return apply_chiral_blocks(self.data, psi)

    def apply_inverse(self, psi: np.ndarray) -> np.ndarray:
        """Apply ``A^{-1}`` sitewise (computing the inverse on first use)."""
        return apply_chiral_blocks(self.compute_inverse(), psi)


def apply_chiral_blocks(blocks: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply per-site chiral 6x6 blocks to spinor data ``(V, 4, 3)``.

    ``blocks`` has shape ``(V, 2, 6, 6)``.  Works for any leading volume as
    long as the two arrays agree.
    """
    v = psi.shape[0]
    if blocks.shape[0] != v:
        raise ValueError("clover blocks and spinor have different volumes")
    half = psi.reshape(v, 2, CloverField.BLOCK)
    out = np.einsum("vcab,vcb->vca", blocks, half)
    return out.reshape(psi.shape)


def zeros_spinor(geometry: LatticeGeometry, basis: str = "degrand_rossi") -> SpinorField:
    """A zero spinor field on ``geometry``."""
    return SpinorField(
        geometry, np.zeros((geometry.volume, NSPIN, NCOLOR), dtype=np.complex128), basis
    )


def spinor_like(ref: SpinorField, data: np.ndarray) -> SpinorField:
    """Wrap raw data as a spinor field with ``ref``'s geometry and basis."""
    return SpinorField(ref.geometry, data, ref.basis)
