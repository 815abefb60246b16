"""Reference (host-side) Wilson and Wilson-clover Dirac operators.

This is the trusted, fully vectorized NumPy implementation of paper eq. (2):

    M = -1/2 D + (4 + m + A)

with the hopping (nearest-neighbor stencil) term

    (D psi)(x) = sum_mu [ P(-)mu U_mu(x)        psi(x + mu_hat)
                        + P(+)mu U_mu(x-mu)^dag psi(x - mu_hat) ] ,

``P(+/-)mu = 1 +/- gamma_mu``, and ``A`` the clover term.  Every other
implementation in the package (single virtual GPU, multi-GPU with either
communication strategy, any precision) is validated against this one.

The spin contractions use precomputed 4x4 projector matrices and
``einsum``; the site gathers use the geometry's neighbor tables.  The
fermion boundary phases (antiperiodic time) are folded in via the
geometry's phase tables so the kernel stays branch-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import NDIM, LatticeGeometry
from . import gamma as _gamma
from . import su3
from .fields import CloverField, GaugeField, SpinorField

__all__ = [
    "hopping_term",
    "WilsonCloverOperator",
    "apply_gamma5",
]


def hopping_term(
    gauge: GaugeField, psi: SpinorField, *, dagger: bool = False
) -> np.ndarray:
    """Apply the nearest-neighbor stencil ``D`` (or ``D^dag``) to ``psi``.

    Returns raw spinor data of shape ``(V, 4, 3)``.  ``D^dag`` swaps the
    roles of ``P(+)`` and ``P(-)`` (equivalently ``gamma_5 D gamma_5``).
    """
    geo = gauge.geometry
    if psi.geometry.dims != geo.dims:
        raise ValueError("gauge and spinor live on different lattices")
    basis = psi.basis
    fwd = geo.neighbor_fwd
    bwd = geo.neighbor_bwd
    ph_fwd = geo.boundary_phase_fwd
    ph_bwd = geo.boundary_phase_bwd
    u = gauge.data
    p = psi.data
    out = np.zeros_like(p)
    sgn = -1 if dagger else +1
    for mu in range(NDIM):
        p_minus = _gamma.projector(mu, -sgn, basis)
        p_plus = _gamma.projector(mu, +sgn, basis)
        # Forward gather: U_mu(x) psi(x + mu_hat), projected with P(-)mu.
        psi_fwd = p[fwd[mu]] * ph_fwd[mu][:, None, None]
        u_psi = np.einsum("xab,xsb->xsa", u[mu], psi_fwd)
        out += np.einsum("st,xta->xsa", p_minus, u_psi)
        # Backward gather: U_mu(x - mu_hat)^dag psi(x - mu_hat), with P(+)mu.
        psi_bwd = p[bwd[mu]] * ph_bwd[mu][:, None, None]
        u_back = su3.adjoint(u[mu][bwd[mu]])
        u_psi = np.einsum("xab,xsb->xsa", u_back, psi_bwd)
        out += np.einsum("st,xta->xsa", p_plus, u_psi)
    return out


def apply_gamma5(psi: SpinorField) -> SpinorField:
    """``gamma_5 psi`` in the spinor's own basis."""
    g5 = _gamma.gamma5(psi.basis)
    out = np.einsum("st,xta->xsa", g5, psi.data)
    return SpinorField(psi.geometry, out, psi.basis)


@dataclass
class WilsonCloverOperator:
    """The Wilson-clover matrix ``M`` of paper eq. (2) (host reference).

    Parameters
    ----------
    gauge:
        The link field.
    mass:
        The bare quark mass parameter ``m``; the sitewise diagonal is
        ``(4 + m + A_x)``.  The mass "controls the condition number of the
        matrix, and hence the convergence of iterative solvers" (paper
        Section II).
    clover:
        The clover term ``A`` (may be ``None`` for plain Wilson).
    """

    gauge: GaugeField
    mass: float
    clover: CloverField | None = None

    @property
    def geometry(self) -> LatticeGeometry:
        return self.gauge.geometry

    @property
    def diag_coeff(self) -> float:
        """The constant part of the site diagonal, ``4 + m``."""
        return 4.0 + self.mass

    def apply(self, psi: SpinorField, *, dagger: bool = False) -> SpinorField:
        """``M psi`` (or ``M^dag psi``).

        ``M^dag = gamma_5 M gamma_5`` for Wilson-clover; we exploit this to
        share the stencil code (the clover and mass terms are Hermitian and
        commute with ``gamma_5``... the clover term commutes because it is
        chiral-block diagonal).
        """
        hop = hopping_term(self.gauge, psi, dagger=dagger)
        out = self.diag_coeff * psi.data - 0.5 * hop
        if self.clover is not None:
            out += self.clover.apply(psi.data)
        return SpinorField(psi.geometry, out, psi.basis)

    # -- flat-vector interface for the host Krylov solvers ----------------

    def as_linear_operator(self, *, dagger: bool = False):
        """Return ``f(vec) -> vec`` acting on flattened spinor data."""
        geo = self.geometry
        basis = "degrand_rossi"

        def matvec(v: np.ndarray) -> np.ndarray:
            psi = SpinorField(geo, v.reshape(-1, 4, 3), basis)
            return self.apply(psi, dagger=dagger).data.reshape(-1)

        return matvec

    def flops_per_site(self, *, effective: bool = True) -> int:
        """Nominal flop count per site for one application of ``M``.

        ``effective=True`` uses the paper's convention (Section VII-A):
        3696 flops per site for Wilson-clover — the count that does *not*
        include the extra work to reconstruct the third gauge row.  Plain
        Wilson is 1824 (2 x 912/parity in QUDA counting... we keep the
        standard 1320 Wilson-dslash + mass/accumulate convention scaled to
        the full operator: 1824).
        """
        if self.clover is not None:
            return 3696 if effective else 3696 + 8 * 66  # + 8 row recons
        return 1824 if effective else 1824 + 8 * 66
