"""Construction of the clover term ``A_x`` from the gauge field.

The Sheikholeslami-Wohlert ("clover") improvement term of paper eq. (2) is

    A_x = (c_sw / 2) * sum_{mu < nu} sigma_munu (x) Fhat_munu(x)

where ``Fhat_munu`` is the Hermitian lattice field-strength tensor obtained
from the four "clover leaf" plaquettes around ``x`` and ``sigma_munu =
(i/2)[gamma_mu, gamma_nu]``.

In a chiral basis (gamma_5 diagonal — DeGrand-Rossi here), every
``sigma_munu`` is block diagonal over the two chiralities, so ``A_x``
decomposes into two Hermitian 6x6 blocks: "Each clover matrix has a
Hermitian block diagonal, anti-Hermitian block off-diagonal structure, and
can be fully described by 72 real numbers" (paper footnote 1).  We build
the blocks directly and also provide the packed 72-real representation the
GPU layout uses.
"""

from __future__ import annotations

import numpy as np

from .geometry import NDIM, LatticeGeometry
from . import gamma as _gamma
from . import su3
from .fields import CloverField, GaugeField

__all__ = [
    "field_strength",
    "make_clover",
    "pack_clover",
    "unpack_clover",
    "CLOVER_REALS_PER_SITE",
]


#: Real numbers needed to describe one clover matrix (paper footnote 1).
CLOVER_REALS_PER_SITE = 72

# The six (mu, nu) planes with mu < nu.
_PLANES: tuple[tuple[int, int], ...] = tuple(
    (mu, nu) for mu in range(NDIM) for nu in range(mu + 1, NDIM)
)


def field_strength(gauge: GaugeField, mu: int, nu: int) -> np.ndarray:
    """Hermitian clover-leaf field strength ``Fhat_munu``, shape ``(V, 3, 3)``.

    Averages the four plaquette "leaves" in the (mu, nu) plane around each
    site and takes the anti-Hermitian traceless part times ``-i``:

        Q = leaf1 + leaf2 + leaf3 + leaf4
        Fhat = -i/8 (Q - Q^dag)

    ``Fhat`` vanishes identically on the free field (all links 1), is
    Hermitian, and transforms covariantly (``Fhat -> g Fhat g^dag``), which
    the tests verify.
    """
    geo = gauge.geometry
    u = gauge.data
    fwd = geo.neighbor_fwd
    bwd = geo.neighbor_bwd
    adj = su3.adjoint

    u_mu, u_nu = u[mu], u[nu]
    # Hoist every repeated neighbor gather: fancy indexing copies the
    # whole link array, and the four leaves reuse several of them (the
    # x-mu and x-nu gathers each appear three times below).  Same
    # arithmetic, same matmul order — the results are bit-identical.
    u_mu_bwd_mu = u_mu[bwd[mu]]
    u_nu_bwd_nu = u_nu[bwd[nu]]
    u_mu_fwd_nu = u_mu[fwd[nu]]

    # Leaf 1: x -> x+mu -> x+mu+nu -> x+nu -> x
    leaf = u_mu @ u_nu[fwd[mu]] @ adj(u_mu_fwd_nu) @ adj(u_nu)
    # Leaf 2: x -> x+nu -> x+nu-mu -> x-mu -> x
    leaf = leaf + u_nu @ adj(u_mu_fwd_nu[bwd[mu]]) @ adj(u_nu[bwd[mu]]) @ u_mu_bwd_mu
    # Leaf 3: x -> x-mu -> x-mu-nu -> x-nu -> x
    leaf = leaf + adj(u_mu_bwd_mu) @ adj(u_nu[bwd[mu]][bwd[nu]]) @ u_mu_bwd_mu[
        bwd[nu]
    ] @ u_nu_bwd_nu
    # Leaf 4: x -> x-nu -> x-nu+mu -> x+mu -> x
    leaf = leaf + adj(u_nu_bwd_nu) @ u_mu[bwd[nu]] @ u_nu_bwd_nu[fwd[mu]] @ adj(u_mu)

    return -0.125j * (leaf - adj(leaf))


def make_clover(gauge: GaugeField, c_sw: float = 1.0) -> CloverField:
    """Build the clover field ``A`` on ``gauge``'s lattice.

    The result is stored as two 6x6 Hermitian chiral blocks per site
    (spin-major flattening of (2 spins x 3 colors)); see
    :class:`repro.lattice.fields.CloverField`.
    """
    geo = gauge.geometry
    v = geo.volume
    blocks = np.zeros((v, 2, 6, 6), dtype=np.complex128)
    half = np.s_[0:2], np.s_[2:4]
    for mu, nu in _PLANES:
        sigma = np.asarray(_gamma.sigma_munu(mu, nu, _gamma.DEGRAND_ROSSI))
        # In the chiral basis sigma_munu must be block diagonal; guard the
        # convention rather than silently producing a wrong clover term.
        off = max(
            float(np.max(np.abs(sigma[0:2, 2:4]))),
            float(np.max(np.abs(sigma[2:4, 0:2]))),
        )
        if off > 1e-12:  # pragma: no cover - basis is chiral by construction
            raise RuntimeError("sigma_munu not chiral-block diagonal")
        f = field_strength(gauge, mu, nu)
        for chirality, sl in enumerate(half):
            s_block = sigma[sl, sl]  # (2, 2) spin block
            # kron over (spin, color) with spin-major flattening:
            # block[(s,a),(t,b)] = s_block[s,t] * f[a,b]
            blocks[:, chirality] += (c_sw / 2.0) * np.einsum(
                "st,xab->xsatb", s_block, f
            ).reshape(v, 6, 6)
    return CloverField(geo, blocks)


def pack_clover(clover: CloverField) -> np.ndarray:
    """Pack chiral blocks into 72 reals per site, shape ``(V, 72)``.

    Layout per chiral block (36 reals): the 6 real diagonal entries
    followed by the 15 strictly-lower-triangular complex entries
    (re, im interleaved), column-major within the triangle — the dense
    Hermitian storage QUDA streams through the GPU.
    """
    v = clover.data.shape[0]
    out = np.empty((v, CLOVER_REALS_PER_SITE), dtype=np.float64)
    tri = np.tril_indices(6, k=-1)
    for chirality in range(2):
        block = clover.data[:, chirality]
        base = chirality * 36
        out[:, base : base + 6] = np.real(
            block[:, np.arange(6), np.arange(6)]
        )
        lower = block[:, tri[0], tri[1]]  # (V, 15) complex
        out[:, base + 6 : base + 36 : 2] = lower.real
        out[:, base + 7 : base + 36 : 2] = lower.imag
    return out


def unpack_clover(geometry: LatticeGeometry, packed: np.ndarray) -> CloverField:
    """Inverse of :func:`pack_clover` (Hermiticity restored exactly)."""
    v = packed.shape[0]
    if packed.shape != (v, CLOVER_REALS_PER_SITE):
        raise ValueError(f"expected shape (V, 72), got {packed.shape}")
    blocks = np.zeros((v, 2, 6, 6), dtype=np.complex128)
    tri = np.tril_indices(6, k=-1)
    for chirality in range(2):
        base = chirality * 36
        diag = packed[:, base : base + 6]
        blocks[:, chirality, np.arange(6), np.arange(6)] = diag
        lower = packed[:, base + 6 : base + 36 : 2] + 1j * packed[
            :, base + 7 : base + 36 : 2
        ]
        blocks[:, chirality, tri[0], tri[1]] = lower
        blocks[:, chirality, tri[1], tri[0]] = np.conj(lower)
    return CloverField(geometry, blocks)
