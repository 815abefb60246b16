"""Test oracle: the dslash kernel's original einsum formulation.

This is the functional body ``repro.gpu.kernels.dslash_kernel`` had before
it was rewritten around half-spinor projection and per-solve tables: for
every hop it gathers the *full* 4-spinor, multiplies it by the link and
applies the 4x4 projector last, re-decoding links and clover blocks and
re-deriving the face ordinals on every call.  It is slow and obviously
right, which is what an oracle should be; nothing under ``src/`` imports
it.

:func:`reference_dslash` returns the complex result of every target row
*before* it is stored, so a caller can compare it against the device
field (``dst.get()``) or, for half precision, against what quantizing
exactly this result would store.
"""

import numpy as np

from repro.gpu.fields import BACKWARD, FORWARD
from repro.gpu.kernels import normalize_partitioned
from repro.lattice import gamma as _gamma
from repro.lattice import su3
from repro.lattice.fields import apply_chiral_blocks
from repro.lattice.geometry import NDIM


def _face_ordinals(face_mask: np.ndarray, selected_rows: np.ndarray) -> np.ndarray:
    """Ordinal of ``selected_rows`` among the True entries of ``face_mask``.

    The ghost face is ordered by the boundary slice's lex enumeration; the
    k-th target-parity site on the slice (in cb order) pairs with the k-th
    ghost entry.
    """
    return (np.cumsum(face_mask) - 1)[selected_rows]


def reference_dslash(
    tables,
    gauge,
    src,
    *,
    partitioned=(),
    dagger=False,
    clover=None,
    clover_target="result",
    xpay=None,
):
    """The hopping term (+ fused epilogue) of every target row."""
    dirs = normalize_partitioned(partitioned)
    rows = np.arange(tables.n_sites)
    basis = src.basis
    sgn = -1 if dagger else +1
    body = src.working()
    cdtype = src.precision.complex_compute_dtype
    out = np.zeros((rows.size, 4, 3), dtype=cdtype)

    for mu in range(NDIM):
        p_minus = _gamma.projector(mu, -sgn, basis)
        p_plus = _gamma.projector(mu, +sgn, basis)
        ph_f = tables.ph_fwd[mu][rows]
        ph_b = tables.ph_bwd[mu][rows]
        u_mu = gauge.links(mu)

        if mu not in dirs:
            # Plain local periodic wrap.
            u_here = u_mu[tables.tgt_sites[rows]]
            psi_f = body[tables.nbr_fwd[mu][rows]] * ph_f[:, None, None]
            out += np.einsum("st,xab,xtb->xsa", p_minus, u_here, psi_f, optimize=True)
            u_back = su3.adjoint(u_mu[tables.bwd_sites[mu][rows]])
            psi_b = body[tables.nbr_bwd[mu][rows]] * ph_b[:, None, None]
            out += np.einsum("st,xab,xtb->xsa", p_plus, u_back, psi_b, optimize=True)
            continue

        f = tables.face(mu)
        on_low = f.on_low[rows]
        on_high = f.on_high[rows]
        # Forward gather, local part (everything not on the high slice).
        loc = ~on_high
        u_here = u_mu[tables.tgt_sites[rows[loc]]]
        psi_f = body[tables.nbr_fwd[mu][rows[loc]]] * ph_f[loc][:, None, None]
        out[loc] += np.einsum("st,xab,xtb->xsa", p_minus, u_here, psi_f, optimize=True)
        # Forward gather from the +mu ghost: R(-mu) [U_mu(x) @ Q(-mu) psi].
        if np.any(on_high):
            _, r_minus = _gamma.projector_decomposition(mu, -sgn, basis)
            pos = _face_ordinals(f.on_high, rows[on_high])
            halves = src.get_ghost(FORWARD, mu=mu)[pos].astype(cdtype)
            u_here = u_mu[tables.tgt_sites[rows[on_high]]]
            u_h = np.einsum("xab,xhb->xha", u_here, halves, optimize=True)
            out[on_high] += ph_f[on_high][:, None, None] * np.einsum(
                "sh,xha->xsa", r_minus, u_h, optimize=True
            )
        # Backward gather, local part.
        loc = ~on_low
        u_back = su3.adjoint(u_mu[tables.bwd_sites[mu][rows[loc]]])
        psi_b = body[tables.nbr_bwd[mu][rows[loc]]] * ph_b[loc][:, None, None]
        out[loc] += np.einsum("st,xab,xtb->xsa", p_plus, u_back, psi_b, optimize=True)
        # Backward gather from the -mu ghost: R(+mu) [U_ghost^dag @ Q(+mu)
        # psi], the ghost links from the neighbor's high slice.
        if np.any(on_low):
            _, r_plus = _gamma.projector_decomposition(mu, +sgn, basis)
            ordinals = _face_ordinals(f.on_low, rows[on_low])
            halves = src.get_ghost(BACKWARD, mu=mu)[ordinals].astype(cdtype)
            gpos = f.gauge_pos_low[ordinals]
            u_back = su3.adjoint(gauge.ghost_links(mu)[gpos])
            u_h = np.einsum("xab,xhb->xha", u_back, halves, optimize=True)
            out[on_low] += ph_b[on_low][:, None, None] * np.einsum(
                "sh,xha->xsa", r_plus, u_h, optimize=True
            )

    # ----- fused epilogue: clover multiply and accumulate ---------------- #
    if clover is not None and clover_target == "result":
        out = apply_chiral_blocks(clover.blocks()[rows], out)
    if xpay is not None:
        coeff, x_field = xpay
        x_rows = x_field.working()[rows]
        if clover is not None and clover_target == "xpay":
            x_rows = apply_chiral_blocks(clover.blocks()[rows], x_rows)
        out = x_rows + np.asarray(coeff, dtype=cdtype) * out
    return out
