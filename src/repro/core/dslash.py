"""The device-resident even-odd Wilson-clover operator (one rank's view).

:class:`DeviceSchurOperator` owns everything one GPU needs to apply the
preconditioned matrix

    Mhat = A'_ee - (1/4) D_eo A'_oo^{-1} D_oe ,       A' = (4 + m) + A

at one storage precision: the (possibly compressed) gauge field with its
ghost timeslice in the pad, the diagonal chiral blocks ``A'_ee`` and the
precomputed inverse ``A'_oo^{-1}``, and the dslash index tables.  A
matrix application is exactly two fused kernel launches (Section V-A
arithmetic: 3696 flops / 744 stored reals per site), each preceded — or
overlapped — by a temporal face exchange when the lattice is partitioned.

The mixed-precision solver instantiates this operator twice (full and
sloppy precision) on the *same* GPU; the memory cost of that duplication
is what forces the 32^3 x 256 mixed-precision solve onto at least 8 GPUs
(Section VII-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..comms.qmp import QMPMachine
from ..gpu.device import VirtualGPU
from ..gpu.fields import DeviceCloverField, DeviceGaugeField, DeviceSpinorField
from ..gpu.kernels import (
    CLOVER_FLOPS_PER_SITE,
    DSLASH_FLOPS_PER_SITE,
    XPAY_FLOPS_PER_SITE,
    DslashTables,
    clover_kernel,
    dslash_table_counts,
    dslash_tables,
)
from ..gpu.precision import Precision
from ..lattice.evenodd import EVEN, ODD
from ..lattice.geometry import LatticeGeometry
from .parallel_dslash import dslash_with_exchange

__all__ = ["DeviceSchurOperator", "diagonal_blocks"]


def _identity_blocks(n: int, coeff: float) -> np.ndarray:
    blocks = np.zeros((n, 2, 6, 6), dtype=np.complex128)
    blocks[:, :, np.arange(6), np.arange(6)] = coeff
    return blocks


def diagonal_blocks(
    geometry: LatticeGeometry,
    clover_blocks: np.ndarray | None,
    mass: float,
    solve_parity: int = EVEN,
) -> tuple[np.ndarray, np.ndarray]:
    """``(A'_pp, A'_qq^{-1})`` of one rank's slab, in double on the host.

    ``A' = (4 + m) + A`` on the solve parity ``p``, and the inverse on the
    other parity ``q`` (QUDA precomputes these once per configuration).
    They do not depend on the storage precision, so a mixed-precision
    solve prepares them once and uploads them to both operators
    (:meth:`DeviceSchurOperator.setup`'s ``diagonal``).
    """
    if solve_parity not in (EVEN, ODD):
        raise ValueError("solve_parity must be EVEN (0) or ODD (1)")
    coeff = 4.0 + mass
    if clover_blocks is None:
        vh = geometry.half_volume
        a_pp = _identity_blocks(vh, coeff)
        a_qq = _identity_blocks(vh, coeff)
    else:
        eye = _identity_blocks(1, coeff)[0]
        a_pp = clover_blocks[geometry.sites_of_parity[solve_parity]] + eye
        a_qq = clover_blocks[geometry.sites_of_parity[1 - solve_parity]] + eye
    return a_pp, np.linalg.inv(a_qq)


@dataclass
class DeviceSchurOperator:
    """One precision's worth of operator state on one GPU."""

    gpu: VirtualGPU
    qmp: QMPMachine | None
    geometry: LatticeGeometry
    precision: Precision
    mass: float
    overlap: bool
    gauge: DeviceGaugeField
    #: Diagonal blocks A' on the solve parity, and the inverse blocks on
    #: the opposite parity (QUDA's MATPC choice; even-even by default).
    clover_diag: DeviceCloverField
    clover_other_inv: DeviceCloverField
    #: Full index tables in functional mode; counts-only at paper scale.
    tables_even: "DslashTables | object"
    tables_odd: "DslashTables | object"
    occupancy: dict[str, float] = field(default_factory=dict)
    #: Pad fields by one spatial volume (Section V-B).  Disabled only by
    #: the partition-camping ablation; multi-GPU runs force it on (the
    #: gauge ghost lives in the pad).
    pad: bool = True
    #: Checkerboard carrying the preconditioned system (EVEN or ODD).
    solve_parity: int = EVEN

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def setup(
        cls,
        gpu: VirtualGPU,
        qmp: QMPMachine | None,
        geometry: LatticeGeometry,
        gauge_data: np.ndarray | None,
        clover_blocks: np.ndarray | None,
        mass: float,
        *,
        precision: Precision,
        compressed: bool = True,
        overlap: bool = True,
        pad: bool = True,
        occupancy: dict[str, float] | None = None,
        solve_parity: int = EVEN,
        diagonal: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "DeviceSchurOperator":
        """Upload one rank's slab of the operator to the device.

        ``gauge_data`` is the local slab ``(4, V_loc, 3, 3)`` (may be
        ``None`` in timing-only mode); ``clover_blocks`` the local clover
        term ``(V_loc, 2, 6, 6)`` or ``None`` for plain Wilson (the
        diagonal is then ``(4 + m)``, still stored as blocks).
        ``diagonal`` is :func:`diagonal_blocks` of those, when the caller
        has prepared it already for another precision.

        Performs the one-time gauge ghost exchange of Section VI-B: "Since
        the link matrices are constant throughout the execution of the
        linear solver, we transfer the adjoining link matrices in the
        program initialization."
        """
        dirs = tuple(qmp.partitioned_dirs) if qmp is not None else ()
        partitioned = bool(dirs)
        vs = geometry.spatial_volume
        vh = geometry.half_volume
        prefix = precision.name.lower()
        pad_sites = vs if (pad or partitioned) else 0

        dgauge = DeviceGaugeField(
            gpu,
            sites=geometry.volume,
            precision=precision,
            compressed=compressed,
            ghosts={mu: geometry.volume // geometry.dims[mu] for mu in dirs},
            pad_sites=pad_sites,
            label=f"gauge[{prefix}]",
        )
        # Initial upload: host -> device, once per solve context.
        gpu.memcpy(f"gauge_h2d[{prefix}]", "h2d", dgauge.nbytes)
        if gpu.execute:
            if gauge_data is None:
                raise ValueError("gauge_data required in functional mode")
            dgauge.set(gauge_data)

        # Diagonal blocks A' = (4 + m) + A and the odd-block inverse,
        # prepared in double on the host (diagonal_blocks) and stored at
        # the operator's precision.
        if solve_parity not in (EVEN, ODD):
            raise ValueError("solve_parity must be EVEN (0) or ODD (1)")
        clover_diag = DeviceCloverField(
            gpu, sites=vh, precision=precision, label=f"Adiag[{prefix}]"
        )
        clover_other_inv = DeviceCloverField(
            gpu, sites=vh, precision=precision, label=f"AotherInv[{prefix}]"
        )
        gpu.memcpy(
            f"clover_h2d[{prefix}]", "h2d", clover_diag.nbytes + clover_other_inv.nbytes
        )
        if gpu.execute:
            a_pp, a_qq_inv = (
                diagonal_blocks(geometry, clover_blocks, mass, solve_parity)
                if diagonal is None
                else diagonal
            )
            clover_diag.set(a_pp)
            clover_other_inv.set(a_qq_inv)

        op = cls(
            gpu=gpu,
            qmp=qmp,
            geometry=geometry,
            precision=precision,
            mass=mass,
            overlap=overlap,
            gauge=dgauge,
            clover_diag=clover_diag,
            clover_other_inv=clover_other_inv,
            solve_parity=solve_parity,
            # Timing-only mode never indexes sites: counts-only tables
            # avoid gigabytes of neighbor arrays at paper scale.
            tables_even=(
                dslash_tables(geometry, EVEN)
                if gpu.execute
                else dslash_table_counts(geometry, EVEN)
            ),
            tables_odd=(
                dslash_tables(geometry, ODD)
                if gpu.execute
                else dslash_table_counts(geometry, ODD)
            ),
            occupancy=occupancy or {},
            pad=pad or partitioned,
        )
        for mu in dirs:
            op._exchange_gauge_ghost(gauge_data, mu)
        return op

    def _exchange_gauge_ghost(self, gauge_data: np.ndarray | None, mu: int) -> None:
        """One-time transfer of the -mu neighbour's last U_mu slice.

        Temporal ghosts land in the pad region (Section VI-B); the extra
        ghosts of the multi-dimensional extension go to dedicated buffers.
        """
        geo = self.geometry
        nbytes = self.gauge.ghost_message_bytes(mu)
        payload = None
        if self.gpu.execute and gauge_data is not None:
            high = np.nonzero(geo.coords[:, mu] == geo.dims[mu] - 1)[0]
            payload = gauge_data[mu][high].copy()
        # The slice comes off the owning device, crosses the network, and
        # lands in this device's ghost storage.
        self.gpu.memcpy(f"gauge_ghost_d2h[{mu}]", "d2h", nbytes)
        self.qmp.send_to(+1, payload, mu=mu, nbytes=nbytes)
        ghost = self.qmp.recv_from(-1, mu=mu)
        self.gpu.memcpy(f"gauge_ghost_h2d[{mu}]", "h2d", nbytes)
        if self.gpu.execute:
            self.gauge.set_ghost(ghost, mu=mu)

    def release(self) -> None:
        """Free this operator's device storage (gauge + clover).

        Needed by the breakdown-escalation ladder: a precision escalation
        builds a fresh sloppy operator, and device memory is the paper's
        scarcest resource (Section VII-C) — the superseded one must give
        its allocation back.
        """
        self.gauge.release()
        self.clover_diag.release()
        self.clover_other_inv.release()

    # ------------------------------------------------------------------ #
    # Field factory
    # ------------------------------------------------------------------ #

    def make_spinor(self, label: str) -> DeviceSpinorField:
        """A checkerboard spinor sized/ghosted for this operator."""
        dirs = tuple(self.qmp.partitioned_dirs) if self.qmp is not None else ()
        return DeviceSpinorField(
            self.gpu,
            sites=self.geometry.half_volume,
            precision=self.precision,
            faces={mu: self.geometry.face_half_sites(mu) for mu in dirs},
            pad_sites=self.geometry.spatial_half_volume if self.pad else 0,
            label=label,
        )

    # ------------------------------------------------------------------ #
    # Matrix application
    # ------------------------------------------------------------------ #

    @property
    def flops_per_matvec(self) -> int:
        """Effective flops of one Mhat application on this rank's slab
        (the paper's convention: 3696 per full-lattice site)."""
        vh = self.geometry.half_volume
        return vh * (2 * (DSLASH_FLOPS_PER_SITE + CLOVER_FLOPS_PER_SITE) + XPAY_FLOPS_PER_SITE)

    def _dslash(
        self,
        src: DeviceSpinorField,
        dst: DeviceSpinorField,
        tables: DslashTables,
        **kwargs,
    ) -> None:
        camping = src.layout.partition_camping(self.precision, self.gpu.spec)
        dslash_with_exchange(
            self.gpu,
            self.qmp,
            tables,
            self.gauge,
            src,
            dst,
            overlap=self.overlap,
            occupancy=self.occupancy.get("dslash", 1.0),
            camping=camping,
            **kwargs,
        )

    @property
    def tables_solve(self):
        """Index tables targeting the solve parity."""
        return self.tables_even if self.solve_parity == EVEN else self.tables_odd

    @property
    def tables_other(self):
        """Index tables targeting the opposite parity."""
        return self.tables_odd if self.solve_parity == EVEN else self.tables_even

    def apply(
        self,
        src: DeviceSpinorField,
        tmp: DeviceSpinorField,
        dst: DeviceSpinorField,
        *,
        dagger: bool = False,
    ) -> None:
        """``dst = Mhat src`` (or ``Mhat^dag src``), two fused kernels.

        ``tmp`` holds the opposite-parity intermediate
        ``A'^{-1} D src``.
        """
        self._dslash(
            src, tmp, self.tables_other, dagger=dagger, clover=self.clover_other_inv
        )
        self._dslash(
            tmp,
            dst,
            self.tables_solve,
            dagger=dagger,
            clover=self.clover_diag,
            clover_target="xpay",
            xpay=(-0.25, src),
        )

    # ------------------------------------------------------------------ #
    # Even-odd source preparation / solution reconstruction (Section II)
    # ------------------------------------------------------------------ #

    def prepare_source(
        self,
        b_p: DeviceSpinorField,
        b_q: DeviceSpinorField,
        scratch: DeviceSpinorField,
        b_hat: DeviceSpinorField,
    ) -> None:
        """``b_hat = b_p + (1/2) D A'^{-1} b_q`` (distributed).

        ``b_p`` is the solve-parity checkerboard, ``b_q`` the other one
        (for the even-even default: ``b_hat = b_e + 1/2 D_eo A'^-1_oo b_o``).
        """
        clover_kernel(self.gpu, self.clover_other_inv, b_q, scratch)
        self._dslash(scratch, b_hat, self.tables_solve, xpay=(0.5, b_p))

    def reconstruct(
        self,
        x_p: DeviceSpinorField,
        b_q: DeviceSpinorField,
        scratch: DeviceSpinorField,
        x_q: DeviceSpinorField,
    ) -> None:
        """``x_q = A'^{-1} (b_q + (1/2) D x_p)`` (distributed)."""
        clover_kernel(self.gpu, self.clover_other_inv, b_q, scratch)
        self._dslash(
            x_p,
            x_q,
            self.tables_other,
            clover=self.clover_other_inv,
            xpay=(0.5, scratch),
        )
