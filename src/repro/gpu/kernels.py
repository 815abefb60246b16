"""Device kernels: the Wilson-clover dslash with ghost-zone support.

These are the virtual-GPU analogues of QUDA's CUDA kernels.  Each kernel

1. performs the real arithmetic on the device fields' working arrays
   (skipped in timing-only mode), and
2. reports its exact memory traffic and flop count to the GPU timeline,
   which converts them to model time via the bandwidth roofline.

Traffic/flop accounting is derived from first principles and reproduces
the paper's quoted arithmetic intensity exactly: with 2-row gauge
compression (12 reals/link), full spinor loads for the six spatial
neighbors (24 reals), half-spinor loads for the two temporal neighbors
(12 reals — the non-relativistic basis trick of Section V-C2), a fused
clover multiply (72 reals) and a fused accumulate, the two kernels of one
even-odd preconditioned matrix application move 744 reals (= 2976 bytes
single precision) and execute 3696 flops per site — the numbers of
Section V-A.

Kernel regions implement the overlap strategy of Section VI-D: the
*interior* region touches no ghost data and can run while faces are in
flight; the *boundary* region (the local boundary slices of every
partitioned direction) reads the spinor end zone and the gauge ghosts.
The split is a fact of the GPU timeline, and the model clock charges it
launch by launch (:func:`region_rows` counts each region's sites); the
host arithmetic does not follow it.  :func:`dslash_kernel` computes the
whole parity on every call, and its ``region`` names only the launch it
charges: ``"full"``, or ``"boundary"`` once the ghosts have landed.  The
overlapped exchange charges its interior kernel with
:func:`dslash_launch` alone.

**Multi-dimensional decomposition** (Section VI-A future work): the
kernel accepts any subset of the partitionable directions {Z, T} via the
``partitioned`` argument — ``(3,)`` is the paper's temporal-only
slicing.  Each partitioned direction contributes its own pair of ghost
faces; the Wilson stencil is strictly nearest-neighbor per direction, so
no corner exchanges are needed.

**Data flow of one application.**  The functional body rests on the same
three facts as the CUDA kernel.  The spin projector has rank 2, so each
of the eight hops is projected to a half spinor *first* and the link
multiplies 2 x 3, not 4 x 3 (Sections V-C2 / VI-C — the trick that also
halves the face traffic).  Fields are traversed with the site index
fastest (eqs. (4)-(5)): every work array has the sites as its last axis,
in the *checkerboard order* of the stores, so the body reads
the link table, the neighbour columns of a :class:`HopPlan`, the clover
store, the xpay operand and the destination as slices — no row gather,
no row scatter — and each arithmetic step is one vectorised call over
the site axis.  And "the link matrices are constant throughout the
execution of the linear solver" (Section VI-B): links are read from a
table each gauge field holds
(:meth:`~repro.gpu.fields.DeviceGaugeField.derived`) — decoded,
reconstructed, phases folded in, every link once — not re-derived per
call, and a half-precision clover field keeps its blocks decoded from one
upload to the next (:meth:`~repro.gpu.fields.DeviceCloverField.blocks`).
Spinor bodies change on every application, so those are decoded from
their stores on each call.  Every body covers the whole parity.

**Arithmetic.**  A hop is evaluated in double precision from the stored
values and rounded to the field's compute precision once, as it is added
to the accumulator; the fused epilogue runs in the field's precision.
That is the rounding sequence the kernel has always had for local hops
(its earlier einsum form promoted them to complex128 through the float64
boundary phase), and the functional solves are pinned to it: a
half-precision solve is chaotic in its int16 stores, so a formulation
that rounds differently — the same steps in complex64 take half the time
per hop — changes iteration, reliable-update and message counts from the
first applications on.  For the same reason a half spinor read from the
end zone is multiplied in the field's own precision by one batched
``matmul`` over the face, the call the einsum form made.  The test oracle
(``tests/gpu/_reference_dslash.py``) is that einsum form; single and half
precision agree with it bit for bit.

The spin projection and reconstruction are selections and scaled adds,
not matrix products: each row of a hop's ``Q`` has at most two nonzero
coefficients and each row of its ``R`` one.  In the DeGrand-Rossi basis
every coefficient is 1, -1, i or -i, so a selection (a copy, a negation,
a swap of real and imaginary parts) forms exactly the product a GEMM
would, and the sums run in the same order.  Any other coefficient (the
non-relativistic basis has some one ulp off 1) is multiplied out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..lattice import gamma as _gamma
from ..lattice.geometry import LatticeGeometry, NDIM, T_DIR
from .device import VirtualGPU
from .fields import (
    BACKWARD,
    FORWARD,
    DeviceCloverField,
    DeviceGaugeField,
    DeviceSpinorField,
    HALF_SPINOR_REALS,
)
from .precision import Precision

__all__ = [
    "DslashTables",
    "DslashTableCounts",
    "FaceTables",
    "dslash_tables",
    "dslash_table_counts",
    "region_rows",
    "dslash_launch",
    "dslash_kernel",
    "clover_kernel",
    "gather_face_kernel",
    "project_face",
    "normalize_partitioned",
    "DSLASH_FLOPS_PER_SITE",
    "CLOVER_FLOPS_PER_SITE",
    "XPAY_FLOPS_PER_SITE",
    "dslash_site_bytes",
]

#: Standard LQCD operation counts per processed site (QUDA conventions;
#: these are the counts behind the paper's "effective Gflops").
DSLASH_FLOPS_PER_SITE = 1320
CLOVER_FLOPS_PER_SITE = 504
XPAY_FLOPS_PER_SITE = 48

REGIONS = ("full", "interior", "boundary")

#: Directions this implementation can partition (Z and T; the paper's
#: asymmetric production lattices make X/Y splits pointless).
PARTITIONABLE = (2, 3)


def normalize_partitioned(partitioned) -> tuple[int, ...]:
    """The partitioned directions, sorted, deduplicated and checked."""
    dirs = tuple(sorted(set(int(m) for m in partitioned)))
    for mu in dirs:
        if mu not in PARTITIONABLE:
            raise ValueError(
                f"direction {mu} cannot be partitioned (supported: "
                f"{PARTITIONABLE})"
            )
    return dirs


@dataclass(frozen=True)
class FaceTables:
    """Boundary bookkeeping for one partitioned direction."""

    mu: int
    #: Masks over the target checkerboard rows: on the low (coord == 0)
    #: or high (coord == dims[mu]-1) boundary slice.
    on_low: np.ndarray
    on_high: np.ndarray
    #: Source-parity cb indices of the low/high face slices, lex order —
    #: what the sender packs for its -mu / +mu neighbor.
    gather_low: np.ndarray
    gather_high: np.ndarray
    #: For each low boundary *target*, in cb order, the position of its
    #: site within the slice's lex enumeration — the index into the gauge
    #: ghost slice (which carries both parities; only a backward hop reads
    #: a neighbour's link).
    gauge_pos_low: np.ndarray


@dataclass(frozen=True)
class GhostHop:
    """One hop of a partitioned direction that reads a ghost face."""

    #: ``2 * mu`` for the forward gather (reads the FORWARD end zone),
    #: ``2 * mu + 1`` for the backward one (reads the BACKWARD end zone).
    hop: int
    #: The target rows (cb indices, ascending) on this face.  The ghost
    #: face is ordered by the boundary slice's lex enumeration, so the
    #: k-th of them pairs with the k-th ghost entry (the ordering argument
    #: of Fig. 3, per direction).
    cols: np.ndarray

    @property
    def mu(self) -> int:
        return self.hop // 2

    @property
    def direction(self) -> str:
        return BACKWARD if self.hop % 2 else FORWARD


@dataclass(frozen=True)
class HopPlan:
    """Where each hop reads, for one (tables, partitioned dirs) pair.

    Column ``j`` is target row ``j``: targets are taken in checkerboard
    order, the order of every store, so the body (always the whole
    parity) reads each table, and each field, as a slice.  Indices only:
    safe to share between ranks.

    The link table the gauge field holds (:func:`_hop_links`) has one
    column per lattice site: the even sites in cb order, then the odd
    sites.  A forward hop multiplies by the link *at* the target, the
    span from :attr:`link_base`; a backward hop by the adjoint of the
    link at ``x - mu``, a site of the other parity, found through
    :attr:`bwd_link` — so every link is tabulated once, not once per
    orientation.
    """

    #: ``(8, Vh)`` source-parity cb index of hop ``k``'s neighbour of
    #: target ``j``.  A ghost target keeps its periodic-wrap neighbour so
    #: that every index is valid; the kernel overwrites those columns
    #: from the end zone.
    nbr: np.ndarray
    #: Link-table column of the first target (``target_parity * Vh``).
    link_base: int
    #: ``(4, Vh)`` link-table column of ``j - mu``:
    #: ``(1 - target_parity) * Vh + nbr_bwd``.
    bwd_link: np.ndarray
    #: Per direction: ``None``, or ``(Vh,)`` signs where the boundary phase
    #: of the backward hop differs from the one folded into the link it
    #: borrows (a sub-lattice wrapped onto itself; never in a solve).
    bwd_sign: tuple
    ghosts: tuple[GhostHop, ...]


@dataclass(frozen=True)
class DslashTables:
    """Precomputed index tables for one (geometry, target parity) pair.

    The CUDA kernels derive all of this from the thread index with integer
    arithmetic against constants in the constant cache (Section V-A); we
    precompute it once per geometry, which is the same cost amortization.
    """

    geometry: LatticeGeometry
    target_parity: int
    # Full-lattice indices of the target-parity sites, cb order.
    tgt_sites: np.ndarray
    # (4, Vh) neighbor cb indices into the source parity.
    nbr_fwd: np.ndarray
    nbr_bwd: np.ndarray
    # Per-direction face tables for the partitionable directions.
    faces: dict[int, FaceTables] = field(repr=False)
    _plan_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_sites(self) -> int:
        return self.tgt_sites.size

    # Read when a link table is built, not per application: gathered from
    # the geometry on demand rather than held.

    @property
    def ph_fwd(self) -> np.ndarray:
        """``(4, Vh)`` boundary phases of the forward hops at the targets."""
        return self.geometry.boundary_phase_fwd[:, self.tgt_sites]

    @property
    def ph_bwd(self) -> np.ndarray:
        """``(4, Vh)`` boundary phases of the backward hops at the targets."""
        return self.geometry.boundary_phase_bwd[:, self.tgt_sites]

    @property
    def bwd_sites(self) -> np.ndarray:
        """``(4, Vh)`` full-lattice indices of ``x - mu_hat``."""
        return self.geometry.neighbor_bwd[:, self.tgt_sites]

    def face(self, mu: int) -> FaceTables:
        try:
            return self.faces[mu]
        except KeyError:
            raise ValueError(
                f"direction {mu} cannot be partitioned (supported: "
                f"{PARTITIONABLE})"
            ) from None

    def hop_plan(self, dirs: tuple[int, ...]) -> HopPlan:
        """The gather plan for ``dirs`` (built once, indices only)."""
        if dirs not in self._plan_cache:
            self._plan_cache[dirs] = self._build_hop_plan(dirs)
        return self._plan_cache[dirs]

    def _build_hop_plan(self, dirs: tuple[int, ...]) -> HopPlan:
        vh = self.n_sites
        ghosts = []
        for mu in dirs:
            f = self.face(mu)
            for step, mask in ((0, f.on_high), (1, f.on_low)):
                ghosts.append(GhostHop(2 * mu + step, np.nonzero(mask)[0]))
        # x - mu sits at cb index nbr_bwd of the other parity, which is
        # the other half of the link table.
        other = dslash_tables(self.geometry, 1 - self.target_parity)
        borrowed = other.ph_fwd[np.arange(NDIM)[:, None], self.nbr_bwd]
        sign = borrowed * self.ph_bwd
        for g in ghosts:
            if g.direction == BACKWARD:
                sign[g.mu, g.cols] = 1.0  # those columns read the ghost link
        return HopPlan(
            nbr=np.stack(
                [nbr[mu] for mu in range(NDIM) for nbr in (self.nbr_fwd, self.nbr_bwd)]
            ).astype(np.int32),
            link_base=self.target_parity * vh,
            bwd_link=((1 - self.target_parity) * vh + self.nbr_bwd).astype(np.int32),
            bwd_sign=tuple(None if np.all(s == 1.0) else s.copy() for s in sign),
            ghosts=tuple(ghosts),
        )


@dataclass(frozen=True)
class DslashTableCounts:
    """Counts-only drop-in for :class:`DslashTables` (timing-only mode).

    Paper-scale lattices (32^3 x 256 over 32 ranks) would need gigabytes
    of int64 index tables; the timing model only ever consumes row
    *counts*, which are pure arithmetic on the geometry
    (:func:`region_rows`).
    """

    geometry: LatticeGeometry
    target_parity: int
    n_sites: int


@lru_cache(maxsize=256)
def region_rows(geometry: LatticeGeometry, region: str, dirs: tuple[int, ...]) -> int:
    """Target rows of one parity in a kernel ``region``, given the
    normalized partitioned directions ``dirs``.

    The interior is the sites off the boundary slices of every direction
    in ``dirs`` (all of them when ``dirs`` is empty), the boundary the
    rest.  Every extent is even, so the interior box splits between the
    parities exactly in half and the count is arithmetic on the geometry:
    no index table is read, which is what lets a timing-only run charge
    a paper-scale lattice.
    """
    if region not in REGIONS:
        raise ValueError(f"unknown region {region!r}; expected one of {REGIONS}")
    vh = geometry.half_volume
    if region == "full":
        return vh
    interior = geometry.volume
    for mu in dirs:
        d = geometry.dims[mu]
        interior = interior // d * (d - 2)
    interior //= 2
    return interior if region == "interior" else vh - interior


@lru_cache(maxsize=64)
def dslash_table_counts(
    geometry: LatticeGeometry, target_parity: int
) -> DslashTableCounts:
    """Counts-only tables (see :class:`DslashTableCounts`)."""
    return DslashTableCounts(
        geometry=geometry,
        target_parity=target_parity,
        n_sites=geometry.half_volume,
    )


def _face_tables(geometry: LatticeGeometry, target_parity: int, mu: int) -> FaceTables:
    tgt_sites = geometry.sites_of_parity[target_parity]
    coord = geometry.coords[tgt_sites, mu]
    on_low = coord == 0
    on_high = coord == geometry.dims[mu] - 1
    source_parity = 1 - target_parity
    # Position within the low boundary slice (both parities), lex order:
    # the lex index with the mu coordinate dropped.
    c = geometry.coords[tgt_sites[on_low]]
    gauge_pos_low = np.zeros(c.shape[0], dtype=np.int64)
    stride = 1
    for nu in range(NDIM):
        if nu != mu:
            gauge_pos_low += c[:, nu] * stride
            stride *= geometry.dims[nu]

    return FaceTables(
        mu=mu,
        on_low=on_low,
        on_high=on_high,
        gather_low=geometry.boundary_sites_of_parity(mu, -1, source_parity),
        gather_high=geometry.boundary_sites_of_parity(mu, +1, source_parity),
        gauge_pos_low=gauge_pos_low,
    )


@lru_cache(maxsize=64)
def dslash_tables(geometry: LatticeGeometry, target_parity: int) -> DslashTables:
    """Build (and cache) the index tables for one kernel configuration."""
    if target_parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    tgt_sites = geometry.sites_of_parity[target_parity]
    return DslashTables(
        geometry=geometry,
        target_parity=target_parity,
        tgt_sites=tgt_sites,
        nbr_fwd=geometry.eo_neighbor_fwd[target_parity],
        nbr_bwd=geometry.eo_neighbor_bwd[target_parity],
        faces={
            mu: _face_tables(geometry, target_parity, mu) for mu in PARTITIONABLE
        },
    )


# ---------------------------------------------------------------------- #
# Traffic accounting
# ---------------------------------------------------------------------- #


def dslash_site_bytes(
    spinor_precision: Precision,
    gauge: DeviceGaugeField,
    *,
    fused_clover: bool,
    fused_xpay: bool,
) -> int:
    """Device-memory bytes per processed site for the fused dslash kernel.

    Derivation (single precision, compressed gauge, clover + xpay fused):
    8x12 (links) + 6x24 + 2x12 (spinors; temporal reads are half spinors
    in the non-relativistic basis) + 72 (clover) + 24 (accumulate read)
    + 24 (write) = 384 reals = 1536 bytes; together with the companion
    clover-inverse dslash kernel (360 reals) an even-odd matrix
    application moves the paper's 744 reals = 2976 bytes per site.
    """
    rb = spinor_precision.real_bytes
    reals = 6 * 24 + 2 * HALF_SPINOR_REALS + 24  # neighbor loads + write
    if fused_clover:
        reals += 72
    if fused_xpay:
        reals += 24
    nbytes = reals * rb + 8 * gauge.matvec_link_bytes()
    if spinor_precision.needs_norm:
        # float32 norms: 8 neighbor reads + write (+ clover / xpay reads).
        norm_reads = 8 + 1 + (1 if fused_clover else 0) + (1 if fused_xpay else 0)
        nbytes += 4 * norm_reads
    return nbytes


def _dslash_flops(*, fused_clover: bool, fused_xpay: bool) -> int:
    flops = DSLASH_FLOPS_PER_SITE
    if fused_clover:
        flops += CLOVER_FLOPS_PER_SITE
    if fused_xpay:
        flops += XPAY_FLOPS_PER_SITE
    return flops


# ---------------------------------------------------------------------- #
# Face gather (sender side)
# ---------------------------------------------------------------------- #


def project_face(
    tables: DslashTables,
    src: DeviceSpinorField,
    direction: str,
    *,
    mu: int = T_DIR,
    dagger: bool = False,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Pure numerics of the face projection (no timeline charge).

    In the non-relativistic basis the *temporal* projection is a component
    selection (the face blocks are contiguous within each layout block,
    Fig. 2/3), so the paper's code extracts temporal faces with plain
    cudaMemcpy calls and no gather kernel; non-temporal faces of the
    multi-dimensional extension are strided and need a pack kernel, which
    the exchange code charges separately.  Returns ``(None, None)`` in
    timing-only mode.
    """
    f = tables.face(mu) if src.gpu.execute else None
    if direction == BACKWARD:
        sign = -1
        rows = f.gather_low if f is not None else None
    elif direction == FORWARD:
        sign = +1
        rows = f.gather_high if f is not None else None
    else:
        raise ValueError(f"unknown face direction {direction!r}")
    if dagger:
        sign = -sign
    if not src.gpu.execute:
        return None, None
    q, _ = _gamma.projector_decomposition(mu, sign, src.basis)
    cdtype = src.precision.complex_compute_dtype
    halves = np.einsum("ht,xta->xha", q.astype(cdtype), src.working(rows))
    norms = None
    if src.precision.needs_norm:
        flat_abs = np.maximum(np.abs(halves.real), np.abs(halves.imag))
        norms = flat_abs.reshape(rows.size, -1).max(axis=1).astype(np.float32)
    return halves, norms


def gather_face_kernel(
    gpu: VirtualGPU,
    tables: DslashTables,
    src: DeviceSpinorField,
    direction: str,
    *,
    mu: int = T_DIR,
    dagger: bool = False,
    stream: int = 0,
    occupancy: float = 1.0,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Project and pack one face of ``src`` for transfer (Section VI-C).

    ``direction=BACKWARD`` packs the local low slice, projected with
    ``Q(-mu)`` — destined for the -mu neighbor, which will use it in its
    *forward* gather ``P(-mu) U psi``.  ``direction=FORWARD`` packs the
    high slice with ``Q(+mu)``.  A dagger dslash swaps the signs.

    Returns ``(halves, norms)``: complex half-spinors ``(faces, 2, 3)``
    and, for half-precision fields, their per-site norms (``None``
    otherwise; both ``None`` in timing-only mode).
    """
    if direction not in (BACKWARD, FORWARD):
        raise ValueError(f"unknown face direction {direction!r}")
    n_face = src.faces.get(mu, 0)
    # Traffic: read full spinors of the face, write projected halves.
    rb = src.precision.real_bytes
    nbytes = n_face * ((24 + HALF_SPINOR_REALS) * rb)
    if src.precision.needs_norm:
        nbytes += n_face * 8  # read + write norms
    # Spin projection arithmetic is ~free in the NR basis; count the
    # general 12-real projection (2 flops per output real).
    flops = n_face * 2 * HALF_SPINOR_REALS
    gpu.launch(
        f"gather_face[{mu}][{direction}]",
        src.precision,
        bytes_moved=nbytes,
        flops=flops,
        stream=stream,
        occupancy=occupancy,
    )
    return project_face(tables, src, direction, mu=mu, dagger=dagger)


# ---------------------------------------------------------------------- #
# The dslash kernel
# ---------------------------------------------------------------------- #


def dslash_launch(
    gpu: VirtualGPU,
    tables: DslashTables,
    gauge: DeviceGaugeField,
    src: DeviceSpinorField,
    *,
    region: str = "full",
    partitioned=(),
    clover: DeviceCloverField | None = None,
    clover_target: str = "result",
    xpay: tuple[complex, DeviceSpinorField] | None = None,
    stream: int = 0,
    occupancy: float = 1.0,
    camping: bool = False,
) -> tuple[int, ...]:
    """Charge one dslash kernel of ``region`` to the model clock.

    The timeline half of :func:`dslash_kernel`: the region's traffic and
    flops, with the same arguments.  Nothing is computed; the overlapped
    exchange charges its interior kernel with this alone (module
    docstring).  Returns the normalized partitioned directions.
    """
    if clover_target not in ("result", "xpay"):
        raise ValueError(f"bad clover_target {clover_target!r}")
    if clover_target == "xpay" and (clover is None or xpay is None):
        raise ValueError("clover_target='xpay' requires both clover and xpay")
    dirs = normalize_partitioned(partitioned)
    rows = region_rows(tables.geometry, region, dirs)
    nbytes = rows * dslash_site_bytes(
        src.precision, gauge, fused_clover=clover is not None, fused_xpay=xpay is not None
    )
    flops = rows * _dslash_flops(
        fused_clover=clover is not None, fused_xpay=xpay is not None
    )
    gpu.launch(
        f"dslash[{region}]",
        src.precision,
        bytes_moved=nbytes,
        flops=flops,
        stream=stream,
        occupancy=occupancy,
        camping=camping,
    )
    return dirs


def dslash_kernel(
    gpu: VirtualGPU,
    tables: DslashTables,
    gauge: DeviceGaugeField,
    src: DeviceSpinorField,
    dst: DeviceSpinorField,
    *,
    region: str = "full",
    partitioned=(),
    dagger: bool = False,
    clover: DeviceCloverField | None = None,
    clover_target: str = "result",
    xpay: tuple[complex, DeviceSpinorField] | None = None,
    stream: int = 0,
    occupancy: float = 1.0,
    camping: bool = False,
) -> None:
    """Apply the hopping term to ``src`` and write ``dst`` (one parity).

    The two fusion patterns of QUDA's even-odd operator are supported:

    * ``clover_target="result"`` (inner kernel):
      ``dst = x? + a? * ( A @ (D src) )`` — pass ``A'^{-1}_oo`` to build
      the odd temporary of the preconditioned matrix.
    * ``clover_target="xpay"`` (outer kernel, requires ``xpay=(a, x)``):
      ``dst = A @ x + a * (D src)`` — pass ``A'_ee`` and ``a = -1/4`` to
      finish ``Mhat psi = A'_e psi - (1/4) D_eo A'^{-1}_oo D_oe psi``.

    ``partitioned`` selects the decomposed directions: ``(3,)`` is the
    paper's temporal-only slicing; ``(2, 3)`` activates the
    multi-dimensional extension.  Ghost data is read from ``src``'s end
    zone (the transferred field is the dslash *source*) and the gauge
    ghost slices.  Every call computes the whole parity; ``region`` names
    the launch it charges — ``"full"``, or ``"boundary"``, the overlapped
    exchange's kernel after the ghosts land, whose interior kernel is
    charged by :func:`dslash_launch` alone (Section VI-D2).
    """
    if region == "interior":
        raise ValueError(
            "dslash_kernel computes the whole parity; charge the interior "
            "kernel with dslash_launch"
        )
    dirs = dslash_launch(
        gpu, tables, gauge, src, region=region, partitioned=partitioned,
        clover=clover, clover_target=clover_target, xpay=xpay,
        stream=stream, occupancy=occupancy, camping=camping,
    )
    if gpu.execute:
        _dslash_body(
            tables, gauge, src, dst, dirs,
            dagger=dagger, clover=clover, clover_target=clover_target, xpay=xpay,
        )


def _dslash_body(
    tables: DslashTables,
    gauge: DeviceGaugeField,
    src: DeviceSpinorField,
    dst: DeviceSpinorField,
    dirs: tuple[int, ...],
    *,
    dagger: bool,
    clover: DeviceCloverField | None,
    clover_target: str,
    xpay: tuple[complex, DeviceSpinorField] | None,
) -> None:
    """The arithmetic of :func:`dslash_kernel`: project, multiply,
    reconstruct, then the fused epilogue, over the whole parity.

    Site index last on every array, targets in cb order, every table and
    field read as a slice; a hop is evaluated in double and rounded to the
    field's precision as it is accumulated (module docstring, "Data flow"
    and "Arithmetic").
    """
    cdtype = src.precision.complex_compute_dtype
    plan = tables.hop_plan(dirs)
    n = tables.n_sites
    at_target = slice(plan.link_base, plan.link_base + n)
    links = gauge.derived(
        ("hop_links", tables.geometry), lambda: _hop_links(tables.geometry, gauge)
    )
    spin = _hop_spin(src.basis, dagger)
    if plan.ghosts:
        ghost_links = gauge.derived(
            ("ghost_links", tables.geometry, tables.target_parity, dirs),
            lambda: _ghost_links(tables, gauge, dirs),
        )

    source = np.ascontiguousarray(src.working().reshape(src.sites, 12).T)
    acc = np.empty((4, 3, n), dtype=cdtype)
    # An Inf in the source makes Inf - Inf here: the NaN it leaves is the
    # solver's to report, as a structured non-finite breakdown.
    with np.errstate(invalid="ignore"):
        for k in range(2 * NDIM):
            mu, backward = divmod(k, 2)
            # The link of the hop as u[b, a]: U_mu(x) forward, the adjoint
            # of U_mu(x - mu) backward (the conjugate, indices as stored).
            if backward:
                u = np.take(
                    links[mu].reshape(9, -1), plan.bwd_link[mu], axis=1, mode="clip"
                ).reshape(3, 3, n)
                np.conjugate(u, out=u)
                if plan.bwd_sign[mu] is not None:
                    u *= plan.bwd_sign[mu].astype(u.real.dtype)
            else:
                u = links[mu][:, :, at_target].transpose(1, 0, 2)
            # Half spinor Q psi(x +/- mu) of every target: 2 x 3 a site.
            psi = np.take(source, plan.nbr[k], axis=1, mode="clip").reshape(4, 3, n)
            q_rows, r_rows = spin[k]
            half = np.empty((2, 3, n), dtype=np.complex128)
            for h, ((t, coeff), *rest) in enumerate(q_rows):
                _scaled(half[h], coeff, psi[t], add=False)
                for t, coeff in rest:
                    _scaled(half[h], coeff, psi[t], add=True)
            # U (2 x 3): three multiply-adds over the site axis.
            u_half = u[0] * half[:, 0, None]
            u_half += u[1] * half[:, 1, None]
            u_half += u[2] * half[:, 2, None]
            for g in plan.ghosts:
                if g.hop == k:
                    # A target on the face reads the end zone instead, whose
                    # half spinors arrived projected (Section VI-C), and going
                    # backward the neighbouring rank's link (Section VI-B).
                    face = src.get_ghost(g.direction, mu=g.mu)
                    u_cols = ghost_links[k] if backward else u[:, :, g.cols]
                    u_t = np.ascontiguousarray(u_cols.transpose(2, 0, 1))
                    u_half[:, :, g.cols] = np.matmul(face, u_t).transpose(1, 2, 0)
            # Reconstruct R (U Q psi) straight into the accumulator.
            for row, term in enumerate(r_rows):
                if term is not None:
                    _scaled(acc[row], term[1], u_half[term[0]], add=k > 0)
                elif k == 0:
                    acc[row] = 0

    # Back to one spinor per row for the epilogue and the store.
    out = np.ascontiguousarray(acc.reshape(12, n).T).reshape(n, 4, 3)

    # ----- fused epilogue: clover multiply and accumulate ---------------- #
    if clover is not None and clover_target == "result":
        out = clover.apply(out)
    if xpay is not None:
        coeff, x_field = xpay
        x = x_field.working()
        if clover is not None and clover_target == "xpay":
            x = clover.apply(x)
        out = x + np.asarray(coeff, dtype=cdtype) * out
    dst.set(out)


def _scaled(out: np.ndarray, coeff: complex, x: np.ndarray, *, add: bool) -> None:
    """``out (+)= coeff * x``, with ``coeff`` 1, -1, i or -i a selection.

    A spin-projector coefficient of the DeGrand-Rossi basis is one of
    those four; multiplying by it is exact, so the selection gives what a
    GEMM's complex product gives.  The result is formed at ``x``'s
    precision and rounded to ``out``'s once.  Any other coefficient (a
    rotated basis) is multiplied out.
    """
    if coeff == 1:
        if add:
            np.add(out, x, out=out)
        else:
            out[...] = x
    elif coeff == -1:
        if add:
            np.subtract(out, x, out=out)
        else:
            np.negative(x, out=out)
    elif coeff == 1j:  # i (a + ib) = -b + ia
        if add:
            np.subtract(out.real, x.imag, out=out.real)
            np.add(out.imag, x.real, out=out.imag)
        else:
            np.negative(x.imag, out=out.real)
            out.imag[...] = x.real
    elif coeff == -1j:  # -i (a + ib) = b - ia
        if add:
            np.add(out.real, x.imag, out=out.real)
            np.subtract(out.imag, x.real, out=out.imag)
        else:
            out.real[...] = x.imag
            np.negative(x.real, out=out.imag)
    elif add:
        np.add(out, coeff * x, out=out)
    else:
        np.multiply(x, coeff, out=out)


@lru_cache(maxsize=None)
def _hop_spin(basis: str, dagger: bool) -> tuple:
    """The spin factors of all eight hops, as their nonzero terms.

    Hop ``2 * mu`` gathers from ``x + mu`` through ``P(-mu)``, hop
    ``2 * mu + 1`` from ``x - mu`` through ``P(+mu)``; a dagger swaps the
    signs.  ``P = R @ Q`` is the rank-2 factorization the face exchange
    already relies on (Section VI-C).  Per hop, ``(q_rows, r_rows)``: for
    each of Q's two rows its ``(spin, coefficient)`` terms (at most two),
    and for each of R's four rows its one ``(half-spin row, coefficient)``
    term or ``None`` — a projection is selections and scaled adds, not a
    matrix product.
    """
    sgn = -1 if dagger else +1
    hops = []
    for mu in range(NDIM):
        for sign in (-sgn, +sgn):
            q, r = _gamma.projector_decomposition(mu, sign, basis)
            q_rows = tuple(
                tuple((int(t), complex(row[t])) for t in np.flatnonzero(row))
                for row in q
            )
            r_rows = []
            for row in r:
                (nz,) = np.nonzero(row)
                if nz.size > 1:
                    raise ValueError(f"R of hop {len(hops)} mixes half spins")
                r_rows.append(
                    (int(nz[0]), complex(row[nz[0]])) if nz.size else None
                )
            hops.append((q_rows, tuple(r_rows)))
    return tuple(hops)


def _hop_links(geometry: LatticeGeometry, gauge: DeviceGaugeField) -> np.ndarray:
    """The ``(4, 3, 3, V)`` link table behind every application.

    ``[mu, :, :, c]`` is ``U_mu`` at the site of column ``c`` — the even
    sites in cb order, then the odd sites (see :class:`HopPlan`) —
    decoded, reconstructed, multiplied by the boundary phase of the
    forward hop out of that site, site index fastest.
    """
    links = np.empty(
        (NDIM, 3, 3, geometry.volume), dtype=gauge.precision.complex_compute_dtype
    )
    sites = np.concatenate(geometry.sites_of_parity)
    phase = geometry.boundary_phase_fwd[:, sites].astype(links.real.dtype)
    for mu in range(NDIM):
        u_mu = gauge.links(mu)[sites]
        links[mu] = (u_mu * phase[mu][:, None, None]).transpose(1, 2, 0)
    return links


def _ghost_links(
    tables: DslashTables, gauge: DeviceGaugeField, dirs: tuple[int, ...]
) -> dict[int, np.ndarray]:
    """Backward links of the low-face targets, per ghost hop.

    ``[hop]`` is ``(3, 3, face)``: the conjugate of the neighbouring
    rank's ``U_mu`` (from the gauge ghost slice, Section VI-B) times the
    boundary phase of the hop, one column per face target in ghost order
    of the hop plan — what the local table would hold as ``u[b, a]`` if
    the link were local.
    """
    plan = tables.hop_plan(dirs)
    out = {}
    for g in plan.ghosts:
        if g.direction == BACKWARD:
            ghost = gauge.ghost_links(g.mu)[tables.face(g.mu).gauge_pos_low]
            phase = tables.ph_bwd[g.mu][g.cols].astype(ghost.real.dtype)
            out[g.hop] = (np.conj(ghost) * phase[:, None, None]).transpose(1, 2, 0)
    return out


def clover_kernel(
    gpu: VirtualGPU,
    clover: DeviceCloverField,
    src: DeviceSpinorField,
    dst: DeviceSpinorField,
) -> None:
    """Standalone sitewise clover multiply: ``dst = A src``."""
    rb = src.precision.real_bytes
    nbytes = src.sites * ((24 + 24) * rb) + src.sites * clover.site_bytes()
    if src.precision.needs_norm:
        nbytes += src.sites * 8
    gpu.launch(
        "clover",
        src.precision,
        bytes_moved=nbytes,
        flops=src.sites * CLOVER_FLOPS_PER_SITE,
    )
    if gpu.execute:
        dst.set(clover.apply(src.working()))
