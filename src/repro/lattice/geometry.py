"""4-dimensional lattice geometry, site indexing, and neighbor tables.

The conventions follow the QUDA / Chroma ecosystem described in the paper:

* The lattice has dimensions ``(X, Y, Z, T)``.  The lexicographic site index
  runs with ``x`` fastest and ``t`` slowest,

      ``i = x + X * (y + Y * (z + Z * t))``

  so that a *timeslice* (all sites with a given ``t``) is a contiguous range
  of ``Vs = X*Y*Z`` sites.  This is exactly the property the paper exploits
  when partitioning the time dimension across GPUs (Section VI-A) and when
  hiding the gauge-field ghost zone in the pad region (Section VI-B).

* Sites are colored *even*/*odd* (red-black) by the parity of
  ``x + y + z + t`` (Section II, Fig. 1).  Within each parity, sites keep
  their relative lexicographic order; this "checkerboard index" is what the
  even-odd preconditioned operator uses.

* One decomposition serves every rank count: :meth:`LatticeGeometry.slice_grid`
  splits Z and T over a ``(ranks_z, ranks_t)`` process grid.  The paper's
  time slicing is the ``(1, N)`` grid — its slabs are contiguous site
  ranges — and :func:`grid_error` is the one rule for which grids a
  lattice admits.

* Fermion fields are periodic in the three spatial directions and
  antiperiodic in time (the standard thermal boundary condition).  The
  geometry exposes per-direction boundary *phase* tables so the Dirac
  operator can stay branch-free and fully vectorized.

All tables are plain ``numpy`` integer / float arrays so that the reference
operator and the virtual-GPU kernels can use fancy indexing, mirroring how
the CUDA kernels compute neighbor offsets from the thread index via integer
division and modular arithmetic (Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "NDIM",
    "LatticeGeometry",
    "GridSlicing",
    "check_dims",
    "grid_error",
]

#: Number of spacetime dimensions.  The library is written for 4-D lattices
#: throughout (the Wilson-clover operator of eq. (2) is defined in 4-D).
NDIM = 4

#: Direction indices, in the order used everywhere in this package.
X_DIR, Y_DIR, Z_DIR, T_DIR = 0, 1, 2, 3


def grid_error(
    dims: tuple[int, int, int, int], ranks_z: int, ranks_t: int
) -> str | None:
    """Why ``dims`` cannot be split over a ``ranks_z x ranks_t`` grid, or
    ``None`` when it can.

    The package's one divisibility rule: each split extent divides evenly
    and, once split, stays even for even-odd preconditioning.
    :meth:`LatticeGeometry.slice_grid`, the recovery supervisor's
    shrink (``feasible_rank_count``) and the placement layer's
    ``GridSelector`` all ask it.
    """
    for name, extent, ranks in (
        ("Z", dims[Z_DIR], ranks_z),
        ("T", dims[T_DIR], ranks_t),
    ):
        if ranks < 1 or extent % ranks:
            return f"{name}={extent} not divisible by {ranks} ranks"
        local = extent // ranks
        if ranks > 1 and local % 2:
            return (
                f"local {name} extent {local} must be even for even-odd "
                f"preconditioning ({name}={extent}, ranks {ranks})"
            )
    return None


def check_dims(dims: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """``dims`` as four ints, or a ``ValueError`` naming the rule they
    break: four extents, each even and at least 2."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != NDIM:
        raise ValueError(f"expected {NDIM} lattice dimensions, got {dims!r}")
    if any(d < 2 for d in dims):
        raise ValueError(f"every lattice dimension must be >= 2, got {dims!r}")
    if any(d % 2 for d in dims):
        # Even-odd preconditioning (and the eo site ordering) requires an
        # even number of sites in each direction; all production lattices
        # satisfy this (the paper uses 24^3x128 and 32^3x256).
        raise ValueError(f"every lattice dimension must be even, got {dims!r}")
    return dims


@dataclass(frozen=True)
class LatticeGeometry:
    """Geometry of a 4-D lattice (possibly one rank's sublattice of a
    :meth:`slice_grid` decomposition).

    Parameters
    ----------
    dims:
        Lattice dimensions ``(X, Y, Z, T)``.
    antiperiodic_t:
        Apply a sign flip to fermion fields crossing the *global* temporal
        boundary (the usual choice in LQCD and the one used by the paper's
        Wilson-clover parameters).
    t_offset:
        Global ``t`` coordinate of this lattice's first timeslice.  For a
        monolithic lattice this is 0; for a time-sliced sublattice living on
        one rank it is the start of the local time extent.  Site parity is
        always computed from *global* coordinates so that a decomposed
        lattice agrees site-by-site with the monolithic one.
    global_t:
        Full temporal extent of the global lattice.  Equal to ``dims[3]``
        for a monolithic lattice.  Used to decide which local boundaries
        coincide with the global (antiperiodic) boundary — the "extra
        constants describing the boundary conditions at the start and end of
        the local volume" of Section VI-B.
    """

    dims: tuple[int, int, int, int]
    antiperiodic_t: bool = True
    t_offset: int = 0
    global_t: int | None = None
    #: For the multi-dimensional decomposition extension (Section VI-A
    #: future work): global ``z`` coordinate of this slab's first z-slice
    #: and the global Z extent.  Zero / local for monolithic lattices and
    #: the paper's time-only decomposition.
    z_offset: int = 0
    global_z: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", check_dims(self.dims))
        if self.global_t is None:
            object.__setattr__(self, "global_t", self.dims[T_DIR])
        if self.global_z is None:
            object.__setattr__(self, "global_z", self.dims[Z_DIR])
        for name, off, extent, glob in (
            ("time", self.t_offset, self.dims[T_DIR], self.global_t),
            ("z", self.z_offset, self.dims[Z_DIR], self.global_z),
        ):
            if off % 2 and extent != glob:
                # Parity bookkeeping below supports odd offsets too, but an
                # odd split can never arise from an even number of equal
                # slices of an even extent; reject early to catch bugs.
                raise ValueError(f"{name}-slice offset must be even")
            if off + extent > glob:
                raise ValueError(
                    f"local {name} extent {extent} at offset {off} exceeds "
                    f"global {glob}"
                )

    # ------------------------------------------------------------------ #
    # Basic sizes
    # ------------------------------------------------------------------ #

    @property
    def volume(self) -> int:
        """Number of lattice sites ``V = X*Y*Z*T``."""
        x, y, z, t = self.dims
        return x * y * z * t

    @property
    def half_volume(self) -> int:
        """Sites of a single parity, ``V/2``."""
        return self.volume // 2

    @property
    def spatial_volume(self) -> int:
        """Sites in one timeslice, ``Vs = X*Y*Z`` (the pad/face unit of the
        paper's field layout, Section V-B)."""
        x, y, z, _ = self.dims
        return x * y * z

    @property
    def spatial_half_volume(self) -> int:
        """Sites of one parity in one timeslice, ``Vs/2``."""
        return self.spatial_volume // 2

    # ------------------------------------------------------------------ #
    # Coordinates and parity
    # ------------------------------------------------------------------ #

    @cached_property
    def coords(self) -> np.ndarray:
        """Local coordinates of every site: shape ``(V, 4)``, x fastest."""
        x, y, z, t = self.dims
        idx = np.arange(self.volume)
        cx = idx % x
        cy = (idx // x) % y
        cz = (idx // (x * y)) % z
        ct = idx // (x * y * z)
        return np.stack([cx, cy, cz, ct], axis=1)

    @cached_property
    def parity(self) -> np.ndarray:
        """Parity (0 = even, 1 = odd) of every site, from *global* coords."""
        c = self.coords
        return (
            (c[:, 0] + c[:, 1] + c[:, 2] + c[:, 3] + self.t_offset + self.z_offset)
            % 2
        ).astype(np.int8)

    @cached_property
    def sites_of_parity(self) -> tuple[np.ndarray, np.ndarray]:
        """Lexicographic site indices of the even / odd sublattices.

        ``sites_of_parity[p][k]`` is the full-lattice index of the ``k``-th
        site (in lexicographic order) of parity ``p``.
        """
        par = self.parity
        return (np.nonzero(par == 0)[0], np.nonzero(par == 1)[0])

    @cached_property
    def checkerboard_index(self) -> np.ndarray:
        """Map a full-lattice site index to its index within its parity."""
        cb = np.empty(self.volume, dtype=np.int64)
        even, odd = self.sites_of_parity
        cb[even] = np.arange(even.size)
        cb[odd] = np.arange(odd.size)
        return cb

    def index(self, x: int, y: int, z: int, t: int) -> int:
        """Lexicographic index of the site with local coordinates (x,y,z,t)."""
        X, Y, Z, T = self.dims
        if not (0 <= x < X and 0 <= y < Y and 0 <= z < Z and 0 <= t < T):
            raise IndexError(f"coordinates ({x},{y},{z},{t}) outside {self.dims}")
        return x + X * (y + Y * (z + Z * t))

    # ------------------------------------------------------------------ #
    # Neighbor tables
    # ------------------------------------------------------------------ #

    @cached_property
    def neighbor_fwd(self) -> np.ndarray:
        """``neighbor_fwd[mu, i]`` = index of the site at ``x + mu_hat``.

        Wraps periodically at the local boundary (the Dirac operator applies
        boundary phases separately; for a decomposed lattice the wrap is
        replaced by ghost-zone reads at the communication layer).
        """
        return self._neighbors(+1)

    @cached_property
    def neighbor_bwd(self) -> np.ndarray:
        """``neighbor_bwd[mu, i]`` = index of the site at ``x - mu_hat``."""
        return self._neighbors(-1)

    def _neighbors(self, step: int) -> np.ndarray:
        out = np.empty((NDIM, self.volume), dtype=np.int64)
        X, Y, Z, T = self.dims
        c = self.coords
        for mu, extent in enumerate(self.dims):
            cc = c.copy()
            cc[:, mu] = (cc[:, mu] + step) % extent
            out[mu] = (
                cc[:, 0] + X * (cc[:, 1] + Y * (cc[:, 2] + Z * cc[:, 3]))
            )
        return out

    @cached_property
    def boundary_phase_fwd(self) -> np.ndarray:
        """Phase picked up by a spinor fetched from ``x + mu_hat``.

        Shape ``(4, V)`` float64.  Entries are 1 except, for the temporal
        direction with antiperiodic boundary conditions, -1 on sites whose
        forward temporal neighbor crosses the *global* boundary.
        """
        return self._phases(+1)

    @cached_property
    def boundary_phase_bwd(self) -> np.ndarray:
        """Phase picked up by a spinor fetched from ``x - mu_hat``."""
        return self._phases(-1)

    def _phases(self, step: int) -> np.ndarray:
        out = np.ones((NDIM, self.volume), dtype=np.float64)
        if not self.antiperiodic_t:
            return out
        t_local = self.coords[:, T_DIR]
        t_global = t_local + self.t_offset
        if step > 0:
            crossing = t_global == self.global_t - 1
        else:
            crossing = t_global == 0
        out[T_DIR, crossing] = -1.0
        return out

    # ------------------------------------------------------------------ #
    # Even-odd (checkerboard) neighbor tables
    # ------------------------------------------------------------------ #

    @cached_property
    def eo_neighbor_fwd(self) -> tuple[np.ndarray, np.ndarray]:
        """Checkerboarded forward-neighbor tables.

        ``eo_neighbor_fwd[p][mu, k]`` is the checkerboard index (within
        parity ``1-p``) of the forward ``mu`` neighbor of the ``k``-th site
        of parity ``p``.  Used by the parity-restricted hopping term
        ``D_eo`` / ``D_oe`` of the even-odd preconditioned system.
        """
        return self._eo_tables(self.neighbor_fwd)

    @cached_property
    def eo_neighbor_bwd(self) -> tuple[np.ndarray, np.ndarray]:
        """Checkerboarded backward-neighbor tables (see ``eo_neighbor_fwd``)."""
        return self._eo_tables(self.neighbor_bwd)

    def _eo_tables(self, full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cb = self.checkerboard_index
        even, odd = self.sites_of_parity
        return (cb[full[:, even]], cb[full[:, odd]])

    # ------------------------------------------------------------------ #
    # Timeslices and decomposition
    # ------------------------------------------------------------------ #

    def timeslice(self, t: int) -> slice:
        """Contiguous site range of local timeslice ``t`` (x-fastest order)."""
        T = self.dims[T_DIR]
        if not 0 <= t < T:
            raise IndexError(f"timeslice {t} outside local extent {T}")
        vs = self.spatial_volume
        return slice(t * vs, (t + 1) * vs)

    def timeslice_sites_of_parity(self, t: int, parity: int) -> np.ndarray:
        """Checkerboard indices (within ``parity``) of sites in timeslice ``t``.

        These are the face sites gathered/scattered by the parallel dslash
        (Section VI-C): ``Vs/2`` sites per parity per timeslice.
        """
        sl = self.timeslice(t)
        sites = np.arange(sl.start, sl.stop)
        mask = self.parity[sites] == parity
        return self.checkerboard_index[sites[mask]]

    def face_half_sites(self, mu: int) -> int:
        """Sites of one parity in one ``mu``-slice: ``V / dims[mu] / 2``."""
        return self.volume // self.dims[mu] // 2

    def boundary_sites_of_parity(self, mu: int, end: int, parity: int) -> np.ndarray:
        """Checkerboard indices of parity sites on a ``mu`` boundary slice.

        ``end = -1`` selects the slice at coordinate 0, ``end = +1`` the
        slice at ``dims[mu] - 1``.  Sites come out in lexicographic order
        of the remaining coordinates — identical enumeration on the
        sending and receiving rank, which is what makes ghost faces
        correspond positionally (the multi-dimensional generalization of
        the Fig. 3 layout).
        """
        if end not in (-1, +1):
            raise ValueError("end must be -1 (low face) or +1 (high face)")
        coord = 0 if end == -1 else self.dims[mu] - 1
        mask = (self.coords[:, mu] == coord) & (self.parity == parity)
        return self.checkerboard_index[np.nonzero(mask)[0]]

    def slice_grid(self, ranks_z: int, ranks_t: int) -> "GridSlicing":
        """Partition Z and T over a ``ranks_z x ranks_t`` rank grid.

        ``slice_grid(1, n)`` is the paper's decomposition (Section VI-A):
        only the time dimension is divided, with the full spatial extent
        on each GPU.  ``ranks_z > 1`` is the multi-dimensional split of
        its future work ("to scale to hundreds of GPUs or more", built in
        arXiv:1109.2935).  Rank order: z fastest,
        ``rank = z_index + ranks_z * t_index``.  Raises if the lattice is
        itself a sublattice or :func:`grid_error` rejects the grid.
        """
        Z, T = self.dims[Z_DIR], self.dims[T_DIR]
        if self.t_offset or self.z_offset or (Z, T) != (self.global_z, self.global_t):
            raise ValueError("can only decompose a monolithic lattice")
        error = grid_error(self.dims, ranks_z, ranks_t)
        if error is not None:
            raise ValueError(error)
        z_local, t_local = Z // ranks_z, T // ranks_t
        locals_ = tuple(
            LatticeGeometry(
                dims=(self.dims[0], self.dims[1], z_local, t_local),
                antiperiodic_t=self.antiperiodic_t,
                t_offset=tr * t_local,
                global_t=T,
                z_offset=zr * z_local,
                global_z=Z,
            )
            for tr in range(ranks_t)
            for zr in range(ranks_z)
        )
        return GridSlicing(
            global_geometry=self, locals=locals_, ranks_z=ranks_z, ranks_t=ranks_t
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        x, y, z, t = self.dims
        extra = (
            f", t_offset={self.t_offset}, global_t={self.global_t}"
            if self.dims[T_DIR] != self.global_t
            else ""
        )
        return f"LatticeGeometry({x}x{y}x{z}x{t}{extra})"


@dataclass(frozen=True)
class GridSlicing:
    """A ``(Z, T)`` decomposition of a global lattice over a process grid.

    ``ranks_z == 1`` is the paper's time slicing (Section VI-A); a larger
    ``ranks_z`` also splits Z.  Rank order: z fastest."""

    global_geometry: LatticeGeometry
    locals: tuple[LatticeGeometry, ...] = field(repr=False)
    ranks_z: int
    ranks_t: int

    @property
    def n_ranks(self) -> int:
        return self.ranks_z * self.ranks_t

    @property
    def machine_grid(self) -> dict[int, int]:
        """Ranks per partitioned lattice direction, the ``grid`` of
        :class:`~repro.comms.qmp.QMPMachine`."""
        return {Z_DIR: self.ranks_z, T_DIR: self.ranks_t}

    def local_sites(self, rank: int) -> slice | np.ndarray:
        """Global lexicographic sites owned by ``rank``, in the local
        lattice's own lex order.

        A contiguous ``slice`` when Z is not split (``t`` runs slowest),
        so scattering a field is a view, not a copy.  With ``ranks_z > 1``
        the sites are not contiguous and come back as an index array —
        the structural cost of multi-dimensional decomposition the paper
        alludes to.
        """
        local = self.locals[rank]
        if self.ranks_z == 1:
            start = local.t_offset * local.spatial_volume
            return slice(start, start + local.volume)
        c = self.global_geometry.coords
        z0, t0 = local.z_offset, local.t_offset
        mask = (
            (c[:, Z_DIR] >= z0)
            & (c[:, Z_DIR] < z0 + local.dims[Z_DIR])
            & (c[:, T_DIR] >= t0)
            & (c[:, T_DIR] < t0 + local.dims[T_DIR])
        )
        return np.nonzero(mask)[0]

    def scatter(self, full: np.ndarray, rank: int) -> np.ndarray:
        """Extract ``rank``'s slab of a field whose leading axis is sites."""
        return full[self.local_sites(rank)]

    def gather(self, parts: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank slabs into a full-lattice field."""
        if len(parts) != self.n_ranks:
            raise ValueError("wrong number of slabs")
        out = np.empty(
            (self.global_geometry.volume,) + parts[0].shape[1:], dtype=parts[0].dtype
        )
        for rank, part in enumerate(parts):
            out[self.local_sites(rank)] = part
        return out
