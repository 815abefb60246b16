"""QMP-flavoured communication layer (paper Section VI-A).

The paper communicates through QMP — "QCD Message Passing, an API built
on top of MPI that provides convenient functionality for LQCD
computations": a declared logical machine topology and persistent relay
channels to lattice neighbours, plus global sums.

This module provides that convenience layer over :mod:`repro.comms.mpi_sim`.
A solve declares the machine grid of its lattice decomposition
(:attr:`~repro.lattice.geometry.GridSlicing.machine_grid`,
``{2: ranks_z, 3: ranks_t}``).  The paper's production configuration, a
1-dimensional ring over the time axis, is the ``ranks_z = 1`` grid; the
multi-dimensional extension (Section VI-A future work) splits Z too, with
neighbour relays along each partitioned lattice direction.  Fields carry
the antiperiodic sign; the machine topology itself is periodic in every
axis.

:func:`rank_orbits` reads the same grid for symmetry: which ranks a
timing-only solve may simulate once for many (see
:mod:`repro.comms.mpi_sim`, "Orbits").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Any, Mapping

import numpy as np

from .cluster import ClusterSpec
from .faults import RankFailedError
from .mpi_sim import Comm, Request

__all__ = ["QMPMachine", "rank_orbits"]

#: Base message tags; each (lattice direction, relay orientation) pair
#: gets its own tag, like QMP's declared channels.
_TAG_BASE = 100


def _tag(mu: int, direction: int) -> int:
    return _TAG_BASE + 2 * mu + (0 if direction == -1 else 1)


def rank_orbits(
    n_ranks: int, grid: Mapping[int, int], cluster: ClusterSpec
) -> tuple[int, ...]:
    """The representative of every rank's symmetry orbit, rank by rank.

    Two ranks share an orbit when a translation of the periodic process
    grid maps one onto the other and preserves every rank's NUMA binding
    (:meth:`ClusterSpec.numa_ok`) and the kind of every neighbour link
    (shared memory or InfiniBand: whether its ends share a node).  Those
    translations form a group, so the orbits partition the ranks; the
    representative is the lowest rank of its orbit (rank 0 always
    represents itself).  On the paper's 2-GPU nodes a time-sliced ring has
    two orbits, even and odd ranks.  ``grid`` is the machine grid of
    :class:`QMPMachine` (``{2: 1, 3: n}`` for the time ring).
    """
    extents = np.array([grid[mu] for mu in sorted(grid)])
    strides = np.cumprod(np.concatenate(([1], extents[:-1])))
    # Logical coordinates, lower lattice directions fastest (as QMPMachine).
    coords = (np.arange(n_ranks)[:, None] // strides) % extents
    shifts = np.array(list(product(*(range(n) for n in extents))))
    images = ((coords + shifts[:, None]) % extents) @ strides  # (shift, rank)
    # Every -mu link is some rank's +mu link, so the +mu ones cover them all.
    steps = np.eye(len(extents), dtype=int)[extents > 1]
    heads = ((coords[:, None] + steps) % extents) @ strides  # (rank, link)
    node = np.array([cluster.node_of(r) for r in range(n_ranks)])
    numa = np.array([cluster.numa_ok(r) for r in range(n_ranks)])
    kinds = node[:, None] == node[heads]
    moved_kinds = node[images][:, :, None] == node[images[:, heads]]
    keeps = (numa[images] == numa).all(axis=1) & (moved_kinds == kinds).all(axis=(1, 2))
    return tuple(int(r) for r in images[keeps].min(axis=0))


@dataclass
class QMPMachine:
    """A logical machine grid over the partitioned lattice directions.

    Parameters
    ----------
    comm:
        The rank's communicator.
    grid:
        Ranks per partitioned lattice direction, as a mapping
        ``{lattice_dir: n_ranks}``.  ``None`` declares the paper's 1-D
        time decomposition over the whole communicator: ``{3: size}``.
        Rank order follows :meth:`LatticeGeometry.slice_grid`: lower
        lattice directions run fastest.
    """

    comm: Comm
    grid: dict[int, int] | None = None
    _coords: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.grid is None:
            self.grid = {3: self.comm.size}
        total = int(np.prod(list(self.grid.values())))
        if total != self.comm.size:
            raise ValueError(
                f"grid {self.grid} needs {total} ranks, communicator has "
                f"{self.comm.size}"
            )
        # Logical coordinates: lower lattice directions run fastest.
        self._coords = {}
        rank = self.comm.rank
        for mu in sorted(self.grid):
            n = self.grid[mu]
            self._coords[mu] = rank % n
            rank //= n

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def partitioned_dirs(self) -> tuple[int, ...]:
        """Lattice directions actually split across ranks."""
        return tuple(mu for mu in sorted(self.grid) if self.grid[mu] > 1)

    def logical_coords(self, mu: int) -> int:
        return self._coords[mu]

    def neighbor(self, mu: int, step: int) -> int:
        """Rank of the ``+/-mu`` neighbour in the logical grid."""
        if mu not in self.grid:
            raise ValueError(f"direction {mu} is not in the machine grid")
        rank = 0
        stride = 1
        for nu in sorted(self.grid):
            n = self.grid[nu]
            c = self._coords[nu]
            if nu == mu:
                c = (c + step) % n
            rank += c * stride
            stride *= n
        return rank

    # ------------------------------------------------------------------ #
    # Neighbour relays
    # ------------------------------------------------------------------ #

    def send_to(
        self, direction: int, data: Any, *, mu: int = 3, nbytes: int | None = None
    ) -> None:
        """Blocking-post send to the ``-mu`` or ``+mu`` neighbour."""
        dest, tag = self._route(mu, direction)
        self.comm.send(data, dest, tag, nbytes=nbytes)

    def recv_from(
        self, direction: int, *, mu: int = 3, with_checksum: bool = False
    ) -> Any:
        """Blocking receive from the ``-mu`` or ``+mu`` neighbour.

        ``with_checksum=True`` returns ``(data, checksum)`` so the
        ghost-zone scatter can re-verify the stored faces end to end."""
        source, tag = self._route_recv(mu, direction)
        try:
            return self.comm.recv(source, tag, with_checksum=with_checksum)
        except RankFailedError as exc:
            raise exc.add_context(
                f"ghost relay mu={mu} dir={direction:+d}"
            ) from None

    def take_resident_corruption(self):
        """One-shot poll of the plan's resident-field corruption for this
        rank: ``(spec, plan_seed)`` once armed and due, else ``None``."""
        return self.comm.take_resident_corruption()

    def start_send(
        self, direction: int, data: Any, *, mu: int = 3, nbytes: int | None = None
    ) -> Request:
        """Non-blocking send (QMP_start_sending analogue)."""
        dest, tag = self._route(mu, direction)
        return self.comm.isend(data, dest, tag, nbytes=nbytes)

    def start_recv(self, direction: int, *, mu: int = 3) -> Request:
        """Non-blocking receive (completes on ``wait``)."""
        source, tag = self._route_recv(mu, direction)
        return self.comm.irecv(source, tag)

    def _route(self, mu: int, direction: int) -> tuple[int, int]:
        if direction not in (-1, +1):
            raise ValueError(f"direction must be -1 or +1, got {direction}")
        return self.neighbor(mu, direction), _tag(mu, direction)

    def _route_recv(self, mu: int, direction: int) -> tuple[int, int]:
        if direction not in (-1, +1):
            raise ValueError(f"direction must be -1 or +1, got {direction}")
        # A message "from direction -1" was sent by that neighbour toward
        # its +mu side, hence tagged with the opposite orientation.
        return self.neighbor(mu, direction), _tag(mu, -direction)

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #

    def global_sum(self, value: float | complex | np.ndarray) -> Any:
        """QMP_sum_double / QMP_sum_double_array analogue.

        This is the only collective the parallel solver needs: "the only
        other required addition to the code was the insertion of MPI
        reductions for each of the linear algebra reduction kernels"
        (Section VI-E).
        """
        if self.comm.size == 1:
            return value
        try:
            return self.comm.allreduce(value)
        except RankFailedError as exc:
            raise exc.add_context("global sum") from None

    def barrier(self) -> None:
        if self.comm.size > 1:
            self.comm.barrier()
