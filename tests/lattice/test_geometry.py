"""Tests for lattice geometry, indexing, parity, and time decomposition."""

import numpy as np
import pytest

from repro.comms import QMPMachine, run_spmd
from repro.lattice.geometry import NDIM, LatticeGeometry


class TestConstruction:
    def test_volume(self, geo_asym):
        assert geo_asym.volume == 4 * 6 * 2 * 8
        assert geo_asym.half_volume == geo_asym.volume // 2
        assert geo_asym.spatial_volume == 4 * 6 * 2

    def test_rejects_odd_dims(self):
        with pytest.raises(ValueError, match="even"):
            LatticeGeometry((3, 4, 4, 4))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="dimensions"):
            LatticeGeometry((4, 4, 4))

    def test_rejects_tiny_dims(self):
        with pytest.raises(ValueError, match=">= 2"):
            LatticeGeometry((0, 4, 4, 4))

    def test_local_extent_must_fit(self):
        with pytest.raises(ValueError, match="exceeds"):
            LatticeGeometry((4, 4, 4, 8), t_offset=4, global_t=8)


class TestCoordinates:
    def test_index_roundtrip(self, geo_asym):
        c = geo_asym.coords
        for i in [0, 1, 17, geo_asym.volume - 1]:
            x, y, z, t = c[i]
            assert geo_asym.index(x, y, z, t) == i

    def test_x_runs_fastest(self, geo_asym):
        c = geo_asym.coords
        assert c[1, 0] == 1 and c[1, 1] == 0 and c[1, 3] == 0

    def test_t_runs_slowest(self, geo_asym):
        vs = geo_asym.spatial_volume
        assert geo_asym.coords[vs, 3] == 1

    def test_index_bounds_checked(self, geo44):
        with pytest.raises(IndexError):
            geo44.index(4, 0, 0, 0)


class TestParity:
    def test_half_and_half(self, geo_asym):
        par = geo_asym.parity
        assert np.sum(par == 0) == np.sum(par == 1) == geo_asym.half_volume

    def test_origin_even(self, geo44):
        assert geo44.parity[0] == 0

    def test_neighbors_have_opposite_parity(self, geo_asym):
        par = geo_asym.parity
        for mu in range(NDIM):
            assert np.all(par[geo_asym.neighbor_fwd[mu]] == 1 - par)
            assert np.all(par[geo_asym.neighbor_bwd[mu]] == 1 - par)

    def test_sublattice_parity_matches_global(self):
        """Site parity in a time slab must use *global* t (Section VI-A)."""
        geo = LatticeGeometry((4, 4, 4, 8))
        slicing = geo.slice_grid(1, 4)
        for rank, local in enumerate(slicing.locals):
            sl = slicing.local_sites(rank)
            np.testing.assert_array_equal(local.parity, geo.parity[sl])


class TestNeighbors:
    def test_fwd_bwd_inverse(self, geo_asym):
        for mu in range(NDIM):
            fwd, bwd = geo_asym.neighbor_fwd[mu], geo_asym.neighbor_bwd[mu]
            np.testing.assert_array_equal(bwd[fwd], np.arange(geo_asym.volume))

    def test_neighbors_are_permutations(self, geo_asym):
        for mu in range(NDIM):
            assert len(np.unique(geo_asym.neighbor_fwd[mu])) == geo_asym.volume

    def test_step_changes_one_coordinate(self, geo_asym):
        c = geo_asym.coords
        for mu in range(NDIM):
            cn = c[geo_asym.neighbor_fwd[mu]]
            diff = (cn - c) % np.array(geo_asym.dims)
            expected = np.zeros(NDIM, dtype=int)
            expected[mu] = 1
            assert np.all(diff == expected)

    def test_eo_tables_consistent_with_full(self, geo_asym):
        cb = geo_asym.checkerboard_index
        for parity in (0, 1):
            sites = geo_asym.sites_of_parity[parity]
            for mu in range(NDIM):
                np.testing.assert_array_equal(
                    geo_asym.eo_neighbor_fwd[parity][mu],
                    cb[geo_asym.neighbor_fwd[mu][sites]],
                )


class TestBoundaryPhases:
    def test_antiperiodic_only_in_time(self, geo_asym):
        for mu in range(3):
            assert np.all(geo_asym.boundary_phase_fwd[mu] == 1.0)
            assert np.all(geo_asym.boundary_phase_bwd[mu] == 1.0)

    def test_time_phase_on_global_boundary(self, geo_asym):
        t = geo_asym.coords[:, 3]
        T = geo_asym.dims[3]
        np.testing.assert_array_equal(
            geo_asym.boundary_phase_fwd[3] == -1.0, t == T - 1
        )
        np.testing.assert_array_equal(geo_asym.boundary_phase_bwd[3] == -1.0, t == 0)

    def test_periodic_option(self):
        geo = LatticeGeometry((4, 4, 4, 4), antiperiodic_t=False)
        assert np.all(geo.boundary_phase_fwd == 1.0)

    def test_interior_slab_has_no_phase(self):
        """A slab not touching the global boundary sees no sign flips —
        the 'local vs global boundary' distinction of Section VI-B."""
        geo = LatticeGeometry((4, 4, 4, 8))
        mid = geo.slice_grid(1, 4).locals[1]  # t in [2, 4)
        assert np.all(mid.boundary_phase_fwd[3] == 1.0)
        assert np.all(mid.boundary_phase_bwd[3] == 1.0)

    def test_last_slab_carries_global_phase(self):
        geo = LatticeGeometry((4, 4, 4, 8))
        last = geo.slice_grid(1, 4).locals[3]
        t = last.coords[:, 3]
        np.testing.assert_array_equal(
            last.boundary_phase_fwd[3] == -1.0, t == last.dims[3] - 1
        )


class TestTimeslices:
    def test_timeslice_contiguous(self, geo_asym):
        sl = geo_asym.timeslice(3)
        assert np.all(geo_asym.coords[sl, 3] == 3)
        assert sl.stop - sl.start == geo_asym.spatial_volume

    def test_timeslice_bounds(self, geo44):
        with pytest.raises(IndexError):
            geo44.timeslice(4)

    def test_timeslice_parity_sites(self, geo44):
        cb = geo44.timeslice_sites_of_parity(0, 0)
        assert cb.size == geo44.spatial_half_volume
        # All returned checkerboard indices refer to even sites at t=0.
        even_sites = geo44.sites_of_parity[0][cb]
        assert np.all(geo44.coords[even_sites, 3] == 0)


class TestTimeSlicing:
    """The paper's time slicing is the ``(1, n)`` process grid."""

    def test_scatter_gather_roundtrip(self, rng):
        geo = LatticeGeometry((4, 4, 4, 8))
        slicing = geo.slice_grid(1, 4)
        full = rng.standard_normal((geo.volume, 3))
        parts = [slicing.scatter(full, r) for r in range(4)]
        np.testing.assert_array_equal(slicing.gather(parts), full)

    def test_indivisible_rejected(self):
        geo = LatticeGeometry((4, 4, 4, 8))
        with pytest.raises(ValueError, match="not divisible"):
            geo.slice_grid(1, 3)

    def test_odd_local_extent_rejected(self):
        geo = LatticeGeometry((4, 4, 4, 6))
        with pytest.raises(ValueError, match="even"):
            geo.slice_grid(1, 6)

    def test_neighbor_ranks_wrap(self):
        """The machine grid the slicing declares makes a periodic time ring."""
        slicing = LatticeGeometry((4, 4, 4, 8)).slice_grid(1, 4)
        assert slicing.machine_grid == {2: 1, 3: 4}

        def fn(comm):
            qmp = QMPMachine(comm, grid=slicing.machine_grid)
            return qmp.partitioned_dirs, qmp.neighbor(3, +1), qmp.neighbor(3, -1)

        out = run_spmd(4, fn)
        assert all(dirs == (3,) for dirs, _, _ in out)
        assert out[3][1] == 0
        assert out[0][2] == 3

    def test_cannot_decompose_sublattice(self):
        geo = LatticeGeometry((4, 4, 4, 8))
        local = geo.slice_grid(1, 2).locals[1]
        with pytest.raises(ValueError, match="monolithic"):
            local.slice_grid(1, 2)

    @pytest.mark.parametrize("grid", [(1, 2), (2, 1), (2, 2)])
    def test_first_slab_is_not_monolithic(self, grid):
        """Rank 0's slab has zero offsets, but its local extents are not the
        global ones: decomposing it again would put the antiperiodic
        boundary mid-lattice."""
        first = LatticeGeometry((4, 4, 8, 8)).slice_grid(*grid).locals[0]
        with pytest.raises(ValueError, match="monolithic"):
            first.slice_grid(*grid)
