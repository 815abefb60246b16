"""Property-based tests for lattice geometry and decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice.geometry import NDIM, LatticeGeometry
from repro.service.placement import GridSelector

_dim = st.sampled_from([2, 4, 6, 8])
_dims = st.tuples(_dim, _dim, _dim, _dim)


class TestGeometryProperties:
    @given(_dims)
    @settings(max_examples=40, deadline=None)
    def test_neighbor_tables_are_inverse_permutations(self, dims):
        geo = LatticeGeometry(dims)
        idx = np.arange(geo.volume)
        for mu in range(NDIM):
            np.testing.assert_array_equal(
                geo.neighbor_bwd[mu][geo.neighbor_fwd[mu]], idx
            )
            np.testing.assert_array_equal(
                geo.neighbor_fwd[mu][geo.neighbor_bwd[mu]], idx
            )

    @given(_dims)
    @settings(max_examples=40, deadline=None)
    def test_parity_alternates(self, dims):
        geo = LatticeGeometry(dims)
        for mu in range(NDIM):
            assert np.all(geo.parity[geo.neighbor_fwd[mu]] != geo.parity)

    @given(_dims)
    @settings(max_examples=40, deadline=None)
    def test_four_steps_forward_and_back_is_identity(self, dims):
        geo = LatticeGeometry(dims)
        idx = np.arange(geo.volume)
        walk = idx
        for mu in range(NDIM):
            walk = geo.neighbor_fwd[mu][walk]
        for mu in range(NDIM):
            walk = geo.neighbor_bwd[mu][walk]
        np.testing.assert_array_equal(walk, idx)

    @given(_dims)
    @settings(max_examples=40, deadline=None)
    def test_checkerboard_indexing_bijective(self, dims):
        geo = LatticeGeometry(dims)
        even, odd = geo.sites_of_parity
        rebuilt = np.empty(geo.volume, dtype=np.int64)
        rebuilt[even] = geo.checkerboard_index[even]
        rebuilt[odd] = geo.checkerboard_index[odd]
        assert set(rebuilt[even]) == set(range(geo.half_volume))
        assert set(rebuilt[odd]) == set(range(geo.half_volume))


class TestDecompositionProperties:
    @given(_dims, st.sampled_from([1, 2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_slabs_tile_the_lattice(self, dims, n_ranks):
        geo = LatticeGeometry(dims)
        if geo.dims[3] % n_ranks or (n_ranks > 1 and (geo.dims[3] // n_ranks) % 2):
            return
        slicing = geo.slice_grid(1, n_ranks)
        covered = np.zeros(geo.volume, dtype=bool)
        for r in range(n_ranks):
            sl = slicing.local_sites(r)
            assert not covered[sl].any()
            covered[sl] = True
        assert covered.all()

    @given(_dims, st.sampled_from([2, 4]), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scatter_gather_identity(self, dims, n_ranks, seed):
        geo = LatticeGeometry(dims)
        if geo.dims[3] % n_ranks or (geo.dims[3] // n_ranks) % 2:
            return
        slicing = geo.slice_grid(1, n_ranks)
        data = np.random.default_rng(seed).standard_normal((geo.volume, 2))
        parts = [slicing.scatter(data, r) for r in range(n_ranks)]
        np.testing.assert_array_equal(slicing.gather(parts), data)

    @given(_dims, st.sampled_from([2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_local_parity_matches_global(self, dims, n_ranks):
        """The Section VI-A invariant: checkerboarding is global."""
        geo = LatticeGeometry(dims)
        if geo.dims[3] % n_ranks or (geo.dims[3] // n_ranks) % 2:
            return
        slicing = geo.slice_grid(1, n_ranks)
        for r, local in enumerate(slicing.locals):
            np.testing.assert_array_equal(
                local.parity, geo.parity[slicing.local_sites(r)]
            )


#: One selector for every example: ``candidates`` is pure in its arguments.
_SELECTOR = GridSelector()


class TestOneDivisibilityRule:
    """``slice_grid``, the recovery shrink and the placement layer's
    ``GridSelector`` share one rule for which grids a lattice admits."""

    @given(_dims, st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_selector_feasible_exactly_when_slice_grid_succeeds(self, dims, ranks_z, ranks_t):
        try:
            LatticeGeometry(dims).slice_grid(ranks_z, ranks_t)
            sliced = True
        except ValueError:
            sliced = False
        offered = {
            c.grid or (1, ranks_z * ranks_t)
            for c in _SELECTOR.candidates(dims, ranks_z * ranks_t)
        }
        assert ((ranks_z, ranks_t) in offered) == sliced

    @given(_dims, st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_feasible_rank_count_is_the_largest_admitted_time_slicing(self, dims, max_ranks):
        from repro.core.solvers.resilience import feasible_rank_count

        geo = LatticeGeometry(dims)
        admitted = []
        for n in range(1, max_ranks + 1):
            try:
                geo.slice_grid(1, n)
            except ValueError:
                continue
            admitted.append(n)
        assert feasible_rank_count(geo, max_ranks) == max(admitted)


class TestSlabSites:
    @given(_dims, st.sampled_from([1, 2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_time_slab_is_a_contiguous_slice(self, dims, n_ranks):
        """The paper's slicing hands out slices, so scattering a field is a
        view: the gauge, clover and source slabs of a solve are not copied."""
        geo = LatticeGeometry(dims)
        if geo.dims[3] % n_ranks or (n_ranks > 1 and (geo.dims[3] // n_ranks) % 2):
            return
        slicing = geo.slice_grid(1, n_ranks)
        data = np.zeros((geo.volume, 2))
        for r, local in enumerate(slicing.locals):
            sl = slicing.local_sites(r)
            assert isinstance(sl, slice)
            assert np.shares_memory(slicing.scatter(data, r), data)
            t0, t1 = local.t_offset, local.t_offset + local.dims[3]
            owned = np.nonzero((geo.coords[:, 3] >= t0) & (geo.coords[:, 3] < t1))[0]
            np.testing.assert_array_equal(np.arange(geo.volume)[sl], owned)

    @pytest.mark.parametrize("ranks_z", [2, 4])
    def test_z_split_hands_out_index_arrays(self, ranks_z):
        geo = LatticeGeometry((4, 4, 8, 8))
        slicing = geo.slice_grid(ranks_z, 2)
        sites = [slicing.local_sites(r) for r in range(slicing.n_ranks)]
        assert all(isinstance(s, np.ndarray) for s in sites)
        np.testing.assert_array_equal(np.sort(np.concatenate(sites)), np.arange(geo.volume))
