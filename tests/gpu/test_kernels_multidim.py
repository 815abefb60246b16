"""Kernel-level tests of the multi-direction ghost machinery.

Mirrors the single-GPU self-exchange trick of ``test_kernels.py`` for the
Z direction and the combined (Z, T) case: a partitioned dslash fed its
own wrapped faces must reproduce the plain periodic dslash exactly.
"""

import numpy as np
import pytest

from repro.gpu import (
    BACKWARD,
    FORWARD,
    DeviceGaugeField,
    DeviceSpinorField,
    Precision,
    VirtualGPU,
)
from repro.gpu.kernels import (
    dslash_kernel,
    dslash_launch,
    dslash_tables,
    project_face,
    region_rows,
)
from repro.lattice import LatticeGeometry, weak_field_gauge
from repro.lattice.evenodd import EVEN, ODD, dslash_parity


@pytest.fixture
def geo():
    return LatticeGeometry((4, 4, 8, 8))


@pytest.fixture
def gauge(geo, rng):
    return weak_field_gauge(geo, rng, noise=0.2)


@pytest.fixture
def gpu():
    return VirtualGPU(enforce_memory=False)


def _setup(gpu, geo, gauge, psi_cb, prec, dirs):
    faces = {mu: geo.face_half_sites(mu) for mu in dirs}
    ghosts = {mu: geo.volume // geo.dims[mu] for mu in dirs}
    dg = DeviceGaugeField(
        gpu, sites=geo.volume, precision=prec, ghosts=ghosts,
        pad_sites=geo.spatial_volume,
    )
    dg.set(gauge.data)
    src = DeviceSpinorField(gpu, sites=geo.half_volume, precision=prec, faces=faces)
    src.set(psi_cb)
    dst = DeviceSpinorField(
        gpu, sites=geo.half_volume, precision=prec, faces=faces, label="dst"
    )
    return dg, src, dst


def _self_exchange(geo, gauge, dg, src, tables, dirs, dagger=False):
    """Feed each partitioned direction its own periodic wrap as ghosts."""
    for mu in dirs:
        high = np.nonzero(geo.coords[:, mu] == geo.dims[mu] - 1)[0]
        dg.set_ghost(gauge.data[mu][high], mu=mu)
        hb, nb = project_face(tables, src, BACKWARD, mu=mu, dagger=dagger)
        hf, nf = project_face(tables, src, FORWARD, mu=mu, dagger=dagger)
        src.set_ghost(FORWARD, hb, nb, mu=mu)
        src.set_ghost(BACKWARD, hf, nf, mu=mu)


TOL = {Precision.DOUBLE: 1e-12, Precision.SINGLE: 2e-5, Precision.HALF: 8e-3}


class TestMultiDirGhosts:
    @pytest.mark.parametrize("dirs", [(2,), (2, 3)])
    @pytest.mark.parametrize("prec", list(Precision))
    def test_partitioned_equals_wrapped(self, gpu, geo, gauge, rng, dirs, prec):
        vh = geo.half_volume
        psi = rng.standard_normal((vh, 4, 3)) + 1j * rng.standard_normal((vh, 4, 3))
        dg, src, dst = _setup(gpu, geo, gauge, psi, prec, dirs)
        tables = dslash_tables(geo, EVEN)
        _self_exchange(geo, gauge, dg, src, tables, dirs)
        dslash_kernel(gpu, tables, dg, src, dst, partitioned=dirs)
        expected = dslash_parity(gauge, psi, EVEN)
        err = np.max(np.abs(dst.get() - expected)) / np.max(np.abs(expected))
        assert err < TOL[prec]

    def test_interior_plus_boundary_equals_full(self, gpu, geo, gauge, rng):
        """The overlapped pair over (Z, T): the interior charged alone, then
        the boundary kernel, whose one body reads both directions' ghosts."""
        dirs = (2, 3)
        vh = geo.half_volume
        psi = rng.standard_normal((vh, 4, 3)) + 0j
        dg, src, dst = _setup(gpu, geo, gauge, psi, Precision.DOUBLE, dirs)
        tables = dslash_tables(geo, ODD)
        _self_exchange(geo, gauge, dg, src, tables, dirs)
        dst.zero()
        dslash_launch(gpu, tables, dg, src, region="interior", partitioned=dirs)
        dslash_kernel(gpu, tables, dg, src, dst, region="boundary", partitioned=dirs)
        expected = dslash_parity(gauge, psi, ODD)
        np.testing.assert_allclose(dst.get(), expected, atol=1e-12)

    def test_dagger_with_z_partition(self, gpu, geo, gauge, rng):
        vh = geo.half_volume
        psi = rng.standard_normal((vh, 4, 3)) + 0j
        dg, src, dst = _setup(gpu, geo, gauge, psi, Precision.DOUBLE, (2,))
        tables = dslash_tables(geo, EVEN)
        _self_exchange(geo, gauge, dg, src, tables, (2,), dagger=True)
        dslash_kernel(gpu, tables, dg, src, dst, partitioned=(2,), dagger=True)
        expected = dslash_parity(gauge, psi, EVEN, dagger=True)
        np.testing.assert_allclose(dst.get(), expected, atol=1e-12)

    def test_unsupported_direction_rejected(self, gpu, geo, gauge, rng):
        vh = geo.half_volume
        psi = rng.standard_normal((vh, 4, 3)) + 0j
        dg, src, dst = _setup(gpu, geo, gauge, psi, Precision.DOUBLE, (2,))
        tables = dslash_tables(geo, EVEN)
        with pytest.raises(ValueError, match="cannot be partitioned"):
            dslash_kernel(gpu, tables, dg, src, dst, partitioned=(0,))


def _mask_counts(geometry, parity, dirs):
    """Interior and boundary rows counted from the face masks: a target is
    on the boundary when it lies on either boundary slice of any
    partitioned direction."""
    tables = dslash_tables(geometry, parity)
    on_boundary = np.zeros(tables.n_sites, dtype=bool)
    for mu in dirs:
        face = tables.face(mu)
        on_boundary |= face.on_low | face.on_high
    boundary = int(np.count_nonzero(on_boundary))
    return {
        "full": tables.n_sites,
        "interior": tables.n_sites - boundary,
        "boundary": boundary,
    }


#: Every extent pair in {4, 6, 8} for the partitionable (Z, T), plus the
#: second T slab of a 4 x 4 x 6 x 8 lattice (parities from global
#: coordinates).
COUNT_GEOMETRIES = [
    LatticeGeometry((4, 6, z, t)) for z in (4, 6, 8) for t in (4, 6, 8)
] + [LatticeGeometry((4, 4, 6, 4), t_offset=4, global_t=8)]


class TestRegionCounts:
    @pytest.mark.parametrize("dirs", [(3,), (2,), (2, 3), ()])
    def test_counts_match_index_tables(self, dirs):
        """The one count, arithmetic on the geometry, agrees with the
        counts of the face masks for every parity and direction set."""
        for geometry in COUNT_GEOMETRIES:
            for parity in (EVEN, ODD):
                for region, rows in _mask_counts(geometry, parity, dirs).items():
                    assert region_rows(geometry, region, dirs) == rows, (
                        geometry, parity, region,
                    )

    def test_boundary_plus_interior_is_full(self, geo):
        for dirs in ((), (3,), (2, 3)):
            total = region_rows(geo, "interior", dirs) + region_rows(geo, "boundary", dirs)
            assert total == region_rows(geo, "full", dirs) == geo.half_volume

    def test_unknown_region_rejected(self, geo):
        with pytest.raises(ValueError, match="unknown region"):
            region_rows(geo, "corner", (3,))
