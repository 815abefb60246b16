"""Tests for the device dslash kernel against the host reference.

This is the load-bearing validation of the virtual GPU: the kernel —
with gauge compression, half-spinor temporal loads, fused clover/xpay,
regions, and ghost zones — must reproduce
:func:`repro.lattice.evenodd.dslash_parity` and
:class:`repro.lattice.evenodd.SchurOperator` exactly (to precision).
"""

import numpy as np
import pytest

from repro.gpu import (
    BACKWARD,
    FORWARD,
    DeviceCloverField,
    DeviceGaugeField,
    DeviceSpinorField,
    Precision,
    VirtualGPU,
)
from repro.gpu.kernels import (
    dslash_kernel,
    dslash_launch,
    dslash_site_bytes,
    dslash_tables,
    gather_face_kernel,
)
from repro.lattice import LatticeGeometry, SchurOperator, make_clover, weak_field_gauge
from repro.lattice.evenodd import EVEN, ODD, dslash_parity
from repro.lattice.geometry import T_DIR
from repro.lattice import gamma as _gamma

TOL = {Precision.DOUBLE: 1e-12, Precision.SINGLE: 2e-5, Precision.HALF: 6e-3}


@pytest.fixture
def geo():
    return LatticeGeometry((4, 4, 2, 8))


@pytest.fixture
def gauge(geo, rng):
    return weak_field_gauge(geo, rng, noise=0.2)


@pytest.fixture
def gpu():
    return VirtualGPU(enforce_memory=False)


def _upload(gpu, geo, gauge, psi_cb, prec, *, faces=False, compressed=True):
    """Create device gauge + source/destination spinors for one parity."""
    vh = geo.half_volume
    fs = geo.spatial_half_volume if faces else 0
    dg = DeviceGaugeField(
        gpu,
        sites=geo.volume,
        precision=prec,
        compressed=compressed,
        ghosts={3: geo.spatial_volume if faces else 0},
        pad_sites=geo.spatial_volume,
    )
    dg.set(gauge.data)
    src = DeviceSpinorField(gpu, sites=vh, precision=prec, faces={3: fs})
    src.set(psi_cb)
    dst = DeviceSpinorField(gpu, sites=vh, precision=prec, faces={3: fs}, label="dst")
    return dg, src, dst


def _rand_cb(rng, geo):
    vh = geo.half_volume
    return rng.standard_normal((vh, 4, 3)) + 1j * rng.standard_normal((vh, 4, 3))


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestDslashAgainstReference:
    @pytest.mark.parametrize("prec", list(Precision))
    @pytest.mark.parametrize("target", [EVEN, ODD])
    def test_full_region_matches_host(self, gpu, geo, gauge, rng, prec, target):
        psi = _rand_cb(rng, geo)
        dg, src, dst = _upload(gpu, geo, gauge, psi, prec)
        tables = dslash_tables(geo, target)
        dslash_kernel(gpu, tables, dg, src, dst)
        expected = dslash_parity(gauge, psi, target)
        assert _rel_err(dst.get(), expected) < TOL[prec]

    @pytest.mark.parametrize("compressed", [True, False])
    def test_gauge_compression_exact(self, gpu, geo, gauge, rng, compressed):
        """2-row reconstruction changes nothing (Section V-C1)."""
        psi = _rand_cb(rng, geo)
        dg, src, dst = _upload(
            gpu, geo, gauge, psi, Precision.DOUBLE, compressed=compressed
        )
        dslash_kernel(gpu, dslash_tables(geo, EVEN), dg, src, dst)
        expected = dslash_parity(gauge, psi, EVEN)
        np.testing.assert_allclose(dst.get(), expected, atol=1e-12)

    def test_dagger(self, gpu, geo, gauge, rng):
        psi = _rand_cb(rng, geo)
        dg, src, dst = _upload(gpu, geo, gauge, psi, Precision.DOUBLE)
        dslash_kernel(gpu, dslash_tables(geo, ODD), dg, src, dst, dagger=True)
        expected = dslash_parity(gauge, psi, ODD, dagger=True)
        np.testing.assert_allclose(dst.get(), expected, atol=1e-12)

    def test_antiperiodic_phases_applied(self, gpu, rng):
        """Antiperiodic vs periodic time BCs give different results."""
        geo_ap = LatticeGeometry((4, 4, 4, 4), antiperiodic_t=True)
        geo_p = LatticeGeometry((4, 4, 4, 4), antiperiodic_t=False)
        gauge = weak_field_gauge(geo_ap, rng, noise=0.1)
        psi = _rand_cb(rng, geo_ap)
        outs = []
        for geo in (geo_ap, geo_p):
            g2 = type(gauge)(geo, gauge.data)
            dg, src, dst = _upload(gpu, geo, g2, psi, Precision.DOUBLE)
            dslash_kernel(gpu, dslash_tables(geo, EVEN), dg, src, dst)
            outs.append(dst.get())
        assert np.max(np.abs(outs[0] - outs[1])) > 1e-3


class TestFusedKernels:
    def test_xpay(self, gpu, geo, gauge, rng):
        psi = _rand_cb(rng, geo)
        x = _rand_cb(rng, geo)
        dg, src, dst = _upload(gpu, geo, gauge, psi, Precision.DOUBLE)
        xf = DeviceSpinorField(
            gpu, sites=geo.half_volume, precision=Precision.DOUBLE, label="x"
        )
        xf.set(x)
        dslash_kernel(
            gpu, dslash_tables(geo, EVEN), dg, src, dst, xpay=(-0.25, xf)
        )
        expected = x - 0.25 * dslash_parity(gauge, psi, EVEN)
        np.testing.assert_allclose(dst.get(), expected, atol=1e-12)

    def test_clover_on_result(self, gpu, geo, gauge, rng):
        clover = make_clover(gauge)
        psi = _rand_cb(rng, geo)
        dg, src, dst = _upload(gpu, geo, gauge, psi, Precision.DOUBLE)
        odd_sites = geo.sites_of_parity[ODD]
        dc = DeviceCloverField(gpu, sites=geo.half_volume, precision=Precision.DOUBLE)
        dc.set(clover.data[odd_sites])
        dslash_kernel(gpu, dslash_tables(geo, ODD), dg, src, dst, clover=dc)
        # clover.apply on odd checkerboard == blocks at odd sites applied.
        from repro.lattice.fields import apply_chiral_blocks

        expected = apply_chiral_blocks(
            clover.data[odd_sites], dslash_parity(gauge, psi, ODD)
        )
        np.testing.assert_allclose(dst.get(), expected, atol=1e-12)

    def test_two_kernels_build_schur_operator(self, gpu, geo, gauge, rng):
        """The QUDA composition: Mhat = A'_e x - 1/4 D_eo A'^{-1}_oo D_oe x
        out of two fused launches, vs the host SchurOperator."""
        clover = make_clover(gauge)
        schur = SchurOperator(gauge, mass=0.15, clover=clover)
        psi = _rand_cb(rng, geo)
        dg, src, tmp = _upload(gpu, geo, gauge, psi, Precision.DOUBLE)
        out = DeviceSpinorField(
            gpu, sites=geo.half_volume, precision=Precision.DOUBLE, label="out"
        )
        # Device diagonal blocks.
        dc_inv = DeviceCloverField(
            gpu, sites=geo.half_volume, precision=Precision.DOUBLE, label="AooInv"
        )
        dc_inv.set(np.linalg.inv(schur._diag[ODD]))
        dc_e = DeviceCloverField(
            gpu, sites=geo.half_volume, precision=Precision.DOUBLE, label="Aee"
        )
        dc_e.set(schur._diag[EVEN])
        # Kernel 1: tmp_o = A'^{-1}_oo D_oe psi_e.
        dslash_kernel(gpu, dslash_tables(geo, ODD), dg, src, tmp, clover=dc_inv)
        # Kernel 2: out_e = A'_ee psi_e - 1/4 D_eo tmp_o.
        dslash_kernel(
            gpu,
            dslash_tables(geo, EVEN),
            dg,
            tmp,
            out,
            clover=dc_e,
            clover_target="xpay",
            xpay=(-0.25, src),
        )
        np.testing.assert_allclose(out.get(), schur.apply(psi), atol=1e-11)

    def test_clover_target_validated(self, gpu, geo, gauge, rng):
        dg, src, dst = _upload(gpu, geo, gauge, _rand_cb(rng, geo), Precision.DOUBLE)
        with pytest.raises(ValueError, match="clover_target"):
            dslash_kernel(
                gpu, dslash_tables(geo, EVEN), dg, src, dst, clover_target="both"
            )


class TestGhostZones:
    """Partitioned dslash on a single GPU with self-supplied ghosts must
    equal the plain wrapped dslash — validates every piece of the
    ghost-zone machinery in isolation from MPI."""

    def _self_exchange(self, gpu, geo, dg, gauge, src, dagger=False):
        tables_any = dslash_tables(geo, EVEN)
        # Gauge ghost: own U_t on the last timeslice (periodic wrap).
        vs = geo.spatial_volume
        dg.set_ghost(gauge.data[3][-vs:])
        # Spinor faces: backward gather -> own FORWARD ghost, etc.
        halves_b, norms_b = gather_face_kernel(gpu, tables_any, src, BACKWARD, dagger=dagger)
        halves_f, norms_f = gather_face_kernel(gpu, tables_any, src, FORWARD, dagger=dagger)
        src.set_ghost(FORWARD, halves_b, norms_b)
        src.set_ghost(BACKWARD, halves_f, norms_f)

    @pytest.mark.parametrize("prec", list(Precision))
    @pytest.mark.parametrize("target", [EVEN, ODD])
    def test_partitioned_equals_wrapped(self, gpu, geo, gauge, rng, prec, target):
        psi = _rand_cb(rng, geo)
        dg, src, dst = _upload(gpu, geo, gauge, psi, prec, faces=True)
        self._self_exchange(gpu, geo, dg, gauge, src)
        tables = dslash_tables(geo, target)
        dslash_kernel(gpu, tables, dg, src, dst, partitioned=(3,))
        expected = dslash_parity(gauge, psi, target)
        assert _rel_err(dst.get(), expected) < TOL[prec]

    def test_partitioned_dagger(self, gpu, geo, gauge, rng):
        psi = _rand_cb(rng, geo)
        dg, src, dst = _upload(gpu, geo, gauge, psi, Precision.DOUBLE, faces=True)
        self._self_exchange(gpu, geo, dg, gauge, src, dagger=True)
        dslash_kernel(
            gpu, dslash_tables(geo, EVEN), dg, src, dst, partitioned=(3,), dagger=True
        )
        expected = dslash_parity(gauge, psi, EVEN, dagger=True)
        np.testing.assert_allclose(dst.get(), expected, atol=1e-12)

    def test_interior_plus_boundary_equals_full(self, gpu, geo, gauge, rng):
        """The overlap strategy's pair — the interior charged alone, then
        the boundary kernel — computes the wrapped dslash."""
        psi = _rand_cb(rng, geo)
        dg, src, dst = _upload(gpu, geo, gauge, psi, Precision.DOUBLE, faces=True)
        self._self_exchange(gpu, geo, dg, gauge, src)
        tables = dslash_tables(geo, EVEN)
        dst.zero()
        dslash_launch(gpu, tables, dg, src, region="interior", partitioned=(3,))
        dslash_kernel(gpu, tables, dg, src, dst, region="boundary", partitioned=(3,))
        expected = dslash_parity(gauge, psi, EVEN)
        np.testing.assert_allclose(dst.get(), expected, atol=1e-12)

    def test_whole_parity_charges_its_region_and_computes_every_row(
        self, gpu, geo, gauge, rng
    ):
        """The overlapped exchange's pair: ``dslash_launch`` charges the
        interior, the boundary kernel charges the rest and stores the full
        parity's result, bit for bit."""
        psi = _rand_cb(rng, geo)
        dg, src, full = _upload(gpu, geo, gauge, psi, Precision.SINGLE, faces=True)
        self._self_exchange(gpu, geo, dg, gauge, src)
        split = DeviceSpinorField(
            gpu, sites=geo.half_volume, precision=Precision.SINGLE,
            faces={3: geo.spatial_half_volume}, label="split",
        )
        tables = dslash_tables(geo, EVEN)
        dslash_kernel(gpu, tables, dg, src, full, partitioned=(3,))
        full_op = gpu.timeline.ops[-1]
        dslash_launch(gpu, tables, dg, src, region="interior", partitioned=(3,))
        dslash_kernel(gpu, tables, dg, src, split, region="boundary", partitioned=(3,))
        interior_op, boundary_op = gpu.timeline.ops[-2:]
        assert (interior_op.name, boundary_op.name) == (
            "dslash[interior]", "dslash[boundary]"
        )
        per_site = full_op.flops // geo.half_volume
        rows = [op.flops // per_site for op in (interior_op, boundary_op)]
        assert 0 < rows[1] < geo.half_volume and sum(rows) == geo.half_volume
        np.testing.assert_array_equal(split._store.array, full._store.array)

    def test_interior_kernel_refused(self, gpu, geo, gauge, rng):
        """The interior kernel computes nothing on its own: its charge is
        ``dslash_launch``'s, and ``dslash_kernel`` says so."""
        dg, src, dst = _upload(
            gpu, geo, gauge, _rand_cb(rng, geo), Precision.DOUBLE, faces=True
        )
        ops = len(gpu.timeline.ops)
        with pytest.raises(ValueError, match="dslash_launch"):
            dslash_kernel(
                gpu, dslash_tables(geo, EVEN), dg, src, dst, region="interior",
                partitioned=(3,),
            )
        assert len(gpu.timeline.ops) == ops

    def test_gather_projects_correctly(self, gpu, geo, gauge, rng):
        """The packed face is Q(sign) psi on the right timeslice."""
        psi = _rand_cb(rng, geo)
        _, src, _ = _upload(gpu, geo, gauge, psi, Precision.DOUBLE, faces=True)
        tables = dslash_tables(geo, EVEN)
        halves, _ = gather_face_kernel(gpu, tables, src, BACKWARD)
        q, _r = _gamma.projector_decomposition(3, -1, "degrand_rossi")
        expected = np.einsum("ht,xta->xha", q, psi[tables.face(T_DIR).gather_low])
        np.testing.assert_allclose(halves, expected, atol=1e-12)

    def test_bad_direction_rejected(self, gpu, geo, gauge, rng):
        _, src, _ = _upload(gpu, geo, gauge, _rand_cb(rng, geo), Precision.DOUBLE)
        with pytest.raises(ValueError, match="direction"):
            gather_face_kernel(gpu, dslash_tables(geo, EVEN), src, "sideways")


class TestAccounting:
    def test_paper_arithmetic_intensity(self, gpu, geo, gauge, rng):
        """The two fused kernels of one matrix application move 744 reals
        and execute 3696 flops per site — Section V-A's numbers."""
        dg, src, dst = _upload(gpu, geo, gauge, _rand_cb(rng, geo), Precision.SINGLE)
        inner = dslash_site_bytes(
            Precision.SINGLE, dg, fused_clover=True, fused_xpay=False
        )
        outer = dslash_site_bytes(
            Precision.SINGLE, dg, fused_clover=True, fused_xpay=True
        )
        assert inner + outer == 2976
        from repro.gpu.kernels import (
            CLOVER_FLOPS_PER_SITE,
            DSLASH_FLOPS_PER_SITE,
            XPAY_FLOPS_PER_SITE,
        )

        total_flops = 2 * (DSLASH_FLOPS_PER_SITE + CLOVER_FLOPS_PER_SITE) + (
            XPAY_FLOPS_PER_SITE
        )
        assert total_flops == 3696

    def test_kernel_records_traffic(self, gpu, geo, gauge, rng):
        dg, src, dst = _upload(gpu, geo, gauge, _rand_cb(rng, geo), Precision.SINGLE)
        dslash_kernel(gpu, dslash_tables(geo, EVEN), dg, src, dst)
        op = gpu.timeline.ops[-1]
        assert op.kind == "kernel"
        assert op.nbytes > 0 and op.flops == geo.half_volume * 1320

    def test_region_traffic_scales_with_rows(self, gpu, geo, gauge, rng):
        dg, src, dst = _upload(gpu, geo, gauge, _rand_cb(rng, geo), Precision.SINGLE, faces=True)
        tables = dslash_tables(geo, EVEN)
        dslash_launch(gpu, tables, dg, src, region="interior", partitioned=(3,))
        dslash_kernel(gpu, tables, dg, src, dst, region="boundary", partitioned=(3,))
        k_int, k_bnd = gpu.timeline.ops[-2], gpu.timeline.ops[-1]
        assert k_int.nbytes + k_bnd.nbytes == geo.half_volume * dslash_site_bytes(
            Precision.SINGLE, dg, fused_clover=False, fused_xpay=False
        )

    def test_timing_only_mode_runs(self, geo, gauge, rng):
        gpu = VirtualGPU(enforce_memory=False, execute=False)
        dg = DeviceGaugeField(gpu, sites=geo.volume, precision=Precision.SINGLE)
        src = DeviceSpinorField(gpu, sites=geo.half_volume, precision=Precision.SINGLE)
        dst = DeviceSpinorField(
            gpu, sites=geo.half_volume, precision=Precision.SINGLE, label="dst"
        )
        dslash_kernel(gpu, dslash_tables(geo, EVEN), dg, src, dst)
        assert gpu.timeline.ops[-1].flops == geo.half_volume * 1320
