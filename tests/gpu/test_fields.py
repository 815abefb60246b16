"""Tests for device field containers at every precision."""

import numpy as np
import pytest

from repro.gpu import (
    FORWARD,
    DeviceCloverField,
    DeviceGaugeField,
    DeviceSpinorField,
    Precision,
    VirtualGPU,
)
from repro.lattice import LatticeGeometry, make_clover, weak_field_gauge


@pytest.fixture
def gpu():
    return VirtualGPU(enforce_memory=False)


def _random_spinor_data(rng, sites):
    return rng.standard_normal((sites, 4, 3)) + 1j * rng.standard_normal((sites, 4, 3))


class TestDeviceSpinor:
    @pytest.mark.parametrize("prec", list(Precision))
    def test_set_get_roundtrip(self, gpu, rng, prec):
        f = DeviceSpinorField(gpu, sites=64, precision=prec)
        data = _random_spinor_data(rng, 64)
        f.set(data)
        tol = {Precision.DOUBLE: 1e-15, Precision.SINGLE: 1e-6, Precision.HALF: 2e-4}
        err = np.max(np.abs(f.get() - data)) / np.max(np.abs(data))
        assert err < tol[prec]

    def test_half_storage_is_int16(self, gpu, rng):
        f = DeviceSpinorField(gpu, sites=16, precision=Precision.HALF)
        f.set(_random_spinor_data(rng, 16))
        assert f._store.array.dtype == np.int16
        assert f._norms.dtype == np.float32

    def test_precision_converting_copy(self, gpu, rng):
        hi = DeviceSpinorField(gpu, sites=32, precision=Precision.DOUBLE)
        lo = DeviceSpinorField(gpu, sites=32, precision=Precision.HALF)
        data = _random_spinor_data(rng, 32)
        hi.set(data)
        lo.copy_from(hi)
        assert np.max(np.abs(lo.get() - data)) < 1e-3 * np.max(np.abs(data))

    def test_zero(self, gpu, rng):
        f = DeviceSpinorField(gpu, sites=16, precision=Precision.SINGLE)
        f.set(_random_spinor_data(rng, 16))
        f.zero()
        np.testing.assert_array_equal(f.get(), 0.0)

    def test_shape_validated(self, gpu):
        f = DeviceSpinorField(gpu, sites=16, precision=Precision.SINGLE)
        with pytest.raises(ValueError, match="expected"):
            f.set(np.zeros((15, 4, 3), dtype=complex))

    @pytest.mark.parametrize("prec", list(Precision))
    def test_working_rows_is_a_slice_of_working(self, gpu, rng, prec):
        f = DeviceSpinorField(gpu, sites=64, precision=prec)
        f.set(_random_spinor_data(rng, 64))
        rows = rng.permutation(64)[:20]
        np.testing.assert_array_equal(f.working(rows), f.working()[rows])
        assert f.working().dtype == prec.complex_compute_dtype

    @pytest.mark.parametrize("prec", [Precision.DOUBLE, Precision.SINGLE])
    def test_working_is_the_store_unless_half(self, gpu, prec):
        f = DeviceSpinorField(gpu, sites=16, precision=prec)
        assert f.working() is f._store.array

    @pytest.mark.parametrize("prec", list(Precision))
    def test_ghost_roundtrip(self, gpu, rng, prec):
        f = DeviceSpinorField(gpu, sites=64, precision=prec, faces={3: 8})
        halves = rng.standard_normal((8, 2, 3)) + 1j * rng.standard_normal((8, 2, 3))
        f.set_ghost(FORWARD, halves)
        tol = {Precision.DOUBLE: 1e-15, Precision.SINGLE: 1e-6, Precision.HALF: 2e-4}
        err = np.max(np.abs(f.get_ghost(FORWARD) - halves)) / np.max(np.abs(halves))
        assert err < tol[prec]

    def test_half_ghost_with_sent_norms_stores_what_quantizing_would(self, gpu, rng):
        """A face whose norms bound it (every face a solve sends) stores
        exactly what quantizing it afresh would."""
        f = DeviceSpinorField(gpu, sites=64, precision=Precision.HALF, faces={3: 8})
        halves = (
            rng.standard_normal((8, 2, 3)) + 1j * rng.standard_normal((8, 2, 3))
        ).astype(np.complex64)
        halves[3] = 0.0
        norms = np.maximum(np.abs(halves.real), np.abs(halves.imag)).reshape(8, -1).max(axis=1)
        f.set_ghost(FORWARD, halves)
        fresh = f._ghost[(3, FORWARD)].copy(), f._ghost_norms[(3, FORWARD)].copy()
        f.set_ghost(FORWARD, halves, norms.astype(np.float32))
        np.testing.assert_array_equal(f._ghost[(3, FORWARD)], fresh[0])
        np.testing.assert_array_equal(f._ghost_norms[(3, FORWARD)], fresh[1])

    def test_half_ghost_saturates_beyond_its_norm(self, gpu):
        """A component beyond the norm it was sent with saturates at the
        norm; it must not wrap around int16."""
        f = DeviceSpinorField(gpu, sites=64, precision=Precision.HALF, faces={3: 8})
        halves = np.full((8, 2, 3), 1.0 + 0.5j)
        f.set_ghost(FORWARD, halves, np.full(8, 0.5, dtype=np.float32))
        assert f._ghost[(3, FORWARD)].min() == 32767
        np.testing.assert_allclose(f.get_ghost(FORWARD), 0.5 + 0.5j, rtol=1e-6)

    def test_endzone_sized_like_paper(self, gpu):
        """Section VI-C: end zone = 24 Vs components (2 faces x 12)."""
        f = DeviceSpinorField(gpu, sites=64, precision=Precision.SINGLE, faces={3: 8})
        assert f.layout.endzone_reals == 24 * 8

    def test_half_norm_endzone(self, gpu):
        """Half precision adds a 2 Vs norm end zone (Section VI-C)."""
        plain = DeviceSpinorField(gpu, sites=64, precision=Precision.HALF)
        ghosted = DeviceSpinorField(
            gpu, sites=64, precision=Precision.HALF, faces={3: 8}
        )
        extra = ghosted.nbytes - plain.nbytes
        # 2 faces x 8 sites x 12 int16 reals + 2 x 8 norm floats.
        assert extra >= 2 * 8 * 12 * 2 + 2 * 8 * 4

    def test_face_message_bytes(self, gpu):
        f = DeviceSpinorField(gpu, sites=64, precision=Precision.SINGLE, faces={3: 8})
        assert f.face_message_bytes() == 8 * 12 * 4
        h = DeviceSpinorField(gpu, sites=64, precision=Precision.HALF, faces={3: 8})
        assert h.face_message_bytes() == 8 * 12 * 2 + 8 * 4  # + norms

    def test_memory_accounting_includes_pad(self, gpu):
        bare = DeviceSpinorField(gpu, sites=64, precision=Precision.SINGLE)
        padded = DeviceSpinorField(
            gpu, sites=64, precision=Precision.SINGLE, pad_sites=16, label="padded"
        )
        assert padded.nbytes > bare.nbytes

    def test_timing_only_mode(self):
        gpu = VirtualGPU(enforce_memory=False, execute=False)
        f = DeviceSpinorField(gpu, sites=1024, precision=Precision.SINGLE)
        f.set(np.zeros((1024, 4, 3), dtype=complex))  # silently skipped
        with pytest.raises(RuntimeError, match="timing-only"):
            f.get()


class TestDeviceGauge:
    @pytest.fixture
    def host_gauge(self, rng):
        geo = LatticeGeometry((4, 4, 4, 4))
        return weak_field_gauge(geo, rng, noise=0.2)

    @pytest.mark.parametrize("prec", list(Precision))
    @pytest.mark.parametrize("compressed", [True, False])
    def test_roundtrip(self, gpu, host_gauge, prec, compressed):
        f = DeviceGaugeField(
            gpu, sites=host_gauge.geometry.volume, precision=prec, compressed=compressed
        )
        f.set(host_gauge.data)
        tol = {Precision.DOUBLE: 1e-14, Precision.SINGLE: 1e-6, Precision.HALF: 3e-4}
        for mu in range(4):
            err = np.max(np.abs(f.links(mu) - host_gauge.data[mu]))
            assert err < tol[prec]

    def test_compression_saves_traffic(self, gpu):
        c = DeviceGaugeField(gpu, sites=64, precision=Precision.SINGLE, compressed=True)
        full = DeviceGaugeField(
            gpu, sites=64, precision=Precision.SINGLE, compressed=False, label="full"
        )
        assert c.matvec_link_bytes() == 48  # 12 reals
        assert full.matvec_link_bytes() == 72  # 18 reals

    def test_ghost_fits_in_pad(self, gpu, host_gauge, rng):
        vs = host_gauge.geometry.spatial_volume
        f = DeviceGaugeField(
            gpu,
            sites=host_gauge.geometry.volume,
            precision=Precision.SINGLE,
            ghosts={3: vs},
            pad_sites=vs,
        )
        f.set(host_gauge.data)
        slice_links = host_gauge.data[3][-vs:]
        f.set_ghost(slice_links)
        np.testing.assert_allclose(f.ghost_links(), slice_links, atol=1e-6)

    def test_ghost_must_fit_in_pad(self, gpu):
        with pytest.raises(ValueError, match="does not fit in the pad"):
            DeviceGaugeField(
                gpu, sites=64, precision=Precision.SINGLE, ghosts={3: 16}, pad_sites=8
            )

    def test_half_reconstruction_still_unitary_ish(self, gpu, host_gauge):
        """Reconstructed third row from quantized rows stays near SU(3)."""
        from repro.lattice import su3

        f = DeviceGaugeField(
            gpu,
            sites=host_gauge.geometry.volume,
            precision=Precision.HALF,
            compressed=True,
        )
        f.set(host_gauge.data)
        assert su3.max_unitarity_violation(f.links(0)) < 1e-3


class TestDeviceClover:
    @pytest.fixture
    def host_clover(self, rng):
        geo = LatticeGeometry((4, 4, 4, 4))
        gauge = weak_field_gauge(geo, rng, noise=0.2)
        return make_clover(gauge)

    @pytest.mark.parametrize("prec", list(Precision))
    def test_roundtrip(self, gpu, host_clover, prec):
        v = host_clover.geometry.volume
        f = DeviceCloverField(gpu, sites=v, precision=prec)
        f.set(host_clover.data)
        tol = {Precision.DOUBLE: 1e-14, Precision.SINGLE: 1e-6, Precision.HALF: 1e-3}
        scale = np.max(np.abs(host_clover.data))
        assert np.max(np.abs(f.blocks() - host_clover.data)) < tol[prec] * max(
            scale, 1.0
        )

    @pytest.mark.parametrize("prec", list(Precision))
    def test_blocks_of_rows(self, gpu, host_clover, rng, prec):
        """The codec is sitewise: the blocks of any rows are what a field
        holding only those rows decodes to."""
        v = host_clover.geometry.volume
        f = DeviceCloverField(gpu, sites=v, precision=prec)
        f.set(host_clover.data)
        rows = rng.permutation(v)[:50]
        part = DeviceCloverField(gpu, sites=rows.size, precision=prec, label="part")
        part.set(host_clover.data[rows])
        np.testing.assert_array_equal(part.blocks(), f.blocks()[rows])

    def test_half_blocks_are_hermitian(self, gpu, host_clover):
        """The packed format stores the lower triangle; decoding fills the
        upper one with its conjugate and keeps the diagonal real."""
        v = host_clover.geometry.volume
        f = DeviceCloverField(gpu, sites=v, precision=Precision.HALF)
        f.set(host_clover.data)
        blocks = f.blocks()
        assert blocks.dtype == np.complex64
        np.testing.assert_array_equal(blocks, np.conj(np.swapaxes(blocks, -1, -2)))

    def test_apply_matches_host(self, gpu, host_clover, rng):
        v = host_clover.geometry.volume
        f = DeviceCloverField(gpu, sites=v, precision=Precision.DOUBLE)
        f.set(host_clover.data)
        psi = _random_spinor_data(rng, v)
        np.testing.assert_allclose(f.apply(psi), host_clover.apply(psi), atol=1e-12)

    def test_site_bytes(self, gpu):
        f = DeviceCloverField(gpu, sites=16, precision=Precision.SINGLE)
        assert f.site_bytes() == 72 * 4
        h = DeviceCloverField(gpu, sites=16, precision=Precision.HALF)
        assert h.site_bytes() == 72 * 2 + 4


class TestDeviceMemoryPressure:
    def test_fields_count_against_capacity(self):
        """A 2 GiB card refuses fields beyond its capacity."""
        from repro.gpu.memory import DeviceOutOfMemoryError

        gpu = VirtualGPU(execute=False)  # timing-only: no host RAM needed
        sites = 32**3 * 256 // 2
        # Double-precision spinors at the full 32^3 x 256 problem are
        # ~100 MiB apiece; pile them up until OOM.
        with pytest.raises(DeviceOutOfMemoryError):
            for i in range(40):
                DeviceSpinorField(
                    gpu, sites=sites, precision=Precision.DOUBLE, label=f"v{i}"
                )
