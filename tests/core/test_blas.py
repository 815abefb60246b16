"""Tests for the fused device BLAS kernels."""

import numpy as np
import pytest

from repro.comms import QMPMachine, run_spmd
from repro.core import blas
from repro.gpu import DeviceSpinorField, Precision, VirtualGPU


@pytest.fixture
def gpu():
    return VirtualGPU(enforce_memory=False)


def _field(gpu, rng, sites=48, precision=Precision.DOUBLE, label="f"):
    f = DeviceSpinorField(gpu, sites=sites, precision=precision, label=label)
    data = rng.standard_normal((sites, 4, 3)) + 1j * rng.standard_normal((sites, 4, 3))
    f.set(data)
    return f, data


class TestStreamingOps:
    def test_copy(self, gpu, rng):
        x, xd = _field(gpu, rng)
        y, _ = _field(gpu, rng, label="y")
        blas.copy(gpu, x, y)
        np.testing.assert_allclose(y.get(), xd, atol=1e-14)

    def test_copy_converts_precision(self, gpu, rng):
        x, xd = _field(gpu, rng, precision=Precision.DOUBLE)
        y = DeviceSpinorField(gpu, sites=48, precision=Precision.HALF, label="y")
        blas.copy(gpu, x, y)
        assert np.max(np.abs(y.get() - xd)) < 1e-3 * np.max(np.abs(xd))

    def test_zero(self, gpu, rng):
        x, _ = _field(gpu, rng)
        blas.zero(gpu, x)
        assert np.all(x.get() == 0)

    def test_scale(self, gpu, rng):
        x, xd = _field(gpu, rng)
        blas.scale(gpu, 2 - 1j, x)
        np.testing.assert_allclose(x.get(), (2 - 1j) * xd, atol=1e-13)

    def test_axpy(self, gpu, rng):
        x, xd = _field(gpu, rng)
        y, yd = _field(gpu, rng, label="y")
        blas.axpy(gpu, 0.5 + 2j, x, y)
        np.testing.assert_allclose(y.get(), yd + (0.5 + 2j) * xd, atol=1e-13)

    def test_xpay(self, gpu, rng):
        x, xd = _field(gpu, rng)
        y, yd = _field(gpu, rng, label="y")
        blas.xpay(gpu, x, -0.25, y)
        np.testing.assert_allclose(y.get(), xd - 0.25 * yd, atol=1e-13)

    def test_axpby(self, gpu, rng):
        x, xd = _field(gpu, rng)
        y, yd = _field(gpu, rng, label="y")
        blas.axpby(gpu, 2.0, x, 1j, y)
        np.testing.assert_allclose(y.get(), 2 * xd + 1j * yd, atol=1e-13)

    def test_update_p(self, gpu, rng):
        r, rd = _field(gpu, rng)
        p, pd = _field(gpu, rng, label="p")
        v, vd = _field(gpu, rng, label="v")
        beta, omega = 0.3 - 0.1j, 1.2 + 0.4j
        blas.update_p(gpu, r, p, v, beta, omega)
        np.testing.assert_allclose(p.get(), rd + beta * (pd - omega * vd), atol=1e-13)

    def test_caxpy_pair(self, gpu, rng):
        x, xd = _field(gpu, rng)
        y, yd = _field(gpu, rng, label="y")
        z, zd = _field(gpu, rng, label="z")
        a, b = 0.7 + 0.2j, -1.1j
        blas.caxpy_pair(gpu, a, x, b, y, z)
        np.testing.assert_allclose(z.get(), zd + a * xd + b * yd, atol=1e-13)


class TestReductions:
    def test_norm2(self, gpu, rng):
        x, xd = _field(gpu, rng)
        assert blas.norm2(gpu, x) == pytest.approx(np.vdot(xd, xd).real)

    def test_cdot(self, gpu, rng):
        x, xd = _field(gpu, rng)
        y, yd = _field(gpu, rng, label="y")
        assert blas.cdot(gpu, x, y) == pytest.approx(complex(np.vdot(xd, yd)))

    def test_redot(self, gpu, rng):
        x, xd = _field(gpu, rng)
        y, yd = _field(gpu, rng, label="y")
        assert blas.redot(gpu, x, y) == pytest.approx(np.vdot(xd, yd).real)

    def test_cdot_norm_fused(self, gpu, rng):
        x, xd = _field(gpu, rng)
        y, yd = _field(gpu, rng, label="y")
        d, n = blas.cdot_norm(gpu, x, y)
        assert d == pytest.approx(complex(np.vdot(xd, yd)))
        assert n == pytest.approx(np.vdot(xd, xd).real)

    def test_axpy_norm_fused(self, gpu, rng):
        x, xd = _field(gpu, rng)
        y, yd = _field(gpu, rng, label="y")
        out = blas.axpy_norm(gpu, -2.0, x, y)
        expected = yd - 2.0 * xd
        np.testing.assert_allclose(y.get(), expected, atol=1e-13)
        assert out == pytest.approx(np.vdot(expected, expected).real)

    def test_distributed_reduction_matches_serial(self, rng):
        """Partial sums + QMP global sum == the serial reduction."""
        full = rng.standard_normal((64, 4, 3)) + 1j * rng.standard_normal((64, 4, 3))
        expected = float(np.vdot(full, full).real)

        def fn(comm):
            gpu = VirtualGPU(enforce_memory=False)
            qmp = QMPMachine(comm)
            lo = 16 * comm.rank
            f = DeviceSpinorField(gpu, sites=16, precision=Precision.DOUBLE)
            f.set(full[lo : lo + 16])
            return blas.norm2(gpu, f, qmp)

        for r in run_spmd(4, fn):
            assert r == pytest.approx(expected, rel=1e-12)

    def test_endzone_excluded_from_reductions(self, gpu, rng):
        """Ghost faces never pollute norms (Section VI-C's design goal)."""
        f = DeviceSpinorField(gpu, sites=32, precision=Precision.DOUBLE, faces={3: 8})
        data = rng.standard_normal((32, 4, 3)) + 0j
        f.set(data)
        garbage = 1e6 * (rng.standard_normal((8, 2, 3)) + 0j)
        f.set_ghost("backward", garbage)
        f.set_ghost("forward", garbage)
        assert blas.norm2(gpu, f) == pytest.approx(np.vdot(data, data).real)


class TestAccountingAndTimingOnly:
    def test_each_op_is_one_kernel(self, gpu, rng):
        x, _ = _field(gpu, rng)
        y, _ = _field(gpu, rng, label="y")
        n0 = gpu.timeline.op_count
        blas.axpy(gpu, 1.0, x, y)
        assert gpu.timeline.op_count == n0 + 1

    def test_fusion_saves_traffic(self, gpu, rng):
        """axpy_norm must move less than axpy + norm2 separately."""
        x, _ = _field(gpu, rng)
        y, _ = _field(gpu, rng, label="y")
        blas.axpy_norm(gpu, 1.0, x, y)
        fused = gpu.timeline.ops[-1].nbytes
        blas.axpy(gpu, 1.0, x, y)
        blas.norm2(gpu, y)
        separate = gpu.timeline.ops[-2].nbytes + gpu.timeline.ops[-1].nbytes
        assert fused < separate

    def test_timing_only_returns_zero_scalars(self):
        gpu = VirtualGPU(enforce_memory=False, execute=False)
        x = DeviceSpinorField(gpu, sites=16, precision=Precision.SINGLE)
        y = DeviceSpinorField(gpu, sites=16, precision=Precision.SINGLE, label="y")
        assert blas.norm2(gpu, x) == 0.0
        assert blas.cdot(gpu, x, y) == 0j
        blas.axpy(gpu, 1.0, x, y)  # charges time, touches nothing
        # Each reduction is a kernel + a result read-back copy.
        kinds = [op.kind for op in gpu.timeline.ops]
        assert kinds == ["kernel", "d2h", "kernel", "d2h", "kernel"]

    def test_half_precision_ops_within_tolerance(self, gpu, rng):
        x, xd = _field(gpu, rng, precision=Precision.HALF)
        y, yd = _field(gpu, rng, precision=Precision.HALF, label="y")
        blas.axpy(gpu, 0.5, x, y)
        scale = np.max(np.abs(yd + 0.5 * xd))
        assert np.max(np.abs(y.get() - (yd + 0.5 * xd))) < 1e-3 * scale
