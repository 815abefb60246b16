"""Tests for the calibrated timing model."""

import pytest

from repro.gpu.perfmodel import (
    DEFAULT_PARAMS,
    PerfModelParams,
    kernel_time,
    occupancy_factor,
    pcie_time,
)
from repro.gpu.precision import Precision
from repro.gpu.specs import GTX285


class TestKernelTime:
    def test_bandwidth_bound_scaling(self):
        t1 = kernel_time(GTX285, DEFAULT_PARAMS, Precision.SINGLE, 10**6, 10**3)
        t2 = kernel_time(GTX285, DEFAULT_PARAMS, Precision.SINGLE, 2 * 10**6, 10**3)
        overhead = DEFAULT_PARAMS.kernel_overhead_s
        assert (t2 - overhead) == pytest.approx(2 * (t1 - overhead), rel=1e-6)

    def test_half_faster_than_single_faster_than_double(self):
        """Same logical field, bytes scale with precision: half wins."""
        flops = 3696 * 10**4
        times = {
            p: kernel_time(
                GTX285, DEFAULT_PARAMS, p, 744 * p.real_bytes * 10**4, flops
            )
            for p in Precision
        }
        assert times[Precision.HALF] < times[Precision.SINGLE] < times[Precision.DOUBLE]

    def test_double_hits_compute_bound(self):
        """With few bytes but many flops, double is limited by the 88
        Gflops DP peak of the GTX 285 — why double strong-scales best."""
        t = kernel_time(GTX285, DEFAULT_PARAMS, Precision.DOUBLE, 100, 88 * 10**6)
        assert t >= 1e-3  # 88 Mflop at 88 Gflops = 1 ms

    def test_camping_penalty(self):
        t_ok = kernel_time(GTX285, DEFAULT_PARAMS, Precision.SINGLE, 10**7, 10**3)
        t_camp = kernel_time(
            GTX285, DEFAULT_PARAMS, Precision.SINGLE, 10**7, 10**3, camping=True
        )
        assert t_camp > 1.5 * t_ok

    def test_low_occupancy_slower(self):
        t_full = kernel_time(GTX285, DEFAULT_PARAMS, Precision.SINGLE, 10**7, 0)
        t_low = kernel_time(
            GTX285, DEFAULT_PARAMS, Precision.SINGLE, 10**7, 0, occupancy=0.1
        )
        assert t_low > t_full


class TestOccupancyFactor:
    def test_saturates(self):
        assert occupancy_factor(1.0) == 1.0
        assert occupancy_factor(0.6) == 1.0

    def test_monotone(self):
        vals = [occupancy_factor(x) for x in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert vals == sorted(vals)

    def test_validated(self):
        with pytest.raises(ValueError):
            occupancy_factor(0.0)
        with pytest.raises(ValueError):
            occupancy_factor(1.5)


class TestPCIe:
    def test_sync_latency_is_11us(self):
        """Fig. 7: synchronous cudaMemcpy latency ~11 microseconds."""
        t = pcie_time(DEFAULT_PARAMS, 0, "h2d", asynchronous=False)
        assert t == pytest.approx(11e-6)

    def test_async_latency_just_under_50us(self):
        """Fig. 7: cudaMemcpyAsync + synchronize ~ 50 microseconds."""
        t = pcie_time(DEFAULT_PARAMS, 0, "h2d", asynchronous=True)
        assert 40e-6 < t < 50e-6

    def test_async_crossover(self):
        """Small messages: sync wins (Fig. 5(b)'s cause).  Large messages:
        the latency difference washes out."""
        small_sync = pcie_time(DEFAULT_PARAMS, 1024, "d2h", asynchronous=False)
        small_async = pcie_time(DEFAULT_PARAMS, 1024, "d2h", asynchronous=True)
        assert small_async > 3 * small_sync
        big_sync = pcie_time(DEFAULT_PARAMS, 2**24, "d2h", asynchronous=False)
        big_async = pcie_time(DEFAULT_PARAMS, 2**24, "d2h", asynchronous=True)
        assert big_async < 1.02 * big_sync

    def test_h2d_and_d2h_differ(self):
        """Fig. 7: 'different gradients for the host-to-device and
        device-to-host transfers'."""
        n = 2**20
        t_h2d = pcie_time(DEFAULT_PARAMS, n, "h2d", asynchronous=False)
        t_d2h = pcie_time(DEFAULT_PARAMS, n, "d2h", asynchronous=False)
        assert t_h2d != t_d2h

    def test_numa_penalty(self):
        """Bad socket binding degrades bandwidth (Fig. 5(a) maroon)."""
        n = 2**20
        good = pcie_time(DEFAULT_PARAMS, n, "h2d", asynchronous=False, numa_ok=True)
        bad = pcie_time(DEFAULT_PARAMS, n, "h2d", asynchronous=False, numa_ok=False)
        assert bad > 1.3 * good

    def test_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            pcie_time(DEFAULT_PARAMS, 10, "both", asynchronous=False)


class TestCalibration:
    def test_single_gpu_matvec_rates(self):
        """The headline calibration: Wilson-clover matrix-vector rates on
        one GTX 285, at the dslash's *tuned* occupancy, land near the
        known QUDA numbers (single ~110-130, half ~170-220, double
        ~35-55 effective Gflops)."""
        from repro.core.autotune import autotune

        cache = autotune(GTX285)
        sites = 24**3 * 32
        rates = {}
        for prec in Precision:
            nbytes = sites * (744 * prec.real_bytes + (44 if prec.needs_norm else 0))
            flops = sites * 3696
            occ = cache.occupancy("dslash", prec)
            t = kernel_time(GTX285, DEFAULT_PARAMS, prec, nbytes, flops, occupancy=occ)
            rates[prec] = flops / t / 1e9
        assert 100 < rates[Precision.SINGLE] < 135
        assert 160 < rates[Precision.HALF] < 230
        assert 35 < rates[Precision.DOUBLE] < 55

    def test_effective_bandwidth_memo_is_per_instance_and_exact(self):
        """The memoized bandwidth equals the formula, on a miss and on a
        hit, and two params instances never share an entry."""
        fast = PerfModelParams()
        camped = PerfModelParams(camping_penalty=0.25)
        for params in (fast, camped, fast, camped):
            for camping in (False, True):
                want = (
                    GTX285.bandwidth_gbs
                    * 1e9
                    * params.bw_efficiency[Precision.SINGLE]
                    * occupancy_factor(0.25)
                    * (params.camping_penalty if camping else 1.0)
                )
                got = params.effective_bandwidth(
                    GTX285, Precision.SINGLE, occupancy=0.25, camping=camping
                )
                assert got == pytest.approx(want, rel=1e-15)

    def test_params_are_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_PARAMS.ib_bw = 1.0

    def test_custom_params(self):
        slow = PerfModelParams(pcie_bw_h2d=1e9)
        t = pcie_time(slow, 10**6, "h2d", asynchronous=False)
        assert t > pcie_time(DEFAULT_PARAMS, 10**6, "h2d", asynchronous=False)
