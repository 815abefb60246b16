"""Tests for the kernel auto-tuner (Section V-E)."""

import pytest

from repro.core.autotune import (
    BLOCK_SIZES,
    KERNEL_REGISTERS,
    autotune,
    occupancy_of,
    tune_sweep_cost_s,
)
from repro.gpu import Precision
from repro.gpu.specs import GTX285


class TestOccupancyModel:
    def test_block_size_validated(self):
        with pytest.raises(ValueError, match="multiple of 64"):
            occupancy_of(GTX285, Precision.SINGLE, 64, 100)

    def test_register_limited(self):
        """A fat kernel at a big block size cannot fill the MP."""
        blocks, occ = occupancy_of(GTX285, Precision.SINGLE, 64, 256)
        assert blocks == 1
        assert occ == pytest.approx(256 / 1024)

    def test_thread_limited(self):
        """A thin kernel saturates the resident-thread ceiling."""
        blocks, occ = occupancy_of(GTX285, Precision.SINGLE, 16, 128)
        assert blocks * 128 == GTX285.max_threads_per_mp
        assert occ == 1.0

    def test_double_register_file_is_smaller(self):
        """Section III: 8,192 registers in double vs 16,384 single."""
        _, occ_sp = occupancy_of(GTX285, Precision.SINGLE, 64, 128)
        _, occ_dp = occupancy_of(GTX285, Precision.DOUBLE, 64, 128)
        assert occ_dp <= occ_sp

    def test_oversized_block_yields_zero(self):
        blocks, occ = occupancy_of(GTX285, Precision.DOUBLE, 120, 512)
        assert blocks == 0 and occ == 0.0


class TestMemoization:
    """The memoized evaluations are pure functions of their arguments: a
    hit returns what a fresh computation returns, keys never alias, and
    argument validation still runs on every call."""

    def test_occupancy_hit_equals_the_formula(self):
        for _ in range(2):  # second pass is served from the cache
            for precision, regs in ((Precision.SINGLE, 64), (Precision.DOUBLE, 112)):
                for block in BLOCK_SIZES:
                    regfile = (
                        GTX285.registers_per_mp_dp
                        if precision is Precision.DOUBLE
                        else GTX285.registers_per_mp_sp
                    )
                    blocks = min(
                        regfile // (regs * block),
                        GTX285.max_threads_per_mp // block,
                        GTX285.max_blocks_per_mp,
                    )
                    occ = blocks * block / GTX285.max_threads_per_mp
                    assert occupancy_of(GTX285, precision, regs, block) == (blocks, occ)

    def test_sweep_cost_hit_equals_a_fresh_computation(self):
        first = tune_sweep_cost_s(GTX285, local_volume=4096)
        assert tune_sweep_cost_s(GTX285, local_volume=4096) == first
        # The unmemoized function is an independent evaluation of the sweep.
        assert tune_sweep_cost_s.__wrapped__(GTX285, local_volume=4096) == first
        assert tune_sweep_cost_s(GTX285, local_volume=8192) > first

    def test_invalid_arguments_rejected_after_a_hit(self):
        occupancy_of(GTX285, Precision.SINGLE, 64, 64)
        tune_sweep_cost_s(GTX285, local_volume=64)
        for _ in range(2):
            with pytest.raises(ValueError):
                occupancy_of(GTX285, Precision.SINGLE, 64, 65)
            with pytest.raises(ValueError):
                tune_sweep_cost_s(GTX285, local_volume=0)


class TestAutotune:
    def test_all_variants_tuned(self):
        cache = autotune(GTX285)
        for kernel in KERNEL_REGISTERS:
            for prec in Precision:
                res = cache.result(kernel, prec)
                assert res.block_size in BLOCK_SIZES
                assert 0 < res.occupancy <= 1.0

    def test_blas_outruns_dslash_occupancy(self):
        """Streaming kernels are register-thin and tune to full occupancy;
        the dslash cannot."""
        cache = autotune(GTX285)
        assert cache.occupancy("blas", Precision.SINGLE) >= cache.occupancy(
            "dslash", Precision.SINGLE
        )

    def test_double_dslash_lower_occupancy(self):
        cache = autotune(GTX285)
        assert cache.occupancy("dslash", Precision.DOUBLE) < cache.occupancy(
            "dslash", Precision.SINGLE
        )

    def test_tuned_block_beats_naive_choice(self):
        """The sweep must never lose to a fixed block size of 512."""
        cache = autotune(GTX285)
        for prec in Precision:
            tuned = cache.result("dslash", prec).occupancy
            _, naive = occupancy_of(
                GTX285, prec, KERNEL_REGISTERS["dslash"][prec], 512
            )
            assert tuned >= naive

    def test_unknown_kernel_default_occupancy(self):
        cache = autotune(GTX285)
        assert cache.occupancy("warp_drive", Precision.SINGLE) == 1.0

    def test_header_generation(self):
        """QUDA writes the tuned values to a header for recompilation."""
        header = autotune(GTX285).as_header()
        assert "#define DSLASH_SINGLE_BLOCK" in header
        assert "GeForce GTX 285" in header
        assert header.count("#define") == 2 * 3 * 3  # 3 kernels x 3 precisions
