"""Tests for precision handling and half (16-bit fixed point) storage."""

import numpy as np
import pytest

from repro.gpu.precision import (
    HALF_SCALE,
    Precision,
    dequantize_block,
    dequantize_normalized,
    half_roundtrip_bound,
    quantize_block,
    quantize_normalized,
)


class TestPrecisionEnum:
    def test_real_bytes(self):
        assert Precision.DOUBLE.real_bytes == 8
        assert Precision.SINGLE.real_bytes == 4
        assert Precision.HALF.real_bytes == 2

    def test_vector_lengths_are_16_or_8_bytes(self):
        """Section V-B: Nvec = 4 single / 2 double (16 bytes each)."""
        assert Precision.SINGLE.vector_length * 4 == 16
        assert Precision.DOUBLE.vector_length * 8 == 16
        assert Precision.HALF.vector_length == 4  # short4

    def test_only_half_needs_norm(self):
        assert Precision.HALF.needs_norm
        assert not Precision.SINGLE.needs_norm
        assert not Precision.DOUBLE.needs_norm

    def test_parse(self):
        assert Precision.parse("half") is Precision.HALF
        assert Precision.parse(Precision.DOUBLE) is Precision.DOUBLE
        with pytest.raises(ValueError, match="unknown precision"):
            Precision.parse("quad")

    def test_half_computes_in_float32(self):
        assert Precision.HALF.compute_dtype == np.float32
        assert Precision.HALF.storage_dtype == np.int16


class TestNormalizedQuantization:
    """The gauge-link path: direct fixed point in [-1, 1]."""

    def test_roundtrip_error_bound(self, rng):
        vals = rng.uniform(-1, 1, size=1000)
        back = dequantize_normalized(quantize_normalized(vals))
        assert np.max(np.abs(back - vals)) <= 0.5 / HALF_SCALE + 1e-7

    def test_endpoints_exact(self):
        q = quantize_normalized(np.array([1.0, -1.0, 0.0]))
        np.testing.assert_array_equal(q, [32767, -32767, 0])

    def test_out_of_range_clipped(self):
        q = quantize_normalized(np.array([1.0 + 1e-9, -1.5]))
        np.testing.assert_array_equal(q, [32767, -32767])

    def test_dtype(self, rng):
        q = quantize_normalized(rng.uniform(-1, 1, 10))
        assert q.dtype == np.int16
        assert dequantize_normalized(q).dtype == np.float32


class TestBlockQuantization:
    """The spinor path: per-site shared norm (paper footnote 2)."""

    def test_roundtrip_error_bound(self, rng):
        reals = rng.standard_normal((100, 24)) * rng.gamma(2.0, size=(100, 1))
        q, norms = quantize_block(reals)
        back = dequantize_block(q, norms)
        bound = half_roundtrip_bound(norms) + 1e-6
        assert np.max(np.abs(back - reals)) <= bound

    def test_norm_is_per_site_max(self, rng):
        reals = rng.standard_normal((50, 24))
        _, norms = quantize_block(reals)
        np.testing.assert_allclose(norms, np.max(np.abs(reals), axis=1), rtol=1e-6)

    def test_max_element_hits_full_scale(self, rng):
        reals = rng.standard_normal((50, 24))
        q, _ = quantize_block(reals)
        assert np.all(np.max(np.abs(q), axis=1) == 32767)

    def test_zero_site_is_exact(self):
        reals = np.zeros((3, 24))
        q, norms = quantize_block(reals)
        np.testing.assert_array_equal(dequantize_block(q, norms), 0.0)
        np.testing.assert_array_equal(norms, 0.0)

    def test_wildly_different_site_scales(self, rng):
        """The per-site norm keeps relative error flat across sites."""
        scales = np.array([1e-6, 1.0, 1e6])
        reals = rng.standard_normal((3, 24)) * scales[:, None]
        q, norms = quantize_block(reals)
        back = dequantize_block(q, norms)
        rel = np.abs(back - reals).max(axis=1) / np.abs(reals).max(axis=1)
        assert np.all(rel < 1e-4)

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="sites"):
            quantize_block(np.zeros(24))

    def test_large_scale_regression(self):
        """Shrunk Hypothesis counterexample (scale ~4.9e7).

        The float32 site norm is a rounded version of the true maximum,
        so quantizing against the *ideal* ratio and decoding in float32
        both drift off the grid at large scales; the codec must pick the
        level whose decoded value is closest.  This exact case exceeded
        the half-step bound by ~1e2 (absolute) before the fix.
        """
        scale = 49157581.0
        reals = np.array([[921033.4375] + [1000000.0] * 23]) * scale
        q, norms = quantize_block(reals)
        back = dequantize_block(q, norms)
        assert np.max(np.abs(back - reals)) <= half_roundtrip_bound(norms) + 1e-30

    def test_half_step_bound_across_scales(self):
        """The roundtrip bound holds at every binade, not just O(1)."""
        rng = np.random.default_rng(7)
        base = rng.uniform(-1.0, 1.0, size=(8, 24))
        for exp in range(-18, 19, 4):
            reals = base * 10.0**exp
            q, norms = quantize_block(reals)
            back = dequantize_block(q, norms)
            assert (
                np.max(np.abs(back - reals))
                <= half_roundtrip_bound(norms) + 1e-30
            )
