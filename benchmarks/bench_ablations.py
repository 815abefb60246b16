"""Ablations of the design choices DESIGN.md calls out.

Each bench switches one of the paper's optimizations off and measures the
cost: the pad vs partition camping (Section V-B), 2-row gauge compression
(V-C1), the non-relativistic-basis face halving (V-C2 / VI-C), half
precision (V-C3), and reliable updates vs defect correction (V-D).
"""

import numpy as np

from repro.core import QudaGaugeParam, invert, invert_model, paper_invert_param
from repro.gpu import GTX285, Precision
from repro.gpu.layout import FieldLayout
from repro.gpu.perfmodel import DEFAULT_PARAMS, kernel_time


def test_partition_camping_ablation(run_once):
    """Section V-B: padding the fields avoids partition camping."""
    # Layout-level: power-of-two volume camps only without the pad.
    lay = FieldLayout(sites=2**15, internal_reals=24, nvec=4, pad_sites=0)
    assert lay.partition_camping(Precision.SINGLE, GTX285)
    padded = FieldLayout(sites=2**15, internal_reals=24, nvec=4, pad_sites=2048)
    assert not padded.partition_camping(Precision.SINGLE, GTX285)
    # Kernel-level penalty.
    t_ok = kernel_time(GTX285, DEFAULT_PARAMS, Precision.SINGLE, 10**8, 10**6)
    t_camp = kernel_time(
        GTX285, DEFAULT_PARAMS, Precision.SINGLE, 10**8, 10**6, camping=True
    )
    assert t_camp / t_ok > 1.5

    # End-to-end: disabling the pad on a camping-prone volume slows the
    # solve (the paper's observed "unexpected loss of performance for
    # certain problem sizes").
    def end_to_end():
        inv = paper_invert_param("single", fixed_iterations=10)
        dims = (16, 16, 16, 16)
        padded = invert_model(
            dims, inv, n_gpus=1, enforce_memory=False,
            gauge_param=QudaGaugeParam(pad_spatial_volume=True),
        )
        unpadded = invert_model(
            dims, inv, n_gpus=1, enforce_memory=False,
            gauge_param=QudaGaugeParam(pad_spatial_volume=False),
        )
        return padded.stats.sustained_gflops / unpadded.stats.sustained_gflops

    ratio = run_once(end_to_end)
    print(f"\npad vs no-pad speedup on 16^4: {ratio:.2f}x")
    assert ratio > 1.2


def test_gauge_compression_ablation(run_once):
    """Section V-C1: 12-number storage cuts gauge traffic by a third —
    faster, and numerically identical (unitarity-exact reconstruction)."""

    def end_to_end():
        inv = paper_invert_param("single", fixed_iterations=10)
        dims = (24, 24, 24, 32)
        out = []
        for flag in (True, False):
            res = invert_model(
                dims, inv, n_gpus=1, enforce_memory=False,
                gauge_param=QudaGaugeParam(reconstruct_12=flag),
            )
            out.append(res.stats.sustained_gflops)
        return out

    fast, slow = run_once(end_to_end)
    ratio = fast / slow
    print(f"\n12-number compression speedup: {ratio:.2f}x")
    assert 1.04 < ratio < 1.30

    # Numerics unchanged (double precision, 2 GPUs).
    from repro.lattice import LatticeGeometry, random_spinor, weak_field_gauge

    rng = np.random.default_rng(3)
    geo = LatticeGeometry((4, 4, 4, 4))
    gauge = weak_field_gauge(geo, rng, 0.1)
    src = random_spinor(geo, rng)
    inv = paper_invert_param("double", mass=0.2)
    sols = [
        invert(
            gauge, src, inv, n_gpus=2,
            gauge_param=QudaGaugeParam(precision="double", reconstruct_12=flag),
        ).solution.data
        for flag in (True, False)
    ]
    np.testing.assert_allclose(sols[0], sols[1], atol=1e-10)


def test_face_traffic_is_half_a_spinor(run_once):
    """Section V-C2 / VI-C: the projected face carries 12 reals per site
    (half of a 24-real spinor) thanks to the non-relativistic basis."""
    from repro.gpu import DeviceSpinorField, VirtualGPU

    def measure():
        gpu = VirtualGPU(enforce_memory=False)
        f = DeviceSpinorField(
            gpu, sites=1024, precision=Precision.SINGLE, faces={3: 128}
        )
        return f.face_message_bytes()

    face_bytes = run_once(measure)
    assert face_bytes == (128 * 24 * 4) // 2


def test_half_precision_speedup(run_once):
    """Section V-C3: half-precision storage roughly doubles the rate."""

    def measure():
        dims = (24, 24, 24, 32)
        rates = {}
        for mode in ("single", "single-half"):
            inv = paper_invert_param(mode, fixed_iterations=10)
            rates[mode] = invert_model(
                dims, inv, n_gpus=1, enforce_memory=False
            ).stats.sustained_gflops
        return rates

    rates = run_once(measure)
    ratio = rates["single-half"] / rates["single"]
    print(f"\nmixed single-half vs uniform single: {ratio:.2f}x")
    assert 1.3 < ratio < 2.2


def test_reliable_updates_vs_defect_correction(run_once):
    """Section V-D: defect correction 'increases the total number of
    solver iterations' vs reliable updates (functional comparison)."""
    from repro.lattice import LatticeGeometry, random_spinor, weak_field_gauge

    def measure():
        rng = np.random.default_rng(17)
        geo = LatticeGeometry((4, 4, 4, 8))
        gauge = weak_field_gauge(geo, rng, 0.15)
        src = random_spinor(geo, rng)
        reliable = invert(
            gauge, src,
            paper_invert_param("double-half", mass=0.2, tol=1e-10),
            n_gpus=1,
        )
        defect = invert(
            gauge, src,
            paper_invert_param(
                "double-half", mass=0.2, tol=1e-10, use_defect_correction=True
            ),
            n_gpus=1,
        )
        return reliable, defect

    reliable, defect = run_once(measure)
    print(
        f"\nreliable updates: {reliable.stats.iterations} sloppy iters "
        f"({reliable.stats.reliable_updates} refreshes); defect "
        f"correction: {defect.stats.iterations} sloppy iters "
        f"({defect.stats.reliable_updates} restarts)"
    )
    assert reliable.stats.converged and defect.stats.converged
    assert defect.stats.iterations >= reliable.stats.iterations
