"""Tests for the distributed device Schur operator against the host one.

The central correctness claims of the paper's Section VI: the multi-GPU
operator — either communication strategy, any rank count dividing T —
computes exactly what the single-GPU (and host) operator computes.
"""

import numpy as np
import pytest

from repro.comms import QMPMachine, run_spmd
from repro.core.dslash import DeviceSchurOperator
from repro.gpu import Precision, VirtualGPU
from repro.lattice import (
    LatticeGeometry,
    SchurOperator,
    make_clover,
    weak_field_gauge,
)
from repro.lattice.evenodd import EVEN, ODD, full_to_parity, parity_to_full

TOL = {Precision.DOUBLE: 1e-11, Precision.SINGLE: 2e-5, Precision.HALF: 8e-3}
MASS = 0.2


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(11)
    geo = LatticeGeometry((4, 4, 2, 8))
    gauge = weak_field_gauge(geo, rng, noise=0.2)
    clover = make_clover(gauge)
    schur = SchurOperator(gauge, mass=MASS, clover=clover)
    psi_full = rng.standard_normal((geo.volume, 4, 3)) + 1j * rng.standard_normal(
        (geo.volume, 4, 3)
    )
    return geo, gauge, clover, schur, psi_full


def _expected_full(geo, schur, psi_full, dagger=False):
    """Host Mhat application, embedded back into full-volume ordering."""
    psi_e = full_to_parity(geo, psi_full, EVEN)
    out_e = schur.apply(psi_e, dagger=dagger)
    return parity_to_full(geo, out_e, np.zeros_like(out_e))


def _run_distributed(problem, n_ranks, precision, *, overlap, dagger=False, stored=False):
    """``(got, want)`` over every rank, or with ``stored`` each rank's
    stored result: ``(store, norms)``, the int16 store and its norms in
    half precision."""
    geo, gauge, clover, schur, psi_full = problem
    slicing = geo.slice_grid(1, n_ranks)
    expected_full = _expected_full(geo, schur, psi_full, dagger)

    def fn(comm):
        gpu = VirtualGPU(enforce_memory=False, name=f"gpu{comm.rank}")
        comm.bind_timeline(gpu.timeline)
        qmp = QMPMachine(comm)
        local = slicing.locals[comm.rank]
        slab = slicing.local_sites(comm.rank)
        op = DeviceSchurOperator.setup(
            gpu, qmp, local, gauge.data[:, slab], clover.data[slab], MASS,
            precision=precision, overlap=overlap,
        )
        src = op.make_spinor("src")
        tmp = op.make_spinor("tmp")
        dst = op.make_spinor("dst")
        src.set(full_to_parity(local, psi_full[slab], EVEN))
        op.apply(src, tmp, dst, dagger=dagger)
        if stored:
            norms = dst._norms
            return dst._store.array.copy(), None if norms is None else norms.copy()
        return dst.get(), full_to_parity(local, expected_full[slab], EVEN)

    results = run_spmd(n_ranks, fn)
    if stored:
        return results
    got = np.concatenate([r[0] for r in results])
    want = np.concatenate([r[1] for r in results])
    return got, want


class TestSingleGPU:
    @pytest.mark.parametrize("prec", list(Precision))
    def test_matches_host(self, problem, prec):
        got, want = _run_distributed(problem, 1, prec, overlap=True)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err < TOL[prec]

    def test_dagger_matches_host(self, problem):
        got, want = _run_distributed(
            problem, 1, Precision.DOUBLE, overlap=True, dagger=True
        )
        np.testing.assert_allclose(got, want, atol=1e-11)


class TestMultiGPU:
    @pytest.mark.parametrize("n_ranks", [2, 4])
    @pytest.mark.parametrize("prec", list(Precision))
    def test_matches_host(self, problem, n_ranks, prec):
        """The headline: the parallelized operator is exact."""
        got, want = _run_distributed(problem, n_ranks, prec, overlap=True)
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err < TOL[prec]

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_no_overlap_strategy_matches(self, problem, n_ranks):
        got, want = _run_distributed(
            problem, n_ranks, Precision.DOUBLE, overlap=False
        )
        np.testing.assert_allclose(got, want, atol=1e-11)

    def test_overlap_equals_no_overlap_bitwise(self, problem):
        """The two strategies store the identical result (Section VI-D),
        at every precision: the int16 store and its norms in half."""
        for prec in Precision:
            for n_ranks in (2, 4):
                a = _run_distributed(problem, n_ranks, prec, overlap=True, stored=True)
                b = _run_distributed(problem, n_ranks, prec, overlap=False, stored=True)
                for (store_a, norms_a), (store_b, norms_b) in zip(a, b):
                    np.testing.assert_array_equal(store_a, store_b)
                    np.testing.assert_array_equal(norms_a, norms_b)

    def test_dagger_distributed(self, problem):
        got, want = _run_distributed(
            problem, 4, Precision.DOUBLE, overlap=True, dagger=True
        )
        np.testing.assert_allclose(got, want, atol=1e-11)


class TestSourcePreparation:
    @pytest.mark.parametrize("n_ranks", [1, 2])
    def test_prepare_and_reconstruct_match_host(self, problem, n_ranks):
        geo, gauge, clover, schur, psi_full = problem
        slicing = geo.slice_grid(1, n_ranks)
        b_hat_host, b_odd_host = schur.prepare_source(
            __import__("repro.lattice.fields", fromlist=["SpinorField"]).SpinorField(
                geo, psi_full
            )
        )
        # Reconstruct from a random "solution" x_e and compare.
        rng = np.random.default_rng(5)
        x_e = rng.standard_normal((geo.half_volume, 4, 3)) + 0j
        x_full_host = schur.reconstruct(x_e, b_odd_host).data
        b_hat_full = parity_to_full(geo, b_hat_host, np.zeros_like(b_hat_host))
        x_e_full = parity_to_full(geo, x_e, np.zeros_like(x_e))

        def fn(comm):
            gpu = VirtualGPU(enforce_memory=False)
            comm.bind_timeline(gpu.timeline)
            qmp = QMPMachine(comm)
            local = slicing.locals[comm.rank]
            slab = slicing.local_sites(comm.rank)
            op = DeviceSchurOperator.setup(
                gpu, qmp, local, gauge.data[:, slab], clover.data[slab], MASS,
                precision=Precision.DOUBLE,
            )
            b_even = op.make_spinor("be")
            b_odd = op.make_spinor("bo")
            b_even.set(full_to_parity(local, psi_full[slab], EVEN))
            b_odd.set(full_to_parity(local, psi_full[slab], ODD))
            scratch = op.make_spinor("s")
            b_hat = op.make_spinor("bh")
            op.prepare_source(b_even, b_odd, scratch, b_hat)
            xe = op.make_spinor("xe")
            xe.set(full_to_parity(local, x_e_full[slab], EVEN))
            xo = op.make_spinor("xo")
            op.reconstruct(xe, b_odd, scratch, xo)
            x_loc = parity_to_full(local, xe.get(), xo.get())
            return (
                b_hat.get(),
                full_to_parity(local, b_hat_full[slab], EVEN),
                x_loc,
                x_full_host[slab],
            )

        for got_bh, want_bh, got_x, want_x in run_spmd(n_ranks, fn):
            np.testing.assert_allclose(got_bh, want_bh, atol=1e-11)
            np.testing.assert_allclose(got_x, want_x, atol=1e-11)


class TestTimingOnlyEquivalence:
    def test_identical_schedule_and_times(self, problem):
        """Functional and timing-only runs produce the same timeline."""
        geo, gauge, clover, schur, psi_full = problem

        def timeline_of(execute):
            gpu = VirtualGPU(enforce_memory=False, execute=execute)
            op = DeviceSchurOperator.setup(
                gpu, None, geo,
                gauge.data if execute else None,
                clover.data if execute else None,
                MASS, precision=Precision.SINGLE,
            )
            src = op.make_spinor("src")
            tmp = op.make_spinor("tmp")
            dst = op.make_spinor("dst")
            if execute:
                src.set(full_to_parity(geo, psi_full, EVEN))
            op.apply(src, tmp, dst)
            gpu.device_synchronize()
            return [
                (o.name, o.kind, o.nbytes, round(o.duration, 12))
                for o in gpu.timeline.ops
            ], gpu.elapsed

        ops_f, t_f = timeline_of(True)
        ops_t, t_t = timeline_of(False)
        assert ops_f == ops_t
        assert t_f == pytest.approx(t_t, rel=1e-12)

    def test_flops_per_matvec_convention(self, problem):
        geo, *_ = problem
        gpu = VirtualGPU(enforce_memory=False, execute=False)
        op = DeviceSchurOperator.setup(
            gpu, None, geo, None, None, MASS, precision=Precision.SINGLE
        )
        # 3696 flops per full-lattice site per application (Section V-A),
        # on the half-volume convention used by the even-odd system.
        assert op.flops_per_matvec == geo.half_volume * 3696
