"""Tests for the device Krylov solvers (reliable updates, defect correction)."""

import numpy as np
import pytest

from repro.core.dslash import DeviceSchurOperator
from repro.core.solvers import bicgstab_solve, cg_solve, defect_correction_solve
from repro.core.solvers.reliable import UPDATE_CADENCE
from repro.gpu import Precision, VirtualGPU
from repro.lattice import LatticeGeometry, SchurOperator, make_clover, weak_field_gauge

MASS = 0.25


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(23)
    geo = LatticeGeometry((4, 4, 4, 4))
    gauge = weak_field_gauge(geo, rng, noise=0.15)
    clover = make_clover(gauge)
    schur = SchurOperator(gauge, mass=MASS, clover=clover)
    b = rng.standard_normal((geo.half_volume, 4, 3)) + 1j * rng.standard_normal(
        (geo.half_volume, 4, 3)
    )
    return geo, gauge, clover, schur, b


def _make_ops(problem, precision, sloppy=None):
    geo, gauge, clover, _, _ = problem
    gpu = VirtualGPU(enforce_memory=False)
    op_full = DeviceSchurOperator.setup(
        gpu, None, geo, gauge.data, clover.data, MASS, precision=precision
    )
    if sloppy is None or sloppy is precision:
        return gpu, op_full, op_full
    op_sloppy = DeviceSchurOperator.setup(
        gpu, None, geo, gauge.data, clover.data, MASS, precision=sloppy
    )
    return gpu, op_full, op_sloppy


def _device_solve(problem, solver, precision, sloppy=None, tol=1e-8, delta=0.1):
    geo, *_ , b = problem
    gpu, op_full, op_sloppy = _make_ops(problem, precision, sloppy)
    b_dev = op_full.make_spinor("b")
    b_dev.set(b)
    x_dev = op_full.make_spinor("x")
    info = solver(
        op_full, op_sloppy, b_dev, x_dev, tol=tol, delta=delta, maxiter=2000
    )
    return info, x_dev.get(), op_full


def _residual(schur, x, b):
    return float(np.linalg.norm(b - schur.apply(x)) / np.linalg.norm(b))


class TestBiCGstabDevice:
    def test_uniform_double(self, problem):
        _, _, _, schur, b = problem
        info, x, _ = _device_solve(problem, bicgstab_solve, Precision.DOUBLE, tol=1e-10, delta=1e-5)
        assert info.converged
        assert _residual(schur, x, b) < 1e-9

    def test_uniform_single(self, problem):
        _, _, _, schur, b = problem
        info, x, _ = _device_solve(
            problem, bicgstab_solve, Precision.SINGLE, tol=1e-6, delta=1e-3
        )
        assert info.converged
        assert _residual(schur, x, b) < 1e-5

    def test_mixed_single_half(self, problem):
        """The paper's workhorse mode: half iterations, single refreshes."""
        _, _, _, schur, b = problem
        info, x, _ = _device_solve(
            problem, bicgstab_solve, Precision.SINGLE, Precision.HALF,
            tol=1e-6, delta=0.1,
        )
        assert info.converged
        assert info.reliable_updates >= 1
        assert _residual(schur, x, b) < 1e-5

    def test_mixed_double_half_reaches_deep_tolerance(self, problem):
        """Double-half hits tolerances far below half's epsilon — the
        whole point of reliable updates (Section V-D)."""
        _, _, _, schur, b = problem
        info, x, _ = _device_solve(
            problem, bicgstab_solve, Precision.DOUBLE, Precision.HALF,
            tol=1e-10, delta=1e-2,
        )
        assert info.converged
        assert _residual(schur, x, b) < 1e-9

    def test_history_recorded(self, problem):
        info, _, _ = _device_solve(problem, bicgstab_solve, Precision.DOUBLE, tol=1e-8, delta=1e-4)
        assert len(info.history) >= info.iterations
        assert info.history[0] > info.residual_norm

    def test_flops_and_time_attributed(self, problem):
        info, _, op = _device_solve(problem, bicgstab_solve, Precision.DOUBLE, tol=1e-8, delta=1e-4)
        assert info.flops > info.iterations * 2 * op.flops_per_matvec * 0.9
        assert info.seconds > 0


class TestCGDevice:
    def test_uniform_double(self, problem):
        _, _, _, schur, b = problem
        info, x, _ = _device_solve(problem, cg_solve, Precision.DOUBLE, tol=1e-10, delta=1e-5)
        assert info.converged
        assert _residual(schur, x, b) < 1e-8

    def test_mixed_single_half(self, problem):
        _, _, _, schur, b = problem
        info, x, _ = _device_solve(
            problem, cg_solve, Precision.SINGLE, Precision.HALF, tol=1e-5, delta=0.1
        )
        assert info.converged
        assert _residual(schur, x, b) < 1e-4

    def test_bicgstab_cheaper_than_cg(self, problem):
        """Section II: the non-symmetric solver wins on matvec count
        (CG pays two applications per iteration)."""
        info_b, _, _ = _device_solve(problem, bicgstab_solve, Precision.DOUBLE, tol=1e-8, delta=1e-4)
        info_c, _, _ = _device_solve(problem, cg_solve, Precision.DOUBLE, tol=1e-8, delta=1e-4)
        assert 2 * info_b.iterations <= 2.5 * info_c.iterations


class TestDefectCorrection:
    def test_converges(self, problem):
        _, _, _, schur, b = problem
        gpu, op_full, op_sloppy = _make_ops(problem, Precision.DOUBLE, Precision.HALF)
        b_dev = op_full.make_spinor("b")
        b_dev.set(b)
        x_dev = op_full.make_spinor("x")
        info = defect_correction_solve(
            op_full, op_sloppy, b_dev, x_dev, tol=1e-8, inner_tol=1e-2
        )
        assert info.converged
        assert _residual(schur, x_dev.get(), b) < 1e-7
        assert info.reliable_updates >= 2  # outer restarts

    def test_restarts_cost_more_iterations(self, problem):
        """The paper's argument for reliable updates: defect correction's
        Krylov restarts increase the total iteration count."""
        _, _, _, schur, b = problem
        info_rel, _, _ = _device_solve(
            problem, bicgstab_solve, Precision.DOUBLE, Precision.HALF,
            tol=1e-8, delta=1e-2,
        )
        gpu, op_full, op_sloppy = _make_ops(problem, Precision.DOUBLE, Precision.HALF)
        b_dev = op_full.make_spinor("b")
        b_dev.set(b)
        x_dev = op_full.make_spinor("x")
        info_dc = defect_correction_solve(
            op_full, op_sloppy, b_dev, x_dev, tol=1e-8, inner_tol=1e-1
        )
        assert info_dc.iterations >= info_rel.iterations

    def test_requires_functional_mode(self, problem):
        geo = problem[0]
        gpu = VirtualGPU(enforce_memory=False, execute=False)
        op = DeviceSchurOperator.setup(
            gpu, None, geo, None, None, MASS, precision=Precision.SINGLE
        )
        b = op.make_spinor("b")
        x = op.make_spinor("x")
        with pytest.raises(RuntimeError, match="functional"):
            defect_correction_solve(op, op, b, x, tol=1e-8)


class TestTimingOnlySolvers:
    @pytest.mark.parametrize("solver", [bicgstab_solve, cg_solve])
    def test_fixed_iteration_schedule(self, problem, solver):
        geo = problem[0]
        gpu = VirtualGPU(enforce_memory=False, execute=False)
        op = DeviceSchurOperator.setup(
            gpu, None, geo, None, None, MASS, precision=Precision.SINGLE
        )
        b = op.make_spinor("b")
        x = op.make_spinor("x")
        info = solver(
            op, op, b, x, tol=1e-8, delta=0.1, maxiter=10_000, fixed_iterations=7
        )
        assert info.iterations == 7
        assert info.seconds > 0
        assert info.flops > 0

    def test_mixed_timing_includes_refresh_cost(self, problem):
        """Timing-only mixed runs pay a full-precision refresh every
        ``UPDATE_CADENCE`` iterations, and the iteration that ends on one
        costs more than the iteration before it."""
        geo = problem[0]

        def run(iterations):
            gpu = VirtualGPU(enforce_memory=False, execute=False)
            hi = DeviceSchurOperator.setup(
                gpu, None, geo, None, None, MASS, precision=Precision.DOUBLE
            )
            lo = DeviceSchurOperator.setup(
                gpu, None, geo, None, None, MASS, precision=Precision.HALF
            )
            b = hi.make_spinor("b")
            x = hi.make_spinor("x")
            return bicgstab_solve(
                hi, lo, b, x, tol=1e-8, delta=0.1, maxiter=1,
                fixed_iterations=iterations,
            )

        for iterations in (UPDATE_CADENCE - 1, UPDATE_CADENCE, 2 * UPDATE_CADENCE + 1):
            assert run(iterations).reliable_updates == iterations // UPDATE_CADENCE
        before, at, plain = (
            run(UPDATE_CADENCE - k).seconds for k in (1, 0, 2)
        )
        assert at - before > before - plain
