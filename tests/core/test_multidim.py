"""Tests for the multi-dimensional (Z, T) decomposition extension.

Section VI-A future work: "If one were to attempt to scale to hundreds of
GPUs or more, multi-dimensional parallelization would clearly be needed
to keep the local surface to volume ratio under control ... Work in this
direction is underway."
"""

import numpy as np
import pytest

from repro.comms import QMPMachine, run_spmd
from repro.core import invert, invert_model, paper_invert_param
from repro.lattice import LatticeGeometry, random_spinor, weak_field_gauge

MASS = 0.2


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    geo = LatticeGeometry((4, 4, 8, 8))
    gauge = weak_field_gauge(geo, rng, noise=0.15)
    src = random_spinor(geo, rng)
    return geo, gauge, src


@pytest.fixture(scope="module")
def reference(problem):
    _, gauge, src = problem
    inv = paper_invert_param("double", mass=MASS)
    return invert(gauge, src, inv, n_gpus=1).solution.data


class TestGridSolves:
    @pytest.mark.parametrize("grid", [(2, 1), (2, 2), (4, 2), (2, 4)])
    def test_matches_single_gpu_double(self, problem, reference, grid):
        """Z-only, square, and rectangular grids all reproduce the
        single-GPU solution exactly."""
        _, gauge, src = problem
        inv = paper_invert_param("double", mass=MASS)
        res = invert(gauge, src, inv, grid=grid)
        assert res.stats.converged
        np.testing.assert_allclose(res.solution.data, reference, atol=1e-12)

    @pytest.mark.parametrize("mode", ["single-half", "double-half"])
    def test_mixed_precision_on_grid(self, problem, mode):
        _, gauge, src = problem
        inv = paper_invert_param(mode, mass=MASS)
        res = invert(gauge, src, inv, grid=(2, 2))
        assert res.stats.converged
        tol = 5e-6 if mode == "single-half" else 5e-12
        assert res.true_residual < tol

    def test_no_overlap_strategy_on_grid(self, problem, reference):
        _, gauge, src = problem
        inv = paper_invert_param("double", mass=MASS, overlap_comms=False)
        res = invert(gauge, src, inv, grid=(2, 2))
        np.testing.assert_allclose(res.solution.data, reference, atol=1e-12)

    def test_grid_overrides_n_gpus(self, problem):
        _, gauge, src = problem
        inv = paper_invert_param("double", mass=MASS)
        res = invert(gauge, src, inv, n_gpus=1, grid=(2, 2))
        assert len(res.per_rank) == 4

    def test_indivisible_grid_rejected(self, problem):
        _, gauge, src = problem
        inv = paper_invert_param("double", mass=MASS)
        with pytest.raises(ValueError, match="not divisible"):
            invert(gauge, src, inv, grid=(3, 2))


class TestQMPGrid:
    def test_neighbor_topology(self):
        def fn(comm):
            qmp = QMPMachine(comm, grid={2: 2, 3: 2})
            return (
                qmp.logical_coords(2),
                qmp.logical_coords(3),
                qmp.neighbor(2, +1),
                qmp.neighbor(3, +1),
            )

        results = run_spmd(4, fn)
        # Rank = z + 2*t: rank 0 at (0,0), neighbors (z+1)->1, (t+1)->2.
        assert results[0] == (0, 0, 1, 2)
        assert results[3] == (1, 1, 2, 1)

    def test_partitioned_dirs(self):
        def fn(comm):
            return QMPMachine(comm, grid={2: 1, 3: 4}).partitioned_dirs

        assert run_spmd(4, fn)[0] == (3,)

    def test_grid_size_validated(self):
        def fn(comm):
            QMPMachine(comm, grid={2: 3, 3: 2})

        with pytest.raises(RuntimeError, match="grid"):
            run_spmd(4, fn)

    def test_relays_along_each_axis(self):
        def fn(comm):
            qmp = QMPMachine(comm, grid={2: 2, 3: 2})
            qmp.send_to(+1, ("z", qmp.rank), mu=2)
            qmp.send_to(+1, ("t", qmp.rank), mu=3)
            from_z = qmp.recv_from(-1, mu=2)
            from_t = qmp.recv_from(-1, mu=3)
            return from_z, from_t

        results = run_spmd(4, fn)
        assert results[0] == (("z", 1), ("t", 2))


class TestGridNoneIsTheOneByNGrid:
    """``grid=None`` over ``n`` GPUs runs as the ``(1, n)`` grid: the paper's
    time slicing needs no second decomposition class."""

    @pytest.fixture(scope="class")
    def small(self):
        rng = np.random.default_rng(11)
        geo = LatticeGeometry((4, 4, 4, 8))
        return weak_field_gauge(geo, rng, noise=0.15), random_spinor(geo, rng)

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("mode", ["single-half", "double"])
    def test_functional_solve_is_identical(self, small, mode, n):
        gauge, src = small
        inv = paper_invert_param(mode, mass=MASS)
        sliced = invert(gauge, src, inv, n_gpus=n)
        gridded = invert(gauge, src, inv, grid=(1, n))
        assert np.array_equal(sliced.solution.data, gridded.solution.data)
        assert sliced.stats.iterations == gridded.stats.iterations
        assert sliced.stats.model_time == gridded.stats.model_time
        assert (sliced.grid, gridded.grid) == (None, (1, n))

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_timing_only_solve_is_identical(self, n, overlap):
        inv = paper_invert_param("single-half", overlap_comms=overlap, fixed_iterations=5)
        sliced = invert_model((24, 24, 24, 128), inv, n_gpus=n).stats
        gridded = invert_model((24, 24, 24, 128), inv, grid=(1, n)).stats
        assert sliced.model_time == gridded.model_time
        assert sliced.total_flops == gridded.total_flops
        assert sliced.iterations == gridded.iterations


class TestSurfaceToVolume:
    @pytest.mark.slow
    def test_2d_wins_at_extreme_gpu_counts(self):
        """The motivation: at 128 GPUs on 32^3 x 256, time-only slicing
        leaves T_local = 2 (every site on a boundary), while a (4, 32)
        grid keeps the surface-to-volume ratio under control."""
        inv = paper_invert_param("single-half", fixed_iterations=10)
        t_1d = invert_model(
            (32, 32, 32, 256), inv, n_gpus=128, enforce_memory=False
        ).stats.model_time
        t_2d = invert_model(
            (32, 32, 32, 256), inv, grid=(4, 32), enforce_memory=False
        ).stats.model_time
        assert t_2d < t_1d

    def test_1d_is_fine_at_paper_scale(self):
        """At the paper's 32 GPUs, time-only slicing is competitive —
        which is why the paper could defer multi-dim."""
        inv = paper_invert_param("single-half", fixed_iterations=10)
        t_1d = invert_model(
            (32, 32, 32, 256), inv, n_gpus=32, enforce_memory=False
        ).stats.model_time
        t_2d = invert_model(
            (32, 32, 32, 256), inv, grid=(4, 8), enforce_memory=False
        ).stats.model_time
        assert t_1d < 1.25 * t_2d

    def test_face_sizes_per_direction(self):
        geo = LatticeGeometry((4, 4, 8, 8))
        local = geo.slice_grid(2, 2).locals[0]
        # Z faces: X*Y*T_loc/2; T faces: X*Y*Z_loc/2 (per parity).
        assert local.face_half_sites(2) == 4 * 4 * 4 // 2
        assert local.face_half_sites(3) == 4 * 4 * 4 // 2
