"""What the dslash kernel keeps between applications, and when it lets go.

The kernel reads its links from tables the :class:`DeviceGaugeField`
holds (``derived``); everything else — spinor bodies, end zones, clover
blocks — is decoded from the stores on each application.  The bug such a
design invites is a stale table: apply, change a field, apply again, and
see the old data.  Every test here applies the kernel, mutates one input,
applies again and compares against the oracle evaluated on the *new*
data, at all three precisions.
"""

import numpy as np
import pytest

from repro.gpu import BACKWARD, DeviceGaugeField, Precision
from repro.gpu.kernels import dslash_kernel, dslash_tables
from repro.lattice import LatticeGeometry, su3, weak_field_gauge

from .test_dslash_oracle import Problem, _complex, check_against_oracle

DIRS = (3,)
GEOMETRY = LatticeGeometry((4, 4, 4, 8))


def _apply_and_check(problem):
    for region in ("interior", "boundary", "full"):
        check_against_oracle(
            problem, 0, region=region, dirs=DIRS, dagger=False, epilogue="xpay"
        )


def _mutate_gauge_body(problem, rng):
    problem.gauge.set(weak_field_gauge(GEOMETRY, rng, noise=0.3).data)


def _mutate_gauge_ghost(problem, rng):
    n = problem.gauge.ghosts[3]
    problem.gauge.set_ghost(su3.random_su3(rng, (n,)), mu=3)


def _mutate_clover(problem, rng):
    field = problem.clover[0]
    blocks = field.blocks().astype(np.complex128)
    field.set(blocks * 1.5)


def _mutate_source(problem, rng):
    problem.src.set(_complex(rng, (problem.src.sites, 4, 3)))


def _mutate_source_rows(problem, rng):
    rows = np.arange(0, problem.src.sites, 3)
    problem.src.set_rows(rows, _complex(rng, (rows.size, 4, 3)))


def _zero_source(problem, rng):
    problem.src.zero()


def _mutate_source_ghost(problem, rng):
    n = problem.src.faces[3]
    problem.src.set_ghost(BACKWARD, _complex(rng, (n, 2, 3)), mu=3)


def _mutate_xpay_field(problem, rng):
    problem.x.set(_complex(rng, (problem.x.sites, 4, 3)))


MUTATIONS = [
    _mutate_gauge_body,
    _mutate_gauge_ghost,
    _mutate_clover,
    _mutate_source,
    _mutate_source_rows,
    _zero_source,
    _mutate_source_ghost,
    _mutate_xpay_field,
]


@pytest.mark.parametrize("precision", list(Precision))
@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda f: f.__name__.lstrip("_"))
def test_second_application_sees_the_new_data(mutate, precision):
    problem = Problem(GEOMETRY, precision, "degrand_rossi", DIRS)
    _apply_and_check(problem)
    mutate(problem, np.random.default_rng(11))
    _apply_and_check(problem)


@pytest.mark.parametrize("precision", list(Precision))
class TestDerivedTables:
    def _applied(self, precision):
        problem = Problem(GEOMETRY, precision, "degrand_rossi", DIRS)
        _apply_and_check(problem)
        assert problem.gauge._derived  # the link table is there ...
        return problem

    def test_set_drops_them(self, precision):
        problem = self._applied(precision)
        _mutate_gauge_body(problem, np.random.default_rng(3))
        assert not problem.gauge._derived

    def test_set_ghost_drops_them(self, precision):
        problem = self._applied(precision)
        _mutate_gauge_ghost(problem, np.random.default_rng(3))
        assert not problem.gauge._derived

    def test_release_leaves_none_reachable(self, precision):
        problem = self._applied(precision)
        problem.gauge.release()
        assert not problem.gauge._derived

    def test_one_field_per_gpu_holds_tables(self, precision):
        """A second gauge field on the same card takes the tables over;
        the first rebuilds them, correctly, when applied again."""
        problem = self._applied(precision)
        first = problem.gauge
        second = DeviceGaugeField(
            problem.gpu, sites=GEOMETRY.volume, precision=precision,
            ghosts=dict(first.ghosts), pad_sites=GEOMETRY.spatial_volume,
            label="second",
        )
        rng = np.random.default_rng(5)
        second.set(weak_field_gauge(GEOMETRY, rng, noise=0.25).data)
        second.set_ghost(su3.random_su3(rng, (second.ghosts[3],)), mu=3)
        problem.gauge = second
        _apply_and_check(problem)
        assert second._derived and not first._derived
        problem.gauge = first
        _apply_and_check(problem)
        assert first._derived and not second._derived

    def test_shared_index_tables_hold_indices_only(self, precision):
        """Nothing derived from field data lands in the process-wide,
        rank-shared ``dslash_tables`` cache."""
        self._applied(precision)
        plan = dslash_tables(GEOMETRY, 0).hop_plan(DIRS)
        for name, value in vars(plan).items():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    assert item.dtype.kind in "iu", name


def test_timing_only_application_builds_nothing():
    from repro.gpu import DeviceSpinorField, VirtualGPU

    gpu = VirtualGPU(enforce_memory=False, execute=False)
    gauge = DeviceGaugeField(gpu, sites=GEOMETRY.volume, precision=Precision.HALF)
    src = DeviceSpinorField(gpu, sites=GEOMETRY.half_volume, precision=Precision.HALF)
    dst = DeviceSpinorField(gpu, sites=GEOMETRY.half_volume, precision=Precision.HALF)
    dslash_kernel(gpu, dslash_tables(GEOMETRY, 0), gauge, src, dst)
    assert not gauge._derived and gpu.derived_holder is None
