"""What the dslash kernel keeps between applications, and when it lets go.

The kernel reads its links from tables each :class:`DeviceGaugeField`
holds (``derived``), and a half-precision :class:`DeviceCloverField`
keeps its blocks decoded beside the int16 store; spinor bodies and end
zones are decoded from the stores on each application.  The bug such a
design invites is a stale table: apply, change a field, apply again, and
see the old data.  Every test here applies the kernel, mutates one input,
applies again and compares against the oracle evaluated on the *new*
data, at all three precisions.
"""

import numpy as np
import pytest

from repro.gpu import BACKWARD, DeviceCloverField, DeviceGaugeField, Precision
from repro.gpu.kernels import dslash_kernel, dslash_tables
from repro.lattice import LatticeGeometry, su3, weak_field_gauge

from .test_dslash_oracle import Problem, _complex, check_against_oracle

DIRS = (3,)
GEOMETRY = LatticeGeometry((4, 4, 4, 8))


def _apply_and_check(problem):
    check_against_oracle(problem, 0, dirs=DIRS, dagger=False, epilogue="xpay")


def _mutate_gauge_body(problem, rng):
    problem.gauge.set(weak_field_gauge(GEOMETRY, rng, noise=0.3).data)


def _mutate_gauge_ghost(problem, rng):
    n = problem.gauge.ghosts[3]
    problem.gauge.set_ghost(su3.random_su3(rng, (n,)), mu=3)


def _mutate_clover(problem, rng):
    field = problem.clover[0]
    blocks = field.blocks().astype(np.complex128) * 1.5
    field.set(blocks)
    # The oracle reads ``blocks()`` as well, so hold them to a fresh upload
    # of the same data: a decode kept from before the set cannot pass.
    fresh = DeviceCloverField(field.gpu, sites=field.sites, precision=field.precision)
    fresh.set(blocks)
    np.testing.assert_array_equal(field.blocks(), fresh.blocks())


def _mutate_source(problem, rng):
    problem.src.set(_complex(rng, (problem.src.sites, 4, 3)))


def _mutate_source_rows(problem, rng):
    data = problem.src.get()
    data[::3] = _complex(rng, (data[::3].shape[0], 4, 3))
    problem.src.set(data)


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

    @pytest.mark.parametrize("drop", ["set", "set_ghost", "release"])
    def test_own_tables_kept(self, precision, drop):
        """Two gauge fields on one card (a mixed-precision solve's two
        operators) each keep their tables while the other is applied; a
        field lets go only on its own set / set_ghost / release."""
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
        first_tables = dict(first._derived)
        problem.gauge = second
        _apply_and_check(problem)
        problem.gauge = first
        _apply_and_check(problem)
        second_tables = dict(second._derived)
        assert first_tables and second_tables
        # Neither application rebuilt, or dropped, the other field's tables.
        assert _same(first._derived, first_tables)
        {
            "set": _mutate_gauge_body,
            "set_ghost": _mutate_gauge_ghost,
            "release": lambda p, _: p.gauge.release(),
        }[drop](problem, rng)
        assert not first._derived
        assert _same(second._derived, second_tables)

    def test_shared_index_tables_hold_indices_only(self, precision):
        """Nothing derived from field data lands in the process-wide,
        rank-shared ``dslash_tables`` cache."""
        self._applied(precision)
        plan = dslash_tables(GEOMETRY, 0).hop_plan(DIRS)
        for name, value in vars(plan).items():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    assert item.dtype.kind in "iu", name


def _same(held: dict, kept: dict) -> bool:
    """``held`` is ``kept``: the same keys, each the very same object."""
    return held.keys() == kept.keys() and all(held[k] is kept[k] for k in kept)


class TestHalfCloverDecode:
    """A half-precision clover field decodes its store once per upload."""

    def _applied(self):
        problem = Problem(GEOMETRY, Precision.HALF, "degrand_rossi", DIRS)
        _apply_and_check(problem)
        return problem, problem.clover[0]

    def test_kept_between_applications(self):
        problem, field = self._applied()
        decoded = field._decoded
        assert decoded is not None and decoded.dtype == np.complex64
        _apply_and_check(problem)
        assert field._decoded is decoded

    def test_set_drops_it(self):
        problem, field = self._applied()
        field.set(field.blocks().astype(np.complex128))
        assert field._decoded is None

    def test_release_drops_it(self):
        problem, field = self._applied()
        field.release()
        assert field._decoded is None


def test_timing_only_application_builds_nothing():
    from repro.gpu import DeviceSpinorField, VirtualGPU

    gpu = VirtualGPU(enforce_memory=False, execute=False)
    gauge = DeviceGaugeField(gpu, sites=GEOMETRY.volume, precision=Precision.HALF)
    src = DeviceSpinorField(gpu, sites=GEOMETRY.half_volume, precision=Precision.HALF)
    dst = DeviceSpinorField(gpu, sites=GEOMETRY.half_volume, precision=Precision.HALF)
    clover = DeviceCloverField(gpu, sites=GEOMETRY.half_volume, precision=Precision.HALF)
    dslash_kernel(
        gpu, dslash_tables(GEOMETRY, 0), gauge, src, dst,
        clover=clover, xpay=(-0.25, src),
    )
    assert not gauge._derived and clover._decoded is None
