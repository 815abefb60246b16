"""The dslash kernel against its einsum oracle, over every configuration.

``dslash_kernel`` projects each hop to a half spinor, multiplies the link
against 2x3 over a site-fastest axis and reconstructs, reading links from
a table the gauge field holds; ``_reference_dslash.reference_dslash`` is
the formulation it replaced (full spinor times link, 4x4 projector last,
everything decoded per call).

The comparison is on what ends up *stored*.  Both formulations evaluate a
hop in double and round it to the field's precision as it is accumulated,
so for single precision the stored array, and for half the int16 store
and the float32 norms, must be **identical** to what the oracle's result
would store — the functional solves are pinned to that rounding sequence
(``benchmarks/ledger/expected.json``), so anything looser here would let
a change through that moves their iteration counts.  In double the two
round differently in the last place: relative 1e-13.

The ghost links and ghost half spinors are random, *not* the field's own
periodic wrap, so a ghost read that silently fell back to the local
neighbour would be caught.

Every call computes the whole parity, whichever launch it charges, so
each configuration is applied three ways (``LAUNCHES``) and each must
store the oracle's every row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    BACKWARD,
    FORWARD,
    DeviceCloverField,
    DeviceGaugeField,
    DeviceSpinorField,
    Precision,
    VirtualGPU,
)
from repro.gpu.kernels import dslash_kernel, dslash_launch, dslash_tables
from repro.gpu.layout import spinor_to_reals
from repro.gpu.precision import quantize_block
from repro.lattice import LatticeGeometry, make_clover, su3, weak_field_gauge
from repro.lattice.gamma import BASES

from ._reference_dslash import reference_dslash

EPILOGUES = ("none", "result", "xpay")

#: How the kernel under test is launched: one ``full`` kernel, the
#: ``boundary`` kernel alone, or (``interior``) the overlapped exchange's
#: pair — the interior kernel charged by ``dslash_launch``, then the
#: boundary kernel.
LAUNCHES = ("full", "interior", "boundary")


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class Problem:
    """Device fields for one geometry/precision/basis, ghosts filled."""

    def __init__(self, geometry, precision, basis, dirs, seed=7):
        rng = np.random.default_rng(seed)
        self.geometry = geometry
        self.gpu = VirtualGPU(enforce_memory=False)
        vh = geometry.half_volume
        host_gauge = weak_field_gauge(geometry, rng, noise=0.2)
        self.gauge = DeviceGaugeField(
            self.gpu,
            sites=geometry.volume,
            precision=precision,
            ghosts={mu: geometry.volume // geometry.dims[mu] for mu in dirs},
            pad_sites=geometry.spatial_volume,
        )
        self.gauge.set(host_gauge.data)
        faces = {mu: geometry.face_half_sites(mu) for mu in dirs}

        def spinor(label):
            f = DeviceSpinorField(
                self.gpu, sites=vh, precision=precision, faces=faces,
                basis=basis, label=label,
            )
            f.set(_complex(rng, (vh, 4, 3)))
            return f

        self.src, self.x, self.dst = spinor("src"), spinor("x"), spinor("dst")
        for mu in dirs:
            self.gauge.set_ghost(su3.random_su3(rng, (self.gauge.ghosts[mu],)), mu=mu)
            for direction in (BACKWARD, FORWARD):
                self.src.set_ghost(direction, _complex(rng, (faces[mu], 2, 3)), mu=mu)
        blocks = make_clover(host_gauge).data
        blocks[:, :, np.arange(6), np.arange(6)] += 4.1
        self.clover = {}
        for parity in (0, 1):
            field = DeviceCloverField(self.gpu, sites=vh, precision=precision)
            field.set(blocks[geometry.sites_of_parity[parity]])
            self.clover[parity] = field

    def kwargs(self, target, epilogue):
        if epilogue == "none":
            return {}
        kw = dict(clover=self.clover[target], clover_target=epilogue)
        if epilogue == "xpay":
            kw["xpay"] = (-0.25, self.x)
        return kw


def _stored(field):
    store = field._store.array.copy()
    return store, (None if field._norms is None else field._norms.copy())


def check_against_oracle(problem, target, *, dirs, dagger, epilogue, launch="full"):
    tables = dslash_tables(problem.geometry, target)
    fused = problem.kwargs(target, epilogue)
    expected = reference_dslash(
        tables, problem.gauge, problem.src, partitioned=dirs, dagger=dagger, **fused
    )
    if launch == "interior":
        dslash_launch(
            problem.gpu, tables, problem.gauge, problem.src, region="interior",
            partitioned=dirs, **fused,
        )
        launch = "boundary"
    dst = problem.dst
    dslash_kernel(
        problem.gpu, tables, problem.gauge, problem.src, dst, region=launch,
        partitioned=dirs, dagger=dagger, **fused,
    )
    store, norms = _stored(dst)
    if dst.precision.needs_norm:
        want_store, want_norms = quantize_block(spinor_to_reals(expected))
        np.testing.assert_array_equal(store, want_store)
        np.testing.assert_array_equal(norms, want_norms)
    elif dst.precision is Precision.SINGLE:
        np.testing.assert_array_equal(store, expected)
    else:
        err = np.max(np.abs(store - expected)) / np.max(np.abs(expected))
        assert err < 1e-13


@pytest.fixture(scope="module")
def problems():
    """One :class:`Problem` per (precision, basis, dirs), built on demand."""
    geometry = LatticeGeometry((4, 4, 6, 8))
    cache = {}

    def get(precision, basis, dirs):
        key = (precision, basis, dirs)
        if key not in cache:
            cache[key] = Problem(geometry, precision, basis, dirs)
        return cache[key]

    return get


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("precision", list(Precision))
@pytest.mark.parametrize("dirs", [(), (3,), (2, 3)])
@pytest.mark.parametrize("launch", LAUNCHES)
def test_kernel_matches_oracle(problems, launch, dirs, precision, basis):
    problem = problems(precision, basis, dirs)
    for target in (0, 1):
        for dagger in (False, True):
            for epilogue in EPILOGUES:
                check_against_oracle(
                    problem, target, dirs=dirs, dagger=dagger,
                    epilogue=epilogue, launch=launch,
                )


@pytest.mark.parametrize("precision", list(Precision))
@pytest.mark.parametrize("t_offset", [0, 4])
def test_sub_lattice_wrapped_onto_itself(t_offset, precision):
    """A rank's slab applied *unpartitioned* wraps onto itself, so the
    backward hop across the wrap carries the boundary phase of its target
    while the link it borrows carries that of the wrapped site — on the
    first and last slab of an antiperiodic lattice the two differ.  No
    solve does this (a sliced direction is partitioned), but the kernel
    must still agree with the per-target phases of the oracle."""
    geometry = LatticeGeometry((4, 4, 4, 4), t_offset=t_offset, global_t=8)
    plan = dslash_tables(geometry, 0).hop_plan(())
    assert plan.bwd_sign[3] is not None and all(s is None for s in plan.bwd_sign[:3])
    problem = Problem(geometry, precision, "degrand_rossi", ())
    for target in (0, 1):
        check_against_oracle(problem, target, dirs=(), dagger=False, epilogue="none")


_extent = st.sampled_from([4, 6, 8])


@settings(max_examples=15, deadline=None)
@given(
    dims=st.tuples(_extent, _extent, _extent, _extent),
    target=st.sampled_from([0, 1]),
    dagger=st.booleans(),
    dirs=st.sampled_from([(), (2,), (3,), (2, 3)]),
    epilogue=st.sampled_from(EPILOGUES),
    seed=st.integers(0, 2**16),
)
def test_any_even_geometry_antiperiodic(dims, target, dagger, dirs, epilogue, seed):
    geometry = LatticeGeometry(dims, antiperiodic_t=True)
    problem = Problem(geometry, Precision.DOUBLE, "degrand_rossi", dirs, seed=seed)
    check_against_oracle(problem, target, dirs=dirs, dagger=dagger, epilogue=epilogue)
