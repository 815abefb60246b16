"""Property-based tests for the breakdown guards.

The contract of the resilience layer's finiteness guards: whatever
pathological source hits the half-precision pipeline — denormals, zero
blocks, dynamic range far beyond what the block codec can represent —
every guarded reduction either stays finite or raises a *structured*
:class:`SolverBreakdown` before the scalar is folded into the solution.
NaN/Inf never reaches ``x``.  A source beyond float32 range never gets
that far: ``invert`` refuses it before upload.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SolverBreakdown, invert, invert_multi, paper_invert_param
from repro.lattice import LatticeGeometry, weak_field_gauge
from repro.lattice.fields import SpinorField

DIMS = (4, 4, 4, 4)
_GEO = LatticeGeometry(DIMS)
_GAUGE = weak_field_gauge(_GEO, np.random.default_rng(11), noise=0.15)


def _breakdown_in_chain(exc: BaseException) -> SolverBreakdown | None:
    seen = set()
    while exc is not None and id(exc) not in seen:
        if isinstance(exc, SolverBreakdown):
            return exc
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return None


@st.composite
def adversarial_sources(draw):
    """Half-precision nightmares: subnormal magnitudes, whole zero
    blocks, and per-site scales spanning hundreds of decades."""
    pattern = draw(
        st.sampled_from(["denormal", "zero_blocks", "huge_range", "mixed"])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    shape = (_GEO.volume, 4, 3)
    data = (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ).astype(np.complex128)
    if pattern == "denormal":
        data *= 1e-310  # below the double-precision normal range
    elif pattern == "zero_blocks":
        data[: _GEO.volume // 2] = 0.0
    elif pattern == "huge_range":
        decades = rng.integers(-180, 180, size=(_GEO.volume, 1, 1))
        data *= 10.0 ** decades.astype(np.float64)
    else:  # mixed: all three pathologies in one source
        data[: _GEO.volume // 4] = 0.0
        data[_GEO.volume // 4 : _GEO.volume // 2] *= 1e-310
        decades = rng.integers(-120, 120, size=(_GEO.volume // 2, 1, 1))
        data[_GEO.volume // 2 :] *= 10.0 ** decades.astype(np.float64)
    return SpinorField(_GEO, data)


class TestNoNaNEverReachesX:
    @given(src=adversarial_sources())
    @settings(max_examples=6, deadline=None)
    def test_solution_finite_or_structured_breakdown(self, src):
        inv = paper_invert_param(
            "single-half", mass=0.2, maxiter=60, max_escalations=1
        )
        if np.abs(src.data.view(np.float64)).max() > np.finfo(np.float32).max:
            with pytest.raises(ValueError, match="float32 range"):
                invert(_GAUGE, src, inv, n_gpus=1, verify=False)
            return
        try:
            res = invert(_GAUGE, src, inv, n_gpus=1, verify=False)
        except RuntimeError as exc:
            bd = _breakdown_in_chain(exc)
            assert bd is not None, f"unstructured failure: {exc!r}"
            assert bd.kind in (
                "non_finite",
                "rho_breakdown",
                "pivot_breakdown",
                "omega_breakdown",
                "divergence",
                "stagnation",
            )
        else:
            assert np.all(np.isfinite(res.solution.data))

    def test_all_zero_source_is_trivially_converged(self):
        src = SpinorField(_GEO, np.zeros((_GEO.volume, 4, 3), np.complex128))
        inv = paper_invert_param("single-half", mass=0.2)
        res = invert(_GAUGE, src, inv, n_gpus=1, verify=False)
        assert res.stats.converged
        assert np.all(res.solution.data == 0)

    def test_out_of_range_source_refused(self):
        """A finite source beyond float32 range would be Inf in a single
        or half field: ``invert`` refuses it up front, naming the source
        and the precision, instead of breaking down iterations later.
        (The ``non_finite`` breakdown path is covered by
        ``tests/core/test_resilience.py``.)"""
        data = np.ones((_GEO.volume, 4, 3), np.complex128) * 1e200
        for mode in ("single-half", "double-half", "single"):
            inv = paper_invert_param(mode, mass=0.2, max_escalations=0)
            with pytest.raises(ValueError, match=r"source 0 .*1e\+200.*float32 range") as info:
                invert(_GAUGE, SpinorField(_GEO, data), inv, n_gpus=1, verify=False)
            assert f"{inv.precision.name}/{inv.precision_sloppy.name}" in str(info.value)

    def test_double_solve_takes_a_source_beyond_float32_range(self):
        data = np.ones((_GEO.volume, 4, 3), np.complex128) * 1e60
        inv = paper_invert_param("double", mass=0.2)
        res = invert(_GAUGE, SpinorField(_GEO, data), inv, n_gpus=1, verify=False)
        assert res.stats.converged and np.isfinite(res.solution.data).all()

    @pytest.mark.parametrize(
        "bad", [np.inf, np.nan, complex(0, np.inf)], ids=["inf", "nan", "imag_inf"]
    )
    def test_non_finite_source_refused_even_in_double(self, bad):
        data = np.ones((_GEO.volume, 4, 3), np.complex128)
        data[3, 1, 2] = bad
        inv = paper_invert_param("double", mass=0.2)
        with pytest.raises(ValueError, match="source 1 has a non-finite entry"):
            invert_multi(
                _GAUGE, [SpinorField(_GEO, np.ones_like(data)), SpinorField(_GEO, data)],
                inv, n_gpus=1, verify=False,
            )
