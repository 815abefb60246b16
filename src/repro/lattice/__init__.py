"""Lattice QCD substrate: geometry, fields, and the reference Wilson-clover
operator (paper Sections II and V).

This subpackage is the "ground truth" layer: a clean, fully vectorized
NumPy implementation of everything the paper's GPU kernels compute.  The
virtual-GPU and multi-GPU layers are validated against it.
"""

from .geometry import NDIM, GridSlicing, LatticeGeometry
from .fields import CloverField, GaugeField, SpinorField, zeros_spinor
from .dirac import WilsonCloverOperator, apply_gamma5, hopping_term
from .clover import make_clover, pack_clover, unpack_clover
from .evenodd import SchurOperator, dslash_parity, full_to_parity, parity_to_full
from .random_fields import (
    point_source,
    random_gauge,
    random_spinor,
    unit_gauge,
    weak_field_gauge,
)
from .hostsolve import SolveResult, bicgstab, cg, cgne, cgnr

__all__ = [
    "NDIM",
    "LatticeGeometry",
    "GridSlicing",
    "SpinorField",
    "GaugeField",
    "CloverField",
    "zeros_spinor",
    "WilsonCloverOperator",
    "hopping_term",
    "apply_gamma5",
    "make_clover",
    "pack_clover",
    "unpack_clover",
    "SchurOperator",
    "dslash_parity",
    "full_to_parity",
    "parity_to_full",
    "unit_gauge",
    "weak_field_gauge",
    "random_gauge",
    "random_spinor",
    "point_source",
    "SolveResult",
    "cg",
    "cgne",
    "cgnr",
    "bicgstab",
]

# Future-work extensions (paper Section VIII).
from .montecarlo import Ensemble, heatbath_sweep, overrelaxation_sweep, wilson_action

__all__ += [
    "Ensemble",
    "heatbath_sweep",
    "overrelaxation_sweep",
    "wilson_action",
]

# Analysis-phase toolkit: observables and field storage.
from .measurements import (
    MESON_CHANNELS,
    Propagator,
    compute_propagator,
    meson_correlator,
    polyakov_loop,
    wilson_loop,
)
from .io import load_gauge, load_spinor, save_gauge, save_spinor

__all__ += [
    "Propagator",
    "compute_propagator",
    "meson_correlator",
    "MESON_CHANNELS",
    "wilson_loop",
    "polyakov_loop",
    "save_gauge",
    "load_gauge",
    "save_spinor",
    "load_spinor",
]
