"""Solver linear algebra on device spinor fields (paper Section V-E).

QUDA "provides the additional vector-vector linear algebra (BLAS1-like)
kernels needed to implement the linear solvers", fusing operations
"wherever possible to reduce memory traffic".  This module provides that
kernel set on :class:`~repro.gpu.fields.DeviceSpinorField`:

* every function is *one* device kernel (one traffic pass) and charges
  the timeline with its exact byte/flop counts;
* the fused kernels (``update_p``, ``caxpy_pair``, ``axpy_norm``,
  ``cdot_norm``) each replace 2-3 elementary BLAS1 calls in the BiCGstab
  loop — the reason the full solver runs only 10-20% slower than the
  matrix-vector product in isolation rather than far worse;
* reduction kernels compute the *local* partial sum and complete it with
  a QMP global sum (Section VI-E: "the only other required addition to
  the code was the insertion of MPI reductions for each of the linear
  algebra reduction kernels").  Reductions never see the ghost end zone
  because device fields keep it outside the body array — the design
  choice of Section VI-C ("this end zone can be simply excluded ensuring
  correctness").

In timing-only mode the kernels charge their cost and reductions return
0.0; the solvers run a fixed iteration schedule in that mode.
"""

from __future__ import annotations

import numpy as np

from ..comms.qmp import QMPMachine
from ..gpu.device import VirtualGPU
from ..gpu.fields import DeviceSpinorField

__all__ = [
    "copy",
    "zero",
    "axpy",
    "xpay",
    "axpby",
    "scale",
    "update_p",
    "caxpy_pair",
    "norm2",
    "cdot",
    "redot",
    "cdot_norm",
    "axpy_norm",
]

#: Complex numbers per site of a spinor (4 spins x 3 colors).
_CPLX_PER_SITE = 12


def _n_complex(field: DeviceSpinorField) -> int:
    return field.sites * _CPLX_PER_SITE


def _launch(gpu: VirtualGPU, name: str, fields, n_passes: int, flops: int) -> None:
    """Charge one streaming kernel: ``n_passes`` full-vector traffics."""
    ref = fields[0]
    gpu.launch(name, ref.precision, bytes_moved=n_passes * ref.body_bytes, flops=flops)


def _reduce(gpu: VirtualGPU, qmp: QMPMachine | None, value):
    """Complete a reduction: read the partial sum back, then global-sum.

    The host needs the kernel's result, so every reduction pays a tiny
    synchronous device-to-host copy (which also drains stream 0) before
    the QMP sum — the "occasional small messages needed to complete
    global sums" of Section III, and the reason reductions are a latency
    cost the solver cannot hide.
    """
    gpu.memcpy("reduction_result_d2h", "d2h", 32, asynchronous=False)
    if qmp is not None:
        return qmp.global_sum(value)
    return value


# ------------------------------------------------------------------------ #
# Streaming (non-reduction) kernels
# ------------------------------------------------------------------------ #


def copy(gpu: VirtualGPU, src: DeviceSpinorField, dst: DeviceSpinorField) -> None:
    """``dst = src`` — also the precision-conversion kernel of the mixed
    precision solver (traffic is read-at-src-precision,
    write-at-dst-precision)."""
    nbytes = src.body_bytes + dst.body_bytes
    gpu.launch("blas_copy", dst.precision, bytes_moved=nbytes, flops=0)
    if gpu.execute:
        dst.set(src.get())


def zero(gpu: VirtualGPU, x: DeviceSpinorField) -> None:
    """``x = 0`` (write-only pass)."""
    gpu.launch("blas_zero", x.precision, bytes_moved=x.body_bytes, flops=0)
    x.zero()


def scale(gpu: VirtualGPU, a: complex, x: DeviceSpinorField) -> None:
    """``x = a * x``."""
    _launch(gpu, "blas_scal", (x,), 2, 6 * _n_complex(x))
    if gpu.execute:
        x.set(np.asarray(a, dtype=x.precision.complex_compute_dtype) * x.working())


def axpy(gpu: VirtualGPU, a: complex, x: DeviceSpinorField, y: DeviceSpinorField) -> None:
    """``y = a x + y`` (a may be complex: QUDA's caxpy)."""
    _launch(gpu, "blas_axpy", (x, y), 3, 8 * _n_complex(x))
    if gpu.execute:
        y.set(y.working() + np.asarray(a, dtype=y.precision.complex_compute_dtype) * x.working())


def xpay(gpu: VirtualGPU, x: DeviceSpinorField, a: complex, y: DeviceSpinorField) -> None:
    """``y = x + a y``."""
    _launch(gpu, "blas_xpay", (x, y), 3, 8 * _n_complex(x))
    if gpu.execute:
        y.set(x.working() + np.asarray(a, dtype=y.precision.complex_compute_dtype) * y.working())


def axpby(gpu: VirtualGPU, a: complex, x: DeviceSpinorField, b: complex, y: DeviceSpinorField) -> None:
    """``y = a x + b y``."""
    _launch(gpu, "blas_axpby", (x, y), 3, 14 * _n_complex(x))
    if gpu.execute:
        cdtype = y.precision.complex_compute_dtype
        y.set(
            np.asarray(a, dtype=cdtype) * x.working()
            + np.asarray(b, dtype=cdtype) * y.working()
        )


def update_p(
    gpu: VirtualGPU,
    r: DeviceSpinorField,
    p: DeviceSpinorField,
    v: DeviceSpinorField,
    beta: complex,
    omega: complex,
) -> None:
    """BiCGstab search-direction update, fused:
    ``p = r + beta * (p - omega * v)`` — one pass instead of three."""
    _launch(gpu, "blas_bicgstab_p", (r, p, v), 4, 16 * _n_complex(r))
    if gpu.execute:
        cdtype = p.precision.complex_compute_dtype
        beta_c = np.asarray(beta, dtype=cdtype)
        omega_c = np.asarray(omega, dtype=cdtype)
        p.set(r.working() + beta_c * (p.working() - omega_c * v.working()))


def caxpy_pair(
    gpu: VirtualGPU,
    a: complex,
    x: DeviceSpinorField,
    b: complex,
    y: DeviceSpinorField,
    z: DeviceSpinorField,
) -> None:
    """Fused double update ``z = z + a x + b y`` (the BiCGstab solution
    update ``x += alpha p + omega s``)."""
    _launch(gpu, "blas_caxpy_pair", (x, y, z), 4, 16 * _n_complex(x))
    if gpu.execute:
        cdtype = z.precision.complex_compute_dtype
        z.set(
            z.working()
            + np.asarray(a, dtype=cdtype) * x.working()
            + np.asarray(b, dtype=cdtype) * y.working()
        )


# ------------------------------------------------------------------------ #
# Reduction kernels
# ------------------------------------------------------------------------ #


def norm2(
    gpu: VirtualGPU,
    x: DeviceSpinorField,
    qmp: QMPMachine | None = None,
) -> float:
    """Global ``|x|^2``.  The end zone never contributes (Section VI-C)."""
    _launch(gpu, "blas_norm2", (x,), 1, 4 * _n_complex(x))
    local = 0.0
    if gpu.execute:
        w = x.working()
        local = float(np.vdot(w, w).real)
    return float(_reduce(gpu, qmp, local))


def cdot(
    gpu: VirtualGPU,
    x: DeviceSpinorField,
    y: DeviceSpinorField,
    qmp: QMPMachine | None = None,
) -> complex:
    """Global ``<x, y>`` (conjugate-linear in ``x``)."""
    _launch(gpu, "blas_cdot", (x, y), 2, 8 * _n_complex(x))
    local = 0.0 + 0.0j
    if gpu.execute:
        local = complex(np.vdot(x.working(), y.working()))
    return complex(_reduce(gpu, qmp, local))


def redot(
    gpu: VirtualGPU,
    x: DeviceSpinorField,
    y: DeviceSpinorField,
    qmp: QMPMachine | None = None,
) -> float:
    """Global ``Re <x, y>`` (all CG needs: its operator is Hermitian)."""
    _launch(gpu, "blas_redot", (x, y), 2, 4 * _n_complex(x))
    local = 0.0
    if gpu.execute:
        local = float(np.vdot(x.working(), y.working()).real)
    return float(_reduce(gpu, qmp, local))


def cdot_norm(
    gpu: VirtualGPU,
    x: DeviceSpinorField,
    y: DeviceSpinorField,
    qmp: QMPMachine | None = None,
) -> tuple[complex, float]:
    """Fused ``(<x, y>, |x|^2)`` in one pass — BiCGstab's omega step."""
    _launch(gpu, "blas_cdot_norm", (x, y), 2, 12 * _n_complex(x))
    local = np.zeros(3)
    if gpu.execute:
        xw, yw = x.working(), y.working()
        d = np.vdot(xw, yw)
        local = np.array([d.real, d.imag, np.vdot(xw, xw).real])
    total = np.asarray(_reduce(gpu, qmp, local))
    return complex(total[0], total[1]), float(total[2])


def axpy_norm(
    gpu: VirtualGPU,
    a: complex,
    x: DeviceSpinorField,
    y: DeviceSpinorField,
    qmp: QMPMachine | None = None,
) -> float:
    """Fused ``y += a x; return |y|^2`` — the residual-update-and-check
    step, saving a full extra pass per iteration."""
    _launch(gpu, "blas_axpy_norm", (x, y), 3, 12 * _n_complex(x))
    local = 0.0
    if gpu.execute:
        cdtype = y.precision.complex_compute_dtype
        out = y.working() + np.asarray(a, dtype=cdtype) * x.working()
        y.set(out)
        # The reduction reads what was *stored* (quantized for half).
        w = y.working()
        local = float(np.vdot(w, w).real)
    return float(_reduce(gpu, qmp, local))
