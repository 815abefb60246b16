"""The virtual GPU: specs + memory + execution timeline in one object.

A :class:`VirtualGPU` stands in for one CUDA device (plus its controlling
host process).  It combines

* a :class:`~repro.gpu.specs.GPUSpec` (GTX 285 by default — the paper's
  test bed),
* a :class:`~repro.gpu.memory.DeviceAllocator` enforcing the card's
  2 GiB capacity,
* a :class:`~repro.gpu.streams.Timeline` with CUDA stream/engine
  semantics, and
* the calibrated :class:`~repro.gpu.perfmodel.PerfModelParams`.

``execute`` selects *functional* mode (kernels really compute, on NumPy
arrays) or *timing-only* mode (kernels advance the timeline with exact
byte/flop accounting but never touch data) — the latter lets the bench
harness run the paper-scale 32^3 x 256 lattice that no laptop could
iterate numerically.  Both modes produce identical model times, which the
tests assert.

``numa_ok`` records whether the owning process is bound to the socket
that hosts this GPU's PCIe bus (Section VII-D); transfers from a mis-bound
process are slower, reproducing the maroon curve of Fig. 5(a).

``spec``, ``params`` and ``numa_ok`` are fixed for the life of a device,
so the model duration of a launch or a transfer is a pure function of its
shape and is computed once per shape: a solve issues the same few dozen
shapes thousands of times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .memory import DeviceAllocator, DeviceBuffer
from .perfmodel import DEFAULT_PARAMS, PerfModelParams, kernel_time, pcie_time
from .precision import Precision
from .specs import GTX285, GPUSpec
from .streams import Timeline, TimelineOp

__all__ = ["VirtualGPU"]


@dataclass
class VirtualGPU:
    """One simulated CUDA device and its host-process timeline."""

    spec: GPUSpec = GTX285
    params: PerfModelParams = field(default_factory=lambda: DEFAULT_PARAMS)
    execute: bool = True
    numa_ok: bool = True
    enforce_memory: bool = True
    name: str = "gpu0"
    allocator: DeviceAllocator = field(init=False)
    timeline: Timeline = field(init=False)
    #: ``(precision, bytes, flops, occupancy, camping)`` -> roofline duration.
    _kernel_times: dict = field(default_factory=dict, init=False, repr=False)
    #: ``(nbytes, direction, asynchronous)`` -> PCIe model duration.
    _copy_times: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.allocator = DeviceAllocator(
            capacity_bytes=self.spec.ram_bytes if self.enforce_memory else None,
            execute=self.execute,
        )
        self.timeline = Timeline(
            params=self.params, copy_engines=self.spec.copy_engines
        )

    # ------------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------------ #

    def alloc(self, shape, dtype, label: str) -> DeviceBuffer:
        return self.allocator.alloc(shape, dtype, f"{self.name}:{label}")

    def free(self, buf: DeviceBuffer) -> None:
        self.allocator.free(buf)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def launch(
        self,
        name: str,
        precision: Precision,
        *,
        bytes_moved: int,
        flops: int,
        stream: int = 0,
        occupancy: float = 1.0,
        camping: bool = False,
    ) -> TimelineOp:
        """Launch a kernel with model duration from the roofline model."""
        key = (precision, bytes_moved, flops, occupancy, camping)
        duration = self._kernel_times.get(key)
        if duration is None:
            duration = self._kernel_times[key] = kernel_time(
                self.spec,
                self.params,
                precision,
                bytes_moved,
                flops,
                occupancy=occupancy,
                camping=camping,
            )
        return self.timeline.submit_kernel(
            name, duration, stream=stream, nbytes=bytes_moved, flops=flops
        )

    def memcpy(
        self,
        name: str,
        direction: str,
        nbytes: int,
        *,
        stream: int = 0,
        asynchronous: bool = False,
    ) -> TimelineOp:
        """A PCIe transfer; duration per the Fig. 7 latency/bandwidth model."""
        key = (nbytes, direction, asynchronous)
        duration = self._copy_times.get(key)
        if duration is None:
            duration = self._copy_times[key] = pcie_time(
                self.params,
                nbytes,
                direction,
                asynchronous=asynchronous,
                numa_ok=self.numa_ok,
            )
        return self.timeline.submit_copy(
            name, direction, nbytes, duration, stream=stream, asynchronous=asynchronous
        )

    # Convenience passthroughs -------------------------------------------

    def stream_synchronize(self, stream: int = 0) -> None:
        self.timeline.stream_synchronize(stream)

    def device_synchronize(self) -> None:
        self.timeline.device_synchronize()

    @property
    def elapsed(self) -> float:
        return self.timeline.elapsed

    # ------------------------------------------------------------------ #
    # Functional-mode helper
    # ------------------------------------------------------------------ #

    def compute(self, fn, *args, **kwargs):
        """Run ``fn`` only in functional mode (numerics), else skip.

        Kernels call this for their NumPy body so that timing-only runs
        share one code path with functional runs.
        """
        if self.execute:
            return fn(*args, **kwargs)
        return None

    def empty_like_field(self, shape, dtype) -> np.ndarray:
        """Scratch host array in functional mode, placeholder otherwise."""
        return np.zeros(shape, dtype=dtype) if self.execute else np.zeros(0, dtype=dtype)
