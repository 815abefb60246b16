"""Device memory accounting: allocation, capacity, and OOM behaviour.

"Memory constraints on current GPU devices limit the problem sizes that can
be tackled" — the entire motivation of the paper.  Two results depend on
faithful memory accounting:

* the 32^3 x 256 lattice does not fit on a single 2 GiB GTX 285 at all
  (hence multi-GPU), and
* "the mixed precision solver must store data for both the single and half
  precision solves, and this increase in memory footprint means that at
  least 8 GPUs are needed to solve this system", while "the uniform single
  precision solver ... can be solved (at a performance cost) already on 4
  GPUs" (Section VII-C).

:class:`DeviceAllocator` therefore tracks every allocation with a label
and raises :class:`DeviceOutOfMemoryError` with a breakdown when the
capacity of the card is exceeded; the memory-footprint bench
(`benchmarks/bench_memory_footprint.py`) reproduces the 4-vs-8 GPU result
from exactly this accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DeviceOutOfMemoryError", "DeviceBuffer", "DeviceAllocator"]

#: CUDA allocations are aligned generously; 256 B matches the GT200
#: partition width and texture alignment requirements.
ALIGNMENT = 256


class DeviceOutOfMemoryError(MemoryError):
    """Raised when an allocation exceeds the device's remaining memory."""


def _align(nbytes: int) -> int:
    return (nbytes + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


@dataclass
class DeviceBuffer:
    """One device allocation.

    ``array`` is the backing store for functional simulation; timing-only
    runs allocate a zero-length array but still account ``nbytes``.
    """

    label: str
    nbytes: int
    array: np.ndarray
    freed: bool = False

    def require_live(self) -> None:
        if self.freed:
            raise RuntimeError(f"use-after-free of device buffer {self.label!r}")


@dataclass
class DeviceAllocator:
    """Tracks device-memory usage against a card's capacity.

    Parameters
    ----------
    capacity_bytes:
        Device memory size.  ``None`` disables capacity enforcement
        (useful in unit tests that are not about memory).
    reserved_bytes:
        Memory unavailable to the application: CUDA context, display,
        driver scratch.  ~128 MiB is representative for the 9g nodes.
    execute:
        When ``False`` (timing-only mode), allocations are *accounted* but
        not *backed* — paper-scale lattices then cost no host RAM.
    """

    capacity_bytes: int | None = None
    reserved_bytes: int = 128 * 2**20
    execute: bool = True
    _live: dict[int, DeviceBuffer] = field(default_factory=dict, repr=False)
    _used: int = 0
    _peak: int = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def peak_bytes(self) -> int:
        return self._peak

    @property
    def available_bytes(self) -> int | None:
        if self.capacity_bytes is None:
            return None
        return self.capacity_bytes - self.reserved_bytes - self._used

    def alloc(self, shape: tuple[int, ...] | int, dtype, label: str) -> DeviceBuffer:
        """Allocate a device array; raises :class:`DeviceOutOfMemoryError`.

        The error message includes the current allocation table so the
        memory-footprint experiments can report *why* a configuration does
        not fit.
        """
        if isinstance(shape, int):
            shape = (shape,)
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        return self.alloc_bytes(nbytes, shape, dtype, label)

    def alloc_bytes(
        self, nbytes: int, shape: tuple[int, ...] | int, dtype, label: str
    ) -> DeviceBuffer:
        """Allocate with explicit byte accounting.

        Device fields are stored *logically* as convenient NumPy arrays but
        accounted at their true GPU-layout size (blocked, padded, plus end
        zone) so that memory-footprint experiments are faithful even though
        the backing store differs.
        """
        if isinstance(shape, int):
            shape = (shape,)
        dtype = np.dtype(dtype)
        nbytes = _align(int(nbytes))
        avail = self.available_bytes
        if avail is not None and nbytes > avail:
            raise DeviceOutOfMemoryError(
                f"cannot allocate {nbytes / 2**20:.1f} MiB for {label!r}: "
                f"{self._used / 2**20:.1f} MiB in use of "
                f"{(self.capacity_bytes - self.reserved_bytes) / 2**20:.1f} MiB "
                f"usable.\n{self.report()}"
            )
        array = (
            np.zeros(shape, dtype=dtype) if self.execute else np.zeros(0, dtype=dtype)
        )
        buf = DeviceBuffer(label=label, nbytes=nbytes, array=array)
        self._live[id(buf)] = buf
        self._used += nbytes
        self._peak = max(self._peak, self._used)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """Release an allocation (double-free raises)."""
        buf.require_live()
        if id(buf) not in self._live:
            raise RuntimeError(f"buffer {buf.label!r} not owned by this allocator")
        del self._live[id(buf)]
        self._used -= buf.nbytes
        buf.freed = True
        buf.array = np.zeros(0, dtype=buf.array.dtype)

    def report(self) -> str:
        """Human-readable allocation table (largest first)."""
        rows = sorted(self._live.values(), key=lambda b: -b.nbytes)
        lines = [f"  {b.nbytes / 2**20:10.2f} MiB  {b.label}" for b in rows]
        header = f"device allocations ({self._used / 2**20:.1f} MiB total):"
        return "\n".join([header] + lines) if lines else header + " (none)"
