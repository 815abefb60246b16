"""Calibrated timing model for kernels and transfers.

The paper's performance results are governed by a handful of measured
hardware characteristics; this module is the single home for all of them,
each with its provenance:

* **Kernel time** — QUDA's kernels are "strongly bandwidth bound"
  (Section V-C); kernel duration is ``bytes / effective_bandwidth`` with a
  per-precision efficiency factor folding in achievable-vs-peak DRAM
  efficiency, texture-cache behaviour, and the register-pressure/occupancy
  differences between precisions.  The factors are calibrated so that a
  single simulated GTX 285 sustains roughly the Wilson-clover solver rates
  reported for that card (~100 Gflops single, ~40 double, ~180 half for
  the matrix-vector product; the full solver lands 10-20% lower per
  Section V-E).

* **PCI-Express** — Fig. 7's microbenchmark: a synchronous ``cudaMemcpy``
  has ~11 us latency while ``cudaMemcpyAsync`` (+ synchronize) costs just
  under 50 us; host-to-device and device-to-host have *different*
  bandwidths (different slopes in Fig. 7), a quirk of the early-revision
  Intel 5520 (Tylersburg) chipset.  These four numbers are the cause of
  the Fig. 5(b) result that overlapping *hurts* at small local volumes.

* **InfiniBand** — QDR IB, whose bandwidth "is half again" less than x16
  PCI-E (Section III): ~3 GB/s effective per direction with rendezvous
  latency of a few microseconds.

* **NUMA** — binding an MPI process to the socket *opposite* its GPU's
  PCIe bus costs PCIe bandwidth and latency (the maroon curve of
  Fig. 5(a)); the penalty factors below reproduce the observed gap.

All times are in **seconds**; bandwidths in **bytes/second** internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .precision import Precision
from .specs import GPUSpec

__all__ = ["PerfModelParams", "DEFAULT_PARAMS", "kernel_time", "pcie_time", "occupancy_factor"]

US = 1e-6
GB = 1e9


@dataclass(frozen=True)
class PerfModelParams:
    """Every calibrated constant of the timing model, in one place."""

    # ---- kernel model ------------------------------------------------- #
    #: Achievable fraction of peak DRAM bandwidth for the fused LQCD
    #: kernels, per storage precision.  Single benefits from float4
    #: coalescing; half pays texture-decode and norm-lookup overheads;
    #: double suffers register pressure (8192 regs/MP, Section III) and
    #: the GT200's low DP issue rate.
    #: Calibration: with the tuned occupancies of the GT200 dslash
    #: (0.25 single/half, 0.0625 double — the 8,192-register DP file) the
    #: products land the known QUDA GTX 285 Wilson-clover rates:
    #: ~122 Gflops single, ~195 half, ~45 double for the bare matvec.
    bw_efficiency: dict[Precision, float] = field(
        default_factory=lambda: {
            Precision.DOUBLE: 0.80,
            Precision.SINGLE: 0.62,
            Precision.HALF: 0.51,
        }
    )
    #: Bandwidth multiplier when a layout partition-camps (Section III):
    #: traffic concentrates on a subset of the 8 partitions.
    camping_penalty: float = 0.55
    #: Fixed device-side cost of one kernel launch (scheduling, constant
    #: cache warmup); GT200-era figure.
    kernel_overhead_s: float = 3.0 * US
    #: Host-side cost of submitting any asynchronous operation.
    submit_overhead_s: float = 4.0 * US

    # ---- PCI-Express (Fig. 7 calibration) ------------------------------ #
    pcie_latency_sync_s: float = 11.0 * US
    pcie_latency_async_s: float = 48.0 * US
    pcie_bw_h2d: float = 5.5 * GB
    pcie_bw_d2h: float = 4.0 * GB
    #: Deliberately-bad NUMA binding (Fig. 5(a) maroon curve): the
    #: transfer crosses the QPI link between sockets.
    numa_bw_penalty: float = 0.55
    numa_latency_extra_s: float = 4.0 * US

    # ---- Network ------------------------------------------------------- #
    #: QDR InfiniBand, host-staged (no GPUDirect in 2010).
    ib_latency_s: float = 6.0 * US
    ib_bw: float = 3.0 * GB
    #: Intra-node MPI (shared-memory copy on a Nehalem node).
    shm_latency_s: float = 1.5 * US
    shm_bw: float = 6.0 * GB
    #: Per-message MPI software overhead (matching, progress, host
    #: staging of the pinned buffers — no GPUDirect in 2010).
    mpi_overhead_s: float = 15.0 * US
    #: Allreduce cost model: latency per tree stage (2010-era OpenMPI
    #: over QDR IB; a 32-rank double sum lands near 100 us round trip).
    allreduce_stage_s: float = 20.0 * US

    def __post_init__(self) -> None:
        # Per-instance memo for effective_bandwidth (the dataclass is
        # frozen, hence the object.__setattr__).  The bandwidth is a
        # pure function of (spec, precision, occupancy, camping) for a
        # given params instance, and the kernel-time roofline evaluates
        # it on every single launch the timeline charges.
        object.__setattr__(self, "_bw_memo", {})

    def effective_bandwidth(
        self,
        spec: GPUSpec,
        precision: Precision,
        *,
        occupancy: float = 1.0,
        camping: bool = False,
    ) -> float:
        """Achievable device-memory bandwidth in bytes/second."""
        key = (spec, precision, occupancy, camping)
        eff = self._bw_memo.get(key)
        if eff is None:
            eff = spec.bandwidth_gbs * GB * self.bw_efficiency[precision]
            eff *= occupancy_factor(occupancy)
            if camping:
                eff *= self.camping_penalty
            self._bw_memo[key] = eff
        return eff


#: The default, GTX 285 / 9g-cluster calibration.
DEFAULT_PARAMS = PerfModelParams()


def occupancy_factor(occupancy: float) -> float:
    """Bandwidth fraction achieved at a given multiprocessor occupancy.

    Latency hiding needs "many threads resident at once" (Section III),
    but GT200 saturates its DRAM bandwidth already around a quarter of the
    warp slots (256 resident threads per multiprocessor) — which is why
    the register-fat dslash, capped at 25% occupancy, still streams at
    full efficiency while the double-precision variant (one 64-thread
    block per MP) loses roughly half the bandwidth.  Piecewise-linear
    saturating model calibrated to that behaviour.
    """
    if not 0.0 < occupancy <= 1.0:
        raise ValueError(f"occupancy must be in (0, 1], got {occupancy}")
    return min(1.0, 0.42 + 2.4 * occupancy)


def kernel_time(
    spec: GPUSpec,
    params: PerfModelParams,
    precision: Precision,
    bytes_moved: int,
    flops: int,
    *,
    occupancy: float = 1.0,
    camping: bool = False,
) -> float:
    """Duration of one kernel: roofline of bandwidth and compute.

    ``bytes_moved`` is total device-memory traffic (reads + writes);
    ``flops`` the arithmetic count.  LQCD kernels sit on the bandwidth
    side of the roofline at every precision on GT200, but the compute
    bound matters for double precision (88 Gflops peak on the GTX 285,
    Table I) — it is why "uniform double precision exhibits the best
    strong scaling of all, because this kernel is less bandwidth bound"
    (Section VII-C).
    """
    bw = params.effective_bandwidth(
        spec, precision, occupancy=occupancy, camping=camping
    )
    t_mem = bytes_moved / bw
    peak = spec.peak_flops(precision.real_bytes if precision.real_bytes == 8 else 4)
    t_compute = flops / (peak * GB)
    return max(t_mem, t_compute) + params.kernel_overhead_s


def pcie_time(
    params: PerfModelParams,
    nbytes: int,
    direction: str,
    *,
    asynchronous: bool,
    numa_ok: bool = True,
) -> float:
    """Duration of one PCIe transfer (the Fig. 7 microbenchmark model).

    ``direction`` is ``"h2d"`` or ``"d2h"``.  The asynchronous path has
    ~4x the latency of the synchronous one — the measured driver/chipset
    behaviour that makes overlapping a *loss* for small local volumes
    (Section VII-C / VII-D).
    """
    if direction == "h2d":
        bw = params.pcie_bw_h2d
    elif direction == "d2h":
        bw = params.pcie_bw_d2h
    else:
        raise ValueError(f"direction must be 'h2d' or 'd2h', got {direction!r}")
    latency = params.pcie_latency_async_s if asynchronous else params.pcie_latency_sync_s
    if not numa_ok:
        bw *= params.numa_bw_penalty
        latency += params.numa_latency_extra_s
    return latency + nbytes / bw
