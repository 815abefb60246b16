"""Auto-tuning of kernel launch parameters (paper Section V-E).

"Since each of these kernels and their various half, single, and double
precision variants may have different optimal CUDA parameters (i.e.,
sizes of the thread blocks and the number of blocks treated at once), an
auto-tuning approach is taken to ensure maximum performance.  All
possible combinations of parameters are tested for each kernel, and the
optimal values are written out to a header file for inclusion in
production code."

Our virtual GT200 exposes the same trade-off through its occupancy model:
a thread block needs registers (16,384 single / 8,192 double per
multiprocessor — Section III) and the block size bounds how many warps
can be resident; the achievable bandwidth rises with occupancy
(:func:`repro.gpu.perfmodel.occupancy_factor`).  The tuner sweeps every
legal block size (multiples of 64, the paper's constraint) for every
(kernel, precision) pair, picks the occupancy-maximizing configuration,
and can emit the QUDA-style generated header.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..gpu.perfmodel import DEFAULT_PARAMS, kernel_time
from ..gpu.precision import Precision
from ..gpu.specs import GPUSpec, GTX285

__all__ = [
    "TuneResult",
    "TuneCache",
    "occupancy_of",
    "autotune",
    "tune_sweep_cost_s",
    "KERNEL_REGISTERS",
]

#: Representative register usage per thread (32-bit registers) for each
#: kernel family on GT200.  Double-precision values occupy two registers,
#: hence the higher counts; the dslash is the fattest kernel in QUDA.
KERNEL_REGISTERS: dict[str, dict[Precision, int]] = {
    "dslash": {Precision.DOUBLE: 112, Precision.SINGLE: 64, Precision.HALF: 60},
    "clover": {Precision.DOUBLE: 120, Precision.SINGLE: 70, Precision.HALF: 64},
    "blas": {Precision.DOUBLE: 40, Precision.SINGLE: 24, Precision.HALF: 24},
}

#: "each thread block must consist of a multiple of 64 threads"
BLOCK_SIZES = tuple(range(64, 513, 64))


@dataclass(frozen=True)
class TuneResult:
    """The tuned launch configuration of one kernel variant."""

    kernel: str
    precision: Precision
    block_size: int
    blocks_per_mp: int
    occupancy: float

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel,
            "precision": self.precision.name,
            "block_size": self.block_size,
            "blocks_per_mp": self.blocks_per_mp,
            "occupancy": self.occupancy,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TuneResult":
        return cls(
            kernel=data["kernel"],
            precision=Precision[data["precision"]],
            block_size=int(data["block_size"]),
            blocks_per_mp=int(data["blocks_per_mp"]),
            occupancy=float(data["occupancy"]),
        )


@functools.lru_cache(maxsize=None)
def occupancy_of(
    spec: GPUSpec, precision: Precision, regs_per_thread: int, block_size: int
) -> tuple[int, float]:
    """Resident blocks per multiprocessor and the resulting occupancy.

    Limits: the register file (precision dependent), the resident-thread
    ceiling, and the hardware blocks-per-MP cap.  Returns ``(0, 0.0)``
    when even one block does not fit.

    Memoized: a pure function of hashable arguments over a small domain
    (specs x precisions x register counts x block sizes), called for
    every candidate of every sweep-cost evaluation.
    """
    if block_size % 64 or block_size <= 0:
        raise ValueError("block size must be a positive multiple of 64")
    regfile = (
        spec.registers_per_mp_dp
        if precision is Precision.DOUBLE
        else spec.registers_per_mp_sp
    )
    by_regs = regfile // (regs_per_thread * block_size)
    by_threads = spec.max_threads_per_mp // block_size
    blocks = min(by_regs, by_threads, spec.max_blocks_per_mp)
    if blocks == 0:
        return 0, 0.0
    return blocks, blocks * block_size / spec.max_threads_per_mp


@dataclass
class TuneCache:
    """Tuned parameters for every (kernel, precision) pair."""

    spec_name: str
    results: dict[tuple[str, Precision], TuneResult] = field(default_factory=dict)

    def occupancy(self, kernel: str, precision: Precision) -> float:
        res = self.results.get((kernel, precision))
        return res.occupancy if res is not None else 1.0

    def result(self, kernel: str, precision: Precision) -> TuneResult:
        return self.results[(kernel, precision)]

    def to_json(self) -> dict:
        return {
            "spec": self.spec_name,
            "results": [res.to_json() for _, res in sorted(
                self.results.items(), key=lambda kv: (kv[0][0], kv[0][1].name)
            )],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TuneCache":
        cache = cls(spec_name=data["spec"])
        for entry in data["results"]:
            res = TuneResult.from_json(entry)
            cache.results[(res.kernel, res.precision)] = res
        return cache

    def as_header(self) -> str:
        """The QUDA-style generated header ("written out to a header file
        for inclusion in production code after a recompilation")."""
        lines = [
            "// Auto-generated by repro.core.autotune — do not edit.",
            f"// Device: {self.spec_name}",
        ]
        for (kernel, prec), res in sorted(
            self.results.items(), key=lambda kv: (kv[0][0], kv[0][1].name)
        ):
            macro = f"{kernel}_{prec.name}".upper()
            lines.append(f"#define {macro}_BLOCK {res.block_size}")
            lines.append(f"#define {macro}_BLOCKS_PER_MP {res.blocks_per_mp}")
        return "\n".join(lines) + "\n"


def autotune(spec: GPUSpec = GTX285) -> TuneCache:
    """Exhaustive sweep of block sizes for every kernel variant.

    Ties in occupancy break toward larger blocks (fewer blocks to
    schedule), matching what the exhaustive wall-clock sweep lands on for
    streaming kernels.
    """
    cache = TuneCache(spec_name=spec.name)
    for kernel, per_prec in KERNEL_REGISTERS.items():
        for precision, regs in per_prec.items():
            best: TuneResult | None = None
            for block in BLOCK_SIZES:
                blocks, occ = occupancy_of(spec, precision, regs, block)
                if blocks == 0:
                    continue
                candidate = TuneResult(kernel, precision, block, blocks, occ)
                if best is None or (candidate.occupancy, candidate.block_size) > (
                    best.occupancy,
                    best.block_size,
                ):
                    best = candidate
            if best is None:
                raise RuntimeError(
                    f"no legal launch configuration for {kernel} at "
                    f"{precision.name} on {spec.name}"
                )
            cache.results[(kernel, precision)] = best
    return cache


#: Streaming bytes per lattice site a representative tuning workload
#: moves, in units of the precision's real size: one spinor read, one
#: spinor write (24 reals each) — the blas-like probe QUDA's tuner times
#: for every candidate launch configuration.
_TRIAL_REALS_PER_SITE = 48

#: Wall-trials per candidate configuration (QUDA times each candidate a
#: few times and keeps the best to suppress timer noise).
_TRIALS_PER_CANDIDATE = 3


@functools.lru_cache(maxsize=None)
def tune_sweep_cost_s(spec: GPUSpec = GTX285, *, local_volume: int) -> float:
    """Model time of the exhaustive autotune sweep on one rank.

    "All possible combinations of parameters are tested for each
    kernel" (Section V-E): every legal (kernel, precision, block size)
    candidate is actually launched on the device, several times, against
    the rank's local volume.  This is the setup cost a persisted
    tunecache amortizes away — real QUDA ships ``tunecache.tsv`` for
    exactly this reason — and it is a pure function of (spec, local
    volume), so two ranks of equal slab size pay it concurrently and the
    batch-level cost equals the per-rank cost.

    Memoized: the placement engine asks for the full sweep cost on
    *every* batch (cache hits included, to credit ``saved_s``).
    """
    if local_volume < 1:
        raise ValueError("local_volume must be >= 1")
    total = 0.0
    for _, per_prec in sorted(KERNEL_REGISTERS.items()):
        for precision, regs in sorted(per_prec.items(), key=lambda kv: kv[0].name):
            for block in BLOCK_SIZES:
                blocks, occ = occupancy_of(spec, precision, regs, block)
                if blocks == 0:
                    continue
                trial = kernel_time(
                    spec,
                    DEFAULT_PARAMS,
                    precision,
                    bytes_moved=local_volume
                    * _TRIAL_REALS_PER_SITE
                    * precision.real_bytes,
                    flops=0,
                    occupancy=occ,
                ) + DEFAULT_PARAMS.submit_overhead_s
                total += _TRIALS_PER_CANDIDATE * trial
    return total
