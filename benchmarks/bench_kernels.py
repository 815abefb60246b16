"""Wall-clock microbenchmarks of the NumPy compute kernels themselves.

These measure the *simulator's* real execution speed (useful when working
on the library); the paper-shape results come from the model-time benches
in the other files.

The dslash cases are a T-partitioned rank's fused kernel (clover
multiply + xpay) over the whole parity of the 8^3 x 8 local volume of the
ledger's ``solve-mixed`` (2,048 rows) and the 4^3 x 8 local volume of
``solve-small-double`` (256), at every storage precision, named
``VOLUME/full/PRECISION``.  Every dslash call computes the whole parity,
whichever launch it charges, so that is the one body there is to time.
(Rows of the ``interior`` and ``boundary`` regions in
``BENCH_kernels.json`` are recordings of an earlier, region-partial body.)
What a solve pays per application is the ``application`` case: one
``DeviceSchurOperator.apply`` (two fused dslash applications with their
face exchanges) on a 2-rank T-sliced world at both local volumes and every
precision, in wall seconds of the whole world (the ranks take turns on
one thread).  Two ways to run them::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py   # pytest-benchmark
    PYTHONPATH=src python benchmarks/bench_kernels.py --record change
    PYTHONPATH=src python benchmarks/bench_kernels.py --case application --record change

The second form writes per-call medians of the dslash cases into
``BENCH_kernels.json`` under the given label; the third writes the
application cases into that file's ``application`` block.  A label that
the target block already holds is refused (exit status 2), so a new
recording never replaces committed rows.  Pointing
``PYTHONPATH`` at another checkout's ``src`` records that commit with the
identical benchmark code (the file uses only the public kernel, field,
operator and SPMD API).  ``check_kernel_regression.py`` guards the
committed numbers.
"""

import argparse
import json
import pathlib
import statistics
import time

import numpy as np
import pytest

from repro.comms import QMPMachine, run_spmd
from repro.core import blas
from repro.core.dslash import DeviceSchurOperator
from repro.gpu import (
    BACKWARD,
    FORWARD,
    DeviceCloverField,
    DeviceGaugeField,
    DeviceSpinorField,
    Precision,
    VirtualGPU,
)
from repro.gpu.kernels import dslash_kernel, dslash_tables
from repro.lattice import (
    LatticeGeometry,
    WilsonCloverOperator,
    make_clover,
    random_spinor,
    weak_field_gauge,
)
from repro.lattice.evenodd import EVEN, full_to_parity

DIMS = (8, 8, 8, 8)
BASELINE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: Local volumes of the two functional ledger workloads on two ranks.
LOCAL_VOLUMES = {"8x8x8x8": (8, 8, 8, 8), "4x4x4x8": (4, 4, 4, 8)}
DSLASH_CASES = [
    (volume, precision.name.lower()) for volume in LOCAL_VOLUMES for precision in Precision
]


def case_name(volume: str, region: str, precision: str) -> str:
    return f"{volume}/{region}/{precision}"


def fused_dslash_case(volume: str, precision: str):
    """``(apply, rows)``: one T-partitioned fused kernel application."""
    rng = np.random.default_rng(1)
    geo = LatticeGeometry(LOCAL_VOLUMES[volume])
    prec = Precision.parse(precision)
    host_gauge = weak_field_gauge(geo, rng, 0.1)
    vh, face = geo.half_volume, geo.face_half_sites(3)
    gpu = VirtualGPU(enforce_memory=False)
    gauge = DeviceGaugeField(
        gpu, sites=geo.volume, precision=prec,
        ghosts={3: geo.spatial_volume}, pad_sites=geo.spatial_volume,
    )
    gauge.set(host_gauge.data)
    gauge.set_ghost(host_gauge.data[3][-geo.spatial_volume:])

    def spinor(label):
        field = DeviceSpinorField(gpu, sites=vh, precision=prec, faces={3: face}, label=label)
        field.set(rng.standard_normal((vh, 4, 3)) + 1j * rng.standard_normal((vh, 4, 3)))
        return field

    src, x, dst = spinor("src"), spinor("x"), spinor("dst")
    for direction in (BACKWARD, FORWARD):
        src.set_ghost(
            direction,
            rng.standard_normal((face, 2, 3)) + 1j * rng.standard_normal((face, 2, 3)),
        )
    blocks = make_clover(host_gauge).data[geo.sites_of_parity[EVEN]]
    blocks[:, :, np.arange(6), np.arange(6)] += 4.1
    clover = DeviceCloverField(gpu, sites=vh, precision=prec)
    clover.set(blocks)
    tables = dslash_tables(geo, EVEN)

    def apply():
        dslash_kernel(
            gpu, tables, gauge, src, dst, partitioned=(3,),
            clover=clover, clover_target="xpay", xpay=(-0.25, x),
        )
        gpu.timeline.ops.clear()  # the model clock is not what is timed

    return apply, vh


APPLICATION_CASES = [
    (volume, precision.name.lower()) for volume in LOCAL_VOLUMES for precision in Precision
]


def schur_application_seconds(volume: str, precision: str, *, calls: int = 30) -> float:
    """Median wall seconds of one ``DeviceSchurOperator.apply`` on a 2-rank
    world T-sliced into ``volume`` per rank, after two warm-up calls.

    Rank 0 times each of its applications; with one rank running at a time
    that span covers both ranks' work, so the median is the world's.
    """
    rng = np.random.default_rng(1)
    local = LOCAL_VOLUMES[volume]
    geo = LatticeGeometry(local[:3] + (2 * local[3],))
    prec = Precision.parse(precision)
    host_gauge = weak_field_gauge(geo, rng, 0.1)
    blocks = make_clover(host_gauge).data
    psi = rng.standard_normal((geo.volume, 4, 3)) + 1j * rng.standard_normal((geo.volume, 4, 3))
    slicing = geo.slice_grid(1, 2)

    def rank(comm):
        gpu = VirtualGPU(enforce_memory=False, name=f"gpu{comm.rank}")
        comm.bind_timeline(gpu.timeline)
        slab = slicing.local_sites(comm.rank)
        op = DeviceSchurOperator.setup(
            gpu, QMPMachine(comm), slicing.locals[comm.rank],
            host_gauge.data[:, slab], blocks[slab], 0.1, precision=prec,
        )
        src, tmp, dst = (op.make_spinor(label) for label in ("src", "tmp", "dst"))
        src.set(full_to_parity(slicing.locals[comm.rank], psi[slab], EVEN))
        samples = []
        for _ in range(calls + 2):
            start = time.perf_counter()
            op.apply(src, tmp, dst)
            samples.append(time.perf_counter() - start)
            gpu.timeline.ops.clear()  # the model clock is not what is timed
        return statistics.median(samples[2:])

    return run_spmd(2, rank)[0]


def median_seconds(apply, *, budget_s: float = 0.5, min_calls: int = 20) -> float:
    """Median wall seconds of one call, after two warm-up calls."""
    apply()
    apply()
    samples = []
    began = time.perf_counter()
    while len(samples) < min_calls or time.perf_counter() - began < budget_s:
        start = time.perf_counter()
        apply()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def measure_all() -> dict:
    """Per-call medians (milliseconds) of every dslash case, with row counts."""
    out = {}
    for volume, precision in DSLASH_CASES:
        apply, rows = fused_dslash_case(volume, precision)
        out[case_name(volume, "full", precision)] = {
            "rows": rows,
            "ms_per_call": round(1e3 * median_seconds(apply), 4),
        }
    return out


def measure_applications() -> dict:
    """Per-application medians (milliseconds) of every application case,
    with the rows of one parity on one rank."""
    out = {}
    for volume, precision in APPLICATION_CASES:
        rows = LatticeGeometry(LOCAL_VOLUMES[volume]).half_volume
        out[case_name(volume, "application", precision)] = {
            "rows": rows,
            "ms_per_call": round(1e3 * schur_application_seconds(volume, precision), 4),
        }
    return out


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(1)
    geo = LatticeGeometry(DIMS)
    gauge = weak_field_gauge(geo, rng, 0.1)
    clover = make_clover(gauge)
    psi = random_spinor(geo, rng)
    return geo, gauge, clover, psi


def test_host_wilson_clover_apply(benchmark, setup):
    geo, gauge, clover, psi = setup
    op = WilsonCloverOperator(gauge, 0.1, clover)
    benchmark(op.apply, psi)


@pytest.mark.parametrize("volume,precision", DSLASH_CASES)
def test_device_fused_dslash(benchmark, volume, precision):
    apply, _ = fused_dslash_case(volume, precision)
    benchmark(apply)


@pytest.mark.parametrize("volume,precision", APPLICATION_CASES)
def test_schur_application(benchmark, volume, precision):
    benchmark.pedantic(
        schur_application_seconds, args=(volume, precision), kwargs={"calls": 5},
        rounds=1, iterations=1,
    )


def test_clover_construction(benchmark, setup):
    geo, gauge, clover, psi = setup
    benchmark(make_clover, gauge)


def test_blas_axpy_norm(benchmark, setup):
    geo, *_ = setup
    gpu = VirtualGPU(enforce_memory=False)
    rng = np.random.default_rng(2)
    x = DeviceSpinorField(gpu, sites=geo.half_volume, precision=Precision.SINGLE)
    y = DeviceSpinorField(
        gpu, sites=geo.half_volume, precision=Precision.SINGLE, label="y"
    )
    data = rng.standard_normal((geo.half_volume, 4, 3)) + 0j
    x.set(data)
    y.set(data)
    benchmark(blas.axpy_norm, gpu, 0.5, x, y)


def test_half_precision_roundtrip(benchmark, setup):
    geo, *_ = setup
    gpu = VirtualGPU(enforce_memory=False)
    f = DeviceSpinorField(gpu, sites=geo.volume, precision=Precision.HALF)
    rng = np.random.default_rng(3)
    data = rng.standard_normal((geo.volume, 4, 3)) + 0j

    def roundtrip():
        f.set(data)
        return f.get()

    benchmark(roundtrip)


def test_clover_field_pack(benchmark, setup):
    geo, gauge, clover, psi = setup
    from repro.lattice.clover import pack_clover

    benchmark(pack_clover, clover)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", metavar="LABEL",
        help="store the medians under LABEL (e.g. parent, change) in the baseline file",
    )
    parser.add_argument("--baseline", type=pathlib.Path, default=BASELINE)
    parser.add_argument(
        "--case", choices=("dslash", "application"), default="dslash",
        help="the fused dslash kernel, or one operator application",
    )
    args = parser.parse_args(argv)
    application = args.case == "application"
    if args.record:
        # Recorded rows are evidence a later change is compared against:
        # a label is written once and never replaced.
        doc = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        held = doc.get("application", {}) if application else doc
        if args.record in held:
            where = "the 'application' block" if application else "the top-level block"
            parser.error(
                f"label {args.record!r} already exists in {where} of "
                f"{args.baseline}; record under a new label"
            )
    results = measure_applications() if application else measure_all()
    for name, row in results.items():
        print(f"{name:32s} {row['rows']:5d} rows  {row['ms_per_call']:8.3f} ms/call")
    if args.record:
        doc.setdefault(
            "what",
            "per-call wall-clock medians (ms) of one T-partitioned fused dslash "
            "application (clover + xpay), benchmarks/bench_kernels.py, BLAS pinned "
            "to one thread",
        )
        block = doc
        if application:
            block = doc.setdefault("application", {
                "what": "per-application wall-clock medians (ms) of one "
                "DeviceSchurOperator.apply on a 2-rank T-sliced world (both ranks' "
                "work), benchmarks/bench_kernels.py --case application, BLAS pinned "
                "to one thread",
            })
        block[args.record] = results
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"recorded {len(results)} case(s) under {args.record!r} in {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
