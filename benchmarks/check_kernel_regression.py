#!/usr/bin/env python
"""Bench-regression guard for the dslash kernel's wall clock.

``BENCH_kernels.json`` holds per-call medians of the fused dslash kernel at
the shapes the functional solver issues (``benchmarks/bench_kernels.py``),
recorded at the parent of the change that rewrote the kernel body and at
that change, and, in its ``application`` block, per-application medians of
one ``DeviceSchurOperator.apply`` on a 2-rank world, recorded at the
parent of the change that computes each application's parity once and at
that change, and again, for the half-precision application on the
8^3 x 8 local volume, at the parent of the change that decodes the half
clover once per upload and at that change (labels ``clover_once_parent``
and ``clover_once``).  Wall time is machine-specific, so each guard is
one absolute ceiling and not a band, at ``CEILING_FACTOR`` times the
committed median of the change that set it:

* the half-precision fused full-region kernel on the 8^3 x 8 local volume
  — the ledger's ``solve-mixed`` inner kernel.  The committed parent
  median is about three times the change's, so a change that brings back
  per-call decoding of the constant fields, or a dispatch per site, lands
  above the ceiling while a slow runner does not;
* the double-precision application on the 4^3 x 8 local volume — what
  ``solve-small-double`` pays per operator application, where per-call
  cost rules.  Its parent median is about 1.7 times the change's, so
  this ceiling catches a gross regression of the per-application path
  (a body per region and more, a rebuilt table per call), not a return
  to two bodies alone; the ledger's paired runs measure that;
* the half-precision application on the 8^3 x 8 local volume — what
  ``solve-mixed`` pays per operator application, with the clover decode
  kept and the hop's spin factors applied as selections.  Its parent
  median is about 1.3 times the change's, so the ceiling catches a
  gross regression (per-call decoding of every constant field, a
  dispatch per site), not the return of one of those parts; the
  ledger's paired runs measure that.

Usage::

    python benchmarks/check_kernel_regression.py [BASELINE_JSON]

Exits non-zero when a ceiling is exceeded.
"""

import json
import pathlib
import sys

CEILING_FACTOR = 2.0
GUARDED_CASE = ("8x8x8x8", "half")
GUARDED_APPLICATION = ("4x4x4x8", "double")
#: The half application, and the labels its ceiling was recorded under.
GUARDED_HALF_APPLICATION = ("8x8x8x8", "half")
HALF_LABELS = ("clover_once_parent", "clover_once")


def _verdict(name, rows, measured, committed, parent) -> bool:
    ceiling = CEILING_FACTOR * committed
    ok = measured <= ceiling
    verdict = "ok" if ok else f"REGRESSION (ceiling {CEILING_FACTOR:g}x the committed median)"
    print(
        f"{name} ({rows} rows): measured {measured:.3f} ms/call, committed "
        f"{committed:.3f} (parent {parent:.3f}), ceiling {ceiling:.3f}  {verdict}"
    )
    return ok


def main(argv: list[str]) -> int:
    here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import bench_kernels

    baseline_path = pathlib.Path(argv[1]) if len(argv) > 1 else bench_kernels.BASELINE
    baseline = json.loads(baseline_path.read_text())

    volume, precision = GUARDED_CASE
    name = bench_kernels.case_name(volume, "full", precision)
    apply, rows = bench_kernels.fused_dslash_case(volume, precision)
    kernel_ok = _verdict(
        name, rows, 1e3 * bench_kernels.median_seconds(apply, budget_s=2.0),
        baseline["change"][name]["ms_per_call"], baseline["parent"][name]["ms_per_call"],
    )

    block = baseline["application"]
    application_ok = True
    for (volume, precision), (parent, change), calls in (
        (GUARDED_APPLICATION, ("parent", "change"), 100),
        (GUARDED_HALF_APPLICATION, HALF_LABELS, 30),
    ):
        name = bench_kernels.case_name(volume, "application", precision)
        application_ok &= _verdict(
            name, block[change][name]["rows"],
            1e3 * bench_kernels.schur_application_seconds(volume, precision, calls=calls),
            block[change][name]["ms_per_call"], block[parent][name]["ms_per_call"],
        )
    return 0 if kernel_ok and application_ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
