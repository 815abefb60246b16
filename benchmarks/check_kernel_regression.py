#!/usr/bin/env python
"""Bench-regression guard for the dslash kernel's wall clock.

``BENCH_kernels.json`` holds per-call medians of the fused dslash kernel at
the shapes the functional solver issues (``benchmarks/bench_kernels.py``),
recorded at the parent of the change that rewrote the kernel body and at
that change.  Wall time is machine-specific, so this guard is one absolute
ceiling and not a band: the half-precision fused full-region application
on the 8^3 x 8 local volume — the ledger's ``solve-mixed`` inner kernel —
must stay under ``CEILING_FACTOR`` times the committed ``change`` median.
The committed parent median is about three times the change's, so a change
that brings back per-call decoding of the constant fields, or a dispatch
per site, lands above the ceiling while a slow runner does not.

Usage::

    python benchmarks/check_kernel_regression.py [BASELINE_JSON]

Exits non-zero when the ceiling is exceeded.
"""

import json
import pathlib
import sys

CEILING_FACTOR = 2.0
GUARDED_CASE = ("8x8x8x8", "full", "half")


def main(argv: list[str]) -> int:
    here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import bench_kernels

    baseline_path = pathlib.Path(argv[1]) if len(argv) > 1 else bench_kernels.BASELINE
    baseline = json.loads(baseline_path.read_text())
    name = bench_kernels.case_name(*GUARDED_CASE)
    committed = baseline["change"][name]["ms_per_call"]
    ceiling = CEILING_FACTOR * committed

    apply, rows = bench_kernels.fused_dslash_case(*GUARDED_CASE)
    measured = 1e3 * bench_kernels.median_seconds(apply, budget_s=2.0)
    ok = measured <= ceiling
    verdict = "ok" if ok else f"REGRESSION (ceiling {CEILING_FACTOR:g}x the committed median)"
    print(
        f"{name} ({rows} rows): measured {measured:.3f} ms/call, committed "
        f"{committed:.3f} (parent {baseline['parent'][name]['ms_per_call']:.3f}), "
        f"ceiling {ceiling:.3f}  {verdict}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
