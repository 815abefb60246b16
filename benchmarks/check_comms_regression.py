#!/usr/bin/env python
"""Bench-regression guard for the SimMPI rendezvous (``bench_comms.py``).

Three checks, all on host wall clock per rank body:

* **shape** (machine-independent): a timing-only ``scaling_point`` does the
  same work on every rank, so a rank body at 32 ranks must cost at most
  ``SHAPE_FACTOR`` times one at 2 ranks.  With one runnable rank and the
  collective verified once it reads 0.9-1.15x on a quiet runner and up to
  ~1.4x on a loaded one (a 32-rank body parks 353 times, a 2-rank body
  184, and a park costs more under load).  Free-running rank threads read
  anywhere from 0.9x to 3.5x.
* **ceilings** (absolute, generous): the payload-free ``ring`` at 32 ranks
  — nothing but the blocking path — and the timing-only ``scaling_point``
  at 32 ranks — the per-call bookkeeping of the solve, the ledger's
  ``model-sweep`` body — must each stay under ``CEILING_FACTOR`` times the
  ``change`` median committed in ``BENCH_comms.json``, so a runner half as
  fast passes and a lost order of magnitude does not.

Usage::

    python benchmarks/check_comms_regression.py [BASELINE_JSON]

Exits non-zero when any check fails.
"""

import json
import pathlib
import sys

SHAPE_FACTOR = 1.5
CEILING_FACTOR = 2.0


def main(argv: list[str]) -> int:
    here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import bench_comms

    baseline_path = pathlib.Path(argv[1]) if len(argv) > 1 else bench_comms.BASELINE
    baseline = json.loads(baseline_path.read_text())

    few, many = (
        bench_comms.measure("scaling_point", ranks)["ms_per_rank_body"]
        for ranks in (2, 32)
    )
    shape_ok = many <= SHAPE_FACTOR * few
    print(
        f"scaling_point: {few:.2f} ms/body at 2 ranks, {many:.2f} at 32 "
        f"({many / few:.2f}x, limit {SHAPE_FACTOR:g}x)  "
        + ("ok" if shape_ok else "REGRESSION (cost per rank body grows with rank count)")
    )

    ceilings_ok = True
    for case in ("ring", "scaling_point"):
        name = f"{case}/32"
        committed = baseline["change"][name]["ms_per_rank_body"]
        measured = bench_comms.measure(case, 32)["ms_per_rank_body"]
        ok = measured <= CEILING_FACTOR * committed
        ceilings_ok &= ok
        print(
            f"{name}: measured {measured:.2f} ms/body, committed {committed:.2f} "
            f"(parent {baseline['parent'][name]['ms_per_rank_body']:.2f}), "
            f"ceiling {CEILING_FACTOR * committed:.2f}  "
            + ("ok" if ok else f"REGRESSION (ceiling {CEILING_FACTOR:g}x the committed median)")
        )
    return 0 if shape_ok and ceilings_ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
