#!/usr/bin/env python
"""Bench-regression guard for the SimMPI rendezvous (``bench_comms.py``).

Two checks, both on host wall clock per rank body:

* **shape** (machine-independent): a timing-only ``scaling_point`` does the
  same work on every rank, so a rank body at 32 ranks must cost at most
  ``SHAPE_FACTOR`` times one at 2 ranks.  With one runnable rank it is
  ~1.25x (the collectives' O(ranks) combine).  Free-running rank threads
  read anywhere from 0.9x to 3.5x: their 2-rank body is bimodal (31-100 ms
  where the baton's is 27) by where the kernel put the two threads.
* **ceiling** (absolute, generous): the payload-free ``ring`` at 32 ranks —
  nothing but the blocking path — must stay under ``CEILING_FACTOR`` times
  the ``change`` median committed in ``BENCH_comms.json``.  The committed
  ``parent`` (free-running rank threads, polled rendezvous) sits at six
  times it, so a runner half as fast passes and a scheduler regression
  does not.

Usage::

    python benchmarks/check_comms_regression.py [BASELINE_JSON]

Exits non-zero when either check fails.
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

    committed = baseline["change"]["ring/32"]["ms_per_rank_body"]
    measured = bench_comms.measure("ring", 32)["ms_per_rank_body"]
    ceiling_ok = measured <= CEILING_FACTOR * committed
    print(
        f"ring/32: measured {measured:.2f} ms/body, committed {committed:.2f} "
        f"(parent {baseline['parent']['ring/32']['ms_per_rank_body']:.2f}), "
        f"ceiling {CEILING_FACTOR * committed:.2f}  "
        + ("ok" if ceiling_ok else f"REGRESSION (ceiling {CEILING_FACTOR:g}x the committed median)")
    )
    return 0 if shape_ok and ceiling_ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
