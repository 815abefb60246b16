#!/usr/bin/env python
"""Bench-regression guard for the SimMPI rendezvous (``bench_comms.py``).

Five checks, on host wall clock and on the count of simulated rank bodies:

* **fold** (exact): a timing-only ``scaling_point`` at 32 ranks on the
  paper's 2-GPU nodes has two symmetry orbits (even and odd ranks), so it
  simulates exactly ``FOLDED_BODIES`` rank bodies.
* **fold wall** (machine-independent): with the fold, the 32-rank point
  costs at most ``FOLD_WALL_FACTOR`` times the 2-rank point (two bodies
  that park against one that never does; every rank simulated read ~18x).
  Timed as the median over ``PAIRS`` back-to-back (2-rank, 32-rank) runs
  of their ratio, so both sides of a pair see the same machine load: it
  reads 2.2-2.35x on a 2-vCPU box, where medians of separate series
  spread 1.7-2.9x under a neighbour's load.
* **shape** (machine-independent): a timing-only ``scaling_point`` does the
  same work in every rank body, so a body at 32 ranks must cost at most
  ``SHAPE_FACTOR`` times one at 2 ranks.  With one runnable rank and the
  collective verified once it read 0.9-1.15x on a quiet runner and up to
  ~1.4x on a loaded one before the fold (a 32-rank body parked 353 times,
  a 2-rank body 184, and a park costs more under load).  Free-running rank
  threads read anywhere from 0.9x to 3.5x.
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
import statistics
import sys
import time

SHAPE_FACTOR = 1.5
CEILING_FACTOR = 2.0
FOLD_WALL_FACTOR = 2.5
FOLDED_BODIES = 2
PAIRS = 7


def paired_wall_ratio(run, pairs: int = PAIRS) -> float:
    """Median of wall(``run(32)``) / wall(``run(2)``) over back-to-back pairs."""
    run(2)
    run(32)  # warm-up: imports, memoised model tables
    ratios = []
    for _ in range(pairs):
        start = time.perf_counter()
        run(2)
        middle = time.perf_counter()
        run(32)
        ratios.append((time.perf_counter() - middle) / (middle - start))
    return statistics.median(ratios)


def main(argv: list[str]) -> int:
    here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import bench_comms

    baseline_path = pathlib.Path(argv[1]) if len(argv) > 1 else bench_comms.BASELINE
    baseline = json.loads(baseline_path.read_text())

    small, large = (bench_comms.measure("scaling_point", ranks) for ranks in (2, 32))
    fold_ok = large["rank_bodies"] == FOLDED_BODIES
    print(
        f"scaling_point/32: {large['rank_bodies']} rank bodies simulated "
        f"(expected {FOLDED_BODIES})  "
        + ("ok" if fold_ok else "REGRESSION (the symmetry fold is lost)")
    )
    ratio = paired_wall_ratio(bench_comms.CASES["scaling_point"])
    fold_wall_ok = ratio <= FOLD_WALL_FACTOR
    print(
        f"scaling_point: wall at 32 ranks {ratio:.2f}x the wall at 2 (median of "
        f"{PAIRS} back-to-back pairs, limit {FOLD_WALL_FACTOR:g}x)  "
        + ("ok" if fold_wall_ok else "REGRESSION (a 32-rank point costs more than two bodies)")
    )
    few, many = small["ms_per_rank_body"], large["ms_per_rank_body"]
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
    return 0 if fold_ok and fold_wall_ok and shape_ok and ceilings_ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
