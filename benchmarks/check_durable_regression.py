#!/usr/bin/env python
"""Bench-regression guard for checkpoint commits (``bench_durable.py``).

The ``serve-durable`` campaign at 600 and 2,400 requests, measured now.
Four checks — shape, not just level:

* **bytes per commit are flat**: the median commit at 2,400 requests
  frames at most ``FLAT_FACTOR`` times the bytes of one at 600 (it reads
  1.02x).  A commit writes what changed; the whole-campaign snapshot it
  replaced (``parent`` in ``BENCH_durable.json``) grew 3.9x here, as the
  campaign did.
* **time per commit is flat**: the same bound on the median host time of
  a ``commit`` call (1.05x; the parent: 3.6x).
* **the store holds one campaign, not one per commit**: at most
  ``RETAINED_FACTOR`` times the bytes of one whole snapshot — the log
  plus two heads, 1.1x.  (Keeping every commit's head as well would
  hold 7x.)
* **durability costs a small multiple**: the campaign with a store takes
  at most ``WALL_FACTOR`` times the same campaign without one, at both
  sizes (3.2x and 3.3x; the parent: 54x at 600 requests, 184x at 2,400).

Times are best-of-``REPEATS`` (``bench_durable.measure``); the byte
counts repeat exactly.

Usage::

    python benchmarks/check_durable_regression.py

Exits non-zero when any check fails.
"""

import pathlib
import sys

FLAT_FACTOR = 1.25
RETAINED_FACTOR = 1.5
WALL_FACTOR = 4.0


def main() -> int:
    here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import bench_durable

    small, large = (bench_durable.measure(n) for n in bench_durable.SIZES)
    failures = 0

    def check(ok: bool, line: str, regression: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{line}  " + ("ok" if ok else f"REGRESSION ({regression})"))

    for key, unit in (("bytes_per_commit_median", "B"), ("us_per_commit", "us")):
        few, many = small[key], large[key]
        check(
            many <= FLAT_FACTOR * few,
            f"{key}: {few:g} {unit} at {small['requests']} requests, {many:g} at "
            f"{large['requests']} ({many / few:.2f}x, limit {FLAT_FACTOR:g}x)",
            "a commit's cost grows with the campaign",
        )
    for row in (small, large):
        held, snapshot = row["retained_bytes"], row["snapshot_bytes"]
        check(
            held <= RETAINED_FACTOR * snapshot,
            f"retained at {row['requests']} requests: {held} B, one snapshot is "
            f"{snapshot} B ({held / snapshot:.2f}x, limit {RETAINED_FACTOR:g}x)",
            "the store accumulates more than the log and two heads",
        )
        ratio = row["durable_wall_s"] / row["storeless_wall_s"]
        check(
            ratio <= WALL_FACTOR,
            f"wall at {row['requests']} requests: {row['durable_wall_s']:.3f} s "
            f"durable, {row['storeless_wall_s']:.3f} s store-less ({ratio:.2f}x, "
            f"limit {WALL_FACTOR:g}x)",
            "checkpointing dominates the campaign again",
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
