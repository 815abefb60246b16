#!/usr/bin/env python
"""Bench-regression guard for the scheduler's per-event cost
(``bench_scheduler.py``).

The ledger's ``serve-steady`` stream and campaign at 20,000 requests,
measured now, against the ``change`` row of ``BENCH_scheduler.json``:

* **per arrival**: µs per generated arrival at most ``CEILING_FACTOR``
  times the committed median (the per-arrival draws the block draws
  replaced cost 8.0 times as much);
* **per request**: µs per request of the whole campaign at most
  ``CEILING_FACTOR`` times the committed median (recounting the pool per
  event cost 1.56 times as much);
* **generation stays a small share**: µs per arrival at most
  ``ARRIVAL_SHARE`` of µs per request (it reads 0.05);
* **no pool recounts come back**: ``_Campaign._eligible`` calls per
  request no more than committed (0.019; recounting made 7.9 — the
  count repeats exactly);
* **one breaker call per completion**: public ``HealthBoard`` and
  ``BrownoutController`` calls per request no more than committed
  (2.36; asking five times read 4.89 — the count repeats exactly);
* **a request stays a slotted row**: bytes the campaign's result
  retains per request at most ``RETAINED_FACTOR`` times committed (the
  ``parent`` row, an object with a ``__dict__`` and a tuple per note,
  reads 2,067 — tracemalloc; a process repeats it to within 0.1 %).

Usage::

    python benchmarks/check_scheduler_regression.py

Exits non-zero when any check fails.
"""

import json
import pathlib
import sys

CEILING_FACTOR = 2.0
ARRIVAL_SHARE = 0.25
RETAINED_FACTOR = 1.05


def main() -> int:
    here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    import bench_scheduler

    committed = json.loads(bench_scheduler.BASELINE.read_text())["change"]
    now = bench_scheduler.measure()
    failures = 0

    def check(ok: bool, line: str, regression: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{line}  " + ("ok" if ok else f"REGRESSION ({regression})"))

    for key in ("arrival_us", "request_us"):
        check(
            now[key] <= CEILING_FACTOR * committed[key],
            f"{key}: {now[key]:.2f} us, committed median {committed[key]:.2f} "
            f"(limit {CEILING_FACTOR:g}x = {CEILING_FACTOR * committed[key]:.2f})",
            "the scheduler pays more per event again",
        )
    share = now["arrival_us"] / now["request_us"]
    check(
        share <= ARRIVAL_SHARE,
        f"arrival share: {now['arrival_us']:.2f} of {now['request_us']:.2f} us "
        f"per request ({share:.2f}, limit {ARRIVAL_SHARE:g})",
        "generating arrivals dominates the campaign",
    )
    recounts, limit = now["pool_recounts_per_request"], committed["pool_recounts_per_request"]
    check(
        recounts <= limit,
        f"pool recounts: {recounts:.3f} per request, committed {limit:.3f}",
        "the serving pool is recounted per event again",
    )
    calls, limit = now["health_calls_per_request"], committed["health_calls_per_request"]
    check(
        calls <= limit,
        f"health calls: {calls:.3f} per request, committed {limit:.3f}",
        "a completion asks the breaker more than once again",
    )
    held, limit = now["retained_bytes_per_request"], committed["retained_bytes_per_request"]
    check(
        held <= RETAINED_FACTOR * limit,
        f"retained: {held:.1f} bytes per request, committed {limit:.1f} "
        f"(limit {RETAINED_FACTOR:g}x = {RETAINED_FACTOR * limit:.1f})",
        "a request's record costs more bytes again",
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
