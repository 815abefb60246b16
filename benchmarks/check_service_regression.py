#!/usr/bin/env python
"""Bench-regression guard: re-run the service benchmark and compare it
against the committed ``BENCH_service.json`` baseline.

The service benchmarks are *model-time* measurements — pure functions of
the schedule, not of the machine running them — so any drift is a real
behaviour change in the scheduler/placement stack, not noise.  The
tolerance exists only for intentional recalibration headroom: a change
that moves batched-vs-unbatched speedup or the placement hit rates by
more than ``TOLERANCE`` must regenerate the baseline deliberately
(``python -c "from repro.bench.harness import write_service_bench;
write_service_bench()"``), not slip through CI.  (The tier-1 suite
holds the committed file to *equality* with the harness defaults,
``tests/bench/test_service_bench.py``; this guard runs each block again
from the campaign the file itself records, and adds the acceptance
invariants and the wall-clock floor.)

Usage::

    python benchmarks/check_service_regression.py [BASELINE_JSON]

Exits non-zero on any out-of-tolerance metric.
"""

import json
import pathlib
import sys

TOLERANCE = 0.15  # +/-15% (model-time metrics: pure functions, no noise)
#: Absolute wall-clock floor (requests per second, best of the baseline's
#: ``repeats``) for the saturated campaign.  Wall time is machine-specific,
#: so this is a floor and not a band: about a third of the committed
#: 41.0k req/s, and more than twice the 6.35k req/s the deleted
#: full-sort queue reached on that same machine — a change that brings
#: back per-dispatch O(backlog) work lands below it, a slow runner does not.
THROUGHPUT_FLOOR_RPS = 15000.0


def _within(name: str, measured: float, baseline: float) -> bool:
    if baseline == 0:
        ok = measured == 0
    else:
        ok = abs(measured - baseline) <= TOLERANCE * abs(baseline)
    verdict = "ok" if ok else f"REGRESSION (tolerance {TOLERANCE:.0%})"
    print(f"{name:42s} measured {measured:8.4f}  baseline {baseline:8.4f}  {verdict}")
    return ok


#: The model-time numbers held to ``TOLERANCE`` of the baseline, per
#: ablation block, as dotted paths into the block.
DRIFT_GUARDS = {
    "batching": (
        "batched_vs_unbatched_throughput",
        "batched.placement.residency_hit_rate",
        "batched.placement.tunecache_hit_rate",
        "batched.throughput_rps",
    ),
    "resilience": (
        "high_p99_off_vs_on",
        "resilience_on.quarantines",
        "resilience_on.shed_low",
        "resilience_on.slo_attainment",
    ),
}


def _at(block: dict, path: str):
    for key in path.split("."):
        block = block[key]
    return block


def main(argv: list[str]) -> int:
    baseline_path = pathlib.Path(
        argv[1] if len(argv) > 1 else
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"
    )
    baseline = json.loads(baseline_path.read_text())

    from repro.bench.harness import (
        ABLATIONS,
        CAPACITY_DEFAULTS,
        ablation_block,
        campaign_params,
        capacity_sweep,
        run_ablation,
        throughput_benchmark,
    )

    # Each block runs again from the parameters its own ``campaign``
    # entry records, read back through the table that wrote them.
    checks = []
    for name, paths in DRIFT_GUARDS.items():
        block = ablation_block(baseline, name)
        fresh = run_ablation(
            name, **campaign_params(block["campaign"], ABLATIONS[name].defaults)
        )
        checks += [
            _within(f"{name}.{path}", _at(fresh, path), _at(block, path))
            for path in paths
        ]

    base_cap = baseline["capacity_map"]
    fresh_cap = capacity_sweep(
        **campaign_params(base_cap["campaign"], CAPACITY_DEFAULTS)
    )
    # Hard invariants, not just drift:
    # * no cell loses a request (completed+failed+rejected == submitted);
    # * past each series' knee, SLO attainment degrades monotonically
    #   with offered load (small slack for nearest-rank percentile
    #   quantization);
    # * equal-weight tenants split saturated dispatch within 1.25x;
    # * 3:1 weights hold saturated shares within 20% of 3:1.
    lost_ok = all(c["lost"] == 0 for c in fresh_cap["cells"])
    monotone_ok = True
    for k in fresh_cap["knees"]:
        if k["knee_rate_rps"] is None:
            continue
        series = sorted(
            (
                c
                for c in fresh_cap["cells"]
                if c["mix"] == k["mix"]
                and c["workers"] == k["workers"]
                and c["rate_rps"] >= k["knee_rate_rps"]
            ),
            key=lambda c: c["rate_rps"],
        )
        for earlier, later in zip(series, series[1:]):
            if later["slo_attainment"] > earlier["slo_attainment"] + 0.02:
                monotone_ok = False
    equal_fair = fresh_cap["fairness"]["equal"]["imbalance"] <= 1.25
    weighted_fair = (
        fresh_cap["fairness"]["weighted_3to1"]["imbalance"] <= 1.20
    )
    for name, ok in (
        ("capacity_map.zero_lost", lost_ok),
        ("capacity_map.slo_monotone_past_knee", monotone_ok),
        ("capacity_map.equal_weight_fairness", equal_fair),
        ("capacity_map.weighted_3to1_fairness", weighted_fair),
    ):
        print(f"{name:42s} {'ok' if ok else 'VIOLATED'}")
    checks += [lost_ok, monotone_ok, equal_fair, weighted_fair]
    # Drift guards: the knees and the saturated shares are the
    # capacity contract; a silent shift is a scheduler change.
    fresh_knees = {
        (k["mix"], k["workers"]): k["knee_rate_rps"]
        for k in fresh_cap["knees"]
    }
    for k in base_cap["knees"]:
        base_knee = k["knee_rate_rps"]
        fresh_knee = fresh_knees.get((k["mix"], k["workers"]))
        checks.append(
            _within(
                f"capacity_map.knee[{k['mix']}@{k['workers']}w]",
                fresh_knee if fresh_knee is not None else 0.0,
                base_knee if base_knee is not None else 0.0,
            )
        )
    for mix_name, base_fair in base_cap["fairness"].items():
        for tenant, share in base_fair["shares"].items():
            checks.append(
                _within(
                    f"capacity_map.share[{mix_name}:{tenant}]",
                    fresh_cap["fairness"][mix_name]["shares"][tenant],
                    share,
                )
            )

    # Wall clock, held to an absolute floor and not to the baseline's
    # number: the campaign is the harness default.
    fresh_thr = throughput_benchmark()
    floor_ok = fresh_thr["rps"] >= THROUGHPUT_FLOOR_RPS
    print(
        f"{'throughput.rps_floor':42s} measured "
        f"{fresh_thr['rps']:8.0f}  floor    {THROUGHPUT_FLOOR_RPS:8.0f}  "
        f"{'ok' if floor_ok else 'REGRESSION'}"
    )
    checks.append(floor_ok)

    if all(checks):
        print("service bench within tolerance of baseline")
        return 0
    print(
        "service bench regressed against BENCH_service.json; if the "
        "change is intentional, regenerate the baseline with "
        "write_service_bench()",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
