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
write_service_bench()"``), not slip through CI.

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


def main(argv: list[str]) -> int:
    baseline_path = pathlib.Path(
        argv[1] if len(argv) > 1 else
        pathlib.Path(__file__).resolve().parent.parent / "BENCH_service.json"
    )
    baseline = json.loads(baseline_path.read_text())
    campaign = baseline["campaign"]

    from repro.bench.harness import service_benchmark

    fresh = service_benchmark(
        campaign["requests"],
        dims=tuple(campaign["dims"]),
        mode=campaign["mode"],
        workers=campaign["workers"],
        ranks=campaign["ranks_per_worker"],
        max_batch=campaign["max_batch"],
        rate_rps=campaign["rate_rps"],
        iterations=campaign["iterations"],
        seed=campaign["seed"],
    )

    checks = [
        _within(
            "batched_vs_unbatched_throughput",
            fresh["batched_vs_unbatched_throughput"],
            baseline["batched_vs_unbatched_throughput"],
        ),
        _within(
            "batched.placement.residency_hit_rate",
            fresh["batched"]["placement"]["residency_hit_rate"],
            baseline["batched"]["placement"]["residency_hit_rate"],
        ),
        _within(
            "batched.placement.tunecache_hit_rate",
            fresh["batched"]["placement"]["tunecache_hit_rate"],
            baseline["batched"]["placement"]["tunecache_hit_rate"],
        ),
        _within(
            "batched.throughput_rps",
            fresh["batched"]["throughput_rps"],
            baseline["batched"]["throughput_rps"],
        ),
    ]

    if "resilience" in baseline:
        from repro.bench.harness import resilience_benchmark

        rc = baseline["resilience"]["campaign"]
        fresh_res = resilience_benchmark(
            rc["requests"],
            dims=tuple(rc["dims"]),
            mode=rc["mode"],
            workers=rc["workers"],
            ranks=rc["ranks_per_worker"],
            max_batch=rc["max_batch"],
            base_rps=rc["base_rps"],
            burst_rps=rc["burst_rps"],
            burst_start_s=rc["burst_start_ms"] * 1e-3,
            burst_len_s=rc["burst_len_ms"] * 1e-3,
            deadline_slack_s=rc["deadline_slack_ms"] * 1e-3,
            straggler_factor=rc["straggler_factor"],
            iterations=rc["iterations"],
            seed=rc["seed"],
        )
        on = fresh_res["resilience_on"]
        base_on = baseline["resilience"]["resilience_on"]
        checks += [
            _within(
                "resilience.high_p99_off_vs_on",
                fresh_res["high_p99_off_vs_on"],
                baseline["resilience"]["high_p99_off_vs_on"],
            ),
            _within(
                "resilience_on.quarantines",
                on["quarantines"],
                base_on["quarantines"],
            ),
            _within(
                "resilience_on.shed_low",
                on["shed_low"],
                base_on["shed_low"],
            ),
            _within(
                "resilience_on.slo_attainment",
                on["slo_attainment"],
                base_on["slo_attainment"],
            ),
        ]

    if "domain_resilience" in baseline:
        from repro.bench.harness import domain_resilience_benchmark

        dc = baseline["domain_resilience"]["campaign"]
        nodes, rest = dc["topology"].split("x")
        wpn, racks = rest.split("@")
        fresh_dom = domain_resilience_benchmark(
            dc["requests"],
            dims=tuple(dc["dims"]),
            mode=dc["mode"],
            ranks=dc["ranks_per_worker"],
            nodes=int(nodes),
            workers_per_node=int(wpn),
            racks=int(racks),
            max_batch=dc["max_batch"],
            base_rps=dc["base_rps"],
            burst_rps=dc["burst_rps"],
            burst_start_s=dc["burst_start_ms"] * 1e-3,
            burst_len_s=dc["burst_len_ms"] * 1e-3,
            kill_node=dc["kill_node"],
            kill_at_s=dc["kill_at_ms"] * 1e-3,
            partition_rack=dc["partition_rack"],
            partition_at_s=dc["partition_at_ms"] * 1e-3,
            heal_mean_s=dc["heal_mean_ms"] * 1e-3,
            iterations=dc["iterations"],
            n_configs=dc["n_configs"],
            seed=dc["seed"],
        )
        base_dom = baseline["domain_resilience"]
        # Acceptance invariants, not just drift: domain-aware isolation
        # must stay strictly faster than one-ledger-at-a-time discovery,
        # HIGH p99 no worse, nothing lost, and the mirror leg exercised.
        isolate_gain = fresh_dom["isolate_off_vs_on"] or 0.0
        invariants = (
            isolate_gain > 1.0
            and fresh_dom["high_p99_off_vs_on"] >= 1.0
            and fresh_dom["domain_on"]["failed"] == 0
            and fresh_dom["domain_off"]["failed"] == 0
            and fresh_dom["mirror_resume"]["mirror_restores"] >= 1
            and fresh_dom["mirror_resume"]["failed"] == 0
        )
        print(
            f"{'domain_resilience.invariants':42s} "
            f"{'ok' if invariants else 'VIOLATED'}"
        )
        checks += [
            invariants,
            _within(
                "domain_resilience.isolate_off_vs_on",
                isolate_gain,
                base_dom["isolate_off_vs_on"],
            ),
            _within(
                "domain_resilience.high_p99_off_vs_on",
                fresh_dom["high_p99_off_vs_on"],
                base_dom["high_p99_off_vs_on"],
            ),
            _within(
                "domain_on.domains.nodes_killed",
                fresh_dom["domain_on"]["domains"]["nodes_killed"],
                base_dom["domain_on"]["domains"]["nodes_killed"],
            ),
            _within(
                "domain_on.domains.partition_heals",
                fresh_dom["domain_on"]["domains"]["partition_heals"],
                base_dom["domain_on"]["domains"]["partition_heals"],
            ),
        ]

    if "capacity_map" in baseline:
        from repro.bench.harness import capacity_sweep

        cc = baseline["capacity_map"]["campaign"]
        fresh_cap = capacity_sweep(
            cc["requests"],
            dims=tuple(cc["dims"]),
            mode=cc["mode"],
            ranks=cc["ranks_per_worker"],
            max_batch=cc["max_batch"],
            rates=tuple(cc["rates_rps"]),
            workers=tuple(cc["workers"]),
            deadline_slack_s=cc["deadline_slack_ms"] * 1e-3,
            iterations=cc["iterations"],
            seed=cc["seed"],
        )
        base_cap = baseline["capacity_map"]
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

    if "throughput" in baseline:
        from repro.bench.harness import throughput_benchmark

        tc = dict(baseline["throughput"]["campaign"])
        fresh_thr = throughput_benchmark(
            tc.pop("requests"),
            warmup_requests=tc.pop("warmup_requests"),
            repeats=tc.pop("repeats"),
            dims=tuple(tc.pop("dims", (4, 4, 4, 8))),
            rate_rps=tc.pop("rate_rps", 20000.0),
            max_batch=tc.pop("max_batch"),
            workers=tc.pop("workers"),
            ranks=tc.pop("ranks_per_worker"),
            queue_capacity=tc.pop("queue_capacity"),
            iterations=tc.pop("iterations"),
            seed=tc.pop("seed", 7),
        )
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
