"""Closed-loop load benchmark for the solve service.

The paper's production pattern — "32768 calls to the solver for each
configuration" (Section VIII) — arrives at a shared cluster as a request
stream, not a single job.  This bench serves one synthetic campaign
twice, with multi-RHS batching on and off, and checks the economics the
service exists for: batching amortizes the per-batch device setup (gauge
upload, ghost-zone allocation, operator construction) across right-hand
sides, so the batched schedule must finish the same campaign in less
model time (higher throughput) by a measured margin.
"""

from repro.bench.harness import (
    ABLATIONS,
    capacity_sweep,
    render_capacity_map,
    run_ablation,
)


def _ablation(run_once, name):
    """Run ablation ``name`` at its defaults — the campaign that
    ``BENCH_service.json`` records, which is the one committed artifact
    (``write_service_bench()`` its one writer) — and return
    ``(result, ON scorecard, OFF scorecard)``."""
    result = run_once(lambda: run_ablation(name))
    on, off = (result[arm] for arm in ABLATIONS[name].arms)
    return result, on, off


def test_batched_service_beats_unbatched(run_once):
    result, batched, unbatched = _ablation(run_once, "batching")
    speedup = result["batched_vs_unbatched_throughput"]
    print(
        f"\nbatched:   {batched['throughput_rps']:.1f} req/s over "
        f"{batched['makespan_us'] / 1e3:.1f} ms "
        f"({batched['batches']} batches, occupancy "
        f"{batched['batch_occupancy'] * 100:.0f}%)"
        f"\nunbatched: {unbatched['throughput_rps']:.1f} req/s over "
        f"{unbatched['makespan_us'] / 1e3:.1f} ms "
        f"({unbatched['batches']} batches)"
        f"\nspeedup:   {speedup:.3f}x"
    )
    # No request may be dropped either way.
    for report in (batched, unbatched):
        assert report["completed"] == result["campaign"]["requests"]
        assert report["failed"] == 0
        assert report["rejected"] == 0
    # Batching pays one device setup per batch instead of per request:
    # the margin at this volume is ~1.15x through the full service
    # (scheduling overheads included); 1.05 is the guard floor.
    assert speedup > 1.05
    # The batcher must actually be batching (not degenerating to
    # singles): mean batch size well above 1.
    assert batched["mean_batch_size"] > 2.0
    assert unbatched["mean_batch_size"] == 1.0


def test_warm_pool_beats_cold_pool(run_once):
    """Gauge-residency ablation: a two-configuration campaign over two
    workers settles into one-config-per-worker affinity when residency
    routing is on, so most batches skip the host→device gauge upload and
    the whole campaign finishes strictly sooner than the cold run."""
    result, warm, cold = _ablation(run_once, "residency_ablation")
    print(
        f"\nwarm: {warm['makespan_us'] / 1e3:.1f} ms "
        f"({warm['placement']['residency_hits']} residency hits, "
        f"gauge saved {warm['placement']['gauge_saved_us']:.0f} us)"
        f"\ncold: {cold['makespan_us'] / 1e3:.1f} ms "
        f"({cold['placement']['residency_hits']} residency hits)"
        f"\ncold/warm makespan: {result['cold_vs_warm_makespan']:.4f}x"
    )
    for report in (warm, cold):
        assert report["failed"] == 0
        assert report["rejected"] == 0
    # The warm pool must actually get warm — and the cold pool must not.
    assert warm["placement"]["residency_hits"] > 0
    assert warm["placement"]["gauge_saved_us"] > 0
    assert cold["placement"]["residency_hits"] == 0
    # The acceptance bar: strictly lower total campaign latency warm.
    assert warm["makespan_us"] < cold["makespan_us"]


def test_preemption_improves_high_p99_on_elastic_pool(run_once):
    """Daemon-era benchmark: one seeded bursty campaign streamed through
    the elastic pool twice, preemption on vs off.  The burst must drive
    at least one scale-up and the quiet tail at least one scale-down,
    and letting HIGH arrivals claim a worker at a refresh boundary must
    beat queueing behind a full LOW batch at the HIGH p99."""
    result, on, off = _ablation(run_once, "daemon")
    print(
        f"\npreempt on:  HIGH p99 {on['priority_latency']['high']['p99_us'] / 1e3:.1f} ms, "
        f"{on['preemptions']} yield(s), {on['resumed_batches']} resume(s)"
        f"\npreempt off: HIGH p99 {off['priority_latency']['high']['p99_us'] / 1e3:.1f} ms"
        f"\nscale events: {on['scale_ups']} up / {on['scale_downs']} down"
        f"\nHIGH p99 off/on: {result['high_p99_off_vs_on']:.4f}x"
    )
    for report in (on, off):
        assert report["completed"] + report["failed"] + report["rejected"] \
            == report["requests"]
        assert report["failed"] == 0
        # The elastic pool must flex both ways under the burst.
        assert report["scale_ups"] >= 1
        assert report["scale_downs"] >= 1
    # Preemption must actually fire and resume (not restart).
    assert on["preemptions"] >= 1
    assert on["resumed_batches"] >= 1
    assert off["preemptions"] == 0
    # The point of yielding: HIGH tail latency improves.
    assert (
        on["priority_latency"]["high"]["p99_us"]
        < off["priority_latency"]["high"]["p99_us"]
    )


def test_resilience_beats_undefended_run(run_once):
    """Resilience-era benchmark (PR 7): the acceptance campaign — one
    seeded overloaded bursty stream against a pool with one flaky worker
    and one 3x straggler, served with the breaker/hedging/brownout stack
    on vs off.  The defended run must quarantine and reinstate the flaky
    worker, shed LOW under the burst, keep every admitted request
    terminal in both runs, and win the HIGH tail outright."""
    result, on, off = _ablation(run_once, "resilience")
    print(
        f"\nresilience on:  HIGH p99 "
        f"{on['priority_latency']['high']['p99_us'] / 1e3:.1f} ms, "
        f"{on['quarantines']} quarantine(s), {on['reinstated']} "
        f"reinstated, {on['shed_low']} LOW shed, "
        f"{on['degraded_served']} served degraded"
        f"\nresilience off: HIGH p99 "
        f"{off['priority_latency']['high']['p99_us'] / 1e3:.1f} ms"
        f"\nHIGH p99 off/on: {result['high_p99_off_vs_on']:.4f}x"
        f"\nSLO attainment: {on['slo_attainment']:.4f} on vs "
        f"{off['slo_attainment']:.4f} off"
    )
    # Zero lost requests in both runs: every admitted request terminal.
    for report in (on, off):
        assert report["completed"] + report["failed"] + report["rejected"] \
            == report["requests"]
        assert report["failed"] == 0
    # The breaker did its full loop on the flaky worker.
    assert on["quarantines"] >= 1
    assert on["reinstated"] >= 1
    assert off["quarantines"] == 0
    # The brownout shed LOW (with honest retry-afters) instead of
    # letting the burst blow every deadline.
    assert on["shed_low"] >= 1
    assert on["degraded_served"] >= 1
    # The acceptance bar: HIGH p99 strictly better, SLO no worse.
    assert (
        on["priority_latency"]["high"]["p99_us"]
        < off["priority_latency"]["high"]["p99_us"]
    )
    assert on["slo_attainment"] >= off["slo_attainment"]


def test_capacity_map_locates_knee_and_holds_fair_shares(run_once):
    """Multi-tenant saturation map (PR 9): sweep arrival rate x tenant
    mix x worker count and check the capacity contract — every cell
    terminates every request, each (mix, workers) series has a visible
    SLO-attainment knee with monotone degradation past it, equal-weight
    tenants split saturated dispatch near 1:1, and 3:1 weights hold the
    saturated shares near 3:1."""
    result = run_once(capacity_sweep)
    print("\n" + render_capacity_map(result))
    # Zero lost requests at every point of the map.
    for cell in result["cells"]:
        assert cell["lost"] == 0, cell
    # Each series locates a knee inside the sweep, and more workers move
    # it to a higher rate (the map is a capacity surface, not a line).
    knees = {
        (k["mix"], k["workers"]): k["knee_rate_rps"]
        for k in result["knees"]
    }
    for (mix, workers), knee in knees.items():
        assert knee is not None, f"no knee located for {mix}@{workers}"
    assert knees[("equal", 4)] > knees[("equal", 2)]
    # Past the knee, SLO attainment degrades monotonically with load.
    for k in result["knees"]:
        series = sorted(
            (
                c
                for c in result["cells"]
                if c["mix"] == k["mix"]
                and c["workers"] == k["workers"]
                and c["rate_rps"] >= k["knee_rate_rps"]
            ),
            key=lambda c: c["rate_rps"],
        )
        for earlier, later in zip(series, series[1:]):
            assert later["slo_attainment"] <= earlier["slo_attainment"] + 0.02
    # Saturated fairness: equal weights within 1.25x, 3:1 within 20%.
    assert result["fairness"]["equal"]["imbalance"] <= 1.25
    assert result["fairness"]["weighted_3to1"]["imbalance"] <= 1.20
