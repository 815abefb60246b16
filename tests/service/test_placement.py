"""Placement layer tests: grid selection, residency, shared tunecache."""

import json
from dataclasses import replace

import pytest

from repro.comms import FaultPlan
from repro.core import autotune, tune_sweep_cost_s
from repro.gpu.specs import GTX285
from repro.service import (
    BatchPolicy,
    GridSelector,
    PlacementPolicy,
    ResidencyRouter,
    ServiceConfig,
    SharedTuneCache,
    SimWorker,
    SolveRequest,
    SolveService,
    gauge_upload_s,
    residency_key,
    synthetic_workload,
)

DIMS = (4, 4, 4, 8)


class TestGridSelector:
    def test_large_anisotropic_volume_routes_to_2d_grid(self):
        """The acceptance shape: 32^3 x 96 on 8 ranks.  Time-only slabs
        are 12 sites thin with a whole-32^3 face per message; a 2x4 grid
        shrinks the largest face and wins the comm critical path."""
        sel = GridSelector()
        assert sel.select((32, 32, 32, 96), 8) == (2, 4)

    def test_small_volume_stays_time_sliced(self):
        # Per-message overhead dominates tiny faces: one partitioned
        # dimension beats two.
        sel = GridSelector()
        assert sel.select((8, 8, 8, 32), 2) is None
        assert sel.select(DIMS, 4) is None

    def test_single_rank_degrades_to_time_only(self):
        assert GridSelector().select((32, 32, 32, 96), 1) is None

    def test_indivisible_volume_raises(self):
        # T=10 has no even 8-way slab and no (rz, rt) grid divides
        # (6, 10) into even local extents over 8 ranks.
        with pytest.raises(ValueError, match="no decomposition"):
            GridSelector().select((6, 6, 6, 10), 8)

    def test_candidates_are_feasible_and_sorted(self):
        sel = GridSelector()
        cands = sel.candidates((32, 32, 32, 96), 8)
        assert [c.score_s for c in cands] == sorted(c.score_s for c in cands)
        for c in cands:
            if c.grid is not None:
                rz, rt = c.grid
                assert rz * rt == 8
                assert 32 % rz == 0 and 96 % rt == 0
                # Partitioned extents stay even (ghost-zone parity).
                assert (32 // rz) % 2 == 0
                assert rt == 1 or (96 // rt) % 2 == 0

    def test_odd_local_extent_infeasible(self):
        # Z=6 over rz=2 gives local Z=3 (odd) — never offered.
        cands = GridSelector().candidates((4, 4, 6, 8), 4)
        assert all(c.grid is None or c.grid[0] != 2 for c in cands)

    def test_selection_is_memoized_and_deterministic(self):
        sel = GridSelector()
        a = sel.select((32, 32, 32, 96), 8)
        assert sel.select((32, 32, 32, 96), 8) == a
        assert GridSelector().select((32, 32, 32, 96), 8) == a


class TestResidencyRouter:
    def _pool(self, n=3):
        return [SimWorker(w, ranks=2) for w in range(n)]

    def test_prefers_resident_worker(self):
        workers = self._pool()
        key = residency_key(5, DIMS, "single-half", None)
        workers[2].resident_key = key
        router = ResidencyRouter(workers)
        assert router.route(key, [0, 1, 2]) == (2, True)

    def test_prefers_empty_over_eviction(self):
        workers = self._pool()
        workers[0].resident_key = residency_key(9, DIMS, "single-half", None)
        router = ResidencyRouter(workers)
        key = residency_key(5, DIMS, "single-half", None)
        # Worker 1 holds nothing: routing there does not evict worker
        # 0's warmth for configuration 9.
        assert router.route(key, [0, 1, 2]) == (1, False)

    def test_disabled_router_is_lowest_id(self):
        workers = self._pool()
        key = residency_key(5, DIMS, "single-half", None)
        workers[2].resident_key = key
        router = ResidencyRouter(workers, enabled=False)
        assert router.route(key, [1, 2]) == (1, False)

    def test_no_idle_workers_raises(self):
        with pytest.raises(ValueError):
            ResidencyRouter(self._pool()).route(("k",), [])

    def test_residency_identity_includes_grid_and_mode(self):
        base = residency_key(1, DIMS, "single-half", None)
        assert residency_key(1, DIMS, "single-half", (2, 1)) != base
        assert residency_key(1, DIMS, "double", None) != base


class TestWorkerResidency:
    def _requests(self, n=2, config_id=0):
        return [
            SolveRequest(req_id=i, config_id=config_id, dims=DIMS)
            for i in range(n)
        ]

    def test_repeat_batch_is_cheaper_by_the_upload(self):
        worker = SimWorker(0, ranks=2, fixed_iterations=5)
        cold = worker.execute(self._requests())
        warm = worker.execute(self._requests())
        assert not cold.residency_hit and warm.residency_hit
        saved = gauge_upload_s(DIMS, 2)
        assert warm.gauge_saved_s == pytest.approx(saved)
        assert warm.duration_s == pytest.approx(cold.duration_s - saved)

    def test_config_change_misses(self):
        worker = SimWorker(0, ranks=2, fixed_iterations=5)
        worker.execute(self._requests(config_id=0))
        other = worker.execute(self._requests(config_id=1))
        assert not other.residency_hit

    def test_grid_change_misses(self):
        # Same configuration, different slicing: the T-sliced slabs on
        # the device are not the (2, rt) grid's slabs.
        worker = SimWorker(0, ranks=4, fixed_iterations=5)
        worker.execute(self._requests())
        regrid = worker.execute(self._requests(), grid=(2, 2))
        assert not regrid.residency_hit
        assert worker.resident_key == residency_key(
            0, DIMS, "single-half", (2, 2)
        )

    def test_crash_evicts_residency(self):
        plan = FaultPlan(seed=3).with_stall(1, after_s=50e-6, mode="crash")
        worker = SimWorker(0, ranks=2, fixed_iterations=5, fault_plan=plan)
        failed = worker.execute(self._requests())
        assert not failed.ok
        assert worker.resident_key is None
        # The next batch repays the upload: no hit after eviction.
        clean = worker.execute(self._requests())
        assert clean.ok and not clean.residency_hit

    def test_disabled_residency_never_hits(self):
        worker = SimWorker(0, ranks=2, fixed_iterations=5, residency=False)
        worker.execute(self._requests())
        again = worker.execute(self._requests())
        assert not again.residency_hit and again.gauge_saved_s == 0.0

    def test_mismatched_grid_rejected(self):
        worker = SimWorker(0, ranks=2)
        with pytest.raises(ValueError, match="grid"):
            worker.execute(self._requests(), grid=(2, 2))


class TestGaugeUpload:
    def test_shrinks_with_more_ranks(self):
        # More ranks -> smaller local slab per PCIe link -> cheaper
        # upload (not proportionally: the link latency is fixed).
        one = gauge_upload_s(DIMS, 1)
        two = gauge_upload_s(DIMS, 2)
        four = gauge_upload_s(DIMS, 4)
        assert one > two > four > 0.0

    def test_mixed_mode_uploads_two_copies(self):
        assert gauge_upload_s(DIMS, 2, mode="single-half") > gauge_upload_s(
            DIMS, 2, mode="single"
        )

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            gauge_upload_s((4, 4, 4, 6), 5)


class TestSharedTuneCache:
    def test_miss_then_hit(self):
        tc = SharedTuneCache()
        vol = 4 * 4 * 4 * 4
        tunings, cost = tc.acquire(GTX285, vol)
        assert cost == pytest.approx(tune_sweep_cost_s(GTX285, local_volume=vol))
        assert tc.misses == 1 and tc.hits == 0
        again, cost2 = tc.acquire(GTX285, vol)
        assert cost2 == 0.0 and tc.hits == 1
        assert again.results == tunings.results

    def test_distinct_volumes_are_distinct_entries(self):
        tc = SharedTuneCache()
        tc.acquire(GTX285, 256)
        _, cost = tc.acquire(GTX285, 512)
        assert cost > 0 and tc.misses == 2

    def test_acquired_tunings_match_autotune(self):
        tc = SharedTuneCache()
        tunings, _ = tc.acquire(GTX285, 256)
        assert tunings.results == autotune(GTX285).results

    def test_json_round_trip(self, tmp_path):
        tc = SharedTuneCache()
        tc.acquire(GTX285, 256)
        path = tmp_path / "tunecache.json"
        tc.save(str(path))
        # The file is valid, sorted JSON.
        data = json.loads(path.read_text())
        assert data["entries"]
        loaded = SharedTuneCache.load(str(path))
        assert len(loaded) == len(tc)
        # A fresh campaign through the loaded store starts with a hit.
        _, cost = loaded.acquire(GTX285, 256)
        assert cost == 0.0 and loaded.hits == 1

    def test_reset_counters_keeps_entries(self):
        tc = SharedTuneCache()
        tc.acquire(GTX285, 256)
        n_entries = len(tc)  # one TuneResult per (kernel, precision)
        tc.reset_counters()
        assert len(tc) == n_entries and tc.misses == 0
        _, cost = tc.acquire(GTX285, 256)
        assert cost == 0.0

    def test_assembled_cache_is_shared_until_the_entries_change(self):
        """Every hit on one shape hands out the one assembled cache;
        ``store`` and ``restore`` drop it, and each hit still counts."""
        tc = SharedTuneCache()
        tc.acquire(GTX285, 256)  # the miss
        assembled, _ = tc.acquire(GTX285, 256)
        again, _ = tc.acquire(GTX285, 256)
        assert again is assembled and tc.hits == 2
        tc.store(GTX285, 512, autotune(GTX285))
        after_store, _ = tc.acquire(GTX285, 256)
        assert after_store is not assembled
        assert after_store.results == assembled.results
        tc.restore(tc.to_json())
        after_restore, _ = tc.acquire(GTX285, 256)
        assert after_restore is not after_store
        assert after_restore.results == assembled.results
        assert tc.hits == 4 and tc.misses == 1

    def test_campaign_over_two_local_volumes(self):
        """One miss per local volume, a hit for every other batch, and
        no caller changes the assembled caches it is handed."""
        small = synthetic_workload(12, seed=3, dims=DIMS)
        large = [
            replace(r, req_id=r.req_id + 100, dims=(4, 4, 4, 16))
            for r in synthetic_workload(12, seed=4, dims=DIMS)
        ]
        cfg = ServiceConfig(
            n_workers=2, ranks_per_worker=2, fixed_iterations=5,
            policy=BatchPolicy(max_batch=2),
        )
        tc = SharedTuneCache()
        result = SolveService(cfg, tune_cache=tc).run(small + large)
        p = result.report.placement
        assert p["tunecache_misses"] == 2
        assert p["tunecache_hits"] == len(result.batches) - 2 > 0
        volumes = (4 * 4 * 4 * 8 // 2, 4 * 4 * 4 * 16 // 2)
        handed = {v: tc.lookup(GTX285, v) for v in volumes}
        before = {v: dict(cache.results) for v, cache in handed.items()}
        again = SolveService(cfg, tune_cache=tc).run(small + large)
        assert again.report.placement["tunecache_misses"] == 0
        for v, cache in handed.items():
            assert tc.lookup(GTX285, v) is cache
            assert cache.results == before[v] == autotune(GTX285).results


class TestServicePlacement:
    def test_grid_recorded_on_routed_request(self):
        """End-to-end acceptance: a 32^3 x 96 request on an 8-rank
        worker auto-routes to the 2x4 grid, recorded on the request."""
        cfg = ServiceConfig(
            n_workers=1, ranks_per_worker=8, fixed_iterations=3,
            policy=BatchPolicy(max_batch=2),
        )
        reqs = [
            SolveRequest(req_id=i, config_id=0, dims=(32, 32, 32, 96))
            for i in range(2)
        ]
        result = SolveService(cfg).run(reqs)
        assert result.report.completed == 2
        for rec in result.records:
            assert rec.grid == (2, 4)
        assert result.report.placement["grids"] == {"2x4": 1}
        assert result.batches[0].grid == (2, 4)

    def test_pinned_time_slicing(self):
        cfg = ServiceConfig(
            n_workers=1, ranks_per_worker=8, fixed_iterations=3,
            placement=PlacementPolicy(grid=None),
        )
        reqs = [SolveRequest(req_id=0, config_id=0, dims=(32, 32, 32, 96))]
        result = SolveService(cfg).run(reqs)
        assert result.records[0].grid is None
        assert result.report.placement["grids"] == {"time": 1}

    def test_mismatched_pinned_grid_rejected_at_config(self):
        with pytest.raises(ValueError, match="pinned grid"):
            ServiceConfig(
                ranks_per_worker=2, placement=PlacementPolicy(grid=(2, 2))
            )

    def test_infeasible_volume_fails_structurally(self):
        cfg = ServiceConfig(n_workers=1, ranks_per_worker=8)
        reqs = [SolveRequest(req_id=0, config_id=0, dims=(6, 6, 6, 10))]
        result = SolveService(cfg).run(reqs)
        rec = result.records[0]
        assert rec.state == "failed"
        assert rec.failure.kind == "infeasible_volume"

    def test_report_exposes_placement_scorecard(self):
        cfg = ServiceConfig(n_workers=2, ranks_per_worker=2,
                            fixed_iterations=5)
        result = SolveService(cfg).run(
            synthetic_workload(16, seed=7, dims=DIMS, n_configs=2)
        )
        report = result.report
        p = report.placement
        assert p["residency_hits"] + p["residency_misses"] == report.n_batches
        assert 0.0 <= p["residency_hit_rate"] <= 1.0
        assert p["tunecache_misses"] >= 1
        assert p["tunecache_hit_rate"] > 0.0
        assert p["gauge_saved_s"] + p["tune_setup_saved_s"] > 0.0
        assert p["tune_setup_spent_s"] > 0.0
        # The JSON view carries the block in microseconds (rounded).
        js = report.to_json()["placement"]
        assert js["gauge_saved_us"] == pytest.approx(
            p["gauge_saved_s"] * 1e6, abs=5e-4
        )

    def test_same_seed_byte_identical_reports(self):
        cfg = ServiceConfig(n_workers=2, ranks_per_worker=2,
                            fixed_iterations=5)
        a = SolveService(cfg).run(
            synthetic_workload(12, seed=5, dims=DIMS, n_configs=2)
        )
        b = SolveService(cfg).run(
            synthetic_workload(12, seed=5, dims=DIMS, n_configs=2)
        )
        assert a.completion_order == b.completion_order
        assert a.report.render_json() == b.report.render_json()

    def test_tunecache_shared_across_services(self):
        tc = SharedTuneCache()
        cfg = ServiceConfig(n_workers=2, ranks_per_worker=2,
                            fixed_iterations=5)
        first = SolveService(cfg, tune_cache=tc).run(
            synthetic_workload(8, seed=7, dims=DIMS)
        )
        assert first.report.placement["tune_setup_spent_s"] > 0.0
        second = SolveService(cfg, tune_cache=tc).run(
            synthetic_workload(8, seed=7, dims=DIMS)
        )
        p = second.report.placement
        assert p["tunecache_misses"] == 0 and p["tunecache_hits"] > 0
        assert p["tune_setup_spent_s"] == 0.0

    def test_crash_evicts_residency_in_service(self):
        plan = FaultPlan(seed=3).with_stall(1, after_s=200e-6, mode="crash")
        cfg = ServiceConfig(
            n_workers=2, ranks_per_worker=2, fixed_iterations=5,
            fault_plan=plan, chaos_workers=(0,), max_retries=2,
        )
        service = SolveService(cfg)
        result = service.run(synthetic_workload(16, seed=7, dims=DIMS))
        assert result.report.worker_crashes >= 1
        assert result.report.completed == 16
        crashed = [b for b in result.batches if b.ok is False]
        # The batch on the crashed worker was never counted a hit.
        assert all(not b.residency_hit for b in crashed)
