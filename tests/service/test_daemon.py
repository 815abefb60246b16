"""Daemon-mode integration: streaming admission, crash/resume,
refresh-boundary preemption, and the elastic pool — end to end on the
model clock."""

import pytest

from repro.service import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    BatchPolicy,
    CampaignCheckpointStore,
    ElasticPolicy,
    PreemptionPolicy,
    SchedulerCrash,
    ServiceConfig,
    SolveRequest,
    SolveService,
    bursty_workload,
    stream_workload,
    synthetic_workload,
)

DIMS = (4, 4, 4, 8)


def _config(**overrides) -> ServiceConfig:
    kw = dict(
        queue_capacity=256,
        policy=BatchPolicy(max_batch=8),
        n_workers=2,
        ranks_per_worker=2,
        fixed_iterations=10,
    )
    kw.update(overrides)
    return ServiceConfig(**kw)


def _stream(n=48, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("rate_rps", 4000.0)
    kw.setdefault("dims", DIMS)
    return stream_workload(n, **kw)


class TestStreamingAdmission:
    def test_streaming_campaign_is_deterministic(self):
        a = SolveService(_config()).serve(_stream())
        b = SolveService(_config()).serve(_stream())
        assert a.completion_order == b.completion_order
        assert a.report.makespan_s == b.report.makespan_s
        assert a.report.completed == b.report.completed

    def test_stream_matches_materialized_run(self):
        """Serving the lazy stream and running the equivalent list must
        produce the same schedule — streaming changes admission
        plumbing, not scheduling decisions."""
        requests = list(_stream())
        streamed = SolveService(_config()).serve(_stream())
        listed = SolveService(_config()).run(requests)
        assert streamed.completion_order == listed.completion_order
        assert streamed.report.makespan_s == listed.report.makespan_s

    def test_all_requests_terminal(self):
        result = SolveService(_config()).serve(_stream())
        rep = result.report
        assert rep.completed + rep.failed + rep.rejected == rep.n_requests == 48
        assert all(rec.terminal for rec in result.records)

    def test_duration_bounded_stream(self):
        result = SolveService(_config()).serve(
            _stream(None, duration_s=0.005)
        )
        assert result.report.n_requests > 0
        assert all(rec.terminal for rec in result.records)


class TestCrashResume:
    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_no_request_lost_across_crash(self, fraction):
        baseline = SolveService(_config()).serve(_stream())
        crash_at = fraction * baseline.report.makespan_s

        store = CampaignCheckpointStore()
        with pytest.raises(SchedulerCrash) as exc_info:
            SolveService(_config()).serve(
                _stream(), checkpoint=store, crash_at_s=crash_at
            )
        assert exc_info.value.store is store
        assert store.committed >= 1

        resumed = SolveService(_config()).resume(_stream(), checkpoint=store)
        rep = resumed.report
        assert rep.checkpoint_restores == 1
        assert rep.restored_requests > 0
        assert rep.completed + rep.failed + rep.rejected == 48
        assert {r.request.req_id for r in resumed.records} == set(range(48))
        assert all(rec.terminal for rec in resumed.records)
        # Completed work survives verbatim: everything the crashed run
        # committed as completed stays completed after resume.
        assert rep.completed >= baseline.report.completed - rep.restored_requests

    def test_crash_before_first_commit_restarts_cleanly(self):
        """At-least-once: with no verified commit, resume replays the
        whole campaign from scratch rather than losing it."""
        store = CampaignCheckpointStore()
        with pytest.raises(SchedulerCrash):
            SolveService(_config()).serve(
                _stream(), checkpoint=store, crash_at_s=1e-9
            )
        assert store.latest() is None

        resumed = SolveService(_config()).resume(_stream(), checkpoint=store)
        assert resumed.report.checkpoint_restores == 0
        assert resumed.report.restored_requests == 0
        assert len(resumed.records) == 48
        assert all(rec.terminal for rec in resumed.records)

    def test_crash_exception_reports_commits(self):
        store = CampaignCheckpointStore()
        with pytest.raises(SchedulerCrash, match="scheduler crashed at"):
            SolveService(_config()).serve(
                _stream(), checkpoint=store, crash_at_s=0.01
            )

    def test_resume_through_persisted_store_file(self, tmp_path):
        """The store mirrors to disk, so a supervisor in a *new process*
        can load the file and resume — the CI smoke's contract."""
        path = str(tmp_path / "campaign.ckpt")
        makespan = SolveService(_config()).serve(_stream()).report.makespan_s
        with pytest.raises(SchedulerCrash):
            SolveService(_config()).serve(
                _stream(),
                checkpoint=CampaignCheckpointStore(path),
                crash_at_s=0.5 * makespan,
            )
        loaded = CampaignCheckpointStore.load(path)
        assert loaded.latest() is not None

        resumed = SolveService(_config()).resume(_stream(), checkpoint=loaded)
        assert resumed.report.checkpoint_restores == 1
        assert resumed.report.completed + resumed.report.failed == 48

    def test_crashless_checkpointing_leaves_schedule_unchanged(self):
        """Committing checkpoints is pure observation: the campaign with
        a store attached runs the same schedule as without."""
        plain = SolveService(_config()).serve(_stream())
        store = CampaignCheckpointStore()
        observed = SolveService(_config()).serve(_stream(), checkpoint=store)
        assert observed.completion_order == plain.completion_order
        assert observed.report.makespan_s == plain.report.makespan_s
        assert observed.report.checkpoints_committed >= 1


def _preempt_config(**overrides):
    kw = dict(
        queue_capacity=64,
        policy=BatchPolicy(max_batch=4, max_wait_s=0.0),
        n_workers=1,
        ranks_per_worker=2,
        fixed_iterations=10,
        preemption=PreemptionPolicy(enabled=True, refresh_points=4),
    )
    kw.update(overrides)
    return ServiceConfig(**kw)


def _low(req_id, arrival_s=0.0):
    return SolveRequest(
        req_id=req_id, dims=DIMS, priority=PRIORITY_LOW, arrival_s=arrival_s
    )


def _high(req_id, arrival_s):
    return SolveRequest(
        req_id=req_id, dims=DIMS, priority=PRIORITY_HIGH, arrival_s=arrival_s
    )


def _solo_batch_duration() -> float:
    """Measured duration of a solo one-request batch on this config."""
    probe = SolveService(_preempt_config()).run([_low(0)])
    return probe.batches[0].duration_s


class TestPreemptionEdges:
    def test_high_arrival_exactly_at_refresh_boundary(self):
        """A HIGH arrival landing *exactly* on a refresh boundary must
        preempt at that boundary (now), not wait a full extra interval."""
        duration = _solo_batch_duration()
        boundary = duration / 4  # refresh_points=4 -> first boundary
        result = SolveService(_preempt_config()).run(
            [_low(0), _high(1, boundary)]
        )
        assert result.report.daemon["preemptions"] == 1
        assert result.report.daemon["resumed_batches"] == 1
        preempted = [b for b in result.batches if b.preempted]
        assert len(preempted) == 1
        assert preempted[0].preempt_at_s == pytest.approx(boundary)
        assert all(rec.terminal for rec in result.records)
        # The preempted request records its preemption.
        assert result.record_for(0).preemptions == 1

    def test_second_high_does_not_repreempt_checkpointing_batch(self):
        """A batch with a scheduled yield is already checkpointing — a
        second HIGH arrival rides the same yield instead of stacking a
        second preemption on the same victim."""
        duration = _solo_batch_duration()
        result = SolveService(_preempt_config()).run(
            [_low(0), _high(1, 0.30 * duration), _high(2, 0.35 * duration)]
        )
        assert result.report.daemon["preemptions"] == 1
        assert result.report.daemon["resumed_batches"] == 1
        assert result.report.completed == 3
        assert result.record_for(0).preemptions == 1

    def test_preemption_resumes_rather_than_restarts(self):
        """The resumed batch charges remaining work plus the modeled
        reload overhead — not a from-scratch rerun."""
        duration = _solo_batch_duration()
        policy = PreemptionPolicy(
            enabled=True, refresh_points=4, resume_overhead_s=100e-6
        )
        result = SolveService(_preempt_config(preemption=policy)).run(
            [_low(0), _high(1, duration / 4)]
        )
        resumed = [b for b in result.batches if b.resumed_from is not None]
        assert len(resumed) == 1
        # 3/4 of the work remained at the first boundary.
        assert resumed[0].duration_s == pytest.approx(
            0.75 * duration + 100e-6
        )

    def test_preemption_off_never_preempts(self):
        duration = _solo_batch_duration()
        result = SolveService(
            _preempt_config(preemption=PreemptionPolicy(enabled=False))
        ).run([_low(0), _high(1, duration / 4)])
        assert result.report.daemon["preemptions"] == 0
        assert result.report.completed == 2


class TestElasticPool:
    def test_scale_down_race_with_dispatch(self):
        """A worker retired at a batch boundary must not receive the
        straggler batch dispatched in the same event — retirement wins
        the race, and the straggler lands on the surviving worker."""
        config = _config(
            policy=BatchPolicy(max_batch=4, max_wait_s=10e-6),
            n_workers=2,
            elastic=ElasticPolicy(
                min_workers=1, max_workers=2, cooldown_s=0.0, spinup_s=1e-6
            ),
        )
        result = SolveService(config).run([_low(i) for i in range(9)])
        assert result.report.completed == 9
        assert result.report.daemon["scale_downs"] >= 1
        retired = [w for w in result.workers if w.retired]
        assert retired, "scale-down must retire a worker"
        retired_ids = {w.worker_id for w in retired}
        # Every batch dispatched after a retirement ran on a live worker.
        straggler = max(result.batches, key=lambda b: b.formed_s)
        assert straggler.worker_id not in retired_ids
        assert all(rec.terminal for rec in result.records)

    def test_bursty_campaign_scales_up_and_down(self):
        """The ISSUE acceptance scenario: under a seeded bursty workload
        the pool scales up for the burst and back down for the tail, and
        HIGH p99 with preemption beats preemption-off on the same seed."""

        def serve(preempt: bool):
            config = ServiceConfig(
                queue_capacity=384,
                policy=BatchPolicy(max_batch=8),
                n_workers=1,
                ranks_per_worker=2,
                fixed_iterations=10,
                preemption=PreemptionPolicy(enabled=preempt),
                elastic=ElasticPolicy(min_workers=1, max_workers=6),
            )
            workload = bursty_workload(
                96,
                seed=11,
                base_rps=300.0,
                burst_rps=12_000.0,
                burst_start_s=0.01,
                burst_len_s=0.01,
                dims=(8, 8, 8, 32),
                priority_mix=(0.2, 0.3, 0.5),
            )
            return SolveService(config).serve(workload).report

        on = serve(True)
        off = serve(False)
        for rep in (on, off):
            assert rep.completed + rep.failed + rep.rejected == 96
            assert rep.daemon["scale_ups"] >= 1
            assert rep.daemon["scale_downs"] >= 1
        assert on.daemon["preemptions"] >= 1
        assert on.daemon["resumed_batches"] >= 1
        assert off.daemon["preemptions"] == 0
        p99_on = on.priority_latency["high"]["p99_s"]
        p99_off = off.priority_latency["high"]["p99_s"]
        assert p99_on < p99_off

    def test_spinup_cost_is_charged(self):
        """Scaled-up capacity is not free: the report carries the
        modeled spin-up time the controller spent."""
        config = ServiceConfig(
            queue_capacity=384,
            policy=BatchPolicy(max_batch=8),
            n_workers=1,
            ranks_per_worker=2,
            fixed_iterations=10,
            elastic=ElasticPolicy(min_workers=1, max_workers=6),
        )
        rep = (
            SolveService(config)
            .serve(
                bursty_workload(
                    64,
                    seed=11,
                    base_rps=300.0,
                    burst_rps=12_000.0,
                    burst_start_s=0.005,
                    burst_len_s=0.01,
                    dims=DIMS,
                )
            )
            .report
        )
        assert rep.daemon["scale_ups"] >= 1
        assert rep.daemon["spinup_spent_us"] > 0.0

    def test_fixed_pool_reports_no_scaling(self):
        rep = SolveService(_config()).serve(_stream(16)).report
        assert rep.daemon["scale_ups"] == 0
        assert rep.daemon["scale_downs"] == 0
        assert rep.daemon["spinup_spent_us"] == 0.0


class TestLegacyEquivalence:
    def test_one_shot_campaign_unchanged_by_daemon_era(self):
        """The PR-4 entry point still works and reports zero daemon
        activity — the refactor is invisible to one-shot campaigns."""
        requests = synthetic_workload(24, seed=3, dims=DIMS)
        result = SolveService(_config()).run(requests)
        rep = result.report
        assert rep.completed + rep.failed + rep.rejected == 24
        assert rep.daemon["preemptions"] == 0
        assert rep.checkpoint_restores == 0
        assert rep.daemon["scale_ups"] == 0


@pytest.mark.xfail(
    strict=True,
    reason="resumed_batches is not in the campaign checkpoint; the carried "
    "set is frozen by the ledger's pinned serve-durable report (ROADMAP item 5)",
)
def test_resumed_batches_survive_scheduler_crash():
    """A batch that yielded *and resumed* before the crash is still a
    resumed batch after it: the resumed campaign's report must count
    what the uninterrupted one counts.  Today the preemption survives
    (1 vs 1) and the resume does not (0 vs 1)."""
    cfg = _config(
        queue_capacity=512,
        policy=BatchPolicy(max_batch=4),
        preemption=PreemptionPolicy(enabled=True),
        checkpoint_every=1,
    )

    def arrivals():
        return bursty_workload(
            200, seed=23, base_rps=1500.0, burst_rps=12000.0,
            burst_start_s=1e-3, burst_len_s=3e-3, dims=DIMS,
            priority_mix=(0.25, 0.5, 0.25),
        )

    baseline = SolveService(cfg).serve(arrivals()).report
    assert baseline.daemon["resumed_batches"] == 1
    store = CampaignCheckpointStore()
    with pytest.raises(SchedulerCrash):
        SolveService(cfg).serve(
            arrivals(), checkpoint=store, crash_at_s=0.5 * baseline.makespan_s
        )
    resumed = SolveService(cfg).resume(arrivals(), checkpoint=store).report
    assert resumed.daemon["preemptions"] == baseline.daemon["preemptions"]
    assert resumed.daemon["resumed_batches"] == baseline.daemon["resumed_batches"]
