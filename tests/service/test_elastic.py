"""Elastic pool controller and arrival-rate estimator units."""

import pytest

from repro.service import ArrivalRateEstimator, ElasticPolicy, PoolController


class TestElasticPolicy:
    def test_defaults_valid(self):
        p = ElasticPolicy()
        assert p.min_workers == 1
        assert p.max_workers >= p.min_workers

    @pytest.mark.parametrize(
        "kw",
        [
            {"min_workers": 0},
            {"min_workers": 4, "max_workers": 2},
            {"target_utilization": 0.0},
            {"target_utilization": 1.5},
            {"spinup_s": -1.0},
            {"cooldown_s": -1.0},
            {"alpha": 0.0},
            {"alpha": 1.5},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            ElasticPolicy(**kw)


class TestArrivalRateEstimator:
    def test_zero_before_any_arrival(self):
        assert ArrivalRateEstimator().rate_rps(1.0) == 0.0

    def test_tracks_constant_rate(self):
        est = ArrivalRateEstimator(alpha=1.0)
        for i in range(10):
            est.observe(i * 1e-3)  # 1000 rps
        assert est.rate_rps(9e-3) == pytest.approx(1000.0, rel=1e-6)

    def test_silence_decays_rate(self):
        """After a burst the estimate must fall as quiet time passes —
        ``now - last_arrival`` bounds the true current gap from below."""
        est = ArrivalRateEstimator(alpha=1.0)
        for i in range(10):
            est.observe(i * 1e-4)  # 10_000 rps burst
        hot = est.rate_rps(9e-4)
        cold = est.rate_rps(9e-4 + 0.1)
        assert hot == pytest.approx(10_000.0, rel=1e-6)
        assert cold < 11.0  # ~1/0.1s

    def test_json_round_trip(self):
        est = ArrivalRateEstimator(alpha=0.5)
        for t in (0.0, 1e-3, 3e-3):
            est.observe(t)
        clone = ArrivalRateEstimator()
        clone.restore(est.to_json())
        assert clone.rate_rps(5e-3) == est.rate_rps(5e-3)
        assert clone.to_json() == est.to_json()


def _controller(**policy_kw) -> PoolController:
    return PoolController(ElasticPolicy(**policy_kw))


class TestDesired:
    def test_idle_pool_wants_min(self):
        ctl = _controller(min_workers=2, max_workers=8)
        assert ctl.desired(0.0, rate_rps=0.0, batch_s=1e-3,
                           max_batch=8, backlog=0) == 2

    def test_rate_demand(self):
        # 8000 rps * 1ms / 8 per batch = 1 worker-second/s of demand;
        # at rho=0.5 that is 2 workers.
        ctl = _controller(min_workers=1, max_workers=8,
                          target_utilization=0.5)
        assert ctl.desired(0.0, rate_rps=8000.0, batch_s=1e-3,
                           max_batch=8, backlog=0) == 2

    def test_exact_fit_does_not_round_up(self):
        # Demand of exactly 1.0 worker at rho=1 asks for 1, not 2.
        ctl = _controller(target_utilization=1.0)
        assert ctl.desired(0.0, rate_rps=8000.0, batch_s=1e-3,
                           max_batch=8, backlog=0) == 1

    def test_backlog_floor(self):
        ctl = _controller(max_workers=8)
        assert ctl.desired(0.0, rate_rps=0.0, batch_s=1e-3,
                           max_batch=4, backlog=13) == 4  # ceil(13/4)

    def test_max_caps(self):
        ctl = _controller(max_workers=3)
        assert ctl.desired(0.0, rate_rps=1e9, batch_s=1.0,
                           max_batch=1, backlog=100) == 3


class TestDecide:
    def test_scale_up_delta(self):
        # 16000 rps * 1ms / 8 = 2 worker-s/s; at rho=0.5 the pool wants
        # 4, has 1 -> spin up 3 in one decision.
        ctl = _controller(max_workers=8, target_utilization=0.5)
        delta = ctl.decide(0.0, current=1, idle=1, rate_rps=16_000.0,
                           batch_s=1e-3, max_batch=8, backlog=0)
        assert delta == 3
        assert ctl.scale_ups == 1
        assert ctl.spinup_spent_s == pytest.approx(3 * ctl.policy.spinup_s)

    def test_cooldown_suppresses(self):
        ctl = _controller(cooldown_s=1e-3)
        assert ctl.decide(0.0, current=1, idle=1, rate_rps=1e6,
                          batch_s=1e-3, max_batch=8, backlog=0) > 0
        assert ctl.decide(5e-4, current=1, idle=1, rate_rps=1e6,
                          batch_s=1e-3, max_batch=8, backlog=0) == 0
        assert ctl.decide(2e-3, current=1, idle=1, rate_rps=1e6,
                          batch_s=1e-3, max_batch=8, backlog=0) > 0

    def test_scale_down_one_at_a_time(self):
        ctl = _controller(min_workers=1, cooldown_s=0.0)
        delta = ctl.decide(0.0, current=4, idle=3, rate_rps=0.0,
                           batch_s=1e-3, max_batch=8, backlog=0)
        assert delta == -1
        assert ctl.scale_downs == 1

    def test_scale_down_needs_idle_worker(self):
        ctl = _controller(cooldown_s=0.0)
        assert ctl.decide(0.0, current=4, idle=0, rate_rps=0.0,
                          batch_s=1e-3, max_batch=8, backlog=0) == 0

    def test_scale_down_blocked_by_backlog(self):
        """A half-busy pool with a full batch queued is behind, not
        oversized — hold rather than retire."""
        ctl = _controller(cooldown_s=0.0)
        assert ctl.decide(0.0, current=4, idle=2, rate_rps=0.0,
                          batch_s=1e-3, max_batch=8, backlog=8) == 0

    def test_hold_at_desired(self):
        ctl = _controller(cooldown_s=0.0, target_utilization=0.5)
        assert ctl.decide(0.0, current=2, idle=1, rate_rps=8000.0,
                          batch_s=1e-3, max_batch=8, backlog=0) == 0

    def test_pending_spinups_count_as_capacity(self):
        """`current` includes workers still booting, so a burst does not
        keep re-ordering capacity every decision."""
        ctl = _controller(cooldown_s=0.0, max_workers=4,
                          target_utilization=0.5)
        first = ctl.decide(0.0, current=1, idle=0, rate_rps=16_000.0,
                           batch_s=1e-3, max_batch=8, backlog=0)
        assert first == 3
        again = ctl.decide(1.0, current=1 + first, idle=0,
                           rate_rps=16_000.0, batch_s=1e-3,
                           max_batch=8, backlog=0)
        assert again == 0

    def test_json_round_trip(self):
        ctl = _controller(cooldown_s=0.0)
        ctl.decide(0.0, current=1, idle=1, rate_rps=1e6,
                   batch_s=1e-3, max_batch=8, backlog=0)
        ctl.decide(1.0, current=4, idle=3, rate_rps=0.0,
                   batch_s=1e-3, max_batch=8, backlog=0)
        clone = PoolController(ctl.policy)
        clone.restore(ctl.to_json())
        assert clone.last_scale_s == ctl.last_scale_s
        assert clone.spinup_spent_s == ctl.spinup_spent_s
        assert clone.events == ctl.events

    def test_json_round_trip_untouched(self):
        ctl = _controller()
        clone = PoolController(ctl.policy)
        clone.restore(ctl.to_json())
        assert clone.last_scale_s == float("-inf")
        assert clone.events == []


class TestQuarantineScaleDownRace:
    """PR 7: the circuit breaker and the autoscaler share the pool, and
    the breaker wins — capacity parked in quarantine/probe must not also
    be retired by a scale-down decision."""

    def test_quarantined_capacity_blocks_scale_down(self):
        ctl = _controller(min_workers=1, cooldown_s=0.0)
        # Without the breaker this idle, quiet pool retires one worker.
        assert ctl.decide(0.0, current=4, idle=3, rate_rps=0.0,
                          batch_s=1e-3, max_batch=8, backlog=0,
                          quarantined=0) == -1
        # A worker cooling down (or probing) holds the decision: the
        # probe's verdict, not the autoscaler, sizes the pool.
        assert ctl.decide(1.0, current=4, idle=3, rate_rps=0.0,
                          batch_s=1e-3, max_batch=8, backlog=0,
                          quarantined=1) == 0
        assert ctl.scale_downs == 1

    def test_quarantine_does_not_block_scale_up(self):
        """A probe racing a scale-*up* is no conflict: ordered capacity
        replaces what the breaker took away."""
        ctl = _controller(max_workers=8, target_utilization=0.5,
                          cooldown_s=0.0)
        delta = ctl.decide(0.0, current=1, idle=0, rate_rps=16_000.0,
                           batch_s=1e-3, max_batch=8, backlog=0,
                           quarantined=1)
        assert delta > 0

    def test_service_survives_quarantine_under_elastic_pool(self):
        """End to end: a flaky worker quarantines mid-campaign while the
        autoscaler is live; every request still terminates and the
        breaker's probe gets to deliver its verdict."""
        from repro.comms.faults import FaultPlan
        from repro.service import (
            BatchPolicy,
            HealthPolicy,
            ServiceConfig,
            SolveService,
            stream_workload,
        )

        cfg = ServiceConfig(
            queue_capacity=256,
            policy=BatchPolicy(max_batch=8),
            n_workers=2,
            ranks_per_worker=2,
            fixed_iterations=10,
            max_retries=2,
            fault_plan=FaultPlan(seed=5).with_stall(
                0, after_s=0.0, mode="crash"
            ),
            chaos_workers=(0,),
            health=HealthPolicy(
                enabled=True, min_samples=1, trip_rate=0.5,
                cooldown_s=1e-3, slow_ratio=1e3,
            ),
            elastic=ElasticPolicy(min_workers=1, max_workers=4),
        )
        res = SolveService(cfg).serve(
            stream_workload(48, seed=7, rate_rps=4000.0, dims=(4, 4, 4, 8))
        )
        rep = res.report
        assert rep.daemon["quarantines"] >= 1
        assert rep.daemon["reinstated"] + rep.daemon["retired_sick"] >= 1
        assert rep.completed + rep.failed + rep.rejected == 48
        assert all(rec.terminal for rec in res.records)
        # The ledger never retired the quarantined worker's slot out
        # from under the probe: every scale-down picked a healthy idle
        # worker, so the pool never dropped below the elastic floor.
        assert rep.final_workers >= cfg.elastic.min_workers
