"""Tests for the failure-domain resilience layer (PR 7).

Covers the three mechanisms of :mod:`repro.service.health` — the
circuit breaker (quarantine / probe / reinstate / retire), straggler
hedging, and graceful brownout — plus the correlated whole-worker
faults (:class:`~repro.comms.faults.WorkerFaultPlan`) they are
exercised against.  The closing acceptance test is the ISSUE's
scenario: a seeded overloaded bursty campaign with one flaky worker
and one straggler, resilience ON vs OFF.
"""

import dataclasses
import inspect
import json

import pytest

from repro.comms.faults import FaultPlan, WorkerFaultPlan
from repro.service import (
    BROWNOUT_DEGRADE,
    BROWNOUT_NORMAL,
    BROWNOUT_REJECT,
    BROWNOUT_SHED_LOW,
    HEALTHY,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PROBING,
    QUARANTINED,
    RETIRED_SICK,
    BatchPolicy,
    BrownoutController,
    BrownoutPolicy,
    ElasticPolicy,
    HealthBoard,
    HealthPolicy,
    HedgePolicy,
    PreemptionPolicy,
    ServiceConfig,
    SolveService,
    TenancyPolicy,
    WorkerHealth,
    bursty_workload,
    stream_workload,
)
from repro.service.health import BROWNOUT_HYSTERESIS
from repro.service.soa import RecordColumns

from .test_lifecycle_golden import (
    _bursty,
    _crash_and_resume,
    _golden_daemon_config,
    golden_daemon,
    tenancy_brownout_shed,
)

DIMS = (4, 4, 4, 8)
#: What a bare part's ``summary`` is handed: the records (none) and the
#: campaign horizon.
NO_RECORDS = (RecordColumns([]), 1.0)


def _config(**overrides):
    kw = dict(
        queue_capacity=256,
        policy=BatchPolicy(max_batch=8),
        n_workers=2,
        ranks_per_worker=2,
        fixed_iterations=10,
    )
    kw.update(overrides)
    return ServiceConfig(**kw)


def _stream(n=48, seed=7, rate_rps=4000.0, **kwargs):
    kwargs.setdefault("dims", DIMS)
    return stream_workload(n, seed=seed, rate_rps=rate_rps, **kwargs)


def _flaky_plan(seed=5):
    """One planned crash on rank 0 — a single flaky-worker fault."""
    return FaultPlan(seed=seed).with_stall(0, after_s=0.0, mode="crash")


# --------------------------------------------------------------------- #
# Policy validation
# --------------------------------------------------------------------- #


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"trip_rate": 0.0},
            {"trip_rate": 1.5},
            {"min_samples": 0},
            {"slow_ratio": 1.0},
            {"cooldown_s": -1e-6},
        ],
    )
    def test_health_policy_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            HealthPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trigger_factor": 1.0},
            {"refresh_points": 0},
            {"min_samples": -1},
        ],
    )
    def test_hedge_policy_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            HedgePolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shed_low_at_s": 0.0},
            {"shed_low_at_s": 9e-3},  # above degrade_at_s
            {"degrade_at_s": 20e-3},  # above reject_at_s
        ],
    )
    def test_brownout_policy_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            BrownoutPolicy(**kwargs)

    def test_worker_fault_plan_rejects_duplicate_kill(self):
        plan = WorkerFaultPlan().with_kill(1, at_s=1e-3)
        with pytest.raises(ValueError):
            plan.with_kill(1, at_s=2e-3)

    def test_straggler_factor_defaults_to_healthy(self):
        plan = WorkerFaultPlan().with_straggler(2, factor=3.0)
        assert plan.straggler_factor(2) == 3.0
        assert plan.straggler_factor(0) == 1.0


# --------------------------------------------------------------------- #
# HealthBoard unit behaviour
# --------------------------------------------------------------------- #


class TestHealthBoard:
    def test_failure_ewma_and_trip(self):
        board = HealthBoard(HealthPolicy(enabled=True, alpha=0.5))
        # min_samples=2 not yet met: no trip on the first crash.
        assert board.observe(0, "crash") == (False, False)
        assert board.tracker(0).failure_rate == 1.0
        assert board.observe(0, "crash") == (True, False)
        assert board.tracker(0).crashes == 2

    def test_clean_completions_decay_the_rate(self):
        board = HealthBoard(HealthPolicy(enabled=True, alpha=0.5))
        board.observe(0, "crash")
        _, slow = board.observe(0, duration_s=1e-3, predicted_s=1e-3)
        assert not slow
        assert board.tracker(0).failure_rate == pytest.approx(0.5)
        trip, _ = board.observe(0, duration_s=1e-3, predicted_s=1e-3)
        assert board.tracker(0).failure_rate == pytest.approx(0.25)
        assert not trip

    def test_slow_completion_counts_as_soft_failure(self):
        board = HealthBoard(HealthPolicy(enabled=True, slow_ratio=3.0))
        _, slow = board.observe(1, duration_s=4e-3, predicted_s=1e-3)
        assert slow
        wh = board.tracker(1)
        assert wh.slow_batches == 1
        assert wh.failure_rate == 1.0

    def test_timeout_kind_lands_in_the_timeout_counter(self):
        board = HealthBoard(HealthPolicy(enabled=True))
        board.observe(0, "timeout")
        assert board.tracker(0).timeouts == 1
        assert board.tracker(0).crashes == 0

    def test_a_held_worker_is_not_observed(self):
        """``observe`` is the serving worker's call; a held one keeps its
        ledger — only ``observe_failure`` (a kill, a failed probe) folds
        whatever the state."""
        board = HealthBoard(HealthPolicy(enabled=True, min_samples=1))
        board.quarantine(0, now=0.0)
        assert board.observe(0, "crash") == (False, False)
        assert board.tracker(0).crashes == 0
        board.observe_failure(0, "probe")
        assert board.tracker(0).crashes == 1

    def test_breaker_lifecycle(self):
        policy = HealthPolicy(enabled=True, cooldown_s=5e-3)
        board = HealthBoard(policy)
        wh = board.quarantine(0, now=1e-3)
        assert wh.state == QUARANTINED
        assert wh.strikes == 1
        assert wh.cooldown_until_s == pytest.approx(6e-3)
        assert board.n_quarantined() == 1
        assert not board.is_serving(0)

        board.start_probe(0)
        assert board.state(0) == PROBING
        assert board.n_quarantined() == 1  # probing still holds the slot

        board.reinstate(0)
        assert board.state(0) == HEALTHY
        assert board.is_serving(0)
        assert board.n_quarantined() == 0
        # The ledger resets so quarantined history cannot re-trip.
        assert board.tracker(0).ewma_failure is None
        assert board.tracker(0).samples == 0
        assert board.summary(*NO_RECORDS) == {
            "quarantines": 1,
            "reinstated": 1,
            "retired_sick": 0,
        }

    def test_retire_sick_is_terminal(self):
        board = HealthBoard(HealthPolicy(enabled=True))
        board.quarantine(3, now=0.0)
        board.retire_sick(3)
        assert board.state(3) == RETIRED_SICK
        assert not board.is_serving(3)
        assert board.n_quarantined() == 0
        assert board.summary(*NO_RECORDS)["retired_sick"] == 1

    def test_unknown_worker_defaults_healthy(self):
        board = HealthBoard(HealthPolicy(enabled=True))
        assert board.state(9) == HEALTHY
        assert board.is_serving(9)

    def test_board_json_round_trip(self):
        board = HealthBoard(HealthPolicy(enabled=True))
        board.observe(0, "crash")
        board.observe(1, duration_s=1e-3, predicted_s=1e-3)
        board.quarantine(0, now=2e-3)
        blob = board.to_json()
        back = HealthBoard(board.policy)
        back.restore(blob)
        assert back.to_json() == blob
        assert back.state(0) == QUARANTINED
        assert back.tracker(0).strikes == 1

    def test_worker_health_json_round_trip(self):
        wh = WorkerHealth(worker_id=2, state=QUARANTINED, ewma_failure=0.75,
                          samples=4, crashes=2, strikes=1,
                          cooldown_until_s=3e-3)
        assert WorkerHealth.from_json(wh.to_json()).to_json() == wh.to_json()
        # The hand-written field dict is what ``asdict`` used to deep-copy
        # at every commit, key order included.
        assert json.dumps(wh.to_json()) == json.dumps(dataclasses.asdict(wh))


# --------------------------------------------------------------------- #
# BrownoutController unit behaviour
# --------------------------------------------------------------------- #


class TestBrownoutController:
    def test_escalation_is_immediate(self):
        ctl = BrownoutController(BrownoutPolicy(enabled=True))
        assert ctl.update(0.0, 0.0) == BROWNOUT_NORMAL
        # Pressure above the top threshold jumps straight to REJECT.
        assert ctl.update(1e-3, 20e-3) == BROWNOUT_REJECT
        assert [lvl for _, lvl, _ in ctl.transitions] == [BROWNOUT_REJECT]

    def test_release_is_hysteretic_and_stepwise(self):
        assert BROWNOUT_HYSTERESIS == 0.5
        ctl = BrownoutController(BrownoutPolicy(enabled=True))
        ctl.update(0.0, 20e-3)
        assert ctl.level == BROWNOUT_REJECT
        # Pressure below reject but above its hysteresis point: hold.
        assert ctl.update(1e-3, 10e-3) == BROWNOUT_REJECT
        # Below 0.5 * reject: one level down, not a free-fall to NORMAL.
        assert ctl.update(2e-3, 1e-3) == BROWNOUT_DEGRADE
        assert ctl.update(3e-3, 1e-3) == BROWNOUT_SHED_LOW
        assert ctl.update(4e-3, 1e-3) == BROWNOUT_NORMAL
        assert ctl.max_level == BROWNOUT_REJECT

    def test_summary_speaks_level_names(self):
        ctl = BrownoutController(BrownoutPolicy(enabled=True))
        ctl.update(0.0, 5e-3)
        out = ctl.summary(*NO_RECORDS)["brownout"]
        assert out["final_level"] == "shed_low"
        assert out["max_level"] == "shed_low"
        assert out["transitions"][0]["level"] == "shed_low"

    def test_controller_json_round_trip(self):
        policy = BrownoutPolicy(enabled=True)
        ctl = BrownoutController(policy)
        ctl.update(0.0, 9e-3)
        ctl.shed = 3
        ctl.brownout_rejected = 1
        # The level changes are a ledger: a checkpoint logs new rows
        # and hands the whole list back under the same key.
        assert ctl.LEDGER not in ctl.to_json()
        blob = {**ctl.to_json(), ctl.LEDGER: [list(row) for row in ctl.transitions]}
        back = BrownoutController(policy)
        back.restore(json.loads(json.dumps(blob)))
        assert back.to_json() == ctl.to_json()
        assert back.transitions == ctl.transitions
        assert back.level == BROWNOUT_DEGRADE
        assert back.max_level == BROWNOUT_DEGRADE


class TestHedgeLedger:
    def test_restore_round_trip_and_report_names(self):
        from repro.service.health import HedgeLedger

        ledger = HedgeLedger(HedgePolicy(enabled=True))
        ledger.launched, ledger.won, ledger.cancelled = 3, 1, 2
        clone = HedgeLedger(ledger.policy)
        clone.restore(ledger.to_json())
        assert clone.to_json() == ledger.to_json()
        assert clone.summary(*NO_RECORDS) == {
            "hedges_launched": 3, "hedges_won": 1, "hedges_cancelled": 2,
        }


# --------------------------------------------------------------------- #
# Circuit breaker in the event loop
# --------------------------------------------------------------------- #


def _breaker(**overrides):
    """A crash-focused breaker: one failure trips, and the soft slow
    signal is muted so cold-start model noise cannot quarantine."""
    kw = dict(
        enabled=True, min_samples=1, trip_rate=0.5, cooldown_s=1e-3,
        slow_ratio=1e3,
    )
    kw.update(overrides)
    return HealthPolicy(**kw)


def _flaky_config(**overrides):
    kw = dict(
        n_workers=2,
        max_retries=2,
        fault_plan=_flaky_plan(),
        chaos_workers=(0,),
        health=_breaker(),
    )
    kw.update(overrides)
    return _config(**kw)


def _batch_events(res, event):
    return [
        (t, d) for b in res.batches for t, ev, d in b.trace if ev == event
    ]


class TestCircuitBreaker:
    def test_flaky_worker_quarantined_then_reinstated(self):
        res = SolveService(_flaky_config()).serve(_stream(n=32))
        rep = res.report
        assert rep.daemon["quarantines"] == 1
        assert rep.daemon["reinstated"] == 1
        assert rep.daemon["retired_sick"] == 0
        # The planned crash retried and nothing was lost.
        assert rep.completed + rep.failed + rep.rejected == 32
        assert rep.failed == 0
        assert all(rec.terminal for rec in res.records)
        assert _batch_events(res, "quarantine")

    def test_quarantine_evicts_residency(self):
        """The breaker's quarantine empties the sick device's residency.

        Witnessed through the campaign checkpoint committed at the
        quarantining batch completion: worker 0 was gauge-resident while
        serving, and the commit that records the quarantine records the
        eviction with it (the end-of-campaign state is useless here —
        the eventual probe re-warms the device).
        """
        from repro.service import CampaignCheckpointStore

        store = CampaignCheckpointStore()
        res = SolveService(_flaky_config()).serve(
            _stream(n=32), checkpoint=store
        )
        assert res.report.daemon["quarantines"] == 1
        q_time = _batch_events(res, "quarantine")[0][0]

        # Replay to the quarantine commit and inspect its pool state.
        store2 = CampaignCheckpointStore()
        from repro.service import SchedulerCrash

        with pytest.raises(SchedulerCrash):
            SolveService(_flaky_config()).serve(
                _stream(n=32), checkpoint=store2, crash_at_s=q_time + 1e-6
            )
        snap = store2.latest()
        assert snap is not None
        assert snap.workers[0]["resident"] is None
        assert snap.workers[1]["resident"] is not None

    def test_breaker_is_deterministic(self):
        a = SolveService(_flaky_config()).serve(_stream(n=32))
        b = SolveService(_flaky_config()).serve(_stream(n=32))
        assert a.completion_order == b.completion_order
        assert a.report.makespan_s == b.report.makespan_s
        assert a.report.daemon["quarantines"] == b.report.daemon["quarantines"]

    def test_single_planned_crash_does_not_trip_patient_breaker(self):
        """With min_samples=2 and a trip rate above the one-crash EWMA
        plateau, a single chaos crash on an otherwise clean worker never
        opens the breaker — the rate only decays from 0.5."""
        cfg = _flaky_config(health=_breaker(min_samples=2, trip_rate=0.75))
        rep = SolveService(cfg).serve(_stream(n=32)).report
        assert rep.daemon["quarantines"] == 0
        assert rep.completed == 32


class TestWorkerKill:
    def _killed_config(self, at_s, **overrides):
        kw = dict(
            n_workers=3,
            max_retries=2,
            worker_faults=WorkerFaultPlan().with_kill(1, at_s=at_s),
            health=_breaker(),
        )
        kw.update(overrides)
        return _config(**kw)

    def test_kill_redispatches_without_loss(self):
        baseline = SolveService(_config(n_workers=3)).serve(_stream())
        at_s = 0.4 * baseline.report.makespan_s

        res = SolveService(self._killed_config(at_s)).serve(_stream())
        rep = res.report
        assert rep.daemon["workers_killed"] == 1
        assert rep.daemon["retired_sick"] == 1
        assert res.workers[1].retired
        assert rep.completed + rep.failed + rep.rejected == 48
        assert {r.request.req_id for r in res.records} == set(range(48))
        assert all(rec.terminal for rec in res.records)
        assert rep.failed == 0  # every doomed batch re-dispatched

    def test_kill_outside_a_fixed_pool_is_rejected(self):
        """It used to be dropped silently (``workers_killed: 0``)."""
        plan = WorkerFaultPlan().with_kill(9, at_s=1e-3)
        with pytest.raises(ValueError, match="worker 9, but the fixed pool"):
            _config(n_workers=2, worker_faults=plan)
        # An elastic pool may still grow to worker 9.
        _config(
            n_workers=2,
            worker_faults=plan,
            elastic=ElasticPolicy(min_workers=1, max_workers=12),
        )

    def test_kill_is_deterministic(self):
        a = SolveService(self._killed_config(2e-3)).serve(_stream())
        b = SolveService(self._killed_config(2e-3)).serve(_stream())
        assert a.completion_order == b.completion_order
        assert a.report.makespan_s == b.report.makespan_s


class TestOneBreakerCallPerCompletion:
    """A completion asks the breaker once (``observe``), where it used
    to ask five times (``state``, ``observe_success``, ``should_trip``
    and ``tracker`` twice).  Counted over the ledger's ``serve-steady``
    stack at 2,000 requests, seed 2010, as the ledger's
    ``service.health`` span counts: every public method of
    :class:`HealthBoard` and :class:`BrownoutController`, inherited
    ones included.  The parent made 4.99 calls per request."""

    LIMIT = 2.5

    def test_health_calls_per_request(self, monkeypatch):
        calls = [0]

        def counted(fn):
            def call(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)

            return call

        for owner in {*HealthBoard.__mro__, *BrownoutController.__mro__} - {object}:
            for name, fn in list(vars(owner).items()):
                if not name.startswith("_") and inspect.isfunction(fn):
                    monkeypatch.setattr(owner, name, counted(fn))
        n = 2000
        cfg = _config(
            queue_capacity=4096,
            policy=BatchPolicy(max_batch=4),
            n_workers=4,
            fixed_iterations=15,
            preemption=PreemptionPolicy(enabled=True),
            health=HealthPolicy(enabled=True),
            hedge=HedgePolicy(enabled=True),
            brownout=BrownoutPolicy(enabled=True),
            tenancy=TenancyPolicy.build(("atlas", "bell"), weights=(3.0, 1.0)),
        )
        SolveService(cfg).serve(
            stream_workload(
                n, seed=2010, rate_rps=100.0, dims=DIMS, mode="double-half",
                priority_mix=(0.1, 0.7, 0.2), deadline_slack_s=0.15,
                tenants=("atlas", "bell"),
            )
        )
        assert calls[0] / n <= self.LIMIT


# --------------------------------------------------------------------- #
# Hedged stragglers
# --------------------------------------------------------------------- #


class TestHedging:
    def _straggler_config(self, factor=4.0, hedge=True, **overrides):
        kw = dict(
            n_workers=3,
            worker_faults=WorkerFaultPlan().with_straggler(1, factor=factor),
            hedge=HedgePolicy(enabled=hedge),
        )
        kw.update(overrides)
        return _config(**kw)

    def test_straggling_batch_earns_a_replica(self):
        res = SolveService(self._straggler_config()).serve(
            _stream(n=24, rate_rps=1500.0)
        )
        rep = res.report
        assert rep.daemon["hedges_launched"] >= 1
        assert rep.daemon["hedges_won"] <= rep.daemon["hedges_launched"]
        assert rep.daemon["hedges_cancelled"] <= rep.daemon["hedges_launched"]
        assert rep.completed == 24
        assert rep.failed == 0
        assert all(rec.terminal for rec in res.records)

    def test_no_hedges_without_the_policy(self):
        rep = SolveService(self._straggler_config(hedge=False)).serve(
            _stream(n=24, rate_rps=1500.0)
        ).report
        assert rep.daemon["hedges_launched"] == 0
        assert rep.daemon["hedges_won"] == 0
        assert rep.completed == 24

    def test_hedging_is_deterministic(self):
        a = SolveService(self._straggler_config()).serve(
            _stream(n=24, rate_rps=1500.0)
        )
        b = SolveService(self._straggler_config()).serve(
            _stream(n=24, rate_rps=1500.0)
        )
        assert a.completion_order == b.completion_order
        assert a.report.makespan_s == b.report.makespan_s
        assert a.report.daemon["hedges_launched"] == b.report.daemon["hedges_launched"]

    def test_hedge_beats_the_straggler(self):
        """With a severe straggler and idle healthy capacity, hedging
        must not be slower than riding out the slow worker."""
        on = SolveService(self._straggler_config(factor=6.0)).serve(
            _stream(n=24, rate_rps=1500.0)
        )
        off = SolveService(
            self._straggler_config(factor=6.0, hedge=False)
        ).serve(_stream(n=24, rate_rps=1500.0))
        assert on.report.makespan_s <= off.report.makespan_s


# --------------------------------------------------------------------- #
# Graceful brownout
# --------------------------------------------------------------------- #


class TestBrownoutService:
    def _overload(self, n=64, seed=11, **kwargs):
        kwargs.setdefault("dims", DIMS)
        kwargs.setdefault("priority_mix", (0.2, 0.5, 0.3))
        return stream_workload(n, seed=seed, rate_rps=20000.0, **kwargs)

    def test_overload_sheds_low_never_high(self):
        cfg = _config(
            brownout=BrownoutPolicy(
                enabled=True, shed_low_at_s=1e-3, degrade_at_s=5.0,
                reject_at_s=10.0,
            )
        )
        res = SolveService(cfg).serve(self._overload())
        rep = res.report
        assert rep.daemon["shed_low"] >= 1
        for rec in res.records:
            if rec.shed:
                assert rec.request.priority != PRIORITY_HIGH
                assert rec.retry_after_s is not None
        assert rep.daemon["brownout"]["max_level"] == "shed_low"

    def test_degrade_level_serves_cheaper_precision(self):
        cfg = _config(
            brownout=BrownoutPolicy(
                enabled=True, shed_low_at_s=5e-4, degrade_at_s=1e-3,
                reject_at_s=1.0,
            )
        )
        res = SolveService(cfg).serve(self._overload(mode="double-half"))
        rep = res.report
        assert rep.daemon["degraded_served"] >= 1
        degraded = [r for r in res.records if r.degraded]
        assert degraded
        assert all(r.state == "completed" for r in degraded)

    def test_reject_level_still_admits_high(self):
        cfg = _config(
            brownout=BrownoutPolicy(
                enabled=True, shed_low_at_s=2e-4, degrade_at_s=4e-4,
                reject_at_s=8e-4,
            )
        )
        res = SolveService(cfg).serve(self._overload())
        rep = res.report
        assert rep.daemon["brownout_rejected"] >= 1
        assert rep.daemon["brownout"]["max_level"] == "reject"
        # HIGH is never brownout-shed; capacity was never exhausted so
        # every HIGH request was admitted and served.
        high = [
            r for r in res.records
            if r.request.priority == PRIORITY_HIGH
        ]
        assert high
        assert all(not r.shed for r in high)
        assert all(r.state != "rejected" for r in high)

    def test_brownout_transitions_recorded(self):
        cfg = _config(
            brownout=BrownoutPolicy(
                enabled=True, shed_low_at_s=1e-3, degrade_at_s=1e-2,
                reject_at_s=1e-1,
            )
        )
        rep = SolveService(cfg).serve(self._overload()).report
        assert rep.daemon["brownout"]["transitions"]
        assert rep.daemon["brownout"]["shed"] == rep.daemon["shed_low"]

    @pytest.mark.parametrize(
        "campaign", ["golden_daemon", "tenancy_brownout_shed", "crash_resume"]
    )
    def test_controller_counts_agree_with_the_records(self, campaign):
        """The top-level shed counts are recounted from the records; the
        ``brownout`` block's are the controller's own counters, which a
        resumed scheduler restores from its checkpoint."""
        if campaign == "crash_resume":
            from repro.service import CampaignCheckpointStore

            makespan = golden_daemon().report.makespan_s
            result = _crash_and_resume(
                _golden_daemon_config(), _bursty, CampaignCheckpointStore(),
                0.5 * makespan,
            )
        else:
            result = {
                "golden_daemon": golden_daemon,
                "tenancy_brownout_shed": tenancy_brownout_shed,
            }[campaign]()
        d = result.report.daemon
        assert d["shed_low"] + d["brownout_rejected"] > 0
        assert d["brownout"]["shed"] == d["shed_low"]
        assert d["brownout"]["brownout_rejected"] == d["brownout_rejected"]


# --------------------------------------------------------------------- #
# Legacy equivalence: the resilience layer is pay-for-what-you-use
# --------------------------------------------------------------------- #


class TestLegacyEquivalence:
    def test_inert_policies_leave_the_schedule_unchanged(self):
        """Enabled-but-never-triggered resilience is pure observation:
        the schedule is byte-identical to a plain daemon run."""
        plain = SolveService(_config()).serve(_stream())
        guarded_cfg = _config(
            health=_breaker(min_samples=10**6),
            hedge=HedgePolicy(enabled=True, trigger_factor=1e6),
            brownout=BrownoutPolicy(
                enabled=True, shed_low_at_s=1e6, degrade_at_s=1e6,
                reject_at_s=1e6,
            ),
        )
        guarded = SolveService(guarded_cfg).serve(_stream())
        assert guarded.completion_order == plain.completion_order
        assert guarded.report.makespan_s == plain.report.makespan_s
        assert guarded.report.latency_p99_s == plain.report.latency_p99_s

    def test_disabled_policies_report_zero_counters(self):
        rep = SolveService(_config()).serve(_stream()).report
        assert rep.daemon["quarantines"] == 0
        assert rep.daemon["hedges_launched"] == 0
        assert rep.daemon["shed_low"] == 0
        assert rep.daemon["brownout_rejected"] == 0
        assert rep.daemon["degraded_served"] == 0
        assert rep.daemon["workers_killed"] == 0
        assert rep.daemon["brownout"] == {}


# --------------------------------------------------------------------- #
# Checkpoint resume preserves the breaker's decisions
# --------------------------------------------------------------------- #


class TestResumePreservesQuarantine:
    def test_quarantine_survives_a_scheduler_crash(self):
        from repro.service import CampaignCheckpointStore, SchedulerCrash

        cfg = _flaky_config(health=_breaker(cooldown_s=5e-3))
        # Find the quarantine instant from a crash-free run, then crash
        # just after it (the schedule is deterministic).
        probe_run = SolveService(cfg).serve(_stream(n=32))
        q_times = [t for t, _ in _batch_events(probe_run, "quarantine")]
        assert q_times
        crash_at = q_times[0] + 1e-4

        store = CampaignCheckpointStore()
        with pytest.raises(SchedulerCrash):
            SolveService(cfg).serve(
                _stream(n=32), checkpoint=store, crash_at_s=crash_at
            )
        snap = store.latest()
        assert snap is not None
        states = {
            w["worker_id"]: w["state"] for w in snap.parts["health"]["workers"]
        }
        assert states[0] in (QUARANTINED, PROBING)

        resumed = SolveService(cfg).resume(_stream(n=32), checkpoint=store)
        rep = resumed.report
        # The restored board kept the quarantine on worker 0 (the
        # counter survives; replayed batches may add to it but never
        # reset it), and nothing was lost across the crash.
        assert rep.daemon["quarantines"] >= 1
        assert rep.checkpoint_restores == 1
        assert rep.completed + rep.failed + rep.rejected == 32
        assert {r.request.req_id for r in resumed.records} == set(range(32))
        assert all(rec.terminal for rec in resumed.records)


# --------------------------------------------------------------------- #
# The acceptance scenario: resilience ON vs OFF under fire
# --------------------------------------------------------------------- #


class TestAcceptanceScenario:
    """The ISSUE's closing bar: a seeded overloaded bursty campaign with
    one flaky worker and one straggler.  Resilience ON must strictly
    improve HIGH's p99, not regress HIGH's SLO attainment, lose zero
    requests in both runs, and quarantine-then-reinstate the flaky
    worker."""

    N = 64

    def _arrivals(self):
        return bursty_workload(
            self.N,
            seed=23,
            base_rps=1500.0,
            burst_rps=12000.0,
            burst_start_s=1e-3,
            burst_len_s=3e-3,
            dims=DIMS,
            priority_mix=(0.25, 0.5, 0.25),
            deadline_slack_s=12e-3,
        )

    def _cfg(self, resilience):
        kw = dict(
            n_workers=3,
            max_retries=2,
            fault_plan=_flaky_plan(seed=3),
            chaos_workers=(0,),
            worker_faults=WorkerFaultPlan().with_straggler(2, factor=3.0),
        )
        if resilience:
            kw.update(
                health=HealthPolicy(
                    enabled=True, min_samples=1, trip_rate=0.5,
                    cooldown_s=1e-3,
                ),
                hedge=HedgePolicy(enabled=True),
                brownout=BrownoutPolicy(enabled=True),
            )
        return _config(**kw)

    def test_resilience_on_beats_off(self):
        off = SolveService(self._cfg(False)).serve(self._arrivals())
        on = SolveService(self._cfg(True)).serve(self._arrivals())

        # Zero lost requests in both runs.
        for res in (off, on):
            rep = res.report
            assert rep.completed + rep.failed + rep.rejected == self.N
            assert all(rec.terminal for rec in res.records)

        # The flaky worker was quarantined and later reinstated.
        assert on.report.daemon["quarantines"] >= 1
        assert on.report.daemon["reinstated"] >= 1

        # HIGH latency strictly better, HIGH SLO no worse.
        p99_on = on.report.priority_latency["high"]["p99_s"]
        p99_off = off.report.priority_latency["high"]["p99_s"]
        assert p99_on < p99_off
        assert on.report.slo_attainment >= off.report.slo_attainment
