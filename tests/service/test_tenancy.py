"""Multi-tenant capacity control: token-bucket quotas, weighted-fair
dispatch, per-tenant scorecards, and checkpointed tenancy state."""

import json

import pytest

from repro.service import (
    BatchPolicy,
    CampaignCheckpointStore,
    HealthPolicy,
    SchedulerCrash,
    ServiceConfig,
    SolveService,
    TenancyPolicy,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
    WeightedFairScheduler,
    stream_workload,
)
from repro.service.request import COMPLETED, REJECTED

DIMS = (4, 4, 4, 8)
TENANTS = ("atlas", "bell")


def _config(**overrides) -> ServiceConfig:
    kw = dict(
        queue_capacity=256,
        policy=BatchPolicy(max_batch=4),
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
    kw.setdefault("tenants", TENANTS)
    return stream_workload(n, **kw)


def _tenancy(**kw) -> TenancyPolicy:
    return TenancyPolicy.build(TENANTS, **kw)


# --------------------------------------------------------------------- #
# Token bucket
# --------------------------------------------------------------------- #


class TestTokenBucket:
    def test_starts_full_and_burst_bounds_back_to_back_admits(self):
        b = TokenBucket(rate_qps=10.0, burst=3.0)
        assert [b.try_consume(0.0) for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]

    def test_refill_caps_at_burst(self):
        b = TokenBucket(rate_qps=10.0, burst=3.0)
        assert b.try_consume(0.0)
        b.refill(1e6)
        assert b.tokens == 3.0

    def test_refill_is_monotone(self):
        """An out-of-order timestamp must neither refund nor drain —
        the guard that makes checkpoint restore idempotent."""
        b = TokenBucket(rate_qps=10.0, burst=3.0)
        b.try_consume(1.0)
        level = b.tokens
        b.refill(0.5)
        assert b.tokens == level
        assert b.last_refill_s == 1.0

    def test_retry_after_is_the_refill_time(self):
        b = TokenBucket(rate_qps=10.0, burst=2.0)
        assert b.try_consume(0.0)
        assert b.try_consume(0.0)
        # Empty at t=0: one token exists at deficit/rate = 0.1 s.
        assert b.retry_after_s(0.0) == pytest.approx(0.1)
        # Half a token refilled by t=0.05: half the wait remains.
        assert b.retry_after_s(0.05) == pytest.approx(0.05)

    def test_retry_after_quote_is_honest(self):
        """Retrying exactly when the quote says must succeed."""
        b = TokenBucket(rate_qps=10.0, burst=1.0)
        assert b.try_consume(0.0)
        wait = b.retry_after_s(0.0)
        assert not b.try_consume(0.0 + wait * 0.5)
        assert b.try_consume(0.0 + wait)

    def test_json_round_trip_preserves_level_and_clock(self):
        b = TokenBucket(rate_qps=7.0, burst=4.0)
        b.try_consume(0.3)
        b.try_consume(0.4)
        c = TokenBucket.from_json(json.loads(json.dumps(b.to_json())))
        assert c.rate_qps == b.rate_qps
        assert c.burst == b.burst
        assert c.tokens == b.tokens
        assert c.last_refill_s == b.last_refill_s

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_qps=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_qps=1.0, burst=0.5)


# --------------------------------------------------------------------- #
# Weighted-fair scheduler
# --------------------------------------------------------------------- #


class TestWeightedFairScheduler:
    def test_equal_weights_alternate(self):
        """No starvation: two backlogged equal-weight tenants strictly
        alternate."""
        wfq = WeightedFairScheduler({"a": 1.0, "b": 1.0})
        picks = []
        for _ in range(6):
            name = wfq.pick(["a", "b"])
            wfq.charge(name, 1.0)
            picks.append(name)
        assert picks == ["a", "b", "a", "b", "a", "b"]

    def test_weighted_shares_hold(self):
        wfq = WeightedFairScheduler({"a": 3.0, "b": 1.0})
        picks = []
        for _ in range(40):
            name = wfq.pick(["a", "b"])
            wfq.charge(name, 1.0)
            picks.append(name)
        assert picks.count("a") == 30
        assert picks.count("b") == 10

    def test_idle_tenant_banks_no_credit(self):
        """A tenant that slept while the other was served re-enters at
        the system virtual time — it must not monopolize dispatch to
        'catch up' on idle time."""
        wfq = WeightedFairScheduler({"a": 1.0, "b": 1.0})
        for _ in range(10):
            wfq.charge(wfq.pick(["a"]), 1.0)
        picks = []
        for _ in range(10):
            name = wfq.pick(["a", "b"])
            wfq.charge(name, 1.0)
            picks.append(name)
        assert picks.count("b") == 5
        assert picks.count("a") == 5

    def test_tie_break_is_deterministic_by_name(self):
        wfq = WeightedFairScheduler({"b": 1.0, "a": 1.0})
        assert wfq.pick(["b", "a"]) == "a"

    def test_unknown_candidates_raise(self):
        wfq = WeightedFairScheduler({"a": 1.0})
        with pytest.raises(ValueError):
            wfq.pick(["ghost"])

    def test_restore_resumes_identical_schedule(self):
        a = WeightedFairScheduler({"a": 3.0, "b": 1.0})
        for _ in range(7):
            a.charge(a.pick(["a", "b"]), 1.0)
        b = WeightedFairScheduler({"a": 3.0, "b": 1.0})
        b.restore(json.loads(json.dumps(a.to_json())))
        for _ in range(9):
            assert a.pick(["a", "b"]) == b.pick(["a", "b"])
            a.charge(a.pick(["a", "b"]), 1.0)
            b.charge(b.pick(["a", "b"]), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedFairScheduler({})
        with pytest.raises(ValueError):
            WeightedFairScheduler({"a": 0.0})
        wfq = WeightedFairScheduler({"a": 1.0})
        with pytest.raises(ValueError):
            wfq.charge("a", -1.0)


# --------------------------------------------------------------------- #
# Policy and registry
# --------------------------------------------------------------------- #


class TestTenancyPolicy:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(name="")
        with pytest.raises(ValueError):
            TenantSpec(name="a", weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec(name="a", quota_qps=-1.0)
        with pytest.raises(ValueError):
            TenantSpec(name="a", quota_qps=1.0, quota_burst=0.5)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TenancyPolicy(tenants=(TenantSpec("a"), TenantSpec("a")))

    def test_enabled_only_with_tenants(self):
        assert not TenancyPolicy().enabled
        assert _tenancy().enabled

    def test_build_defaults_and_mismatch(self):
        pol = _tenancy()
        assert [t.weight for t in pol.tenants] == [1.0, 1.0]
        with pytest.raises(ValueError):
            TenancyPolicy.build(TENANTS, weights=(1.0,))


class TestTenantRegistry:
    def test_unmetered_admission_always_passes(self):
        reg = TenantRegistry(_tenancy())
        assert all(reg.admit("atlas", 0.0) is None for _ in range(100))
        assert reg.counters()["atlas"]["admitted"] == 100
        assert reg.counters()["atlas"]["quota_rejected"] == 0

    def test_metered_admission_matches_bucket_math(self):
        reg = TenantRegistry(_tenancy(quota_qps=10.0, quota_burst=2))
        assert reg.admit("atlas", 0.0) is None
        assert reg.admit("atlas", 0.0) is None
        retry = reg.admit("atlas", 0.0)
        assert retry == pytest.approx(0.1)
        assert reg.counters()["atlas"] == {
            "admitted": 2,
            "quota_rejected": 1,
            "shed": 0,
        }
        # The other tenant's bucket is untouched — isolation.
        assert reg.admit("bell", 0.0) is None

    def test_shed_low_paces_by_weight(self):
        """Weight-proportional shedding: the heaviest tenant keeps every
        LOW request, a half-weight tenant keeps every other one."""
        reg = TenantRegistry(
            TenancyPolicy.build(TENANTS, weights=(2.0, 1.0))
        )
        assert [reg.shed_low("atlas") for _ in range(10)] == [False] * 10
        sheds = [reg.shed_low("bell") for _ in range(10)]
        assert sheds.count(True) == 5
        assert reg.counters()["bell"]["shed"] == 5

    def test_note_shed_attributes_reject_level_refusals(self):
        reg = TenantRegistry(_tenancy())
        reg.note_shed("bell")
        assert reg.counters()["bell"]["shed"] == 1

    def test_restore_is_verbatim_no_double_charge(self):
        """Round-tripping through the checkpoint must neither refund nor
        re-charge bucket tokens, and must keep the fairness clocks."""
        reg = TenantRegistry(_tenancy(quota_qps=10.0, quota_burst=4))
        for t in (0.0, 0.0, 0.05):
            reg.admit("atlas", t)
        reg.wfq.charge(reg.wfq.pick(["atlas", "bell"]), 3.0)
        snap = json.loads(json.dumps(reg.to_json()))

        fresh = TenantRegistry(_tenancy(quota_qps=10.0, quota_burst=4))
        fresh.restore(snap)
        assert fresh.to_json() == reg.to_json()
        # Same quota decision stream from here on.
        assert fresh.admit("atlas", 0.06) == reg.admit("atlas", 0.06)


# --------------------------------------------------------------------- #
# Service integration
# --------------------------------------------------------------------- #


class TestTenantService:
    def test_tenanted_campaign_is_deterministic(self):
        cfg = dict(tenancy=_tenancy(quota_qps=500.0, quota_burst=8))
        a = SolveService(_config(**cfg)).serve(_stream())
        b = SolveService(_config(**cfg)).serve(_stream())
        assert a.completion_order == b.completion_order
        assert a.report.to_json() == b.report.to_json()

    def test_batches_never_mix_tenants(self):
        result = SolveService(_config(tenancy=_tenancy())).serve(
            _stream(64)
        )
        assert result.report.completed == 64
        assert len(result.batches) > 1
        for batch in result.batches:
            tenants = {rec.request.tenant for rec in batch.records}
            assert len(tenants) == 1, f"mixed batch: {tenants}"

    def test_equal_weight_dispatch_shares_under_backlog(self):
        """With every request backlogged at t~0, WFQ alternates batches
        between the tenants — early completions split near-evenly even
        though arrival counts differ."""
        result = SolveService(_config(tenancy=_tenancy())).serve(
            _stream(64)
        )
        early = result.completion_order[:32]
        by_tenant = {"atlas": 0, "bell": 0}
        for req_id in early:
            by_tenant[result.record_for(req_id).request.tenant] += 1
        assert min(by_tenant.values()) >= 10, by_tenant

    def test_quota_reject_carries_refill_derived_retry_after(self):
        """Replay the admission stream through a standalone bucket: every
        quota reject's retry-after must equal the bucket's refill time at
        that instant — not the drain estimator's cluster quote."""
        qps, burst = 200.0, 4
        result = SolveService(
            _config(tenancy=_tenancy(quota_qps=qps, quota_burst=burst))
        ).serve(_stream())
        shadow = {name: TokenBucket(qps, float(burst)) for name in TENANTS}
        quota_rejects = 0
        for rec in result.records:
            arrived = rec.trace[0][0]
            bucket = shadow[rec.request.tenant]
            if bucket.try_consume(arrived):
                assert not (
                    rec.state == REJECTED and not rec.shed
                ), "admitted by bucket math but quota-rejected by service"
            else:
                quota_rejects += 1
                assert rec.state == REJECTED
                assert not rec.shed  # a quota reject is not a brownout shed
                assert rec.retry_after_s == pytest.approx(
                    bucket.retry_after_s(arrived)
                )
                assert any(event == "quota" for _, event, _ in rec.trace)
        assert quota_rejects > 0
        assert result.report.completed > 0

    def test_quota_rejects_never_trip_the_breaker(self):
        """A quota reject never reaches a worker, so it must not feed the
        health ledgers: under a hair-trigger breaker and a flood of quota
        rejects, zero quarantines.  ``slow_ratio`` is disarmed so the
        only failure samples the breaker could see are miscounted quota
        rejects — with no worker faults, any quarantine is the bug."""
        result = SolveService(
            _config(
                tenancy=_tenancy(quota_qps=200.0, quota_burst=2),
                health=HealthPolicy(
                    enabled=True,
                    min_samples=1,
                    trip_rate=0.2,
                    slow_ratio=1e6,
                ),
            )
        ).serve(_stream())
        rep = result.report
        tenants = rep.daemon["tenants"].values()
        assert sum(t["quota_rejected"] for t in tenants) > 0
        assert rep.daemon["quarantines"] == 0
        assert rep.daemon["retired_sick"] == 0
        assert rep.completed > 0

    def test_tenancy_free_report_has_no_tenants_key(self):
        result = SolveService(_config()).serve(_stream(tenants=None))
        assert "tenants" not in result.report.daemon
        assert "tenants" not in result.report.to_json()

    def test_scorecard_counts_reconcile(self):
        qps, burst = 200.0, 4
        result = SolveService(
            _config(tenancy=_tenancy(quota_qps=qps, quota_burst=burst))
        ).serve(_stream())
        rep = result.report
        assert set(rep.daemon["tenants"]) == set(TENANTS)
        for name, card in rep.daemon["tenants"].items():
            recs = [r for r in result.records if r.request.tenant == name]
            assert card["requests"] == len(recs)
            assert card["completed"] == sum(
                1 for r in recs if r.state == COMPLETED
            )
            assert card["rejected"] == sum(
                1 for r in recs if r.state == REJECTED
            )
            assert card["quota_rejected"] <= card["rejected"]
            assert card["weight_share"] == pytest.approx(0.5)

    def test_zero_traffic_tenant_renders_none_cleanly(self):
        """A tenant that saw no requests reports ``None`` percentiles —
        not zero — and renders as ``n/a``."""
        result = SolveService(_config(tenancy=_tenancy())).serve(
            _stream(tenant_mix=(1.0, 0.0))
        )
        card = result.report.daemon["tenants"]["bell"]
        assert card["requests"] == 0
        assert card["p50_us"] is None
        assert card["p95_us"] is None
        assert card["p99_us"] is None
        rendered = result.report.render()
        assert "bell" in rendered
        assert "n/a" in rendered

    @pytest.mark.parametrize("fraction", [0.3, 0.6])
    def test_crash_resume_does_not_double_charge(self, fraction):
        """Tenancy state rides the campaign checkpoint: a resumed
        scheduler adopts bucket levels and fairness clocks verbatim, so
        the finished campaign's per-tenant ledger matches an uncrashed
        run exactly — no token double-charged, no quota reject replayed
        into a different verdict."""
        cfg = dict(tenancy=_tenancy(quota_qps=500.0, quota_burst=8))
        baseline = SolveService(_config(**cfg)).serve(_stream())
        crash_at = fraction * baseline.report.makespan_s

        store = CampaignCheckpointStore()
        with pytest.raises(SchedulerCrash):
            SolveService(_config(**cfg)).serve(
                _stream(), checkpoint=store, crash_at_s=crash_at
            )
        ckpt = store.latest()
        assert ckpt is not None
        tenancy = ckpt.parts.get("tenancy")
        assert tenancy, "tenancy state missing from the checkpoint"
        assert set(tenancy["buckets"]) <= set(TENANTS)
        assert "wfq" in tenancy

        resumed = SolveService(_config(**cfg)).resume(
            _stream(), checkpoint=store
        )
        assert resumed.report.checkpoint_restores == 1
        for name in TENANTS:
            got = resumed.report.daemon["tenants"][name]
            want = baseline.report.daemon["tenants"][name]
            assert got["requests"] == want["requests"]
            assert got["completed"] == want["completed"]
            assert got["quota_rejected"] == want["quota_rejected"]
            assert got["shed"] == want["shed"]
        assert all(rec.terminal for rec in resumed.records)
