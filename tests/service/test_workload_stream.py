"""Streaming arrival sources: lazy, seeded, deterministic."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    bursty_workload,
    stream_workload,
    synthetic_workload,
)

from ._reference_stream import (
    reference_bursty,
    reference_stream,
    reference_synthetic,
)


def _sig(req):
    return (req.req_id, req.arrival_s, req.priority, req.config_id, req.deadline_s)


class TestStreamWorkload:
    def test_is_lazy(self):
        """The source is an iterator — the daemon pulls arrivals one at
        a time, it never materializes the campaign."""
        stream = stream_workload(10_000_000, seed=3)
        first = next(stream)
        assert first.req_id == 0
        assert next(stream).req_id == 1

    def test_deterministic_for_seed(self):
        a = [_sig(r) for r in stream_workload(64, seed=11, rate_rps=3000.0)]
        b = [_sig(r) for r in stream_workload(64, seed=11, rate_rps=3000.0)]
        assert a == b

    def test_seeds_differ(self):
        a = [_sig(r) for r in stream_workload(32, seed=1)]
        b = [_sig(r) for r in stream_workload(32, seed=2)]
        assert a != b

    def test_arrivals_nondecreasing(self):
        times = [r.arrival_s for r in stream_workload(128, seed=5)]
        assert times == sorted(times)
        assert times[0] >= 0.0

    def test_duration_bound(self):
        reqs = list(stream_workload(seed=7, rate_rps=2000.0, duration_s=0.01))
        assert reqs
        assert all(r.arrival_s < 0.01 for r in reqs)

    def test_count_and_duration_combine(self):
        reqs = list(
            stream_workload(5, seed=7, rate_rps=2000.0, duration_s=10.0)
        )
        assert len(reqs) == 5

    def test_unbounded_requires_duration(self):
        with pytest.raises(ValueError):
            stream_workload(None, seed=7)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            stream_workload(8, rate_rps=0.0)

    def test_priority_mix_respected(self):
        reqs = list(
            stream_workload(256, seed=9, priority_mix=(1.0, 0.0, 0.0))
        )
        assert all(r.priority == PRIORITY_HIGH for r in reqs)

    def test_matches_synthetic_distributional_shape(self):
        """Streamed requests carry the same fields the one-shot
        generator produces (the daemon serves the same traffic)."""
        stream = next(iter(stream_workload(1, seed=13)))
        batch = synthetic_workload(1, seed=13)[0]
        assert stream.dims == batch.dims
        assert stream.mode == batch.mode


class TestBurstyWorkload:
    def test_deterministic(self):
        kw = dict(
            seed=21, base_rps=400.0, burst_rps=9000.0,
            burst_start_s=0.005, burst_len_s=0.01,
        )
        a = [_sig(r) for r in bursty_workload(96, **kw)]
        b = [_sig(r) for r in bursty_workload(96, **kw)]
        assert a == b

    def test_burst_is_denser(self):
        reqs = list(
            bursty_workload(
                200, seed=17, base_rps=200.0, burst_rps=20_000.0,
                burst_start_s=0.01, burst_len_s=0.01,
            )
        )
        in_burst = [r for r in reqs if 0.01 <= r.arrival_s < 0.02]
        before = [r for r in reqs if r.arrival_s < 0.01]
        # ~2 expected arrivals before the burst vs ~200 inside it.
        assert len(in_burst) > 10 * max(len(before), 1)

    def test_no_burst_degrades_to_constant_rate(self):
        a = [_sig(r) for r in bursty_workload(32, seed=3, base_rps=1000.0)]
        assert len(a) == 32

    def test_bad_rates(self):
        with pytest.raises(ValueError):
            bursty_workload(8, base_rps=0.0)
        with pytest.raises(ValueError):
            bursty_workload(8, burst_len_s=-1.0)

    def test_lazy_prefix_skip_is_exact(self):
        """itertools.islice over a regenerated source reproduces the
        suffix exactly — the property campaign resume relies on."""
        kw = dict(seed=29, base_rps=500.0, burst_rps=8000.0,
                  burst_start_s=0.002, burst_len_s=0.004)
        full = [_sig(r) for r in bursty_workload(48, **kw)]
        suffix = [
            _sig(r)
            for r in itertools.islice(bursty_workload(48, **kw), 17, None)
        ]
        assert suffix == full[17:]


class TestPriorities:
    def test_all_three_tiers_appear(self):
        reqs = list(stream_workload(512, seed=2, priority_mix=(0.2, 0.5, 0.3)))
        seen = {r.priority for r in reqs}
        assert seen == {PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW}

    def test_deadline_slack_scales_with_priority(self):
        reqs = list(
            stream_workload(64, seed=4, deadline_slack_s=1e-3)
        )
        for r in reqs:
            assert r.deadline_s is not None
            slack = r.deadline_s - r.arrival_s
            if r.priority == PRIORITY_HIGH:
                assert slack == pytest.approx(0.5e-3)
            elif r.priority == PRIORITY_NORMAL:
                assert slack == pytest.approx(1e-3)
            else:
                assert slack == pytest.approx(2e-3)


class TestTenantMix:
    """Tenant-tagged arrival streams (multi-tenant era)."""

    def _tsig(self, req):
        return _sig(req) + (req.tenant,)

    def test_untenanted_stream_unchanged(self):
        """Tenancy-free streams are byte-identical to pre-tenancy ones:
        the tenant RNG is never created, so no draw order shifts."""
        reqs = list(stream_workload(64, seed=11, rate_rps=3000.0))
        assert all(r.tenant is None for r in reqs)

    def test_seeded_determinism_with_tenants(self):
        kw = dict(seed=11, rate_rps=3000.0,
                  tenants=("alice", "bob"), tenant_mix=(0.5, 0.5))
        a = [self._tsig(r) for r in stream_workload(64, **kw)]
        b = [self._tsig(r) for r in stream_workload(64, **kw)]
        assert a == b
        assert {r[-1] for r in a} == {"alice", "bob"}

    def test_tenant_tags_do_not_shift_arrival_schedule(self):
        """The tenant draw rides its own salted RNG: adding tenants
        re-labels requests without moving a single arrival or priority."""
        plain = [_sig(r) for r in stream_workload(64, seed=11)]
        tagged = [
            _sig(r)
            for r in stream_workload(
                64, seed=11, tenants=("alice", "bob")
            )
        ]
        assert tagged == plain

    def test_lazy_prefix_skip_preserves_tenant_tags(self):
        """islice over a regenerated tenanted source reproduces the
        suffix exactly, tenants included — campaign resume depends on
        regenerating the identical tagged stream."""
        kw = dict(seed=29, base_rps=500.0, burst_rps=8000.0,
                  burst_start_s=0.002, burst_len_s=0.004,
                  tenants=("alice", "bob", "carol"),
                  tenant_mix=(0.5, 0.3, 0.2))
        full = [self._tsig(r) for r in bursty_workload(48, **kw)]
        suffix = [
            self._tsig(r)
            for r in itertools.islice(bursty_workload(48, **kw), 17, None)
        ]
        assert suffix == full[17:]

    def test_mix_weights_respected(self):
        reqs = list(
            stream_workload(
                256, seed=9, tenants=("alice", "bob"), tenant_mix=(1.0, 0.0)
            )
        )
        assert all(r.tenant == "alice" for r in reqs)

    def test_synthetic_workload_tags_tenants(self):
        reqs = synthetic_workload(
            128, seed=5, tenants=("alice", "bob"), tenant_mix=(0.5, 0.5)
        )
        assert {r.tenant for r in reqs} == {"alice", "bob"}
        again = synthetic_workload(
            128, seed=5, tenants=("alice", "bob"), tenant_mix=(0.5, 0.5)
        )
        assert [r.tenant for r in reqs] == [r.tenant for r in again]

    def test_validation(self):
        with pytest.raises(ValueError):
            stream_workload(8, tenant_mix=(0.5, 0.5))  # mix without tenants
        with pytest.raises(ValueError):
            stream_workload(8, tenants=())
        with pytest.raises(ValueError):
            stream_workload(8, tenants=("a", "b"), tenant_mix=(1.0,))

    def test_record_round_trips_tenant(self):
        """RequestRecord JSON round-trips the tenant tag — checkpointed
        pending requests must come back owned by the same tenant."""
        from repro.service import RequestRecord

        req = next(
            iter(stream_workload(1, seed=3, tenants=("alice",)))
        )
        assert req.tenant == "alice"
        rec = RequestRecord(request=req)
        back = RequestRecord.from_json(rec.to_json())
        assert back.request.tenant == "alice"
        assert back.request == req

    def test_untenanted_request_json_has_no_tenant_key(self):
        """Untenanted requests serialize without the key at all, so
        pre-tenancy checkpoint bytes are reproduced exactly."""
        req = next(iter(stream_workload(1, seed=3)))
        assert "tenant" not in req.to_json()


class TestMixValidation:
    """A malformed mix fails when the workload is built, not at the
    first draw (and never as a silently wrong priority)."""

    @pytest.mark.parametrize(
        "mix",
        [
            (0.5, 0.5),
            (0.1, 0.2, 0.3, 0.4),
            (float("nan"), 0.5, 0.5),
            (0.2, float("inf"), 0.5),
            (-0.1, 0.6, 0.5),
            (0.0, 0.0, 0.0),
        ],
    )
    @pytest.mark.parametrize(
        "make", [stream_workload, bursty_workload, synthetic_workload]
    )
    def test_bad_priority_mix(self, make, mix):
        with pytest.raises(ValueError, match="priority_mix"):
            make(10, priority_mix=mix)

    @pytest.mark.parametrize("mix", [(float("nan"), 1.0), (1.0, float("inf"))])
    @pytest.mark.parametrize(
        "make", [stream_workload, bursty_workload, synthetic_workload]
    )
    def test_non_finite_tenant_mix(self, make, mix):
        with pytest.raises(ValueError, match="tenant_mix"):
            make(10, tenants=("alice", "bob"), tenant_mix=mix)


# --------------------------------------------------------------------- #
# Block draws against the per-arrival oracle
# --------------------------------------------------------------------- #

_weights = st.floats(min_value=0.0, max_value=10.0)
_priority_mix = st.tuples(_weights, _weights, _weights).filter(lambda m: sum(m) > 0)
_tenancy = st.one_of(
    st.none(),
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.just(("alice", "bob", "carol")[:k]),
            st.one_of(
                st.none(),
                st.lists(_weights, min_size=k, max_size=k)
                .filter(lambda m: sum(m) > 0)
                .map(tuple),
            ),
        )
    ),
)
#: Counts on either side of a 256-arrival block edge; durations long
#: enough for several blocks at the rates below.
_bounds = st.one_of(
    st.tuples(st.sampled_from([0, 1, 255, 256, 257, 600]), st.none()),
    st.tuples(st.none(), st.floats(min_value=1e-3, max_value=0.6)),
    st.tuples(st.integers(0, 700), st.floats(min_value=1e-3, max_value=0.6)),
)
_skips = st.one_of(
    st.sampled_from([0, 255, 256, 257, 511, 512, 513]), st.integers(0, 700)
)


class TestMatchesPerArrivalOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bursty=st.booleans(),
        priority_mix=_priority_mix,
        tenancy=_tenancy,
        n_configs=st.integers(1, 7),
        bounds=_bounds,
        slack=st.one_of(st.none(), st.just(0.15)),
        skip=_skips,
    )
    def test_request_for_request(
        self, seed, bursty, priority_mix, tenancy, n_configs, bounds, slack, skip
    ):
        n_requests, duration_s = bounds
        tenants, tenant_mix = tenancy if tenancy is not None else (None, None)
        kw = dict(
            seed=seed, n_configs=n_configs, priority_mix=priority_mix,
            deadline_slack_s=slack, tenants=tenants, tenant_mix=tenant_mix,
            duration_s=duration_s,
        )
        if bursty:
            rates = dict(
                base_rps=500.0, burst_rps=8000.0, burst_start_s=0.05,
                burst_len_s=0.03,
            )

            def got():
                return bursty_workload(n_requests, **rates, **kw)

            want = list(reference_bursty(n_requests, **rates, **kw))
        else:

            def got():
                return stream_workload(n_requests, rate_rps=1000.0, **kw)

            want = list(reference_stream(n_requests, rate_rps=1000.0, **kw))
        # ``==`` on the frozen request compares every field exactly.
        assert list(got()) == want
        # A resumed campaign regenerates the stream and skips what it
        # already consumed.
        assert list(itertools.islice(got(), skip, None)) == want[skip:]


# --------------------------------------------------------------------- #
# The fixed list against the vectorised generator it replaced
# --------------------------------------------------------------------- #

#: Shapes of the campaigns built as lists: configs, a priority mix,
#: deadlines, two and three tenants, and the hot campaign
#: (``bench.harness.hot_campaign``: 20 k rps on 4^4x8).
_LIST_SHAPES = {
    "default": {},
    "configs": dict(n_configs=5),
    "mix": dict(priority_mix=(0.2, 0.3, 0.5)),
    "deadlines": dict(deadline_slack_s=0.15, priority_mix=(0.3, 0.4, 0.3)),
    "two_tenants": dict(tenants=("atlas", "bell"), tenant_mix=(3.0, 1.0)),
    "three_tenants": dict(tenants=("a", "b", "c"), n_configs=2),
    "hot": dict(rate_rps=20000.0, dims=(4, 4, 4, 8)),
}


class TestSyntheticIsTheStreamMaterialized:
    @pytest.mark.parametrize("shape", sorted(_LIST_SHAPES))
    def test_request_for_request(self, shape):
        kw = _LIST_SHAPES[shape]
        for seed in (0, 7, 31, 2010, 2011, 12345):
            for n in (0, 1, 255, 256, 257, 600, 4096):
                # ``==`` on the frozen request compares every field exactly.
                assert synthetic_workload(n, seed=seed, **kw) == reference_synthetic(
                    n, seed=seed, **kw
                ), (seed, n)
