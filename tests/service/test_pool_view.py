"""The scheduler's kept serving-pool view against a recount.

``_Campaign.serving`` is the set of workers that may take traffic.  It
is updated at the transitions that can change the answer (retire,
scale-up, breaker transitions, partition and heal, restore) instead of
being recounted on every admission and completion.  Here it is
compared with a recount through ``_Campaign._eligible`` — the one
predicate — whenever the scheduler reads it and after every event, over
hand-picked and generated campaigns with health, domains, elastic
pools, worker and node kills, partitions, and a scheduler crash resumed
from a plain or a mirrored store.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms.cluster import Topology
from repro.comms.faults import DomainFaultPlan, FaultPlan, WorkerFaultPlan
from repro.service import (
    BatchPolicy,
    BrownoutPolicy,
    CampaignCheckpointStore,
    ElasticPolicy,
    HedgePolicy,
    MirroredCheckpointStore,
    PreemptionPolicy,
    SchedulerCrash,
    ServiceConfig,
    ServiceInvariantError,
    SolveRequest,
    SolveService,
)
from repro.service.service import _Campaign

from .test_lifecycle_golden import (
    _BREAKER,
    DIMS,
    DURABLE_SCENARIOS,
    SCENARIOS,
    _bursty,
)


def _recount(campaign) -> set[int]:
    return {w for w in range(len(campaign.workers)) if campaign._eligible(w)}


def _check_pool_view(monkeypatch) -> list[int]:
    """Assert the kept view equals the recount at every read of it and
    after every event (the dispatch pass follows each one); returns a
    one-item list counting the checks made."""
    checks = [0]

    def checked(method):
        def run(campaign, *args):
            assert campaign.serving == _recount(campaign)
            checks[0] += 1
            return method(campaign, *args)

        return run

    for name in ("_serving_workers", "_release", "_dispatch"):
        monkeypatch.setattr(_Campaign, name, checked(getattr(_Campaign, name)))
    return checks


@pytest.fixture
def pool_view_checked(monkeypatch):
    return _check_pool_view(monkeypatch)


@pytest.mark.parametrize(
    "name",
    [
        "golden_daemon",
        "worker_kill_retries_2",
        "node_kill_silent",
        "rack_partition_heal",
        "tenancy_brownout_shed",
        "crash_resume_plain_store",
        "crash_resume_mirrored_store",
        "node_loss_budget",
        "partition_partner",
    ],
)
def test_lifecycle_scenarios(pool_view_checked, name):
    SCENARIOS[name]()
    assert pool_view_checked[0] > 0


def test_durable_mirror_after_node_loss(pool_view_checked):
    DURABLE_SCENARIOS["durable_mirror_primary_lost_seed2011"]()
    assert pool_view_checked[0] > 0


def test_breaker_closed_before_anything_dispatched(pool_view_checked):
    """The scheduler crashes between a quarantine and its probe; the
    resumed run has dispatched nothing when the probe comes due, so the
    breaker closes without one and worker 0 serves the next request."""
    cfg = ServiceConfig(
        n_workers=2,
        fixed_iterations=10,
        max_retries=0,
        health=_BREAKER,
        fault_plan=FaultPlan(seed=3).with_stall(0, after_s=0.0, mode="crash"),
        chaos_workers=(0,),
    )

    def arrivals():
        return iter(
            [
                SolveRequest(req_id=0, dims=DIMS),
                SolveRequest(req_id=1, dims=DIMS, arrival_s=0.5),
            ]
        )

    failed_at = SolveService(cfg).serve(arrivals()).batches[0].completed_s
    with pytest.raises(SchedulerCrash) as crash:
        SolveService(cfg).serve(
            arrivals(),
            checkpoint=CampaignCheckpointStore(),
            crash_at_s=failed_at + 0.5 * _BREAKER.cooldown_s,
        )
    resumed = SolveService(cfg).resume(arrivals(), checkpoint=crash.value.store)
    (batch,) = resumed.batches
    assert batch.worker_id == 0 and batch.formed_s > 0.5


_TOPOLOGIES = (None, "2x2@2", "3x2@3")
_at = st.floats(min_value=0.0, max_value=0.1)


@st.composite
def _campaigns(draw):
    """A generated daemon campaign: features, faults and a crash point."""
    name = draw(st.sampled_from(_TOPOLOGIES))
    topology = Topology.parse(name) if name else None
    n_workers = topology.n_workers if topology else draw(st.integers(2, 4))
    kw = dict(
        queue_capacity=256,
        policy=BatchPolicy(max_batch=draw(st.integers(1, 8))),
        n_workers=n_workers,
        fixed_iterations=10,
        max_retries=3,
        seed=draw(st.integers(0, 99)),
        topology=topology,
    )
    if draw(st.booleans()):
        kw["health"] = _BREAKER
    if draw(st.booleans()):
        kw["hedge"] = HedgePolicy(enabled=True, min_samples=0)
    if draw(st.booleans()):
        kw["brownout"] = BrownoutPolicy(enabled=True)
    if draw(st.booleans()):
        kw["preemption"] = PreemptionPolicy(enabled=True)
    if draw(st.booleans()):
        kw["elastic"] = ElasticPolicy(min_workers=1, max_workers=n_workers + 3)
    workers = WorkerFaultPlan()
    for wid, at in draw(
        st.lists(
            st.tuples(st.integers(0, n_workers - 1), _at),
            max_size=2,
            unique_by=lambda kill: kill[0],
        )
    ):
        workers = workers.with_kill(wid, at_s=at)
    if draw(st.booleans()):
        workers = workers.with_straggler(n_workers - 1, factor=3.0)
    kw["worker_faults"] = workers
    if topology is not None:
        plan = DomainFaultPlan(seed=kw["seed"], detect_s=1e-3)
        for node, at in draw(
            st.lists(
                st.tuples(st.integers(0, topology.n_nodes - 1), _at), max_size=1
            )
        ):
            plan = plan.with_node_kill(node, at_s=at)
        for rack, at in draw(
            st.lists(
                st.tuples(st.integers(0, topology.n_racks - 1), _at),
                max_size=2,
                unique_by=lambda partition: partition[0],
            )
        ):
            plan = plan.with_partition(rack, at_s=at, mean_heal_s=2e-3)
        kw["domain_faults"] = plan
    crash_at_s = draw(st.one_of(st.none(), st.floats(1e-3, 0.1)))
    mirrored = draw(st.booleans())
    return ServiceConfig(**kw), crash_at_s, mirrored


@settings(max_examples=40, deadline=None)
@given(_campaigns())
def test_generated_campaigns(campaign):
    cfg, crash_at_s, mirrored = campaign
    # Patched per example: function-scoped fixtures do not reset
    # between hypothesis examples.
    with pytest.MonkeyPatch.context() as monkeypatch:
        checks = _check_pool_view(monkeypatch)
        store = (
            MirroredCheckpointStore(primary_domain=1, mirror_domain=0)
            if mirrored
            else CampaignCheckpointStore()
        )
        try:
            try:
                SolveService(cfg).serve(
                    _bursty(), checkpoint=store, crash_at_s=crash_at_s
                )
            except SchedulerCrash as crash:
                SolveService(cfg).resume(_bursty(), checkpoint=crash.store)
        except ServiceInvariantError:
            # A pool left with no capacity at all is a known, separate
            # finding; every event before it was still checked.
            pass
        assert checks[0] > 0
