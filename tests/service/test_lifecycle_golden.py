"""Lifecycle goldens: every request- and batch-trace string, pinned.

``golden_daemon_report.json`` pins the *report*; nothing pinned the
lifecycle text a report is computed from — ``RequestRecord.trace``,
``Batch.trace``, ``Batch.detail``, the ``StructuredFailure`` fields, the
completion order.  Each scenario here serves one small campaign through
the public API and hashes exactly that, so a scheduler refactor that
reorders two notes, rewords a message or appends a completion twice
fails a digest even when every counter in the report still adds up.

Two SHA-256 digests per scenario, over canonical JSON
(:func:`repro.codec.canonical_bytes`, floats by shortest repr):

* ``requests`` — ``[r.to_json() for r in records]`` plus
  ``completion_order``;
* ``batches`` — each batch's ``(batch_id, worker_id, ok, detail,
  preempted, hedge_of, resumed_from, trace)``.

The ``durable_*`` scenarios crash and resume the ``serve-durable``
feature stack of the wall-clock ledger (at 10 % / 50 % / 90 % of the
campaign, twice in a row, before the first commit, through the mirror
after the primary's node died, and through a store loaded from its
file) at two seeds each, and add a third digest, ``report`` — the
SHA-256 of ``render_json()``.  They were recorded at the commit *before*
the checkpoint became a log plus a head, so they hold that change to
the old whole-snapshot behaviour byte for byte.

The second half of the file is the failure-handling table: the four
sources of a lost batch (rank crash, worker kill, node loss, rack
partition) crossed with {retry budget left, budget exhausted, hedged
partner still running}, asserted through the same scenarios.

Re-record (only for a deliberate, explained lifecycle change)::

    PYTHONPATH=src python tests/service/test_lifecycle_golden.py
"""

import hashlib
import json
import pathlib
import tempfile

import pytest

from repro.codec import canonical_bytes
from repro.comms.cluster import Topology
from repro.comms.faults import DomainFaultPlan, FaultPlan, WorkerFaultPlan
from repro.service import (
    BatchPolicy,
    BrownoutPolicy,
    CampaignCheckpointStore,
    ElasticPolicy,
    HealthPolicy,
    HedgePolicy,
    MirroredCheckpointStore,
    PreemptionPolicy,
    SchedulerCrash,
    ServiceConfig,
    SolveRequest,
    SolveService,
    TenancyPolicy,
    bursty_workload,
    stream_workload,
)
from repro.service.request import COMPLETED, FAILED

DIMS = (4, 4, 4, 8)
GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_lifecycle.json"


def _digest(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def digests(result) -> dict:
    return {
        "requests": _digest(
            {
                "records": [r.to_json() for r in result.records],
                "completion_order": result.completion_order,
            }
        ),
        "batches": _digest(
            [
                [
                    b.batch_id, b.worker_id, b.ok, b.detail, b.preempted,
                    b.hedge_of, b.resumed_from, [list(t) for t in b.trace],
                ]
                for b in result.batches
            ]
        ),
    }


# --------------------------------------------------------------------- #
# Campaign scenarios
# --------------------------------------------------------------------- #

_BREAKER = HealthPolicy(
    enabled=True, min_samples=1, trip_rate=0.5, cooldown_s=1e-3, slow_ratio=1e3
)


def _bursty(n=48, **kw):
    kw.setdefault("seed", 23)
    kw.setdefault("dims", DIMS)
    kw.setdefault("mode", "double-half")
    kw.setdefault("priority_mix", (0.25, 0.5, 0.25))
    kw.setdefault("deadline_slack_s", 12e-3)
    return bursty_workload(
        n, base_rps=1500.0, burst_rps=12000.0, burst_start_s=1e-3,
        burst_len_s=3e-3, **kw,
    )


def _stream(n=48, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("rate_rps", 4000.0)
    kw.setdefault("dims", DIMS)
    return stream_workload(n, **kw)


def _golden_daemon_config(**overrides) -> ServiceConfig:
    """The configuration behind ``golden_daemon_report.json``."""
    kw = dict(
        queue_capacity=256,
        policy=BatchPolicy(max_batch=8),
        n_workers=3,
        ranks_per_worker=2,
        fixed_iterations=10,
        max_retries=3,
        seed=23,
        fault_plan=FaultPlan(seed=3).with_stall(0, after_s=0.0, mode="crash"),
        chaos_workers=(0,),
        worker_faults=WorkerFaultPlan().with_straggler(2, factor=3.0),
        health=_BREAKER,
        hedge=HedgePolicy(enabled=True),
        brownout=BrownoutPolicy(enabled=True),
        elastic=ElasticPolicy(enabled=True, min_workers=2, max_workers=5),
        preemption=PreemptionPolicy(enabled=True),
        checkpoint_every=4,
    )
    kw.update(overrides)
    return ServiceConfig(**kw)


def golden_daemon():
    return SolveService(_golden_daemon_config()).serve(_bursty())


def _worker_kill(max_retries):
    cfg = ServiceConfig(
        queue_capacity=256,
        policy=BatchPolicy(max_batch=8),
        n_workers=3,
        fixed_iterations=10,
        max_retries=max_retries,
        # Worker 1 is 38 ms into a two-request batch at 40 ms.
        worker_faults=WorkerFaultPlan().with_kill(1, at_s=40e-3),
        health=_BREAKER,
    )
    return SolveService(cfg).serve(_stream())


def worker_kill_retries_0():
    return _worker_kill(0)


def worker_kill_retries_2():
    return _worker_kill(2)


def _domain_config(topology, **overrides) -> ServiceConfig:
    kw = dict(
        queue_capacity=256,
        policy=BatchPolicy(max_batch=4),
        n_workers=topology.n_workers,
        fixed_iterations=10,
        max_retries=4,
        seed=23,
        topology=topology,
        health=_BREAKER,
        hedge=HedgePolicy(enabled=True),
    )
    kw.update(overrides)
    return ServiceConfig(**kw)


def node_kill_silent():
    """``2x2@2``: worker 0 straggles, so its first batch (29.9 ms) is
    hedged at 32.9 ms onto worker 1, on the same node; node 1 dies
    silently at 35 ms.  The next dispatch to each of its two workers
    times out and quarantines that worker alone, and their probes time
    out until both are retired."""
    cfg = _domain_config(
        Topology.parse("2x2@2"),
        domain_faults=DomainFaultPlan(seed=23).with_node_kill(1, at_s=35e-3),
        worker_faults=WorkerFaultPlan().with_straggler(0, factor=4.0),
        hedge=HedgePolicy(enabled=True, min_samples=0),
    )
    return SolveService(cfg).serve(
        _stream(24, rate_rps=200.0, deadline_slack_s=0.5)
    )


def rack_partition_heal():
    cfg = _domain_config(
        Topology(n_nodes=3, workers_per_node=3, n_racks=3),
        domain_faults=DomainFaultPlan(seed=23).with_partition(
            2, at_s=3e-3, mean_heal_s=2e-3
        ),
    )
    return SolveService(cfg).serve(_bursty(deadline_slack_s=0.5))


def tenancy_brownout_shed():
    cfg = ServiceConfig(
        queue_capacity=256,
        policy=BatchPolicy(max_batch=4),
        n_workers=2,
        fixed_iterations=10,
        brownout=BrownoutPolicy(
            enabled=True, shed_low_at_s=1e-3, degrade_at_s=4e-3,
            reject_at_s=1.0,
        ),
        tenancy=TenancyPolicy.build(
            ("atlas", "bell"), weights=(3.0, 1.0), quota_qps=9000.0,
            quota_burst=6,
        ),
    )
    return SolveService(cfg).serve(
        _stream(
            64, seed=11, rate_rps=20000.0, priority_mix=(0.2, 0.5, 0.3),
            tenants=("atlas", "bell"),
        )
    )


def _crash_and_resume(cfg, arrivals, store, crash_at_s):
    with pytest.raises(SchedulerCrash) as exc:
        SolveService(cfg).serve(arrivals(), checkpoint=store, crash_at_s=crash_at_s)
    return SolveService(cfg).resume(arrivals(), checkpoint=exc.value.store)


def crash_resume_plain_store():
    """The golden-daemon stack with a commit per batch, killed at 4 ms
    (mid-burst, a quarantine and parked preemptions in flight)."""
    cfg = _golden_daemon_config(checkpoint_every=1)
    return _crash_and_resume(cfg, _bursty, CampaignCheckpointStore(), 4e-3)


def crash_resume_mirrored_store():
    """Node kill + partition + scheduler crash; the primary checkpoint
    replica lives on the node that dies, so the resume reads the mirror."""
    cfg = _domain_config(
        Topology(n_nodes=3, workers_per_node=3, n_racks=3),
        domain_faults=(
            DomainFaultPlan(seed=23)
            .with_node_kill(1, at_s=2e-3)
            .with_partition(2, at_s=3e-3, mean_heal_s=2e-3)
        ),
        checkpoint_every=2,
    )
    store = MirroredCheckpointStore(primary_domain=1, mirror_domain=2)
    return _crash_and_resume(
        cfg, lambda: _bursty(40, deadline_slack_s=0.5), store, 4e-3
    )


# --------------------------------------------------------------------- #
# Crash and resume on the ledger's ``serve-durable`` stack
# --------------------------------------------------------------------- #

_DURABLE_N = 120
_DURABLE_RPS = 100.0
#: Arrivals span ``n / rps`` model seconds; crash points are fractions of it.
_DURABLE_SPAN_S = _DURABLE_N / _DURABLE_RPS
DURABLE_SEEDS = (2010, 2011)


def _durable_config(**overrides) -> ServiceConfig:
    """``benchmarks/ledger/workloads.py``'s ``serve-durable`` stack."""
    kw = dict(
        queue_capacity=4096,
        policy=BatchPolicy(max_batch=4),
        n_workers=4,
        ranks_per_worker=2,
        preemption=PreemptionPolicy(enabled=True),
        health=HealthPolicy(enabled=True),
        hedge=HedgePolicy(enabled=True),
        brownout=BrownoutPolicy(enabled=True),
        tenancy=TenancyPolicy.build(("atlas", "bell"), weights=(3.0, 1.0)),
    )
    kw.update(overrides)
    return ServiceConfig(**kw)


def _durable_stream(seed):
    return lambda: stream_workload(
        _DURABLE_N, seed=seed, rate_rps=_DURABLE_RPS, dims=DIMS,
        mode="double-half", priority_mix=(0.1, 0.7, 0.2),
        deadline_slack_s=0.15, tenants=("atlas", "bell"),
    )


def _survive(cfg, arrivals, store, *crash_fractions, reload=None):
    """Serve, crashing at each fraction of the arrival span in turn and
    resuming from the store the crash carried (``reload`` swaps it for a
    fresh one first, as a restarted process would)."""
    service = SolveService(cfg)
    run, kw = service.serve, {"checkpoint": store}
    for fraction in crash_fractions:
        with pytest.raises(SchedulerCrash) as exc:
            run(arrivals(), crash_at_s=fraction * _DURABLE_SPAN_S, **kw)
        store = exc.value.store if reload is None else reload()
        run, kw = SolveService(cfg).resume, {"checkpoint": store}
    return run(arrivals(), **kw)


def durable_crash(seed, *fractions):
    return _survive(
        _durable_config(), _durable_stream(seed), CampaignCheckpointStore(),
        *fractions,
    )


def durable_mirror_primary_lost(seed):
    """The node hosting the primary replica dies at 20 %, the scheduler
    at 50 %: the resume reads the mirror."""
    cfg = _durable_config(
        topology=Topology.parse("2x2@2"),
        domain_faults=DomainFaultPlan(seed=seed).with_node_kill(
            1, at_s=0.2 * _DURABLE_SPAN_S
        ),
    )
    store = MirroredCheckpointStore(primary_domain=1, mirror_domain=0)
    result = _survive(cfg, _durable_stream(seed), store, 0.5)
    assert store.mirror_restores == 1
    return result


def durable_file_resume(seed):
    """The resume sees only what reached ``PATH``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(pathlib.Path(tmp) / "campaign.ckpt")
        return _survive(
            _durable_config(), _durable_stream(seed),
            CampaignCheckpointStore(path), 0.5,
            reload=lambda: CampaignCheckpointStore.load(path),
        )


DURABLE = {
    "durable_crash_10pct": lambda seed: durable_crash(seed, 0.1),
    "durable_crash_50pct": lambda seed: durable_crash(seed, 0.5),
    "durable_crash_90pct": lambda seed: durable_crash(seed, 0.9),
    "durable_double_crash": lambda seed: durable_crash(seed, 0.3, 0.6),
    "durable_crash_before_first_commit": lambda seed: durable_crash(seed, 1e-9),
    "durable_mirror_primary_lost": durable_mirror_primary_lost,
    "durable_file_resume": durable_file_resume,
}


def durable_digests(result) -> dict:
    report = result.report
    assert report.completed + report.failed + report.rejected == _DURABLE_N
    return {
        **digests(result),
        "report": hashlib.sha256(report.render_json().encode()).hexdigest(),
    }


# --------------------------------------------------------------------- #
# The failure-handling table: four sources x three budget situations
# --------------------------------------------------------------------- #

_RACKS = Topology.parse("2x1@2")
_CRASH = FaultPlan(seed=3).with_stall(0, after_s=0.0, mode="crash")
#: One request, one batch: 29 ms cold on this lattice.  With the drain
#: hint as the only estimate (``min_samples=0``) the hedge check fires
#: at 3 ms and the replica lands on worker 1; faults strike at 10 ms,
#: with both copies in flight.
_HEDGE = HedgePolicy(enabled=True, min_samples=0)


def _one_request(**overrides):
    kw = dict(
        policy=BatchPolicy(max_batch=1, max_wait_s=0.0),
        n_workers=2,
        fixed_iterations=10,
    )
    kw.update(overrides)
    return SolveService(ServiceConfig(**kw)).run(
        [SolveRequest(req_id=0, dims=DIMS)]
    )


def _rank_crash(situation):
    if situation == "partner":
        # The crash plan sits on worker 1, i.e. under the replica.
        return _one_request(fault_plan=_CRASH, chaos_workers=(1,), hedge=_HEDGE)
    return _one_request(
        fault_plan=_CRASH, chaos_workers=(0,),
        max_retries=1 if situation == "budget" else 0,
    )


def _worker_killed(situation):
    if situation == "partner":
        # The primary's worker dies; the replica carries on.
        return _one_request(
            worker_faults=WorkerFaultPlan().with_kill(0, at_s=10e-3),
            hedge=_HEDGE,
        )
    return _one_request(
        worker_faults=WorkerFaultPlan().with_kill(0, at_s=5e-3),
        max_retries=1 if situation == "budget" else 0,
    )


def _node_lost(situation):
    plan = DomainFaultPlan(seed=5, detect_s=1e-3)
    if situation == "partner":
        # The replica's node dies; its send times out at 11 ms.
        return _one_request(
            topology=_RACKS,
            domain_faults=plan.with_node_kill(1, at_s=10e-3),
            hedge=_HEDGE,
        )
    # A silently dead worker keeps looking idle (and warm), so only the
    # breaker keeps the retry off it.
    return _one_request(
        topology=_RACKS,
        domain_faults=plan.with_node_kill(0, at_s=5e-3),
        health=_BREAKER,
        max_retries=1 if situation == "budget" else 0,
    )


def _partitioned(situation):
    plan = DomainFaultPlan(seed=5)
    if situation == "partner":
        # The primary's rack drops off; the replica carries on.
        return _one_request(
            topology=_RACKS,
            domain_faults=plan.with_partition(0, at_s=10e-3, mean_heal_s=2e-3),
            hedge=_HEDGE,
        )
    return _one_request(
        topology=_RACKS,
        domain_faults=plan.with_partition(0, at_s=5e-3, mean_heal_s=2e-3),
        max_retries=1 if situation == "budget" else 0,
    )


#: source -> (scenario, StructuredFailure.kind, requeue-note fragment)
SOURCES = {
    "rank_crash": (_rank_crash, "worker_crash", "worker 0 failed (rank 0 crashed)"),
    "worker_kill": (_worker_killed, "worker_crash", "worker 0 killed"),
    "node_loss": (_node_lost, "node_lost", "worker 0 unreachable (node 0 lost)"),
    "partition": (_partitioned, "partition", "rack 0 partitioned"),
}
SITUATIONS = ("budget", "exhausted", "partner")

SCENARIOS = {
    "golden_daemon": golden_daemon,
    "worker_kill_retries_0": worker_kill_retries_0,
    "worker_kill_retries_2": worker_kill_retries_2,
    "node_kill_silent": node_kill_silent,
    "rack_partition_heal": rack_partition_heal,
    "tenancy_brownout_shed": tenancy_brownout_shed,
    "crash_resume_plain_store": crash_resume_plain_store,
    "crash_resume_mirrored_store": crash_resume_mirrored_store,
    **{
        f"{source}_{situation}": (lambda fn=fn, s=situation: fn(s))
        for source, (fn, _, _) in SOURCES.items()
        for situation in SITUATIONS
    },
}


DURABLE_SCENARIOS = {
    f"{name}_seed{seed}": (lambda fn=fn, seed=seed: fn(seed))
    for name, fn in DURABLE.items()
    for seed in DURABLE_SEEDS
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_lifecycle_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert digests(SCENARIOS[name]()) == golden[name]


@pytest.mark.parametrize("name", sorted(DURABLE_SCENARIOS))
def test_durable_crash_resume_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert durable_digests(DURABLE_SCENARIOS[name]()) == golden[name]


def test_golden_covers_exactly_the_scenarios():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(
        [*SCENARIOS, *DURABLE_SCENARIOS]
    )


@pytest.mark.parametrize("situation", SITUATIONS)
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_lost_batch_table(source, situation):
    scenario, kind, why = SOURCES[source]
    result = scenario(situation)
    (rec,) = result.records
    events = [event for _, event, _ in rec.trace]
    lost = [b for b in result.batches if b.ok is False]
    assert len(lost) == 1
    # Exactly one completion_order entry per terminal transition: none
    # for a requeue, none for a batch whose partner still serves it.
    assert result.completion_order == [0]

    if situation == "exhausted":
        assert rec.state == FAILED and rec.attempts == 1
        assert rec.failure.kind == kind
        assert rec.failure.attempts == 1
        assert rec.failure.model_time == rec.completed_s == lost[0].completed_s
        assert rec.failure.failed_rank == (0 if source == "rank_crash" else -1)
        assert events.count("fail") == 1 and "requeue" not in events
        return

    assert rec.state == COMPLETED and rec.failure is None
    assert "fail" not in events
    if situation == "budget":
        assert rec.attempts == 2
        (requeue,) = [d for _, event, d in rec.trace if event == "requeue"]
        assert requeue == f"{why}; retry 1/1"
    else:
        # The surviving copy owns the records: the lost batch neither
        # requeues nor fails them, and no dispatch is consumed.
        assert rec.attempts == 1 and "requeue" not in events
        assert len(rec.batch_ids) == 2
        pair = {b.batch_id: b for b in result.batches}
        survivor = pair[(set(rec.batch_ids) - {lost[0].batch_id}).pop()]
        assert survivor.ok is True
        assert {lost[0].hedge_of, survivor.hedge_of} == {None, 0}
        assert lost[0].trace[-1][1:] == (
            "hedge_survivor",
            f"records stay with running batch {survivor.batch_id}",
        )


if __name__ == "__main__":
    recorded = {name: digests(fn()) for name, fn in SCENARIOS.items()}
    recorded.update(
        {name: durable_digests(fn()) for name, fn in DURABLE_SCENARIOS.items()}
    )
    GOLDEN.write_text(json.dumps(dict(sorted(recorded.items())), indent=2) + "\n")
    print(f"recorded {len(recorded)} scenario(s) in {GOLDEN}")
