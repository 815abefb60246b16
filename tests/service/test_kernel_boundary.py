"""The scheduler kernel names no feature.

``_Campaign`` is the kernel: the heap, the clock, the queue, dispatch,
the pool view and the no-lost-requests invariant.  Every optional
feature is a part that registers its own event kinds, ``_EV_DONE`` run
types and hooks (``repro.service.service._features``).  These checks
keep it that way: an AST walk of the class finds no feature part
attribute and no event kind but the kernel's three, the class stays
within its line budget, and a campaign with every feature off registers
nothing beyond the kernel's own.  The report is held to the same rule:
``ServiceReport`` declares only the kernel's numbers, and every part's
block reaches its JSON.
"""

import ast
import dataclasses
import gc
import inspect
import weakref

import repro.service.metrics as metrics_module
import repro.service.service as service_module
from repro.comms.cluster import Topology
from repro.comms.faults import DomainFaultPlan, WorkerFaultPlan
from repro.service import (
    BatchPolicy,
    BrownoutPolicy,
    ElasticPolicy,
    HealthPolicy,
    HedgePolicy,
    PreemptionPolicy,
    ServiceConfig,
    ServiceReport,
    SolveService,
    TenancyPolicy,
    stream_workload,
)
from repro.service.service import _Campaign

#: The attributes the feature parts lived under before they registered
#: themselves.
FEATURE_ATTRIBUTES = {
    "board", "hedge", "brownout", "tenants", "domains", "domain_board", "controller",
}
KERNEL_KINDS = {"_EV_DONE", "_EV_ARRIVAL", "_EV_TIMEOUT"}
MAX_LINES = 750

#: The report's own fields: the kernel's numbers and the parts' block.
REPORT_FIELDS = {
    "n_requests", "admitted", "rejected", "completed", "failed", "retries",
    "recoveries", "worker_crashes", "n_batches", "mean_batch_size",
    "batch_occupancy", "wait_p50_s", "wait_p95_s", "wait_p99_s",
    "latency_p50_s", "latency_p99_s", "makespan_s", "throughput_rps",
    "goodput_rps", "slo_attainment", "worker_utilization", "placement",
    "priority_latency", "throughput_windows", "window_s", "final_workers",
    "checkpoints_committed", "checkpoint_restores", "restored_requests",
    "daemon",
}

HOOK_LISTS = (
    "gates", "on_admit", "on_dispatch", "on_launch", "on_complete",
    "after_batch", "on_kill", "on_strike", "on_start", "holders",
)


def _kernel() -> ast.ClassDef:
    tree = ast.parse(inspect.getsource(service_module))
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "_Campaign"
    ]
    return cls


def _every_feature(**overrides) -> dict:
    config = dict(
        n_workers=4,
        topology=Topology.parse("2x2@2"),
        preemption=PreemptionPolicy(enabled=True),
        elastic=ElasticPolicy(enabled=True, min_workers=1, max_workers=6),
        health=HealthPolicy(enabled=True),
        hedge=HedgePolicy(enabled=True),
        brownout=BrownoutPolicy(enabled=True),
        tenancy=TenancyPolicy.build(("a", "b")),
        worker_faults=WorkerFaultPlan().with_kill(1, at_s=1e-3),
        domain_faults=DomainFaultPlan().with_node_kill(1, at_s=1e-3),
    )
    config.update(overrides)
    return config


def _campaign(**config) -> _Campaign:
    service = SolveService(ServiceConfig(**config))
    return _Campaign(service, iter(()), store=None, crash_at_s=None)


def test_kernel_reads_no_feature_part_attribute():
    used = {
        node.attr for node in ast.walk(_kernel()) if isinstance(node, ast.Attribute)
    }
    assert not used & FEATURE_ATTRIBUTES


def test_kernel_handles_only_its_own_event_kinds():
    kinds = {
        node.id for node in ast.walk(_kernel())
        if isinstance(node, ast.Name) and node.id.startswith("_EV_")
    }
    assert kinds == KERNEL_KINDS
    # Nor by a bare number in a table.
    assert not [
        key for node in ast.walk(_kernel()) if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, int)
    ]


def test_kernel_stays_within_its_line_budget():
    cls = _kernel()
    assert cls.end_lineno - cls.lineno + 1 <= MAX_LINES


def _every_feature_report() -> ServiceReport:
    config = ServiceConfig(**_every_feature(policy=BatchPolicy(max_batch=4)))
    return SolveService(config).serve(
        stream_workload(
            24, seed=7, rate_rps=4000.0, dims=(4, 4, 4, 8), tenants=("a", "b")
        )
    ).report


def test_report_names_no_feature():
    """The report declares the kernel's numbers and one ``daemon``
    block; outside ``render`` no method of it spells a key a part
    reports."""
    assert {f.name for f in dataclasses.fields(ServiceReport)} == REPORT_FIELDS
    feature_keys = set(_every_feature_report().daemon)
    tree = ast.parse(inspect.getsource(metrics_module))
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ServiceReport"
    ]
    named = {
        (method.name, node.value)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name != "render"
        for node in ast.walk(method)
        if isinstance(node, ast.Constant) and node.value in feature_keys
    }
    assert not named


def test_report_drops_no_part_key():
    """Every key of the merged daemon block reaches ``to_json()`` as the
    part reported it."""
    report = _every_feature_report()
    assert {"brownout", "domains", "tenants", "hedges_launched"} <= set(report.daemon)
    out = report.to_json()
    for key, value in report.daemon.items():
        assert out[key] == value, key


def test_features_off_register_nothing():
    campaign = _campaign()
    assert list(campaign.parts) == ["drain", "arrival_rate", "tunecache", "counters"]
    assert len(campaign.off) == len(service_module._features(campaign.cfg))
    assert set(campaign.handlers) == {0, 3, 4}
    assert list(campaign.done_handlers) == [tuple]
    for name in HOOK_LISTS:
        assert getattr(campaign, name) == [], name
    assert campaign.select == campaign._select_fresh
    assert campaign.make_worker == campaign.service._make_worker
    assert campaign.resume is None
    assert campaign.send_timeout(0) is None


def test_each_feature_registers_its_own_kinds():
    """Every feature on: the thirteen kinds keep their numbers, so the
    same-time processing order is the one the kinds always had."""
    campaign = _campaign(**_every_feature())
    assert sorted(campaign.handlers) == list(range(13))
    assert list(campaign.parts) == [
        "drain", "arrival_rate", "tunecache", "counters", "tenancy",
        "brownout", "elastic", "hedge", "health", "domains",
    ]
    # Registration order is hook order (DESIGN.md, "Daemon lifecycle").
    parts = campaign.parts
    assert [g.__self__ for g in campaign.gates] == [parts["tenancy"], parts["brownout"]]
    assert [h.__self__ for h in campaign.after_batch] == [
        parts["brownout"], parts["elastic"],
    ]
    assert campaign.holders == [parts["health"], parts["domains"]]


def test_a_finished_run_is_freed_without_the_cycle_collector(monkeypatch):
    """The parts hold the campaign and it holds them; a run that left
    them so would linger as cyclic garbage, records and traces with it,
    and slow every later campaign until the collector walked it."""
    runs = []
    run = _Campaign.run

    def tracked(campaign):
        runs.append(weakref.ref(campaign))
        return run(campaign)

    monkeypatch.setattr(_Campaign, "run", tracked)
    config = ServiceConfig(**_every_feature(policy=BatchPolicy(max_batch=4)))
    gc.disable()
    try:
        SolveService(config).serve(
            stream_workload(
                24, seed=7, rate_rps=4000.0, dims=(4, 4, 4, 8), tenants=("a", "b")
            )
        )
        assert runs and runs[0]() is None
    finally:
        gc.enable()
