"""Tests for the failure-domain layer (PR 8).

Covers the topology hierarchy (worker → node → rack), the correlated
fault plan (silent node kill, HCA degrade, switch partition) against the
per-worker breaker, time-to-isolate, cross-domain checkpoint mirroring,
and the byte-identity guarantee: without a topology, a pre-PR daemon
campaign's report is byte-identical to the committed golden fixture.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms.cluster import Topology
from repro.comms.faults import (
    DomainFaultPlan,
    FaultPlan,
    StragglerSpec,
    WorkerFaultPlan,
)
from repro.service import (
    BatchPolicy,
    BrownoutPolicy,
    ElasticPolicy,
    HealthPolicy,
    HedgePolicy,
    MirroredCheckpointStore,
    PreemptionPolicy,
    SchedulerCrash,
    ServiceConfig,
    SolveService,
    bursty_workload,
    spread_domain,
)

DIMS = (4, 4, 4, 8)
DATA = pathlib.Path(__file__).parent / "data"


def _workload(n=48, seed=23, **kwargs):
    kwargs.setdefault("dims", DIMS)
    kwargs.setdefault("mode", "double-half")
    kwargs.setdefault("base_rps", 1500.0)
    kwargs.setdefault("burst_rps", 12000.0)
    kwargs.setdefault("burst_start_s", 1e-3)
    kwargs.setdefault("burst_len_s", 3e-3)
    kwargs.setdefault("priority_mix", (0.25, 0.5, 0.25))
    kwargs.setdefault("deadline_slack_s", 0.5)
    return bursty_workload(n, seed=seed, **kwargs)


def _domain_config(topology, **overrides):
    kw = dict(
        queue_capacity=256,
        policy=BatchPolicy(max_batch=4),
        n_workers=topology.n_workers,
        ranks_per_worker=2,
        fixed_iterations=10,
        max_retries=4,
        seed=23,
        topology=topology,
        health=HealthPolicy(
            enabled=True,
            min_samples=1,
            trip_rate=0.5,
            cooldown_s=1e-3,
            slow_ratio=1e3,
        ),
        hedge=HedgePolicy(enabled=True),
    )
    kw.update(overrides)
    return ServiceConfig(**kw)


class TestTopology:
    def test_layout_maps_workers_to_nodes_and_racks(self):
        topo = Topology(n_nodes=4, workers_per_node=2, n_racks=2)
        assert topo.n_workers == 8
        assert [topo.node_of_worker(w) for w in range(8)] == [
            0, 0, 1, 1, 2, 2, 3, 3,
        ]
        assert topo.workers_on_node(2) == (4, 5)
        assert topo.rack_of_node(0) == 0
        assert topo.rack_of_node(3) == 1
        assert topo.nodes_in_rack(1) == (2, 3)

    def test_elastic_workers_wrap_around_nodes(self):
        topo = Topology(n_nodes=3, workers_per_node=2)
        # Boot pool is workers 0..5; scale-ups wrap.
        assert topo.node_of_worker(6) == 0
        assert topo.node_of_worker(7) == 0
        assert topo.node_of_worker(8) == 1

    def test_parse_round_trips(self):
        topo = Topology.parse("4x2@2")
        assert (topo.n_nodes, topo.workers_per_node, topo.n_racks) == (4, 2, 2)
        assert str(topo) == "4x2@2"
        assert Topology.parse(str(topo)) == topo
        assert Topology.parse("3x3").n_racks == 1

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            Topology.parse("4")
        with pytest.raises(ValueError):
            Topology.parse("0x2")
        with pytest.raises(ValueError):
            Topology(n_nodes=2, workers_per_node=1, n_racks=3)
        # Racks tile ceil(n_nodes / n_racks) nodes each: four nodes in
        # three racks fill racks 0 and 1 and leave rack 2 empty.
        with pytest.raises(ValueError, match="rack 2 of 3 empty"):
            Topology.parse("4x2@3")
        with pytest.raises(ValueError, match="rack 3 of 4 empty"):
            Topology(n_nodes=5, workers_per_node=1, n_racks=4)
        # ``@`` promises a rack count.
        with pytest.raises(ValueError, match="NODESxWORKERS"):
            Topology.parse("3x2@")
        # Every topology in use keeps a node in every rack.
        for spec in ("2x1@2", "2x2@2", "3x2@3", "3x3@3", "4x2@2", "2x2", "3x3"):
            topo = Topology.parse(spec)
            assert all(topo.nodes_in_rack(r) for r in range(topo.n_racks)), spec


class TestDomainFaultPlan:
    def test_builders_accumulate_events(self):
        plan = (
            DomainFaultPlan(seed=5)
            .with_node_kill(1, at_s=2e-3)
            .with_hca_degrade(0, at_s=1e-3, factor=2.5)
            .with_partition(2, at_s=3e-3, mean_heal_s=2e-3)
        )
        assert plan.node_kills[0].node == 1
        assert plan.hca_degrades[0].factor == 2.5
        assert plan.partitions[0].rack == 2

    def test_heal_time_is_seeded_and_after_partition(self):
        plan = DomainFaultPlan(seed=5).with_partition(
            0, at_s=3e-3, mean_heal_s=2e-3
        )
        spec = plan.partitions[0]
        heal = plan.heal_time(spec)
        assert heal > spec.at_s
        assert heal == plan.heal_time(spec)  # deterministic
        other = DomainFaultPlan(seed=6).with_partition(
            0, at_s=3e-3, mean_heal_s=2e-3
        )
        assert heal != other.heal_time(other.partitions[0])

    def test_detect_s_must_be_positive(self):
        with pytest.raises(ValueError):
            DomainFaultPlan(detect_s=0.0)


class TestReseededStragglers:
    """Satellite: elastic workers derive their straggler factor from the
    (domain, seed) pair, not the unstable pool index."""

    def test_factor_pins_to_exactly_one_node(self):
        plan = WorkerFaultPlan(
            stragglers=(StragglerSpec(worker_id=9, factor=3.0),)
        )
        factors = [
            plan.reseeded(node, 23, boot_workers=6, n_nodes=3)
            for node in range(3)
        ]
        assert sorted(factors) == [1.0, 1.0, 3.0]

    def test_deterministic_across_calls_and_ids(self):
        plan = WorkerFaultPlan(
            stragglers=(StragglerSpec(worker_id=9, factor=3.0),)
        )
        first = [
            plan.reseeded(n, 23, boot_workers=6, n_nodes=3) for n in range(3)
        ]
        again = [
            plan.reseeded(n, 23, boot_workers=6, n_nodes=3) for n in range(3)
        ]
        assert first == again

    def test_boot_pool_specs_keep_index_addressing(self):
        plan = WorkerFaultPlan().with_straggler(2, factor=3.0)
        # Spec aims inside the boot pool: reseeded ignores it entirely.
        assert all(
            plan.reseeded(n, 23, boot_workers=6, n_nodes=3) == 1.0
            for n in range(3)
        )
        assert plan.straggler_factor(2) == 3.0


class TestDomainState:
    def test_restore_round_trip_and_node_lookup(self):
        from repro.service.health import DomainState

        topo = Topology.parse("3x2@3")
        state = DomainState(topo, boot_workers=6)
        state.worker_node[7] = 2  # an elastic scale-up pinned off-arithmetic
        state.dead_nodes.add(1)
        state.partitioned.add(2)
        state.healed_racks.add(0)
        state.nodes_killed = state.partitions_seen = 1
        state.hca_factor[0] = 2.5
        for wid, t in ((2, 1e-3), (3, 2e-3)):
            state.isolation_s[wid] = t
        clone = DomainState(topo, boot_workers=6)
        clone.restore(json.loads(json.dumps(state.to_json())))
        assert clone.to_json() == state.to_json()
        assert clone.hca_factor == {}  # re-applied by the refired event
        assert clone.node_of(7) == 2 and clone.node_of(5) == 2
        assert clone.members(2, pool_size=8) == [4, 5, 7]
        assert not clone.reachable(2) and clone.reachable(0)
        # Node 1's boot workers (2, 3) are both isolated; the last at 2 ms.
        assert clone.isolation_ms() == {"1": 2.0}


class TestSpreadDomain:
    def test_prefers_least_loaded_healthy_domain(self):
        assert spread_domain({0: 3, 1: 1, 2: 2}, [0, 1, 2]) == 1

    def test_ties_break_deterministically_low(self):
        assert spread_domain({0: 1, 1: 1}, [1, 0]) == 0

    def test_unhealthy_domains_excluded(self):
        assert spread_domain({0: 0, 1: 5}, [1]) == 1


class TestDomainCampaigns:
    TOPO = Topology(n_nodes=3, workers_per_node=3, n_racks=3)

    def _faults(self, seed=23, kill_node=1, kill_at_s=2e-3):
        return (
            DomainFaultPlan(seed=seed)
            .with_node_kill(kill_node, at_s=kill_at_s)
            .with_partition(2, at_s=3e-3, mean_heal_s=2e-3)
        )

    def test_node_kill_and_partition_campaign_terminates_everything(self):
        cfg = _domain_config(self.TOPO, domain_faults=self._faults())
        res = SolveService(cfg).serve(_workload(48))
        rep = res.report.to_json()
        assert rep["admitted"] == rep["completed"] + rep["failed"]
        assert rep["failed"] == 0
        dom = rep["domains"]
        assert dom["nodes_killed"] == 1
        assert dom["partitions"] == 1
        assert dom["partition_heals"] == 1
        assert "1" in dom["isolation_ms"]
        assert dom["topology"] == "3x3@3"

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=8, deadline=None)
    def test_no_batch_dispatched_to_quarantined_domain(self, seed):
        """Property: the dispatch-time invariant — a batch handed to a
        worker that may not take traffic (quarantined, or its rack
        partitioned) raises ServiceInvariantError inside serve(); any
        seed completing cleanly proves the property held at every
        dispatch."""
        cfg = _domain_config(
            self.TOPO,
            seed=seed,
            domain_faults=self._faults(seed=seed, kill_node=seed % 3),
        )
        res = SolveService(cfg).serve(_workload(24, seed=seed))
        rep = res.report.to_json()
        assert rep["admitted"] == rep["completed"] + rep["failed"]

    def test_mirror_resume_after_checkpoint_node_dies(self):
        """ISSUE acceptance: the node hosting the primary checkpoint
        replica dies, the scheduler crashes, and the campaign resumes
        from the cross-domain mirror with no request lost."""
        kill_node = 1
        store = MirroredCheckpointStore(
            primary_domain=kill_node,
            mirror_domain=2,
        )
        cfg = _domain_config(
            self.TOPO,
            domain_faults=self._faults(kill_node=kill_node),
            checkpoint_every=2,
        )
        with pytest.raises(SchedulerCrash) as exc:
            SolveService(cfg).serve(
                _workload(40), checkpoint=store, crash_at_s=4e-3
            )
        crashed_store = exc.value.store
        assert crashed_store.mirror_restores == 0
        res = SolveService(cfg).resume(_workload(40), checkpoint=crashed_store)
        rep = res.report.to_json()
        assert crashed_store.mirror_restores == 1
        assert rep["checkpoint_restores"] == 1
        assert rep["failed"] == 0
        assert rep["admitted"] == rep["completed"]
        assert rep["domains"]["mirror_restores"] == 1

    def test_domain_state_survives_checkpoint_resume(self):
        """A crash *after* the node kill resumes with the dead node
        still dead and the healed partition counted once — refired
        fault events replay idempotently across scheduler restarts."""
        store = MirroredCheckpointStore(primary_domain=0, mirror_domain=2)
        cfg = _domain_config(
            self.TOPO,
            domain_faults=self._faults(),
            checkpoint_every=2,
        )
        with pytest.raises(SchedulerCrash) as exc:
            SolveService(cfg).serve(
                _workload(40), checkpoint=store, crash_at_s=4e-3
            )
        res = SolveService(cfg).resume(_workload(40), checkpoint=exc.value.store)
        rep = res.report.to_json()
        assert rep["failed"] == 0
        dom = rep["domains"]
        assert dom["nodes_killed"] == 1  # not re-counted on refire
        assert dom["partition_heals"] == 1

    def test_disabled_domain_features_require_topology(self):
        with pytest.raises(ValueError):
            ServiceConfig(
                policy=BatchPolicy(),
                n_workers=2,
                domain_faults=DomainFaultPlan(),
            )

    # A fault aimed outside the cluster used to be accepted and counted
    # (a node kill reported ``nodes_killed: 1``; a partition reported
    # a partition and a heal) on a pool it never touched.
    _ONE_RACK = Topology.parse("2x2")

    def test_node_kill_outside_the_topology_is_rejected(self):
        with pytest.raises(ValueError, match="node 7, but the topology has 2"):
            ServiceConfig(
                n_workers=4,
                topology=self._ONE_RACK,
                domain_faults=DomainFaultPlan().with_node_kill(7, at_s=0),
            )

    def test_hca_degrade_outside_the_topology_is_rejected(self):
        with pytest.raises(ValueError, match="node 2, but the topology has 2"):
            ServiceConfig(
                n_workers=4,
                topology=self._ONE_RACK,
                domain_faults=DomainFaultPlan().with_hca_degrade(
                    2, at_s=0, factor=2.0
                ),
            )

    def test_partition_outside_the_topology_is_rejected(self):
        with pytest.raises(ValueError, match="rack 5, but the topology has 1"):
            ServiceConfig(
                n_workers=4,
                topology=self._ONE_RACK,
                domain_faults=DomainFaultPlan().with_partition(5, at_s=1e-3),
            )


class TestByteIdentity:
    """Without a topology, an existing daemon campaign's schedule — and
    therefore its report — is byte-identical to the committed pre-PR
    fixture."""

    def test_pre_pr_daemon_report_is_byte_identical(self):
        cfg = ServiceConfig(
            queue_capacity=256,
            policy=BatchPolicy(max_batch=8),
            n_workers=3,
            ranks_per_worker=2,
            fixed_iterations=10,
            max_retries=3,
            seed=23,
            fault_plan=FaultPlan(seed=3).with_stall(
                0, after_s=0.0, mode="crash"
            ),
            chaos_workers=(0,),
            worker_faults=WorkerFaultPlan().with_straggler(2, factor=3.0),
            health=HealthPolicy(
                enabled=True,
                min_samples=1,
                trip_rate=0.5,
                cooldown_s=1e-3,
                slow_ratio=1e3,
            ),
            hedge=HedgePolicy(enabled=True),
            brownout=BrownoutPolicy(enabled=True),
            elastic=ElasticPolicy(enabled=True, min_workers=2, max_workers=5),
            preemption=PreemptionPolicy(enabled=True),
            checkpoint_every=4,
        )
        reqs = bursty_workload(
            48,
            seed=23,
            base_rps=1500.0,
            burst_rps=12000.0,
            burst_start_s=1e-3,
            burst_len_s=3e-3,
            dims=DIMS,
            mode="double-half",
            priority_mix=(0.25, 0.5, 0.25),
            deadline_slack_s=12e-3,
        )
        res = SolveService(cfg).serve(iter(reqs))
        got = json.dumps(res.report.to_json(), indent=2, sort_keys=True) + "\n"
        want = (DATA / "golden_daemon_report.json").read_text()
        assert got == want
