"""A timing-only solve simulated one rank per symmetry orbit is exact.

The reference is the same solve with ``rank_orbits`` patched to the
identity, so every rank runs its own thread.  Every virtual rank's op
sequence must equal its representative's (op names aside: they carry
virtual peer ids), and everything a caller reads — model time, flops,
peak bytes, per-rank infos, residual history, summed comm counters and
the committed checkpoints — must be identical.  Worlds that must not fold
(a bound fault plan, armed integrity, functional data) simulate every
rank.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comms import ClusterSpec, FaultPlan, IntegrityPolicy, SimMPI
from repro.comms.cluster import NUMA_POLICIES
from repro.comms.qmp import rank_orbits
from repro.core import invert, invert_model_multi, paper_invert_param, quda
from repro.core.solvers import resilience
from repro.lattice import LatticeGeometry, random_spinor, weak_field_gauge

from ._timelines import Recorder, model_fields

#: T = 96 slices into 1, 2, 4, 6, 8, 12 and 16 even slabs; Z = 8 into 2 or 4.
TIME_DIMS = (4, 4, 4, 96)
GRID_DIMS = (4, 4, 8, 8)


def _identity(n_ranks, grid, cluster):
    return tuple(range(n_ranks))


def _nameless(ops):
    return [op[1:] for op in ops]


class Capture:
    """Runs one solve, keeping its recorder, last world and checkpoint store;
    ``fold=False`` patches ``rank_orbits`` to the identity."""

    def __init__(self, solve, *, fold=True):
        worlds, stores = [], []

        class World(SimMPI):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                worlds.append(self)

        class Store(quda.CheckpointStore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

        with pytest.MonkeyPatch.context() as mp, Recorder() as rec:
            mp.setattr(resilience, "SimMPI", World)
            mp.setattr(quda, "CheckpointStore", Store)
            if not fold:
                mp.setattr(resilience, "rank_orbits", _identity)
            self.results = solve()
        self.recorder, self.world, self.store = rec, worlds[-1], stores[-1]


def _model_solve(placement, *, cluster=None, overlap=True, solver="bicgstab",
                 n_sources=1, iterations=2, **kwargs):
    dims = GRID_DIMS if "grid" in placement else TIME_DIMS
    inv = paper_invert_param(
        "single-half", overlap_comms=overlap, fixed_iterations=iterations, solver=solver
    )
    return lambda: invert_model_multi(
        dims, inv, n_sources=n_sources, cluster=cluster, **placement, **kwargs
    )


def _summed(stats):
    return {
        f.name: sum(getattr(s, f.name) for s in stats)
        for f in dataclasses.fields(stats[0])
    }


def _assert_same_result(folded, full):
    assert len(folded.results) == len(full.results)
    for a, b in zip(folded.results, full.results):
        assert repr(a.stats.model_time) == repr(b.stats.model_time)
        assert repr(a.stats.total_flops) == repr(b.stats.total_flops)
        assert a.stats.history == b.stats.history
        assert a.peak_device_bytes == b.peak_device_bytes
        assert [(i.seconds, i.flops) for i in a.per_rank] == [
            (i.seconds, i.flops) for i in b.per_rank
        ]
        assert _summed(a.comm_stats) == _summed(b.comm_stats)


placements = st.one_of(
    st.sampled_from((1, 2, 4, 6, 8, 12, 16)).map(lambda n: {"n_gpus": n}),
    st.sampled_from(((2, 2), (2, 4), (4, 2))).map(lambda g: {"grid": g}),
)


@settings(max_examples=12, deadline=None)
@given(
    placement=placements,
    gpus_per_node=st.sampled_from((1, 2, 3, 4)),
    numa_policy=st.sampled_from(NUMA_POLICIES),
    overlap=st.booleans(),
    solver=st.sampled_from(("bicgstab", "cg")),
    n_sources=st.sampled_from((1, 2)),
)
def test_fold_is_exact(placement, gpus_per_node, numa_policy, overlap, solver, n_sources):
    cluster = ClusterSpec(gpus_per_node=gpus_per_node, numa_policy=numa_policy)
    solve = _model_solve(
        placement, cluster=cluster, overlap=overlap, solver=solver, n_sources=n_sources
    )
    folded, full = Capture(solve), Capture(solve, fold=False)
    n = full.world.size
    orbit = folded.world.orbit
    assert full.world.simulated == tuple(range(n))
    assert folded.world.simulated == tuple(sorted(set(orbit)))

    mine = folded.recorder.timelines(model_fields)
    reference = full.recorder.timelines(model_fields)
    assert sorted(mine) == sorted(f"gpu{r}" for r in folded.world.simulated)
    for r in range(n):
        rep = f"gpu{orbit[r]}"
        assert _nameless(reference[f"gpu{r}"]) == _nameless(mine[rep]), f"rank {r}"
        if orbit[r] == r:
            assert reference[rep] == mine[rep]
    _assert_same_result(folded, full)


@pytest.mark.parametrize(
    "placement, cluster, expected",
    [
        ({"n_gpus": 2}, ClusterSpec(), 1),
        ({"n_gpus": 4}, ClusterSpec(), 2),
        ({"n_gpus": 16}, ClusterSpec(), 2),
        ({"n_gpus": 8}, ClusterSpec(gpus_per_node=4), 4),
        ({"grid": (2, 2)}, ClusterSpec(), 1),
    ],
)
def test_orbit_counts(placement, cluster, expected):
    run = Capture(_model_solve(placement, cluster=cluster))
    assert len(run.world.simulated) == expected
    ranks_z, ranks_t = placement.get("grid", (1, run.world.size))
    grid = {2: ranks_z, 3: ranks_t}
    assert len(set(rank_orbits(run.world.size, grid, cluster))) == expected


def test_checkpoint_commits_from_representatives():
    """A folded store counts the simulated ranks: it commits, and the bytes
    are the every-rank run's."""
    solve = _model_solve({"n_gpus": 8}, iterations=30)
    folded, full = Capture(solve), Capture(solve, fold=False)
    assert len(folded.world.simulated) == 2
    mine, reference = folded.store.latest(0), full.store.latest(0)
    assert mine is not None
    assert mine.to_bytes() == reference.to_bytes()
    _assert_same_result(folded, full)


class TestEveryRankSimulated:
    """Worlds whose ranks are told apart by more than the cluster."""

    def test_bound_fault_plan(self):
        run = Capture(_model_solve({"n_gpus": 4}, fault_plan=FaultPlan(seed=3)))
        assert len(run.world.simulated) == run.world.size == 4

    def test_armed_integrity(self):
        run = Capture(_model_solve({"n_gpus": 4}, integrity=IntegrityPolicy()))
        assert len(run.world.simulated) == run.world.size == 4

    def test_functional_invert(self):
        rng = np.random.default_rng(2010)
        geometry = LatticeGeometry((4, 4, 4, 8))
        gauge = weak_field_gauge(geometry, rng, 0.1)
        source = random_spinor(geometry, rng)
        inv = paper_invert_param("single", mass=0.1)
        run = Capture(lambda: invert(gauge, source, inv, n_gpus=2, verify=False))
        assert len(run.world.simulated) == run.world.size == 2

    def test_world_refuses_to_fold_faults(self):
        with pytest.raises(ValueError, match="every rank simulated"):
            SimMPI(2, fault_plan=FaultPlan(seed=1), orbit=(0, 0))
        with pytest.raises(ValueError, match="every rank simulated"):
            SimMPI(2, integrity=IntegrityPolicy(), orbit=(0, 0))

    def test_world_refuses_a_map_that_is_not_one(self):
        with pytest.raises(ValueError, match="represents itself"):
            SimMPI(3, orbit=(1, 0, 0))
