"""The checkpoint as a log plus a head, held to the whole-snapshot oracle.

A commit appends what became final and overwrites a small head
(``repro.service.campaign``).  Three promises, each against
``_reference_snapshot.reference_snapshot`` — the full-snapshot builder
commits used before:

* at *every* commit of a feature-rich campaign, crashed and resumed,
  ``latest()`` folds back to exactly the reference;
* after any single damage the store can meet — a torn or bit-flipped log
  or head, in memory or on the disk, a lost newest head — ``latest()``
  is exactly some earlier commit's reference or ``None``, never an
  exception and never a mixture, and a campaign resumed from it loses
  no request;
* a terminal record is serialised once per incarnation, not once per
  commit.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms.cluster import Topology
from repro.comms.faults import DomainFaultPlan
from repro.service import (
    CampaignCheckpointStore,
    MirroredCheckpointStore,
    RequestRecord,
    SchedulerCrash,
    SolveService,
)
from repro.service.service import _Campaign

from ._reference_snapshot import reference_snapshot
from .test_lifecycle_golden import (
    _DURABLE_N,
    _DURABLE_SPAN_S,
    _bursty,
    _durable_config,
    _durable_stream,
    _golden_daemon_config,
)


def _replicas(store):
    if isinstance(store, MirroredCheckpointStore):
        return [
            replica
            for replica, domain in (
                (store.primary, store.primary_domain),
                (store.mirror, store.mirror_domain),
            )
            if domain not in store.lost
        ]
    return [store]


@pytest.fixture
def folds_to_reference(monkeypatch):
    """Check every replica against the oracle as each commit lands."""
    checked = []
    real = _Campaign._commit_checkpoint

    def commit(campaign):
        real(campaign)
        want = reference_snapshot(campaign).to_bytes()
        for replica in _replicas(campaign.store):
            assert replica.latest().to_bytes() == want
        checked.append(campaign.checkpoints_committed)

    monkeypatch.setattr(_Campaign, "_commit_checkpoint", commit)
    return checked


def _crash_twice(cfg, arrivals, store, first_s, second_s):
    with pytest.raises(SchedulerCrash):
        SolveService(cfg).serve(arrivals(), checkpoint=store, crash_at_s=first_s)
    with pytest.raises(SchedulerCrash):
        SolveService(cfg).resume(arrivals(), checkpoint=store, crash_at_s=second_s)
    return SolveService(cfg).resume(arrivals(), checkpoint=store)


class TestEveryCommitFoldsToTheReference:
    def test_durable_stack_crashed_twice(self, folds_to_reference):
        result = _crash_twice(
            _durable_config(), _durable_stream(2010), CampaignCheckpointStore(),
            0.3 * _DURABLE_SPAN_S, 0.6 * _DURABLE_SPAN_S,
        )
        assert result.report.checkpoints_committed == folds_to_reference[-1] > 50

    def test_golden_daemon_stack_crashed_twice(self, folds_to_reference):
        """Elastic pool, breaker, hedging, brownout, preemption and a
        chaos worker: every part that checkpoints, with a ledger or not."""
        _crash_twice(
            _golden_daemon_config(checkpoint_every=1), _bursty,
            CampaignCheckpointStore(), 3e-3, 6e-3,
        )
        assert len(folds_to_reference) > 10

    def test_mirrored_store_after_the_primary_died(self, folds_to_reference):
        cfg = _durable_config(
            topology=Topology.parse("2x2@2"),
            domain_faults=DomainFaultPlan(seed=3).with_node_kill(
                1, at_s=0.2 * _DURABLE_SPAN_S
            ),
        )
        store = MirroredCheckpointStore(primary_domain=1, mirror_domain=0)
        _crash_twice(
            cfg, _durable_stream(2011), store,
            0.4 * _DURABLE_SPAN_S, 0.7 * _DURABLE_SPAN_S,
        )
        assert store.lost == {1} and store.mirror_restores == 2


def test_terminal_record_is_serialised_once_per_incarnation(monkeypatch):
    """``RequestRecord.to_json`` runs once for each record a commit logs
    and once for each it carries as pending — not for every terminal
    record at every commit."""
    calls = [0]
    real = RequestRecord.to_json

    def to_json(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(RequestRecord, "to_json", to_json)
    logged, pending = [], []

    class Counting(CampaignCheckpointStore):
        def commit(self, head, delta):
            logged.append(len(delta.terminal))
            pending.append(len(head.pending))
            super().commit(head, delta)

    store = Counting()
    with pytest.raises(SchedulerCrash):
        SolveService(_durable_config()).serve(
            _durable_stream(2010)(), checkpoint=store,
            crash_at_s=0.5 * _DURABLE_SPAN_S,
        )
    crashed_after = len(logged)
    assert calls[0] == sum(logged) + sum(pending)
    assert sum(logged) <= _DURABLE_N

    result = SolveService(_durable_config()).resume(
        _durable_stream(2010)(), checkpoint=store
    )
    assert calls[0] == sum(logged) + sum(pending)
    assert sum(logged[crashed_after:]) <= _DURABLE_N
    # The whole campaign, both incarnations: one call per request plus
    # the pending ones, where the snapshot took O(requests x commits).
    assert calls[0] <= 2 * _DURABLE_N + sum(pending)
    assert result.report.checkpoints_committed == store.committed


def test_file_resumed_crash_counts_every_commit(tmp_path):
    """``load`` restores ``committed`` from the head, so a scheduler
    resumed from the file that crashes again reports the campaign's
    commit count, not the commits since the reload."""
    path = str(tmp_path / "campaign.ckpt")
    cfg, arrivals = _durable_config(), _durable_stream(2010)
    with pytest.raises(SchedulerCrash) as first:
        SolveService(cfg).serve(
            arrivals(), checkpoint=CampaignCheckpointStore(path),
            crash_at_s=0.3 * _DURABLE_SPAN_S,
        )
    loaded = CampaignCheckpointStore.load(path)
    assert loaded.committed == first.value.store.committed > 0
    with pytest.raises(SchedulerCrash) as second:
        SolveService(cfg).resume(
            arrivals(), checkpoint=loaded, crash_at_s=0.6 * _DURABLE_SPAN_S
        )
    campaign_count = loaded.latest().checkpoints_committed
    assert campaign_count > first.value.store.committed
    assert f"with {campaign_count} checkpoint commit(s)" in str(second.value)


# --------------------------------------------------------------------- #
# Damage
# --------------------------------------------------------------------- #


class _History:
    """One crashed-and-resumed campaign on a file-backed store, with the
    store's bytes and the oracle's snapshot after every commit."""

    def __init__(self, tmp: pathlib.Path) -> None:
        self.path = str(tmp / "campaign.ckpt")
        self.cfg = _durable_config()
        self.arrivals = _durable_stream(2011)
        self.states = []  # (log frames, heads, reference bytes)
        real = _Campaign._commit_checkpoint

        def commit(campaign):
            real(campaign)
            store = campaign.store
            assert pathlib.Path(self.path).read_bytes() == store._heads[-1][1]
            assert pathlib.Path(f"{self.path}.log").read_bytes() == b"".join(
                store._log
            )
            self.states.append(
                (
                    list(store._log), list(store._heads),
                    reference_snapshot(campaign).to_bytes(),
                )
            )

        _Campaign._commit_checkpoint = commit
        try:
            store = CampaignCheckpointStore(self.path)
            with pytest.raises(SchedulerCrash):
                SolveService(self.cfg).serve(
                    self.arrivals(), checkpoint=store,
                    crash_at_s=0.5 * _DURABLE_SPAN_S,
                )
            SolveService(self.cfg).resume(self.arrivals(), checkpoint=store)
        finally:
            _Campaign._commit_checkpoint = real

    def in_memory(self, k) -> CampaignCheckpointStore:
        log, heads, _ = self.states[k]
        store = CampaignCheckpointStore()
        store._log, store._heads = list(log), list(heads)
        return store

    def on_disk(self, log: bytes, head: bytes) -> CampaignCheckpointStore:
        pathlib.Path(self.path).write_bytes(head)
        pathlib.Path(f"{self.path}.log").write_bytes(log)
        return CampaignCheckpointStore.load(self.path)

    def check(self, k, store) -> None:
        """``store`` is commit ``k``'s, damaged: it restores an earlier
        commit whole or nothing, and resuming from it loses no request."""
        earlier = [reference for _, _, reference in self.states[: k + 1]]
        got = store.latest()
        assert got is None or got.to_bytes() in earlier
        store.path = None  # the resume below need not touch the disk
        report = SolveService(self.cfg).resume(
            self.arrivals(), checkpoint=store
        ).report
        assert report.n_requests == _DURABLE_N
        assert report.completed + report.failed + report.rejected == _DURABLE_N
        # The resumed run replayed what lay past its restore point: the
        # log it appended to holds every request once.
        final = store.latest()
        assert not final.pending
        assert sorted(r["request"]["req_id"] for r in final.terminal) == list(
            range(_DURABLE_N)
        )


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    return _History(tmp_path_factory.mktemp("damage"))


def _damaged(blob: bytes, cut, flip) -> bytes:
    """``blob`` truncated at ``cut`` (a fraction of its length) or with
    one bit flipped at ``flip`` (a fraction of its bits)."""
    if cut is not None:
        return blob[: int(cut * len(blob))]
    bit = min(int(flip * len(blob) * 8), len(blob) * 8 - 1)
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


_fraction = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
_damage = st.one_of(
    st.tuples(_fraction, st.none()), st.tuples(st.none(), _fraction)
)


class TestDamage:
    @settings(max_examples=40, deadline=None)
    @given(at=_fraction, target=st.sampled_from(["log", "head"]), damage=_damage)
    def test_damaged_files_restore_an_earlier_commit_or_nothing(
        self, history, at, target, damage
    ):
        k = int(at * len(history.states))
        log, heads, _ = history.states[k]
        log, head = b"".join(log), heads[-1][1]
        if target == "log":
            log = _damaged(log, *damage)
        else:
            head = _damaged(head, *damage)
        history.check(k, history.on_disk(log, head))

    @settings(max_examples=40, deadline=None)
    @given(at=_fraction, where=_fraction, target=st.sampled_from(["log", "head"]),
           damage=_damage)
    def test_damaged_memory_restores_an_earlier_commit_or_nothing(
        self, history, at, where, target, damage
    ):
        k = int(at * len(history.states))
        store = history.in_memory(k)
        if target == "log":
            i = int(where * len(store._log))
            store._log[i] = _damaged(store._log[i], *damage)
        else:
            i = int(where * len(store._heads))
            number, blob = store._heads[i]
            store._heads[i] = (number, _damaged(blob, *damage))
        history.check(k, store)

    @settings(max_examples=20, deadline=None)
    @given(at=_fraction)
    def test_losing_the_newest_head_restores_the_commit_before(self, history, at):
        k = int(at * len(history.states))
        store = history.in_memory(k)
        store._heads.pop()
        fallback = store.latest()
        if len(history.states[k][1]) == 2:
            assert fallback.to_bytes() == history.states[k - 1][2]
        else:
            assert fallback is None
        history.check(k, store)

    def test_undamaged_history_restores_every_commit(self, history):
        for k, (log, heads, reference) in enumerate(history.states):
            assert history.in_memory(k).latest().to_bytes() == reference
            on_disk = history.on_disk(b"".join(log), heads[-1][1])
            assert on_disk.latest().to_bytes() == reference
            assert on_disk.committed == heads[-1][0]
