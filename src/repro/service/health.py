"""Failure-domain resilience: worker health, hedging, graceful brownout.

"Scaling Lattice QCD beyond 100 GPUs" (arXiv:1109.2935) is the scale the
roadmap points at, and at that scale workers are not interchangeable and
permanently healthy: nodes flap, links degrade, one slow GPU drags a
whole allocation.  PR-2/3 resilience lives *inside* a solve and PR-6
self-healing protects the *scheduler*; this module protects the service
from its own pool and from sustained overload.  Three mechanisms, all
deterministic functions of the schedule:

* **Circuit breaker** — a :class:`WorkerHealth` tracker per worker (EWMA
  failure rate, crash/timeout counters, completion-latency vs the
  drain-model estimate) feeds a breaker that *quarantines* flaky
  workers: drain (the worker finishes its running batch — failures are
  observed at completion, so the drain is free), cooldown, then one
  seeded probe batch; a clean probe reinstates the worker with a reset
  ledger, a failed probe re-quarantines until ``MAX_STRIKES`` retires it
  for good.  Quarantine evicts the worker's warm gauge residency — a
  sick device's warmth must not keep attracting traffic through the
  routing tables.
* **Straggler hedging** — when a running batch's elapsed time exceeds a
  model-relative threshold (:class:`HedgePolicy`), a replica launches on
  an idle healthy worker.  First completion wins; the loser is cancelled
  at its next refresh-point boundary (the same boundaries preemption
  yields at — the earliest instant the worker can abandon the solve with
  a consistent device state).
* **Graceful brownout** — a :class:`BrownoutController` steps through
  explicit load levels (NORMAL → SHED_LOW → DEGRADE_PRECISION → REJECT)
  driven by backlog/drain-estimate pressure: shed LOW requests with an
  honest retry-after, then serve batches at a cheaper precision tier
  ("served degraded", recorded per request), and only at the top level
  refuse NORMAL traffic — HIGH is admitted until capacity itself is
  gone.  Levels are checkpointed with the campaign: a resumed scheduler
  facing the same backlog must not restart at NORMAL and re-discover the
  overload one shed decision at a time.

The faults they are exercised against live here too (:class:`WorkerKills`,
:class:`DomainState`).  A class with ``install(campaign)`` is a campaign
part: it registers its event kinds, ``_EV_DONE`` run types and hooks
with the scheduler kernel (DESIGN.md, "Daemon lifecycle").
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

from ..comms.cluster import Topology
from .batching import BOUNDARY_SLACK_S, Batch, next_boundary
from .elastic import spread_domain
from .request import PRIORITY_HIGH, PRIORITY_LOW, flag_field

__all__ = [
    "HEALTHY",
    "QUARANTINED",
    "PROBING",
    "RETIRED_SICK",
    "HealthPolicy",
    "WorkerHealth",
    "HealthBoard",
    "DomainState",
    "WorkerKills",
    "HedgePolicy",
    "HedgeLedger",
    "BROWNOUT_NORMAL",
    "BROWNOUT_SHED_LOW",
    "BROWNOUT_DEGRADE",
    "BROWNOUT_REJECT",
    "BROWNOUT_NAMES",
    "DEGRADE_MODE",
    "BrownoutPolicy",
    "BrownoutController",
]

# Event kinds of this module's parts, in same-time processing order after
# the kernel's (DONE 0, ARRIVAL 3, TIMEOUT 4), preemption's (1) and the
# autoscaler's (2): hedge checks, hedge-loser worker frees, worker kills,
# worker probes, then the correlated domain faults.
_EV_HEDGE = 5
_EV_HEDGE_CANCEL = 6
_EV_KILL = 7
_EV_PROBE = 8
_EV_NODE_KILL = 9
_EV_HCA_DEGRADE = 10
_EV_PARTITION = 11
_EV_HEAL = 12

# Circuit-breaker states.  HEALTHY serves traffic; QUARANTINED is drained
# and cooling down; PROBING runs exactly one seeded probe batch; a worker
# that fails ``MAX_STRIKES`` probes is RETIRED_SICK — permanently out.
HEALTHY = "healthy"
QUARANTINED = "quarantined"
PROBING = "probing"
RETIRED_SICK = "retired_sick"

#: Quarantine entries before the breaker retires its worker.
MAX_STRIKES = 2
#: EWMA smoothing of the per-worker failure indicator (1 = failed or
#: pathologically slow batch, 0 = clean completion).
HEALTH_ALPHA = 0.5
#: Refresh-point boundaries of a hedge's *loser* batch: the cancellation
#: lands at the next one (the earliest consistent abandon point).
HEDGE_REFRESH_POINTS = 4
#: A brownout level releases only once pressure falls below this
#: fraction of its threshold — no flapping at the boundary.
BROWNOUT_HYSTERESIS = 0.5

# Brownout load levels, in escalation order.  Each level implies the
# measures of every level below it.
BROWNOUT_NORMAL = 0
BROWNOUT_SHED_LOW = 1
BROWNOUT_DEGRADE = 2
BROWNOUT_REJECT = 3

BROWNOUT_NAMES = {
    BROWNOUT_NORMAL: "normal",
    BROWNOUT_SHED_LOW: "shed_low",
    BROWNOUT_DEGRADE: "degrade_precision",
    BROWNOUT_REJECT: "reject",
}

#: One-step precision downgrade under DEGRADE_PRECISION (Section VII-A
#: mode vocabulary): outer precision is the answer's quality contract,
#: so degradation pushes the *inner* solver toward half — the cheapest
#: tier that still converges in the paper's mixed-precision scheme.
#: ``single-half`` is the floor (absent key = already cheapest).
DEGRADE_MODE = {
    "double": "double-half",
    "double-half": "single-half",
    "single": "single-half",
}


def _others_serve(campaign, part, worker_id: int) -> bool:
    """Would every hold but ``part``'s let the worker take traffic?"""
    return all(h.is_serving(worker_id) for h in campaign.holders if h is not part)


@dataclass(frozen=True)
class HealthPolicy:
    """When a worker's ledger trips the circuit breaker."""

    enabled: bool = flag_field(False, "--health", "per-worker health tracking + circuit breaker: "
                               "flaky workers are quarantined, probed after a cooldown, and "
                               "reinstated or retired")
    #: Failure-rate estimate at or above which the breaker opens.
    trip_rate: float = 0.5
    #: Observations required before the breaker may open (a single
    #: planned chaos crash must not quarantine a healthy worker).
    min_samples: int = 2
    #: A completion slower than ``slow_ratio`` times the drain-model
    #: estimate counts as a (soft) failure sample — the straggler signal.
    slow_ratio: float = 3.0
    cooldown_s: float = flag_field(
        2e-3, "--cooldown-us", "quarantine cooldown before the probe batch", scale=1e-6)

    def __post_init__(self) -> None:
        if not 0.0 < self.trip_rate <= 1.0:
            raise ValueError("trip_rate must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.slow_ratio <= 1.0:
            raise ValueError("slow_ratio must be > 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")


@dataclass
class WorkerHealth:
    """One worker's health ledger (mutable, checkpointable)."""

    worker_id: int
    state: str = HEALTHY
    #: EWMA of the failure indicator (``None`` before any observation).
    ewma_failure: float | None = None
    samples: int = 0
    completions: int = 0
    crashes: int = 0
    timeouts: int = 0
    slow_batches: int = 0
    #: Quarantine entries so far (the breaker's strike count).
    strikes: int = 0
    #: Model time the current cooldown ends (meaningful in QUARANTINED).
    cooldown_until_s: float = 0.0

    @property
    def failure_rate(self) -> float:
        return self.ewma_failure if self.ewma_failure is not None else 0.0

    def _fold(self, indicator: float, alpha: float) -> None:
        self.samples += 1
        if self.ewma_failure is None:
            self.ewma_failure = indicator
        else:
            self.ewma_failure = (
                alpha * indicator + (1 - alpha) * self.ewma_failure
            )

    def to_json(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "state": self.state,
            "ewma_failure": self.ewma_failure,
            "samples": self.samples,
            "completions": self.completions,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "slow_batches": self.slow_batches,
            "strikes": self.strikes,
            "cooldown_until_s": self.cooldown_until_s,
        }

    @classmethod
    def from_json(cls, data: dict) -> "WorkerHealth":
        return cls(**data)


@dataclass
class _Probe:
    """The breaker's seeded probe batch in flight.

    Rides ``_EV_DONE`` like any batch completion (discriminated by
    type), but its request never enters the campaign's records — a
    probe is the breaker's instrument, not admitted traffic.
    """

    worker_id: int
    execution: object


class HealthBoard:
    """The per-worker circuit breaker: all workers' ledgers plus the
    campaign-wide counters.

    One call per batch outcome, :meth:`observe`, folds it and says
    whether the breaker trips.  The lifecycle — quarantine → cooldown →
    one seeded probe → reinstate, or retire at ``MAX_STRIKES`` —
    actuates through the campaign kernel the board is installed in, so
    every effect stays a totally-ordered event.  Installed, the board
    holds workers out of ``serving`` (one of the kernel's ``holders``),
    observes every completion and answers worker kills.
    """

    def __init__(self, policy: HealthPolicy) -> None:
        self.policy = policy
        self.ledgers: dict[int, WorkerHealth] = {}
        self.quarantines = 0
        self.reinstated = 0
        self.retired = 0

    def tracker(self, worker_id: int) -> WorkerHealth:
        wh = self.ledgers.get(worker_id)
        if wh is None:
            wh = self.ledgers[worker_id] = WorkerHealth(worker_id)
        return wh

    def quarantine(self, worker_id: int, now: float) -> WorkerHealth:
        wh = self.tracker(worker_id)
        wh.state = QUARANTINED
        wh.cooldown_until_s = now + self.policy.cooldown_s
        wh.strikes += 1
        self.quarantines += 1
        return wh

    def start_probe(self, worker_id: int) -> None:
        self.tracker(worker_id).state = PROBING

    def reinstate(self, worker_id: int) -> None:
        """A clean probe closes the breaker with a *reset* ledger — the
        quarantined failures must not linger and re-trip the breaker on
        the next (innocent) blip."""
        wh = self.tracker(worker_id)
        wh.state = HEALTHY
        wh.ewma_failure = None
        wh.samples = 0
        self.reinstated += 1

    def retire_sick(self, worker_id: int) -> None:
        self.tracker(worker_id).state = RETIRED_SICK
        self.retired += 1

    def state(self, worker_id: int) -> str:
        wh = self.ledgers.get(worker_id)
        return wh.state if wh is not None else HEALTHY

    def is_serving(self, worker_id: int) -> bool:
        """Whether the worker may take regular traffic (quarantined and
        probing ones hold their slot but serve nothing)."""
        return self.state(worker_id) == HEALTHY

    def observe(
        self,
        worker_id: int,
        failure: str | None = None,
        duration_s: float = 0.0,
        predicted_s: float = 0.0,
    ) -> tuple[bool, bool]:
        """Fold one batch outcome of a serving worker — a failure of
        kind ``failure``, else a clean completion that counts as a
        failure sample when slower than ``slow_ratio`` x the model —
        and return ``(trip, slow)``.  A worker the breaker holds (or
        retired) is not observed: ``(False, False)``."""
        wh = self.ledgers.get(worker_id)
        if wh is None:
            wh = self.ledgers[worker_id] = WorkerHealth(worker_id)
        elif wh.state != HEALTHY:
            return False, False
        slow = False
        if failure is not None:
            self._fold_failure(wh, failure)
        else:
            wh.completions += 1
            slow = (
                predicted_s > 0
                and duration_s > self.policy.slow_ratio * predicted_s
            )
            if slow:
                wh.slow_batches += 1
            wh._fold(1.0 if slow else 0.0, HEALTH_ALPHA)
        trip = (
            wh.samples >= self.policy.min_samples
            and wh.failure_rate >= self.policy.trip_rate
        )
        return trip, slow

    def observe_failure(self, worker_id: int, kind: str) -> None:
        """Fold a failure whatever the worker's state (a kill, a failed
        probe; ``kind``: crash | timeout | kill | probe)."""
        self._fold_failure(self.tracker(worker_id), kind)

    def _fold_failure(self, wh: WorkerHealth, kind: str) -> None:
        if kind == "timeout":
            wh.timeouts += 1
        else:
            wh.crashes += 1
        wh._fold(1.0, HEALTH_ALPHA)

    def n_quarantined(self) -> int:
        """Workers currently held out by the breaker (quarantined or
        probing) — capacity the autoscaler must not also retire."""
        return sum(
            1 for wh in self.ledgers.values()
            if wh.state in (QUARANTINED, PROBING)
        )

    # ------------------------------------------------------------------ #
    # Campaign-checkpoint round trip (resume keeps quarantines) and report
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        return {
            "quarantines": self.quarantines,
            "reinstated": self.reinstated,
            "retired_sick": self.retired,
            "workers": [self.ledgers[w].to_json() for w in sorted(self.ledgers)],
        }

    def restore(self, data: dict) -> None:
        self.quarantines = int(data["quarantines"])
        self.reinstated = int(data["reinstated"])
        self.retired = int(data["retired_sick"])
        self.ledgers = {
            int(wh["worker_id"]): WorkerHealth.from_json(wh)
            for wh in data["workers"]
        }

    def summary(self, cols, horizon_s) -> dict:
        out = self.to_json()
        del out["workers"]
        return out

    @staticmethod
    def off_summary() -> dict:
        """No breaker: nothing quarantined."""
        return {"quarantines": 0, "reinstated": 0, "retired_sick": 0}

    # ------------------------------------------------------------------ #
    # The lifecycle, against the campaign kernel
    # ------------------------------------------------------------------ #

    def install(self, campaign) -> None:
        self.campaign = campaign
        campaign.handlers[_EV_PROBE] = self._start_probe
        campaign.done_handlers[_Probe] = self._probe_done
        campaign.on_start.append(self._rearm)
        campaign.holders.append(self)
        campaign.on_complete.append(self._observe_batch)
        campaign.on_kill.append(self._killed)

    def _rearm(self) -> None:
        """Quarantines survive a scheduler crash (a known-flaky worker
        must not restart HEALTHY), but their probe events died with it.
        A worker caught mid-probe re-enters QUARANTINED — its probe
        batch is gone, so it earns a fresh one."""
        k = self.campaign
        for wid, wh in self.ledgers.items():
            if wh.state == PROBING:
                wh.state = QUARANTINED
            if wh.state == QUARANTINED:
                k._push(max(wh.cooldown_until_s, k.now), _EV_PROBE, wid)

    def _observe_batch(self, batch: Batch, execution, predicted: float) -> None:
        """A batch left its worker: ``execution`` is its outcome, or
        ``None`` for a send that timed out into a dead node."""
        k = self.campaign
        wid = batch.worker_id
        if k.workers[wid].retired:
            return
        if execution is not None and execution.ok:
            trip, slow = self.observe(
                wid, duration_s=execution.duration_s, predicted_s=predicted
            )
        else:
            failure = getattr(execution, "failure", None)
            trip, slow = self.observe(
                wid, failure.mode if failure is not None else "crash"
            )
        if slow:
            batch.note(
                k.now,
                "slow",
                f"{execution.duration_s * 1e6:.1f}us vs model "
                f"{predicted * 1e6:.1f}us",
            )
        if trip:
            wh = self._open(wid)
            rate = (
                "" if execution is None
                else f" (failure rate {wh.failure_rate:.2f})"
            )
            batch.note(k.now, "quarantine", f"worker {wid} quarantined{rate}")

    def _open(self, worker_id: int) -> WorkerHealth:
        """Open the breaker on a serving worker: hold it out of the idle
        set, evict its warm residency (a sick device's warmth must not
        keep attracting traffic), schedule the probe."""
        k = self.campaign
        wh = self.quarantine(worker_id, k.now)
        k._reassess((worker_id,))
        worker = k.workers[worker_id]
        if not worker.retired:
            k._hold(worker_id)
            worker.evict_residency()
        self._cool(worker_id, wh)
        return wh

    def _cool(self, worker_id: int, wh: WorkerHealth) -> None:
        k = self.campaign
        k._push(wh.cooldown_until_s, _EV_PROBE, worker_id)
        k._strike(worker_id)  # the domains part times isolation by it

    def _start_probe(self, worker_id: int) -> None:
        """The cooldown expired: one probe on the worker, unless it has
        died in the meantime."""
        k = self.campaign
        if self.state(worker_id) != QUARANTINED or k.workers[worker_id].retired:
            return
        if not _others_serve(k, self, worker_id):
            # A partitioned rack cannot be probed: retry once it heals.
            k._push(k.now + max(self.policy.cooldown_s, 1e-6), _EV_PROBE, worker_id)
        elif k.template is None:
            # Nothing dispatched yet to probe with; close the breaker
            # optimistically — the worker re-trips on the next fault.
            self.reinstate(worker_id)
            k._reidle((worker_id,))
        else:
            self.start_probe(worker_id)
            self._run_probe(k.workers[worker_id])

    def _run_probe(self, worker) -> None:
        """One seeded probe batch on ``worker`` — representative work
        (the head request of the most recent fresh dispatch) at LOW
        priority, outside the campaign's records.  A send that cannot
        arrive fails after the kernel's send timeout."""
        k = self.campaign
        wid = worker.worker_id
        probe = replace(
            k.template,
            req_id=-(wid + 1),
            priority=PRIORITY_LOW,
            arrival_s=k.now,
            deadline_s=None,
        )
        execution = worker.execute(
            [probe], grid=None, tune_cache=k.placement.tune_cache
        )
        duration = execution.duration_s
        timeout = k.send_timeout(wid)
        if timeout is not None:
            execution, duration = replace(execution, ok=False), timeout
        worker.busy_s += duration
        k._deliver(k.now + duration, _Probe(wid, execution))

    def _probe_done(self, run: _Probe) -> None:
        """The probe's verdict: clean reinstates the worker; a failure
        re-quarantines it, and ``MAX_STRIKES`` retires it for good."""
        k = self.campaign
        wid = run.worker_id
        worker = k.workers[wid]
        if worker.retired:
            return
        if run.execution.ok:
            self.reinstate(wid)
            k._reidle((wid,))
            return
        self.observe_failure(wid, "probe")
        if self.tracker(wid).strikes >= MAX_STRIKES:
            # Probing, so the worker is already out of ``serving``.
            self.retire_sick(wid)
            worker.retire()
            k._hold(wid)
            k.rescale()  # the pool may want a replacement
        else:
            self._cool(wid, self.quarantine(wid, k.now))

    def _killed(self, worker_id: int) -> None:
        self.observe_failure(worker_id, "kill")
        self.retire_sick(worker_id)


@dataclass
class _DeadRun:
    """A batch condemned by a *silent* node loss, awaiting detection.

    The scheduler dispatched to a dead node without knowing it: the
    send can only fail by timeout, so the failure surfaces ``detect_s``
    after dispatch — not at the instant of death.  Rides ``_EV_DONE``
    discriminated by type, like a probe.
    """

    batch: Batch


class DomainState:
    """Campaign-side failure-domain state.

    Where each worker lives, and which fault effects have already been
    applied — dead nodes, partitioned and healed racks, the domain
    counters.  All of it is checkpointed (except ``hca_factor``), so
    the fault events a resumed scheduler refires replay idempotently:
    a restored dead node is not killed, or counted, twice.

    Installed, it holds workers on unreachable nodes out of service,
    places scale-ups, records time-to-isolate on every strike, and —
    with a
    :class:`~repro.comms.faults.DomainFaultPlan` — owns the node-kill,
    HCA-degrade, partition and heal events.
    """

    def __init__(self, topology: Topology, boot_workers: int) -> None:
        self.topology = topology
        self.boot_workers = boot_workers
        #: Explicit node assignments for elastic scale-ups; boot workers
        #: map through the topology's arithmetic.
        self.worker_node: dict[int, int] = {}
        self.dead_nodes: set[int] = set()
        #: Deliberately NOT checkpointed — rebuilt workers carry base
        #: straggler factors, and the refired HCA event re-applies the
        #: slowdown exactly once.
        self.hca_factor: dict[int, float] = {}
        self.partitioned: set[int] = set()
        self.healed_racks: set[int] = set()
        self.nodes_killed = 0
        self.partitions_seen = 0
        self.partition_heals = 0
        #: First model time each worker was quarantined or killed — the
        #: time-to-isolate witness.
        self.isolation_s: dict[int, float] = {}

    def node_of(self, worker_id: int) -> int:
        """The failure domain a worker lives on."""
        node = self.worker_node.get(worker_id)
        if node is not None:
            return node
        return self.topology.node_of_worker(worker_id)

    def members(self, node: int, pool_size: int) -> list[int]:
        """Every worker (any lifecycle state) of a ``pool_size`` pool
        that lives on ``node``."""
        return [w for w in range(pool_size) if self.node_of(w) == node]

    def _pool_on(self, nodes) -> list[int]:
        """Every pool worker (any lifecycle state) on any of ``nodes``."""
        pool_size = len(self.campaign.workers)
        return [w for node in nodes for w in self.members(node, pool_size)]

    def reachable(self, node: int) -> bool:
        """Whether the node's rack is on the scheduler's side of every
        switch partition."""
        return self.topology.rack_of_node(node) not in self.partitioned

    def isolation_ms(self) -> dict:
        """Per-node time-to-isolate: the instant the *last* boot worker
        on the node was held out of service.  Only nodes whose every
        boot worker has been isolated appear — a partial hold is not
        isolation."""
        out: dict[str, float] = {}
        for node in range(self.topology.n_nodes):
            members = [
                w
                for w in self.topology.workers_on_node(node)
                if w < self.boot_workers
            ]
            if members and all(w in self.isolation_s for w in members):
                out[str(node)] = round(
                    max(self.isolation_s[w] for w in members) * 1e3, 6
                )
        return out

    # ------------------------------------------------------------------ #
    # The campaign hooks
    # ------------------------------------------------------------------ #

    def install(self, campaign) -> None:
        self.campaign = campaign
        campaign.holders.append(self)
        campaign.on_strike.append(self._isolate)
        campaign.make_worker = self._make_worker
        self.faults = campaign.cfg.domain_faults
        if self.faults is not None:
            campaign.handlers.update(
                {
                    _EV_NODE_KILL: self._kill_node,
                    _EV_HCA_DEGRADE: self._hca_degrade,
                    _EV_PARTITION: self._partition,
                    _EV_HEAL: self._heal,
                }
            )
            campaign.done_handlers[_DeadRun] = self._dead_done
            campaign.send_timeout = self._send_timeout
            campaign.on_launch.append(self._sent)
            campaign.on_start.append(self._schedule)

    def is_serving(self, worker_id: int) -> bool:
        """May this worker take traffic, as far as domain state knows?"""
        return self.reachable(self.node_of(worker_id))

    def n_quarantined(self) -> int:
        """Not-retired workers a partition alone parks — the autoscaler
        must not read them as shrinkable idle capacity."""
        k = self.campaign
        return sum(
            1
            for w in k.workers
            if not w.retired
            and not self.is_serving(w.worker_id)
            and _others_serve(k, self, w.worker_id)
        )

    def _isolate(self, worker_id: int) -> None:
        self.isolation_s.setdefault(worker_id, self.campaign.now)

    def _make_worker(self, worker_id: int):
        """A worker past the boot pool lands on its recorded node (a
        restore rebuilding it) or, anti-packing an elastic surge, on the
        least-loaded healthy node — lowest id on ties — and inherits the
        node's HCA slowdown like every co-resident worker."""
        k = self.campaign
        node = self.worker_node.get(worker_id)
        if node is None:
            nodes = list(range(self.topology.n_nodes))
            healthy = [
                n for n in nodes if n not in self.dead_nodes and self.reachable(n)
            ]
            loads: dict[int, int] = {}
            for w in k.workers:
                if not w.retired:
                    n = self.node_of(w.worker_id)
                    loads[n] = loads.get(n, 0) + 1
            # With every domain unhealthy the pool still must not
            # starve: fall back to spreading across all nodes.
            node = self.worker_node[worker_id] = spread_domain(
                loads, healthy or nodes
            )
        worker = k.service._make_worker(worker_id, node=node)
        factor = self.hca_factor.get(node)
        if factor is not None:
            worker.straggler_factor *= factor
        return worker

    # ------------------------------------------------------------------ #
    # Correlated domain faults: silent node loss, HCA rot, partitions
    # ------------------------------------------------------------------ #

    def _schedule(self) -> None:
        k, df = self.campaign, self.faults
        for nk in df.node_kills:
            k._push(max(nk.at_s, k.now), _EV_NODE_KILL, nk.node)
        for hd in df.hca_degrades:
            k._push(max(hd.at_s, k.now), _EV_HCA_DEGRADE, hd)
        for sp in df.partitions:
            k._push(max(sp.at_s, k.now), _EV_PARTITION, sp)
            # The heal is seeded at schedule time (an absolute model
            # time), so a resumed run heals at the same instant.
            k._push(max(df.heal_time(sp), k.now), _EV_HEAL, sp.rack)

    def _send_timeout(self, worker_id: int) -> float | None:
        """A send to a silently dead node can only time out."""
        dead = self.node_of(worker_id) in self.dead_nodes
        return self.faults.detect_s if dead else None

    def _sent(self, batch: Batch) -> None:
        if self._send_timeout(batch.worker_id) is not None:
            self._condemn(batch.batch_id)

    def _kill_node(self, node: int) -> None:
        """A node dies *silently*: no retire, no idle eviction — the
        scheduler keeps dispatching to its workers and only learns of
        the death through timed-out sends.  The per-worker breaker must
        infer the rest, one worker at a time.

        Idempotent on the restored ``dead_nodes`` set so the refired
        event replays safely after a scheduler resume."""
        if node in self.dead_nodes:
            return
        k = self.campaign
        self.dead_nodes.add(node)
        self.nodes_killed += 1
        lose_domain = getattr(k.store, "lose_domain", None)
        if lose_domain is not None:
            # The checkpoint replica hosted on this node goes with it.
            lose_domain(node)
        for bid in k._running_on(self._pool_on((node,))):
            self._condemn(bid)

    def _condemn(self, batch_id: int) -> None:
        """A batch is in flight to (or running on) a dead node: its
        completion will never arrive.  Replace it with a timeout firing
        ``detect_s`` from now — the earliest instant the scheduler can
        notice anything is wrong.  Occupancy past the detection point is
        never spent; occupancy before it models the scheduler believing
        the worker is busy."""
        k = self.campaign
        fail_at = k.now + self.faults.detect_s
        entry = k._teardown(batch_id, fail_at)
        if entry is not None:
            k._deliver(fail_at, _DeadRun(entry[0]))

    def _dead_done(self, run: _DeadRun) -> None:
        """The send timeout fired: surface the condemned batch's failure
        exactly like a worker crash — requeue within budget, terminal
        fail past it — but *without* retiring the worker.  The slot
        rejoins the idle set and keeps attracting traffic until the
        breaker catches on: that detection lag is what time-to-isolate
        measures."""
        k = self.campaign
        batch = run.batch
        wid = batch.worker_id
        node = self.node_of(wid)
        batch.note(
            k.now,
            "node_dead",
            f"send to worker {wid} timed out after "
            f"{self.faults.detect_s * 1e6:.1f}us",
        )
        k._surrender(
            batch,
            kind="node_lost",
            detail=f"node {node} unreachable",
            why=f"worker {wid} unreachable (node {node} lost)",
        )
        k._release(wid)
        k._finished(batch, None)

    def _hca_degrade(self, spec) -> None:
        """A node's HCA rots: every co-resident worker slows by the
        spec's factor (in-flight batches keep their schedule; only
        future executions pay).  Re-applies exactly once after resume
        because rebuilt workers carry base factors."""
        if spec.node in self.hca_factor:
            return
        k = self.campaign
        self.hca_factor[spec.node] = spec.factor
        for wid in self._pool_on((spec.node,)):
            worker = k.workers[wid]
            if not worker.retired:
                worker.straggler_factor *= spec.factor

    def _partition(self, spec) -> None:
        """A switch partitions a whole rack — loud, unlike a node kill:
        the scheduler sees the link drop, parks every rack worker, and
        requeues their in-flight work immediately.  The rack is not
        retired; the seeded heal returns it."""
        rack = spec.rack
        if rack in self.partitioned or rack in self.healed_racks:
            return
        k = self.campaign
        self.partitioned.add(rack)
        self.partitions_seen += 1
        member_ids = self._pool_on(self.topology.nodes_in_rack(rack))
        k._reassess(member_ids)
        for wid in member_ids:
            k._hold(wid)
        detail = f"rack {rack} partitioned"
        for bid in k._running_on(member_ids):
            batch = k._teardown(bid, k.now)[0]
            batch.note(k.now, "partitioned", "switch uplink lost mid-batch")
            k._surrender(batch, kind="partition", detail=detail)
        k._rebalance()

    def _heal(self, rack: int) -> None:
        if rack not in self.partitioned:
            return
        k = self.campaign
        self.partitioned.discard(rack)
        self.healed_racks.add(rack)
        self.partition_heals += 1
        k._reidle(self._pool_on(self.topology.nodes_in_rack(rack)))
        k.rescale()

    # ------------------------------------------------------------------ #
    # Campaign-checkpoint round trip and report
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        return {
            "worker_nodes": {
                str(w): n for w, n in sorted(self.worker_node.items())
            },
            "dead_nodes": sorted(self.dead_nodes),
            "partitioned": sorted(self.partitioned),
            "healed_racks": sorted(self.healed_racks),
            "nodes_killed": self.nodes_killed,
            "partitions_seen": self.partitions_seen,
            "partition_heals": self.partition_heals,
            "isolation_s": {
                str(w): t for w, t in sorted(self.isolation_s.items())
            },
        }

    def restore(self, data: dict) -> None:
        self.worker_node = {
            int(w): int(n) for w, n in data["worker_nodes"].items()
        }
        self.dead_nodes = {int(n) for n in data["dead_nodes"]}
        self.partitioned = {int(r) for r in data["partitioned"]}
        self.healed_racks = {int(r) for r in data["healed_racks"]}
        self.nodes_killed = int(data["nodes_killed"])
        self.partitions_seen = int(data["partitions_seen"])
        self.partition_heals = int(data["partition_heals"])
        self.isolation_s = {
            int(w): float(t) for w, t in data["isolation_s"].items()
        }

    def summary(self, cols, horizon_s) -> dict:
        """The fault rows of the report's ``domains`` scorecard, and one
        row the store counts for it: its restores from the mirror."""
        return {
            "domains": {
                "topology": str(self.topology),
                "nodes_killed": self.nodes_killed,
                "partitions": self.partitions_seen,
                "partition_heals": self.partition_heals,
                "isolation_ms": self.isolation_ms(),
                "mirror_restores": getattr(self.campaign.store, "mirror_restores", 0),
            }
        }


class WorkerKills:
    """Scheduled whole-worker deaths (``WorkerFaultPlan.kills``): the
    ``KILL`` event kind.  A killed worker is retired, its in-flight
    batches fail and hand their requests back to the queue — the
    no-lost-requests invariant does not care whose fault the loss was.
    Its count lives in the kernel's ``counters`` part."""

    def __init__(self, kills) -> None:
        self.kills = kills

    def install(self, campaign) -> None:
        self.campaign = campaign
        campaign.handlers[_EV_KILL] = self._kill
        campaign.on_start.append(self._schedule)

    def _schedule(self) -> None:
        k = self.campaign
        for kill in self.kills:
            k._push(max(kill.at_s, k.now), _EV_KILL, kill.worker_id)

    def _kill(self, worker_id: int) -> None:
        k = self.campaign
        # An elastic id the pool never grew to has nothing to kill.
        if worker_id >= len(k.workers) or k.workers[worker_id].retired:
            return
        k.workers[worker_id].retire()
        k._reassess((worker_id,))
        k.counters.workers_killed += 1
        k._hold(worker_id)
        for hook in k.on_kill:
            hook(worker_id)
        k._strike(worker_id)
        detail = f"worker {worker_id} killed"
        for bid in k._running_on({worker_id}):
            batch = k._teardown(bid, k.now)[0]
            batch.note(k.now, "killed", "worker died mid-batch")
            k._surrender(batch, kind="worker_crash", detail=detail)
        k.rescale()


@dataclass(frozen=True)
class HedgePolicy:
    """When a running batch earns a speculative replica."""

    enabled: bool = flag_field(False, "--hedge", "straggler hedging: a batch running past the "
                               "model-relative threshold earns a replica on an idle worker; "
                               "first completion wins")
    trigger_factor: float = flag_field(1.5, "--hedge-factor", "hedge when elapsed exceeds this "
                                       "multiple of the dispatch-time drain estimate")
    #: Measured batches required before the estimate is trustworthy
    #: enough to hedge against (the configured hint is not a model).
    min_samples: int = 1

    def __post_init__(self) -> None:
        if self.trigger_factor <= 1.0:
            raise ValueError("trigger_factor must be > 1")
        if self.min_samples < 0:
            raise ValueError("min_samples must be >= 0")


class HedgeLedger:
    """One campaign's hedging: the ``HEDGE`` check armed at every
    primary launch, the replica it may earn, and the ``HEDGE_CANCEL``
    that frees the loser's worker — with the accounting beside the
    policy (replicas launched, replicas that beat their original,
    losers cancelled at a refresh boundary).  Checkpointed, so a
    resumed campaign reports the whole campaign's hedges."""

    def __init__(self, policy: HedgePolicy) -> None:
        self.policy = policy
        self.launched = 0
        self.won = 0
        self.cancelled = 0

    def install(self, campaign) -> None:
        self.campaign = campaign
        campaign.handlers[_EV_HEDGE] = self._maybe_hedge
        # The loser's worker rejoins the idle set at its abandon
        # boundary (unless retired or quarantined in the meantime).
        campaign.handlers[_EV_HEDGE_CANCEL] = campaign._release
        campaign.on_launch.append(self._arm)
        campaign.on_complete.append(self._resolve)

    def _arm(self, batch: Batch) -> None:
        """Schedule the straggler check: if a primary is still running
        when elapsed time crosses ``trigger_factor`` x the dispatch-time
        drain estimate, it earns a speculative replica.  (Registered
        before a dead node's condemn, which drops the prediction.)"""
        k = self.campaign
        if batch.hedge_of is None and k.drain.samples >= self.policy.min_samples:
            k._push(
                k.now + self.policy.trigger_factor * k.predicted[batch.batch_id],
                _EV_HEDGE,
                batch,
            )

    def _maybe_hedge(self, batch: Batch) -> None:
        """The hedge threshold passed with the batch still running:
        launch a replica on an idle healthy worker.  First completion
        wins; the loser abandons at its next refresh boundary."""
        k = self.campaign
        entry = k.running.get(batch.batch_id)
        if entry is None or batch.preempt_at_s is not None:
            return
        if batch.partner_id is not None or not k.idle:
            return  # already hedged, or no healthy idle worker
        _, _, start, end = entry
        if end - k.now <= BOUNDARY_SLACK_S:
            return  # completing at this very instant anyway
        wid = k.idle[0]
        replica = k._form(
            batch.records,
            wid,
            batch.grid,
            hedge_of=batch.batch_id,
            degraded_mode=batch.degraded_mode,
        )
        batch.hedge_batch_id = replica.batch_id
        self.launched += 1
        batch.note(
            k.now,
            "hedge",
            f"straggling ({(k.now - start) * 1e6:.1f}us elapsed); "
            f"replica batch {replica.batch_id} on worker {wid}",
        )
        replica.note(k.now, "hedge_replica", f"of batch {batch.batch_id}")
        for rec in batch.records:
            rec.batch_ids.append(replica.batch_id)
            rec.note(
                k.now,
                "hedge",
                f"replica batch {replica.batch_id} launched on worker {wid}",
            )
        k._launch(replica, k._run_batch(replica))

    def _resolve(self, batch: Batch, execution, predicted: float) -> None:
        """A hedged copy completed first: cancel the surviving copy at
        its next refresh-point boundary (the earliest instant the worker
        can abandon the solve with consistent device state), crediting
        back the occupancy it will not spend."""
        if execution is None or not execution.ok or batch.partner_id is None:
            return
        k = self.campaign
        entry = k.running.get(batch.partner_id)
        if entry is None:
            return
        loser, _, lstart, lend = entry
        free_at = min(
            next_boundary(k.now, lstart, lend, HEDGE_REFRESH_POINTS), lend
        )
        k._teardown(loser.batch_id, free_at)
        loser.hedge_cancelled = True
        loser.detail = f"hedge: batch {batch.batch_id} finished first"
        loser.note(
            k.now,
            "hedge_cancel",
            f"batch {batch.batch_id} won; abandoning at "
            f"{free_at * 1e6:.1f}us",
        )
        self.cancelled += 1
        if batch.hedge_of is not None:
            self.won += 1
        k._push(free_at, _EV_HEDGE_CANCEL, loser.worker_id)

    def to_json(self) -> dict:
        return {
            "launched": self.launched,
            "won": self.won,
            "cancelled": self.cancelled,
        }

    def restore(self, data: dict) -> None:
        self.launched = int(data["launched"])
        self.won = int(data["won"])
        self.cancelled = int(data["cancelled"])

    def summary(self, cols, horizon_s) -> dict:
        return {
            "hedges_launched": self.launched,
            "hedges_won": self.won,
            "hedges_cancelled": self.cancelled,
        }

    @staticmethod
    def off_summary() -> dict:
        """No hedging: no replica launched."""
        return {"hedges_launched": 0, "hedges_won": 0, "hedges_cancelled": 0}


@dataclass(frozen=True)
class BrownoutPolicy:
    """Pressure thresholds for the explicit overload levels.

    Pressure is the estimated time to drain the current backlog across
    the serving pool (batches in the queue x the EWMA batch estimate /
    serving workers) — the same quantity behind retry-after hints, so
    the levels speak the service's own units.
    """

    enabled: bool = flag_field(False, "--brownout", "graceful brownout under overload: shed LOW "
                               "with retry-after, degrade batch precision, reject NORMAL — HIGH "
                               "is served until capacity itself is gone")
    #: Pressure at which LOW requests are shed with a retry-after.
    shed_low_at_s: float = 4e-3
    #: Pressure at which batches dispatch at a degraded precision tier.
    degrade_at_s: float = 8e-3
    #: Pressure at which NORMAL (and LOW) admissions are refused; HIGH
    #: is still admitted until queue capacity itself runs out.
    reject_at_s: float = 16e-3

    def __post_init__(self) -> None:
        if not 0 < self.shed_low_at_s <= self.degrade_at_s <= self.reject_at_s:
            raise ValueError(
                "thresholds must satisfy 0 < shed_low <= degrade <= reject"
            )

    def threshold(self, level: int) -> float:
        return {
            BROWNOUT_SHED_LOW: self.shed_low_at_s,
            BROWNOUT_DEGRADE: self.degrade_at_s,
            BROWNOUT_REJECT: self.reject_at_s,
        }[level]


class BrownoutController:
    """The load-level state machine.

    Escalation is immediate (overload is now); release is hysteretic and
    one level at a time (a recovering service must not oscillate between
    shedding and serving at the boundary pressure).  Installed, it
    re-reads the pressure at every admission (shedding at the gate) and
    every batch boundary, and degrades batches at dispatch.
    """

    #: ``transitions`` only grows, so a campaign checkpoint logs its new
    #: rows instead of rewriting the list: :meth:`to_json` leaves it
    #: out, :meth:`restore` gets it back whole under the same key.
    LEDGER = "transitions"

    def __init__(self, policy: BrownoutPolicy) -> None:
        self.policy = policy
        self.level = BROWNOUT_NORMAL
        #: ``(time_s, level, pressure_s)`` — every level change.
        self.transitions: list[tuple[float, int, float]] = []
        self.shed = 0
        self.brownout_rejected = 0

    @property
    def max_level(self) -> int:
        return max(
            (level for _, level, _ in self.transitions), default=self.level
        )

    def _supported(self, pressure_s: float) -> int:
        """Highest level the pressure calls for outright."""
        for level in (BROWNOUT_REJECT, BROWNOUT_DEGRADE, BROWNOUT_SHED_LOW):
            if pressure_s >= self.policy.threshold(level):
                return level
        return BROWNOUT_NORMAL

    def update(self, now: float, pressure_s: float) -> int:
        """Fold one pressure reading; returns the (possibly new) level."""
        target = self._supported(pressure_s)
        new = self.level
        if target > self.level:
            new = target
        elif self.level > BROWNOUT_NORMAL and pressure_s < (
            self.policy.threshold(self.level) * BROWNOUT_HYSTERESIS
        ):
            new = self.level - 1
        if new != self.level:
            self.level = new
            self.transitions.append((now, new, pressure_s))
        return self.level

    # ------------------------------------------------------------------ #
    # The campaign hooks
    # ------------------------------------------------------------------ #

    def install(self, campaign) -> None:
        self.campaign = campaign
        # Weight-proportional shedding asks the tenancy part; without
        # one, no tenant is known.
        self.tenants = campaign.parts.get("tenancy", ())
        campaign.gates.append(self._gate)
        campaign.on_dispatch.append(self._degrade)
        campaign.after_batch.append(self._reread)

    def _reread(self) -> int:
        """Fold the current backlog pressure (estimated drain time
        across the serving pool); returns the active level."""
        k = self.campaign
        backlog = len(k.queue)
        pressure = 0.0  # what the drain estimate gives an empty queue
        if backlog:
            pressure = k.drain.backlog_drain_s(
                backlog,
                max_batch=k.cfg.policy.max_batch,
                n_workers=max(k._serving_workers(), 1),
            )
        return self.update(k.now, pressure)

    def _gate(self, rec) -> bool:
        """HIGH is admitted at every level (capacity itself, i.e. the
        queue bound, is its only limit); LOW sheds first, NORMAL only
        at the top level."""
        level = self._reread()
        req = rec.request
        if level < BROWNOUT_SHED_LOW or req.priority == PRIORITY_HIGH:
            return False
        if level < BROWNOUT_REJECT and req.priority != PRIORITY_LOW:
            return False
        shed = True
        if req.tenant in self.tenants:
            if level < BROWNOUT_REJECT:
                # The heaviest tenant keeps every LOW request, lighter
                # tenants shed in proportion to their weight deficit —
                # instead of the tenant-blind shed-all.
                shed = self.tenants.shed_low(req.tenant)
            else:
                self.tenants.note_shed(req.tenant)
        if not shed:
            return False
        rec.shed = True
        if req.priority == PRIORITY_LOW:
            self.shed += 1
        else:
            self.brownout_rejected += 1
        self.campaign._refuse(rec, "shed", f"brownout level {level}")
        return True

    def _degrade(self, batch: Batch) -> None:
        """One step down the precision ladder before failing anyone:
        the whole batch shares a mode (it is in the compat key)."""
        if self.level < BROWNOUT_DEGRADE:
            return
        mode = batch.degraded_mode = DEGRADE_MODE.get(batch.records[0].request.mode)
        if mode is not None:
            now = self.campaign.now
            # One mode in, one mode out (the mode is in the compat key):
            # every record of the batch shares one detail string.
            detail = sys.intern(
                f"brownout: serving at {mode} instead of {batch.records[0].request.mode}"
            )
            for rec in batch.records:
                rec.degraded = True
                rec.note(now, "degrade", detail)

    def summary(self, cols, horizon_s) -> dict:
        """The report's brownout rows: LOW requests shed, others refused
        at REJECT and completions served degraded, recounted from the
        records, then the controller's own ``brownout`` block."""
        shed = cols.rejected & cols.shed
        low = cols.priority == PRIORITY_LOW
        return {
            "shed_low": cols.count(shed & low),
            "brownout_rejected": cols.count(shed & ~low),
            "degraded_served": cols.count(cols.completed & cols.degraded),
            "brownout": {
                "final_level": BROWNOUT_NAMES[self.level],
                "max_level": BROWNOUT_NAMES[self.max_level],
                "shed": self.shed,
                "brownout_rejected": self.brownout_rejected,
                "transitions": [
                    {
                        "time_us": round(t * 1e6, 3),
                        "level": BROWNOUT_NAMES[level],
                        "pressure_us": round(p * 1e6, 3),
                    }
                    for t, level, p in self.transitions
                ],
            },
        }

    @staticmethod
    def off_summary() -> dict:
        """No brownout: nothing shed or degraded, and an empty block."""
        return {
            "shed_low": 0,
            "brownout_rejected": 0,
            "degraded_served": 0,
            "brownout": {},
        }

    # ------------------------------------------------------------------ #
    # Campaign-checkpoint round trip: the level is *state*, not something
    # recomputable at restore — a resumed scheduler facing the restored
    # backlog must keep shedding, not rediscover the overload from
    # NORMAL one admission at a time.
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "shed": self.shed,
            "brownout_rejected": self.brownout_rejected,
        }

    def restore(self, data: dict) -> None:
        self.level = int(data["level"])
        self.shed = int(data["shed"])
        self.brownout_rejected = int(data["brownout_rejected"])
        self.transitions = [
            (float(t), int(level), float(p))
            for t, level, p in data["transitions"]
        ]
