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
  ledger, a failed probe re-quarantines until ``max_strikes`` retires it
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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..comms.cluster import Topology

__all__ = [
    "HEALTHY",
    "QUARANTINED",
    "PROBING",
    "RETIRED_SICK",
    "HealthPolicy",
    "WorkerHealth",
    "HealthBoard",
    "DomainPolicy",
    "DomainHealth",
    "DomainBoard",
    "DomainState",
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

# Circuit-breaker states.  HEALTHY serves traffic; QUARANTINED is drained
# and cooling down; PROBING runs exactly one seeded probe batch; a worker
# that fails ``max_strikes`` probes is RETIRED_SICK — permanently out.
HEALTHY = "healthy"
QUARANTINED = "quarantined"
PROBING = "probing"
RETIRED_SICK = "retired_sick"

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


@dataclass(frozen=True)
class HealthPolicy:
    """When a worker's ledger trips the circuit breaker."""

    enabled: bool = False
    #: EWMA smoothing of the per-worker failure indicator (1 = failed or
    #: pathologically slow batch, 0 = clean completion).
    alpha: float = 0.5
    #: Failure-rate estimate at or above which the breaker opens.
    trip_rate: float = 0.5
    #: Observations required before the breaker may open (a single
    #: planned chaos crash must not quarantine a healthy worker).
    min_samples: int = 2
    #: A completion slower than ``slow_ratio`` times the drain-model
    #: estimate counts as a (soft) failure sample — the straggler signal.
    slow_ratio: float = 3.0
    #: Model time a quarantined worker cools down before its probe.
    cooldown_s: float = 2e-3
    #: Quarantine entries before a worker is retired for good.
    max_strikes: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < self.trip_rate <= 1.0:
            raise ValueError("trip_rate must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.slow_ratio <= 1.0:
            raise ValueError("slow_ratio must be > 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if self.max_strikes < 1:
            raise ValueError("max_strikes must be >= 1")


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


class HealthBoard:
    """All workers' ledgers plus the campaign-wide breaker counters.

    The board observes and *decides* (should this worker trip?); the
    event loop actuates (removes the worker from the idle set, schedules
    the probe) so every quarantine effect stays a totally-ordered event
    like any other.
    """

    def __init__(self, policy: HealthPolicy) -> None:
        self.policy = policy
        #: By worker id.  :class:`DomainBoard` uses the same name, so a
        #: restore re-arms both boards' probes through one loop.
        self.ledgers: dict[int, WorkerHealth] = {}
        self.quarantines = 0
        self.reinstated = 0
        self.retired_sick = 0

    def tracker(self, worker_id: int) -> WorkerHealth:
        if worker_id not in self.ledgers:
            self.ledgers[worker_id] = WorkerHealth(worker_id)
        return self.ledgers[worker_id]

    # ------------------------------------------------------------------ #
    # Observations
    # ------------------------------------------------------------------ #

    def observe_success(
        self, worker_id: int, duration_s: float, predicted_s: float
    ) -> bool:
        """Fold a clean completion; returns True when it counted as a
        *slow* sample (latency beyond ``slow_ratio`` x the model)."""
        wh = self.tracker(worker_id)
        wh.completions += 1
        slow = (
            predicted_s > 0
            and duration_s > self.policy.slow_ratio * predicted_s
        )
        if slow:
            wh.slow_batches += 1
        wh._fold(1.0 if slow else 0.0, self.policy.alpha)
        return slow

    def observe_failure(self, worker_id: int, kind: str) -> None:
        """Fold a failed batch (``kind``: crash | timeout | kill | probe)."""
        wh = self.tracker(worker_id)
        if kind == "timeout":
            wh.timeouts += 1
        else:
            wh.crashes += 1
        wh._fold(1.0, self.policy.alpha)

    def should_trip(self, worker_id: int) -> bool:
        wh = self.tracker(worker_id)
        return (
            wh.state == HEALTHY
            and wh.samples >= self.policy.min_samples
            and wh.failure_rate >= self.policy.trip_rate
        )

    # ------------------------------------------------------------------ #
    # Breaker transitions
    # ------------------------------------------------------------------ #

    def quarantine(self, worker_id: int, now: float) -> WorkerHealth:
        wh = self.tracker(worker_id)
        wh.state = QUARANTINED
        wh.strikes += 1
        wh.cooldown_until_s = now + self.policy.cooldown_s
        self.quarantines += 1
        return wh

    def start_probe(self, worker_id: int) -> None:
        self.tracker(worker_id).state = PROBING

    def reinstate(self, worker_id: int) -> None:
        """A clean probe closes the breaker with a *reset* ledger — the
        quarantined failures must not linger in the EWMA and re-trip the
        breaker on the next (innocent) blip."""
        wh = self.tracker(worker_id)
        wh.state = HEALTHY
        wh.ewma_failure = None
        wh.samples = 0
        self.reinstated += 1

    def retire_sick(self, worker_id: int) -> None:
        self.tracker(worker_id).state = RETIRED_SICK
        self.retired_sick += 1

    # ------------------------------------------------------------------ #
    # Pool views
    # ------------------------------------------------------------------ #

    def state(self, worker_id: int) -> str:
        wh = self.ledgers.get(worker_id)
        return wh.state if wh is not None else HEALTHY

    def is_serving(self, worker_id: int) -> bool:
        """Whether the worker may take regular traffic (quarantined and
        probing workers hold their slot but serve nothing)."""
        return self.state(worker_id) == HEALTHY

    def n_quarantined(self) -> int:
        """Workers currently held out by the breaker (quarantined or
        probing) — capacity the autoscaler must not also retire."""
        return sum(
            1 for wh in self.ledgers.values()
            if wh.state in (QUARANTINED, PROBING)
        )

    def summary(self) -> dict:
        return {
            "quarantines": self.quarantines,
            "reinstated": self.reinstated,
            "retired_sick": self.retired_sick,
        }

    # ------------------------------------------------------------------ #
    # Campaign-checkpoint round trip (resume preserves quarantines)
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        return {
            "quarantines": self.quarantines,
            "reinstated": self.reinstated,
            "retired_sick": self.retired_sick,
            "workers": [
                self.ledgers[w].to_json() for w in sorted(self.ledgers)
            ],
        }

    def restore(self, data: dict) -> None:
        self.quarantines = int(data["quarantines"])
        self.reinstated = int(data["reinstated"])
        self.retired_sick = int(data["retired_sick"])
        self.ledgers = {
            int(wd["worker_id"]): WorkerHealth.from_json(wd)
            for wd in data["workers"]
        }


@dataclass(frozen=True)
class DomainPolicy:
    """When correlated per-worker strikes escalate to a whole domain.

    A node loss looks, to the per-worker ledgers, like several workers
    independently going bad at the same moment.  The domain breaker
    recognizes the correlation: ``strike_k`` *distinct* workers of one
    node quarantined within ``strike_window_s`` trips the whole node —
    sweeping the not-yet-convicted co-residents out of service at once
    instead of waiting for each to fail on its own.
    """

    enabled: bool = False
    #: Distinct quarantined workers of one node that trip the domain.
    strike_k: int = 2
    #: Model-time window within which the strikes must correlate.
    strike_window_s: float = 50e-3
    #: Cooldown before the domain's single probe.
    cooldown_s: float = 2e-3
    #: Failed domain probes before the whole node is retired.
    max_strikes: int = 2

    def __post_init__(self) -> None:
        if self.strike_k < 1:
            raise ValueError("strike_k must be >= 1")
        if self.strike_window_s <= 0:
            raise ValueError("strike_window_s must be > 0")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if self.max_strikes < 1:
            raise ValueError("max_strikes must be >= 1")


@dataclass
class DomainHealth:
    """One node's domain ledger (mutable, checkpointable)."""

    node: int
    state: str = HEALTHY
    #: Recent worker-quarantine strikes: ``[time_s, worker_id]`` pairs,
    #: pruned to the correlation window.
    strikes: list = field(default_factory=list)
    #: Domain-quarantine entries so far (probe-failure strike count).
    probe_strikes: int = 0
    quarantines: int = 0
    cooldown_until_s: float = 0.0

    def to_json(self) -> dict:
        return {
            "node": self.node,
            "state": self.state,
            "strikes": [list(strike) for strike in self.strikes],
            "probe_strikes": self.probe_strikes,
            "quarantines": self.quarantines,
            "cooldown_until_s": self.cooldown_until_s,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DomainHealth":
        return cls(**data)


class DomainBoard:
    """Per-node domain breakers fed by correlated worker strikes.

    Same observe/decide/actuate split as :class:`HealthBoard`: the board
    counts strikes and answers ``should this node trip?``; the event
    loop sweeps the node's workers and schedules the *single* domain
    probe (one probe per domain, not per worker — the whole point of
    recognizing the correlation).
    """

    def __init__(self, policy: DomainPolicy) -> None:
        self.policy = policy
        #: By node id.
        self.ledgers: dict[int, DomainHealth] = {}
        self.quarantines = 0
        self.reinstated = 0
        self.retired = 0
        #: Per-node quarantine entries, for the report scorecard.
        self.by_domain: dict[int, int] = {}

    def tracker(self, node: int) -> DomainHealth:
        if node not in self.ledgers:
            self.ledgers[node] = DomainHealth(node)
        return self.ledgers[node]

    # ------------------------------------------------------------------ #
    # Observations
    # ------------------------------------------------------------------ #

    def observe_strike(self, node: int, worker_id: int, now: float) -> bool:
        """Record a worker-level quarantine on ``node``; returns True
        when ``strike_k`` distinct workers struck within the window and
        the domain should trip."""
        dh = self.tracker(node)
        dh.strikes = [
            [t, w]
            for t, w in dh.strikes
            if now - t <= self.policy.strike_window_s
        ]
        dh.strikes.append([now, worker_id])
        distinct = {w for _, w in dh.strikes}
        return dh.state == HEALTHY and len(distinct) >= self.policy.strike_k

    # ------------------------------------------------------------------ #
    # Breaker transitions
    # ------------------------------------------------------------------ #

    def quarantine(self, node: int, now: float) -> DomainHealth:
        dh = self.tracker(node)
        dh.state = QUARANTINED
        dh.probe_strikes += 1
        dh.cooldown_until_s = now + self.policy.cooldown_s
        dh.quarantines += 1
        self.quarantines += 1
        self.by_domain[node] = self.by_domain.get(node, 0) + 1
        return dh

    def start_probe(self, node: int) -> None:
        self.tracker(node).state = PROBING

    def reinstate(self, node: int) -> None:
        dh = self.tracker(node)
        dh.state = HEALTHY
        dh.strikes = []
        dh.probe_strikes = 0
        self.reinstated += 1

    def retire_sick(self, node: int) -> None:
        self.tracker(node).state = RETIRED_SICK
        self.retired += 1

    # ------------------------------------------------------------------ #
    # Pool views
    # ------------------------------------------------------------------ #

    def state(self, node: int) -> str:
        dh = self.ledgers.get(node)
        return dh.state if dh is not None else HEALTHY

    def is_serving(self, node: int) -> bool:
        return self.state(node) == HEALTHY

    def n_quarantined(self) -> int:
        return sum(
            1 for dh in self.ledgers.values()
            if dh.state in (QUARANTINED, PROBING)
        )

    def summary(self) -> dict:
        """The breaker's rows of the report's ``domains`` scorecard."""
        return {
            "domains": {
                "domain_quarantines": self.quarantines,
                "domain_reinstated": self.reinstated,
                "domain_retired": self.retired,
                "quarantines_by_domain": {
                    str(n): self.by_domain[n] for n in sorted(self.by_domain)
                },
            }
        }

    # ------------------------------------------------------------------ #
    # Campaign-checkpoint round trip (resume preserves quarantines)
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        return {
            "quarantines": self.quarantines,
            "reinstated": self.reinstated,
            "retired": self.retired,
            "by_domain": {str(n): c for n, c in sorted(self.by_domain.items())},
            "domains": [self.ledgers[n].to_json() for n in sorted(self.ledgers)],
        }

    def restore(self, data: dict) -> None:
        self.quarantines = int(data["quarantines"])
        self.reinstated = int(data["reinstated"])
        self.retired = int(data["retired"])
        self.by_domain = {
            int(n): int(c) for n, c in data["by_domain"].items()
        }
        self.ledgers = {
            int(dd["node"]): DomainHealth.from_json(dd)
            for dd in data["domains"]
        }


class DomainState:
    """Campaign-side failure-domain state, beside the domain breaker.

    Where each worker lives, and which fault effects have already been
    applied — dead nodes, partitioned and healed racks, the domain
    counters.  All of it is checkpointed (except ``hca_factor``), so
    the fault events a resumed scheduler refires replay idempotently:
    a restored dead node is not killed, or counted, twice.
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
        self.anti_affinity_hedges = 0
        #: First model time each worker was held out of service by a
        #: breaker (worker or domain) — the time-to-isolate witness.
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
            "anti_affinity_hedges": self.anti_affinity_hedges,
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
        self.anti_affinity_hedges = int(data["anti_affinity_hedges"])
        self.isolation_s = {
            int(w): float(t) for w, t in data["isolation_s"].items()
        }

    def summary(self) -> dict:
        """The fault rows of the report's ``domains`` scorecard."""
        return {
            "domains": {
                "topology": str(self.topology),
                "nodes_killed": self.nodes_killed,
                "partitions": self.partitions_seen,
                "partition_heals": self.partition_heals,
                "anti_affinity_hedges": self.anti_affinity_hedges,
                "isolation_ms": self.isolation_ms(),
            }
        }


@dataclass(frozen=True)
class HedgePolicy:
    """When a running batch earns a speculative replica."""

    enabled: bool = False
    #: Hedge when elapsed time exceeds this multiple of the drain-model
    #: estimate taken at dispatch (the model-relative threshold).
    trigger_factor: float = 1.5
    #: Refresh-point boundaries of the *loser* batch — the cancellation
    #: lands at the next one (the earliest consistent abandon point).
    refresh_points: int = 4
    #: Measured batches required before the estimate is trustworthy
    #: enough to hedge against (the configured hint is not a model).
    min_samples: int = 1

    def __post_init__(self) -> None:
        if self.trigger_factor <= 1.0:
            raise ValueError("trigger_factor must be > 1")
        if self.refresh_points < 1:
            raise ValueError("refresh_points must be >= 1")
        if self.min_samples < 0:
            raise ValueError("min_samples must be >= 0")


class HedgeLedger:
    """One campaign's hedge accounting, beside the policy it runs under:
    replicas launched, replicas that beat their original, losers
    cancelled at a refresh boundary.  Checkpointed, so a resumed
    campaign reports the whole campaign's hedges."""

    def __init__(self, policy: HedgePolicy) -> None:
        self.policy = policy
        self.launched = 0
        self.won = 0
        self.cancelled = 0

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

    def summary(self) -> dict:
        return {
            "hedges_launched": self.launched,
            "hedges_won": self.won,
            "hedges_cancelled": self.cancelled,
        }


@dataclass(frozen=True)
class BrownoutPolicy:
    """Pressure thresholds for the explicit overload levels.

    Pressure is the estimated time to drain the current backlog across
    the serving pool (batches in the queue x the EWMA batch estimate /
    serving workers) — the same quantity behind retry-after hints, so
    the levels speak the service's own units.
    """

    enabled: bool = False
    #: Pressure at which LOW requests are shed with a retry-after.
    shed_low_at_s: float = 4e-3
    #: Pressure at which batches dispatch at a degraded precision tier.
    degrade_at_s: float = 8e-3
    #: Pressure at which NORMAL (and LOW) admissions are refused; HIGH
    #: is still admitted until queue capacity itself runs out.
    reject_at_s: float = 16e-3
    #: A level releases only once pressure falls below ``hysteresis``
    #: times its threshold — no flapping at the boundary.
    hysteresis: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.shed_low_at_s <= self.degrade_at_s <= self.reject_at_s:
            raise ValueError(
                "thresholds must satisfy 0 < shed_low <= degrade <= reject"
            )
        if not 0.0 < self.hysteresis <= 1.0:
            raise ValueError("hysteresis must be in (0, 1]")

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
    shedding and serving at the boundary pressure).
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
            self.policy.threshold(self.level) * self.policy.hysteresis
        ):
            new = self.level - 1
        if new != self.level:
            self.level = new
            self.transitions.append((now, new, pressure_s))
        return self.level

    def summary(self) -> dict:
        """The report's ``brownout`` block."""
        return {
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
            }
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
