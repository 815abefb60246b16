"""Elastic worker pool: scale simulated workers against measured load.

A fixed ``workers=N`` is the single-allocation world of the source paper
— one job, one set of GPUs, amortize setup and go.  "Scaling Lattice QCD
beyond 100 GPUs" (arXiv:1109.2935) is the sequel's lesson: at cluster
scale the *allocation itself* must flex with the workload.  The serving
analogue is an autoscaler: the daemon measures its arrival rate, prices
a worker in batch-service-seconds, and spins simulated workers up and
down to hold a target utilization.

The controller is deliberately classical (and deterministic):

* **Demand** — an EWMA of interarrival gaps (the same
  :class:`~repro.service.queueing.DrainEstimator` machinery PR 5 built
  for retry-after hints, pointed at arrivals instead of batch
  durations) gives the arrival rate λ; the drain estimator gives the
  per-batch service time s.  Offered load in worker-seconds per second
  is ``λ·s/m`` for batch size m, so the pool wants
  ``ceil(λ·s/(m·ρ))`` workers at target utilization ρ.
* **Backlog pressure** — a burst outruns any EWMA; queued-but-unserved
  batches are demand already in the building, so the desired size is
  also floored by the current backlog in batches.
* **Damping** — scale decisions respect a cooldown, scale-up pays a
  modeled spin-up delay before the worker takes traffic (capacity is
  never free), and scale-down retires only *idle* workers, one per
  decision, draining their gauge residency (a retired device's warmth
  must not leak into the routing tables).

Every decision is a pure function of (time, estimator states, pool
state), so elastic campaigns replay byte-identically — and the whole
ledger of :class:`ScaleEvent`\\ s lands in the service report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .queueing import DrainEstimator
from .request import flag_field

__all__ = [
    "ElasticPolicy",
    "ScaleEvent",
    "ArrivalRateEstimator",
    "PoolController",
    "spread_domain",
]

#: Event kind of a spun-up worker taking traffic: before arrivals, so
#: fresh capacity takes same-instant traffic.
_EV_WORKER_UP = 2


@dataclass(frozen=True)
class ElasticPolicy:
    """The autoscaler's contract (off: the pool stays at ``n_workers``).
    A spun-up worker boots gauge-free: its residency starts cold."""

    enabled: bool = flag_field(False, "--elastic", "scale the worker pool against the measured "
                               "arrival rate (--workers is the starting size)")
    min_workers: int = flag_field(1, "--min-workers")
    max_workers: int = flag_field(8, "--max-workers")
    #: Utilization the pool is sized for: smaller = more headroom.
    target_utilization: float = 0.75
    spinup_s: float = flag_field(2e-3, "--spinup-us", "model time between a scale-up decision "
                                 "and the new worker taking traffic", scale=1e-6)
    #: Minimum model time between scale decisions (damping).
    cooldown_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")
        if not 0.0 < self.target_utilization <= 1.0:
            raise ValueError("target_utilization must be in (0, 1]")
        if self.spinup_s < 0 or self.cooldown_s < 0:
            raise ValueError("spinup_s and cooldown_s must be >= 0")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision, for the report's ledger."""

    time_s: float
    kind: str  # "up" | "down"
    n_before: int
    n_after: int
    reason: str

    def to_json(self) -> dict:
        return {
            "time_us": round(self.time_s * 1e6, 3),
            "kind": self.kind,
            "n_before": self.n_before,
            "n_after": self.n_after,
            "reason": self.reason,
        }


class ArrivalRateEstimator:
    """EWMA arrival-rate tracker with silence decay.

    Interarrival gaps feed the same EWMA the drain estimator uses.  The
    wrinkle: an EWMA only updates on arrivals, so after a burst it would
    report the burst rate forever into a quiet tail.  The fix is free
    information — at query time, ``now - last_arrival`` is a *lower
    bound* on the current true gap, so the estimate is
    ``1 / max(ewma_gap, now - last_arrival)``: rates decay on silence
    without a single extra event.
    """

    def __init__(self, *, alpha: float = 0.3) -> None:
        self._gaps = DrainEstimator(alpha=alpha, initial_s=1.0)
        self.last_arrival_s: float | None = None

    def observe(self, arrival_s: float) -> None:
        if self.last_arrival_s is not None:
            self._gaps.observe(max(arrival_s - self.last_arrival_s, 0.0))
        self.last_arrival_s = arrival_s

    def rate_rps(self, now: float) -> float:
        """Estimated arrival rate at ``now`` (0 before any arrival)."""
        if self.last_arrival_s is None:
            return 0.0
        gap = self._gaps.batch_s if self._gaps.samples else 0.0
        gap = max(gap, now - self.last_arrival_s, 1e-12)
        return 1.0 / gap

    def to_json(self) -> dict:
        return {"gaps": self._gaps.to_json(), "last_arrival_s": self.last_arrival_s}

    def restore(self, data: dict) -> None:
        self._gaps.restore(data["gaps"])
        self.last_arrival_s = data["last_arrival_s"]

    def summary(self, cols, horizon_s) -> dict:
        """Nothing of its own: the rate shows in the scale-event reasons."""
        return {}


class PoolController:
    """Desired-size computation + the scale-event ledger.

    :meth:`decide` answers "how many should exist" and records what it
    decided; installed in a campaign, the controller applies the delta
    (spinning up with the modeled delay, retiring only idle workers)
    after every admission, at every batch boundary and on the kernel's
    ``rescale``, so every scale effect stays a totally-ordered event.
    """

    def __init__(self, policy: ElasticPolicy) -> None:
        self.policy = policy
        self.events: list[ScaleEvent] = []
        self.last_scale_s = float("-inf")
        self.spinup_spent_s = 0.0

    def install(self, campaign) -> None:
        self.campaign = campaign
        campaign.handlers[_EV_WORKER_UP] = self._worker_up
        campaign.on_admit.append(lambda rec: self._evaluate())
        campaign.after_batch.append(self._evaluate)
        campaign.rescale = self._evaluate

    def _evaluate(self) -> None:
        k = self.campaign
        delta = self.decide(
            k.now,
            current=k._serving_workers() + len(k.pending_up),
            idle=len(k.idle),
            rate_rps=k.arrival_est.rate_rps(k.now),
            batch_s=k.drain.batch_s,
            max_batch=k.cfg.policy.max_batch,
            backlog=len(k.queue),
            quarantined=sum(holder.n_quarantined() for holder in k.holders),
        )
        if delta > 0:
            for _ in range(delta):
                wid = len(k.workers)
                k.workers.append(k.make_worker(wid))
                k._reassess((wid,))
                k.pending_up.add(wid)
                k._push(k.now + self.policy.spinup_s, _EV_WORKER_UP, wid)
        elif delta < 0:
            # Retire from the top so worker ids stay dense at the bottom
            # (and the pick is deterministic).  Removing the id from
            # ``idle`` *before* anything else closes the scale-down /
            # dispatch race: a retired worker can never be selected.
            wid = max(k.idle)
            k.idle.remove(wid)
            k.workers[wid].retire()
            k._reassess((wid,))

    def _worker_up(self, worker_id: int) -> None:
        self.campaign.pending_up.discard(worker_id)
        self.campaign._release(worker_id)

    # ------------------------------------------------------------------ #

    def desired(
        self,
        now: float,
        *,
        rate_rps: float,
        batch_s: float,
        max_batch: int,
        backlog: int,
    ) -> int:
        """How many workers the pool should have right now."""
        p = self.policy
        demand = rate_rps * batch_s / max(max_batch, 1)
        # 1e-9 slack so a demand computing to exactly N.0 (float noise
        # aside) asks for N workers, not N+1.
        need_rate = math.ceil(demand / p.target_utilization - 1e-9)
        backlog_batches = -(-backlog // max(max_batch, 1))
        want = max(need_rate, backlog_batches, p.min_workers)
        return min(want, p.max_workers)

    def decide(
        self,
        now: float,
        *,
        current: int,
        idle: int,
        rate_rps: float,
        batch_s: float,
        max_batch: int,
        backlog: int,
        quarantined: int = 0,
    ) -> int:
        """Scale delta to apply: positive = spin up that many, -1 =
        retire one idle worker, 0 = hold.

        ``current`` counts active workers plus pending spin-ups (so a
        burst does not double-order capacity that is already booting);
        quarantined-but-probing workers are *excluded* from it — they
        serve nothing right now.  Scale-down is one worker per decision
        and only when a worker is actually idle, the queue holds no full
        batch, and ``quarantined`` is zero: a pool with capacity parked
        in the circuit breaker's cooldown is not oversized — retiring a
        healthy idle worker while a sick one probes would shrink the
        pool twice for one fault, and the probe's verdict (reinstate or
        retire) is the decision that should size the pool.
        """
        p = self.policy
        if now - self.last_scale_s < p.cooldown_s:
            return 0
        want = self.desired(
            now, rate_rps=rate_rps, batch_s=batch_s,
            max_batch=max_batch, backlog=backlog,
        )
        if want > current:
            delta = want - current
            self._note(now, "up", current, want,
                       f"rate {rate_rps:.0f} rps, backlog {backlog}")
            self.spinup_spent_s += delta * p.spinup_s
            return delta
        if (
            want < current and idle > 0 and backlog < max_batch
            and quarantined == 0
        ):
            self._note(now, "down", current, current - 1,
                       f"rate {rate_rps:.0f} rps, {idle} idle")
            return -1
        return 0

    def _note(self, now: float, kind: str, before: int, after: int,
              reason: str) -> None:
        self.events.append(ScaleEvent(now, kind, before, after, reason))
        self.last_scale_s = now

    @property
    def scale_ups(self) -> int:
        return sum(1 for e in self.events if e.kind == "up")

    @property
    def scale_downs(self) -> int:
        return sum(1 for e in self.events if e.kind == "down")

    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        return {
            "last_scale_s": (
                self.last_scale_s if self.last_scale_s != float("-inf") else None
            ),
            "spinup_spent_s": self.spinup_spent_s,
            "events": [asdict(e) for e in self.events],
        }

    def restore(self, data: dict) -> None:
        self.last_scale_s = (
            data["last_scale_s"] if data["last_scale_s"] is not None
            else float("-inf")
        )
        self.spinup_spent_s = float(data["spinup_spent_s"])
        self.events = [ScaleEvent(**e) for e in data["events"]]

    def summary(self, cols, horizon_s) -> dict:
        """The report's autoscaler ledger."""
        return {
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "scale_events": [e.to_json() for e in self.events],
            "spinup_spent_us": round(self.spinup_spent_s * 1e6, 3),
        }

    @staticmethod
    def off_summary() -> dict:
        """A fixed pool's ledger: nothing scaled."""
        return {
            "scale_ups": 0,
            "scale_downs": 0,
            "scale_events": [],
            "spinup_spent_us": 0.0,
        }


def spread_domain(loads: dict, healthy: list) -> int:
    """Pick the failure domain for the next scale-up worker.

    Packing scale-up workers onto one node rebuilds exactly the blast
    radius the failure-domain layer exists to bound: a single node loss
    would take the whole elastic surge with it.  Spread instead — the
    least-loaded *healthy* domain wins, lowest node id breaking ties so
    the choice is deterministic.  ``loads`` maps node id to its count of
    active workers; healthy nodes absent from ``loads`` count as empty.
    """
    if not healthy:
        raise ValueError("no healthy domains to scale into")
    return min(sorted(healthy), key=lambda node: loads.get(node, 0))
