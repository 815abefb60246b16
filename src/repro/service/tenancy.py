"""Multi-tenant capacity control: quotas and weighted-fair scheduling.

A shared cluster serving several analysis campaigns at once needs two
promises the single-stream daemon cannot make:

* **Isolation** — one tenant's burst must not consume another tenant's
  capacity.  Each tenant gets a token bucket (burst size + refill rate):
  admission spends a token, an empty bucket refuses the request with an
  *honest* retry-after derived from the bucket's refill time — when the
  next token actually exists — rather than the queue-drain estimate,
  which says when the *cluster* has room, not when the *tenant* does.
* **Fairness** — backlogged tenants share dispatch in proportion to
  their configured weights.  The scheduler keeps a start-time
  fair-queuing virtual clock per tenant: dispatching a batch of ``n``
  requests advances the tenant's clock by ``n / weight``, and the next
  dispatch goes to the backlogged tenant with the smallest clock.  A
  tenant that went idle re-enters at the system virtual time (the
  minimum backlogged clock), so it cannot bank credit while idle and
  then starve everyone else — and under saturation the service shares
  converge to the weight ratios.

Both mechanisms are deterministic state machines in model time: the
bucket levels, virtual clocks and per-tenant counters serialize into the
campaign checkpoint, so a resumed scheduler neither double-charges a
tenant for work already admitted nor forgets how far each clock ran.

Everything here is inert unless a :class:`TenancyPolicy` with at least
one tenant is configured — tenancy-free schedules stay byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .batching import select_batch
from .metrics import percentile
from .queueing import partition_by_tenant

__all__ = [
    "TenantSpec",
    "TenancyPolicy",
    "TokenBucket",
    "WeightedFairScheduler",
    "TenantRegistry",
]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's contract: identity, fair share, and quota."""

    name: str
    #: Relative dispatch share under contention (3.0 vs 1.0 = 3:1).
    weight: float = 1.0
    #: Sustained admission rate in requests per model second
    #: (``None`` = unmetered).
    quota_qps: float | None = None
    #: Bucket capacity: how many requests may arrive back-to-back before
    #: the refill rate gates admission.  Defaults to ``quota_qps`` worth
    #: of one second when metered.
    quota_burst: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError("tenant weight must be > 0")
        if self.quota_qps is not None and self.quota_qps <= 0:
            raise ValueError("quota_qps must be > 0 when set")
        if self.quota_burst is not None and self.quota_burst < 1:
            raise ValueError("quota_burst must be >= 1 when set")


@dataclass(frozen=True)
class TenancyPolicy:
    """The set of tenants the service arbitrates between.

    An empty policy (no tenants) disables the whole subsystem — the
    inert-when-off contract every daemon-era feature honours.
    """

    tenants: tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")

    @property
    def enabled(self) -> bool:
        return bool(self.tenants)

    @classmethod
    def build(
        cls,
        names,
        *,
        weights=None,
        quota_qps: float | None = None,
        quota_burst: float | None = None,
    ) -> "TenancyPolicy":
        """Convenience constructor from parallel name/weight lists (the
        shape the CLI flags arrive in).  ``quota_qps``/``quota_burst``
        apply to every tenant uniformly."""
        names = list(names)
        if weights is None:
            weights = [1.0] * len(names)
        weights = [float(w) for w in weights]
        if len(weights) != len(names):
            raise ValueError(
                f"{len(names)} tenant(s) but {len(weights)} weight(s)"
            )
        return cls(
            tenants=tuple(
                TenantSpec(
                    name=n,
                    weight=w,
                    quota_qps=quota_qps,
                    quota_burst=quota_burst,
                )
                for n, w in zip(names, weights)
            )
        )


class TokenBucket:
    """A deterministic token bucket in model time.

    The bucket holds up to ``burst`` tokens and refills continuously at
    ``rate_qps`` tokens per model second.  :meth:`try_consume` spends a
    token if one is available; :meth:`retry_after_s` quotes exactly how
    long until the bucket next holds a full token — the *honest*
    retry-after a quota reject carries, as opposed to the drain
    estimator's cluster-backlog quote.
    """

    def __init__(
        self,
        rate_qps: float,
        burst: float,
        *,
        tokens: float | None = None,
        last_refill_s: float = 0.0,
    ) -> None:
        if rate_qps <= 0:
            raise ValueError("rate_qps must be > 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_qps = rate_qps
        self.burst = burst
        self.tokens = burst if tokens is None else tokens
        self.last_refill_s = last_refill_s

    def refill(self, now: float) -> None:
        """Advance the bucket to ``now`` (monotone: an out-of-order
        timestamp neither refunds nor drains)."""
        if now <= self.last_refill_s:
            return
        self.tokens = min(
            self.burst, self.tokens + (now - self.last_refill_s) * self.rate_qps
        )
        self.last_refill_s = now

    def try_consume(self, now: float, n: float = 1.0) -> bool:
        self.refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def retry_after_s(self, now: float, n: float = 1.0) -> float:
        """Model seconds until ``n`` tokens exist — when a retry of the
        just-refused request is expected to pass the quota."""
        self.refill(now)
        deficit = n - self.tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate_qps

    def to_json(self) -> dict:
        return {
            "rate_qps": self.rate_qps,
            "burst": self.burst,
            "tokens": self.tokens,
            "last_refill_s": self.last_refill_s,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TokenBucket":
        return cls(
            float(data["rate_qps"]),
            float(data["burst"]),
            tokens=float(data["tokens"]),
            last_refill_s=float(data["last_refill_s"]),
        )


class WeightedFairScheduler:
    """Start-time fair queuing across tenants.

    Each tenant carries a virtual clock; serving ``cost`` units of a
    tenant's work advances its clock by ``cost / weight``.  The next
    dispatch goes to the backlogged tenant with the smallest clock (name
    as the deterministic tie-break), so under sustained backlog the
    service shares converge to the weight ratios, and under equal
    weights no tenant can starve another.

    The system virtual time ``vt`` — the minimum clock among backlogged
    tenants at each pick — pulls a re-awakening tenant's clock forward:
    idle time banks no credit.
    """

    def __init__(self, weights: dict[str, float]) -> None:
        if not weights:
            raise ValueError("need at least one tenant weight")
        for name, w in weights.items():
            if w <= 0:
                raise ValueError(f"weight for {name!r} must be > 0")
        self.weights = dict(weights)
        self.virtual: dict[str, float] = {name: 0.0 for name in weights}
        self.vt = 0.0

    def pick(self, backlogged) -> str:
        """The tenant whose turn it is, among ``backlogged`` names."""
        candidates = [c for c in backlogged if c in self.virtual]
        if not candidates:
            raise ValueError("no known tenants among candidates")
        self.vt = max(self.vt, min(self.virtual[c] for c in candidates))
        for c in candidates:
            self.virtual[c] = max(self.virtual[c], self.vt)
        return min(candidates, key=lambda c: (self.virtual[c], c))

    def charge(self, name: str, cost: float) -> None:
        """Account ``cost`` units of service (batch size) to ``name``."""
        if cost < 0:
            raise ValueError("cost must be >= 0")
        self.virtual[name] += cost / self.weights[name]

    def to_json(self) -> dict:
        return {"virtual": dict(self.virtual), "vt": self.vt}

    def restore(self, data: dict) -> None:
        for name, v in data.get("virtual", {}).items():
            if name in self.virtual:
                self.virtual[name] = float(v)
        self.vt = float(data.get("vt", 0.0))


class _TenantState:
    """Mutable per-tenant ledger (bucket + counters)."""

    __slots__ = ("bucket", "admitted", "quota_rejected", "shed", "low_seen")

    def __init__(self, bucket: TokenBucket | None) -> None:
        self.bucket = bucket
        self.admitted = 0
        self.quota_rejected = 0
        #: LOW requests shed under brownout, attributed to this tenant.
        self.shed = 0
        #: LOW arrivals seen while the brownout held at SHED_LOW — the
        #: denominator of the weight-proportional shedding ratio.
        self.low_seen = 0


class TenantRegistry:
    """The live tenancy state machine the service consults.

    Owns the per-tenant token buckets, the weighted-fair clocks and the
    per-tenant counters; serializes the lot for the campaign checkpoint
    so fairness survives a scheduler crash.
    """

    def __init__(self, policy: TenancyPolicy) -> None:
        if not policy.enabled:
            raise ValueError("TenantRegistry needs at least one tenant")
        self.policy = policy
        self.order = tuple(t.name for t in policy.tenants)
        self._states: dict[str, _TenantState] = {}
        for spec in policy.tenants:
            bucket = None
            if spec.quota_qps is not None:
                burst = (
                    spec.quota_burst
                    if spec.quota_burst is not None
                    else max(1.0, spec.quota_qps)
                )
                bucket = TokenBucket(spec.quota_qps, burst)
            self._states[spec.name] = _TenantState(bucket)
        self.wfq = WeightedFairScheduler(
            {t.name: t.weight for t in policy.tenants}
        )
        self._max_weight = max(t.weight for t in policy.tenants)

    def __contains__(self, name) -> bool:
        return name in self._states

    def weight(self, name: str) -> float:
        return self.wfq.weights[name]

    # ------------------------------------------------------------------ #
    # The campaign hooks: quota gate, fair selection, fairness charge
    # ------------------------------------------------------------------ #

    def install(self, campaign) -> None:
        self.campaign = campaign
        campaign.gates.append(self._quota_gate)
        campaign.select = self._select
        campaign.on_dispatch.append(self._charge)

    def _quota_gate(self, rec) -> bool:
        """One bucket token per admission.  The reject's retry-after is
        the bucket's *refill* time — when the tenant next has a token —
        not the drain estimate, which says when the cluster has room (a
        different, usually shorter, answer that would invite an
        immediate second reject).  A quota reject never reaches a
        worker, so it never touches the health ledgers either: it is the
        tenant's fault, not a worker's."""
        tenant = rec.request.tenant
        if tenant not in self:
            return False
        k = self.campaign
        retry = self.admit(tenant, k.now)
        if retry is None:
            return False
        k._refuse(
            rec,
            "quota",
            f"tenant {tenant} over quota",
            retry_after_s=retry,
            basis=" (bucket refill)",
        )
        return True

    def _select(self):
        """The next dispatchable fresh batch: each tenant's partition
        runs its own selection, and the weighted-fair scheduler
        arbitrates among the tenants whose ready batch sits in the most
        urgent tier — so no tenant starves another within a priority
        class, while a more urgent tier still always wins the worker."""
        k = self.campaign
        ready = {}
        for name, subset in partition_by_tenant(k.queue.ordered(), self).items():
            group = select_batch(subset, k.now, k.cfg.policy)
            if group is not None:
                ready[name] = group
        if not ready:
            return None
        best = min(g[0].request.priority for g in ready.values())
        tier = {
            name: g for name, g in ready.items() if g[0].request.priority == best
        }
        names = [name for name in tier if name is not None]
        if not names:
            return tier[None]  # only untenanted work in the head tier
        return tier[self.wfq.pick(names)]

    def _charge(self, batch) -> None:
        """One batch = one tenant (select_batch partitions by tenant),
        so the fairness clock advances by exactly this dispatch's size
        over the tenant's weight."""
        tenant = batch.records[0].request.tenant
        if tenant in self:
            self.wfq.charge(tenant, float(len(batch.records)))

    # ------------------------------------------------------------------ #
    # Admission (quota)
    # ------------------------------------------------------------------ #

    def admit(self, name: str, now: float) -> float | None:
        """Charge one token; ``None`` = admitted, else the honest
        retry-after (model seconds until the bucket refills a token)."""
        st = self._states[name]
        if st.bucket is None or st.bucket.try_consume(now):
            st.admitted += 1
            return None
        st.quota_rejected += 1
        return st.bucket.retry_after_s(now)

    # ------------------------------------------------------------------ #
    # Brownout (weight-proportional LOW shedding)
    # ------------------------------------------------------------------ #

    def shed_low(self, name: str) -> bool:
        """Whether to shed this tenant's LOW arrival under SHED_LOW.

        The heaviest tenant keeps every LOW request; a tenant at half
        its weight keeps every other one — sheds are proportional to
        ``1 - weight / max_weight``, paced deterministically through a
        per-tenant arrival counter instead of a coin flip."""
        st = self._states[name]
        keep_ratio = self.weight(name) / self._max_weight
        st.low_seen += 1
        keep = (
            math.floor(st.low_seen * keep_ratio)
            > math.floor((st.low_seen - 1) * keep_ratio)
        )
        if not keep:
            st.shed += 1
        return not keep

    def note_shed(self, name: str) -> None:
        """Attribute a brownout refusal (REJECT level, where everyone
        below HIGH sheds regardless of weight) to its tenant."""
        self._states[name].shed += 1

    # ------------------------------------------------------------------ #
    # Scorecard
    # ------------------------------------------------------------------ #

    def counters(self) -> dict:
        return {
            name: {
                "admitted": st.admitted,
                "quota_rejected": st.quota_rejected,
                "shed": st.shed,
            }
            for name, st in self._states.items()
        }

    def summary(self, cols, horizon_s) -> dict:
        """The report's per-tenant scorecard, keyed by tenant name.

        Percentiles are ``None`` — not zero — for a tenant with no
        completions: "saw no traffic" and "answered instantly" must not
        be confusable on a dashboard.  ``goodput_share`` is the tenant's
        slice of deadline-met completions across all registered tenants
        (falling back to the completed-count slice when no tenanted
        request carried a met deadline), which is the number the
        weighted-fair scheduler promises converges to ``weight_share``
        under sustained backlog.
        """
        weights = self.wfq.weights
        total_weight = sum(weights.values()) or 1.0
        masks = {name: cols.tenant_mask(name) for name in weights}
        good = {
            name: cols.count(cols.met_deadline & mask)
            for name, mask in masks.items()
        }
        done = {
            name: cols.count(cols.completed & mask)
            for name, mask in masks.items()
        }
        share_of = good if sum(good.values()) else done
        share_total = sum(share_of.values())
        out: dict[str, dict] = {}
        for name in sorted(weights):
            mask = masks[name]
            lat = cols.sorted_latencies(mask)
            n_with_deadline = cols.count(
                cols.completed & cols.has_deadline & mask
            )
            n_met = cols.count(
                cols.met_deadline & cols.has_deadline & mask
            )
            st = self._states[name]
            out[name] = {
                "weight": float(weights[name]),
                "weight_share": round(weights[name] / total_weight, 4),
                "requests": cols.count(mask),
                "completed": done[name],
                "failed": cols.count(cols.failed & mask),
                "rejected": cols.count(cols.rejected & mask),
                "quota_rejected": st.quota_rejected,
                "shed": st.shed,
                **{
                    f"p{q}_us": (
                        round(percentile(lat, q) * 1e6, 3) if lat else None
                    )
                    for q in (50, 95, 99)
                },
                "slo_attainment": round(
                    n_met / n_with_deadline if n_with_deadline else 1.0, 4
                ),
                "goodput_rps": round(good[name] / horizon_s, 3),
                "goodput_share": round(
                    share_of[name] / share_total if share_total else 0.0, 4
                ),
            }
        return {"tenants": out}

    # ------------------------------------------------------------------ #
    # Campaign-checkpoint round trip
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        return {
            "buckets": {
                name: st.bucket.to_json()
                for name, st in self._states.items()
                if st.bucket is not None
            },
            "wfq": self.wfq.to_json(),
            "counters": {
                name: {**counts, "low_seen": self._states[name].low_seen}
                for name, counts in self.counters().items()
            },
        }

    def restore(self, data: dict) -> None:
        """Adopt a checkpointed tenancy state: bucket levels and refill
        clocks verbatim (no re-charge, no refund), fairness clocks and
        counters as committed."""
        for name, bucket_json in data.get("buckets", {}).items():
            if name in self._states:
                self._states[name].bucket = TokenBucket.from_json(bucket_json)
        self.wfq.restore(data.get("wfq", {}))
        for name, c in data.get("counters", {}).items():
            if name in self._states:
                st = self._states[name]
                st.admitted = int(c.get("admitted", 0))
                st.quota_rejected = int(c.get("quota_rejected", 0))
                st.shed = int(c.get("shed", 0))
                st.low_seen = int(c.get("low_seen", 0))
