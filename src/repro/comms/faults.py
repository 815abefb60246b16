"""Deterministic fault injection for the SimMPI comms runtime.

The paper's communication runtime assumes a healthy fabric; follow-on
work ("Scaling Lattice QCD beyond 100 GPUs", arXiv:1109.2935) shows that
at scale the comms layer is exactly where latency spikes, stragglers and
stalled ranks bite.  This module makes those conditions *injectable and
reproducible*: a :class:`FaultPlan` bound to a SimMPI world perturbs
traffic at the envelope level —

* **latency jitter** — per-link extra model time on individual messages,
  drawn from an exponential distribution (plus rare large *spikes* that
  reorder arrivals across links; per-link delivery stays FIFO, exactly
  MPI's non-overtaking guarantee);
* **transient send failures** — a send "fails" and is retried with
  exponential model-time backoff, like a rendezvous timeout + resend;
* **rank stalls and crashes** — a rank stops responding mid-exchange
  (stall: silently parks; crash: fails loudly and is registered on the
  world's failure board);
* **silent data corruption** — single/multi bit flips and value
  scribbles on in-flight message payloads, poisoned collective
  contributions, and resident-field corruption on a rank at a model
  time (the soft-error regime of hundred-GPU runs, arXiv:1109.2935).

Every decision is a pure function of ``(seed, link, message sequence
number)`` via :class:`numpy.random.SeedSequence`, so the fault schedule
depends only on the program's communication pattern — the same
determinism argument the model-time protocol itself relies on.
Latency faults perturb *time*, never payload bits; corruption faults
perturb payload bits, and the matching detection layer
(:class:`IntegrityPolicy` checksummed envelopes in
:mod:`repro.comms.mpi_sim`, invariant monitors in the solvers) turns
them back into structured, recoverable events.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

__all__ = [
    "LinkFaults",
    "StallSpec",
    "ResidentCorruption",
    "WorkerKill",
    "StragglerSpec",
    "WorkerFaultPlan",
    "NodeKill",
    "HcaDegrade",
    "SwitchPartition",
    "DomainFaultPlan",
    "FaultPlan",
    "FaultEvent",
    "IntegrityPolicy",
    "RankFailedError",
    "root_cause",
    "CorruptionDetected",
    "checksum_bytes",
    "checksum_payload",
    "corrupt_payload",
    "resident_scribble",
    "format_schedule",
]

# Salts separating the independent random streams of one plan.
_SALT_JITTER = 1
_SALT_SPIKE = 2
_SALT_SEND_FAIL = 3
_SALT_CORRUPT = 4  # which sends are corrupted, and for how many resends
_SALT_CORRUPT_MODE = 5  # bitflip vs scribble + the damage pattern itself
_SALT_COLL_CORRUPT = 6  # poisoned collective contributions
_SALT_RESIDENT = 7  # resident-field scribble pattern
_SALT_HEAL = 8  # seeded switch-partition heal intervals
_SALT_ELASTIC = 9  # (domain, seed) straggler pinning for scale-up workers

_LINK_IDS = {"shm": 0, "ib": 1}

#: Attempts before a transiently failing send goes through.
MAX_SEND_ATTEMPTS = 5
#: Model-time backoff before the first send retry; doubles per retry.
SEND_RETRY_BACKOFF_S = 5e-6
#: Modelled hashing throughput (xxhash-class, memory-bound).
CHECKSUM_GBPS = 25.0
#: Fixed per-message hashing/verification overhead.
CHECKSUM_OVERHEAD_S = 2e-7


# ------------------------------------------------------------------------ #
# Checksums (the detection primitive)
# ------------------------------------------------------------------------ #


def checksum_bytes(data: bytes, running: int = 0) -> int:
    """xxhash-style 32-bit payload digest.

    ``zlib.crc32`` under the hood: C-speed on large buffers, no new
    dependencies, and — like xxhash — *not* cryptographic: the threat
    model is soft errors, not adversaries.  ``running`` chains digests
    across the parts of a multi-array payload.
    """
    return zlib.crc32(data, running) & 0xFFFFFFFF


def checksum_payload(data: Any) -> int:
    """Digest of a message payload (ndarray, tuple of ndarrays, scalar).

    ``None`` parts (timing-only mode carries no field data) hash as
    empty, so the digest is well-defined for every envelope the runtime
    moves.
    """
    c = 0
    parts = data if isinstance(data, tuple) else (data,)
    for part in parts:
        if part is None:
            continue
        if not isinstance(part, np.ndarray):
            part = np.asarray(part)
        if part.dtype == object:
            # Object arrays serialize as pointers — hash the value's repr
            # instead, so the digest stays a pure function of the value
            # (repr accepts every payload type; floats print round-trip).
            c = checksum_bytes(repr(part.tolist()).encode(), c)
        else:
            c = checksum_bytes(np.ascontiguousarray(part).tobytes(), c)
    return c


def _corrupt_array(arr: np.ndarray, rng: np.random.Generator, mode: str, bits: int) -> str:
    """Damage ``arr`` in place; returns a human-readable description."""
    raw = arr.view(np.uint8).reshape(-1)
    if mode == "bitflip":
        n = min(max(1, bits), 8 * raw.size)
        positions = rng.choice(raw.size * 8, size=n, replace=False)
        for pos in positions:
            raw[pos // 8] ^= np.uint8(1 << (pos % 8))
        return f"{n} bit(s) flipped"
    # Scribble: overwrite a short burst of bytes with garbage.
    n = min(8, raw.size)
    start = int(rng.integers(0, raw.size - n + 1))
    raw[start:start + n] = rng.integers(0, 256, size=n, dtype=np.uint8)
    return f"{n} bytes scribbled at offset {start}"


def corrupt_payload(
    data: Any, *, seed_key: tuple[int, ...], mode: str, bits: int = 1
) -> tuple[Any, str]:
    """A corrupted deep copy of a message payload (pure function of key).

    The first ndarray found in the payload is damaged; payloads with no
    array data (timing-only mode) come back unchanged — the runtime then
    models detection from the envelope's corruption flag instead of real
    checksums.
    """
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_key)))
    if isinstance(data, np.ndarray):
        bad = data.copy()
        detail = _corrupt_array(bad, rng, mode, bits)
        return bad, detail
    if isinstance(data, tuple):
        parts = list(data)
        for i, part in enumerate(parts):
            if isinstance(part, np.ndarray):
                bad = part.copy()
                detail = _corrupt_array(bad, rng, mode, bits)
                parts[i] = bad
                return tuple(parts), detail
    return data, "no payload data (timing-only)"


def resident_scribble(
    arr: np.ndarray, *, seed: int, rank: int, scale: float
) -> str:
    """Deterministically scribble a resident field in place.

    Models an uncorrected memory error in device RAM: a burst of sites
    is overwritten with values ``scale`` times the field's own magnitude
    — large enough that the solver's refresh-point invariant monitor
    trips, small enough not to masquerade as ordinary divergence.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, _SALT_RESIDENT, rank])
    )
    flat = arr.reshape(-1)
    n = max(1, flat.size // 64)
    idx = rng.choice(flat.size, size=n, replace=False)
    ref = float(np.max(np.abs(flat))) or 1.0
    flat[idx] = scale * ref
    return f"{n} value(s) scribbled (scale {scale:g})"


class RankFailedError(RuntimeError):
    """A rank died (crash) or stopped responding (stall) mid-operation.

    Structured replacement for the wall-clock deadlock timeout: carries
    *which* rank failed, *what* operation surfaced it, and the model time
    of the observation, so chaos runs can be diagnosed from the error
    alone.  ``rank`` is the failed rank, which is not necessarily the
    rank that raised (peers observing a dead partner raise too).
    """

    def __init__(
        self,
        rank: int,
        op: str,
        model_time: float,
        *,
        mode: str = "failed",
        detail: str = "",
    ) -> None:
        self.rank = rank
        self.op = op
        self.model_time = model_time
        self.mode = mode
        self.detail = detail
        super().__init__(self._message())

    def _message(self) -> str:
        msg = (
            f"rank {self.rank} {self.mode} during {self.op} "
            f"at t={self.model_time * 1e6:.3f}us"
        )
        if self.detail:
            msg += f" ({self.detail})"
        return msg

    def add_context(self, context: str) -> "RankFailedError":
        """Append caller context (e.g. which face exchange) in place."""
        self.detail = f"{self.detail}; {context}" if self.detail else context
        self.args = (self._message(),)
        return self


def root_cause(exc: BaseException | None, kind: type[BaseException]):
    """The first ``kind`` on ``exc``'s ``__cause__``/``__context__``
    chain (``exc`` itself included), or ``None``.  A chain that loops
    back on itself ends the walk."""
    seen: set[int] = set()
    while exc is not None and id(exc) not in seen:
        if isinstance(exc, kind):
            return exc
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return None


class CorruptionDetected(RankFailedError):
    """A checksum mismatch that survived every bounded resend.

    Structured corruption report: which link carried the message, which
    operation observed it, the model time, and the (expected, actual)
    checksum pair.  Subclasses :class:`RankFailedError` so the existing
    failure machinery — context annotation, graceful SPMD unwinding,
    chaos reports — handles it; ``mode`` is ``'corrupted'``.  Raised by
    the *detecting* rank (the receiver), never silently swallowed: with
    verification on, a corrupted payload is either corrected by resend
    or surfaces as this error.
    """

    def __init__(
        self,
        rank: int,
        op: str,
        model_time: float,
        *,
        link: str = "",
        expected: int = 0,
        actual: int = 0,
        detail: str = "",
    ) -> None:
        self.link = link
        self.expected = expected
        self.actual = actual
        base = (
            f"checksum {actual:#010x} != expected {expected:#010x}"
            + (f" on {link} link" if link else "")
        )
        super().__init__(
            rank, op, model_time, mode="corrupted",
            detail=f"{base}; {detail}" if detail else base,
        )


@dataclass(frozen=True)
class IntegrityPolicy:
    """End-to-end data-integrity policy for one SimMPI world.

    With ``verify`` on, every envelope carries an xxhash-style checksum
    of its pristine payload, receivers verify it (NACK + bounded resend
    on mismatch), collectives verify per-contribution digests, and the
    ghost-zone scatter re-verifies after storing.  The model-time cost
    of hashing is charged per message: ``CHECKSUM_OVERHEAD_S`` fixed
    plus ``nbytes`` at ``CHECKSUM_GBPS`` — the overhead ``bench_chaos``
    measures.

    ``IntegrityPolicy.off()`` disables both the checks and their cost:
    the baseline for overhead measurement, and the regression switch
    proving the layer earns its keep (corruption then flows through
    silently).
    """

    verify: bool = True
    #: Bounded NACK/resend budget before a mismatch escalates to
    #: :class:`CorruptionDetected`.
    max_resend: int = 3

    def __post_init__(self) -> None:
        if self.max_resend < 0:
            raise ValueError("max_resend must be >= 0")

    def cost_s(self, nbytes: int) -> float:
        """Model time to checksum (or verify) one ``nbytes`` payload."""
        if not self.verify:
            return 0.0
        return CHECKSUM_OVERHEAD_S + nbytes / (CHECKSUM_GBPS * 1e9)

    @classmethod
    def off(cls) -> "IntegrityPolicy":
        return cls(verify=False)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded at the injection point."""

    time: float  # model time at injection (the injecting rank's clock)
    rank: int  # the rank whose traffic was perturbed
    #: 'jitter' | 'spike' | 'send_retry' | 'stall' | 'crash' |
    #: 'bitflip' | 'scribble' | 'coll_corrupt' | 'resident_corrupt' |
    #: 'corruption_detected' | 'nack_resend'
    kind: str
    op: str
    peer: int = -1  # destination rank for message faults
    delay_s: float = 0.0  # extra model time injected
    detail: str = ""

    def render(self) -> str:
        peer = f"->{self.peer}" if self.peer >= 0 else "     "
        return (
            f"{self.time * 1e6:12.3f}  r{self.rank}{peer:<5} "
            f"{self.kind:<10} {self.op:<18} +{self.delay_s * 1e6:.3f}us"
            + (f"  {self.detail}" if self.detail else "")
        )


def schedule_sort_key(e: FaultEvent) -> tuple:
    """The stable ordering of a fault schedule: model time, then rank,
    then event kind — with every remaining field as a tiebreaker, so
    two events are ever reordered only if they are byte-identical.
    This is the presentation order the schedule goldens pin; events are
    *logged* in the scheduler's interleaving, which is just as reproducible
    but follows who ran when, not the model clock."""
    return (e.time, e.rank, e.kind, e.op, e.peer, e.delay_s, e.detail)


def format_schedule(events: list[FaultEvent]) -> str:
    """Render a fault schedule as a stable, byte-reproducible table."""
    if not events:
        return "(no faults injected)"
    header = f"{'t(us)':>12}  {'rank':<7} {'kind':<10} {'op':<18} delay"
    lines = [header] + [
        ev.render() for ev in sorted(events, key=schedule_sort_key)
    ]
    return "\n".join(lines)


@dataclass(frozen=True)
class LinkFaults:
    """Per-link-kind message perturbations (one instance per shm/ib)."""

    jitter_prob: float = 0.0  # fraction of messages receiving jitter
    jitter_s: float = 0.0  # mean of the exponential extra latency
    spike_prob: float = 0.0  # rare large delays (cross-link reordering)
    spike_s: float = 0.0
    # --- silent data corruption (in-flight payload damage) -------------- #
    bitflip_prob: float = 0.0  # per-transmission chance of bit flips
    scribble_prob: float = 0.0  # per-transmission chance of a value scribble
    bitflip_bits: int = 1  # bits flipped per corrupted transmission

    def __post_init__(self) -> None:
        for name in ("jitter_prob", "spike_prob", "bitflip_prob", "scribble_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.bitflip_prob + self.scribble_prob > 1.0:
            raise ValueError("bitflip_prob + scribble_prob must be <= 1")
        for name in ("jitter_s", "spike_s"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.bitflip_bits < 1:
            raise ValueError("bitflip_bits must be >= 1")

    @property
    def active(self) -> bool:
        return (self.jitter_prob > 0 and self.jitter_s > 0) or (
            self.spike_prob > 0 and self.spike_s > 0
        )

    @property
    def corrupting(self) -> bool:
        return self.bitflip_prob > 0 or self.scribble_prob > 0


@dataclass(frozen=True)
class StallSpec:
    """One planned rank failure: the rank stops at a model time.

    ``mode='stall'`` models a hung process: the rank silently stops
    participating (peers find it on the failure board, not in a message).
    ``mode='crash'`` models a loud death: the rank raises and registers
    on the failure board immediately.
    """

    rank: int
    after_s: float = 0.0  # model time at which the rank stops
    mode: str = "stall"

    def __post_init__(self) -> None:
        if self.mode not in ("stall", "crash"):
            raise ValueError(f"mode must be 'stall' or 'crash', got {self.mode!r}")
        if self.after_s < 0.0:
            raise ValueError("after_s must be >= 0")


@dataclass(frozen=True)
class ResidentCorruption:
    """One planned resident-field corruption: a rank's in-memory solver
    state is scribbled once its model clock passes ``after_s`` — a soft
    error in device RAM rather than on the wire.  Invisible to envelope
    checksums by construction; caught by the solvers' refresh-point
    invariant monitors and recovered via checkpoint restore.
    """

    rank: int
    after_s: float = 0.0
    scale: float = 50.0  # scribble magnitude relative to the field's own

    def __post_init__(self) -> None:
        if self.after_s < 0.0:
            raise ValueError("after_s must be >= 0")
        if self.scale == 0.0:
            raise ValueError("scale must be nonzero")


@dataclass(frozen=True)
class WorkerKill:
    """One planned *whole-worker* death: at ``at_s`` of service model
    time every rank of the worker dies at once — a node loss, not a rank
    fault.  The failure is correlated by construction (one power supply,
    one NIC), which is exactly what per-rank :class:`StallSpec` schedules
    cannot express: those perturb one rank of one batch; a kill takes the
    whole failure domain out from under whatever it was running.
    """

    worker_id: int
    at_s: float = 0.0

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ValueError("worker_id must be >= 0")
        if self.at_s < 0.0:
            raise ValueError("at_s must be >= 0")


@dataclass(frozen=True)
class StragglerSpec:
    """One planned straggler: every batch the worker runs takes
    ``factor`` times its modeled duration — a thermally throttled GPU or
    a degraded link that slows the node without failing it.  The batch
    still *succeeds*; only hedging (or the slow-completion health
    signal) can claw the latency back.
    """

    worker_id: int
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ValueError("worker_id must be >= 0")
        if self.factor <= 1.0:
            raise ValueError("factor must be > 1")


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Deterministic whole-worker faults for the service simulation:
    correlated kills and stragglers, addressed by worker id (ids past
    the boot pool target elastically spun-up workers)."""

    kills: tuple[WorkerKill, ...] = ()
    stragglers: tuple[StragglerSpec, ...] = ()

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for kill in self.kills:
            if kill.worker_id in seen:
                raise ValueError(
                    f"duplicate kill for worker {kill.worker_id}"
                )
            seen.add(kill.worker_id)

    def with_kill(self, worker_id: int, *, at_s: float) -> "WorkerFaultPlan":
        from dataclasses import replace

        return replace(
            self, kills=self.kills + (WorkerKill(worker_id, at_s),)
        )

    def with_straggler(
        self, worker_id: int, *, factor: float
    ) -> "WorkerFaultPlan":
        from dataclasses import replace

        return replace(
            self,
            stragglers=self.stragglers + (StragglerSpec(worker_id, factor),),
        )

    def straggler_factor(self, worker_id: int) -> float:
        """Duration multiplier for the worker (1.0 = healthy)."""
        for spec in self.stragglers:
            if spec.worker_id == worker_id:
                return spec.factor
        return 1.0

    def reseeded(
        self,
        node: int,
        seed: int,
        *,
        boot_workers: int,
        n_nodes: int,
    ) -> float:
        """Straggler factor for an elastic scale-up worker on ``node``.

        Pool indices are a bad identity for scale-up workers: a resumed
        campaign with a different scale history hands out different ids,
        so an index-addressed straggler would jump between physical
        workers across resumes.  Instead, each straggler spec aimed past
        the boot pool is *pinned to a node* by hashing ``(seed, spec)``,
        and any scale-up worker landing on that node inherits the
        factor.  The (domain, seed) pair is stable per worker identity
        no matter how many scale events preceded the spin-up.
        """
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        factor = 1.0
        for spec in self.stragglers:
            if spec.worker_id < boot_workers:
                continue  # boot-pool specs keep index addressing
            pinned = int(
                np.random.SeedSequence(
                    [seed & 0xFFFFFFFF, _SALT_ELASTIC, spec.worker_id]
                ).generate_state(1)[0]
            ) % n_nodes
            if pinned == node:
                factor = max(factor, spec.factor)
        return factor


@dataclass(frozen=True)
class NodeKill:
    """One planned *node* death: at ``at_s`` the node's power is gone and
    every worker resident on it dies at once — silently.  Unlike
    :class:`WorkerKill` (a loud, scheduler-visible retirement), a node
    loss takes the reporting path with it: the dead workers stay in the
    pool and every batch dispatched to them simply fails after the
    detection delay, so the health stack must *infer* the correlated
    death from the failure pattern.
    """

    node: int
    at_s: float = 0.0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("node must be >= 0")
        if self.at_s < 0.0:
            raise ValueError("at_s must be >= 0")


@dataclass(frozen=True)
class HcaDegrade:
    """One planned HCA degradation: at ``at_s`` the node's shared HCA
    renegotiates to a lower rate and *every* worker on the node slows by
    ``factor`` — the correlated version of :class:`StragglerSpec` (one
    HCA serves all the node's GPUs, Section VII-A).
    """

    node: int
    at_s: float = 0.0
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError("node must be >= 0")
        if self.at_s < 0.0:
            raise ValueError("at_s must be >= 0")
        if self.factor <= 1.0:
            raise ValueError("factor must be > 1")


@dataclass(frozen=True)
class SwitchPartition:
    """One planned switch partition: at ``at_s`` the rack's uplink dies
    and every node behind it is unreachable for a *seeded* interval
    (``mean_heal_s`` scaled by a deterministic uniform draw), then heals.
    Link-down is loud — the scheduler sees the partition immediately and
    parks the rack — but the interval is part of the fault schedule, not
    the scheduler's choice.
    """

    rack: int
    at_s: float = 0.0
    mean_heal_s: float = 2e-3

    def __post_init__(self) -> None:
        if self.rack < 0:
            raise ValueError("rack must be >= 0")
        if self.at_s < 0.0:
            raise ValueError("at_s must be >= 0")
        if self.mean_heal_s <= 0.0:
            raise ValueError("mean_heal_s must be > 0")


@dataclass(frozen=True)
class DomainFaultPlan:
    """Deterministic *correlated* fault schedule addressed by failure
    domain (node, rack) rather than worker id.  The service maps domains
    to workers through its :class:`~repro.comms.cluster.Topology`; heal
    intervals are pure functions of ``(seed, rack)`` so the schedule is
    byte-identical run to run.
    """

    seed: int = 0
    node_kills: tuple[NodeKill, ...] = ()
    hca_degrades: tuple[HcaDegrade, ...] = ()
    partitions: tuple[SwitchPartition, ...] = ()
    #: Model time between a dead node swallowing a batch and the
    #: scheduler's send timing out — the detection delay that makes a
    #: silent node loss expensive.
    detect_s: float = 5e-4

    def __post_init__(self) -> None:
        if self.detect_s <= 0.0:
            raise ValueError("detect_s must be > 0")
        for name, specs in (
            ("node kill", self.node_kills),
            ("HCA degrade", self.hca_degrades),
        ):
            seen: set[int] = set()
            for spec in specs:
                if spec.node in seen:
                    raise ValueError(f"duplicate {name} for node {spec.node}")
                seen.add(spec.node)
        racks: set[int] = set()
        for spec in self.partitions:
            if spec.rack in racks:
                raise ValueError(f"duplicate partition for rack {spec.rack}")
            racks.add(spec.rack)

    def with_node_kill(self, node: int, *, at_s: float) -> "DomainFaultPlan":
        return replace(self, node_kills=self.node_kills + (NodeKill(node, at_s),))

    def with_hca_degrade(
        self, node: int, *, at_s: float, factor: float
    ) -> "DomainFaultPlan":
        return replace(
            self,
            hca_degrades=self.hca_degrades + (HcaDegrade(node, at_s, factor),),
        )

    def with_partition(
        self, rack: int, *, at_s: float, mean_heal_s: float = 2e-3
    ) -> "DomainFaultPlan":
        return replace(
            self,
            partitions=self.partitions
            + (SwitchPartition(rack, at_s, mean_heal_s),),
        )

    def heal_time(self, spec: SwitchPartition) -> float:
        """Absolute model time at which ``spec``'s rack heals.

        The interval is ``mean_heal_s * (0.5 + u)`` with ``u`` a seeded
        uniform draw — bounded away from zero so the partition is always
        observable, bounded above so campaigns always finish.
        """
        u = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence([self.seed, _SALT_HEAL, spec.rack])
            )
        ).random()
        return spec.at_s + spec.mean_heal_s * (0.5 + u)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of comms faults.

    Bind one to a world via ``SimMPI(size, cluster, fault_plan=plan)`` or
    pass ``fault_plan=`` to :func:`repro.core.invert`.  All sampling is
    keyed on ``(seed, link, per-link message sequence number)``, so the
    schedule depends only on the program's communication pattern.
    """

    seed: int = 0
    shm: LinkFaults = field(default_factory=LinkFaults)
    ib: LinkFaults = field(default_factory=LinkFaults)
    send_fail_prob: float = 0.0  # transient failure chance per attempt
    stalls: tuple[StallSpec, ...] = ()
    # --- silent data corruption --------------------------------------- #
    #: Planned resident-field corruptions (at most one per rank).
    resident: tuple[ResidentCorruption, ...] = ()
    #: Cap on corrupted *messages per rank* (-1 = unlimited).  With a cap
    #: of 1 and probability 1, exactly each rank's first transmission is
    #: corrupted — the deterministic single-event plans the regression
    #: tests use.  Per-rank (not global): a rank's faults are a function
    #: of its own traffic, whatever its peers send.
    corrupt_budget: int = -1
    #: Per-contribution chance that a rank's collective (global-sum)
    #: contribution is poisoned in flight.
    coll_corrupt_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.send_fail_prob < 1.0:
            raise ValueError("send_fail_prob must be in [0, 1)")
        if not 0.0 <= self.coll_corrupt_prob <= 1.0:
            raise ValueError("coll_corrupt_prob must be in [0, 1]")
        if self.corrupt_budget < -1:
            raise ValueError("corrupt_budget must be >= -1")
        seen = set()
        for s in self.stalls:
            if s.rank in seen:
                raise ValueError(f"duplicate stall spec for rank {s.rank}")
            seen.add(s.rank)
        seen = set()
        for rc in self.resident:
            if rc.rank in seen:
                raise ValueError(
                    f"duplicate resident corruption for rank {rc.rank}"
                )
            seen.add(rc.rank)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def jittery(
        cls,
        seed: int,
        *,
        prob: float = 0.3,
        jitter_s: float = 20e-6,
        spike_prob: float = 0.0,
        spike_s: float = 200e-6,
        **kwargs,
    ) -> "FaultPlan":
        """Latency jitter on every link (IB gets the full dose, shared
        memory a tenth — intra-node copies do not cross the fabric)."""
        return cls(
            seed=seed,
            ib=LinkFaults(prob, jitter_s, spike_prob, spike_s),
            shm=LinkFaults(prob, jitter_s / 10, spike_prob, spike_s / 10),
            **kwargs,
        )

    @classmethod
    def flaky(cls, seed: int, *, fail_prob: float = 0.05, **kwargs) -> "FaultPlan":
        """Transient send failures with retry/backoff."""
        return cls(seed=seed, send_fail_prob=fail_prob, **kwargs)

    @classmethod
    def corrupting(
        cls,
        seed: int,
        *,
        bitflip_prob: float = 0.02,
        scribble_prob: float = 0.0,
        bits: int = 1,
        budget: int = -1,
        coll_prob: float = 0.0,
        **kwargs,
    ) -> "FaultPlan":
        """Silent payload corruption on every link (same rate: soft
        errors do not care whether bytes crossed the fabric)."""
        lf = LinkFaults(
            bitflip_prob=bitflip_prob,
            scribble_prob=scribble_prob,
            bitflip_bits=bits,
        )
        return cls(
            seed=seed, ib=lf, shm=lf, corrupt_budget=budget,
            coll_corrupt_prob=coll_prob, **kwargs,
        )

    def with_stall(
        self, rank: int, *, after_s: float = 0.0, mode: str = "stall"
    ) -> "FaultPlan":
        """A copy of this plan with one more rank failure scheduled."""
        return replace(
            self, stalls=self.stalls + (StallSpec(rank, after_s, mode),)
        )

    def with_resident_corruption(
        self, rank: int, *, after_s: float = 0.0, scale: float = 50.0
    ) -> "FaultPlan":
        """A copy with a resident-field corruption scheduled on ``rank``."""
        return replace(
            self,
            resident=self.resident + (ResidentCorruption(rank, after_s, scale),),
        )

    def reseeded(self, stream: int) -> "FaultPlan":
        """A copy of this plan on an independent random stream.

        A solve *service* binds one plan template to many workers; each
        worker's schedule must be independent (workers run their own
        SimMPI worlds with clocks restarting per batch) yet reproducible
        from the campaign seed alone.  SeedSequence-style mixing keeps
        the derived seeds collision-free and platform-stable.
        """
        mixed = int(
            np.random.SeedSequence([self.seed, 0x5EED, stream]).generate_state(1)[0]
        )
        return replace(self, seed=mixed)

    def without_ranks(self, ranks) -> "FaultPlan":
        """A copy with the given ranks' stalls/crashes retired.

        The recovery supervisor uses this between attempts: a fault that
        already fired must not replay in the relaunched world (whose
        model clocks restart at zero), and stalls addressed beyond a
        shrunken world size could not be hosted at all.
        """
        drop = set(ranks)
        return replace(
            self,
            stalls=tuple(s for s in self.stalls if s.rank not in drop),
            resident=tuple(r for r in self.resident if r.rank not in drop),
        )

    @staticmethod
    def deaths(events) -> list[FaultEvent]:
        """The planned rank deaths (fired stalls and crashes) among
        ``events`` — the ranks :meth:`without_ranks` retires."""
        return [e for e in events if e.kind in ("stall", "crash")]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stall_for(self, rank: int) -> StallSpec | None:
        for s in self.stalls:
            if s.rank == rank:
                return s
        return None

    def resident_for(self, rank: int) -> ResidentCorruption | None:
        for rc in self.resident:
            if rc.rank == rank:
                return rc
        return None

    @property
    def injects_corruption(self) -> bool:
        """Whether any corruption fault (in-flight, collective, or
        resident) is scheduled — arms integrity verification by default."""
        return (
            self.ib.corrupting
            or self.shm.corrupting
            or self.coll_corrupt_prob > 0
            or bool(self.resident)
        )

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for kind in ("ib", "shm"):
            lf: LinkFaults = getattr(self, kind)
            if lf.active:
                parts.append(
                    f"{kind}: jitter p={lf.jitter_prob} mean={lf.jitter_s * 1e6:.1f}us"
                    + (
                        f" spike p={lf.spike_prob} +{lf.spike_s * 1e6:.1f}us"
                        if lf.spike_prob > 0
                        else ""
                    )
                )
        if self.send_fail_prob > 0:
            parts.append(
                f"send-fail p={self.send_fail_prob} "
                f"(<= {MAX_SEND_ATTEMPTS} attempts, "
                f"backoff {SEND_RETRY_BACKOFF_S * 1e6:.1f}us)"
            )
        for kind in ("ib", "shm"):
            lf = getattr(self, kind)
            if lf.corrupting:
                parts.append(
                    f"{kind}: corrupt p={lf.bitflip_prob + lf.scribble_prob:g}"
                    + (f" ({lf.bitflip_bits}-bit flips)" if lf.bitflip_prob else "")
                    + (
                        f" (budget {self.corrupt_budget}/rank)"
                        if self.corrupt_budget >= 0
                        else ""
                    )
                )
        if self.coll_corrupt_prob > 0:
            parts.append(f"collective-corrupt p={self.coll_corrupt_prob}")
        for rc in self.resident:
            parts.append(
                f"resident-corrupt rank {rc.rank} at t={rc.after_s * 1e6:.1f}us"
            )
        for s in self.stalls:
            parts.append(f"{s.mode} rank {s.rank} at t={s.after_s * 1e6:.1f}us")
        return "; ".join(parts)

    # ------------------------------------------------------------------ #
    # Deterministic sampling
    # ------------------------------------------------------------------ #

    def _u(self, salt: int, *key: int) -> float:
        """Uniform in [0, 1) keyed on (seed, salt, key) — platform-stable
        (SeedSequence hashing, no shared RNG state)."""
        state = np.random.SeedSequence([self.seed, salt, *key]).generate_state(1)
        return float(state[0]) / float(2**32)

    def link(self, kind: str) -> LinkFaults:
        return self.shm if kind == "shm" else self.ib

    def extra_latency(
        self, kind: str, src: int, dst: int, tag: int, seq: int
    ) -> tuple[float, str]:
        """Extra model time for message ``seq`` on link ``(src,dst,tag)``.

        Returns ``(delay_s, kind)`` where kind is '' (clean), 'jitter' or
        'spike' (spikes dominate when both fire).
        """
        lf = self.link(kind)
        if not lf.active:
            return 0.0, ""
        lid = _LINK_IDS[kind]
        if lf.spike_prob > 0 and (
            self._u(_SALT_SPIKE, lid, src, dst, tag, seq) < lf.spike_prob
        ):
            return lf.spike_s, "spike"
        if lf.jitter_prob > 0 and (
            self._u(_SALT_JITTER, lid, src, dst, tag, seq) < lf.jitter_prob
        ):
            u = self._u(_SALT_JITTER + 100, lid, src, dst, tag, seq)
            return -math.log(1.0 - u) * lf.jitter_s, "jitter"
        return 0.0, ""

    def send_failures(self, src: int, dst: int, tag: int, seq: int) -> int:
        """Number of transient failures before send ``seq`` goes through
        (0 = clean first attempt; always < ``MAX_SEND_ATTEMPTS``)."""
        if self.send_fail_prob <= 0:
            return 0
        k = 0
        while (
            k < MAX_SEND_ATTEMPTS - 1
            and self._u(_SALT_SEND_FAIL, src, dst, tag, seq, k) < self.send_fail_prob
        ):
            k += 1
        return k

    def backoff_s(self, attempt: int) -> float:
        """Model-time backoff before retry ``attempt`` (0-based)."""
        return SEND_RETRY_BACKOFF_S * (2.0**attempt)

    def corrupt_attempts(
        self, kind: str, src: int, dst: int, tag: int, seq: int, *, limit: int
    ) -> tuple[int, str]:
        """How many consecutive transmissions of message ``seq`` arrive
        corrupted (0 = clean), and the damage mode.

        Each NACK-triggered resend redraws independently, so a bounded
        resend usually succeeds — but a probability-1 plan defeats it and
        forces the loud :class:`CorruptionDetected` path.  ``limit``
        bounds the walk (the receiver gives up after ``max_resend``
        anyway).
        """
        lf = self.link(kind)
        p = lf.bitflip_prob + lf.scribble_prob
        if p <= 0:
            return 0, ""
        lid = _LINK_IDS[kind]
        k = 0
        while k <= limit and (
            self._u(_SALT_CORRUPT, lid, src, dst, tag, seq, k) < p
        ):
            k += 1
        if k == 0:
            return 0, ""
        mode = (
            "bitflip"
            if self._u(_SALT_CORRUPT_MODE, lid, src, dst, tag, seq)
            < lf.bitflip_prob / p
            else "scribble"
        )
        return k, mode

    def corrupt_key(
        self, kind: str, src: int, dst: int, tag: int, seq: int
    ) -> tuple[int, ...]:
        """The deterministic seed key for this message's damage pattern."""
        return (
            self.seed, _SALT_CORRUPT_MODE, _LINK_IDS[kind], src, dst, tag, seq,
        )

    def coll_corrupt_key(self, rank: int, coll_index: int) -> tuple[int, ...]:
        """Seed key for the damage pattern of a poisoned contribution
        (offset so it is independent of the fire/no-fire draw)."""
        return (self.seed, _SALT_COLL_CORRUPT, 7919, rank, coll_index)

    def coll_corrupt(self, rank: int, coll_index: int) -> bool:
        """Whether this rank's contribution to collective ``coll_index``
        is poisoned in flight."""
        if self.coll_corrupt_prob <= 0:
            return False
        return (
            self._u(_SALT_COLL_CORRUPT, rank, coll_index)
            < self.coll_corrupt_prob
        )
