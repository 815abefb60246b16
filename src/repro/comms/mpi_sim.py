"""SimMPI: a message-passing runtime with one runnable rank and model-time carry.

``mpi4py`` (and an InfiniBand fabric) are not available here, so the
multi-GPU code runs on this substitute: every rank executes the same SPMD
function, and messages are real NumPy buffers moved through per-link
mailboxes.  Face data genuinely crosses between ranks and collectives
genuinely combine per-rank values, so the ghost-zone exchange of the
parallel dslash is exercised for real.  The API mirrors the mpi4py subset
the paper's patterns need: ``Send/Recv``, ``Isend/Irecv`` + ``wait``,
``Sendrecv``, ``Allreduce``, ``Barrier``.

**The baton.**  Ranks share one interpreter lock, so at most one could
ever run; the runtime says so instead of letting N threads fight over
it.  Each rank keeps a thread *as a stack only* — rank bodies stay
ordinary blocking code — and exactly one of them holds the baton:

==============  ======================================================
``gates[r]``    rank ``r``'s own lock: shut while ``r`` is parked, opened
                by whoever hands ``r`` the baton
``ready``       min-heap of runnable ranks that do not hold the baton
``waiting[r]``  what parked rank ``r`` waits on: a ``(source, tag)``
                message, collective ``#k``, or its planned stall
who wakes whom  ``send`` wakes the rank parked on that ``(src, dst,
                tag)``; the last arrival at a collective wakes the other
                contributors; a rank that dies, stalls or returns wakes
                whoever waits on it (to raise); an empty ``ready`` with a
                non-empty ``waiting`` wakes *everyone* (to raise)
==============  ======================================================

An operation that cannot complete parks its caller and hands the baton
to the lowest-numbered runnable rank.  "No runnable rank while some rank
is still live" *is* deadlock: :class:`MPIDeadlockError` is raised at once
in every waiter, naming who waits on whom — no timer runs anywhere.  The
rank threads stay on the CPU the launching thread is on: they are one
logical thread, and a hand-off costs a few µs on one core where waking a
halted sibling core costs ~100.

**Model time.**  Each rank binds a :class:`~repro.gpu.streams.Timeline`
(its host clock); messages carry the sender's model time, and a receive
completes at ``sender_post_time + network_time`` per the
:class:`~repro.comms.cluster.ClusterSpec` link model — a LogP-style
parallel time simulation.  Completion times are pure functions of the
carried timestamps and per-link delivery is FIFO, so *any* fixed hand-off
order yields the same model clocks (lowest rank first is the cheapest to
state), and the interleaving of rank bodies is itself a function of the
program: a run repeats event for event.

**Orbits.**  A world may simulate fewer threads than it has ranks:
``orbit[r]`` names the rank whose thread stands in for rank ``r``
(:func:`repro.comms.qmp.rank_orbits` computes one for a timing-only
solve, where every rank runs the same program and differs only in the
kind of its links and its NUMA binding).  ``Comm.rank`` is the
representative's own rank and ``Comm.size`` stays N.  Mailboxes are keyed
``(orbit[src], orbit[dst], tag)`` and a receive waits on ``orbit[source]``,
so a representative's send to any member of an orbit is what that
orbit's representative receives from the mirrored peer; the wire time
still uses the virtual ids (``message_time(source, self.rank)``), which a
symmetry preserves.  A collective settles once every representative has
arrived, over the rank-ordered list ``[entry[orbit[r]] for r in
range(N)]``, so its combine, latest entry time and ``allreduce_time(N)``
are those of the full world bit for bit.  :meth:`SimMPI.run` and
:meth:`SimMPI.comm_stats` still answer for N ranks, rank ``r`` with its
representative's result.  Exact because a receive completes at a function
of the carried timestamp, the link kind and nothing else, and a
collective at a function of the entry times and N: symmetric ranks carry
symmetric clocks.  Faults and checksums are drawn per rank and per link,
so a world with a fault plan or integrity checks simulates every rank.

**Faults and integrity.**  A bound :class:`~repro.comms.faults.FaultPlan`
perturbs traffic deterministically (jitter, send retries, stalls, crashes,
corruption).  A dead or stalled peer is on the failure board the moment
it dies, and whoever waits on it is woken to raise
:class:`~repro.comms.faults.RankFailedError`; the stalled rank itself
stays parked until nothing else can run.  Under an
:class:`~repro.comms.faults.IntegrityPolicy` (armed when the plan injects
corruption) envelopes and collective contributions carry checksums:
a mismatch costs NACK + bounded modelled resends on the model clock, then
raises :class:`~repro.comms.faults.CorruptionDetected`.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Any, Callable, NamedTuple

import numpy as np

from ..gpu.streams import Timeline
from .cluster import ClusterSpec
from .faults import (
    CorruptionDetected,
    FaultEvent,
    FaultPlan,
    IntegrityPolicy,
    RankFailedError,
    ResidentCorruption,
    checksum_payload,
    corrupt_payload,
    schedule_sort_key,
)

__all__ = [
    "SimMPI",
    "Comm",
    "CommStats",
    "Request",
    "MPIDeadlockError",
    "RankFailure",
    "SpmdOutcome",
    "run_spmd",
]


class MPIDeadlockError(RuntimeError):
    """A blocking operation can never complete: its partner returned
    without posting, or no rank of the world is runnable."""


def _corrupt_contribution(
    value: Any, plan: FaultPlan, rank: int, key: int
) -> tuple[Any, str]:
    """Poison one collective contribution (pure function of the plan seed).

    Scalars get a few bits flipped in their float representation; arrays
    get a value scribble.  Contributions with no stable byte form (object
    dtype) pass through untouched."""
    seed_key = plan.coll_corrupt_key(rank, key)
    if isinstance(value, np.ndarray):
        return corrupt_payload(value, seed_key=seed_key, mode="scribble")
    arr = np.atleast_1d(np.asarray(value))
    if arr.dtype == object:
        return value, "uncorruptible contribution (object dtype)"
    bad, detail = corrupt_payload(
        arr.copy(), seed_key=seed_key, mode="bitflip", bits=3
    )
    return bad.reshape(-1)[0].item() if arr.size == 1 else bad, detail


@dataclass
class _Envelope:
    """One in-flight message."""

    data: Any
    nbytes: int
    sent_at: float  # sender's model time at post
    extra_delay: float = 0.0  # injected fault latency (model seconds)
    # --- integrity --------------------------------------------------- #
    checksum: int | None = None  # digest of the *pristine* payload
    pristine: Any = None  # uncorrupted copy (set only when data was damaged)
    corrupt_count: int = 0  # consecutive corrupted transmissions modelled


@dataclass(frozen=True)
class _FailRecord:
    """Failure-board entry: how one rank died."""

    rank: int
    op: str
    model_time: float
    mode: str  # 'crashed' | 'stalled'


_EVERYONE = -1  # _Wait.source of a collective: every rank must arrive
_NOBODY = -2  # ... and of a planned stall: nothing a peer does completes it


class _Wait(NamedTuple):
    """What a parked rank waits on."""

    op: str
    source: int  # the rank whose send completes it, _EVERYONE or _NOBODY
    tag: int = 0  # message tag, or the collective's index

    def __str__(self) -> str:
        if self.source == _NOBODY:
            return f"nothing (planned stall in {self.op})"
        if self.source == _EVERYONE:
            return f"{self.op} #{self.tag}"
        return f"{self.op} tag {self.tag}"


@dataclass
class _CollSlot:
    """One collective in flight."""

    # rank -> (sent value, entry time, digest of intended value, pristine copy)
    entries: dict[int, tuple[Any, float, Any, Any]] = field(default_factory=dict)
    departed: int = 0  # the last rank to leave frees the slot
    # Filled in once, by the last rank to arrive:
    latest: float = 0.0  # the latest entry time
    values: list[Any] = field(default_factory=list)  # verified, in rank order
    n_bad: int = 0  # contributions repaired from their pristine copy

    def settle(self, verify: bool, orbit: tuple[int, ...]) -> None:
        """Verify every contribution and fix the rank order, once: rank
        ``r`` contributes its representative's entry."""
        entries = self.entries
        self.latest = max(entry[1] for entry in entries.values())
        for rep in orbit:
            sv, _, sc, pv = entries[rep]
            if verify and sc is not None and checksum_payload(sv) != sc:
                self.n_bad += 1
                self.values.append(pv)
            else:
                self.values.append(sv)


class _Baton:
    """Scheduler, mailboxes and boards of one :meth:`SimMPI.run` call.

    Only the rank holding the baton touches this object (the launcher
    does before the first hand-off and after the last), so nothing in it
    needs a lock: the gates *are* the synchronisation.
    """

    def __init__(self, orbit: tuple[int, ...], simulated: tuple[int, ...]) -> None:
        self.orbit = orbit
        self.n_simulated = len(simulated)
        self.gates = {r: threading.Lock() for r in simulated}
        for gate in self.gates.values():
            gate.acquire()
        self.ready: list[int] = list(simulated)  # sorted, hence a heap
        self.waiting: dict[int, _Wait] = {}
        self.parks = 0
        #: Why no parked rank can ever be woken: the who-waits-on-whom
        #: table of a deadlock, or the launcher's interrupt.  Terminal.
        self.verdict: str | None = None
        self.mailboxes: dict[tuple, deque[_Envelope]] = defaultdict(deque)
        self.coll_slots: dict[int, _CollSlot] = defaultdict(_CollSlot)
        self.dead: dict[int, _FailRecord] = {}  # failure board
        self.finished: set[int] = set()  # ranks whose fn returned
        self.fault_log: list[FaultEvent] = []  # in arrival order

    def _next(self) -> int | None:
        """The lowest runnable rank.  With none runnable but some parked,
        the world is deadlocked: every waiter is made runnable, to raise."""
        if not self.ready:
            if not self.waiting:
                return None
            self.verdict = "no runnable rank: " + "; ".join(
                f"rank {r} waits on {w}" for r, w in sorted(self.waiting.items())
            )
            self.ready = sorted(self.waiting)
            self.waiting.clear()
        return heappop(self.ready)

    def park(self, rank: int, wait: _Wait) -> None:
        """Hand the baton on and block until ``rank`` is handed it back."""
        self.parks += 1
        self.waiting[rank] = wait
        nxt = self._next()
        if nxt != rank:
            self.gates[nxt].release()
            self.gates[rank].acquire()

    def wake(self, rank: int) -> None:
        if self.waiting.pop(rank, None) is not None:
            heappush(self.ready, rank)

    def pass_on(self) -> None:
        """Hand the baton to the next rank, if any, without waiting for it
        back (the launcher's first move, a rank's last)."""
        nxt = self._next()
        if nxt is not None:
            self.gates[nxt].release()

    def exit(self, rank: int, fate: _FailRecord | None) -> None:
        """``rank``'s body returned (``fate is None``) or died."""
        if fate is None:
            self.finished.add(rank)
            self._wake_waiters_on(rank)
        else:
            self.record_failure(fate)
        self.pass_on()

    def record_failure(self, rec: _FailRecord) -> None:
        """Put ``rec`` on the board (a rank's first fate stands) and wake
        whoever waits on that rank."""
        self.dead.setdefault(rec.rank, rec)
        self._wake_waiters_on(rec.rank)

    def _wake_waiters_on(self, rank: int) -> None:
        for r, w in list(self.waiting.items()):
            if w.source == rank or w.source == _EVERYONE:
                self.wake(r)

    def hopeless(self, rank: int, wait: _Wait) -> _FailRecord | str | None:
        """Why ``wait`` can never complete — a sentence, or the fate of
        the peer it needs — or ``None`` while it still can."""
        if self.verdict is not None:
            return self.verdict
        if wait.source == _EVERYONE:
            first = min((r for r in self.dead if r != rank), default=None)
            if first is not None:
                return self.dead[first]
            if self.finished:
                return f"rank {min(self.finished)} returned without entering it"
        elif wait.source in self.dead:
            return self.dead[wait.source]
        elif wait.source in self.finished:
            return f"rank {wait.source} finished without sending (tag {wait.tag})"
        return None


@dataclass
class Request:
    """Handle for a non-blocking operation (mpi4py ``Request`` analogue)."""

    _wait: Callable[[], Any]
    _done: bool = False
    _result: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._result = self._wait()
            self._done = True
        return self._result


@dataclass
class CommStats:
    """Per-rank operation counters (chaos observability)."""

    sends: int = 0
    recvs: int = 0
    collectives: int = 0
    retries: int = 0  # transient send failures survived
    fault_delay_s: float = 0.0  # model time injected into this rank's traffic
    corruptions_detected: int = 0  # checksum mismatches observed here
    corruptions_corrected: int = 0  # deliveries repaired by NACK/resend
    resends: int = 0  # integrity-triggered retransmissions
    integrity_overhead_s: float = 0.0  # model time spent hashing/verifying

    def snapshot(self) -> "CommStats":
        return replace(self)


@dataclass
class Comm:
    """One rank's view of the communicator."""

    rank: int
    size: int
    _state: _Baton
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    timeline: Timeline | None = None
    plan: FaultPlan | None = None
    integrity: IntegrityPolicy = field(default_factory=IntegrityPolicy.off)
    stats: CommStats = field(default_factory=CommStats)
    _coll_count: int = 0
    _send_seq: dict[tuple[int, int], int] = field(default_factory=dict)
    _stall_armed: bool = True
    _resident_armed: bool = True
    _corrupt_seen: int = 0  # corrupted sends so far (plan.corrupt_budget cap)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def bind_timeline(self, timeline: Timeline) -> None:
        """Attach this rank's model clock (usually its GPU's host clock)."""
        self.timeline = timeline

    def _now(self) -> float:
        return self.timeline.host_time if self.timeline is not None else 0.0

    def _advance(self, t: float, label: str, *, fault: bool = False) -> None:
        if self.timeline is not None:
            self.timeline.host_wait_until(t, label, fault=fault)

    def _charge(self, duration: float, label: str, *, fault: bool = False) -> None:
        if self.timeline is not None and duration > 0:
            self.timeline.host_busy(label, duration, fault=fault)

    @staticmethod
    def _payload(data: Any) -> tuple[Any, int]:
        if isinstance(data, np.ndarray):
            return data.copy(), data.nbytes
        if isinstance(data, tuple):
            total = sum(
                v.nbytes for v in data if isinstance(v, np.ndarray)
            )
            copied = tuple(
                v.copy() if isinstance(v, np.ndarray) else v for v in data
            )
            return copied, max(total, 64)
        return data, 64  # small python object: header-sized

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"peer rank {peer} outside communicator of {self.size}")

    def _record_event(self, ev: FaultEvent) -> None:
        self._state.fault_log.append(ev)

    # ------------------------------------------------------------------ #
    # Fault machinery
    # ------------------------------------------------------------------ #

    def _fault_checkpoint(self, op: str) -> None:
        """Trigger this rank's planned stall/crash once its model time
        passes the scheduled point (checked at every comms operation, the
        only places the simulated process is observable)."""
        if self.plan is None or not self._stall_armed:
            return
        spec = self.plan.stall_for(self.rank)
        if spec is None or self._now() < spec.after_s:
            return
        self._stall_armed = False
        now = self._now()
        mode = "crashed" if spec.mode == "crash" else "stalled"
        self._record_event(
            FaultEvent(now, self.rank, spec.mode, op, detail="rank dies here")
        )
        self._state.record_failure(_FailRecord(self.rank, op, now, mode))
        if spec.mode != "crash":
            # Stall: model a hung process — stop responding without a word.
            # Peers see the silence on the failure board; the rank itself
            # stays parked until nothing else can run, then unwinds.
            self._state.park(self.rank, _Wait(op, _NOBODY))
        raise RankFailedError(self.rank, op, now, mode=mode)

    def take_resident_corruption(self) -> tuple[ResidentCorruption, int] | None:
        """One-shot poll: the planned resident-field corruption for this
        rank (with the plan seed for the scribble pattern), once its
        model clock passes the scheduled time.  Solvers poll this each
        iteration and damage their own state — envelope checksums cannot
        see memory errors, so detection falls to the solvers'
        refresh-point invariant monitors."""
        if self.plan is None or not self._resident_armed:
            return None
        spec = self.plan.resident_for(self.rank)
        if spec is None or self._now() < spec.after_s:
            return None
        self._resident_armed = False
        self._record_event(
            FaultEvent(
                self._now(), self.rank, "resident_corrupt", "solver state",
                detail=f"scale {spec.scale:g}",
            )
        )
        return spec, self.plan.seed

    def _await(self, wait: _Wait, satisfied: Callable[[], Any]) -> None:
        """Park until ``satisfied()``; raise the structured reason if that
        can no longer happen.  ``satisfied`` is tested first, so whatever
        a peer posted before it died drains before its fate is consulted."""
        state = self._state
        while not satisfied():
            why = state.hopeless(self.rank, wait)
            if isinstance(why, _FailRecord):
                died = f"peer died in {why.op} at t={why.model_time * 1e6:.3f}us"
                raise RankFailedError(
                    why.rank, wait.op, self._now(), mode=why.mode, detail=died
                )
            if why is not None:
                raise MPIDeadlockError(f"rank {self.rank}: {wait.op}: {why} — deadlock")
            state.park(self.rank, wait)

    # ------------------------------------------------------------------ #
    # Point to point
    # ------------------------------------------------------------------ #

    def send(self, data: Any, dest: int, tag: int = 0, *, nbytes: int | None = None) -> None:
        """Buffered send: never blocks (envelopes queue at the receiver).

        ``nbytes`` overrides the wire-size accounting — required in
        timing-only mode, where face messages carry no actual arrays but
        must still cost their true size on the network model.

        Under a fault plan the send may suffer transient failures (each
        retried after exponential model-time backoff) and the message may
        pick up injected latency, all sampled deterministically from the
        plan's seed and this link's message sequence number.
        """
        self._check_peer(dest)
        self._fault_checkpoint("MPI_Send")
        self.stats.sends += 1
        payload, auto_bytes = self._payload(data)
        wire_bytes = nbytes if nbytes is not None else auto_bytes
        extra_delay = 0.0
        pristine: Any = None
        corrupt_count = 0
        checksum: int | None = None
        if self.plan is not None:
            seq = self._send_seq.get((dest, tag), 0)
            self._send_seq[(dest, tag)] = seq + 1
            failures = self.plan.send_failures(self.rank, dest, tag, seq)
            for attempt in range(failures):
                backoff = self.plan.backoff_s(attempt)
                self._record_event(
                    FaultEvent(
                        self._now(), self.rank, "send_retry", "MPI_Send",
                        peer=dest, delay_s=backoff,
                        detail=f"attempt {attempt + 1} failed",
                    )
                )
                self._charge(backoff, f"fault:retry(->{dest})", fault=True)
                self.stats.retries += 1
                self.stats.fault_delay_s += backoff
            kind = self.cluster.link_kind(self.rank, dest)
            extra_delay, fkind = self.plan.extra_latency(
                kind, self.rank, dest, tag, seq
            )
            if extra_delay > 0.0:
                self._record_event(
                    FaultEvent(
                        self._now(), self.rank, fkind, "MPI_Send",
                        peer=dest, delay_s=extra_delay, detail=f"link {kind}",
                    )
                )
                self.stats.fault_delay_s += extra_delay
            lf = self.plan.link(kind)
            budget = self.plan.corrupt_budget
            remaining = (
                budget - self._corrupt_seen if budget >= 0 else -1
            )
            if lf.corrupting and remaining != 0:
                # The budget caps corrupted *transmissions* (resends
                # included), so a budget-1 probability-1 plan corrupts
                # exactly one delivery and the first resend goes clean —
                # the deterministic detect-and-recover regression plan.
                limit = (
                    self.integrity.max_resend
                    if remaining < 0
                    else min(self.integrity.max_resend, remaining - 1)
                )
                corrupt_count, mode = self.plan.corrupt_attempts(
                    kind, self.rank, dest, tag, seq, limit=limit,
                )
                if corrupt_count:
                    self._corrupt_seen += corrupt_count
                    bad, dmg = corrupt_payload(
                        payload,
                        seed_key=self.plan.corrupt_key(
                            kind, self.rank, dest, tag, seq
                        ),
                        mode=mode,
                        bits=lf.bitflip_bits,
                    )
                    if bad is not payload:  # real data was damaged
                        pristine, payload = payload, bad
                    self._record_event(
                        FaultEvent(
                            self._now(), self.rank, mode, "MPI_Send",
                            peer=dest,
                            detail=f"link {kind}; {dmg}"
                            + (
                                f"; survives {corrupt_count - 1} resend(s)"
                                if corrupt_count > 1
                                else ""
                            ),
                        )
                    )
        self._charge(self.cluster.params.mpi_overhead_s, "MPI_Send")
        if self.integrity.verify:
            checksum = checksum_payload(
                pristine if pristine is not None else payload
            )
            cost = self.integrity.cost_s(wire_bytes)
            self._charge(cost, f"integrity:hash(->{dest})")
            self.stats.integrity_overhead_s += cost
        env = _Envelope(
            payload,
            wire_bytes,
            self._now(),
            extra_delay,
            checksum=checksum,
            pristine=pristine,
            corrupt_count=corrupt_count,
        )
        state = self._state
        dest = state.orbit[dest]
        state.mailboxes[(self.rank, dest, tag)].append(env)
        parked = state.waiting.get(dest)
        if parked is not None and parked.source == self.rank and parked.tag == tag:
            state.wake(dest)

    def recv(
        self, source: int, tag: int = 0, *, with_checksum: bool = False
    ) -> Any:
        """Blocking receive; completes at the modelled arrival time (plus
        any fault latency the message picked up in flight).

        With verification armed, the envelope's checksum is checked on
        delivery: a mismatch triggers NACK + bounded modelled resends and
        finally :class:`CorruptionDetected`.  ``with_checksum=True``
        returns ``(data, checksum)`` so a caller can re-verify after
        further processing (the ghost-zone scatter does)."""
        self._check_peer(source)
        self._fault_checkpoint("MPI_Recv")
        self.stats.recvs += 1
        op = f"MPI_Recv(from {source})"
        sender = self._state.orbit[source]
        box = self._state.mailboxes[(sender, self.rank, tag)]
        if not box:
            self._await(_Wait(op, sender, tag), box.__len__)
        env = box.popleft()
        arrival = env.sent_at + self.cluster.message_time(
            source, self.rank, env.nbytes
        )
        self._advance(arrival, op)
        if env.extra_delay > 0.0:
            self._advance(
                arrival + env.extra_delay, f"fault:late(from {source})", fault=True
            )
        data = self._verify_envelope(env, source, op)
        if with_checksum:
            return data, env.checksum
        return data

    def _delivery_corrupt(self, env: _Envelope, delivery: int) -> bool:
        """Whether delivery number ``delivery`` (1-based) of this envelope
        arrives corrupted.  The first delivery of a data-bearing payload
        is judged by the *actual* checksum — detection is real, not
        modelled; resends (and timing-only payloads, which carry no bytes
        to damage) consult the envelope's sampled corruption count."""
        if env.checksum is not None and delivery == 1 and (
            env.pristine is not None or env.corrupt_count == 0
        ):
            return checksum_payload(env.data) != env.checksum
        return delivery <= env.corrupt_count

    def _verify_envelope(self, env: _Envelope, source: int, op: str) -> Any:
        """Checksum verification with NACK + bounded resend.

        Sends are buffered, so the retransmission loop is modelled on the
        receiving side: the envelope carries how many consecutive
        transmissions arrive corrupted (independently redrawn from the
        plan seed), and each NACK costs a full extra message time on the
        model clock.  A mismatch outliving ``max_resend`` raises
        :class:`CorruptionDetected` — never a silent delivery.
        """
        if not self.integrity.verify or env.checksum is None:
            return env.data
        cost = self.integrity.cost_s(env.nbytes)
        self._charge(cost, f"integrity:verify(from {source})")
        self.stats.integrity_overhead_s += cost
        delivery = 1
        while self._delivery_corrupt(env, delivery):
            self.stats.corruptions_detected += 1
            actual = (
                checksum_payload(env.data)
                if env.pristine is not None
                else (env.checksum ^ 0xFFFFFFFF)  # modelled mismatch
            )
            if delivery > self.integrity.max_resend:
                self._record_event(
                    FaultEvent(
                        self._now(), self.rank, "corruption_detected", op,
                        peer=source,
                        detail=f"unrecoverable: {delivery - 1} resend(s) exhausted",
                    )
                )
                raise CorruptionDetected(
                    self.rank, op, self._now(),
                    link=self.cluster.link_kind(source, self.rank),
                    expected=env.checksum, actual=actual,
                    detail=f"{delivery - 1} resend(s) exhausted",
                )
            resend = (
                self.cluster.message_time(source, self.rank, env.nbytes) + cost
            )
            self._charge(resend, f"fault:resend(from {source})", fault=True)
            self.stats.resends += 1
            self.stats.fault_delay_s += resend
            self._record_event(
                FaultEvent(
                    self._now(), self.rank, "nack_resend", op, peer=source,
                    delay_s=resend,
                    detail=(
                        f"delivery {delivery}: checksum {actual:#010x} != "
                        f"{env.checksum:#010x}; NACK"
                    ),
                )
            )
            delivery += 1
        if delivery > 1:
            self.stats.corruptions_corrected += 1
            self._record_event(
                FaultEvent(
                    self._now(), self.rank, "corruption_detected", op,
                    peer=source,
                    detail=f"corrected after {delivery - 1} resend(s)",
                )
            )
            return env.pristine if env.pristine is not None else env.data
        return env.data

    def isend(self, data: Any, dest: int, tag: int = 0, *, nbytes: int | None = None) -> Request:
        """Non-blocking send (our sends are buffered, so it completes
        immediately; the host still pays the posting overhead)."""
        self.send(data, dest, tag, nbytes=nbytes)
        return Request(_wait=lambda: None, _done=True)

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive; ``wait()`` performs the blocking part."""
        self._check_peer(source)
        self._charge(self.cluster.params.mpi_overhead_s, "MPI_Irecv")
        return Request(_wait=lambda: self.recv(source, tag))

    def sendrecv(
        self, data: Any, dest: int, source: int, *, sendtag: int = 0, recvtag: int = 0
    ) -> Any:
        """Combined send/receive (safe because sends never block)."""
        self.send(data, dest, sendtag)
        return self.recv(source, recvtag)

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #

    def _collective(
        self,
        value: Any,
        combine: Callable[[list[Any]], Any],
        nbytes: int,
        op: str = "MPI_Allreduce",
    ) -> Any:
        """Generic synchronizing collective with model-time semantics:
        everyone leaves at ``max(entry times) + allreduce_time``.

        With verification armed, each contribution carries a digest of
        the value the rank *meant* to contribute; the last rank to arrive
        verifies all contributions, once, into the slot, and every rank
        then applies ``combine`` to that one list itself.  A poisoned
        contribution is
        repaired from the pristine copy and costs one extra reduction
        round (modelled NACK + re-contribution); detections are counted
        on rank 0 only so aggregate stats stay world-size independent.
        With verification off, the poisoned value flows into the combine
        on every rank — deterministically, silently wrong.
        """
        self._fault_checkpoint(op)
        self.stats.collectives += 1
        key = self._coll_count
        self._coll_count += 1
        sent, pristine, chk = value, value, None
        if (
            self.plan is not None
            and value is not None
            and self.plan.coll_corrupt(self.rank, key)
        ):
            sent, dmg = _corrupt_contribution(value, self.plan, self.rank, key)
            self._record_event(
                FaultEvent(
                    self._now(), self.rank, "coll_corrupt", op,
                    detail=f"collective #{key}; {dmg}",
                )
            )
        if self.integrity.verify:
            chk = checksum_payload(pristine)
            cost = self.integrity.cost_s(max(nbytes, 16))
            self._charge(cost, f"integrity:hash({op})")
            self.stats.integrity_overhead_s += cost
        state = self._state
        slot = state.coll_slots[key]
        entries = slot.entries
        entries[self.rank] = (sent, self._now(), chk, pristine)
        everyone = state.n_simulated
        if len(entries) == everyone:  # last to arrive: settle, release
            slot.settle(self.integrity.verify, state.orbit)
            for r in entries:
                state.wake(r)
        else:
            self._await(
                _Wait(op, _EVERYONE, key), lambda: len(entries) == everyone
            )
        n_bad = slot.n_bad
        result = combine(slot.values)
        completion = slot.latest + self.cluster.allreduce_time(self.size, nbytes)
        if n_bad:
            # Each poisoned contribution costs one extra reduction round
            # (NACK + re-contribution) before anyone can leave.
            penalty = n_bad * self.cluster.allreduce_time(self.size, nbytes)
            self._advance(completion, op)
            self._advance(
                completion + penalty, f"fault:coll_resend({op})", fault=True
            )
            completion += penalty
            if self.rank == 0:
                self.stats.corruptions_detected += n_bad
                self.stats.corruptions_corrected += n_bad
                self.stats.resends += n_bad
                self.stats.fault_delay_s += penalty
                self._record_event(
                    FaultEvent(
                        completion, 0, "corruption_detected", op,
                        delay_s=penalty,
                        detail=(
                            f"{n_bad} poisoned contribution(s) to collective "
                            f"#{key}; re-contributed"
                        ),
                    )
                )
        else:
            self._advance(completion, op)
        slot.departed += 1
        if slot.departed == everyone:
            del state.coll_slots[key]
        return result

    def allreduce(self, value: float | complex | np.ndarray) -> Any:
        """Global sum — the only reduction the solvers need (Section VI-E)."""
        nbytes = value.nbytes if isinstance(value, np.ndarray) else 16
        def _sum(values: list[Any]) -> Any:
            total = values[0]
            for v in values[1:]:
                total = total + v
            return total

        return self._collective(value, _sum, nbytes)

    def allgather(self, value: Any) -> list[Any]:
        nbytes = value.nbytes if isinstance(value, np.ndarray) else 64
        return self._collective(value, lambda vs: list(vs), nbytes, op="MPI_Allgather")

    def barrier(self) -> None:
        self._collective(None, lambda vs: None, 0, op="MPI_Barrier")

    def bcast(self, value: Any, root: int = 0) -> Any:
        return self._collective(value, lambda vs: vs[root], 64, op="MPI_Bcast")


@dataclass(frozen=True)
class RankFailure:
    """One rank's demise, as reported by :class:`SpmdOutcome`."""

    rank: int
    op: str
    model_time: float
    mode: str  # 'crashed' | 'stalled' | 'collateral'
    error: BaseException


@dataclass
class SpmdOutcome:
    """Result of :meth:`SimMPI.run` with ``return_partial=True``.

    Graceful-degradation report: per-rank results (``None`` for dead
    ranks), structured failures, the injected fault schedule, and the
    per-rank comm statistics.  All threads are joined by the time this
    is returned — partial does not mean leaky.
    """

    results: list[Any]
    failures: dict[int, RankFailure]
    fault_events: list[FaultEvent]
    stats: list[CommStats]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def survivors(self) -> list[int]:
        return [r for r in range(len(self.results)) if r not in self.failures]

    def root_failure(self) -> RankFailure:
        """The failure that started it: planned deaths outrank collateral
        fallout (peers observing the death), earliest model time breaks
        ties.  Raises ``ValueError`` when nothing
        failed."""
        if not self.failures:
            raise ValueError("outcome has no failures")
        ranked = sorted(
            self.failures.values(),
            key=lambda f: (f.mode == "collateral", f.model_time, f.rank),
        )
        return ranked[0]


def _current_cpu() -> int | None:
    """The CPU the calling thread is on (field 39 of its ``stat`` line),
    or ``None`` where the kernel does not say."""
    try:
        with open("/proc/thread-self/stat") as f:
            return int(f.read().rpartition(")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class SimMPI:
    """An MPI "world": create once, then :meth:`run` an SPMD function.

    ``orbit[r]`` is the rank whose thread stands in for rank ``r`` (see
    "Orbits" above); ``None`` simulates every rank.  :attr:`simulated`
    lists the ranks that get a thread.
    """

    def __init__(
        self,
        size: int,
        cluster: ClusterSpec | None = None,
        fault_plan: FaultPlan | None = None,
        integrity: IntegrityPolicy | None = None,
        orbit: tuple[int, ...] | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        orbit = tuple(range(size)) if orbit is None else tuple(orbit)
        if len(orbit) != size or any(
            not 0 <= rep < size or orbit[rep] != rep for rep in orbit
        ):
            raise ValueError(
                f"orbit map {orbit} must send each of {size} ranks to a rank "
                "that represents itself"
            )
        if fault_plan is not None:
            for verb, specs in (("stalls", fault_plan.stalls), ("corrupts", fault_plan.resident)):
                for spec in specs:
                    if not 0 <= spec.rank < size:
                        raise ValueError(
                            f"fault plan {verb} rank {spec.rank}, world has {size}"
                        )
        self.size = size
        self.cluster = cluster or ClusterSpec()
        self.fault_plan = fault_plan
        if integrity is None:
            # Verification arms itself exactly when the plan injects
            # corruption: healthy runs (and latency/crash-only chaos
            # runs) stay byte-identical to the unprotected runtime, so
            # golden timings hold; pass an explicit policy to measure
            # the always-on overhead.
            integrity = (
                IntegrityPolicy()
                if fault_plan is not None and fault_plan.injects_corruption
                else IntegrityPolicy.off()
            )
        self.integrity = integrity
        self.orbit = orbit
        #: The ranks that run a thread, ascending (every rank unless folded).
        self.simulated = tuple(sorted(set(orbit)))
        if len(self.simulated) < size and (fault_plan is not None or integrity.verify):
            # Faults and checksums are drawn per rank and per link: one
            # thread cannot stand in for another's draws.
            raise ValueError("a fault plan or integrity checks need every rank simulated")
        self._state: _Baton | None = None  # the last run's
        self._comms: dict[int, Comm] | None = None

    def fault_events(self) -> list[FaultEvent]:
        """All faults injected into the last :meth:`run`, in schedule
        order (``schedule_sort_key``, which the schedule goldens pin; the
        log itself is in arrival order, just as reproducible)."""
        if self._state is None:
            return []
        return sorted(self._state.fault_log, key=schedule_sort_key)

    def comm_stats(self) -> list[CommStats]:
        """Per-rank comm counters of the last :meth:`run` (snapshots; rank
        ``r`` reports its representative's)."""
        if self._comms is None:
            return []
        return [self._comms[rep].stats.snapshot() for rep in self.orbit]

    # ------------------------------------------------------------------ #
    # SPMD driver
    # ------------------------------------------------------------------ #

    def run(
        self, fn: Callable[[Comm], Any], *, return_partial: bool = False
    ) -> list[Any] | SpmdOutcome:
        """Run ``fn(comm)`` on every rank; return per-rank results.

        Only the :attr:`simulated` ranks run ``fn``; every other rank
        reports its representative's result.  Every call builds its own
        scheduler, mailboxes and boards: a world can be run again, and
        nothing of one run leaks into the next.  Default mode re-raises
        the root failure's exception (:meth:`SpmdOutcome.root_failure`:
        the earliest death, not its fallout) in the caller, annotated
        with the rank, after all threads have been joined.
        With ``return_partial=True`` nothing is raised: a
        :class:`SpmdOutcome` reports surviving ranks' results alongside
        structured failures — the graceful-degradation path for chaos
        runs.  There is no wall-clock guard: a body that never reaches a
        comms operation holds the baton, as a spinning process its node.
        """
        state = self._state = _Baton(self.orbit, self.simulated)
        results: dict[int, Any] = {}
        errors: list[tuple[int, BaseException]] = []
        comms = self._comms = {
            rank: Comm(
                rank=rank,
                size=self.size,
                _state=state,
                cluster=self.cluster,
                plan=self.fault_plan,
                integrity=self.integrity,
                # A default clock so model time advances (and time-based
                # fault plans fire) even for bare workloads; the solver
                # rebinds it to the rank's GPU host clock (bind_timeline).
                timeline=Timeline(),
            )
            for rank in self.simulated
        }
        cpu = _current_cpu()

        def worker(rank: int) -> None:
            if cpu is not None:
                try:  # this thread only; the caller's mask is not touched
                    os.sched_setaffinity(0, {cpu})
                except (AttributeError, OSError):
                    pass  # no thread affinity here, or refused: run anyway
            state.gates[rank].acquire()
            fate = None
            try:
                results[rank] = fn(comms[rank])
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                errors.append((rank, exc))
                # Planned stalls/crashes already registered themselves;
                # anything else (user code, collateral) goes on the board
                # so peers blocked on this rank unwind at once.
                fate = _FailRecord(rank, "user code", comms[rank]._now(), "crashed")
            state.exit(rank, fate)

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"simmpi-rank{r}")
            for r in self.simulated
        ]
        for t in threads:
            t.start()
        state.pass_on()
        try:
            for t in threads:
                t.join()
        except BaseException:
            # Interrupted while ranks are parked: have each unwind (raise
            # at its next blocking operation) before re-raising.
            state.verdict = "run interrupted in the launcher"
            for t in threads:
                t.join()
            raise

        if return_partial:
            return self._partial_outcome(results, errors)
        if errors:
            # The root cause, by the rule recovery uses (the earliest
            # death, not the fallout it triggered).
            root = self._partial_outcome(results, errors).root_failure()
            wrapped = RuntimeError(f"rank {root.rank} failed: {root.error!r}")
            wrapped.fault_events = self.fault_events()
            raise wrapped from root.error
        return [results[rep] for rep in self.orbit]

    def _partial_outcome(
        self, results: dict[int, Any], errors: list[tuple[int, BaseException]]
    ) -> SpmdOutcome:
        failed: dict[int, RankFailure] = {}
        for rank, exc in errors:
            if isinstance(exc, RankFailedError):
                mode = exc.mode if exc.rank == rank else "collateral"
                failed[rank] = RankFailure(rank, exc.op, exc.model_time, mode, exc)
            else:
                failed[rank] = RankFailure(
                    rank, "user code", self._comms[rank]._now(), "crashed", exc
                )
        failures = {
            r: replace(failed[rep], rank=r)
            for r, rep in enumerate(self.orbit)
            if rep in failed
        }
        return SpmdOutcome(
            [None if rep in failed else results[rep] for rep in self.orbit],
            failures,
            self.fault_events(),
            self.comm_stats(),
        )


def run_spmd(
    size: int,
    fn: Callable[[Comm], Any],
    cluster: ClusterSpec | None = None,
    fault_plan: FaultPlan | None = None,
    integrity: IntegrityPolicy | None = None,
    **kwargs,
) -> list[Any] | SpmdOutcome:
    """One-shot convenience: build a world and run ``fn`` on every rank."""
    return SimMPI(size, cluster, fault_plan, integrity).run(fn, **kwargs)
