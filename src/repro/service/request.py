"""Solve requests and their lifecycle records.

A :class:`SolveRequest` is the service's unit of work: one call to the
solver, as the paper's analysis campaigns issue by the tens of thousands
per gauge configuration.  The immutable request carries everything the
scheduler needs to decide *when* and *with whom* to run it; the mutable
:class:`RequestRecord` carries everything observability needs to explain
*what happened* — admission, batching, dispatch, retries, completion or
a :class:`StructuredFailure` — stamped in model time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

__all__ = [
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
    "SolveRequest",
    "StructuredFailure",
    "RequestRecord",
    "Notes",
]

PRIORITY_NAMES = {0: "high", 1: "normal", 2: "low"}

#: Priority classes, lower value = more urgent.  HIGH is the interactive
#: tier (expedited past the batching window), NORMAL the campaign bulk,
#: LOW the backfill tier.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Request lifecycle states.  QUEUED and RUNNING are transient; every
#: admitted request must end in COMPLETED or FAILED (the service's
#: no-lost-requests invariant), and REJECTED requests never enter the
#: queue at all.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
REJECTED = "rejected"

TERMINAL_STATES = (COMPLETED, FAILED, REJECTED)


def flag_field(default, flag: str, help: str | None = None, *, scale: float | None = None):
    """A config field that one ``repro serve`` flag sets, declared on the
    field: ``help`` documents both, and the flag's value is multiplied by
    ``scale`` (its unit) when given."""
    metadata = dict(flag=flag, help=help)
    if scale is not None:
        metadata["scale"] = scale
    return field(default=default, metadata=metadata)


@functools.lru_cache(maxsize=1024, typed=True)
def _shared_key(config_id: int, dims: tuple, mode: str, solver: str, mass: float) -> tuple:
    """The batching key, one tuple per distinct key (of the last 1,024):
    a campaign draws its requests from a handful of configurations, so
    its requests share a few keys instead of holding one each."""
    return (config_id, dims, mode, solver, mass)


@dataclass(frozen=True, slots=True)
class SolveRequest:
    """One solver call submitted to the service."""

    req_id: int
    #: Gauge configuration identity: workers derive the (weak-field)
    #: configuration deterministically from this id, and only requests
    #: on the same configuration may share a batch.
    config_id: int = 0
    dims: tuple[int, int, int, int] = (8, 8, 8, 32)
    #: Precision recipe (Section VII-A mode vocabulary).
    mode: str = "single-half"
    solver: str = "bicgstab"
    mass: float = 0.2
    #: Seeds the right-hand side (functional mode).
    source_seed: int = 0
    priority: int = PRIORITY_NORMAL
    #: Model time of submission.
    arrival_s: float = 0.0
    #: Absolute model-time SLO: completion after this still counts as
    #: throughput but not as *goodput*.  ``None`` = no deadline.
    deadline_s: float | None = None
    #: Owning tenant (multi-tenant campaigns); ``None`` = untenanted
    #: traffic, which bypasses quota and fairness accounting entirely.
    tenant: str | None = None
    #: The batching key (:attr:`compat_key`), set once at construction.
    _compat_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.dims) != 4:
            raise ValueError("dims must be (X, Y, Z, T)")
        if self.priority not in (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW):
            raise ValueError(f"unknown priority {self.priority}")
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be >= 0")
        if self.deadline_s is not None and self.deadline_s < self.arrival_s:
            raise ValueError("deadline_s must not precede arrival_s")
        # The batching key is read for every queued record on every
        # scheduler pass; the request is frozen, so look it up once
        # (hence the object.__setattr__).
        object.__setattr__(
            self,
            "_compat_key",
            _shared_key(self.config_id, self.dims, self.mode, self.solver, self.mass),
        )

    @property
    def compat_key(self) -> tuple:
        """Requests with equal keys may share one multi-RHS batch: one
        device setup (gauge upload, ghost exchange, operators, autotune)
        serves them all, so everything that shapes the setup is in the
        key."""
        return self._compat_key

    # ------------------------------------------------------------------ #
    # Checkpoint serialization (campaign-level self-healing)
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        out = {
            "req_id": self.req_id,
            "config_id": self.config_id,
            "dims": list(self.dims),
            "mode": self.mode,
            "solver": self.solver,
            "mass": self.mass,
            "source_seed": self.source_seed,
            "priority": self.priority,
            "arrival_s": self.arrival_s,
            "deadline_s": self.deadline_s,
        }
        # Only tenanted requests carry the key, so untenanted checkpoint
        # bytes match what pre-tenancy builds committed.
        if self.tenant is not None:
            out["tenant"] = self.tenant
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SolveRequest":
        return cls(
            req_id=int(data["req_id"]),
            config_id=int(data["config_id"]),
            dims=tuple(data["dims"]),
            mode=data["mode"],
            solver=data["solver"],
            mass=float(data["mass"]),
            source_seed=int(data["source_seed"]),
            priority=int(data["priority"]),
            arrival_s=float(data["arrival_s"]),
            deadline_s=(
                float(data["deadline_s"]) if data["deadline_s"] is not None else None
            ),
            tenant=data.get("tenant"),
        )


@dataclass(frozen=True, slots=True)
class StructuredFailure:
    """Why a request terminally failed — never a bare exception string.

    ``kind`` is ``'worker_crash'`` (a rank of the worker's cluster died
    and the retry budget ran out), ``'solver_breakdown'`` (the
    escalation ladder was exhausted), or ``'execution_error'`` (anything
    else the worker surfaced).  ``attempts`` counts dispatches consumed,
    so the report shows the service did not give up early.
    """

    kind: str
    detail: str = ""
    failed_rank: int = -1
    model_time: float = 0.0
    attempts: int = 0

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "failed_rank": self.failed_rank,
            "model_time": self.model_time,
            "attempts": self.attempts,
        }

    @classmethod
    def from_json(cls, data: dict) -> "StructuredFailure":
        return cls(
            kind=data["kind"],
            detail=data["detail"],
            failed_rank=int(data["failed_rank"]),
            model_time=float(data["model_time"]),
            attempts=int(data["attempts"]),
        )


#: Events whose detail is noted as one int and formatted when first
#: read: a campaign notes one per arrival and one per admission, and a
#: small int costs nothing where its string costs ~58 bytes.
_DEFERRED = {"arrive": "priority {}", "admit": "depth {}"}


class Notes:
    """A lifecycle trace kept flat: ``notes`` holds ``time, event,
    detail, time, event, detail, …`` in decision order — no tuple per
    note.  A detail is a string, or for the :data:`_DEFERRED` events the
    int its string is formatted from, in place, the first time the notes
    are read (a checkpointed record is read at every commit while it is
    pending)."""

    __slots__ = ()

    def note(self, time_s: float, event: str, detail: str | int = "") -> None:
        self.notes.extend((time_s, event, detail))

    @property
    def trace(self) -> tuple[tuple[float, str, str], ...]:
        """``(model time, event, detail)`` per note, in decision order."""
        it = iter(self._formatted())
        return tuple(zip(it, it, it))

    def _formatted(self) -> list:
        notes = self.notes
        for i in range(2, len(notes), 3):
            if notes[i].__class__ is not str:
                notes[i] = _DEFERRED[notes[i - 1]].format(notes[i])
        return notes


@dataclass(slots=True)
class RequestRecord(Notes):
    """The mutable lifecycle of one request inside the service."""

    request: SolveRequest
    state: str = QUEUED
    admitted_s: float | None = None
    #: First dispatch (queue wait = first_dispatch - arrival).
    dispatched_s: float | None = None
    completed_s: float | None = None
    attempts: int = 0
    batch_ids: list[int] = field(default_factory=list)
    failure: StructuredFailure | None = None
    #: Backpressure hint stamped on rejection: resubmit after this many
    #: model seconds and admission is expected to succeed.
    retry_after_s: float | None = None
    #: Process grid the completing dispatch ran on (``None`` = time-only
    #: slicing), stamped by the placement layer at dispatch.
    grid: tuple[int, int] | None = None
    #: Solver outcome of the completing attempt.
    iterations: int = 0
    converged: bool = False
    residual_norm: float = float("nan")
    recoveries: int = 0
    #: Times this request's running batch was preempted at a refresh
    #: boundary by higher-priority work (the solve resumed, not restarted).
    preemptions: int = 0
    #: Served at a downgraded precision tier under brownout — the answer
    #: arrived, but "served degraded" is a different promise than
    #: "served" and the report must be able to tell them apart.
    degraded: bool = False
    #: Rejected by brownout load-shedding (as opposed to a full queue):
    #: the service *chose* to shed this request while capacity remained
    #: for more urgent tiers.
    shed: bool = False
    #: Lifecycle notes, flat (:class:`Notes`); read them as ``trace``.
    notes: list = field(default_factory=list, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def wait_s(self) -> float | None:
        """Queue wait: arrival to first dispatch."""
        if self.dispatched_s is None:
            return None
        return self.dispatched_s - self.request.arrival_s

    @property
    def latency_s(self) -> float | None:
        """End-to-end: arrival to terminal completion."""
        if self.completed_s is None:
            return None
        return self.completed_s - self.request.arrival_s

    @property
    def met_deadline(self) -> bool:
        """Whether the completion honoured the request's SLO (requests
        without a deadline trivially do)."""
        if self.state != COMPLETED:
            return False
        if self.request.deadline_s is None:
            return True
        return self.completed_s <= self.request.deadline_s

    def render_trace(self) -> str:
        return "\n".join(
            f"{t * 1e6:12.3f}us  {event:<12} {detail}"
            for t, event, detail in self.trace
        )

    # ------------------------------------------------------------------ #
    # Checkpoint serialization (campaign-level self-healing)
    # ------------------------------------------------------------------ #

    def to_json(self) -> dict:
        it = iter(self._formatted())
        return {
            "request": self.request.to_json(),
            "state": self.state,
            "admitted_s": self.admitted_s,
            "dispatched_s": self.dispatched_s,
            "completed_s": self.completed_s,
            "attempts": self.attempts,
            "batch_ids": list(self.batch_ids),
            "failure": self.failure.to_json() if self.failure else None,
            "retry_after_s": self.retry_after_s,
            "grid": list(self.grid) if self.grid is not None else None,
            "iterations": self.iterations,
            "converged": self.converged,
            "residual_norm": self.residual_norm,
            "recoveries": self.recoveries,
            "preemptions": self.preemptions,
            "degraded": self.degraded,
            "shed": self.shed,
            "trace": [[t, event, detail] for t, event, detail in zip(it, it, it)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RequestRecord":
        return cls(
            request=SolveRequest.from_json(data["request"]),
            state=data["state"],
            admitted_s=data["admitted_s"],
            dispatched_s=data["dispatched_s"],
            completed_s=data["completed_s"],
            attempts=int(data["attempts"]),
            batch_ids=[int(b) for b in data["batch_ids"]],
            failure=(
                StructuredFailure.from_json(data["failure"])
                if data["failure"]
                else None
            ),
            retry_after_s=data["retry_after_s"],
            grid=tuple(data["grid"]) if data["grid"] is not None else None,
            iterations=int(data["iterations"]),
            converged=bool(data["converged"]),
            residual_norm=float(data["residual_norm"]),
            recoveries=int(data["recoveries"]),
            preemptions=int(data.get("preemptions", 0)),
            degraded=bool(data.get("degraded", False)),
            shed=bool(data.get("shed", False)),
            notes=[part for note in data["trace"] for part in note],
        )
