"""CUDA-like execution timeline: streams, events, and engine contention.

The multi-GPU paper lives and dies by *when* things run, not just what
they compute, so the virtual GPU carries a discrete-event timeline that
assigns a start and end model-time to every operation while the NumPy
numerics (optionally) execute underneath.  The model captures the GT200
execution rules that shape the paper's results:

* **One compute engine** — concurrent kernels are a Fermi feature; on the
  GTX 285 kernels serialize globally even across streams.  The overlap
  strategy of Section VI-D2 therefore overlaps the interior *kernel* with
  *copies*, never kernel with kernel.
* **One copy engine** — PCIe transfers serialize with each other, and
  bidirectional transfer is also Fermi-only ("The Fermi architecture
  improves upon this model by allowing for bidirectional transfers",
  footnote 4).
* **Streams order operations**: two operations on the same stream
  execute in issue order; operations on different streams may overlap
  subject to engine availability.  ``cudaStreamSynchronize`` blocks the
  host until a stream drains — exactly the synchronization point the
  paper inserts before message passing ("the streams responsible for
  gathering the faces to the host must be synchronized ... before message
  passing can take place").
* **Sync vs async copies** have very different latencies (Fig. 7); a
  synchronous ``cudaMemcpy`` additionally blocks the host and (as used
  here, on the default stream) waits for previously launched kernels.

The host itself is modelled as a sequential timeline: submitting work
costs a few microseconds; blocking calls advance host time to the
operation's completion.

Every operation is recorded, in functional and timing-only runs alike:
the solvers attribute flops from the record (:meth:`Timeline.flops_since`)
and the Gantt trace and profiler read it.  A timing-only paper-scale sweep
submits hundreds of thousands of them, so a record is a
:class:`~typing.NamedTuple` (built in a third of a frozen dataclass's
time, and smaller) and the two submit paths do their bookkeeping inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .perfmodel import PerfModelParams, DEFAULT_PARAMS

__all__ = ["TimelineOp", "Timeline", "Event"]

#: The default stream (CUDA stream 0).
DEFAULT_STREAM = 0


class TimelineOp(NamedTuple):
    """One completed operation on the device/host timeline."""

    name: str
    kind: str  # 'kernel' | 'h2d' | 'd2h' | 'host' | 'wait'
    stream: int
    start: float
    end: float
    nbytes: int = 0
    flops: int = 0
    #: Time injected by fault injection (retry backoff, late arrival)
    #: rather than modelled healthy execution — rendered distinctly in
    #: the Gantt trace so chaos runs are visually diagnosable.
    fault: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Event:
    """A recorded timestamp on a stream (cudaEvent analogue)."""

    time: float
    stream: int


@dataclass
class Timeline:
    """Discrete-event schedule for one GPU and its host process."""

    params: PerfModelParams = field(default_factory=lambda: DEFAULT_PARAMS)
    #: Copy engines: 1 on GT200 (all transfers serialize); 2 on Fermi
    #: parts like the Tesla C2050, where h2d and d2h proceed
    #: bidirectionally (paper footnote 4).
    copy_engines: int = 1
    host_time: float = 0.0
    _stream_ready: dict[int, float] = field(default_factory=dict)
    _compute_free: float = 0.0
    _copy_free: dict[str, float] = field(default_factory=dict)
    ops: list[TimelineOp] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _stream(self, stream: int) -> float:
        return self._stream_ready.get(stream, 0.0)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def submit_kernel(
        self,
        name: str,
        duration: float,
        *,
        stream: int = DEFAULT_STREAM,
        nbytes: int = 0,
        flops: int = 0,
    ) -> TimelineOp:
        """Asynchronously launch a kernel.

        The kernel starts when its stream is ready *and* the (single)
        compute engine is free; the host only pays the submission cost.
        """
        self.host_time = host = self.host_time + self.params.submit_overhead_s
        start = max(host, self._stream_ready.get(stream, 0.0), self._compute_free)
        end = start + duration
        self._stream_ready[stream] = end
        self._compute_free = end
        op = TimelineOp(name, "kernel", stream, start, end, nbytes, flops)
        self.ops.append(op)
        return op

    def submit_copy(
        self,
        name: str,
        direction: str,
        nbytes: int,
        duration: float,
        *,
        stream: int = DEFAULT_STREAM,
        asynchronous: bool = False,
    ) -> TimelineOp:
        """A PCIe transfer (``direction`` in {'h2d', 'd2h'}).

        Synchronous copies block the host until completion (cudaMemcpy);
        asynchronous copies return immediately (cudaMemcpyAsync) and
        complete when both their stream and the copy engine allow.
        """
        if direction not in ("h2d", "d2h"):
            raise ValueError(f"bad copy direction {direction!r}")
        host = self.host_time + self.params.submit_overhead_s
        # Which copy engine serves the transfer: one per direction on
        # Fermi, one for both on GT200.
        engine = direction if self.copy_engines >= 2 else "all"
        start = max(
            host, self._stream_ready.get(stream, 0.0), self._copy_free.get(engine, 0.0)
        )
        end = start + duration
        self._stream_ready[stream] = end
        self._copy_free[engine] = end
        self.host_time = host if asynchronous else end
        op = TimelineOp(name, direction, stream, start, end, nbytes)
        self.ops.append(op)
        return op

    def host_busy(
        self, name: str, duration: float, *, fault: bool = False
    ) -> TimelineOp:
        """Host-side work (buffer packing, MPI library time, ...)."""
        start = self.host_time
        self.host_time += duration
        op = TimelineOp(name, "host", -1, start, self.host_time, fault=fault)
        self.ops.append(op)
        return op

    def host_wait_until(self, t: float, name: str = "wait", *, fault: bool = False) -> None:
        """Block the host until model time ``t`` (e.g. a message arrival)."""
        if t > self.host_time:
            self.ops.append(TimelineOp(name, "wait", -1, self.host_time, t, fault=fault))
            self.host_time = t

    # ------------------------------------------------------------------ #
    # Synchronization
    # ------------------------------------------------------------------ #

    def record_event(self, stream: int = DEFAULT_STREAM) -> Event:
        """cudaEventRecord: capture the stream's current completion time."""
        return Event(self._stream(stream), stream)

    def stream_wait_event(self, stream: int, event: Event) -> None:
        """cudaStreamWaitEvent: future work on ``stream`` waits for event."""
        self._stream_ready[stream] = max(self._stream(stream), event.time)

    def stream_synchronize(self, stream: int = DEFAULT_STREAM) -> None:
        """cudaStreamSynchronize: block the host until the stream drains."""
        self.host_wait_until(self._stream(stream), f"sync(stream {stream})")

    def device_synchronize(self) -> None:
        """cudaThreadSynchronize: block the host until everything drains."""
        latest = max(
            [
                self._compute_free,
                *self._copy_free.values(),
                *self._stream_ready.values(),
            ],
            default=0.0,
        )
        self.host_wait_until(latest, "sync(device)")

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    @property
    def elapsed(self) -> float:
        """Host wall-clock so far (model seconds)."""
        return self.host_time

    def busy_time(self, kind: str) -> float:
        """Total time attributed to one op kind ('kernel', 'h2d', ...)."""
        return sum(op.duration for op in self.ops if op.kind == kind)

    @property
    def op_count(self) -> int:
        """Number of ops recorded so far (a snapshot for flop windows)."""
        return len(self.ops)

    def flops_since(self, index: int) -> int:
        """Total flops of ops recorded at or after ``index``.

        The solvers use (op_count, flops_since) pairs to attribute flops
        to one solve, excluding setup (gauge upload, ghost exchange).
        """
        return sum(op.flops for op in self.ops[index:])

    def reset_clock(self) -> None:
        """Zero all clocks but keep parameters (between bench repetitions)."""
        self.host_time = 0.0
        self._stream_ready.clear()
        self._compute_free = 0.0
        self._copy_free.clear()
        self.ops.clear()
