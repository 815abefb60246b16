"""The parallelized hopping term: face exchange + dslash (Section VI-D).

This module is the heart of the paper: one function,
:func:`dslash_with_exchange`, applies the (possibly distributed) hopping
term with either communication strategy:

**No overlap** (Section VI-D1)
    "perform all of the communications up front and then do the
    computation for the entire volume in a single kernel."  Faces leave
    the device via *separate synchronous cudaMemcpy calls, one per face
    block* (the temporal face is contiguous within each layout block,
    Fig. 2), the two directions are exchanged as *single messages* each,
    received faces go back with a *single cudaMemcpy per face* (plus one
    for each normalization face in half precision), and one full-volume
    kernel finishes the job.

**Overlapped** (Section VI-D2)
    Dedicated CUDA streams: stream 0 runs the interior-volume kernel
    while one stream per face direction handles its face (device-to-host,
    then MPI, then host-to-device) with ``cudaMemcpyAsync`` and
    non-blocking message passing.  The gathering streams are synchronized
    before message passing ("to ensure transfer completion"), and the
    boundary kernel waits (via events) for all ghost uploads.  Because
    ``cudaMemcpyAsync`` carries ~4x the latency of a synchronous copy
    (Fig. 7), this strategy *loses* when the local volume is too small to
    hide the extra setup cost — the surprising plateau of Fig. 5(b).
    The split is the model clock's: the host computes the parity once,
    in the boundary kernel's call, after the ghosts are stored.

**Multi-dimensional decomposition** (Section VI-A future work): when the
QMP machine partitions several lattice directions, each partitioned
direction exchanges its own face pair.  Temporal faces are contiguous in
the field layout and move by plain copies; the Z faces of the extension
are strided and require a pack (gather) kernel first — the structural
cost the paper anticipates for going beyond time-only slicing.

On a single GPU (or an unpartitioned machine) the function degrades to a
plain full-volume kernel with local periodic wraps.

Functional and timing-only solves run this one code path; a timing-only
paper-scale sweep calls it thousands of times per rank to move no data.
So everything that depends only on a field's shape — transfer sizes,
block counts, the labels of the dozen copies — lives in a
:class:`FaceExchangePlan` built once per ``(mu, face sites, precision,
Nvec)`` and shared by every field and rank of that shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from ..comms.faults import CorruptionDetected, RankFailedError, checksum_payload
from ..comms.qmp import QMPMachine
from ..gpu.device import VirtualGPU
from ..gpu.fields import BACKWARD, FORWARD, DeviceCloverField, DeviceGaugeField, DeviceSpinorField
from ..gpu.kernels import (
    DslashTables,
    dslash_kernel,
    dslash_launch,
    gather_face_kernel,
    project_face,
)
from ..lattice.geometry import T_DIR

__all__ = ["dslash_with_exchange", "FaceExchangePlan"]

#: Stream assignment of Section VI-D2: "one to execute the kernel on the
#: internal volume, one for the face send backward / receive forward, and
#: one for the face send forward / receive backward" — generalized to one
#: stream pair per partitioned direction.
STREAM_COMPUTE = 0


def _face_streams(mu: int) -> tuple[int, int]:
    """(backward-face stream, forward-face stream) for direction mu."""
    base = 1 + 2 * (mu % 2)  # T -> (3, 4), Z -> (1, 2)
    return base, base + 1


@dataclass(frozen=True)
class FaceExchangePlan:
    """Transfer shapes for one face pair of one spinor field."""

    mu: int
    message_bytes: int  # what crosses the network (halves + norms)
    payload_bytes: int  # the half-spinor data alone
    norm_bytes: int  # the half-precision norm face (0 otherwise)
    d2h_blocks: int  # one cudaMemcpy per layout block on the way out
    #: Non-temporal faces are strided in the layout: a pack kernel
    #: gathers them into a contiguous buffer before the (single) copy.
    needs_gather_kernel: bool
    #: Per face direction, the ``(label, nbytes)`` of every copy that moves
    #: it device-to-host (one per layout block, then the norms) ...
    downloads: MappingProxyType = field(compare=False, repr=False)
    #: ... and host-to-device (the contiguous end zone, then the norms).
    uploads: MappingProxyType = field(compare=False, repr=False)

    @classmethod
    def for_field(cls, src: DeviceSpinorField, mu: int = T_DIR) -> "FaceExchangePlan":
        return _plan(mu, src.faces.get(mu, 0), src.precision, src.layout.nvec)


@lru_cache(maxsize=1024)
def _plan(mu: int, sites: int, precision, nvec: int) -> FaceExchangePlan:
    """The one plan of a field shape (a few shapes per solve)."""
    payload = sites * 12 * precision.real_bytes
    norm = sites * 4 if precision.needs_norm else 0
    temporal = mu == T_DIR
    # Temporal: 12 face reals per site span 12/Nvec layout blocks (3 float4
    # in single, 6 double2 in double, 3 short4 in half).  Other directions:
    # one copy of the packed gather buffer.
    blocks = (12 // nvec) if temporal else 1
    downloads, uploads = {}, {}
    for direction in (BACKWARD, FORWARD):
        down = [(f"face_d2h[{mu}][{direction}][{i}]", payload // blocks) for i in range(blocks)]
        up = [(f"face_h2d[{mu}][{direction}]", payload)]
        if norm:
            down.append((f"face_d2h_norm[{mu}][{direction}]", norm))
            up.append((f"face_h2d_norm[{mu}][{direction}]", norm))
        downloads[direction], uploads[direction] = tuple(down), tuple(up)
    return FaceExchangePlan(
        mu=mu,
        message_bytes=payload + norm,
        payload_bytes=payload,
        norm_bytes=norm,
        d2h_blocks=blocks,
        needs_gather_kernel=not temporal,
        downloads=MappingProxyType(downloads),
        uploads=MappingProxyType(uploads),
    )


def _download_face(
    gpu: VirtualGPU,
    plan: FaceExchangePlan,
    direction: str,
    *,
    stream: int,
    asynchronous: bool,
) -> None:
    """Move one face device-to-host: one copy per layout block (+ norms)."""
    for name, nbytes in plan.downloads[direction]:
        gpu.memcpy(name, "d2h", nbytes, stream=stream, asynchronous=asynchronous)


def _upload_face(
    gpu: VirtualGPU,
    plan: FaceExchangePlan,
    direction: str,
    *,
    stream: int,
    asynchronous: bool,
) -> None:
    """Move one received face host-to-device: a single copy (the end zone
    is contiguous), plus one for the norm face in half precision."""
    for name, nbytes in plan.uploads[direction]:
        gpu.memcpy(name, "h2d", nbytes, stream=stream, asynchronous=asynchronous)


def dslash_with_exchange(
    gpu: VirtualGPU,
    qmp: QMPMachine | None,
    tables: DslashTables,
    gauge: DeviceGaugeField,
    src: DeviceSpinorField,
    dst: DeviceSpinorField,
    *,
    overlap: bool = True,
    dagger: bool = False,
    clover: DeviceCloverField | None = None,
    clover_target: str = "result",
    xpay: tuple[complex, DeviceSpinorField] | None = None,
    occupancy: float = 1.0,
    camping: bool = False,
) -> None:
    """Apply one parity-restricted hopping-term kernel, exchanging the
    faces of ``src`` first (or concurrently).  See module docstring for
    the two strategies."""
    dirs = (
        tuple(mu for mu in qmp.partitioned_dirs if src.faces.get(mu, 0) > 0)
        if qmp is not None
        else ()
    )
    launch_kwargs = dict(
        clover=clover,
        clover_target=clover_target,
        xpay=xpay,
        stream=STREAM_COMPUTE,
        occupancy=occupancy,
        camping=camping,
    )
    if not dirs:
        dslash_kernel(
            gpu, tables, gauge, src, dst, region="full", partitioned=(),
            dagger=dagger, **launch_kwargs,
        )
        return

    plans = {mu: FaceExchangePlan.for_field(src, mu) for mu in dirs}

    if not overlap:
        _no_overlap_exchange(gpu, qmp, tables, plans, src, dagger, occupancy)
        dslash_kernel(
            gpu, tables, gauge, src, dst, region="full", partitioned=dirs,
            dagger=dagger, **launch_kwargs,
        )
        return

    # ---------------- overlapped strategy (Section VI-D2) --------------- #
    timeline = gpu.timeline
    ready = timeline.record_event(STREAM_COMPUTE)

    faces: dict[tuple[int, str], tuple] = {}
    for mu in dirs:
        s_back, s_fwd = _face_streams(mu)
        timeline.stream_wait_event(s_back, ready)
        timeline.stream_wait_event(s_fwd, ready)
        # Functional face data.  Temporal faces are extracted by the
        # copies themselves (contiguous blocks); other directions pay a
        # pack kernel on their face stream before the copy.
        if plans[mu].needs_gather_kernel:
            faces[(mu, BACKWARD)] = gather_face_kernel(
                gpu, tables, src, BACKWARD, mu=mu, dagger=dagger,
                stream=s_back, occupancy=occupancy,
            )
            faces[(mu, FORWARD)] = gather_face_kernel(
                gpu, tables, src, FORWARD, mu=mu, dagger=dagger,
                stream=s_fwd, occupancy=occupancy,
            )
        else:
            faces[(mu, BACKWARD)] = project_face(
                tables, src, BACKWARD, mu=mu, dagger=dagger
            )
            faces[(mu, FORWARD)] = project_face(
                tables, src, FORWARD, mu=mu, dagger=dagger
            )

    # Interior kernel runs concurrently with everything below.  (Gather
    # kernels above serialize with it on the compute engine — the real
    # GT200 constraint; temporal-only runs have none.)  Only its launch is
    # charged here: the boundary kernel computes the whole parity.
    dslash_launch(
        gpu, tables, gauge, src, region="interior", partitioned=dirs, **launch_kwargs
    )

    # Gather the faces to the host asynchronously, then message-pass as
    # each gathering stream drains.
    for mu in dirs:
        s_back, s_fwd = _face_streams(mu)
        _download_face(gpu, plans[mu], BACKWARD, stream=s_back, asynchronous=True)
        _download_face(gpu, plans[mu], FORWARD, stream=s_fwd, asynchronous=True)
    for mu in dirs:
        s_back, s_fwd = _face_streams(mu)
        gpu.stream_synchronize(s_back)
        qmp.start_send(-1, faces[(mu, BACKWARD)], mu=mu, nbytes=plans[mu].message_bytes)
        gpu.stream_synchronize(s_fwd)
        qmp.start_send(+1, faces[(mu, FORWARD)], mu=mu, nbytes=plans[mu].message_bytes)

    # As each face arrives it is sent to the device while others are
    # still in flight.
    for mu in dirs:
        s_back, s_fwd = _face_streams(mu)
        try:
            ghost_back, chk_back = qmp.recv_from(-1, mu=mu, with_checksum=True)
            _upload_face(gpu, plans[mu], BACKWARD, stream=s_back, asynchronous=True)
            ghost_fwd, chk_fwd = qmp.recv_from(+1, mu=mu, with_checksum=True)
        except RankFailedError as exc:
            raise exc.add_context("overlapped dslash face exchange") from None
        _upload_face(gpu, plans[mu], FORWARD, stream=s_fwd, asynchronous=True)
        _store_ghosts(gpu, src, mu, ghost_back, ghost_fwd)
        _verify_ghost(qmp, mu, -1, ghost_back, chk_back)
        _verify_ghost(qmp, mu, +1, ghost_fwd, chk_fwd)

    # Boundary kernel waits for all ghost uploads; its call computes dst,
    # the whole parity (interior rows included), on the host.
    for mu in dirs:
        s_back, s_fwd = _face_streams(mu)
        timeline.stream_wait_event(STREAM_COMPUTE, timeline.record_event(s_back))
        timeline.stream_wait_event(STREAM_COMPUTE, timeline.record_event(s_fwd))
    dslash_kernel(
        gpu, tables, gauge, src, dst, region="boundary", partitioned=dirs,
        dagger=dagger, **launch_kwargs,
    )


def _no_overlap_exchange(gpu, qmp, tables, plans, src, dagger, occupancy) -> None:
    """Section VI-D1: synchronous copies, single message per direction."""
    for mu, plan in plans.items():
        if plan.needs_gather_kernel:
            back_face = gather_face_kernel(
                gpu, tables, src, BACKWARD, mu=mu, dagger=dagger,
                stream=STREAM_COMPUTE, occupancy=occupancy,
            )
            fwd_face = gather_face_kernel(
                gpu, tables, src, FORWARD, mu=mu, dagger=dagger,
                stream=STREAM_COMPUTE, occupancy=occupancy,
            )
        else:
            back_face = project_face(tables, src, BACKWARD, mu=mu, dagger=dagger)
            fwd_face = project_face(tables, src, FORWARD, mu=mu, dagger=dagger)
        _download_face(gpu, plan, BACKWARD, stream=STREAM_COMPUTE, asynchronous=False)
        _download_face(gpu, plan, FORWARD, stream=STREAM_COMPUTE, asynchronous=False)
        qmp.send_to(-1, back_face, mu=mu, nbytes=plan.message_bytes)
        qmp.send_to(+1, fwd_face, mu=mu, nbytes=plan.message_bytes)
        try:
            ghost_back, chk_back = qmp.recv_from(-1, mu=mu, with_checksum=True)
            ghost_fwd, chk_fwd = qmp.recv_from(+1, mu=mu, with_checksum=True)
        except RankFailedError as exc:
            raise exc.add_context("serial dslash face exchange") from None
        _upload_face(gpu, plan, BACKWARD, stream=STREAM_COMPUTE, asynchronous=False)
        _upload_face(gpu, plan, FORWARD, stream=STREAM_COMPUTE, asynchronous=False)
        _store_ghosts(gpu, src, mu, ghost_back, ghost_fwd)
        _verify_ghost(qmp, mu, -1, ghost_back, chk_back)
        _verify_ghost(qmp, mu, +1, ghost_fwd, chk_fwd)


def _store_ghosts(gpu, src, mu, ghost_back, ghost_fwd) -> None:
    """Write received faces into the end zone (functional mode only)."""
    if not gpu.execute:
        return
    halves_b, norms_b = ghost_back
    halves_f, norms_f = ghost_fwd
    src.set_ghost(BACKWARD, halves_b, norms_b, mu=mu)
    src.set_ghost(FORWARD, halves_f, norms_f, mu=mu)


def _verify_ghost(qmp, mu, direction, ghost, checksum) -> None:
    """End-to-end ghost-zone check, *after* the scatter into the end
    zone: the face must still hash to the envelope digest once the whole
    gather → copy → message → scatter pipeline has run, catching damage
    introduced between wire verification and storage."""
    if checksum is None:
        return
    actual = checksum_payload(ghost)
    if actual != checksum:
        comm = qmp.comm
        raise CorruptionDetected(
            comm.rank, "ghost scatter", comm._now(),
            expected=checksum, actual=actual,
            detail=f"face mu={mu} dir={direction:+d} damaged after scatter",
        )
