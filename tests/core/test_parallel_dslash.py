"""Timeline-level tests of the two communication strategies.

The operator-correctness tests establish that both strategies compute the
same numbers; here we verify they *schedule* like the paper describes:
the overlapped strategy really runs the interior kernel concurrently with
the face traffic, uses async copies on the side streams, and the
no-overlap strategy serializes everything with synchronous copies.
"""

import numpy as np
import pytest

from repro.comms import QMPMachine, run_spmd
from repro.core.dslash import DeviceSchurOperator
from repro.core.parallel_dslash import FaceExchangePlan, dslash_with_exchange
from repro.gpu import DeviceSpinorField, Precision, VirtualGPU
from repro.gpu import kernels
from repro.gpu.fields import BACKWARD, FORWARD
from repro.lattice import LatticeGeometry, make_clover, weak_field_gauge


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(77)
    geo = LatticeGeometry((4, 4, 4, 16))
    gauge = weak_field_gauge(geo, rng, noise=0.1)
    clover = make_clover(gauge)
    return geo, gauge, clover


def _timeline_of(problem, *, overlap, n_ranks=2, rank_of_interest=0):
    geo, gauge, clover = problem
    slicing = geo.slice_grid(1, n_ranks)

    def fn(comm):
        gpu = VirtualGPU(enforce_memory=False, name=f"gpu{comm.rank}")
        comm.bind_timeline(gpu.timeline)
        qmp = QMPMachine(comm)
        local = slicing.locals[comm.rank]
        slab = slicing.local_sites(comm.rank)
        op = DeviceSchurOperator.setup(
            gpu, qmp, local, gauge.data[:, slab], clover.data[slab], 0.1,
            precision=Precision.SINGLE, overlap=overlap,
        )
        src = op.make_spinor("src")
        tmp = op.make_spinor("tmp")
        dst = op.make_spinor("dst")
        if gpu.execute:
            rng = np.random.default_rng(comm.rank)
            src.set(
                rng.standard_normal((local.half_volume, 4, 3))
                + 1j * rng.standard_normal((local.half_volume, 4, 3))
            )
        i0 = gpu.timeline.op_count
        op.apply(src, tmp, dst)
        gpu.device_synchronize()
        return gpu.timeline.ops[i0:]

    return run_spmd(n_ranks, fn)[rank_of_interest]


class TestOverlapSchedule:
    def test_interior_and_boundary_kernels(self, problem):
        ops = _timeline_of(problem, overlap=True)
        names = [o.name for o in ops if o.kind == "kernel"]
        assert any("interior" in n for n in names)
        assert any("boundary" in n for n in names)
        assert not any("[full]" in n for n in names)

    def test_no_overlap_uses_single_full_kernel(self, problem):
        ops = _timeline_of(problem, overlap=False)
        names = [o.name for o in ops if o.kind == "kernel"]
        assert any("[full]" in n for n in names)
        assert not any("interior" in n for n in names)

    def test_overlap_copies_are_on_side_streams(self, problem):
        ops = _timeline_of(problem, overlap=True)
        face_copies = [o for o in ops if o.name.startswith("face_")]
        assert face_copies
        # Never the compute stream; one stream pair per direction.
        assert all(o.stream != 0 for o in face_copies)
        assert len({o.stream for o in face_copies}) == 2

    def test_no_overlap_copies_block_on_default_stream(self, problem):
        ops = _timeline_of(problem, overlap=False)
        face_copies = [o for o in ops if o.name.startswith("face_")]
        assert face_copies
        assert all(o.stream == 0 for o in face_copies)

    def test_faces_genuinely_overlap_interior_kernel(self, problem):
        """The scheduling claim of Section VI-D2: face d2h transfers run
        while the interior kernel occupies the compute engine."""
        ops = _timeline_of(problem, overlap=True)
        interior = next(o for o in ops if "interior" in o.name)
        d2h = [o for o in ops if o.name.startswith("face_d2h")]
        assert any(
            o.start < interior.end and o.end > interior.start for o in d2h
        )

    def test_boundary_kernel_waits_for_ghost_upload(self, problem):
        ops = _timeline_of(problem, overlap=True)
        boundary = [o for o in ops if "boundary" in o.name]
        h2d = [o for o in ops if o.name.startswith("face_h2d")]
        first_boundary = min(o.start for o in boundary)
        # Each boundary kernel launch follows the ghost uploads of its own
        # exchange; compare within the first dslash application.
        assert first_boundary >= min(o.end for o in h2d)

    def test_d2h_block_count_matches_layout(self, problem):
        """Section VI-D1: one cudaMemcpy per face block — 3 float4 blocks
        for the 12-real single-precision face."""
        ops = _timeline_of(problem, overlap=False)
        back_blocks = [
            o for o in ops if o.name.startswith("face_d2h[3][backward]")
        ]
        # 2 dslash applications per operator apply, each sends 1 backward
        # face of 3 blocks.
        assert len(back_blocks) == 2 * 3


def _one_application(problem, monkeypatch, *, execute):
    """Rank 0's ops and every rank's functional bodies of one overlapped
    dslash application (clover fused) on a 2-rank T-sliced world."""
    geo, gauge, clover = problem
    slicing = geo.slice_grid(1, 2)
    bodies = []
    body = kernels._dslash_body

    def counted(tables, gauge_field, src, dst, dirs, **kwargs):
        bodies.append(dirs)
        return body(tables, gauge_field, src, dst, dirs, **kwargs)

    monkeypatch.setattr(kernels, "_dslash_body", counted)

    def fn(comm):
        gpu = VirtualGPU(enforce_memory=False, execute=execute, name=f"gpu{comm.rank}")
        comm.bind_timeline(gpu.timeline)
        local = slicing.locals[comm.rank]
        slab = slicing.local_sites(comm.rank)
        op = DeviceSchurOperator.setup(
            gpu, QMPMachine(comm), local,
            gauge.data[:, slab] if execute else None,
            clover.data[slab] if execute else None,
            0.1, precision=Precision.SINGLE, overlap=True,
        )
        src = op.make_spinor("src")
        dst = op.make_spinor("dst")
        if execute:
            src.set(np.ones((local.half_volume, 4, 3), dtype=complex))
        i0 = gpu.timeline.op_count
        dslash_with_exchange(
            gpu, op.qmp, op.tables_other, op.gauge, src, dst, overlap=True,
            clover=op.clover_other_inv,
        )
        gpu.device_synchronize()
        return gpu.timeline.ops[i0:]

    return run_spmd(2, fn)[0], bodies


class TestOneBodyPerApplication:
    """The model clock charges the interior and boundary kernels; the
    host computes the parity once, after the ghosts are stored."""

    def test_one_whole_parity_body_after_the_ghosts(self, problem, monkeypatch):
        ops, bodies = _one_application(problem, monkeypatch, execute=True)
        assert bodies == [(3,), (3,)]  # one a rank, with its T ghosts
        names = [o.name for o in ops]
        interior = names.index("dslash[interior]")
        boundary = names.index("dslash[boundary]")
        copies_out = [i for i, n in enumerate(names) if n.startswith("face_d2h")]
        copies_in = [i for i, n in enumerate(names) if n.startswith("face_h2d")]
        assert [n for n in names if n.startswith("dslash")] == [
            "dslash[interior]", "dslash[boundary]"
        ]
        assert interior < min(copies_out) and boundary > max(copies_in)
        assert ops[interior].stream == ops[boundary].stream == 0
        assert ops[boundary].start >= max(ops[i].end for i in copies_in)

    def test_timing_only_runs_no_body(self, problem, monkeypatch):
        functional, _ = _one_application(problem, monkeypatch, execute=True)
        ops, bodies = _one_application(problem, monkeypatch, execute=False)
        assert bodies == []
        assert [(o.name, o.stream) for o in ops] == [
            (o.name, o.stream) for o in functional
        ]


class TestFaceExchangePlan:
    @pytest.mark.parametrize(
        "prec,blocks", [(Precision.SINGLE, 3), (Precision.DOUBLE, 6), (Precision.HALF, 3)]
    )
    def test_block_counts(self, prec, blocks):
        gpu = VirtualGPU(enforce_memory=False)
        f = DeviceSpinorField(gpu, sites=128, precision=prec, faces={3: 16})
        plan = FaceExchangePlan.for_field(f)
        assert plan.d2h_blocks == blocks
        assert plan.message_bytes == f.face_message_bytes()

    def test_half_has_norm_face(self):
        gpu = VirtualGPU(enforce_memory=False)
        f = DeviceSpinorField(gpu, sites=128, precision=Precision.HALF, faces={3: 16})
        plan = FaceExchangePlan.for_field(f)
        assert plan.norm_bytes == 16 * 4

    def test_single_has_no_norm_face(self):
        gpu = VirtualGPU(enforce_memory=False)
        f = DeviceSpinorField(gpu, sites=128, precision=Precision.SINGLE, faces={3: 16})
        assert FaceExchangePlan.for_field(f).norm_bytes == 0

    def test_one_plan_per_field_shape(self):
        """Fields of one shape share a plan, on any device; its copies
        cover the face exactly and the tables cannot be edited."""
        fields = [
            DeviceSpinorField(
                VirtualGPU(enforce_memory=False), sites=128,
                precision=Precision.HALF, faces={3: 16},
            )
            for _ in range(2)
        ]
        plan = FaceExchangePlan.for_field(fields[0])
        assert FaceExchangePlan.for_field(fields[1]) is plan
        for direction in (BACKWARD, FORWARD):
            down, up = plan.downloads[direction], plan.uploads[direction]
            assert [name for name, _ in down] == [
                f"face_d2h[3][{direction}][0]", f"face_d2h[3][{direction}][1]",
                f"face_d2h[3][{direction}][2]", f"face_d2h_norm[3][{direction}]",
            ]
            assert sum(n for _, n in down) == sum(n for _, n in up) == plan.message_bytes
        with pytest.raises(TypeError):
            plan.downloads[BACKWARD] = ()


class TestStrategyTimes:
    def test_overlap_loses_at_tiny_volume(self, problem):
        """At this toy volume the interior kernel is far too short to hide
        the ~50 us async-copy latencies: overlap must lose — the micro
        version of the Fig. 5(b) anomaly."""
        t_ov = _timeline_of(problem, overlap=True)[-1].end
        t_nov = _timeline_of(problem, overlap=False)[-1].end
        assert t_ov > t_nov

    def test_overlap_wins_at_production_volume(self):
        """At the paper's 32^3 x 256 volume the interior kernel dwarfs the
        latencies and overlap wins (Fig. 5(a)) — timing-only check."""
        from repro.core import invert_model, paper_invert_param

        times = {}
        for overlap in (True, False):
            inv = paper_invert_param(
                "single", overlap_comms=overlap, fixed_iterations=5
            )
            times[overlap] = invert_model(
                (32, 32, 32, 256), inv, n_gpus=8, enforce_memory=False
            ).stats.model_time
        assert times[True] < times[False]
