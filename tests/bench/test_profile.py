"""Tests for the profiler-style timeline reports."""

import pytest

from repro.bench.profile import profile_ops, render_profile
from repro.cli import main
from repro.core import invert_model, invert_model_multi, paper_invert_param
from repro.gpu import Precision, VirtualGPU


@pytest.fixture
def gpu():
    return VirtualGPU(enforce_memory=False)


class TestProfileOps:
    def test_grouping_collapses_instances(self, gpu):
        gpu.memcpy("face_d2h[3][backward][0]", "d2h", 100)
        gpu.memcpy("face_d2h[3][backward][1]", "d2h", 100)
        gpu.memcpy("face_d2h[3][forward][0]", "d2h", 100)
        rows = profile_ops(gpu.timeline.ops)
        assert len(rows) == 1
        assert rows[0].name == "face_d2h" and rows[0].calls == 3

    def test_sorted_by_time(self, gpu):
        gpu.launch("small", Precision.SINGLE, bytes_moved=10**5, flops=0)
        gpu.launch("big", Precision.SINGLE, bytes_moved=10**8, flops=0)
        rows = profile_ops(gpu.timeline.ops)
        assert rows[0].name == "big"

    def test_bandwidth_and_rate(self, gpu):
        gpu.launch("k", Precision.SINGLE, bytes_moved=10**8, flops=10**7)
        row = profile_ops(gpu.timeline.ops)[0]
        assert row.bandwidth_gbs > 0
        assert row.gflops > 0

    def test_render_contains_shares(self, gpu):
        gpu.launch("k", Precision.SINGLE, bytes_moved=10**7, flops=0)
        text = render_profile(gpu.timeline.ops)
        assert "%" in text and "k" in text

    def test_top_truncation(self, gpu):
        for i in range(5):
            gpu.launch(f"k{i}", Precision.SINGLE, bytes_moved=10**6, flops=0)
        text = render_profile(gpu.timeline.ops, top=2)
        assert text.count("\n") == 3  # header + separator + 2 rows


def _solver_window(mode, iterations):
    """Rank 0's solver-window ops of the solve ``invert_model`` runs."""
    res = invert_model(
        (8, 8, 8, 16),
        paper_invert_param(mode, fixed_iterations=iterations),
        n_gpus=2,
        enforce_memory=False,
    )
    window = res.per_rank[0]
    ops = [
        o for o in res.timeline.ops
        if window.t_start <= o.start and o.end <= window.t_end
    ]
    return res, ops


@pytest.fixture(scope="module")
def solved():
    return _solver_window("single-half", 3)


class TestProfileSolve:
    def test_window_contains_the_solver(self, solved):
        names = {o.name.split("[")[0] for o in solved[1]}
        assert "dslash" in names
        assert any(n.startswith("blas_") for n in names)
        assert "face_d2h" in names  # partitioned: faces moved

    def test_dslash_dominates_kernel_time(self, solved):
        rows = {r.name: r for r in profile_ops(solved[1])}
        kernel_rows = [r for r in rows.values() if r.kind == "kernel"]
        assert max(kernel_rows, key=lambda r: r.total_s).name == "dslash"

    def test_deterministic(self):
        a = _solver_window("single", 2)[1]
        b = _solver_window("single", 2)[1]
        assert [(o.name, o.start) for o in a] == [(o.name, o.start) for o in b]

    def test_timeline_holds_setup_and_every_source(self):
        """One rank-0 clock for the batch: each source's window is a
        later slice of the same timeline."""
        first, second = invert_model_multi(
            (8, 8, 8, 16),
            paper_invert_param("single-half", fixed_iterations=2),
            n_sources=2,
            n_gpus=2,
            enforce_memory=False,
        )
        assert first.timeline is second.timeline
        a, b = first.per_rank[0], second.per_rank[0]
        assert 0 < a.t_start < a.t_end <= b.t_start < b.t_end
        assert first.timeline.host_time >= b.t_end


class TestProfileCommand:
    def test_prints_the_window_invert_model_runs(self, capsys, request):
        """``repro profile`` reports the schedule every figure measures:
        ``invert_model``'s solver window, tuned occupancy included."""
        rc = main([
            "profile", "--dims", "8,8,8,16", "--gpus", "2",
            "--iterations", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0].endswith(": 8.70 ms")
        dslash = next(line.split() for line in out.splitlines()
                      if line.split()[:1] == ["dslash"])
        assert dslash[:3] == ["dslash", "kernel", "25"]
        res, ops = request.getfixturevalue("solved")
        assert f"{res.per_rank[0].seconds * 1e3:.2f}" == "8.70"
        assert sum(o.name.split("[")[0] == "dslash" for o in ops) == 25
