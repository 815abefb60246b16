"""Tests for the profiler-style timeline reports."""

import pytest

from repro.bench.profile import profile_ops, profile_solve, render_profile
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


class TestProfileSolve:
    @pytest.fixture(scope="class")
    def ops(self):
        return profile_solve((8, 8, 8, 16), "single-half", n_gpus=2, iterations=3)

    def test_window_contains_the_solver(self, ops):
        names = {o.name.split("[")[0] for o in ops}
        assert "dslash" in names
        assert any(n.startswith("blas_") for n in names)
        assert "face_d2h" in names  # partitioned: faces moved

    def test_dslash_dominates_kernel_time(self, ops):
        rows = {r.name: r for r in profile_ops(ops)}
        kernel_rows = [r for r in rows.values() if r.kind == "kernel"]
        assert max(kernel_rows, key=lambda r: r.total_s).name == "dslash"

    def test_deterministic(self):
        a = profile_solve((8, 8, 8, 16), "single", n_gpus=2, iterations=2)
        b = profile_solve((8, 8, 8, 16), "single", n_gpus=2, iterations=2)
        assert [(o.name, o.start) for o in a] == [(o.name, o.start) for o in b]


class TestHotspots:
    def test_phases_sum_to_the_wall_and_name_the_one_path(self):
        """``repro profile --hotspots``: three phases that account for the
        whole wall time, the scheduler on top, and no record of a path
        selector (there is one path)."""
        from repro.bench.profile import hotspot_profile, render_hotspots

        prof = hotspot_profile(48, top=5, iterations=4)
        assert prof["completed"] == prof["requests"] == 48
        assert [p["phase"] for p in prof["phases"]] == [
            "build workload + service",
            "run campaign (profiled)",
            "collect + render report",
        ]
        assert sum(p["wall_ms"] for p in prof["phases"]) == pytest.approx(
            prof["total_wall_s"] * 1e3, abs=0.01
        )
        assert len(prof["hotspots"]) == 5
        assert prof["report_bytes_json"] > 0
        assert set(prof) == {
            "requests", "completed", "total_wall_s", "wall_rps",
            "report_bytes_json", "phases", "hotspots",
        }
        text = render_hotspots(prof)
        assert "48 requests:" in text and "req/s" in text
