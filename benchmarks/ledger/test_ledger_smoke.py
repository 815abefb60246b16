"""Self-test of the ledger on shrunken inputs (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger_smoke.py
"""

from __future__ import annotations

import ast
import json
import pathlib
import shutil
import subprocess
import sys
import types
import warnings

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spec  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


def _tree(root: pathlib.Path) -> dict[str, float]:
    """Every file the run could have touched, with its mtime."""
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    return {
        str(p.relative_to(root)): p.stat().st_mtime
        for p in root.rglob("*")
        if p.is_file() and not skip & set(p.relative_to(root).parts)
    }


def test_quick_traced_run_names_every_metric_and_stays_in_results():
    before = _tree(ROOT)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--traced"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    after = _tree(ROOT)
    touched = {p for p in after if after[p] != before.get(p)} | (before.keys() - after.keys())
    assert all(p.startswith("benchmarks/ledger/results/") for p in touched), touched

    doc = json.loads((HERE / "results" / "latest_quick.json").read_text())
    assert doc["quick"] and doc["environment"]["blas_pins"] == spec.BLAS_PINS
    for key in ("nproc", "python", "numpy", "scipy", "git_commit",
                "loadavg_1m_start", "loadavg_1m_end"):
        assert key in doc["environment"]
    assert list(doc["workloads"]) == list(spec.WORKLOADS)
    layer_names = [name for name, _, _ in spec.per_layer_metrics()]
    for name, entry in doc["workloads"].items():
        assert not entry["problems"]
        # Shrunken sweeps have no 32-GPU anchor; everything else applies.
        wanted = {
            m.name for m in spec.END_TO_END
            if name in m.workloads and m.name != "model_anchor_err_pct"
        }
        assert wanted <= entry["end_to_end"].keys()
        for metric in entry["end_to_end"].values():
            assert metric["unit"] and metric["clock"] and metric["n"] >= 1
        assert [m.name for m in spec.DRIVER_END_TO_END] == list(entry["driver_end_to_end"])
        assert list(entry["per_layer"]) == layer_names
        assert all(m["unit"] and m["value"] is not None for m in entry["per_layer"].values())
        assert (HERE / entry["trace_file"]).exists()
    layers = {n: e["per_layer"] for n, e in doc["workloads"].items()}
    assert layers["solve-mixed"]["gpu.dslash_kernel.calls"]["value"] > 0
    assert layers["model-sweep"]["comms.allreduce.busy_s"]["value"] > 0
    assert layers["serve-saturated"]["service.checkpoint_commit.calls"]["value"] == 0
    assert layers["serve-saturated"]["service.tenancy.calls"]["value"] == 0
    assert layers["serve-steady"]["service.tenancy.calls"]["value"] > 0
    assert layers["serve-durable"]["service.checkpoint_commit.calls"]["value"] > 0


def test_benchmark_json_agrees_with_the_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/ledger"]
    assert doc["run_seconds"] == spec.RUN_SECONDS
    assert {w["name"]: w["why"] for w in doc["workloads"]} == spec.WORKLOADS
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in spec.DRIVER_END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == spec.per_layer_metrics()
    assert len(doc["per_layer"]) <= 128


def test_run_fails_without_printing_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "serve-saturated",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_paper_anchors_are_the_ones_figures_holds():
    source = (ROOT / "src" / "repro" / "bench" / "figures.py").read_text()
    fig5b = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "fig5b"
    )
    points = next(
        ast.literal_eval(kw.value)
        for node in ast.walk(fig5b) if isinstance(node, ast.Call)
        for kw in node.keywords if kw.arg == "paper_points"
    )
    held = {label: value for label, x, value in points if x == 32}
    assert held["single-half"] == workloads.PAPER_FIG5B_32["overlap"]
    assert held["single-half, not overlapped"] == workloads.PAPER_FIG5B_32["no_overlap"]


# -- tracer ---------------------------------------------------------------


@pytest.fixture
def installed():
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_modules_resolve_through_sys_modules_not_package_attributes():
    import repro.core

    # The trap: the package attribute is the function, not the module.
    assert isinstance(repro.core.autotune, types.FunctionType)
    module = tracer_mod.resolve_module("repro.core.autotune")
    assert isinstance(module, types.ModuleType)
    assert module.autotune is repro.core.autotune
    assert tracer_mod.resolve_module("repro.no_such_module") is None


def test_identity_scan_patches_every_importer_and_uninstall_restores():
    import repro.core
    import repro.core.quda as quda

    original = repro.core.autotune
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert not tracer.unresolved
        module = tracer_mod.resolve_module("repro.core.autotune")
        assert module.autotune is not original
        # Importers hold their own reference; each one is replaced too.
        assert quda.autotune is module.autotune is repro.core.autotune
        assert quda.autotune.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert quda.autotune is original and repro.core.autotune is original


def test_a_vanished_target_is_null_with_a_warning_not_an_exception(monkeypatch):
    monkeypatch.setitem(
        tracer_mod.TARGETS, "gpu.dslash_kernel", (("repro.gpu.kernels", "renamed_away"),)
    )
    monkeypatch.setitem(
        tracer_mod.TARGETS, "comms.recv", (("repro.comms.no_such_module", "Comm.recv"),)
    )
    tracer = tracer_mod.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install()
    tracer.uninstall()
    assert len(caught) == 2
    assert [span for span, _ in tracer.unresolved] == ["gpu.dslash_kernel", "comms.recv"]
    import run

    traced = {"aggregate": tracer.aggregate(), "derived": {}, "unresolved": tracer.unresolved}
    layer = run.per_layer(traced, {})
    assert layer["gpu.dslash_kernel.busy_s"]["value"] is None
    assert layer["comms.send.busy_s"]["value"] == 0


def test_self_times_of_a_thread_never_exceed_its_wall(installed):
    solve = workloads.Solve((4, 4, 4, 8), "double", 1e-13, warmup=False)
    solve.load()
    solve.generate(7, quick=True)
    _, result = solve.run()
    assert solve.facts(result)["converged"]

    names = installed.names
    rank_threads = [log for log in installed.threads if log.name.startswith("simmpi-rank")]
    assert len(rank_threads) == 2
    for log in installed.threads:
        spans = log.spans
        assert all(span is not None for span in spans)
        child = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                assert spans[parent][1] <= start and end <= spans[parent][2]
                child[parent] += end - start
        self_total = sum(end - start - child[i] for i, (_, start, end, _) in enumerate(spans))
        wall = max(s[2] for s in spans) - min(s[1] for s in spans)
        assert 0 <= self_total <= wall
    # Rank threads are rooted in the SPMD body, caused by the spmd_run span.
    main = installed.threads[0]
    for log in rank_threads:
        assert names[log.spans[0][0]] == tracer_mod.RANK_BODY
        thread, span = log.cause
        assert installed.threads[thread] is main
        assert names[main.spans[span][0]] == "comms.spmd_run"
    totals = installed.aggregate()
    assert totals["comms.send"]["calls"] == solve.facts(result)["messages"]
    assert totals["gpu.dslash_kernel"]["busy_s"] <= totals["comms.rank_body"]["busy_s"]
