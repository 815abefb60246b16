"""``benchmarks/bench_kernels.py --record LABEL`` never replaces rows."""

import importlib.util
import json
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "bench_kernels.py"


@pytest.fixture(scope="module")
def bench_kernels():
    spec = importlib.util.spec_from_file_location("bench_kernels", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "BENCH_kernels.json"
    path.write_text(
        json.dumps(
            {
                "what": "top",
                "parent": {"x/full/half": {"rows": 1, "ms_per_call": 1.0}},
                "application": {"what": "app", "old": {}},
            }
        )
    )
    return path


@pytest.mark.parametrize(
    "argv,label",
    [
        (["--record", "parent"], "parent"),
        (["--record", "application"], "application"),
        (["--case", "application", "--record", "old"], "old"),
    ],
)
def test_existing_label_is_refused(bench_kernels, baseline, capsys, monkeypatch, argv, label):
    before = baseline.read_bytes()

    def measured(*_):
        raise AssertionError("a refused label must not be measured")

    monkeypatch.setattr(bench_kernels, "measure_all", measured)
    monkeypatch.setattr(bench_kernels, "measure_applications", measured)
    with pytest.raises(SystemExit) as exit_info:
        bench_kernels.main([*argv, "--baseline", str(baseline)])
    assert exit_info.value.code != 0
    assert f"label {label!r} already exists" in capsys.readouterr().err
    assert baseline.read_bytes() == before


def test_new_label_is_added_beside_the_old(bench_kernels, baseline, monkeypatch):
    rows = {"y/application/half": {"rows": 2, "ms_per_call": 3.0}}
    monkeypatch.setattr(bench_kernels, "measure_applications", lambda: rows)
    assert bench_kernels.main(
        ["--case", "application", "--record", "parent", "--baseline", str(baseline)]
    ) == 0
    doc = json.loads(baseline.read_text())
    assert doc["application"]["parent"] == rows
    assert doc["application"]["old"] == {}
    assert doc["parent"] == {"x/full/half": {"rows": 1, "ms_per_call": 1.0}}
