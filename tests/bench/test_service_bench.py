"""``BENCH_service.json`` is exactly what the harness produces.

Every block of the file but ``throughput`` is a model-time measurement:
a pure function of the schedule, with no machine in it.  So the file is
held to *equality* with a fresh run at the harness defaults, value for
value, not to a tolerance; a scheduler change that moves any number must
regenerate it with ``write_service_bench()`` and say why.
"""

import json
import pathlib

import pytest

from repro.bench.harness import (
    ABLATIONS,
    CAPACITY_DEFAULTS,
    ablation_block,
    campaign_params,
    run_ablation,
    service_bench,
)

BASELINE = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCH_service.json").read_text()
)


def test_every_model_time_block_equals_a_fresh_run():
    committed = {k: v for k, v in BASELINE.items() if k != "throughput"}
    # Through JSON, as the file went: tuples become lists, inf a token.
    fresh = json.loads(json.dumps(service_bench()))
    assert fresh.keys() == committed.keys()
    for key in committed:
        assert fresh[key] == committed[key], key


def test_recorded_campaigns_invert_to_the_defaults():
    """The ``campaign`` entry of each block, read back through the table
    that wrote it, is the parameter set that produced the block."""
    for name, spec in ABLATIONS.items():
        recorded = ablation_block(BASELINE, name)["campaign"]
        assert campaign_params(recorded, spec.defaults) == spec.defaults, name
    assert (
        campaign_params(BASELINE["capacity_map"]["campaign"], CAPACITY_DEFAULTS)
        == CAPACITY_DEFAULTS
    )


def test_an_unknown_parameter_is_refused():
    with pytest.raises(TypeError, match="n_request"):
        run_ablation("batching", n_request=8)
