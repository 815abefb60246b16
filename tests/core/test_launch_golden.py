"""Launch-sequence golden: the model clock's inputs and outputs, pinned.

Model time is a pure function of what each rank puts on its
:class:`~repro.gpu.streams.Timeline` — every op's name, kind, stream,
byte count and flop count, in issue order.  A change to the *functional*
body of a kernel (how the NumPy arithmetic is carried out) must leave all
of that alone, so each functional scenario here runs one small solve,
hashes the ordered ``(name, kind, stream, nbytes, flops)`` of every
``TimelineOp`` on every rank, and compares against a digest recorded
before the change.  The op count and the iteration count are stored next
to the digest so a mismatch says whether the schedule changed shape or
the solver merely took a different number of steps.

The timing-only scenarios (``model_*``) pin the model *times* as well:
they run :func:`~repro.core.invert_model` with overlap on and off and
hash every op's ``repr`` of its start and end next to the rest, so a
change to how an op is recorded, memoised or costed that moves any
timestamp by one ulp fails here.  A timing-only solve simulates one rank
per symmetry orbit (:func:`~repro.comms.qmp.rank_orbits`), so its digest
covers the representatives' timelines only; ``test_folded_digest_*``
holds that digest equal to the every-rank run's restricted to them.

Re-record (only for a deliberate, explained change to the schedule)::

    PYTHONPATH=src python -m tests.core.test_launch_golden
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core import invert, invert_model, paper_invert_param
from repro.core.solvers import resilience
from repro.lattice import LatticeGeometry, random_spinor, weak_field_gauge

from ._timelines import Recorder, functional_fields, model_fields

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_launch_sequence.json"

#: name -> invert() keyword arguments, plus the precision ``mode`` and
#: ``solver`` of the run (single-half BiCGstab unless named).
#: ``grid=(2, 2)`` partitions both Z and T (two ranks along each), which
#: is the smallest machine on which the ``partitioned=(2, 3)`` kernel
#: path runs.
SCENARIOS = {
    "time_sliced_2_ranks": dict(n_gpus=2),
    "zt_grid_2x2": dict(grid=(2, 2)),
    "cg_double_2_ranks": dict(n_gpus=2, mode="double", solver="cg"),
    "cg_double_half_2_ranks": dict(n_gpus=2, mode="double-half", solver="cg"),
}

#: name -> invert_model() keyword arguments (timing-only, 8^3 x 16).
MODEL_SCENARIOS = {
    f"model_{machine}_{'overlap' if overlap else 'serial'}": dict(
        overlap=overlap, **placement
    )
    for machine, placement in (("4_ranks", dict(n_gpus=4)), ("zt_grid_2x2", dict(grid=(2, 2))))
    for overlap in (True, False)
}
MODEL_SCENARIOS["model_cg_4_ranks_overlap"] = dict(overlap=True, n_gpus=4, solver="cg")


def launch_record(*, mode="single-half", solver="bicgstab", **invert_kwargs) -> dict:
    """Run one 4^3 x 8 solve; digest every rank's timeline."""
    rng = np.random.default_rng(2010)
    geometry = LatticeGeometry((4, 4, 4, 8))
    gauge = weak_field_gauge(geometry, rng, 0.1)
    source = random_spinor(geometry, rng)
    with Recorder() as rec:
        result = invert(
            gauge,
            source,
            paper_invert_param(mode, mass=0.1, solver=solver),
            **invert_kwargs,
        )
    sha, n_ops = rec.digest(functional_fields)
    return {
        "sha256": sha,
        "ops": n_ops,
        "iterations": result.stats.iterations,
        "reliable_updates": result.stats.reliable_updates,
    }


def model_run(*, overlap: bool, solver="bicgstab", **placement):
    """One timing-only 8^3 x 16 single-half solve: ``(recorder, result)``."""
    inv = paper_invert_param(
        "single-half", overlap_comms=overlap, fixed_iterations=4, solver=solver
    )
    with Recorder() as rec:
        result = invert_model((8, 8, 8, 16), inv, **placement)
    return rec, result


def model_record(**scenario) -> dict:
    """Digest every simulated rank's timeline, including the ``repr`` of
    each op's start and end."""
    rec, result = model_run(**scenario)
    sha, n_ops = rec.digest(model_fields)
    return {
        "sha256": sha,
        "ops": n_ops,
        "model_time": repr(result.stats.model_time),
        "total_flops": repr(result.stats.total_flops),
    }


def _all_records() -> dict:
    records = {name: launch_record(**kw) for name, kw in SCENARIOS.items()}
    records.update({name: model_record(**kw) for name, kw in MODEL_SCENARIOS.items()})
    return dict(sorted(records.items()))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_launch_sequence_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert launch_record(**SCENARIOS[name]) == golden


@pytest.mark.parametrize("name", sorted(MODEL_SCENARIOS))
def test_model_clock_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert model_record(**MODEL_SCENARIOS[name]) == golden


@pytest.mark.parametrize("name", sorted(MODEL_SCENARIOS))
def test_folded_digest_is_the_representatives_digest(name, monkeypatch):
    """Folded run == every-rank run seen through the representatives,
    op names such as ``MPI_Recv(from 3)`` (virtual peer ids) included."""
    folded, _ = model_run(**MODEL_SCENARIOS[name])
    representatives = {gpu.name for gpu in folded.gpus}
    monkeypatch.setattr(resilience, "rank_orbits", lambda n, grid, cluster: tuple(range(n)))
    full, _ = model_run(**MODEL_SCENARIOS[name])
    assert len(full.gpus) == 4 > len(folded.gpus)
    assert full.digest(model_fields, representatives) == folded.digest(model_fields)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = _all_records()
    GOLDEN.write_text(json.dumps(records, indent=2) + "\n")
    print(f"recorded {len(records)} scenario(s) in {GOLDEN}")
