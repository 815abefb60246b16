"""Launch-sequence golden: the model clock's inputs, pinned.

Model time is a pure function of what each rank puts on its
:class:`~repro.gpu.streams.Timeline` — every op's name, kind, stream,
byte count and flop count, in issue order.  A change to the *functional*
body of a kernel (how the NumPy arithmetic is carried out) must leave all
of that alone, so each scenario here runs one small functional solve,
hashes the ordered ``(name, kind, stream, nbytes, flops)`` of every
``TimelineOp`` on every rank, and compares against a digest recorded
before the change.  The op count and the iteration count are stored next
to the digest so a mismatch says whether the schedule changed shape or
the solver merely took a different number of steps.

Re-record (only for a deliberate, explained change to the schedule)::

    PYTHONPATH=src python tests/core/test_launch_golden.py
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.core import invert, paper_invert_param, quda
from repro.lattice import LatticeGeometry, random_spinor, weak_field_gauge

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_launch_sequence.json"

#: name -> invert() keyword arguments.  ``grid=(2, 2)`` partitions both Z
#: and T (two ranks along each), which is the smallest machine on which
#: the ``partitioned=(2, 3)`` kernel path runs.
SCENARIOS = {
    "time_sliced_2_ranks": dict(n_gpus=2),
    "zt_grid_2x2": dict(grid=(2, 2)),
}


def launch_record(**invert_kwargs) -> dict:
    """Run one 4^3 x 8 single-half solve; digest every rank's timeline."""
    rng = np.random.default_rng(2010)
    geometry = LatticeGeometry((4, 4, 4, 8))
    gauge = weak_field_gauge(geometry, rng, 0.1)
    source = random_spinor(geometry, rng)
    gpus = []

    class RecordingGPU(quda.VirtualGPU):
        def __post_init__(self):
            super().__post_init__()
            gpus.append(self)

    original = quda.VirtualGPU
    quda.VirtualGPU = RecordingGPU
    try:
        result = invert(
            gauge, source, paper_invert_param("single-half", mass=0.1), **invert_kwargs
        )
    finally:
        quda.VirtualGPU = original
    digest = hashlib.sha256()
    n_ops = 0
    for gpu in sorted(gpus, key=lambda g: g.name):
        for op in gpu.timeline.ops:
            digest.update(
                repr((gpu.name, op.name, op.kind, op.stream, op.nbytes, op.flops)).encode()
            )
            n_ops += 1
    return {
        "sha256": digest.hexdigest(),
        "ops": n_ops,
        "iterations": result.stats.iterations,
        "reliable_updates": result.stats.reliable_updates,
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_launch_sequence_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert launch_record(**SCENARIOS[name]) == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {name: launch_record(**kw) for name, kw in sorted(SCENARIOS.items())},
            indent=2,
        )
        + "\n"
    )
    print(f"recorded {len(SCENARIOS)} scenario(s) in {GOLDEN}")
