"""Record every rank's model timeline while a solve runs.

Shared by the launch goldens and the orbit-fold equivalence tests: both
read each :class:`~repro.gpu.device.VirtualGPU` the solver builds (one per
*simulated* rank, named ``gpu{rank}``) and compare op sequences.
"""

import hashlib

from repro.core import quda


def functional_fields(op) -> tuple:
    """What a functional change must leave alone: the op and its size."""
    return (op.name, op.kind, op.stream, op.nbytes, op.flops)


def model_fields(op) -> tuple:
    """The same plus the ``repr`` of the op's model start and end."""
    return (op.name, op.kind, op.stream, repr(op.start), repr(op.end), op.nbytes, op.flops)


class Recorder:
    """Collects every VirtualGPU the solver builds while active."""

    def __init__(self):
        self.gpus = []

    def __enter__(self):
        gpus = self.gpus

        class RecordingGPU(quda.VirtualGPU):
            def __post_init__(self):
                super().__post_init__()
                gpus.append(self)

        self._original = quda.VirtualGPU
        quda.VirtualGPU = RecordingGPU
        return self

    def __exit__(self, *exc):
        quda.VirtualGPU = self._original

    def timelines(self, fields) -> dict[str, list[tuple]]:
        """``gpu.name`` -> that rank's ops, as ``fields(op)`` tuples."""
        return {gpu.name: [fields(op) for op in gpu.timeline.ops] for gpu in self.gpus}

    def digest(self, fields, names=None) -> tuple[str, int]:
        """sha256 and op count over every recorded rank (or only
        ``names``), in rank-name order."""
        digest = hashlib.sha256()
        n_ops = 0
        for gpu in sorted(self.gpus, key=lambda g: g.name):
            if names is not None and gpu.name not in names:
                continue
            for op in gpu.timeline.ops:
                digest.update(repr((gpu.name, *fields(op))).encode())
                n_ops += 1
        return digest.hexdigest(), n_ops
