"""Message-passing substrate: SimMPI, a QMP layer, and the cluster
(PCIe/NUMA/InfiniBand) model of the JLab "9g" machine.

mpi4py and InfiniBand hardware are unavailable in this reproduction, so
ranks run one at a time under a cooperative scheduler, exchanging real
NumPy buffers, while a LogP-style timestamp protocol carries simulated
time across ranks (see :mod:`repro.comms.mpi_sim` for the scheduler and
the determinism argument).
Deterministic fault injection (latency jitter, transient send failures,
rank stalls/crashes, silent payload/resident corruption) and the
checksummed-envelope integrity layer live in :mod:`repro.comms.faults`.
"""

from .cluster import ClusterSpec, Topology
from .faults import (
    CorruptionDetected,
    DomainFaultPlan,
    FaultEvent,
    FaultPlan,
    HcaDegrade,
    IntegrityPolicy,
    LinkFaults,
    NodeKill,
    RankFailedError,
    ResidentCorruption,
    StallSpec,
    StragglerSpec,
    SwitchPartition,
    WorkerFaultPlan,
    WorkerKill,
    checksum_bytes,
    checksum_payload,
    corrupt_payload,
    format_schedule,
    resident_scribble,
    schedule_sort_key,
)
from .mpi_sim import (
    Comm,
    CommStats,
    MPIDeadlockError,
    RankFailure,
    Request,
    SimMPI,
    SpmdOutcome,
    run_spmd,
)
from .qmp import QMPMachine

__all__ = [
    "ClusterSpec",
    "Topology",
    "NodeKill",
    "HcaDegrade",
    "SwitchPartition",
    "DomainFaultPlan",
    "SimMPI",
    "Comm",
    "CommStats",
    "Request",
    "MPIDeadlockError",
    "RankFailure",
    "SpmdOutcome",
    "run_spmd",
    "QMPMachine",
    "FaultPlan",
    "FaultEvent",
    "LinkFaults",
    "StallSpec",
    "ResidentCorruption",
    "WorkerKill",
    "StragglerSpec",
    "WorkerFaultPlan",
    "IntegrityPolicy",
    "RankFailedError",
    "CorruptionDetected",
    "checksum_bytes",
    "checksum_payload",
    "corrupt_payload",
    "resident_scribble",
    "format_schedule",
    "schedule_sort_key",
]
