"""Cluster model: nodes, NUMA placement, and the interconnect.

Models the paper's test bed (Section VII-A): the Jefferson Lab "9g"
cluster — nodes with a Supermicro X8DTG-QF board, two Xeon E5530 sockets,
two GTX 285 GPUs (each on a PCIe bus attached to a *different* socket),
48 GiB of RAM, QDR InfiniBand between nodes, one MPI process bound per
GPU.

What the model must capture:

* **Rank placement** — ranks fill nodes in order, ``gpus_per_node`` per
  node; messages between ranks on the same node go through shared memory,
  messages between nodes over InfiniBand (whose bandwidth is *less* than
  PCIe x16 — Section III).
* **NUMA binding** — "In order to obtain maximum bandwidth on the buses,
  it was necessary to explicitly bind each MPI process to the correct
  socket" (Section VII-D).  ``numa_policy`` selects correct binding,
  deliberately wrong binding (every process on the opposite socket — the
  maroon curve of Fig. 5(a)), or unpinned (in between).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.perfmodel import DEFAULT_PARAMS, PerfModelParams

__all__ = ["ClusterSpec", "NUMA_POLICIES", "Topology"]

NUMA_POLICIES = ("correct", "wrong", "unpinned")


@dataclass(frozen=True)
class Topology:
    """Failure-domain hierarchy of the service's worker pool.

    The paper's cluster is hierarchical even at two GPUs: both share one
    node, one HCA, and one IB switch, so faults are *correlated* — a
    node loss takes every co-resident worker with it, a switch partition
    isolates a whole rack.  This maps the flat worker pool onto that
    hierarchy: worker → node → rack.  Racks tile the nodes in order
    (``ceil(n_nodes / n_racks)`` nodes per rack); workers fill nodes in
    order, ``workers_per_node`` per node.  Elastic scale-up workers past
    the boot pool are *assigned* a node by the scheduler (spread across
    the least-loaded healthy domains), so the arithmetic here only
    defines the boot layout.
    """

    n_nodes: int = 1
    workers_per_node: int = 1
    n_racks: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.workers_per_node < 1:
            raise ValueError("workers_per_node must be >= 1")
        if not 1 <= self.n_racks <= self.n_nodes:
            raise ValueError("n_racks must be in [1, n_nodes]")
        if (self.n_racks - 1) * self.nodes_per_rack >= self.n_nodes:
            raise ValueError(
                f"{self.n_nodes} node(s) tiled {self.nodes_per_rack} per rack "
                f"leave rack {self.n_racks - 1} of {self.n_racks} empty"
            )

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #

    @property
    def n_workers(self) -> int:
        return self.n_nodes * self.workers_per_node

    @property
    def nodes_per_rack(self) -> int:
        return -(-self.n_nodes // self.n_racks)

    def node_of_worker(self, worker_id: int) -> int:
        """Boot-pool mapping; elastic workers wrap around the nodes."""
        return (worker_id // self.workers_per_node) % self.n_nodes

    def rack_of_node(self, node: int) -> int:
        return node // self.nodes_per_rack

    def workers_on_node(self, node: int) -> tuple[int, ...]:
        """Boot-pool workers resident on ``node``."""
        base = node * self.workers_per_node
        return tuple(range(base, base + self.workers_per_node))

    def nodes_in_rack(self, rack: int) -> tuple[int, ...]:
        lo = rack * self.nodes_per_rack
        hi = min(lo + self.nodes_per_rack, self.n_nodes)
        return tuple(range(lo, hi))

    # ------------------------------------------------------------------ #
    # Serialization / CLI
    # ------------------------------------------------------------------ #

    @classmethod
    def parse(cls, text: str) -> "Topology":
        """Parse ``NODESxWORKERS[@RACKS]`` (e.g. ``4x2@2``)."""
        spec, at, racks = text.partition("@")
        nodes, sep, per_node = spec.partition("x")
        if not sep or (at and not racks):
            raise ValueError(
                f"topology must look like NODESxWORKERS[@RACKS], got {text!r}"
            )
        try:
            return cls(
                n_nodes=int(nodes),
                workers_per_node=int(per_node),
                n_racks=int(racks) if racks else 1,
            )
        except ValueError as exc:
            raise ValueError(f"bad topology {text!r}: {exc}") from None

    def __str__(self) -> str:
        return f"{self.n_nodes}x{self.workers_per_node}@{self.n_racks}"

    def to_json(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "workers_per_node": self.workers_per_node,
            "n_racks": self.n_racks,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Topology":
        return cls(
            n_nodes=int(data["n_nodes"]),
            workers_per_node=int(data["workers_per_node"]),
            n_racks=int(data["n_racks"]),
        )


@dataclass(frozen=True)
class ClusterSpec:
    """Topology and network characteristics of a GPU cluster partition."""

    gpus_per_node: int = 2
    numa_policy: str = "correct"
    params: PerfModelParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        if self.numa_policy not in NUMA_POLICIES:
            raise ValueError(
                f"numa_policy must be one of {NUMA_POLICIES}, got "
                f"{self.numa_policy!r}"
            )

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #

    def node_of(self, rank: int) -> int:
        return rank // self.gpus_per_node

    def nodes_for(self, n_ranks: int) -> int:
        return -(-n_ranks // self.gpus_per_node)

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def numa_ok(self, rank: int) -> bool:
        """Whether ``rank``'s process sits on its GPU's socket.

        ``correct``: always.  ``wrong``: never (the deliberately bad
        configuration of Fig. 5(a)).  ``unpinned``: the scheduler lands it
        on the right socket about half the time; we model the *average*
        penalty by treating unpinned as wrong for even ranks.
        """
        if self.numa_policy == "correct":
            return True
        if self.numa_policy == "wrong":
            return False
        return rank % 2 == 1

    # ------------------------------------------------------------------ #
    # Network timing
    # ------------------------------------------------------------------ #

    def link_kind(self, src: int, dst: int) -> str:
        return "shm" if self.same_node(src, dst) else "ib"

    def message_time(self, src: int, dst: int, nbytes: int) -> float:
        """Host-to-host transfer time for one MPI message.

        Intra-node messages copy through shared memory; inter-node
        messages traverse QDR InfiniBand (host-staged; no GPUDirect in
        2010).  Both include the MPI software overhead.
        """
        p = self.params
        if self.same_node(src, dst):
            latency, bw = p.shm_latency_s, p.shm_bw
        else:
            latency, bw = p.ib_latency_s, p.ib_bw
            # The 9g nodes have ONE InfiniBand HCA shared by both GPUs'
            # processes; in the solver every rank exchanges faces at the
            # same moment, so inter-node bandwidth is divided among the
            # node's ranks.
            bw /= self.gpus_per_node
        return p.mpi_overhead_s + latency + nbytes / bw

    def allreduce_time(self, n_ranks: int, nbytes: int = 8) -> float:
        """Model of a small allreduce: a binary tree of message stages.

        The paper's only collectives are the global sums of the linear
        algebra reductions (Section VI-E) — a few doubles each.
        """
        if n_ranks <= 1:
            return 0.0
        stages = (n_ranks - 1).bit_length()
        per_stage = self.params.allreduce_stage_s + nbytes / self.params.ib_bw
        return 2 * stages * per_stage  # reduce + broadcast
