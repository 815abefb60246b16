"""Wall-clock cost of the SimMPI rendezvous itself, per rank body.

Every rank of a payload-free workload does identical work, so the host
time one rank body costs should not depend on how many ranks there are —
that is the machine-independent shape ``check_comms_regression.py`` holds
(free-running rank threads paid ~3x more per body at 32 ranks than at 2).
Two workloads at 2 / 8 / 32 ranks:

* ``ring``  — ``ITERATIONS`` rounds of send-right / recv-left / allreduce
  on header-sized messages: nothing but the blocking path, every rank
  simulated (a plain ``SimMPI``);
* ``scaling_point`` — one timing-only ``run_scaling_point`` at the ledger's
  ``model-sweep`` shape (24^3 x 128 single-half, overlap, 40 iterations),
  which simulates one rank body per symmetry orbit (``SimMPI.simulated``).

Reported per case (medians over ``REPEATS`` runs): wall seconds, rank
bodies simulated per run, µs per blocking operation (receives +
collectives, from the public ``CommStats``), ms per simulated rank body,
and parks per rank body where the runtime counts them.  ``--record LABEL``
stores the rows in ``BENCH_comms.json`` (other rows of the label are
kept, so ``--case`` re-records one workload); pointing ``PYTHONPATH`` at
another checkout's ``src`` records that commit with the identical
benchmark code::

    PYTHONPATH=src python benchmarks/bench_comms.py --case scaling_point --record change
"""

import argparse
import json
import pathlib
import statistics
import time

from repro.bench.harness import run_scaling_point
from repro.comms.mpi_sim import SimMPI

BASELINE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_comms.json"
WHAT = (
    "wall-clock medians of payload-free SimMPI workloads, "
    "benchmarks/bench_comms.py: ring = send/recv/allreduce rounds, "
    "scaling_point = one timing-only 24^3x128 single-half solve"
)
RANKS = (2, 8, 32)
ITERATIONS = 200
REPEATS = 5


def ring_body(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    for _ in range(ITERATIONS):
        comm.send(None, right)
        comm.recv(left)
        comm.allreduce(1.0)


def run_ring(ranks: int) -> None:
    SimMPI(ranks).run(ring_body)


def run_point(ranks: int) -> None:
    run_scaling_point((24, 24, 24, 128), "single-half", ranks, fixed_iterations=40)


CASES = {"ring": run_ring, "scaling_point": run_point}


class WorldLog:
    """Wraps ``SimMPI.run`` from outside (as the ledger's tracer does) to
    read each finished world's public counters."""

    def __enter__(self):
        self.worlds: list[tuple[int, int, int | None]] = []
        self._run = run = SimMPI.run
        log = self.worlds

        def logged(world, fn, **kwargs):
            try:
                return run(world, fn, **kwargs)
            finally:
                ops = sum(s.recvs + s.collectives for s in world.comm_stats())
                # A world from before orbits simulates every rank.
                bodies = len(getattr(world, "simulated", range(world.size)))
                log.append((bodies, ops, getattr(world._state, "parks", None)))

        SimMPI.run = logged
        return self

    def __exit__(self, *exc):
        SimMPI.run = self._run


def measure(case: str, ranks: int, repeats: int = REPEATS) -> dict:
    run = CASES[case]
    run(ranks)  # warm-up: imports, memoised model tables
    walls = []
    with WorldLog() as log:
        for _ in range(repeats):
            start = time.perf_counter()
            run(ranks)
            walls.append(time.perf_counter() - start)
    wall = statistics.median(walls)
    bodies = sum(n for n, _, _ in log.worlds) // repeats
    ops = sum(n for _, n, _ in log.worlds) / repeats
    parks = [p for _, _, p in log.worlds]
    return {
        "ranks": ranks,
        "rank_bodies": bodies,
        "wall_s": round(wall, 4),
        "blocking_ops": int(ops),
        "us_per_blocking_op": round(1e6 * wall / ops, 2),
        "ms_per_rank_body": round(1e3 * wall / bodies, 3),
        "parks_per_rank_body": (
            None if None in parks else round(sum(parks) / repeats / bodies, 1)
        ),
    }


def measure_all(cases=tuple(CASES)) -> dict:
    return {
        f"{case}/{ranks}": measure(case, ranks) for case in cases for ranks in RANKS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", metavar="LABEL",
        help="store the table under LABEL (e.g. parent, change) in the baseline file",
    )
    parser.add_argument("--baseline", type=pathlib.Path, default=BASELINE)
    parser.add_argument(
        "--case", choices=sorted(CASES), action="append",
        help="measure only this workload (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    results = measure_all(args.case or tuple(CASES))
    for name, row in results.items():
        parks = row["parks_per_rank_body"]
        print(
            f"{name:18s} {row['wall_s']:8.3f} s  {row['rank_bodies']:3d} bodies  "
            f"{row['us_per_blocking_op']:8.2f} us/op  "
            f"{row['ms_per_rank_body']:8.3f} ms/body  "
            + ("parks not counted" if parks is None else f"{parks:7.1f} parks/body")
        )
    if args.record:
        doc = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        doc.setdefault("what", WHAT)
        doc.setdefault(args.record, {}).update(results)
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"recorded {len(results)} case(s) under {args.record!r} in {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
