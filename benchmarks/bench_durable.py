"""What a campaign checkpoint commit costs, and how that grows.

The wall-clock ledger's ``serve-durable`` workload — the ``serve-steady``
feature stack with a commit per batch, one scheduler crash at half time
and a resume — at 600 requests (the ledger's size) and 2,400.  A commit
should cost what changed since the last one, so nothing measured *per
commit* may depend on how long the campaign has run: that is the
machine-independent shape ``check_durable_regression.py`` holds (a
whole-campaign snapshot per commit grew linearly in both bytes and time).

Reported per size:

* ``bytes_per_commit_median`` / ``_last`` — bytes CRC-framed inside one
  ``commit`` call (what a file-backed store writes);
* ``us_per_commit`` — median host time of a ``commit`` call (the best
  such median of ``REPEATS`` runs);
* ``retained_bytes`` — every ``bytes`` object the store still holds at
  the end, against ``snapshot_bytes``, the whole campaign as one record;
* ``durable_wall_s`` / ``storeless_wall_s`` and their ratio — the same
  campaign with and without a store (no crash), best of ``REPEATS``.

Everything is read from outside through public names (``commit`` is
wrapped as the ledger's tracer wraps it), so pointing ``PYTHONPATH`` at
another checkout's ``src`` records that commit with identical code::

    PYTHONPATH=src python benchmarks/bench_durable.py --record change
"""

import argparse
import json
import pathlib
import statistics
import time

import repro.service as service
from repro import codec

BASELINE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_durable.json"
WHAT = (
    "benchmarks/bench_durable.py: the ledger's serve-durable campaign (commit "
    "per batch, crash at half time, resume) at 600 and 2400 requests, seed 2010"
)
SIZES = (600, 2400)
SEED = 2010
RATE_RPS = 100.0
REPEATS = 5


def config() -> service.ServiceConfig:
    """``benchmarks/ledger/workloads.py``'s ``serve-durable`` stack."""
    s = service
    return s.ServiceConfig(
        queue_capacity=4096,
        policy=s.BatchPolicy(max_batch=4),
        n_workers=4,
        ranks_per_worker=2,
        preemption=s.PreemptionPolicy(enabled=True),
        health=s.HealthPolicy(enabled=True),
        hedge=s.HedgePolicy(enabled=True),
        brownout=s.BrownoutPolicy(enabled=True),
        tenancy=s.TenancyPolicy.build(("atlas", "bell"), weights=(3.0, 1.0)),
    )


def stream(n: int):
    return service.stream_workload(
        n, seed=SEED, rate_rps=RATE_RPS, dims=(4, 4, 4, 8), mode="double-half",
        priority_mix=(0.1, 0.7, 0.2), deadline_slack_s=0.15,
        tenants=("atlas", "bell"),
    )


def run_durable(n: int) -> service.CampaignCheckpointStore:
    store = service.CampaignCheckpointStore()
    svc = service.SolveService(config())
    try:
        svc.serve(stream(n), checkpoint=store, crash_at_s=n / RATE_RPS / 2)
    except service.SchedulerCrash:
        svc.resume(stream(n), checkpoint=store)
    return store


def run_storeless(n: int) -> None:
    service.SolveService(config()).serve(stream(n))


class CommitLog:
    """Wraps ``CampaignCheckpointStore.commit`` and ``codec.encode_frame``
    from outside: host seconds and framed bytes of every commit."""

    def __enter__(self):
        self.seconds: list[float] = []
        self.bytes: list[int] = []
        self._commit = commit = service.CampaignCheckpointStore.commit
        self._encode_frame = encode_frame = codec.encode_frame
        framed = [0]

        def counting(payload, kind):
            frame = encode_frame(payload, kind)
            framed[0] += len(frame)
            return frame

        def logged(store, *args, **kwargs):
            framed[0] = 0
            start = time.perf_counter()
            try:
                return commit(store, *args, **kwargs)
            finally:
                self.seconds.append(time.perf_counter() - start)
                self.bytes.append(framed[0])

        codec.encode_frame = counting
        service.CampaignCheckpointStore.commit = logged
        return self

    def __exit__(self, *exc):
        codec.encode_frame = self._encode_frame
        service.CampaignCheckpointStore.commit = self._commit


def held_bytes(obj) -> int:
    """Total length of the ``bytes`` objects reachable through ``obj``'s
    attributes, lists, tuples and dicts."""
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, dict):
        return sum(held_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(v) for v in obj)
    if isinstance(obj, service.CampaignCheckpointStore):
        return held_bytes(vars(obj))
    return 0


def timed(fn, n: int):
    start = time.perf_counter()
    out = fn(n)
    return time.perf_counter() - start, out


def measure(n: int, repeats: int = REPEATS) -> dict:
    """Best of ``repeats`` runs for every time (this box shares its
    cores: the fastest run is the one least disturbed); the counts
    repeat exactly."""
    run_storeless(min(n, 100))  # warm-up: imports, memoised model tables
    durable, storeless, commit_us = [], [], []
    for _ in range(repeats):
        # Alternating, so a slow spell of the box falls on both sides.
        with CommitLog() as log:
            wall, store = timed(run_durable, n)
        durable.append(wall)
        commit_us.append(1e6 * statistics.median(log.seconds))
        storeless.append(timed(run_storeless, n)[0])
    return {
        "requests": n,
        "commits": len(log.bytes),
        "bytes_per_commit_median": int(statistics.median(log.bytes)),
        "bytes_per_commit_last": log.bytes[-1],
        "us_per_commit": round(min(commit_us), 1),
        "retained_bytes": held_bytes(store),
        "snapshot_bytes": len(store.latest().to_bytes()),
        "durable_wall_s": round(min(durable), 4),
        "storeless_wall_s": round(min(storeless), 4),
        "durable_over_storeless": round(min(durable) / min(storeless), 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", metavar="LABEL",
        help="store the table under LABEL (e.g. parent, change) in the baseline file",
    )
    parser.add_argument("--baseline", type=pathlib.Path, default=BASELINE)
    args = parser.parse_args(argv)
    results = {str(n): measure(n) for n in SIZES}
    for row in results.values():
        print(
            f"{row['requests']:5d} requests  {row['commits']:5d} commits  "
            f"{row['bytes_per_commit_median']:8d} B/commit (last "
            f"{row['bytes_per_commit_last']})  {row['us_per_commit']:9.1f} us/commit  "
            f"retained {row['retained_bytes']} B of a {row['snapshot_bytes']} B "
            f"snapshot  {row['durable_wall_s']:.3f} s durable / "
            f"{row['storeless_wall_s']:.3f} s store-less = "
            f"{row['durable_over_storeless']:.2f}x"
        )
    if args.record:
        doc = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        doc.setdefault("what", WHAT)
        doc[args.record] = results
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"recorded {len(results)} size(s) under {args.record!r} in {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
