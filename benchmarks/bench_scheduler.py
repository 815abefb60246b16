"""What the scheduler pays per arrival and per request.

The wall-clock ledger's ``serve-steady`` workload — 20,000 requests of a
100 rps stream with tenancy, health, hedging, brownout and preemption on
— split into the two costs its end-to-end time is made of:

* ``arrival_us`` — host µs per generated arrival: the ledger's steady
  stream (``stream_workload``), 20,000 arrivals drawn and discarded;
* ``request_us`` — host µs per request of the whole campaign
  (``SolveService.serve`` over that stream, generation included);
* ``pool_recounts_per_request`` — ``_Campaign._eligible`` calls per
  request.  Recounting the serving pool costs one call per worker; a
  view kept at the transitions that change it costs one per worker a
  transition touches.  The count repeats exactly.
* ``health_calls_per_request`` — calls to the public methods of
  ``HealthBoard`` and ``BrownoutController`` (the wall-clock ledger's
  ``service.health`` span), inherited ones included, per request.  A
  completion that asks the breaker once instead of five times halves
  it.  The count repeats exactly.
* ``retained_bytes_per_request`` — bytes (tracemalloc) the campaign's
  ``ServiceResult`` still holds once it has returned, per request: the
  records, batches and report a caller keeps.  A slotted row with flat
  notes costs less than an object with a ``__dict__`` and a tuple per
  note.  A process repeats it to within 0.1 %.

Times are medians of ``REPEATS`` runs after a warm-up.  Everything is
read from outside (the counted methods are wrapped on their classes),
so pointing ``PYTHONPATH`` at another checkout's ``src`` records that
commit with identical code::

    PYTHONPATH=src python benchmarks/bench_scheduler.py --record change
"""

import argparse
import gc
import inspect
import json
import pathlib
import statistics
import time
import tracemalloc

import repro.service as service
from repro.service.service import _Campaign

BASELINE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_scheduler.json"
WHAT = (
    "benchmarks/bench_scheduler.py: the ledger's serve-steady stream and "
    "campaign at 20000 requests, seed 2010; medians of 5 runs"
)
N = 20_000
SEED = 2010
RATE_RPS = 100.0
REPEATS = 5


def config() -> service.ServiceConfig:
    """``benchmarks/ledger/workloads.py``'s ``serve-steady`` stack."""
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


def drain(n: int) -> None:
    for _ in stream(n):
        pass


def serve(n: int) -> None:
    service.SolveService(config()).serve(stream(n))


def timed(fn, n: int) -> float:
    start = time.perf_counter()
    fn(n)
    return time.perf_counter() - start


def counted_calls(n: int, methods) -> int:
    """Calls to ``methods`` — ``(class, name)`` pairs, wrapped on the
    class — in one campaign of ``n`` requests."""
    calls = [0]
    real = [(owner, name, vars(owner)[name]) for owner, name in methods]

    def counting(fn):
        def call(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return call

    for owner, name, fn in real:
        setattr(owner, name, counting(fn))
    try:
        serve(n)
    finally:
        for owner, name, fn in real:
            setattr(owner, name, fn)
    return calls[0]


def retained_bytes(n: int) -> int:
    """Bytes the ``ServiceResult`` of one campaign of ``n`` requests
    holds: traced memory with the result alive, less traced memory once
    it is dropped."""
    tracemalloc.start()
    try:
        result = service.SolveService(config()).serve(stream(n))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del result
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def health_methods() -> list:
    """The public methods of ``HealthBoard`` and ``BrownoutController``,
    own and inherited."""
    owners = {*service.HealthBoard.__mro__, *service.BrownoutController.__mro__}
    return [
        (owner, name)
        for owner in owners - {object}
        for name, fn in vars(owner).items()
        if not name.startswith("_") and inspect.isfunction(fn)
    ]


def measure(n: int = N, repeats: int = REPEATS) -> dict:
    serve(200)  # warm-up: imports, memoised model tables
    arrivals, requests = [], []
    for _ in range(repeats):
        arrivals.append(timed(drain, n))
        requests.append(timed(serve, n))
    return {
        "requests": n,
        "arrival_us": round(1e6 * statistics.median(arrivals) / n, 2),
        "request_us": round(1e6 * statistics.median(requests) / n, 2),
        "pool_recounts_per_request": round(
            counted_calls(n, [(_Campaign, "_eligible")]) / n, 3
        ),
        "health_calls_per_request": round(counted_calls(n, health_methods()) / n, 3),
        "retained_bytes_per_request": round(retained_bytes(n) / n, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", metavar="LABEL",
        help="store the row under LABEL (e.g. parent, change) in the baseline file",
    )
    parser.add_argument("--baseline", type=pathlib.Path, default=BASELINE)
    args = parser.parse_args(argv)
    row = measure()
    print(
        f"{row['requests']} requests  {row['arrival_us']:.2f} us/arrival  "
        f"{row['request_us']:.2f} us/request  "
        f"{row['pool_recounts_per_request']:.3f} pool recounts/request  "
        f"{row['health_calls_per_request']:.3f} health calls/request  "
        f"{row['retained_bytes_per_request']:.1f} bytes retained/request"
    )
    if args.record:
        doc = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        doc.setdefault("what", WHAT)
        doc[args.record] = row
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"recorded under {args.record!r} in {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
