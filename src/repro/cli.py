"""Command-line interface: the library's workflow as shell commands.

    python -m repro solve     --dims 8,8,8,16 --mode single-half --gpus 2
    python -m repro generate  --dims 4,4,4,8 --beta 5.7 --updates 10 --out cfg
    python -m repro spectrum  --config cfg.npz --mass 0.3
    python -m repro bench     --figure fig5b
    python -m repro chaos     --seed 7 --gpus 4 --stall 2
    python -m repro experiments --out EXPERIMENTS.md

``solve`` runs the paper's solver on a weak-field (or stored)
configuration; ``generate`` runs the heatbath Monte Carlo; ``spectrum``
computes meson correlators from a stored configuration; ``bench``
regenerates one of the paper's figures; ``experiments`` writes the full
paper-vs-measured report.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

__all__ = ["main", "build_parser", "serve_config"]


def _dims(text: str) -> tuple[int, int, int, int]:
    from .lattice.geometry import check_dims

    parts = tuple(int(p) for p in text.replace("x", ",").split(","))
    try:
        return check_dims(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grid(text: str) -> tuple[int, int]:
    parts = tuple(int(p) for p in text.split(","))
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("grid must be RANKS_Z,RANKS_T")
    return parts


def _mix(text: str) -> tuple[float, float, float]:
    parts = tuple(float(p) for p in text.split(","))
    if len(parts) != 3 or any(p < 0 for p in parts) or not sum(parts):
        raise argparse.ArgumentTypeError(
            "priority mix must be three non-negative weights HIGH,NORMAL,LOW"
        )
    return parts


def _names(text: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts:
        raise argparse.ArgumentTypeError("need at least one name")
    return parts


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _grid_policy(text: str):
    """The serve-side grid knob: 'auto' (score per request), 'time'
    (pin the paper's time-only slicing), or a pinned RANKS_Z,RANKS_T."""
    if text == "auto":
        return "auto"
    if text in ("time", "none"):
        return None
    return _grid(text)


def _serve_knobs():
    """``(holder, class, fields)`` for ``ServiceConfig`` (holder
    ``None``) and each policy it holds (holder: the config field): the
    fields that declare the one ``repro serve`` flag setting them."""
    from .service import ServiceConfig

    holders = [(None, ServiceConfig)] + [
        (f.name, f.default_factory)
        for f in dataclasses.fields(ServiceConfig)
        if dataclasses.is_dataclass(f.default_factory)
    ]
    for holder, cls in holders:
        fields = [f for f in dataclasses.fields(cls) if "flag" in f.metadata]
        if fields:
            yield holder, cls, fields


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-GPU QUDA reproduction (Babich/Clark/Joo, SC'10) "
        "on a simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one Wilson-clover solve")
    p.add_argument("--dims", type=_dims, default=(8, 8, 8, 16))
    p.add_argument("--mode", default="single-half",
                   choices=["single", "double", "single-half", "double-half"])
    p.add_argument("--gpus", type=int, default=2)
    p.add_argument("--grid", type=_grid, default=None,
                   help="multi-dimensional decomposition: RANKS_Z,RANKS_T")
    p.add_argument("--mass", type=float, default=0.1)
    p.add_argument("--no-overlap", action="store_true",
                   help="disable communication/computation overlap")
    p.add_argument("--config", default=None, help="stored gauge config (.npz)")
    p.add_argument("--seed", type=int, default=2010)

    p = sub.add_parser("generate", help="heatbath gauge generation")
    p.add_argument("--dims", type=_dims, default=(4, 4, 4, 8))
    p.add_argument("--beta", type=float, default=5.7)
    p.add_argument("--updates", type=int, default=10)
    p.add_argument("--start", default="cold", choices=["cold", "hot"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="save final configuration here")

    p = sub.add_parser("spectrum", help="meson correlators from a config")
    p.add_argument("--config", default=None, help="stored gauge config (.npz)")
    p.add_argument("--dims", type=_dims, default=(4, 4, 4, 8),
                   help="weak-field dims when no --config is given")
    p.add_argument("--mass", type=float, default=0.3)
    p.add_argument("--gpus", type=int, default=2)
    p.add_argument("--channels", default="pion,rho_x")
    p.add_argument("--seed", type=int, default=3)

    p = sub.add_parser("bench", help="regenerate one paper figure")
    p.add_argument("--figure", required=True)
    p.add_argument("--iterations", type=int, default=15)

    p = sub.add_parser(
        "profile",
        help="per-kernel time breakdown of rank 0's solver window in the "
        "timing-only solve invert_model runs (the host CPU: python -m "
        "cProfile -m repro serve ...)",
    )
    p.add_argument("--dims", type=_dims, default=(24, 24, 24, 128))
    p.add_argument("--mode", default="single-half",
                   choices=["single", "double", "single-half", "double-half"])
    p.add_argument("--gpus", type=int, default=8)
    p.add_argument("--no-overlap", action="store_true")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--gantt", action="store_true",
                   help="also draw the stream schedule of the window")

    p = sub.add_parser(
        "chaos",
        help="fault-injected solve: deterministic latency jitter, "
        "send retries, rank stalls/crashes, silent data corruption",
    )
    p.add_argument("--seed", type=int, default=7,
                   help="fault-plan seed (same seed => same schedule)")
    p.add_argument("--dims", type=_dims, default=(8, 8, 8, 32))
    p.add_argument("--mode", default="single-half",
                   choices=["single", "double", "single-half", "double-half"])
    p.add_argument("--gpus", type=int, default=4)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--no-overlap", action="store_true")
    p.add_argument("--jitter-prob", type=float, default=0.25,
                   help="per-message chance of extra latency on IB links")
    p.add_argument("--jitter-us", type=float, default=20.0,
                   help="mean of the exponential extra latency")
    p.add_argument("--spike-prob", type=float, default=0.02,
                   help="chance of a large reordering latency spike")
    p.add_argument("--send-fail-prob", type=float, default=0.05,
                   help="transient send-failure chance (retried w/ backoff)")
    p.add_argument("--stall", type=int, default=None, metavar="RANK",
                   help="rank that stops responding mid-solve")
    p.add_argument("--crash", type=int, default=None, metavar="RANK",
                   help="rank that dies loudly mid-solve")
    p.add_argument("--fail-after-us", type=float, default=500.0,
                   help="model time at which the stalled/crashed rank dies")
    p.add_argument("--schedule", action="store_true",
                   help="print the full injected-fault schedule")
    p.add_argument("--recover", action="store_true",
                   help="self-heal: relaunch over the survivors and resume "
                   "from the last refresh-point checkpoint")
    p.add_argument("--max-attempts", type=int, default=2,
                   help="relaunch budget when --recover is given")
    p.add_argument("--no-shrink", action="store_true",
                   help="relaunch at the same rank count instead of "
                   "re-partitioning over the survivors")
    p.add_argument("--functional", action="store_true",
                   help="real numerics on a weak-field configuration "
                   "(verifies the true residual) instead of timing-only")
    p.add_argument("--mass", type=float, default=0.2,
                   help="quark mass for --functional runs")
    p.add_argument("--corrupt", action="store_true",
                   help="inject silent data corruption on in-flight "
                   "payloads (detected/repaired by the integrity layer)")
    p.add_argument("--bitflip-rate", type=float, default=0.02,
                   help="per-message bit-flip chance when --corrupt is given")
    p.add_argument("--scribble-rate", type=float, default=0.0,
                   help="per-message value-scribble chance with --corrupt")
    p.add_argument("--corrupt-bits", type=int, default=1,
                   help="bits flipped per corrupted message")
    p.add_argument("--corrupt-budget", type=int, default=-1,
                   help="max corrupted transmissions per rank (-1 = unlimited)")
    p.add_argument("--resident", type=int, default=None, metavar="RANK",
                   help="scribble over RANK's resident solution field "
                   "mid-solve (caught by the invariant monitors)")
    p.add_argument("--resident-after-us", type=float, default=2000.0,
                   help="model time of the resident corruption")
    p.add_argument("--resident-scale", type=float, default=1e4,
                   help="scribble magnitude relative to the field's own "
                   "largest entry (big enough to trip the invariant "
                   "monitors; small perturbations are absorbed)")
    p.add_argument("--no-verify", action="store_true",
                   help="disable checksum verification (demonstrates the "
                   "silent-corruption failure mode)")
    p.add_argument("--max-resend", type=int, default=3,
                   help="NACK/resend budget per corrupted message")

    p = sub.add_parser(
        "serve",
        help="run the solve service: queued, batched, SLO-aware campaign "
        "scheduling over a pool of simulated multi-GPU workers",
    )
    # A flag that sets one config field is declared on that field and has
    # no default: left out, the library's default holds (``serve_config``).
    for _, _, fields in _serve_knobs():
        for f in fields:
            kind = type(f.default)
            typed = dict(action="store_true") if kind is bool else dict(type=kind)
            p.add_argument(f.metadata["flag"], help=f.metadata["help"], **typed)
    p.add_argument("--requests", type=int, default=32,
                   help="synthetic campaign size (solver calls)")
    p.add_argument("--dims", type=_dims, default=(8, 8, 8, 32))
    p.add_argument("--mode", default="single-half",
                   choices=["single", "double", "single-half", "double-half"])
    p.add_argument("--mass", type=float, default=0.2)
    p.add_argument("--rate", type=float, default=2000.0,
                   help="arrival rate (requests per model second)")
    p.add_argument("--configs", type=int, default=1,
                   help="distinct gauge configurations in the campaign "
                   "(only same-config requests share a batch)")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request SLO slack in model ms (goodput metric)")
    p.add_argument("--seed", type=int, default=2010)
    p.add_argument("--chaos", action="store_true",
                   help="inject a rank crash into one worker mid-campaign")
    p.add_argument("--crash-worker", type=int, default=0,
                   help="worker hit by the chaos crash")
    p.add_argument("--crash-rank", type=int, default=1,
                   help="rank of that worker's cluster that dies")
    p.add_argument("--fail-after-us", type=float, default=500.0,
                   help="model time into a batch at which the rank dies")
    p.add_argument("--recover", action="store_true",
                   help="worker-level self-healing (checkpoint resume over "
                   "survivors) instead of service-level re-dispatch")
    p.add_argument("--max-attempts", type=int, default=2,
                   help="worker relaunch budget when --recover is given")
    p.add_argument("--grid", type=_grid_policy, default="auto",
                   metavar="auto|time|RANKS_Z,RANKS_T",
                   help="process-grid policy: 'auto' scores every feasible "
                   "decomposition per request with the perf model, 'time' "
                   "pins the paper's time-only slicing, RANKS_Z,RANKS_T "
                   "pins one grid")
    p.add_argument("--no-residency", action="store_true",
                   help="disable gauge-resident routing (every batch "
                   "re-uploads its configuration)")
    p.add_argument("--tunecache", default=None, metavar="PATH",
                   help="persist the shared tunecache as JSON at PATH: "
                   "loaded before the campaign if present, saved after, so "
                   "the autotune sweep amortizes across campaigns")
    p.add_argument("--trace", type=int, default=None, metavar="REQ_ID",
                   help="print one request's full lifecycle trace")
    p.add_argument("--json", default=None,
                   help="also write the report as JSON to this path")
    # ---- daemon mode -------------------------------------------------- #
    p.add_argument("--stream", action="store_true",
                   help="daemon mode: requests arrive over an open channel "
                   "(lazy seeded Poisson source) instead of a precomputed "
                   "list; the scheduler runs until the channel closes and "
                   "every admitted request is terminal")
    p.add_argument("--duration-ms", type=float, default=None,
                   help="close the arrival channel after this much model "
                   "time (with --stream; combines with --requests)")
    p.add_argument("--burst-rate", type=float, default=None,
                   help="bursty arrivals: rate inside the burst window "
                   "(base rate comes from --rate; implies --stream)")
    p.add_argument("--burst-start-ms", type=float, default=0.0,
                   help="model time the burst window opens")
    p.add_argument("--burst-len-ms", type=float, default=0.0,
                   help="burst window length in model ms")
    p.add_argument("--priority-mix", type=_mix, default=None,
                   metavar="HIGH,NORMAL,LOW",
                   help="arrival priority mix as three weights "
                   "(default 0.1,0.7,0.2)")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="commit the campaign checkpoint to PATH at every "
                   "batch boundary (scheduler self-healing)")
    p.add_argument("--crash-scheduler-at-ms", type=float, default=None,
                   help="kill the scheduler at this model time, then "
                   "resume from the campaign checkpoint (supervisor "
                   "pattern); exits non-zero unless the resumed run "
                   "restores from checkpoint and terminates every "
                   "admitted request")
    # ---- worker faults ------------------------------------------------ #
    p.add_argument("--kill-worker-at-ms", type=float, default=None,
                   help="kill a whole worker at this model time "
                   "(correlated failure; its in-flight requests "
                   "re-dispatch)")
    p.add_argument("--kill-worker", type=int, default=0,
                   help="worker id the --kill-worker-at-ms kill hits")
    p.add_argument("--straggler-factor", type=float, default=None,
                   help="slow one worker's solves by this factor "
                   "(> 1; the fault straggler hedging exists for)")
    p.add_argument("--straggler-worker", type=int, default=1,
                   help="worker id the --straggler-factor slowdown hits")
    # ---- failure domains ---------------------------------------------- #
    p.add_argument("--topology", default=None, metavar="NODESxGPUS[@RACKS]",
                   help="failure-domain hierarchy, e.g. 3x2@3: workers map "
                   "onto nodes, nodes onto racks (switches); enables "
                   "correlated faults and mirrored checkpoints")
    p.add_argument("--kill-node-at-ms", type=float, default=None,
                   help="silently kill a whole node at this model time: "
                   "its workers stop answering but the scheduler is not "
                   "told — the health stack must infer the loss")
    p.add_argument("--kill-node", type=int, default=0,
                   help="node id the --kill-node-at-ms kill hits")
    p.add_argument("--partition-switch-at-ms", type=float, default=None,
                   help="partition a whole rack (switch failure) at this "
                   "model time; it heals after a seeded interval")
    p.add_argument("--partition-rack", type=int, default=0,
                   help="rack id the --partition-switch-at-ms hits")
    p.add_argument("--heal-ms", type=float,
                   help="mean model time before a partitioned rack heals")
    # ---- multi-tenancy ------------------------------------------------- #
    p.add_argument("--tenants", type=_names, default=None, metavar="A,B,...",
                   help="tenant names sharing the service; enables "
                   "per-tenant quotas, weighted-fair dispatch, and the "
                   "per-tenant scorecard")
    p.add_argument("--tenant-weights", type=_floats, default=None,
                   metavar="W,W,...",
                   help="fair-share weights, one per tenant "
                   "(default: equal)")
    p.add_argument("--tenant-mix", type=_floats, default=None,
                   metavar="P,P,...",
                   help="arrival mix across tenants as weights "
                   "(default: uniform)")
    p.add_argument("--quota-qps", type=float, default=None,
                   help="per-tenant token-bucket refill rate (requests "
                   "per model second; default: unmetered)")
    p.add_argument("--quota-burst", type=int, default=None,
                   help="per-tenant token-bucket capacity (back-to-back "
                   "arrivals before the refill rate gates admission; "
                   "default: one second of --quota-qps)")
    p.add_argument("--capacity-sweep", action="store_true",
                   help="instead of one campaign, sweep arrival rate x "
                   "tenant mix x worker count and print the saturation "
                   "map (the SLO-attainment knee); honours --json")

    p = sub.add_parser("experiments", help="write the full EXPERIMENTS.md")
    p.add_argument("--out", default="EXPERIMENTS.md")
    p.add_argument("--iterations", type=int, default=40)
    return parser


def _cmd_solve(args) -> int:
    from .core import invert, paper_invert_param
    from .lattice import random_spinor, weak_field_gauge
    from .lattice.geometry import LatticeGeometry
    from .lattice.io import load_gauge

    rng = np.random.default_rng(args.seed)
    if args.config:
        gauge, meta = load_gauge(args.config)
        print(f"loaded {args.config}: dims {gauge.geometry.dims}, "
              f"plaquette {gauge.plaquette():.4f}, metadata {meta}")
    else:
        geo = LatticeGeometry(args.dims)
        gauge = weak_field_gauge(geo, rng, noise=0.1)
    source = random_spinor(gauge.geometry, rng)
    inv = paper_invert_param(
        args.mode, mass=args.mass, overlap_comms=not args.no_overlap
    )
    res = invert(gauge, source, inv, n_gpus=args.gpus, grid=args.grid)
    ranks = args.grid[0] * args.grid[1] if args.grid else args.gpus
    print(f"solved on {ranks} virtual GPUs "
          f"({'grid ' + str(args.grid) if args.grid else 'time-sliced'})")
    print(f"  converged:      {res.stats.converged}")
    print(f"  iterations:     {res.stats.iterations} "
          f"({res.stats.reliable_updates} reliable updates)")
    print(f"  true residual:  {res.true_residual:.3e}")
    print(f"  model time:     {res.stats.model_time * 1e3:.2f} ms")
    print(f"  sustained rate: {res.stats.sustained_gflops:.1f} effective Gflops")
    return 0 if res.stats.converged else 1


def _cmd_generate(args) -> int:
    from .lattice.geometry import LatticeGeometry
    from .lattice.io import save_gauge
    from .lattice.montecarlo import Ensemble

    ens = Ensemble(
        LatticeGeometry(args.dims),
        beta=args.beta,
        rng=np.random.default_rng(args.seed),
        start=args.start,
    )
    for step in range(args.updates):
        plaq = ens.update(1)
        print(f"update {step + 1:3d}: plaquette {plaq:.5f}")
    if args.out:
        save_gauge(args.out, ens.gauge, metadata={
            "beta": args.beta, "updates": args.updates, "start": args.start,
        })
        print(f"saved configuration to {args.out}.npz")
    return 0


def _cmd_spectrum(args) -> int:
    from .core import paper_invert_param
    from .lattice import weak_field_gauge
    from .lattice.geometry import LatticeGeometry
    from .lattice.io import load_gauge
    from .lattice.measurements import compute_propagator, meson_correlator

    rng = np.random.default_rng(args.seed)
    if args.config:
        gauge, _ = load_gauge(args.config)
    else:
        gauge = weak_field_gauge(LatticeGeometry(args.dims), rng, noise=0.1)
    inv = paper_invert_param("single-half", mass=args.mass)
    print("computing the 12 propagator columns ...")
    prop = compute_propagator(gauge, inv, n_gpus=args.gpus)
    channels = args.channels.split(",")
    correlators = {ch: meson_correlator(prop, ch) for ch in channels}
    T = gauge.geometry.dims[3]
    header = "  t " + "".join(f"{ch:>14s}" for ch in channels)
    print(header)
    for t in range(T // 2):
        row = f" {t:2d} " + "".join(
            f"{correlators[ch][t]:14.6e}" for ch in channels
        )
        print(row)
    return 0


def _cmd_bench(args) -> int:
    import inspect

    from .bench.figures import ALL_FIGURES

    if args.figure not in ALL_FIGURES:
        print(f"unknown figure {args.figure!r}; available: "
              f"{', '.join(ALL_FIGURES)}", file=sys.stderr)
        return 2
    driver = ALL_FIGURES[args.figure]
    # Figures with a fixed workload (fig7, memory) take no iteration count.
    if "iterations" in inspect.signature(driver).parameters:
        exp = driver(iterations=args.iterations)
    else:
        exp = driver()
    print(exp.render())
    return 0


def _cmd_profile(args) -> int:
    from .bench.profile import render_profile
    from .bench.trace import render_gantt
    from .core import invert_model, paper_invert_param

    overlap = not args.no_overlap
    res = invert_model(
        args.dims,
        paper_invert_param(
            args.mode, overlap_comms=overlap, fixed_iterations=args.iterations
        ),
        n_gpus=args.gpus,
        enforce_memory=False,
    )
    window = res.per_rank[0]
    ops = [
        o for o in res.timeline.ops
        if window.t_start <= o.start and o.end <= window.t_end
    ]
    print(
        f"{args.iterations} iterations of {args.mode} on {args.gpus} GPUs "
        f"({args.dims[0]}x{args.dims[1]}x{args.dims[2]}x{args.dims[3]}, "
        f"{'overlapped' if overlap else 'not overlapped'}): "
        f"{window.seconds * 1e3:.2f} ms\n"
    )
    print(render_profile(ops))
    if args.gantt:
        print()
        print(render_gantt(ops))
    return 0


def _cmd_chaos(args) -> int:
    from .bench.harness import chaos_invert, chaos_solve
    from .bench.trace import render_recovery_lanes
    from .comms import FaultPlan, IntegrityPolicy, LinkFaults, format_schedule
    from .core import RetryPolicy

    try:
        corrupt = dict(
            bitflip_prob=args.bitflip_rate if args.corrupt else 0.0,
            scribble_prob=args.scribble_rate if args.corrupt else 0.0,
            bitflip_bits=args.corrupt_bits,
        )
        plan = FaultPlan(
            seed=args.seed,
            ib=LinkFaults(args.jitter_prob, args.jitter_us * 1e-6,
                          args.spike_prob, 10 * args.jitter_us * 1e-6,
                          **corrupt),
            shm=LinkFaults(args.jitter_prob, args.jitter_us * 1e-7,
                           args.spike_prob, args.jitter_us * 1e-6,
                           **corrupt),
            send_fail_prob=args.send_fail_prob,
            corrupt_budget=args.corrupt_budget,
        )
        if args.resident is not None:
            plan = plan.with_resident_corruption(
                args.resident, after_s=args.resident_after_us * 1e-6,
                scale=args.resident_scale,
            )
        integrity = None
        if args.no_verify:
            integrity = IntegrityPolicy.off()
        elif args.corrupt or args.resident is not None:
            integrity = IntegrityPolicy(max_resend=args.max_resend)
        if args.stall is not None:
            plan = plan.with_stall(args.stall, after_s=args.fail_after_us * 1e-6)
        if args.crash is not None:
            plan = plan.with_stall(
                args.crash, after_s=args.fail_after_us * 1e-6, mode="crash"
            )
        policy = RetryPolicy()
        if args.recover:
            policy = RetryPolicy(
                max_attempts=args.max_attempts, shrink=not args.no_shrink
            )
        print(f"fault plan: {plan.describe()}")
        if args.functional:
            report = chaos_invert(
                args.dims, args.mode, args.gpus, plan,
                mass=args.mass, overlap=not args.no_overlap,
                retry_policy=policy, integrity=integrity,
            )
        else:
            report = chaos_solve(
                args.dims, args.mode, args.gpus, plan,
                overlap=not args.no_overlap, fixed_iterations=args.iterations,
                retry_policy=policy, integrity=integrity,
            )
    except ValueError as exc:
        print(f"repro chaos: error: {exc}")
        return 2
    n_events = len(report.fault_events)
    print(f"injected faults: {n_events} events, {report.retries} send "
          f"retries, {report.injected_delay_s * 1e6:.3f} us extra model time")
    corruption_requested = args.corrupt or args.resident is not None
    # Wire corruption (checksummed envelopes) must be detected
    # deterministically; resident corruption is caught by magnitude-
    # sensitive invariant monitors, so it does not gate the exit code —
    # a perturbation small enough to be absorbed by the Krylov iteration
    # is benign by construction.
    injected_wire = sum(
        1 for e in report.fault_events
        if e.kind in ("bitflip", "scribble", "coll_corrupt")
    )
    injected_corruptions = injected_wire + sum(
        1 for e in report.fault_events if e.kind == "resident_corrupt"
    )
    if corruption_requested:
        print(f"data integrity: {injected_corruptions} corruption(s) injected, "
              f"{report.corruptions_detected} detected, "
              f"{report.corruptions_corrected} corrected, "
              f"{report.resends} resend(s), "
              f"{report.integrity_overhead_s * 1e6:.3f} us verify overhead")
    if args.schedule or not report.completed:
        print(format_schedule(report.fault_events))
    if args.recover:
        print("recovery ledger:")
        print(render_recovery_lanes(report.recovery_events))
        if report.recoveries:
            print(f"recovered: {report.recoveries} relaunch(es), "
                  f"{report.wasted_iterations} iterations wasted, "
                  f"{report.lost_time_s * 1e6:.3f} us lost, "
                  f"finished on {report.final_ranks} rank(s)")
    if report.completed:
        print(f"solver completed: model time {report.model_time * 1e6:.3f} us "
              f"({report.gflops:.1f} effective Gflops)")
        # Injected corruption that sailed through an enabled integrity
        # layer undetected is itself a failure of the protection.
        silent = (
            corruption_requested
            and not args.no_verify
            and injected_wire > 0
            and report.corruptions_detected == 0
        )
        if silent:
            print("data integrity FAILED: corruption injected but none "
                  "detected", file=sys.stderr)
        if args.functional:
            print(f"  converged:     {report.converged}")
            print(f"  true residual: {report.true_residual:.3e}")
            return 0 if report.converged and not silent else 1
        return 1 if silent else 0
    print(f"solver died: {report.failure}")
    return 1


def _scaled(value: float | None, unit: float) -> float | None:
    return None if value is None else value * unit


def serve_config(args):
    """The :class:`~repro.service.ServiceConfig` of a parsed ``repro serve``
    command line.  A field whose flag is left out keeps the library's
    default.  A tuning flag of a feature whose switch is not given, and
    a tenant option without ``--tenants``, raise :class:`ValueError`."""
    from .comms import DomainFaultPlan, FaultPlan, Topology, WorkerFaultPlan
    from .core import RetryPolicy
    from .service import PlacementPolicy, ServiceConfig, TenancyPolicy

    declared, orphans = {}, []
    for holder, cls, fields in _serve_knobs():
        given = {}
        for f in fields:
            value = getattr(args, f.metadata["flag"][2:].replace("-", "_"))
            if value is not None:
                given[f.name] = value * f.metadata["scale"] if "scale" in f.metadata else value
        switch = next((f for f in fields if f.name == "enabled"), None)
        if switch is not None and not given["enabled"]:
            orphans += [
                f"{f.metadata['flag']} needs {switch.metadata['flag']}"
                for f in fields
                if f is not switch and f.name in given
            ]
        if holder is None:
            declared.update(given)
        else:
            declared[holder] = cls(**given)
    if orphans:
        raise ValueError("; ".join(orphans))
    if not args.tenants and (
        args.tenant_weights or args.tenant_mix
        or args.quota_qps is not None or args.quota_burst is not None
    ):
        raise ValueError("tenant options require --tenants")

    fault_plan = None
    chaos_workers: tuple[int, ...] = ()
    if args.chaos:
        fault_plan = FaultPlan(seed=args.seed).with_stall(
            args.crash_rank,
            after_s=args.fail_after_us * 1e-6,
            mode="crash",
        )
        chaos_workers = (args.crash_worker,)
    retry_policy = RetryPolicy()
    if args.recover:
        retry_policy = RetryPolicy(max_attempts=args.max_attempts)
    worker_faults = None
    if args.kill_worker_at_ms is not None or args.straggler_factor is not None:
        worker_faults = WorkerFaultPlan()
        if args.kill_worker_at_ms is not None:
            worker_faults = worker_faults.with_kill(
                args.kill_worker, at_s=args.kill_worker_at_ms * 1e-3
            )
        if args.straggler_factor is not None:
            worker_faults = worker_faults.with_straggler(
                args.straggler_worker, factor=args.straggler_factor
            )
    topology = None
    if args.topology is not None:
        topology = Topology.parse(args.topology)
    domain_faults = None
    if args.kill_node_at_ms is not None or args.partition_switch_at_ms is not None:
        domain_faults = DomainFaultPlan(seed=args.seed)
        if args.kill_node_at_ms is not None:
            domain_faults = domain_faults.with_node_kill(
                args.kill_node, at_s=args.kill_node_at_ms * 1e-3
            )
        if args.partition_switch_at_ms is not None:
            heal = {} if args.heal_ms is None else {"mean_heal_s": args.heal_ms * 1e-3}
            domain_faults = domain_faults.with_partition(
                args.partition_rack, at_s=args.partition_switch_at_ms * 1e-3, **heal
            )
    return ServiceConfig(
        **declared,
        fault_plan=fault_plan,
        chaos_workers=chaos_workers,
        retry_policy=retry_policy,
        seed=args.seed,
        placement=PlacementPolicy(grid=args.grid, residency=not args.no_residency),
        worker_faults=worker_faults,
        topology=topology,
        domain_faults=domain_faults,
        tenancy=TenancyPolicy.build(
            args.tenants or (),
            weights=args.tenant_weights,
            quota_qps=args.quota_qps,
            quota_burst=args.quota_burst,
        ),
    )


def _cmd_serve(args) -> int:
    from .service import (
        CampaignCheckpointStore,
        MirroredCheckpointStore,
        SchedulerCrash,
        ServiceInvariantError,
        SharedTuneCache,
        SolveService,
        bursty_workload,
        stream_workload,
        synthetic_workload,
    )

    if args.capacity_sweep:
        from .bench.harness import capacity_sweep, render_capacity_map

        cap = capacity_sweep()
        print(render_capacity_map(cap))
        if args.json:
            import json as _json

            with open(args.json, "w") as fh:
                _json.dump(cap, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 0

    streaming = (
        args.stream
        or args.burst_rate is not None
        or args.duration_ms is not None
        or args.crash_scheduler_at_ms is not None
    )
    crashed = False
    try:
        config = serve_config(args)
        tune_cache = None
        if args.tunecache and os.path.exists(args.tunecache):
            tune_cache = SharedTuneCache.load(args.tunecache)
            print(
                f"tunecache: loaded {len(tune_cache)} entr(ies) "
                f"from {args.tunecache}"
            )
        shape = dict(
            seed=args.seed,
            dims=args.dims,
            mode=args.mode,
            mass=args.mass,
            n_configs=args.configs,
            deadline_slack_s=_scaled(args.deadline_ms, 1e-3),
        )
        if args.priority_mix is not None:
            shape["priority_mix"] = args.priority_mix
        if args.tenants:
            shape["tenants"] = args.tenants
            shape["tenant_mix"] = args.tenant_mix
        duration_s = _scaled(args.duration_ms, 1e-3)

        def make_workload():
            """The arrival source; deterministic, so a resumed scheduler
            can regenerate it and skip the consumed prefix."""
            if args.burst_rate is not None:
                return bursty_workload(
                    args.requests,
                    base_rps=args.rate,
                    burst_rps=args.burst_rate,
                    burst_start_s=args.burst_start_ms * 1e-3,
                    burst_len_s=args.burst_len_ms * 1e-3,
                    duration_s=duration_s,
                    **shape,
                )
            if streaming:
                return stream_workload(
                    args.requests,
                    rate_rps=args.rate,
                    duration_s=duration_s,
                    **shape,
                )
            return synthetic_workload(args.requests, rate_rps=args.rate, **shape)

        if args.chaos:
            plan = config.fault_plan.reseeded(args.crash_worker)
            print(
                f"chaos: worker {args.crash_worker} runs under {plan.describe()}"
            )
        worker_faults, domain_faults = config.worker_faults, config.domain_faults
        if worker_faults is not None:
            for kill in worker_faults.kills:
                print(f"faults: worker {kill.worker_id} dies at "
                      f"{kill.at_s * 1e3:.3f} ms")
            for straggler in worker_faults.stragglers:
                print(f"faults: worker {straggler.worker_id} straggles "
                      f"at {straggler.factor:.1f}x")
        if domain_faults is not None:
            for nk in domain_faults.node_kills:
                print(f"faults: node {nk.node} dies silently at "
                      f"{nk.at_s * 1e3:.3f} ms")
            for sp in domain_faults.partitions:
                print(f"faults: rack {sp.rack} partitions at "
                      f"{sp.at_s * 1e3:.3f} ms, heals at "
                      f"{domain_faults.heal_time(sp) * 1e3:.3f} ms")
        store = None
        if args.checkpoint or args.crash_scheduler_at_ms is not None:
            topology = config.topology
            if topology is not None and topology.n_nodes > 1:
                # The checkpoint replicates across two domains; a node
                # loss that hosted the primary restores from the mirror.
                store = MirroredCheckpointStore(
                    CampaignCheckpointStore(args.checkpoint),
                    primary_domain=0,
                    mirror_domain=topology.n_nodes - 1,
                )
            else:
                store = CampaignCheckpointStore(args.checkpoint)
        service = SolveService(config, tune_cache=tune_cache)
        if streaming:
            crash_at_s = _scaled(args.crash_scheduler_at_ms, 1e-3)
            try:
                result = service.serve(
                    make_workload(), checkpoint=store, crash_at_s=crash_at_s
                )
            except SchedulerCrash as exc:
                # Supervisor pattern: a fresh scheduler process restores
                # the campaign from the last verified commit; the workers
                # (and their device-resident gauges) survived the crash.
                crashed = True
                print(f"daemon: {exc}; resuming from campaign checkpoint")
                service = SolveService(config, tune_cache=tune_cache)
                result = service.resume(make_workload(), checkpoint=exc.store)
        else:
            result = service.run(make_workload())
    except ValueError as exc:
        print(f"repro serve: error: {exc}")
        return 2
    except ServiceInvariantError as exc:
        print(f"repro serve: INVARIANT VIOLATED: {exc}", file=sys.stderr)
        return 1
    print(result.report.render())
    if args.tunecache:
        service.placement.tune_cache.save(args.tunecache)
        print(
            f"tunecache: saved {len(service.placement.tune_cache)} "
            f"entr(ies) to {args.tunecache}"
        )
    if args.trace is not None:
        try:
            rec = result.record_for(args.trace)
        except KeyError:
            print(f"repro serve: no request {args.trace} in this campaign",
                  file=sys.stderr)
            return 2
        print(f"\nlifecycle of request {args.trace}:")
        print(rec.render_trace())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.report.render_json() + "\n")
        print(f"wrote {args.json}")
    report = result.report
    # Every admitted request must be terminal (the service itself raises
    # on a lost request); without chaos, any terminal failure is a bug.
    accounted = report.completed + report.failed + report.rejected
    if accounted != report.n_requests:
        print(f"repro serve: {report.n_requests - accounted} request(s) "
              "unaccounted for", file=sys.stderr)
        return 1
    chaosy = (
        args.chaos
        or args.kill_worker_at_ms is not None
        or args.kill_node_at_ms is not None
        or args.partition_switch_at_ms is not None
    )
    if not chaosy and report.failed:
        print(f"repro serve: {report.failed} failure(s) without chaos",
              file=sys.stderr)
        return 1
    if crashed and not report.checkpoint_restores:
        print("repro serve: scheduler crashed but the resumed run reports "
              "no checkpoint restore", file=sys.stderr)
        return 1
    return 0


def _cmd_experiments(args) -> int:
    from .bench.experiments_md import generate

    with open(args.out, "w") as fh:
        fh.write(generate(iterations=args.iterations))
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "generate": _cmd_generate,
    "spectrum": _cmd_spectrum,
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "experiments": _cmd_experiments,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
