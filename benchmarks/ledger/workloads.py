"""The six workloads, and the subprocess body that runs one of them.

A workload is ``load`` (import the program), ``generate`` (inputs from the
seed), ``run`` (one operation on the identical generated input, returning
host seconds per timed part and the program's raw output) and ``facts``
(what the correctness gate reads, taken outside the timed region).  The program receives generated inputs only — never the seed or
the workload's name.  Sizes define the workloads: when time is short, cut
repetitions, never sizes.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import resource
import time

import spec

HERE = pathlib.Path(__file__).resolve().parent

#: The Fig. 5(b) 32-GPU single-half anchors, as held in
#: ``repro.bench.figures.fig5b`` (the smoke test checks they still agree).
PAPER_FIG5B_32 = {"overlap": 1100.0, "no_overlap": 1400.0}


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


class Solve:
    """One functional ``core.invert`` on two ranks, host-verified."""

    def __init__(self, dims, mode, ceiling, *, warmup, min_reps=spec.MIN_REPS,
                 rank1_baseline=False):
        self.dims, self.mode, self.ceiling, self.warmup = dims, mode, ceiling, warmup
        self.min_reps, self.rank1_baseline = min_reps, rank1_baseline
        self.ranks = 2

    def load(self):
        import numpy
        import repro.core
        import repro.lattice.random_fields

        self.np, self.core, self.fields = numpy, repro.core, repro.lattice.random_fields

    def generate(self, seed, quick):
        from repro.lattice import LatticeGeometry

        rng = self.np.random.default_rng(seed)
        geometry = LatticeGeometry((4, 4, 4, 8) if quick else self.dims)
        self.gauge = self.fields.weak_field_gauge(geometry, rng, 0.1)
        self.source = self.fields.random_spinor(geometry, rng)
        self.param = self.core.paper_invert_param(self.mode, mass=0.1)

    def run(self, tracer=None):
        seconds, res = _timed(
            lambda: self.core.invert(
                self.gauge, self.source, self.param, n_gpus=self.ranks, verify=True
            )
        )
        return {"op": seconds}, res

    def facts(self, res):
        return {
            "iterations": res.stats.iterations,
            "reliable_updates": res.stats.reliable_updates,
            "converged": bool(res.stats.converged),
            "true_residual": res.true_residual,
            "model_time_s": res.stats.model_time,
            "messages": sum(s.sends for s in res.comm_stats),
        }

    def problems(self, facts, expected):
        out = []
        if not facts["converged"]:
            out.append("solver did not converge")
        if not facts["true_residual"] < self.ceiling:
            out.append(f"true residual {facts['true_residual']:.3g} >= {self.ceiling:g}")
        return out + _mismatches(facts, expected)

    def expected_of(self, facts):
        return {k: facts[k] for k in ("iterations", "reliable_updates", "converged", "messages")}

    def work_units(self, facts):
        return facts["iterations"]

    def derived(self, facts):
        return {
            "core.solver.iterations": facts["iterations"],
            "core.solver.reliable_updates": facts["reliable_updates"],
        }

    def traced_extras(self, ref_wall):
        """The single-rank baseline: the same input on one rank."""
        if not self.rank1_baseline:
            return {}
        self.ranks = 1
        rank1 = self.run()[0]["op"]
        self.ranks = 2
        return {
            "core.invert.rank1_wall_s": rank1,
            "core.invert.rank_scaling_eff": rank1 / (2 * ref_wall),
        }


class Sweep:
    """Timing-only paper-scale solves over the Fig. 5(b) grid."""

    warmup = False
    min_reps = spec.MIN_REPS
    dims = (24, 24, 24, 128)
    iterations = 40

    def load(self):
        import repro.bench.harness

        self.harness = repro.bench.harness

    def generate(self, seed, quick):
        # Timing-only solves take no field data: the grid is the input.
        self.gpus = (2, 4) if quick else (2, 4, 8, 16, 32)

    def run(self, tracer=None):
        timings, points = {}, {}
        for label, overlap in (("overlap", True), ("no_overlap", False)):
            for n in self.gpus:
                timings[f"{label}@{n}"], points[label, n] = _timed(
                    lambda: self.harness.run_scaling_point(
                        self.dims, "single-half", n,
                        overlap=overlap, fixed_iterations=self.iterations,
                    )
                )
        return timings, points

    def facts(self, points):
        gflops = {"overlap": {}, "no_overlap": {}}
        for (label, n), point in points.items():
            gflops[label][str(n)] = point.gflops
        return {"gflops": gflops}

    def problems(self, facts, expected):
        g = facts["gflops"]
        out = [
            f"{label}@{n} did not fit in device memory"
            for label, row in g.items() for n, v in row.items() if v is None
        ]
        if out:
            return out
        # The paper's key shape: overlap wins at 8 GPUs and loses at 32.
        if "8" in g["overlap"] and not g["overlap"]["8"] > g["no_overlap"]["8"]:
            out.append("overlap does not win at 8 GPUs")
        if "32" in g["overlap"] and not g["overlap"]["32"] < g["no_overlap"]["32"]:
            out.append("overlap does not lose at 32 GPUs")
        for label, row in (expected or {}).get("gflops", {}).items():
            for n, want in row.items():
                got = g[label].get(n)
                if got is None or abs(got / want - 1) > 1e-9:
                    out.append(f"{label}@{n}: {got!r} Gflops, expected {want!r}")
        return out

    def expected_of(self, facts):
        return facts

    def work_units(self, facts):
        return 2 * len(self.gpus) * self.iterations

    def anchor_error_pct(self, facts):
        g = facts["gflops"]
        if "32" not in g["overlap"]:
            return None
        return 100 * max(
            abs(g[label]["32"] / paper - 1) for label, paper in PAPER_FIG5B_32.items()
        )

    def derived(self, facts):
        g = facts["gflops"]
        return {
            "model.gflops_32_overlap": g["overlap"].get("32"),
            "model.gflops_32_no_overlap": g["no_overlap"].get("32"),
            "model_anchor_err_pct": self.anchor_error_pct(facts),
        }

    def traced_extras(self, ref_wall):
        return {}


class Serve:
    """One campaign through ``SolveService``; closed loop, one client.

    ``saturated`` takes ``bench.harness.hot_campaign`` through ``run``;
    the other two stream ``stream_workload`` through ``serve`` with the
    whole feature stack on, ``durable`` adding a checkpoint per batch, a
    scheduler crash half-way through the arrivals and a resume.
    """

    RATE_RPS = 100.0
    min_reps = spec.MIN_REPS

    def __init__(self, kind, requests, quick_requests, *, warmup):
        self.kind, self.requests, self.quick_requests = kind, requests, quick_requests
        self.warmup = warmup

    def load(self):
        import repro.bench.harness
        import repro.service

        self.harness, self.service = repro.bench.harness, repro.service

    def generate(self, seed, quick):
        s = self.service
        self.n = self.quick_requests if quick else self.requests
        self.seed = seed
        if self.kind == "saturated":
            self.config, self.arrivals = self.harness.hot_campaign(self.n, seed=seed)
            return
        self.config = s.ServiceConfig(
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

    def _stream(self, tracer):
        # A lazy stream: generating arrivals is part of serving them.
        stream = self.service.stream_workload(
            self.n, seed=self.seed, rate_rps=self.RATE_RPS, dims=(4, 4, 4, 8),
            mode="double-half", priority_mix=(0.1, 0.7, 0.2),
            deadline_slack_s=0.15, tenants=("atlas", "bell"),
        )
        if tracer is not None and tracer.enabled:
            from tracer import WORKLOAD_NEXT

            return tracer.iterate(WORKLOAD_NEXT, stream)
        return stream

    def _campaign(self, tracer):
        s = self.service
        service = s.SolveService(self.config)
        if self.kind == "saturated":
            return service.run(self.arrivals), None
        if self.kind == "steady":
            return service.serve(self._stream(tracer)), None
        store = s.CampaignCheckpointStore()
        try:
            result = service.serve(
                self._stream(tracer), checkpoint=store,
                crash_at_s=self.n / self.RATE_RPS / 2,
            )
        except s.SchedulerCrash:
            result = service.resume(self._stream(tracer), checkpoint=store)
        return result, store

    def run(self, tracer=None):
        seconds, outcome = _timed(lambda: self._campaign(tracer))
        return {"op": seconds}, outcome

    def facts(self, outcome):
        result, store = outcome
        report = result.report
        facts = {
            "offered": report.n_requests,
            "completed": report.completed,
            "failed": report.failed,
            "rejected": report.rejected,
            "batches": len(result.batches),
            "checkpoint_restores": report.checkpoint_restores,
            "report_sha256": hashlib.sha256(report.render_json().encode()).hexdigest(),
            "model_p99_ms": report.latency_p99_s * 1e3,
            "slo_attainment": sum(r.met_deadline for r in result.records) / self.n,
        }
        if store is not None:
            facts["checkpoint_bytes_last"] = len(store.latest().to_bytes())
        return facts

    def problems(self, facts, expected):
        out = []
        lost = self.n - facts["completed"] - facts["failed"] - facts["rejected"]
        if facts["offered"] != self.n or lost:
            out.append(f"{lost} request(s) lost of {self.n} offered")
        if self.kind == "durable" and facts["checkpoint_restores"] != 1:
            out.append(f"{facts['checkpoint_restores']} checkpoint restores, expected 1")
        return out + _mismatches(facts, expected)

    def expected_of(self, facts):
        keys = ("completed", "failed", "rejected", "checkpoint_restores", "report_sha256")
        return {k: facts[k] for k in keys}

    def work_units(self, facts):
        return self.n

    def derived(self, facts):
        steady = self.kind == "steady"
        return {
            "service.batches": facts["batches"],
            "service.checkpoint.bytes_last": facts.get("checkpoint_bytes_last"),
            "serve_model_p99_ms": facts["model_p99_ms"] if steady else None,
            "serve_slo_attainment": facts["slo_attainment"] if steady else None,
        }

    def traced_extras(self, ref_wall):
        return {"service.us_per_request": 1e6 * ref_wall / self.n}


def _mismatches(facts, expected):
    return [
        f"{key}: {facts.get(key)!r}, expected {want!r}"
        for key, want in (expected or {}).items()
        if facts.get(key) != want
    ]


REGISTRY = {
    "solve-mixed": Solve((8, 8, 8, 16), "single-half", 1e-6, warmup=False, rank1_baseline=True),
    # Two rank threads trading the GIL every few microseconds make this the
    # noisiest workload on the host clock; five repetitions halve its spread.
    "solve-small-double": Solve((4, 4, 4, 16), "double", 1e-13, warmup=True, min_reps=5),
    "model-sweep": Sweep(),
    "serve-saturated": Serve("saturated", 4096, 64, warmup=True),
    "serve-steady": Serve("steady", 20000, 200, warmup=True),
    "serve-durable": Serve("durable", 600, 60, warmup=False),
}
assert tuple(REGISTRY) == tuple(spec.WORKLOADS)


def load_expected(seed, name):
    """Recorded facts for this workload: the seed-free entry, else the seed's."""
    path = HERE / "expected.json"
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    return doc.get("any", {}).get(name) or doc.get(str(seed), {}).get(name)


def child_main(args) -> int:
    """Run one workload in this (fresh) process; print one JSON line."""
    workload = REGISTRY[args.child]
    workload.load()
    tracer = None
    if args.child_traced:
        from tracer import Tracer

        # Installed before the inputs are generated, so that
        # lattice.weak_field_gauge is seen.
        tracer = Tracer()
        tracer.install()
    workload.generate(args.seed, args.quick)
    out = {"workload": args.child, "setup_s": time.time() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    runs, crashes = [], []
    if tracer is not None:
        reference, out["traced"] = _traced_reps(workload, tracer, args)
        runs.append(reference)
    else:
        if workload.warmup:
            out["warmup_s"] = sum(workload.run()[0].values())
        floor = 2 if args.quick else workload.min_reps
        began = time.perf_counter()
        while len(runs) + len(crashes) < floor or time.perf_counter() - began < args.seconds:
            try:
                timings, raw = workload.run()
                runs.append((timings, workload.facts(raw)))
            except Exception as exc:  # a crashed operation is a failed one
                crashes.append(f"operation raised {type(exc).__name__}: {exc}")

    expected = None if args.quick else load_expected(args.seed, args.child)
    problems, failed = list(crashes), len(crashes)
    for index, (_, facts) in enumerate(runs):
        found = workload.problems(facts, expected)
        if facts != runs[0][1]:
            found.append("differs from the first repetition of the same input")
        problems += [f"rep {index}: {p}" for p in found]
        failed += bool(found)
    out.update(
        attempted=len(runs) + len(crashes),
        failed=failed,
        problems=problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if runs:
        facts = runs[0][1]
        out.update(
            timings={part: [t[part] for t, _ in runs] for part in runs[0][0]},
            facts=facts,
            expected=workload.expected_of(facts),
            work_units=workload.work_units(facts),
            derived={k: v for k, v in workload.derived(facts).items() if v is not None},
        )
    print(json.dumps(out))
    return 0


def _traced_reps(workload, tracer, args):
    """One repetition with the tracer idle (the reference), one recorded.

    Returns the reference repetition and the traced numbers.
    """
    tracer.enabled = False
    if workload.warmup:
        workload.run(tracer)
    timings, raw = workload.run(tracer)
    reference = timings, workload.facts(raw)
    tracer.enabled = True
    traced_timings, raw = workload.run(tracer)
    tracer.enabled = False
    if workload.facts(raw) != reference[1]:
        raise RuntimeError("tracing changed the workload's outputs")
    ref_wall = sum(reference[0].values())
    traced_wall = sum(traced_timings.values())
    derived = {
        "trace.overhead_pct": 100 * (traced_wall / ref_wall - 1),
        **workload.traced_extras(ref_wall),
    }
    tracer.uninstall()
    aggregate = tracer.aggregate()
    sends = aggregate.get("comms.send", {"calls": 0})["calls"]
    derived["comms.messages"] = sends
    derived["comms.bytes_sent"] = tracer.bytes_sent
    if sends != reference[1].get("messages", sends):
        raise RuntimeError(
            f"traced {sends} sends, InvertResult.comm_stats says {reference[1]['messages']}"
        )
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    trace_file = results / f"trace_{args.child}{'_quick' if args.quick else ''}.json"
    tracer.dump(trace_file, workload=args.child, extra={"seed": args.seed, "quick": args.quick})
    return reference, {
        "aggregate": aggregate,
        "derived": derived,
        "unresolved": tracer.unresolved,
        "trace_file": str(trace_file.relative_to(HERE)),
    }
