#!/usr/bin/env python3
"""The repo's layered wall-clock ledger: one command, six workloads.

    python benchmarks/ledger/run.py [--seed N] [--workload NAME] [--traced]
                                    [--check-repeat] [--quick]

runs every workload in its own fresh subprocess, one at a time, prints
each metric by name with its unit and clock, checks the outputs, and writes
``benchmarks/ledger/results/latest.json``.  ``BENCHMARK.json`` drives one
workload per call instead and reads the last line of stdout:

    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

See ``README.md`` beside this file for what every number means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Fresh processes timed to ready-for-the-first-operation; ``setup_s`` is
#: their median, so one cold start does not decide it.
SETUP_SAMPLES = 3


class LedgerError(RuntimeError):
    """A workload subprocess died or printed no result."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **spec.BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _launch(argv: list[str]) -> dict:
    """Run this file as a workload subprocess; return its last JSON line."""
    cmd = [sys.executable, str(HERE / "run.py"), *argv, "--spawned-at", repr(time.time())]
    proc = subprocess.run(
        cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise LedgerError(f"{' '.join(argv)} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def prime() -> dict:
    """The discarded priming launch: loads the program and NumPy once so the
    first ``setup_s`` does not measure a cold page cache.  Its only output
    is the version record."""
    code = (
        "import json, platform, numpy, scipy, repro; print(json.dumps({"
        "'python': platform.python_version(), 'numpy': numpy.__version__, "
        "'scipy': scipy.__version__}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _child_argv(name: str, args, *flags: str) -> list[str]:
    argv = ["--child", name, "--seed", str(args.seed), "--seconds", str(args.seconds), *flags]
    return argv + (["--quick"] if args.quick else [])


def measure(name: str, args) -> dict:
    """The untraced run: every end-to-end number comes from here."""
    # Set-up is sampled before and after the run as well as in it: samples
    # taken back to back share whatever the machine was doing that second.
    setup_only = _child_argv(name, args, "--setup-only")
    before = [_launch(setup_only)["setup_s"] for _ in range((SETUP_SAMPLES - 1) // 2)]
    child = _launch(_child_argv(name, args))
    after = [_launch(setup_only)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    if "timings" not in child:
        raise LedgerError(f"{name}: no operation completed: {child['problems']}")
    child["setup_samples"] = [*before, child.pop("setup_s"), *after]
    return child


def trace(name: str, args) -> dict:
    """The traced run: one reference repetition, one recorded."""
    return _launch(_child_argv(name, args, "--child-traced"))


# -- turning a subprocess result into named metrics -----------------------


def op_wall_s(child: dict) -> float:
    """Median wall of one operation; a many-part operation (the sweep) is
    the sum of its parts' medians, which absorbs a bimodal part."""
    return sum(statistics.median(samples) for samples in child["timings"].values())


def end_to_end(name: str, child: dict) -> dict[str, dict]:
    """The nine named metrics, for the workloads they apply to."""
    wall = op_wall_s(child)
    reps = len(next(iter(child["timings"].values())))
    derived = child["derived"]
    values = {
        "setup_s": (statistics.median(child["setup_samples"]), len(child["setup_samples"])),
        "peak_rss_mb": (child["peak_rss_mb"], 1),
        "solve_wall_s": (wall, reps),
        "model_sweep_wall_s": (wall, reps),
        "model_anchor_err_pct": (derived.get("model_anchor_err_pct"), 1),
        "serve_req_per_wall_s": (child["work_units"] / wall, reps),
        "serve_model_p99_ms": (derived.get("serve_model_p99_ms"), child["facts"].get("completed")),
        "serve_slo_attainment": (derived.get("serve_slo_attainment"), child["work_units"]),
        "failed_share": (child["failed"] / child["attempted"], child["attempted"]),
    }
    out = {}
    for metric in spec.END_TO_END:
        value, n = values[metric.name]
        if name in metric.workloads and value is not None:
            out[metric.name] = {
                "value": value, "unit": metric.unit, "clock": metric.clock, "n": n,
            }
    if len(child["timings"]) == 1:
        tail = spec.tail_percentile(child["timings"]["op"])
        if tail is not None:
            out[f"op_wall_s.p{tail[0]}"] = {
                "value": tail[1], "unit": "s", "clock": "host", "n": reps,
            }
    return out


def driver_end_to_end(child: dict) -> dict[str, dict]:
    """What ``BENCHMARK.json`` lists: the same numbers, on every workload."""
    wall = op_wall_s(child)
    values = {
        "setup_s": statistics.median(child["setup_samples"]),
        "peak_rss_mb": child["peak_rss_mb"],
        "op_wall_s": wall,
    }
    return {
        m.name: {"value": values[m.name], "unit": m.unit} for m in spec.DRIVER_END_TO_END
    }


def per_layer(traced: dict, facts_derived: dict) -> dict[str, dict]:
    """Every per-layer metric; ``None`` where the span's target is gone."""
    gone = {span for span, _ in traced["unresolved"]}
    derived = {**facts_derived, **traced["derived"]}
    out = {}
    for name, unit, _ in spec.per_layer_metrics():
        span, _, field = name.rpartition(".")
        if name in spec.DERIVED:
            value = derived.get(name, 0)
        else:
            value = None if span in gone else traced["aggregate"].get(span, {}).get(field, 0)
        out[name] = {"value": value, "unit": unit}
    return out


# -- printing -------------------------------------------------------------


def _print_metrics(title: str, metrics: dict[str, dict]) -> None:
    print(title)
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        clock = f"{m['clock']:<6}" if "clock" in m else ""
        n = f"n={m['n']}" if "n" in m else ""
        print(f"  {name:<36} {value:>12} {m['unit']:<7} {clock}{n}")


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:  # no git here
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_set(args, versions: dict) -> dict:
    """One set: every selected workload, untraced, then traced if asked."""
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    workloads = {}
    for name in args.workloads:
        child = measure(name, args)
        entry = {
            "why": spec.WORKLOADS[name],
            "reps": len(next(iter(child["timings"].values()))),
            "end_to_end": end_to_end(name, child),
            "driver_end_to_end": driver_end_to_end(child),
            "facts": child["facts"],
            "expected": child["expected"],
            "problems": child["problems"],
            "info": {
                "timings_s": child["timings"],
                "setup_samples_s": child["setup_samples"],
                "warmup_s": child.get("warmup_s"),
            },
        }
        _print_metrics(f"\n{name}  (seed {args.seed}; untraced)", entry["end_to_end"])
        if args.traced:
            traced = trace(name, args)["traced"]
            entry["per_layer"] = per_layer(traced, child["derived"])
            entry["trace_file"] = traced["trace_file"]
            called = {
                k: v for k, v in entry["per_layer"].items()
                if v["value"] is None or v["value"] != 0
            }
            _print_metrics(f"{name}  (traced; host clock; zero rows omitted)", called)
            for span, target in traced["unresolved"]:
                print(f"  warning: {span}: wrap target {target} is gone")
        for problem in child["problems"]:
            print(f"  FAILED: {problem}")
        workloads[name] = entry
    return {
        "environment": {
            "nproc": nproc,
            "blas_pins": spec.BLAS_PINS,
            **versions,
            "git_commit": _git_commit(),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0],
        },
        # Started on a busy machine, the wall-clock numbers are not a baseline.
        # Judged before this invocation put any load on it: a second set
        # always starts in the first one's wake.
        "noisy": args.load_before > 0.5 * nproc,
        "seed": args.seed,
        "quick": args.quick,
        "run_seconds": args.seconds,
        "workloads": workloads,
    }


def _failed(doc: dict) -> bool:
    return any(w["problems"] for w in doc["workloads"].values())


def _write(name: str, doc: dict) -> None:
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / name).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {(results / name).relative_to(ROOT)}")


def check_repeat(args, versions: dict) -> int:
    """Two sets of the same code must agree within the ledger's own bounds."""
    first, second = run_set(args, versions), run_set(args, versions)
    rows, ok = [], not (_failed(first) or _failed(second))
    print(f"\n{'workload':<20} {'metric':<22} {'first':>12} {'second':>12} {'diff':>9}  verdict")
    for name in args.workloads:
        a, b = (doc["workloads"][name]["end_to_end"] for doc in (first, second))
        for metric in spec.END_TO_END:
            if metric.name not in a:
                continue
            x, y = a[metric.name]["value"], b[metric.name]["value"]
            if metric.exact:
                verdict = "identical" if x == y else "DIFFERS"
                diff = y - x
            else:
                diff = max(spec.worse_by(metric, x, y), spec.worse_by(metric, y, x))
                # Wider apart than the bound: two sets cannot tell a change
                # of this size from noise, so it is not "unchanged".
                verdict = "agree" if diff <= metric.bound else "unresolved"
            ok = ok and verdict in ("identical", "agree")
            rows.append(
                {"workload": name, "metric": metric.name, "first": x, "second": y,
                 "diff": diff, "bound": metric.bound, "verdict": verdict}
            )
            print(f"{name:<20} {metric.name:<22} {x:>12.6g} {y:>12.6g} {diff:>9.3g}  {verdict}")
    noisy = first["noisy"]
    if noisy:
        print("refusing to pass: started above load 0.5 x nproc")
    passed = ok and not noisy
    _write(
        "repeat_quick.json" if args.quick else "repeat.json",
        {"passed": passed, "noisy": noisy, "rows": rows,
         "environment": [first["environment"], second["environment"]]},
    )
    print("check-repeat: " + ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


def record_expected(args) -> int:
    """Regenerate ``expected.json`` for the default and the held-out seed."""
    doc: dict = {"any": {}}
    args.seconds = 0.0  # outputs are wanted, not timings
    for seed in (spec.DEFAULT_SEED, spec.HELD_OUT_SEED):
        args.seed = seed
        for name in spec.WORKLOADS:
            if name == "model-sweep" and name in doc["any"]:
                continue  # timing-only solves take no seeded input
            child = _launch(_child_argv(name, args))
            if child["problems"]:
                raise LedgerError(f"{name} seed {seed}: {child['problems']}")
            bucket = doc["any"] if name == "model-sweep" else doc.setdefault(str(seed), {})
            bucket[name] = child["expected"]
            print(f"recorded {name} seed {seed}")
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def driver_run(args) -> int:
    """One workload for ``BENCHMARK.json``: the result is the last line."""
    name = args.workloads[0]
    if args.trace:
        child = trace(name, args)
        metrics = {
            k: {"value": v["value"] or 0, "unit": v["unit"]}
            for k, v in per_layer(child["traced"], child["derived"]).items()
        }
    else:
        child = measure(name, args)
        metrics = driver_end_to_end(child)
    for problem in child["problems"]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="measure each workload for this long (at least "
                             f"{spec.MIN_REPS} repetitions)")
    parser.add_argument("--traced", action="store_true",
                        help="repeat each workload once with spans recorded")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="BENCHMARK.json mode: one workload, one JSON line")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken inputs; a self-test, never a baseline")
    for hidden in ("--child", "--spawned-at"):
        parser.add_argument(hidden, help=argparse.SUPPRESS)
    for hidden in ("--child-traced", "--setup-only"):
        parser.add_argument(hidden, action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.child:
        from workloads import child_main

        args.spawned_at = float(args.spawned_at)
        return child_main(args)

    args.workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    if args.quick:
        args.seconds = 0.0
    if args.record_expected:
        return record_expected(args)
    args.load_before = os.getloadavg()[0]
    versions = prime()
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return driver_run(args)
    if args.check_repeat:
        return check_repeat(args, versions)
    doc = run_set(args, versions)
    _write("latest_quick.json" if args.quick else "latest.json", doc)
    if doc["noisy"]:
        print("noisy: started above load 0.5 x nproc; not a baseline")
    return 1 if _failed(doc) else 0


if __name__ == "__main__":
    sys.exit(main())
