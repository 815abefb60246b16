"""Tests for the command-line interface."""

import dataclasses

import pytest

from repro.cli import build_parser, main, serve_config
from repro.comms import DomainFaultPlan, FaultPlan, Topology, WorkerFaultPlan
from repro.core import RetryPolicy
from repro.service import (
    BatchPolicy,
    BrownoutPolicy,
    ElasticPolicy,
    HealthPolicy,
    HedgePolicy,
    PlacementPolicy,
    PreemptionPolicy,
    ServiceConfig,
    TenancyPolicy,
)


class TestParser:
    def test_dims_parsing(self):
        args = build_parser().parse_args(["solve", "--dims", "8x8x8x16"])
        assert args.dims == (8, 8, 8, 16)
        args = build_parser().parse_args(["solve", "--dims", "4,4,4,8"])
        assert args.dims == (4, 4, 4, 8)

    def test_bad_dims_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--dims", "4,4"])
        # Four fields are not enough: every subcommand applies the
        # lattice's own check (even extents >= 2) as a usage error.
        for command, dims, why in (
            ("solve", "4,4,4,0", "must be >= 2"),
            ("generate", "4,4,4,3", "must be even"),
            ("spectrum", "4,4,4,-2", "must be >= 2"),
            ("serve", "4,4,4,-8", "must be >= 2"),
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, "--dims", dims])
            assert exc.value.code == 2, command
            assert why in capsys.readouterr().err, command

    def test_grid_parsing(self):
        args = build_parser().parse_args(["solve", "--grid", "2,4"])
        assert args.grid == (2, 4)

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--mode", "quad"])


class TestSolve:
    def test_basic_solve(self, capsys):
        rc = main(["solve", "--dims", "4,4,4,8", "--gpus", "2", "--mass", "0.3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged:      True" in out
        assert "effective Gflops" in out

    def test_grid_solve(self, capsys):
        rc = main(["solve", "--dims", "4,4,4,8", "--grid", "2,2", "--mass", "0.3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "grid (2, 2)" in out

    def test_no_overlap_flag(self, capsys):
        rc = main(
            ["solve", "--dims", "4,4,4,8", "--no-overlap", "--mass", "0.3"]
        )
        assert rc == 0


class TestGenerateAndSpectrum:
    def test_generate_writes_config(self, tmp_path, capsys):
        out_path = tmp_path / "cfg"
        rc = main([
            "generate", "--dims", "4,4,4,4", "--updates", "2",
            "--beta", "9.0", "--out", str(out_path),
        ])
        assert rc == 0
        assert (tmp_path / "cfg.npz").exists()
        assert "plaquette" in capsys.readouterr().out

    def test_solve_from_generated_config(self, tmp_path, capsys):
        out_path = tmp_path / "cfg"
        main([
            "generate", "--dims", "4,4,4,4", "--updates", "2",
            "--beta", "9.0", "--out", str(out_path),
        ])
        rc = main([
            "solve", "--config", str(tmp_path / "cfg.npz"),
            "--mass", "1.0", "--gpus", "2",
        ])
        assert rc == 0
        assert "loaded" in capsys.readouterr().out

    def test_spectrum(self, capsys):
        rc = main([
            "spectrum", "--dims", "4,4,4,4", "--mass", "0.5",
            "--gpus", "1", "--channels", "pion",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pion" in out


class TestBench:
    def test_known_figure(self, capsys):
        rc = main(["bench", "--figure", "fig7"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cudaMemcpy" in out

    def test_unknown_figure(self, capsys):
        rc = main(["bench", "--figure", "fig99"])
        assert rc == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_iterations_reach_the_driver_and_its_errors_propagate(self, monkeypatch):
        """``--iterations`` goes to a driver that takes it; a ``TypeError``
        raised inside the driver is its own, not a cue to rerun it."""
        import repro.bench.figures as figures

        seen = []

        def fig5b(iterations=15):
            seen.append(iterations)
            raise TypeError("inside the driver")

        monkeypatch.setitem(figures.ALL_FIGURES, "fig5b", fig5b)
        with pytest.raises(TypeError, match="inside the driver"):
            main(["bench", "--figure", "fig5b", "--iterations", "3"])
        assert seen == [3]


class TestProfile:
    def test_profile_table(self, capsys):
        rc = main([
            "profile", "--dims", "8,8,8,16", "--gpus", "2",
            "--iterations", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dslash" in out and "share" in out

    def test_profile_with_gantt(self, capsys):
        rc = main([
            "profile", "--dims", "8,8,8,16", "--gpus", "2",
            "--iterations", "2", "--gantt",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stream 0" in out


class TestChaos:
    _ARGS = [
        "chaos", "--seed", "7", "--dims", "8,8,8,16", "--gpus", "2",
        "--iterations", "3", "--schedule",
    ]

    def test_jittery_run_reports_faults(self, capsys):
        rc = main(self._ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault plan: seed=7" in out
        assert "injected faults" in out
        assert "solver completed" in out

    def test_byte_identical_output_for_same_seed(self, capsys):
        main(self._ARGS)
        first = capsys.readouterr().out
        main(self._ARGS)
        second = capsys.readouterr().out
        assert first == second  # schedule AND model times, byte for byte

    def test_stall_reports_structured_failure(self, capsys):
        rc = main([
            "chaos", "--seed", "1", "--dims", "8,8,8,16", "--gpus", "2",
            "--iterations", "20", "--stall", "1", "--fail-after-us", "200",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "solver died: rank 1 stalled" in out

    _CORRUPT_ARGS = [
        "chaos", "--corrupt", "--dims", "4,4,4,8", "--gpus", "2",
        "--iterations", "3", "--seed", "9", "--bitflip-rate", "1.0",
        "--corrupt-budget", "1", "--jitter-prob", "0", "--spike-prob", "0",
        "--send-fail-prob", "0",
    ]

    def test_corrupt_run_detects_and_recovers(self, capsys):
        rc = main(self._CORRUPT_ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "data integrity:" in out
        assert "2 detected, 2 corrected" in out
        assert "solver completed" in out

    def test_corrupt_functional_converges(self, capsys):
        rc = main(self._CORRUPT_ARGS + ["--functional", "--recover"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged:     True" in out
        assert "2 detected, 2 corrected" in out

    def test_corrupt_budgetless_run_dies_loudly(self, capsys):
        rc = main([
            "chaos", "--corrupt", "--dims", "4,4,4,8", "--gpus", "2",
            "--iterations", "3", "--seed", "9", "--bitflip-rate", "1.0",
            "--jitter-prob", "0", "--spike-prob", "0", "--send-fail-prob", "0",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "solver died:" in out and "corrupted" in out

    def test_corruption_events_in_schedule(self, capsys):
        rc = main(self._CORRUPT_ARGS + ["--schedule"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bitflip" in out
        assert "nack_resend" in out

    def test_resident_corruption_checkpoint_restore(self, capsys):
        rc = main([
            "chaos", "--resident", "0", "--functional", "--recover",
            "--dims", "4,4,4,8", "--gpus", "2", "--seed", "5",
            "--jitter-prob", "0", "--spike-prob", "0", "--send-fail-prob", "0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checkpoint_restore" in out
        assert "converged:     True" in out


class TestServe:
    _ARGS = [
        "serve", "--requests", "16", "--workers", "2", "--dims", "4,4,4,8",
        "--iterations", "10", "--seed", "7",
    ]

    def test_basic_campaign(self, capsys):
        rc = main(self._ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "16 submitted, 16 admitted" in out
        assert "16 completed, 0 failed" in out
        assert "queue wait:" in out and "p99" in out
        assert "utilization:" in out

    def test_byte_identical_output_for_same_seed(self, capsys):
        main(self._ARGS)
        first = capsys.readouterr().out
        main(self._ARGS)
        second = capsys.readouterr().out
        assert first == second  # completion order AND percentiles

    def test_chaos_campaign_loses_nothing(self, capsys):
        rc = main(self._ARGS + [
            "--chaos", "--crash-rank", "1", "--fail-after-us", "500",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos: worker 0" in out
        assert "16 completed, 0 failed" in out
        assert "worker crash(es)" in out

    def test_trace_renders_lifecycle(self, capsys):
        rc = main(self._ARGS + ["--trace", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lifecycle of request 0:" in out
        assert "arrive" in out and "dispatch" in out and "complete" in out

    def test_json_report(self, tmp_path, capsys):
        import json

        path = tmp_path / "serve.json"
        rc = main(self._ARGS + ["--json", str(path)])
        assert rc == 0
        report = json.loads(path.read_text())
        assert report["completed"] == 16
        assert "wait_p99_us" in report

    def test_bad_config_exits_2(self, capsys):
        rc = main(["serve", "--requests", "4", "--batch-max", "0"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "error" in out

    def test_report_includes_placement(self, capsys):
        rc = main(self._ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "placement:" in out and "residency" in out
        assert "tunecache:" in out

    def test_pinned_grid_and_no_residency(self, capsys):
        rc = main(self._ARGS + ["--grid", "time", "--no-residency"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "grids [time" in out
        assert "residency 0/" in out

    def test_tunecache_persists_across_campaigns(self, tmp_path, capsys):
        import json

        tc = tmp_path / "tunecache.json"
        rc = main(self._ARGS + [
            "--tunecache", str(tc), "--json", str(tmp_path / "r1.json"),
        ])
        assert rc == 0
        first = capsys.readouterr().out
        assert "tunecache: saved" in first
        rc = main(self._ARGS + [
            "--tunecache", str(tc), "--json", str(tmp_path / "r2.json"),
        ])
        assert rc == 0
        second = capsys.readouterr().out
        assert "tunecache: loaded" in second
        r1 = json.loads((tmp_path / "r1.json").read_text())["placement"]
        r2 = json.loads((tmp_path / "r2.json").read_text())["placement"]
        assert r1["tunecache_misses"] >= 1
        assert r2["tunecache_misses"] == 0 and r2["tunecache_hits"] > 0
        assert r2["tune_setup_spent_us"] < r1["tune_setup_spent_us"]


def _serve_config(*flags: str) -> ServiceConfig:
    return serve_config(build_parser().parse_args(["serve", *flags]))


_TOPO = ("--topology", "2x2@2")

#: ``repro serve`` flags and the config fields they must set — those
#: fields and no other.  Values are built the way the CLI scales them.
_SERVE_FLAGS = {
    "workers": (["--workers", "3"], dict(n_workers=3)),
    "ranks": (["--ranks", "4"], dict(ranks_per_worker=4)),
    "batch_max": (["--batch-max", "5"], dict(policy=BatchPolicy(max_batch=5))),
    "batch_wait_us": (
        ["--batch-wait-us", "250"],
        dict(policy=BatchPolicy(max_wait_s=250 * 1e-6)),
    ),
    "queue_capacity": (["--queue-capacity", "10"], dict(queue_capacity=10)),
    "max_retries": (["--max-retries", "3"], dict(max_retries=3)),
    "iterations": (["--iterations", "7"], dict(fixed_iterations=7)),
    "seed": (["--seed", "5"], dict(seed=5)),
    "functional": (["--functional"], dict(functional=True)),
    "chaos": (
        ["--chaos", "--crash-worker", "1", "--crash-rank", "0",
         "--fail-after-us", "300"],
        dict(
            fault_plan=FaultPlan(seed=2010).with_stall(
                0, after_s=300 * 1e-6, mode="crash"
            ),
            chaos_workers=(1,),
        ),
    ),
    "recover": (
        ["--recover", "--max-attempts", "3"],
        dict(retry_policy=RetryPolicy(max_attempts=3)),
    ),
    "grid_time": (["--grid", "time"], dict(placement=PlacementPolicy(grid=None))),
    "grid_pinned": (
        ["--grid", "2,1"], dict(placement=PlacementPolicy(grid=(2, 1)))
    ),
    "no_residency": (
        ["--no-residency"], dict(placement=PlacementPolicy(residency=False))
    ),
    "preempt": (["--preempt"], dict(preemption=PreemptionPolicy(enabled=True))),
    "refresh_points": (
        ["--preempt", "--refresh-points", "6"],
        dict(preemption=PreemptionPolicy(enabled=True, refresh_points=6)),
    ),
    "resume_overhead_us": (
        ["--preempt", "--resume-overhead-us", "50"],
        dict(preemption=PreemptionPolicy(enabled=True, resume_overhead_s=50 * 1e-6)),
    ),
    "elastic": (
        ["--elastic", "--min-workers", "2", "--max-workers", "5",
         "--spinup-us", "100"],
        dict(elastic=ElasticPolicy(min_workers=2, max_workers=5, spinup_s=100 * 1e-6)),
    ),
    "health": (["--health"], dict(health=HealthPolicy(enabled=True))),
    "cooldown_us": (
        ["--health", "--cooldown-us", "500"],
        dict(health=HealthPolicy(enabled=True, cooldown_s=500 * 1e-6)),
    ),
    "hedge": (["--hedge"], dict(hedge=HedgePolicy(enabled=True))),
    "hedge_factor": (
        ["--hedge", "--hedge-factor", "2.5"],
        dict(hedge=HedgePolicy(enabled=True, trigger_factor=2.5)),
    ),
    "brownout": (["--brownout"], dict(brownout=BrownoutPolicy(enabled=True))),
    "kill_worker": (
        ["--kill-worker-at-ms", "3", "--kill-worker", "1"],
        dict(worker_faults=WorkerFaultPlan().with_kill(1, at_s=3 * 1e-3)),
    ),
    "straggler": (
        ["--straggler-factor", "2.5", "--straggler-worker", "0"],
        dict(worker_faults=WorkerFaultPlan().with_straggler(0, factor=2.5)),
    ),
    "topology": (list(_TOPO), dict(topology=Topology(2, 2, 2))),
    "kill_node": (
        [*_TOPO, "--kill-node-at-ms", "1", "--kill-node", "1"],
        dict(
            topology=Topology(2, 2, 2),
            domain_faults=DomainFaultPlan(seed=2010).with_node_kill(1, at_s=1e-3),
        ),
    ),
    "partition_switch": (
        [*_TOPO, "--partition-switch-at-ms", "4", "--partition-rack", "1"],
        dict(
            topology=Topology(2, 2, 2),
            domain_faults=DomainFaultPlan(seed=2010).with_partition(
                1, at_s=4 * 1e-3
            ),
        ),
    ),
    "heal_ms": (
        [*_TOPO, "--partition-switch-at-ms", "4", "--heal-ms", "3"],
        dict(
            topology=Topology(2, 2, 2),
            domain_faults=DomainFaultPlan(seed=2010).with_partition(
                0, at_s=4 * 1e-3, mean_heal_s=3 * 1e-3
            ),
        ),
    ),
    "tenants": (
        ["--tenants", "atlas,bell"],
        dict(tenancy=TenancyPolicy.build(("atlas", "bell"))),
    ),
    "tenant_weights": (
        ["--tenants", "atlas,bell", "--tenant-weights", "3,1"],
        dict(tenancy=TenancyPolicy.build(("atlas", "bell"), weights=(3.0, 1.0))),
    ),
    "quota": (
        ["--tenants", "atlas,bell", "--quota-qps", "100", "--quota-burst", "5"],
        dict(
            tenancy=TenancyPolicy.build(
                ("atlas", "bell"), quota_qps=100.0, quota_burst=5
            )
        ),
    ),
}


class TestServeConfig:
    @pytest.mark.parametrize("case", sorted(_SERVE_FLAGS))
    def test_flag_lands_in_its_field(self, case):
        flags, want = _SERVE_FLAGS[case]
        base, cfg = _serve_config(), _serve_config(*flags)
        changed = {
            f.name
            for f in dataclasses.fields(ServiceConfig)
            if getattr(cfg, f.name) != getattr(base, f.name)
        }
        assert changed == set(want)
        for name, value in want.items():
            assert getattr(cfg, name) == value, name

    def test_feature_switches_alone_give_the_library_defaults(self):
        """No serve flag restates a library default: with only the
        feature switches given, the config is the default one field for
        field.  ``--resume-overhead-us 100`` once did, as 100 * 1e-6 =
        9.999999999999999e-05 against the policy's 1e-4."""
        cfg = _serve_config("--preempt", "--health", "--hedge", "--brownout", "--elastic")
        want = ServiceConfig(
            # ``--seed`` seeds the workload too; 2010 is its default.
            seed=2010,
            preemption=PreemptionPolicy(enabled=True),
            elastic=ElasticPolicy(),
            health=HealthPolicy(enabled=True),
            hedge=HedgePolicy(enabled=True),
            brownout=BrownoutPolicy(enabled=True),
        )
        for f in dataclasses.fields(ServiceConfig):
            assert getattr(cfg, f.name) == getattr(want, f.name), f.name
        assert cfg.preemption.resume_overhead_s == 1e-4


class TestServeDaemon:
    _STREAM_ARGS = [
        "serve", "--stream", "--requests", "48", "--rate", "4000",
        "--workers", "2", "--queue-capacity", "256", "--dims", "4,4,4,8",
        "--iterations", "10", "--seed", "7",
    ]

    def test_streaming_campaign(self, capsys):
        rc = main(self._STREAM_ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "48 submitted, 48 admitted" in out

    def test_crash_resume_exits_zero(self, tmp_path, capsys):
        """The CI daemon smoke in miniature: kill the scheduler
        mid-campaign, resume from the checkpoint, lose nothing."""
        import json

        path = tmp_path / "daemon.json"
        rc = main(self._STREAM_ARGS + [
            "--crash-scheduler-at-ms", "300", "--json", str(path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "daemon: scheduler crashed at" in out
        assert "resuming from campaign checkpoint" in out
        report = json.loads(path.read_text())
        assert report["checkpoint_restores"] >= 1
        assert report["restored_requests"] > 0
        terminal = report["completed"] + report["failed"] + report["rejected"]
        assert terminal == report["requests"] == 48

    def test_crash_before_any_commit_exits_nonzero(self, capsys):
        """A resume that silently restarted from scratch (no verified
        commit to restore) must fail the build, per the CI contract."""
        rc = main(self._STREAM_ARGS + ["--crash-scheduler-at-ms", "0.001"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "no checkpoint restore" in captured.err

    def test_checkpoint_file_is_written(self, tmp_path, capsys):
        path = tmp_path / "campaign.ckpt"
        rc = main(self._STREAM_ARGS + ["--checkpoint", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert path.exists()
        assert "commit(s)" in out

    def test_bursty_elastic_preempting_campaign(self, tmp_path, capsys):
        import json

        path = tmp_path / "bursty.json"
        rc = main([
            "serve", "--requests", "64", "--rate", "300",
            "--burst-rate", "12000", "--burst-start-ms", "5",
            "--burst-len-ms", "10", "--workers", "1", "--elastic",
            "--min-workers", "1", "--max-workers", "6", "--preempt",
            "--queue-capacity", "384", "--dims", "4,4,4,8",
            "--iterations", "10", "--seed", "11",
            "--priority-mix", "0.2,0.3,0.5", "--json", str(path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "autoscaler:" in out
        report = json.loads(path.read_text())
        assert report["scale_ups"] >= 1
        assert report["scale_downs"] >= 1

    def test_bad_priority_mix_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(self._STREAM_ARGS + ["--priority-mix", "1,2"])
        assert exc_info.value.code == 2

    def test_bad_elastic_range_exits_2(self, capsys):
        rc = main([
            "serve", "--requests", "8", "--workers", "4", "--elastic",
            "--min-workers", "1", "--max-workers", "2",
        ])
        assert rc == 2


    @pytest.mark.parametrize("flag,value", [
        ("--tenant-weights", "3,1"),
        ("--tenant-mix", "1,1"),
        ("--quota-qps", "100"),
        ("--quota-qps", "0"),
        ("--quota-burst", "5"),
    ])
    def test_tenant_option_without_tenants_exits_2(self, capsys, flag, value):
        rc = main(["serve", "--requests", "4", flag, value])
        assert rc == 2
        assert "tenant options require --tenants" in capsys.readouterr().out

    def test_fault_outside_the_topology_exits_2(self, capsys):
        rc = main([
            "serve", "--requests", "4", "--topology", "2x2",
            "--kill-node-at-ms", "1", "--kill-node", "7",
        ])
        out = capsys.readouterr().out
        assert rc == 2
        assert "node 7, but the topology has 2 node(s)" in out

class TestExperiments:
    def test_writes_report(self, tmp_path, capsys, monkeypatch):
        """The subcommand is plumbing: ``--iterations`` reaches the
        generator and its text lands in ``--out``.  The report's content
        is asserted once, in ``tests/bench/test_experiments_md.py``."""
        import repro.bench.experiments_md as mod

        seen = []

        def generate(iterations):
            seen.append(iterations)
            return "# EXPERIMENTS\n## fig5a\nratio\n"

        monkeypatch.setattr(mod, "generate", generate)
        out_path = tmp_path / "EXP.md"
        rc = main(["experiments", "--out", str(out_path), "--iterations", "3"])
        assert rc == 0
        assert seen == [3]
        text = out_path.read_text()
        assert "fig5a" in text and "ratio" in text
        assert f"wrote {out_path}" in capsys.readouterr().out
