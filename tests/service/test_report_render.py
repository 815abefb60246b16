"""``ServiceReport.render()`` pinned line for line.

The text scorecard ``repro serve`` prints is the report's other face
beside its JSON; ``golden_report_render.txt`` holds it for three
campaigns that between them reach every line it can draw: the golden
daemon (brownout, hedging, breaker, autoscaler, preemption), the CI
domain-chaos smoke (topology, node kill, partition, scheduler crash and
a resume from the checkpoint mirror) built through ``cli.serve_config``,
and a tenancy campaign with an idle tenant (its ``n/a`` percentiles).

Running the file as a module re-records the golden
(``PYTHONPATH=src python -m tests.service.test_report_render``) — only
for a deliberate, explained change of the text.
"""

import pathlib

from repro import cli
from repro.service import (
    BatchPolicy,
    CampaignCheckpointStore,
    MirroredCheckpointStore,
    SchedulerCrash,
    ServiceConfig,
    SolveService,
    TenancyPolicy,
    stream_workload,
)

from .test_lifecycle_golden import golden_daemon

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_report_render.txt"

#: ``.github/workflows/ci.yml``, "Domain chaos smoke".
DOMAIN_CHAOS_ARGV = [
    "serve", "--stream", "--requests", "48", "--rate", "4000",
    "--workers", "9", "--topology", "3x3@3", "--dims", "4,4,4,8",
    "--iterations", "10", "--seed", "23",
    "--kill-node-at-ms", "2", "--kill-node", "0",
    "--partition-switch-at-ms", "3", "--partition-rack", "2", "--heal-ms", "2",
    "--health", "--hedge",
    "--crash-scheduler-at-ms", "6.5",
]


def domain_chaos():
    """The smoke's campaign as ``repro serve`` runs it: a mirrored store
    across the first and last node, a crash, and a resume."""
    args = cli.build_parser().parse_args(DOMAIN_CHAOS_ARGV)
    config = cli.serve_config(args)

    def workload():
        return stream_workload(
            args.requests,
            rate_rps=args.rate,
            seed=args.seed,
            dims=args.dims,
            mode=args.mode,
            mass=args.mass,
            n_configs=args.configs,
            deadline_slack_s=cli._scaled(args.deadline_ms, 1e-3),
        )

    store = MirroredCheckpointStore(
        CampaignCheckpointStore(),
        primary_domain=0,
        mirror_domain=config.topology.n_nodes - 1,
    )
    try:
        SolveService(config).serve(
            workload(), checkpoint=store, crash_at_s=args.crash_scheduler_at_ms * 1e-3
        )
    except SchedulerCrash as exc:
        return SolveService(config).resume(workload(), checkpoint=exc.store)
    raise AssertionError("the scheduler crash did not fire")


def idle_tenant():
    """``test_tenancy``'s zero-traffic tenant: every request is atlas's."""
    tenants = ("atlas", "bell")
    config = ServiceConfig(
        queue_capacity=256,
        policy=BatchPolicy(max_batch=4),
        n_workers=2,
        ranks_per_worker=2,
        fixed_iterations=10,
        tenancy=TenancyPolicy.build(tenants),
    )
    return SolveService(config).serve(
        stream_workload(
            48,
            seed=7,
            rate_rps=4000.0,
            dims=(4, 4, 4, 8),
            tenants=tenants,
            tenant_mix=(1.0, 0.0),
        )
    )


CAMPAIGNS = {
    "golden_daemon": golden_daemon,
    "domain_chaos": domain_chaos,
    "idle_tenant": idle_tenant,
}


def rendered() -> str:
    return "".join(
        f"=== {name}\n{run().report.render()}\n"
        for name, run in CAMPAIGNS.items()
    )


def test_render_matches_golden():
    assert rendered() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(rendered())
    print(f"wrote {GOLDEN}")
