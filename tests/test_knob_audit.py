"""Every knob the docs name must exist in the code — and the reverse.

ROADMAP's correctness needle: the set of ``REPRO_*`` environment
variables named by ``README.md``, ``DESIGN.md`` and the CI workflow is
exactly the set ``src/`` reads from ``os.environ``.  A documented knob
no code reads (there has been one) or a read knob nobody documents
both fail here.  So does a file or definition DESIGN.md names that
the repository does not have.

The configuration surface itself is counted too: the fields of
``ServiceConfig`` and the policies under it, ``FaultPlan``,
``SimWorker``'s keyword parameters, the keywords of the four ``invert*``
entry points, each optional feature's knobs and flags, and the options
``build_parser()`` holds per subcommand are pinned; so is the solve stack
below the entry points (the two QUDA parameter structs and the keywords
of the solvers, the BLAS and clover kernels and the tuning calls).  The
knobs retired to module constants may not come back as fields or
parameters.
"""

import argparse
import ast
import dataclasses
import fnmatch
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", ".github/workflows/ci.yml")

_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
_READ = re.compile(
    r"""(?:environ(?:\.get)?\s*[\[(]|getenv\s*\()\s*["'](REPRO_[A-Z0-9_]+)["']"""
)


def _src_text():
    return "\n".join(
        p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))
    )


def test_documented_knobs_are_exactly_the_knobs_src_reads():
    """Both sets are empty since the baton scheduler took the deadlock
    timer (and ``REPRO_MPI_DEADLOCK_TIMEOUT``) away; a knob that comes
    back must come back on both sides."""
    read = set(_READ.findall(_src_text()))
    documented = set()
    for name in DOCS:
        documented |= set(_NAME.findall((ROOT / name).read_text()))
    assert documented == read == set()


def test_the_audit_regex_still_finds_an_environment_read():
    """With nothing left to find, the regex is checked on samples."""
    for sample in (
        'os.environ.get("REPRO_X")',
        "os.environ['REPRO_X']",
        'os.getenv( "REPRO_X", "1")',
        'float(environ.get("REPRO_X", "120"))',
    ):
        assert _READ.findall(sample) == ["REPRO_X"], sample
    assert _READ.findall('print("REPRO_X")') == []


def test_src_names_no_knob_it_does_not_read():
    text = _src_text()
    assert set(_NAME.findall(text)) == set(_READ.findall(text))


#: A backticked ``path.py`` (a bare name, a tail such as
#: ``service/health.py``, or a glob), optionally ``path.py::name``.
_PY_REF = re.compile(r"`([\w./*-]+\.py)(?:::(\w+))?`")


def test_design_names_only_files_and_definitions_that_exist():
    """DESIGN.md once described a ``ghost.py`` no commit ever had: every
    file it names is in the repository (as the tail of a path), and every
    ``file.py::name`` is bound at the top level of such a file."""
    files = [
        p.relative_to(ROOT).as_posix()
        for p in ROOT.rglob("*.py")
        if not any(part.startswith(".") for part in p.relative_to(ROOT).parts)
    ]
    missing = []
    for ref, name in set(_PY_REF.findall((ROOT / "DESIGN.md").read_text())):
        hits = [f for f in files if fnmatch.fnmatch(f, ref) or fnmatch.fnmatch(f, "*/" + ref)]
        if not hits:
            missing.append(ref)
        elif name and not any(name in _top_level_names(ROOT / f) for f in hits):
            missing.append(f"{ref}::{name}")
    assert not missing, missing


def _top_level_names(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


# --------------------------------------------------------------------- #
# The configuration surface, counted
# --------------------------------------------------------------------- #

#: Values no caller ever set to anything but their default, now module
#: constants of the code that reads them (``max_strikes`` was a field of
#: ``HealthPolicy`` and of the deleted domain breaker's policy).
_RETIRED_KNOBS = {
    "service_time_hint_s",  # ServiceConfig: DrainEstimator's default
    "drain_alpha",  # ServiceConfig: DrainEstimator's default
    "tunecache",  # PlacementPolicy: the shared tunecache is always on
    "trigger_priority",  # PreemptionPolicy: PRIORITY_HIGH
    "victim_priority",  # PreemptionPolicy: PRIORITY_LOW
    "max_strikes",  # HealthPolicy: health.MAX_STRIKES
    "strike_window_s",  # the deleted domain breaker's correlation window
    "hysteresis",  # BrownoutPolicy: health.BROWNOUT_HYSTERESIS
    "backoff_s",  # RetryPolicy: resilience.RELAUNCH_BACKOFF_S
    "checksum_gbps",  # IntegrityPolicy: faults.CHECKSUM_GBPS
    "checksum_overhead_s",  # IntegrityPolicy: faults.CHECKSUM_OVERHEAD_S
    "max_send_attempts",  # FaultPlan: faults.MAX_SEND_ATTEMPTS
    "retry_backoff_s",  # FaultPlan: faults.SEND_RETRY_BACKOFF_S
    "gauge_noise",  # SimWorker: workers.GAUGE_NOISE
    "failure_penalty_s",  # SimWorker: workers.FAILURE_PENALTY_S
    "overlap",  # ServiceConfig, SimWorker: QudaInvertParam.overlap_comms
    "integrity",  # ServiceConfig, SimWorker: the solve's own arming rule
    "alpha",  # HealthPolicy: health.HEALTH_ALPHA; ElasticPolicy: ArrivalRateEstimator's
    "HedgePolicy.refresh_points",  # health.HEDGE_REFRESH_POINTS
    # The solve stack (owner patterns match ``<module>.<function>``):
    "divergence_factor",  # QudaInvertParam, solvers: reliable.DIVERGENCE_FACTOR
    "stagnation_window",  # QudaInvertParam, solvers: reliable.STAGNATION_WINDOW
    "corruption_factor",  # QudaInvertParam, solvers: reliable.CORRUPTION_FACTOR
    "update_cadence",  # solvers, ReliableUpdater: reliable.UPDATE_CADENCE
    "max_corruption_restores",  # EscalationLadder: resilience.MAX_CORRUPTION_RESTORES
    "blas.*.occupancy",  # every BLAS kernel: gpu.launch's default
    "kernels.clover_kernel.occupancy",  # gpu.launch's default (dslash_kernel keeps its own)
    "kernels.clover_kernel.stream",  # stream 0
    "placement.gauge_upload_s.params",  # DEFAULT_PARAMS
    "placement.gauge_upload_s.compressed",  # 2-row links
    "placement.gauge_upload_s.numa_ok",  # pcie_time's default
    "placement.SharedTuneCache.acquire.params",  # DEFAULT_PARAMS
    "autotune.autotune.kernels",  # KERNEL_REGISTERS
    "autotune.tune_sweep_cost_s.kernels",  # KERNEL_REGISTERS
    "autotune.tune_sweep_cost_s.params",  # DEFAULT_PARAMS
}

#: Knobs per class: ``ServiceConfig``, every ``*Policy`` its fields
#: hold, ``FaultPlan``, and ``SimWorker.__init__``'s keyword parameters.
#: ``IntegrityPolicy`` left with ``ServiceConfig.integrity``; it stays a
#: keyword of the ``invert*`` entry points.
_KNOBS = {
    "ServiceConfig": 22,
    "BatchPolicy": 3,
    "PlacementPolicy": 2,
    "PreemptionPolicy": 3,
    "ElasticPolicy": 6,
    "HealthPolicy": 5,
    "HedgePolicy": 3,
    "BrownoutPolicy": 4,
    "TenancyPolicy": 1,
    "RetryPolicy": 2,
    "FaultPlan": 8,
    "SimWorker.__init__": 9,
}

#: Each optional feature (a row of ``service.FEATURES``, by its config
#: field): the knobs of what configures it, and how many of them declare
#: their ``repro serve`` flag.
_PARTS = {
    "tenancy": (1, 0),
    "brownout": (4, 1),
    "elastic": (6, 4),
    "preemption": (3, 3),
    "hedge": (3, 2),
    "health": (5, 2),
    "worker_faults": (2, 0),
    "topology": (3, 0),
}

#: Options per subcommand of ``build_parser()``, help excluded
#: (``--no-tunecache`` went with ``PlacementPolicy.tunecache``; the four
#: flags of ``repro profile``'s host-CPU mode went with its cProfile
#: wrapper; ``repro serve``'s two switches of the domain breaker and
#: anti-affine placement went with them).
_CLI_OPTIONS = {
    "solve": 8,
    "generate": 6,
    "spectrum": 6,
    "bench": 2,
    "profile": 6,
    "chaos": 29,
    "serve": 63,
    "experiments": 2,
}

#: The ``repro serve`` flags declared on the field they set.
_GENERATED_FLAGS = {
    "--queue-capacity": "ServiceConfig.queue_capacity",
    "--workers": "ServiceConfig.n_workers",
    "--ranks": "ServiceConfig.ranks_per_worker",
    "--max-retries": "ServiceConfig.max_retries",
    "--functional": "ServiceConfig.functional",
    "--iterations": "ServiceConfig.fixed_iterations",
    "--batch-max": "BatchPolicy.max_batch",
    "--batch-wait-us": "BatchPolicy.max_wait_s",
    "--preempt": "PreemptionPolicy.enabled",
    "--refresh-points": "PreemptionPolicy.refresh_points",
    "--resume-overhead-us": "PreemptionPolicy.resume_overhead_s",
    "--elastic": "ElasticPolicy.enabled",
    "--min-workers": "ElasticPolicy.min_workers",
    "--max-workers": "ElasticPolicy.max_workers",
    "--spinup-us": "ElasticPolicy.spinup_s",
    "--health": "HealthPolicy.enabled",
    "--cooldown-us": "HealthPolicy.cooldown_s",
    "--hedge": "HedgePolicy.enabled",
    "--hedge-factor": "HedgePolicy.trigger_factor",
    "--brownout": "BrownoutPolicy.enabled",
}


def _classes() -> dict[str, ast.ClassDef]:
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                assert node.name not in found, f"two classes named {node.name}"
                found[node.name] = node
    return found


def _fields(cls: ast.ClassDef) -> list[str]:
    return [
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and "ClassVar" not in ast.unparse(node.annotation)
    ]


def _knobs() -> dict[str, list[str]]:
    classes = _classes()
    config = classes["ServiceConfig"]
    held = sorted(
        {
            name.id
            for node in config.body
            if isinstance(node, ast.AnnAssign)
            for name in ast.walk(node.annotation)
            if isinstance(name, ast.Name) and name.id.endswith("Policy")
        }
    )
    knobs = {
        name: _fields(classes[name]) for name in ["ServiceConfig", *held, "FaultPlan"]
    }
    init = next(
        node
        for node in classes["SimWorker"].body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    )
    knobs["SimWorker.__init__"] = [a.arg for a in init.args.kwonlyargs]
    return knobs


def _cli_options() -> dict[str, list[str]]:
    """Subcommand -> the option strings ``build_parser()`` holds."""
    from repro.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: [
            option
            for action in p._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        ]
        for command, p in sub.choices.items()
    }


def _hand_written_flags(command: str) -> set[str]:
    """The option strings ``build_parser`` spells out for ``command``."""
    tree = ast.parse((ROOT / "src/repro/cli.py").read_text())
    build = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "build_parser"
    )
    flags, current = set(), None
    for stmt in build.body:
        call = getattr(stmt, "value", None)
        if isinstance(call, ast.Call) and getattr(call.func, "attr", "") == "add_parser":
            current = call.args[0].value
        elif current == command:
            flags |= {
                arg.value
                for node in ast.walk(stmt)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
                for arg in node.args
                if isinstance(arg, ast.Constant)
            }
    return flags


def test_the_configuration_surface_is_pinned():
    """A knob added (or one left behind) moves a count here: say so in
    the change that does it."""
    counts = {name: len(fields) for name, fields in _knobs().items()}
    assert counts == _KNOBS
    assert sum(counts.values()) == 68
    options = _cli_options()
    assert {command: len(opts) for command, opts in options.items()} == _CLI_OPTIONS
    assert sum(_CLI_OPTIONS.values()) == 122


def test_each_feature_counts_its_knobs_and_flags():
    from repro.service import ServiceConfig
    from repro.service.service import FEATURES

    fields = {f.name: f for f in dataclasses.fields(ServiceConfig)}
    counts = {}
    for holder, _, _ in FEATURES:
        hint = fields[holder].type.split(" | ")[0]
        knobs = _fields(_classes()[hint])
        cls = fields[holder].default_factory
        flags = 0
        if dataclasses.is_dataclass(cls):
            flags = sum("flag" in f.metadata for f in dataclasses.fields(cls))
        counts[holder] = (len(knobs), flags)
    assert counts == _PARTS


def test_generated_flags_are_declared_on_fields_that_exist():
    """Every generated flag names a field its class has, the parser
    holds it, and no hand-written ``add_argument`` restates it."""
    import repro.service as service

    declared = {}
    for flag, target in _GENERATED_FLAGS.items():
        owner, name = target.split(".")
        assert name in _fields(_classes()[owner]), target
        field = {f.name: f for f in dataclasses.fields(getattr(service, owner))}[name]
        declared[field.metadata["flag"]] = target
    assert declared == _GENERATED_FLAGS
    serve = set(_cli_options()["serve"])
    assert set(_GENERATED_FLAGS) <= serve
    assert not set(_GENERATED_FLAGS) & _hand_written_flags("serve")
    assert "--requests" in _hand_written_flags("serve")
    assert "_given(" not in (ROOT / "src/repro/cli.py").read_text()


def test_retired_knobs_stay_constants():
    owners = {**_knobs(), **_solve_parameters()}
    for owner, names in owners.items():
        held = set(names) | {f"{owner}.{name}" for name in names}
        assert not [r for r in _RETIRED_KNOBS for h in held if fnmatch.fnmatchcase(h, r)], owner
    flags = {option for options in _cli_options().values() for option in options}
    assert "--no-tunecache" not in flags
    assert "--tunecache" in flags


#: Keyword parameters of the solve entry points in ``core/quda.py``.
#: ``tune`` went away: no caller ever turned tuning off, and
#: ``tune_cache=None`` derives the tunings fresh.
_COMMON = ["n_gpus", "grid", "gauge_param", "cluster", "gpu_spec", "enforce_memory", "tune_cache"]
_INVERT_KEYWORDS = {
    "invert": [*_COMMON, "verify", "fault_plan", "integrity"],
    "invert_multi": [*_COMMON, "verify", "fault_plan", "integrity"],
    "invert_model": [*_COMMON, "fault_plan", "integrity"],
    "invert_model_multi": ["n_sources", *_COMMON, "fault_plan", "integrity"],
}


def test_invert_keywords_are_pinned():
    tree = ast.parse((ROOT / "src/repro/core/quda.py").read_text())
    found = {
        node.name: [a.arg for a in node.args.kwonlyargs]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in (*_INVERT_KEYWORDS, "_run")
    }
    assert {name: found[name] for name in _INVERT_KEYWORDS} == _INVERT_KEYWORDS
    for name, keywords in found.items():
        assert "tune" not in keywords, name


# --------------------------------------------------------------------- #
# The solve stack, counted
# --------------------------------------------------------------------- #

#: Fields of the two QUDA parameter structs (``QudaInvertParam`` lost
#: ``divergence_factor``, ``stagnation_window`` and ``corruption_factor``).
_SOLVE_FIELDS = {"QudaInvertParam": 14, "QudaGaugeParam": 3}

_SOLVER = ["tol", "delta", "maxiter", "fixed_iterations", "resume", "on_refresh"]
_REDUCTIONS = ("norm2", "cdot", "redot", "cdot_norm", "axpy_norm")
_BLAS = (
    "copy", "zero", "axpy", "xpay", "axpby", "scale", "update_p", "caxpy_pair", *_REDUCTIONS,
)

#: The keywords (keyword-only or defaulted parameters) of what the
#: ``invert*`` entry points call, by ``file::qualified name`` under
#: ``src/repro``.
_SOLVE_KEYWORDS = {
    "core/solvers/bicgstab.py::bicgstab_solve": _SOLVER,
    "core/solvers/cg.py::cg_solve": _SOLVER,
    "core/solvers/reliable.py::ReliableUpdater.__init__": [*_SOLVER, "dagger_pair"],
    "core/solvers/resilience.py::EscalationLadder.__init__": ["solver", "sloppy", "full", "max_steps"],
    "gpu/kernels.py::clover_kernel": [],
    "service/placement.py::gauge_upload_s": ["mode"],
    "service/placement.py::SharedTuneCache.acquire": [],
    "core/autotune.py::autotune": ["spec"],
    "core/autotune.py::tune_sweep_cost_s": ["spec", "local_volume"],
    **{f"core/blas.py::{k}": ["qmp"] if k in _REDUCTIONS else [] for k in _BLAS},
}


def _definition(ref: str) -> ast.AST:
    path, _, qualified = ref.partition("::")
    node = ast.parse((ROOT / "src/repro" / path).read_text())
    for part in qualified.split("."):
        node = next(
            n for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part
        )
    return node


def _keywords(fn: ast.FunctionDef) -> list[str]:
    positional = [*fn.args.posonlyargs, *fn.args.args]
    defaulted = positional[len(positional) - len(fn.args.defaults):]
    return [a.arg for a in defaulted] + [a.arg for a in fn.args.kwonlyargs]


def _solve_parameters() -> dict[str, list[str]]:
    """Owner -> every field or parameter name of the solve stack: the two
    structs, each pinned callable and every function of ``core/blas.py``
    (``_launch`` included), owners named ``<module>.<qualified name>``."""
    classes = _classes()
    owners = {name: _fields(classes[name]) for name in _SOLVE_FIELDS}
    refs = {*_SOLVE_KEYWORDS, "core/blas.py::_launch"}
    for ref in sorted(refs):
        fn = _definition(ref)
        path, _, qualified = ref.partition("::")
        args = [*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs]
        owners[f"{pathlib.Path(path).stem}.{qualified}"] = [a.arg for a in args]
    return owners


def test_the_solve_stack_is_pinned():
    """87 settable values before the solve side was audited (17 + 3
    fields, 67 keywords); 38 retired to module constants leave 49."""
    classes = _classes()
    fields = {name: len(_fields(classes[name])) for name in _SOLVE_FIELDS}
    assert fields == _SOLVE_FIELDS
    keywords = {ref: _keywords(_definition(ref)) for ref in _SOLVE_KEYWORDS}
    assert keywords == _SOLVE_KEYWORDS
    blas = ast.parse((ROOT / "src/repro/core/blas.py").read_text())
    public = {
        n.name for n in blas.body
        if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")
    }
    assert public == set(_BLAS)
    total = sum(fields.values()) + sum(len(k) for k in keywords.values())
    assert total == 49


def test_no_retry_policy_admits_none():
    """``RetryPolicy()`` is the one spelling of "no recovery"."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arg) and node.arg == "retry_policy":
                annotation = node.annotation
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "retry_policy"
            ):
                annotation = node.annotation
            else:
                continue
            assert "None" not in ast.unparse(annotation), path
