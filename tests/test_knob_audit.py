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
entry points and ``cli.py``'s ``add_argument`` calls are pinned, and the
knobs retired to module constants may not come back as fields.
"""

import ast
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
}

#: Knobs per class: ``ServiceConfig``, every ``*Policy`` its fields
#: hold, ``FaultPlan``, and ``SimWorker.__init__``'s keyword parameters.
_KNOBS = {
    "ServiceConfig": 24,
    "BatchPolicy": 3,
    "PlacementPolicy": 2,
    "PreemptionPolicy": 3,
    "ElasticPolicy": 6,
    "HealthPolicy": 6,
    "HedgePolicy": 4,
    "BrownoutPolicy": 4,
    "TenancyPolicy": 1,
    "RetryPolicy": 2,
    "IntegrityPolicy": 2,
    "FaultPlan": 8,
    "SimWorker.__init__": 11,
}

#: ``add_argument`` calls in ``cli.py`` (``--no-tunecache`` went with
#: ``PlacementPolicy.tunecache``; the four flags of ``repro profile``'s
#: host-CPU mode went with its cProfile wrapper; ``repro serve``'s two
#: switches of the domain breaker and anti-affine placement went with
#: them).
_CLI_ARGUMENTS = 122


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


def _cli_arguments() -> list[ast.Call]:
    tree = ast.parse((ROOT / "src/repro/cli.py").read_text())
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
    ]


def test_the_configuration_surface_is_pinned():
    """A knob added (or one left behind) moves a count here: say so in
    the change that does it."""
    counts = {name: len(fields) for name, fields in _knobs().items()}
    assert counts == _KNOBS
    assert sum(counts.values()) == 76
    assert len(_cli_arguments()) == _CLI_ARGUMENTS


def test_retired_knobs_stay_constants():
    for owner, names in _knobs().items():
        assert not _RETIRED_KNOBS & set(names), owner
    flags = {
        arg.value
        for call in _cli_arguments()
        for arg in call.args
        if isinstance(arg, ast.Constant)
    }
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
