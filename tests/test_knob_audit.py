"""Every knob the docs name must exist in the code — and the reverse.

ROADMAP's correctness needle: the set of ``REPRO_*`` environment
variables named by ``README.md``, ``DESIGN.md`` and the CI workflow is
exactly the set ``src/`` reads from ``os.environ``.  A documented knob
no code reads (there has been one) or a read knob nobody documents
both fail here.  So does a file or definition DESIGN.md names that
the repository does not have.
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
