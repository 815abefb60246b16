"""Every knob the docs name must exist in the code — and the reverse.

ROADMAP's correctness needle: the set of ``REPRO_*`` environment
variables named by ``README.md``, ``DESIGN.md`` and the CI workflow is
exactly the set ``src/`` reads from ``os.environ``.  A documented knob
no code reads (there has been one) or a read knob nobody documents
both fail here.
"""

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
