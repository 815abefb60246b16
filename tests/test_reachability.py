"""Nothing in ``src/`` that nothing reaches.

ROADMAP's design needle: no module that no entry point, workload or
reference test reaches.  Three audits keep it that way:

* every module under ``src/repro`` is imported by another module that is
  not a package ``__init__`` (a re-export is not a use), or is an entry
  point, or is on ``ALLOWED`` with the reason it stays;
* importing the solver, the service and the bench harness loads no scipy
  (``src/`` has no use for it, and it is a quarter second and ~29 MiB);
* every module and ``src/`` path that README.md / DESIGN.md name exists.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOCS = ("README.md", "DESIGN.md")

#: Modules run, not imported.
ENTRY_POINTS = {"repro.__main__", "repro.cli"}
#: Modules kept though no other module imports them: ``module -> why``.
ALLOWED = {
    "repro.lattice.hostsolve": (
        "the host reference Krylov solvers: tests/lattice/test_evenodd.py and "
        "tests/core/test_matpc.py check the device solve against its bicgstab/cgnr"
    ),
}


def _modules() -> dict[str, pathlib.Path]:
    """``dotted name -> file`` for every module under ``src/repro``."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _imported_names(name: str, path: pathlib.Path):
    """``(module, name or None)`` for every import statement in a file,
    relative imports resolved against the file's package."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base, None
            for alias in node.names:
                yield base, alias.name


def _imports(name: str, path: pathlib.Path, modules) -> set[str]:
    """The modules the file at ``path`` uses: those it imports, and those
    whose names it imports through a package that re-exports them."""
    hits = set()
    for base, attr in _imported_names(name, path):
        if attr is None:
            hits.add(base)
            continue
        hits.add(f"{base}.{attr}")  # ``from pkg import module``
        init = modules.get(base)
        if init is not None and init.name == "__init__.py":
            hits.update(
                source
                for source, exported in _imported_names(base, init)
                if exported == attr
            )
    hits.discard(name)
    return hits & set(modules)


def test_every_module_has_an_importer_that_is_not_a_package_init():
    modules = _modules()
    imported = set()
    for name, path in modules.items():
        if path.name != "__init__.py":
            imported |= _imports(name, path, modules)
    unreached = {
        name
        for name, path in modules.items()
        if path.name != "__init__.py" and name not in imported | ENTRY_POINTS
    }
    assert unreached == set(ALLOWED), (
        "modules no module imports (delete them, route them, or allow them "
        f"with a reason): {sorted(unreached - set(ALLOWED))}; "
        f"allowed but now imported or gone: {sorted(set(ALLOWED) - unreached)}"
    )
    assert all(len(why) > 20 for why in ALLOWED.values())


def test_the_import_pass_sees_every_form_of_import(tmp_path):
    """The pass itself, on a sample: absolute, relative, ``from pkg
    import module``, function-local imports, and a name imported through
    the package that re-exports it all count."""
    sample = tmp_path / "user.py"
    sample.write_text(
        "import repro.codec\n"
        "from .gpu import kernels\n"
        "from ..repro.core.quda import invert\n"
        "def f():\n"
        "    from .service import SolveService\n"
    )
    assert _imports("repro.user", sample, _modules()) == {
        "repro.codec",
        "repro.gpu",
        "repro.gpu.kernels",
        "repro.core.quda",
        "repro.service",
        "repro.service.service",
    }


def test_the_solver_the_service_and_the_harness_load_no_scipy():
    code = (
        "import sys, repro.core, repro.service, repro.bench.harness; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout.strip() == "[]"


def _defines(path: pathlib.Path, name: str) -> bool:
    """Whether the module at ``path`` binds ``name`` at its top level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound = [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        if name in bound:
            return True
    return False


def test_every_module_and_src_path_the_docs_name_exists():
    """A dotted ``repro.x.y`` is a module, or a name the module
    ``repro.x`` binds (``repro.core.invert``); a path is a file."""
    modules = _modules()
    missing = []
    for doc in DOCS:
        text = (ROOT / doc).read_text()
        for dotted in set(re.findall(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)", text)):
            owner, _, name = dotted.rpartition(".")
            if dotted not in modules and not (
                owner in modules and _defines(modules[owner], name)
            ):
                missing.append(f"{doc}: {dotted}")
        for path in set(re.findall(r"src/repro/[\w/]+\.py", text)):
            if not (ROOT / path).is_file():
                missing.append(f"{doc}: {path}")
    assert not missing, missing
