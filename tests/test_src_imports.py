"""Every name a package, test or tool module imports is used in that
module, and the package's one public list names exactly what it imports.

There is no linter in the toolchain, so ``src/pg_curvelab/*.py``,
``tests/*.py``, ``tools/*.py`` and ``bench/*.py`` are parsed with
``ast``; the bench files are only read.
``__init__.py`` is exempt from the unused-import check, because its
imports are the package's re-exports, which ``__all__`` must list
instead; ``from __future__ import ...`` is exempt everywhere.  A fresh
interpreter pins the standard-library modules, and the package's series
module, that importing the CLI may not pull in.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pg_curvelab"
TOOLS = TESTS.parent / "tools"
BENCH = TESTS.parent / "bench"
INIT = SRC / "__init__.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p != INIT) + [
    p for d in (TESTS, TOOLS, BENCH) for p in sorted(d.glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read afterwards."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "import a.b as c" binds c
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_checker_flags_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\nclass A:\n    p: os.PathLike\n")
    assert unused_imports(source) == ["field (line 3)"]


def test_every_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"cli.py", "curves.py", "zoo.py", "conftest.py",
            "test_src_imports.py", "cli_digest.py", "run.py",
            "tracing.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=[
    p.name if p.parent == SRC else f"{p.parent.name}/{p.name}"
    for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_init_imports_exactly_the_public_names():
    tree = ast.parse(INIT.read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    public = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["__all__"])
    public.remove("__version__")
    assert len(imported) == len(set(imported))
    assert len(public) == len(set(public))
    assert sorted(imported) == sorted(public)


def test_cli_import_leaves_out_costly_stdlib_modules():
    # every CLI process pays for its imports: dataclasses builds classes
    # with exec and imports inspect; statistics imports fractions and
    # decimal; no command builds a DSeries, the tests' reference form
    code = ("import sys; before = set(sys.modules); import pg_curvelab.cli; "
            "print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join(filter(None, (str(SRC.parent),
                                         os.environ.get("PYTHONPATH"))))
    added = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": path}).stdout.split()
    assert "pg_curvelab.cli" in added
    assert {"dataclasses", "inspect", "statistics",
            "pg_curvelab.series"}.isdisjoint(added)
