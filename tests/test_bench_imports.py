"""The benchmark harness uses only names the package still has.

``bench/*.py`` is parsed, not imported: every ``pg_curvelab`` name it
imports, and every attribute it reads off an imported ``pg_curvelab``
module, must resolve, so renaming or merging an API cannot silently
break ``bench/run.py``.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _dotted(node: ast.expr) -> list[str] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _references() -> list[tuple[str, str]]:
    """(file, dotted name) of every package name a bench file uses."""
    refs = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound: dict[str, str] = {}       # local name -> dotted target
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "pg_curvelab":
                for alias in node.names:
                    target = f"{node.module}.{alias.name}"
                    bound[alias.asname or alias.name] = target
                    refs.append((path.name, target))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "pg_curvelab":
                        # "import a.b" binds a, "import a.b as c" binds a.b
                        if alias.asname:
                            bound[alias.asname] = alias.name
                        else:
                            bound["pg_curvelab"] = "pg_curvelab"
                        refs.append((path.name, alias.name))
        for node in ast.walk(tree):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in bound:
                refs.append((path.name,
                             ".".join([bound[chain[0]], *chain[1:]])))
    return sorted(set(refs))


def _resolve(dotted: str) -> object:
    parts = dotted.split(".")
    obj: object = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 1):
        if not hasattr(obj, part) and isinstance(obj, types.ModuleType):
            importlib.import_module(".".join(parts[:i + 1]))
        obj = getattr(obj, part)
    return obj


REFERENCES = _references()


def test_the_harness_is_parsed():
    files = {f for f, _ in REFERENCES}
    assert {"run.py", "tracing.py", "workload.py"} <= files


@pytest.mark.parametrize("where, dotted", REFERENCES,
                         ids=[f"{f}:{d}" for f, d in REFERENCES])
def test_bench_name_exists(where, dotted):
    _resolve(dotted)
