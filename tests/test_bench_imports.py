"""The benchmark harness uses only names the package still has, and calls
them with arguments their signatures accept.

``bench/*.py`` is parsed, not imported: every ``pg_curvelab`` name it
imports, and every attribute it reads off an imported ``pg_curvelab``
module, must resolve, and every call of a package callable, directly or
through ``Tracer.call(label, fn, *args, **kw)``, must bind to its
signature, so renaming or merging an API cannot silently break
``bench/run.py``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
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


def _imports(tree: ast.Module) -> tuple[dict[str, str], list[str]]:
    """(local name -> dotted target, imported dotted names) of a bench
    file's ``pg_curvelab`` imports."""
    bound: dict[str, str] = {}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "pg_curvelab":
            for alias in node.names:
                target = f"{node.module}.{alias.name}"
                bound[alias.asname or alias.name] = target
                imported.append(target)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pg_curvelab":
                    # "import a.b" binds a, "import a.b as c" binds a.b
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["pg_curvelab"] = "pg_curvelab"
                    imported.append(alias.name)
    return bound, imported


SOURCES = [(path.name, ast.parse(path.read_text(), str(path)))
           for path in sorted(BENCH.glob("*.py"))]


def _references() -> list[tuple[str, str]]:
    """(file, dotted name) of every package name a bench file uses."""
    refs = []
    for name, tree in SOURCES:
        bound, imported = _imports(tree)
        refs.extend((name, target) for target in imported)
        for node in ast.walk(tree):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in bound:
                refs.append((name, ".".join([bound[chain[0]], *chain[1:]])))
    return sorted(set(refs))


def _calls() -> list[tuple[str, str, int, tuple[str, ...]]]:
    """(file, dotted callee, positional count, keyword names) of every
    call of a package name in a bench file; ``x.call(label, fn, ...)``
    counts as a call of fn, as ``Tracer.call`` makes it.  Calls with * or
    ** splats are left out: their arguments are known only at run time."""
    calls = []
    for name, tree in SOURCES:
        bound, _ = _imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute) and func.attr == "call" and \
                    len(args) >= 2:
                func, args = args[1], args[2:]
            chain = _dotted(func)
            if not chain or chain[0] not in bound:
                continue
            if any(isinstance(a, ast.Starred) for a in args) or \
                    any(k.arg is None for k in node.keywords):
                continue
            calls.append((name, ".".join([bound[chain[0]], *chain[1:]]),
                          len(args), tuple(k.arg for k in node.keywords)))
    return sorted(set(calls))


def _resolve(dotted: str) -> object:
    parts = dotted.split(".")
    obj: object = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 1):
        if not hasattr(obj, part) and isinstance(obj, types.ModuleType):
            importlib.import_module(".".join(parts[:i + 1]))
        obj = getattr(obj, part)
    return obj


REFERENCES = _references()
CALLS = _calls()


def test_the_harness_is_parsed():
    files = {f for f, _ in REFERENCES}
    assert {"run.py", "tracing.py", "workload.py"} <= files


@pytest.mark.parametrize("where, dotted", REFERENCES,
                         ids=[f"{f}:{d}" for f, d in REFERENCES])
def test_bench_name_exists(where, dotted):
    _resolve(dotted)


def test_the_harness_calls_are_found():
    callees = {callee for _, callee, _, _ in CALLS}
    assert {"pg_curvelab.curves.CurveJet",
            "pg_curvelab.curves.make_sampled_curve"} <= callees


@pytest.mark.parametrize("where, callee, npos, keywords", CALLS,
                         ids=[f"{w}:{c}/{n}" + "".join(f",{k}" for k in kw)
                              for w, c, n, kw in CALLS])
def test_bench_call_binds(where, callee, npos, keywords):
    fn = _resolve(callee)
    if not callable(fn):
        pytest.fail(f"{where}: {callee} is not callable")
    inspect.signature(fn).bind(*[None] * npos, **dict.fromkeys(keywords))
