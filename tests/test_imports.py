"""Every name a module of src/rfpp imports is used in the scope that
imports it (no linter is assumed to be installed, so this is the check)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rfpp"


def _unused_imports(source):
    """Names bound by import statements that no Name node of the importing
    scope (the module, or the function holding a local import) reads."""
    tree = ast.parse(source)
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        body = scope.body
        imports = [n for stmt in body for n in ast.walk(stmt)
                   if isinstance(n, (ast.Import, ast.ImportFrom))
                   and getattr(n, "module", None) != "__future__"]
        if scope is tree:
            # imports nested in a function belong to that function's scope
            local = {id(n) for s in scopes[1:] for stmt in s.body
                     for n in ast.walk(stmt)}
            imports = [n for n in imports if id(n) not in local]
        used = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(name)
    return unused


def test_no_unused_imports():
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_unused_import_scan_sees_local_scopes():
    source = (
        "import os\n"
        "from math import pi, tau\n"
        "def f():\n"
        "    from json import dumps, loads\n"
        "    return dumps(pi)\n"
        "def g():\n"
        "    return os.sep\n")
    assert sorted(_unused_imports(source)) == ["loads", "tau"]
