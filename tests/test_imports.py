"""Every name a module of src/rfpp imports is used in the scope that
imports it, and every function, class and method it defines is read
somewhere (no linter is assumed to be installed, so these are the checks)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rfpp"


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


def _unreferenced(defining, reading):
    """Functions, classes and methods defined in the ``defining`` sources,
    dunders aside, that no ``reading`` source reads.  A read is a Name load,
    an attribute name or a string constant holding the identifier (the
    benchmark's span table names methods by string); an import is not."""
    defined = {n.name for source in defining for n in ast.walk(ast.parse(source))
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not (n.name.startswith("__") and n.name.endswith("__"))}
    read = set()
    for source in reading:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    return sorted(defined - read)


def test_no_unreferenced_definitions():
    defining = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    reading = [path.read_text() for folder in ("src", "tests", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert _unreferenced(defining, reading) == []


def test_unreferenced_definition_scan_sees_names_attributes_and_strings():
    defining = ("class A:\n"
                "    def used(self): pass\n"
                "    def spare(self): pass\n"
                "    def __repr__(self): pass\n"
                "def by_name(): pass\n"
                "def by_string(): pass\n"
                "def imported(): pass\n")
    reading = ("from m import imported\n"
               "A().used()\n"
               "by_name()\n"
               "TABLE = ('by_string',)\n")
    assert _unreferenced([defining], [reading]) == ["imported", "spare"]
