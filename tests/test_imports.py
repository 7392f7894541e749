"""Every name a module of src/rfpp imports is used in the scope that
imports it, every function, class and method it defines is reached from a
run, and every dataclass field it defines is read somewhere (no linter is
assumed to be installed, so these are the checks).  Start-up stays lean:
SciPy subpackages other than sparse load only where they are used, and
lattice runs other than FPP load no SciPy at all."""

import ast
import os
import subprocess
import sys
import textwrap
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


# Definitions no run reaches that tests compare against, each kept in src
# because it is a reference implementation, not a helper of one test.
TEST_ORACLES = (
    "fields.ConstantMetric",        # closed-form constant metric: flat-case oracle
    "fields.HyperbolicDiskField",   # constant curvature -1: Jacobi and curvature oracle
    "geometry.curvature_at",        # one-point Gauss curvature: checked against closed forms
    "geometry.riemann_tensor",      # R from metric derivatives: oracle of the stage-form Jacobi reference
    "distance.PassageGraph.edge_weight",  # one edge on demand: oracle for the matrix
)


def _reads(tree, names=True):
    """Identifiers a syntax tree reads: Name loads (unless ``names`` is
    false), attribute names and string constants holding the identifier (the
    benchmark's span table names functions and methods by string); an import
    is not a read."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            if names:
                out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(modules):
    """Every function, class, method and module-level assignment of the
    modules (name -> source), as {qualified name: (name, identifiers its
    code reads)}, and the identifiers the remaining module-level code reads.

    A function's code includes its nested functions.  A class's code is its
    bases, decorators and body without its methods: each method other than
    a dunder is a definition of its own, so reaching a class does not reach
    its methods, while dunders run whenever the class is used."""
    defs, top = {}, set()
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            defs[f"{module}.{n.id}"] = (n.id, _reads(stmt))
                continue
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                top |= _reads(stmt)
                continue
            qual = f"{module}.{stmt.name}"
            if isinstance(stmt, ast.FunctionDef):
                defs[qual] = (stmt.name, _reads(stmt))
                continue
            reads = set()
            for node in stmt.bases + stmt.decorator_list + stmt.body:
                if isinstance(node, ast.FunctionDef) and not _is_dunder(node.name):
                    defs[f"{qual}.{node.name}"] = (node.name, _reads(node))
                else:
                    reads |= _reads(node)
            defs[qual] = (stmt.name, reads)
    return defs, top


def _unreached(modules, roots, exempt=()):
    """Qualified names of the definitions (see _definitions) that no chain
    of reads from the roots and the module-level code reaches.  Names are
    matched by identifier alone, so a read of ``run`` reaches every
    definition called run."""
    defs, top = _definitions(modules)
    by_name = {}
    for qual, (name, _) in defs.items():
        by_name.setdefault(name, []).append(qual)
    reached, seen, todo = set(), set(), list(set(roots) | top)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for qual in by_name.get(name, ()):
                reached.add(qual)
                todo.extend(defs[qual][1])
    return sorted(set(defs) - reached - set(exempt))


def _unread_fields(modules, reading):
    """Fields of the dataclasses the modules (name -> source) define that no
    ``reading`` source loads as an attribute."""
    loaded = {n.attr for source in reading for n in ast.walk(ast.parse(source))
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for module, source in modules.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and "dataclass" in set().union(
                    *map(_reads, cls.decorator_list)):
                unread += [f"{module}.{cls.name}.{stmt.target.id}"
                           for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign)
                           and stmt.target.id not in loaded]
    return sorted(unread)


def _src_modules():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _bench_roots(sources):
    """The identifiers the benchmark reaches rfpp through: its attribute
    names and string constants.  Its own local names are not roots, since it
    calls rfpp only through module attributes and its WRAPPED strings."""
    return set().union(*(_reads(ast.parse(source), names=False)
                         for source in sources))


def test_no_unreferenced_definitions():
    """Every src definition (module-level assignments included) is reached
    from the command line's ``main`` or from a name the benchmark reaches
    rfpp through, test oracles aside."""
    bench = _bench_roots(path.read_text()
                         for path in sorted((ROOT / "perfbench").glob("*.py")))
    assert _unreached(_src_modules(), {"main"} | bench, TEST_ORACLES) == []


def test_every_dataclass_field_is_read():
    reading = [path.read_text() for folder in ("src", "tests", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert _unread_fields(_src_modules(), reading) == []


def test_unreferenced_definition_scan_sees_names_attributes_and_strings():
    defining = {"m": (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n"
        "    kept: int\n"
        "    unread: int\n"
        "    def used(self): return by_name()\n"
        "    def spare(self): pass\n"
        "    def __repr__(self): return helper()\n"
        "def helper(): pass\n"
        "def by_name(): pass\n"
        "def by_string(): pass\n"
        "def imported(): pass\n"
        "def only_tested(): pass\n"
        "TABLE = ('by_string',)\n"
        "def main():\n"
        "    return A(1, 2).used(), TABLE\n")}
    test = "from m import imported, only_tested\nonly_tested()\n"
    assert _unreached(defining, {"main"}) == [
        "m.A.spare", "m.imported", "m.only_tested"]
    assert _unreached(defining, {"main"}, ("m.A.spare", "m.imported",
                                           "m.only_tested")) == []
    # a benchmark local named like a method does not reach it; its
    # attribute reads and strings do
    bench = "spare = 1\nprint(spare, m.imported, 'only_tested')\n"
    assert _unreached(defining, {"main"} | _bench_roots([bench])) == [
        "m.A.spare"]
    reading = [defining["m"], test, "print(A(1, 2).kept)\n"]
    assert _unread_fields(defining, reading) == ["m.A.unread"]


# SciPy subpackages no rfpp call should pay to import before it needs them
LAZY_SCIPY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
              "scipy.special")

# SciPy subpackages an rfpp module may import at module level: the passage
# graphs run on csgraph, whose import loads none of the lazy ones
MODULE_LEVEL_SCIPY = {"scipy.sparse", "scipy.sparse.csgraph"}


def _module_level_scipy(source):
    """Modules of scipy imported by the module-level statements of source."""
    names = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Import):
            names |= {alias.name for alias in stmt.names}
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            names.add(stmt.module)
    return {name for name in names
            if name == "scipy" or name.startswith("scipy.")}


def test_module_level_scipy_imports_are_sparse_only():
    found = {path.name: sorted(_module_level_scipy(path.read_text())
                               - MODULE_LEVEL_SCIPY)
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_module_level_scipy_scan_ignores_local_imports():
    source = ("import scipy.sparse\n"
              "from scipy.integrate import simpson\n"
              "def f():\n"
              "    from scipy.optimize import brentq\n")
    assert _module_level_scipy(source) == {"scipy.sparse", "scipy.integrate"}


def test_startup_leaves_lazy_scipy_unloaded():
    """Importing the command line and every benchmark workload's modules, in
    a fresh interpreter, loads none of the lazily imported subpackages."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT))
    modules = sorted({"rfpp.cli"}.union(
        *(w.modules for w in WORKLOADS.values())))
    code = ("import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module(name)\n"
            f"print(sorted(set({LAZY_SCIPY!r}) & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.stdout.strip() == "[]"


def test_lattice_imports_no_scipy_at_module_level():
    # FPP imports csr_matrix and dijkstra where it assembles and searches;
    # LPP, the polymer and the weight laws run on numpy alone
    assert _module_level_scipy((SRC / "lattice.py").read_text()) == set()


def test_lpp_and_polymer_runs_load_no_scipy(tmp_path):
    """Whole lpp and polymer runs through the harness, in a fresh
    interpreter, leave no scipy module in sys.modules."""
    code = textwrap.dedent(f"""
        import sys
        from rfpp import harness
        for experiment, n in (("lpp", 12), ("polymer", 9)):
            harness.run(harness.ExperimentConfig(
                experiment, {{"n": n}}, replicas=2,
                out={str(tmp_path)!r} + "/" + experiment))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "lpp" / "lpp.csv").exists()
    assert (tmp_path / "polymer" / "polymer.csv").exists()
