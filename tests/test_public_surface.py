"""No orphan public surface in src/jumpspec, no unused imports.

A public top-level function or class must be used elsewhere in the
package (or exported in an `__all__`), be driven by the benchmark in
perfbench/, or be one of the paper's closed forms listed below, each of
which a test pins.  Anything else is code that nothing runs.  A use must
name the defining module, so that a local variable or a JSON key of the
same name does not count: a read of the name in that module, a read of
the name imported from it, `module.name`, or in perfbench a
("jumpspec.module", "name", ...) target.  A public method of a public
class must be read as an attribute (`x.name`) somewhere in the package or
perfbench, or be named `Class.name` in perfbench: no owner is inferred,
so any read of the attribute name counts.

A top-level import in src/jumpspec or tests/ must bind a name its module
reads, so that the import lists say what each module uses.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jumpspec"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"

# closed forms and checks of the paper that the package itself never calls
# (none at present: such code lives in tests/reference_oracles.py)
PAPER_FORMS: dict[str, str] = {}

# eigensystem never calls inner_closed, but perfbench/test_perfbench.py
# asserts that the benchmark's tracer rebinds that name in eigensystem
UNUSED_IMPORTS_KEPT = {"jumpspec/eigensystem.py:inner_closed"}

# second routes that left the package for tests/reference_oracles.py (the
# resolvent's panel sweep, the metric's Neumann-mode scan, the pair kernel
# with its own sin and cos per pair, a function's own piece lookup, the
# Nystrom probe of the resolvent kernel, the one-function merge that + and -
# of PiecewiseTrig once went through, the panel quadrature of inner products
# that the projection norms once took, the basis at the cos of the rounded
# phase that Stack.values once took, and the two norms, one from each
# member's own rows and one from a Gram of all members' keys, that
# funcspace.norms replaced, and the family arithmetic in Fraction objects,
# its angles, wavenumbers and turns, that the integer coefficients of
# param.FAMILIES replaced): a definition of one of them in src/jumpspec
# again would be a second route there
MOVED_TO_ORACLES = {"particular_solution", "injectivity_probe", "neumann_mode",
                    "_wave_integrals", "_pair_integrals", "eval_terms", "terms_on",
                    "kernel_matrix", "nystrom_nodes", "complex_probe_singular_values",
                    "lincomb", "quad_inner", "_quad_rounds", "QuadratureNotConverged",
                    "quad_gram", "rounded_basis", "norms_local", "norms_l2",
                    "trig_pi_fraction", "family_k_fraction", "turns_fraction",
                    "sine_matrix_dense"}


def _exported(tree: ast.Module) -> set[str]:
    return {elt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for elt in stmt.value.elts}


def _qualified_uses(tree: ast.Module, stems: set[str]) -> set[tuple[str, str]]:
    """(module, name) for each read in tree of a name imported from one of
    the package modules `stems`, and for each `module.name`."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            package, _, last = node.module.rpartition(".")
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module == "jumpspec" and alias.name in stems:
                    modules[local] = alias.name
                elif last in stems and package in ("", "jumpspec"):
                    names[local] = (last, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, last = alias.name.rpartition(".")
                if alias.asname and package == "jumpspec" and last in stems:
                    modules[alias.asname] = last
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
            uses.add(names[node.id])
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in modules:
                uses.add((modules[owner.id], node.attr))
            elif (isinstance(owner, ast.Attribute) and owner.attr in stems
                  and isinstance(owner.value, ast.Name) and owner.value.id == "jumpspec"):
                uses.add((owner.attr, node.attr))
    return uses


def _read_in(tree: ast.Module, name: str, skip: ast.stmt) -> bool:
    """Whether a statement of tree other than `skip` and the imports reads name."""
    return any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
               and node.id == name
               for stmt in tree.body
               if stmt is not skip and not isinstance(stmt, (ast.Import, ast.ImportFrom))
               for node in ast.walk(stmt))


def attributes_in(node: ast.AST, name: str) -> int:
    """How many times node reads `x.name` for any x."""
    return sum(isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
               and sub.attr == name for sub in ast.walk(node))


def orphans(package: Path, perfbench: Path) -> list[str]:
    """'module.py:name' for every public top-level function or class that
    no `__all__` exports, PAPER_FORMS lacks, and neither the package nor
    perfbench uses in a form that names its module; then
    'module.py:Class.name' for every public method of a public class whose
    name neither reads as an attribute outside the method's own body nor
    appears as `Class.name` in perfbench."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    bench_paths = sorted(perfbench.glob("*.py"))
    bench = "\n".join(path.read_text() for path in bench_paths)
    every = [*trees.values(), *(ast.parse(path.read_text()) for path in bench_paths)]
    used = set().union(*(_qualified_uses(tree, set(trees)) for tree in every))
    attributes = Counter(node.attr for tree in every for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    exported = set().union(*map(_exported, trees.values()))
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if (not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_")
                    or stmt.name in exported or stmt.name in PAPER_FORMS
                    or _read_in(tree, stmt.name, stmt) or (module, stmt.name) in used):
                continue
            if not (re.search(rf"\b{module}\.{stmt.name}\b", bench) or re.search(
                    rf"[\"']jumpspec\.{module}[\"'],\s*[\"']{stmt.name}\b", bench)):
                found.append(f"{module}.py:{stmt.name}")
    for module, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                found += [f"{module}.py:{cls.name}.{method.name}" for method in cls.body
                          if isinstance(method, ast.FunctionDef)
                          and not method.name.startswith("_")
                          and attributes[method.name] == attributes_in(method, method.name)
                          and not re.search(rf"\b{cls.name}\.{method.name}\b", bench)]
    return found


def unused_imports(path: Path) -> list[str]:
    """'dir/module.py:name' for every name that a top-level import of the
    module binds and that the module neither reads nor lists in `__all__`."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= _exported(tree)
    found = []
    for stmt in tree.body:
        if (isinstance(stmt, ast.Import)
                or (isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__")):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append(f"{path.parent.name}/{path.name}:{name}")
    return found


def test_every_public_name_is_used_benchmarked_or_a_paper_form():
    assert orphans(PACKAGE, PERFBENCH) == []


def _top_level_names(path: Path) -> set[str]:
    return {stmt.name for stmt in ast.parse(path.read_text()).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}


def test_moved_oracles_live_only_in_the_tests():
    package = set().union(*map(_top_level_names, PACKAGE.glob("*.py")))
    assert not package & MOVED_TO_ORACLES
    assert MOVED_TO_ORACLES <= _top_level_names(TESTS / "reference_oracles.py")


def test_every_paper_form_is_defined_and_tested():
    defined = set().union(*map(_top_level_names, PACKAGE.glob("*.py")))
    tests = "\n".join(path.read_text() for path in Path(__file__).parent.glob("test_*.py")
                      if path.name != Path(__file__).name)
    for name in PAPER_FORMS:
        assert name in defined, name
        assert re.search(rf"\b{name}\b", tests), f"no test references {name}"


def trig_pi_callers(package: Path) -> list[str]:
    """Modules other than param that name trig_pi: the eigenvalue families'
    angles are written once, in param.family_angle."""
    return [path.name for path in sorted(package.glob("*.py")) if path.stem != "param"
            and any((isinstance(node, ast.Name) and node.id == "trig_pi")
                    or (isinstance(node, ast.Attribute) and node.attr == "trig_pi")
                    or (isinstance(node, ast.alias) and node.name == "trig_pi")
                    for node in ast.walk(ast.parse(path.read_text())))]


def test_only_param_reduces_angles():
    assert trig_pi_callers(PACKAGE) == []


def test_a_trig_pi_call_outside_param_is_flagged(tmp_path):
    (tmp_path / "param.py").write_text("def trig_pi(turns, a):\n    return turns(a)\n")
    (tmp_path / "direct.py").write_text("from jumpspec.param import trig_pi as t\n")
    (tmp_path / "qualified.py").write_text(
        "from jumpspec import param\n\n\ndef f(a):\n    return param.trig_pi(abs, a)\n")
    (tmp_path / "clean.py").write_text("from jumpspec.param import family_angle\n")
    assert trig_pi_callers(tmp_path) == ["direct.py", "qualified.py"]


# the simulator runs its batches in one loop on the calling thread: its
# per-step numpy calls on small arrays hold the GIL, so threads would add
# scheduling cost and no speed
CONCURRENCY_MODULES = {"concurrent", "threading", "multiprocessing"}


def concurrency_importers(package: Path) -> list[str]:
    """Modules that import concurrent.futures, threading or multiprocessing
    (or anything under them)."""
    def imported(node) -> list[str]:
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return [node.module]
        return []

    return [path.name for path in sorted(package.glob("*.py"))
            if any(name.split(".")[0] in CONCURRENCY_MODULES
                   for node in ast.walk(ast.parse(path.read_text())) for name in imported(node))]


def test_the_package_starts_no_threads_or_processes():
    assert concurrency_importers(PACKAGE) == []


def test_a_concurrency_import_is_flagged(tmp_path):
    (tmp_path / "pool.py").write_text("from concurrent.futures import ThreadPoolExecutor\n")
    (tmp_path / "lock.py").write_text("def f():\n    import threading\n    return threading\n")
    (tmp_path / "procs.py").write_text("import multiprocessing.pool as mp\n")
    (tmp_path / "clean.py").write_text("import math\nfrom jumpspec import simulator\n")
    assert concurrency_importers(tmp_path) == ["lock.py", "pool.py", "procs.py"]


def test_an_unused_function_is_flagged(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return orphan() + used()\n\n\n"
        "def imported():\n    pass\n\n\n"
        "def qualified():\n    pass\n\n\n"
        "class Benchmarked:\n    pass\n\n\n"
        "class Targeted:\n    pass\n\n\n"
        "def _private():\n    pass\n")
    (package / "other.py").write_text(
        "from mod import imported, orphan\nfrom jumpspec import mod\n\n\n"
        "def _f():\n    return imported(), mod.qualified()\n")
    # a local variable and a JSON key that share the orphan's name are no use
    (package / "third.py").write_text("def _g():\n    orphan = 2\n    return orphan\n")
    (bench / "run.py").write_text(
        "TARGETS = ['mod.Benchmarked', ('jumpspec.mod', 'Targeted.method', 'span', None)]\n\n\n"
        "def check(report):\n    orphan = report['orphan']\n    return orphan\n")
    assert orphans(package, bench) == ["mod.py:orphan"]


def test_an_unused_method_is_flagged(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(
        "class Shape:\n"
        "    def area(self):\n        return self.scale()\n\n"
        "    def scale(self):\n        return 1\n\n"
        "    @property\n    def width(self):\n        return 1\n\n"
        "    @classmethod\n    def unit(cls):\n        return cls()\n\n"
        "    def timed(self):\n        pass\n\n"
        "    def traced(self):\n        pass\n\n"
        "    def orphan(self):\n        return self.orphan\n\n"
        "    def _private(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n\n\n"
        "class _Hidden:\n    def never(self):\n        pass\n")
    # a store, a local name and a string other than Class.method are no use
    (package / "other.py").write_text(
        "from mod import Shape\n\n\n"
        "def _f(shape):\n    shape.orphan = 2\n    orphan = 'orphan'\n"
        "    return Shape.unit().area(), shape.width, orphan\n")
    (bench / "run.py").write_text(
        "TARGETS = [('jumpspec.mod', 'Shape.traced', 'span', None), 'orphan']\n\n\n"
        "def check(shape):\n    return shape.timed()\n")
    assert orphans(package, bench) == ["mod.py:Shape.orphan"]


def test_no_unused_top_level_imports():
    found = [entry for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
             for entry in unused_imports(path)]
    assert sorted(set(found) - UNUSED_IMPORTS_KEPT) == []
    # an allowlisted import that came into use would leave a stale entry
    assert UNUSED_IMPORTS_KEPT <= set(found)


def test_an_unused_import_is_flagged(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n\n"
        "import os.path\nimport sys as system\n"
        "from math import pi, tau\nfrom json import dumps\n\n"
        "__all__ = ['dumps']\n\n\n"
        "def f():\n    return os.path.sep, pi\n")
    assert unused_imports(module) == [f"{tmp_path.name}/mod.py:system",
                                      f"{tmp_path.name}/mod.py:tau"]


def names_assigned_twice(package: Path) -> list[str]:
    """Top-level names that two or more package modules assign: a constant
    is defined once and imported where else it is used."""
    modules: dict[str, set[str]] = {}
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
                       else [])
            for node in (sub for target in targets for sub in ast.walk(target)):
                if isinstance(node, ast.Name):
                    modules.setdefault(node.id, set()).add(path.name)
    return sorted(name for name, where in modules.items() if len(where) > 1)


def test_no_top_level_name_is_assigned_in_two_modules():
    assert names_assigned_twice(PACKAGE) == []


def test_a_name_assigned_in_two_modules_is_flagged(tmp_path):
    (tmp_path / "one.py").write_text("import math\n\nHALF_PI = math.pi / 2\nA, B = 1, 2\n")
    (tmp_path / "two.py").write_text("import math\n\nHALF_PI = math.pi / 2\nB: int = 3\n")
    (tmp_path / "three.py").write_text("from one import HALF_PI\n\n\ndef f():\n    A = 1\n"
                                       "    return A * HALF_PI\n")
    assert names_assigned_twice(tmp_path) == ["B", "HALF_PI"]
