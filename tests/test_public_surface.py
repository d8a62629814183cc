"""No orphan public surface in src/jumpspec, no unused imports.

A public top-level function or class must be used elsewhere in the
package (or exported in an `__all__`), be driven by the benchmark in
perfbench/, or be one of the paper's closed forms listed below, each of
which a test pins.  Anything else is code that nothing runs.  A use must
name the defining module, so that a local variable or a JSON key of the
same name does not count: a read of the name in that module, a read of
the name imported from it, `module.name`, or in perfbench a
("jumpspec.module", "name", ...) target.

A top-level import in src/jumpspec or tests/ must bind a name its module
reads, so that the import lists say what each module uses.
"""

import ast
import re
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
# with its own sin and cos per pair): a definition of one of them in
# src/jumpspec again would be a second route there
MOVED_TO_ORACLES = {"particular_solution", "injectivity_probe", "neumann_mode",
                    "_wave_integrals", "_pair_integrals"}


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


def orphans(package: Path, perfbench: Path) -> list[str]:
    """'module.py:name' for every public top-level function or class that
    no `__all__` exports, PAPER_FORMS lacks, and neither the package nor
    perfbench uses in a form that names its module."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    bench_paths = sorted(perfbench.glob("*.py"))
    bench = "\n".join(path.read_text() for path in bench_paths)
    used = set().union(*(_qualified_uses(tree, set(trees)) for tree in [
        *trees.values(), *(ast.parse(path.read_text()) for path in bench_paths)]))
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
