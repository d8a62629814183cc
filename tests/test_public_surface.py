"""No orphan public surface in src/jumpspec, no unused imports.

A public top-level function or class must be used elsewhere in the
package (or exported in an `__all__`), be driven by the benchmark in
perfbench/, or be one of the paper's closed forms listed below, each of
which a test pins.  Anything else is code that nothing runs.  A top-level
import in src/jumpspec or tests/ must bind a name its module reads, so
that the import lists say what each module uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jumpspec"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"

# closed forms and checks of the paper that the package itself never calls
PAPER_FORMS = {
    "char_det": "the characteristic determinant",
    "pairing_minus_exceptional": "(phi_j, psi_1) at an exceptional pair",
    "pairing_minus_generalised": "(phi_j, xi) at an exceptional pair",
    "pairing_eta_psi2": "(eta, psi_2) at an exceptional pair",
    "validate_domain_Hstar": "the domain conditions of the adjoint",
    "injectivity_probe": "injectivity of the metric at irrational a",
}

# eigensystem never calls inner_closed, but perfbench/test_perfbench.py
# asserts that the benchmark's tracer rebinds that name in eigensystem
UNUSED_IMPORTS_KEPT = {"jumpspec/eigensystem.py:inner_closed"}


def _names_in(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _exported(tree: ast.Module) -> set[str]:
    return {elt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
            for elt in stmt.value.elts}


def orphans(package: Path, perfbench: Path) -> list[str]:
    """'module.py:name' for every public top-level function or class that
    no other statement of the package uses (imports do not count), no
    `__all__` exports, perfbench does not name, and PAPER_FORMS lacks."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    bench = "\n".join(path.read_text() for path in sorted(perfbench.glob("*.py")))
    uses = [(stmt, _names_in(stmt)) for tree in trees.values() for stmt in tree.body
            if not isinstance(stmt, (ast.Import, ast.ImportFrom))]
    exported = set().union(*map(_exported, trees.values()))
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if (not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_")
                    or stmt.name in exported or stmt.name in PAPER_FORMS):
                continue
            if any(stmt.name in names for other, names in uses if other is not stmt):
                continue
            if not re.search(rf"\b{stmt.name}\b", bench):
                found.append(f"{module}:{stmt.name}")
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


def test_every_paper_form_is_defined_and_tested():
    defined = {stmt.name for path in PACKAGE.glob("*.py")
               for stmt in ast.parse(path.read_text()).body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
    tests = "\n".join(path.read_text() for path in Path(__file__).parent.glob("test_*.py")
                      if path.name != Path(__file__).name)
    for name in PAPER_FORMS:
        assert name in defined, name
        assert re.search(rf"\b{name}\b", tests), f"no test references {name}"


def test_an_unused_function_is_flagged(tmp_path):
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return orphan() + used()\n\n\n"
        "class Benchmarked:\n    pass\n\n\n"
        "def _private():\n    pass\n")
    (package / "other.py").write_text("from mod import orphan\n")
    (bench / "run.py").write_text("TARGETS = ['mod.Benchmarked']\n")
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
