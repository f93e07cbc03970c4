"""Static checks on the package source: every module-level import is used,
every module-level private name is read somewhere in the package, and the
package exports exactly what its `__init__` binds; importing the package
loads no process-pool machinery."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

import hfree

SRC = Path(__file__).resolve().parent.parent / "src" / "hfree"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced_names(node: ast.AST) -> set[str]:
    """Every name a piece of source reads, as a variable, an attribute or an
    import."""
    found: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name` definitions (functions, classes, assignments)
    that no statement of any of the given modules references, other than
    the one defining it."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = [(stmt, _referenced_names(stmt)) for t in trees.values() for stmt in t.body]
    dead = []
    for module, tree in trees.items():
        for stmt in tree.body:
            for name in _defined_names(stmt):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(name in seen for other, seen in reads if other is not stmt):
                    dead.append(f"{module} line {stmt.lineno}: {name}")
    return dead


def test_checker_flags_an_unused_import():
    source = "import os\nfrom x import a, b as c\nfrom __future__ import annotations\nprint(a)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: c"]


def test_checker_flags_an_unused_private_name():
    sources = {
        "a.py": (
            "def _used():\n    pass\n"
            "def _dead(x):\n    return _dead(x)\n"
            "_TABLE: dict = {}\n"
            "_X = 1\n"
            "class _C:\n    pass\n"
            "__all__ = []\n"
            "def public():\n    return _TABLE\n"
        ),
        "b.py": "from .a import _used\nimport a\nprint(_used(), a._C)\n",
    }
    assert unused_private_names(sources) == ["a.py line 3: _dead", "a.py line 6: _X"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_no_unused_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_package_exports_match_the_init_bindings():
    # every name bound at the top of __init__.py, by an import or an
    # assignment, is exported once, and every export resolves
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        else:
            bound.update(_defined_names(node))
    bound.discard("__all__")
    assert len(hfree.__all__) == len(set(hfree.__all__))
    assert set(hfree.__all__) == bound
    for name in hfree.__all__:
        assert hasattr(hfree, name), name


def test_importing_the_package_starts_no_pool_machinery():
    # verify imports its process pool only where a campaign starts one
    code = "import sys, hfree; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
