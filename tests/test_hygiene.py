"""Source hygiene: every name a library module or a test file imports is
used in it, and every module-level private helper is referenced somewhere in
the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "properconn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads as an
    identifier (``from __future__`` imports aside)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_the_scan_sees_an_unused_import():
    assert MODULES, f"no modules found under {SRC}"
    assert Path(__file__).resolve() in TEST_FILES
    assert unused_imports("import os\nfrom typing import Optional\nos.sep\n") == [
        "Optional (line 2)"
    ]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b\n") == []


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


PACKAGE = sorted(SRC.glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (one leading underscore)
    that no code in ``sources`` names outside their own body: as an
    identifier, an attribute or an imported name."""
    defined: list[tuple[str, str, int]] = []
    used: set[str] = set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, DEFS) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined.append((module, own, top.lineno))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.asname or node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    return [f"{module}: {name} (line {line})" for module, name, line in defined if name not in used]


def test_the_scan_sees_an_unreferenced_private_def():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): return _dead()\nclass _Left: pass\n",
        "b.py": "from .a import _used\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py: _dead (line 2)", "a.py: _Left (line 3)"]


def test_no_unreferenced_private_defs():
    assert unreferenced_private_defs({p.name: p.read_text() for p in PACKAGE}) == []
