"""No module imports a name it never uses.

An AST scan over the repo's Python sources: every name an ``import``
binds must be read somewhere in the module (as a name, the root of an
attribute chain, or an entry of ``__all__``). Package ``__init__``
modules re-export what they import and are skipped, as is
``from __future__ import ...``.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "jobs", "benchmarks")


def _sources() -> list:
    return sorted(
        p for d in SCANNED for p in (ROOT / d).rglob("*.py")
        if p.name != "__init__.py"
    )


def unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in ast.walk(tree):  # names listed in __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in getattr(node.value, "elts", [])
                if isinstance(e, ast.Constant)
            }
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_scanner_flags_only_unread_names():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import a.b\n"
        "from x import y as z, w\n"
        "__all__ = ['w']\n"
        "print(sys.argv, a.b.c)\n"
    )
    assert unused_imports(src) == ["os (line 2)", "z (line 4)"]


def test_no_unused_imports():
    found = {
        str(p.relative_to(ROOT)): unused_imports(p.read_text())
        for p in _sources()
    }
    assert {k: v for k, v in found.items() if v} == {}
