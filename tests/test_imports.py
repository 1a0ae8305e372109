"""Every name a library module imports is used in that module, and every private
helper a module defines is read somewhere in the package."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qobf"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
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
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nnp.eye(c)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: a"]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no source reads.

    ``sources`` maps file name to text. A name counts as read where it is loaded
    as a name or an attribute in any of the files; its own definition does not.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            orphans += [
                f"{name}: {d}" for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in read
            ]
    return orphans


def test_no_orphaned_private_helpers():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_private_names(sources) == []


def test_detects_an_orphaned_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _orphan():\n    pass\n\n\n"
                "_CONST = 1\n_LEFT: int = 2\nclass _Gone:\n    pass\n__all__ = []\n",
        "b.py": "from .a import _CONST, _used\nimport a\n_used(_CONST, a._LEFT)\n",
    }
    assert orphaned_private_names(sources) == ["a.py: _orphan", "a.py: _Gone"]
