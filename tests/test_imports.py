"""Every name a library module imports is used in that module, every private
helper a module defines is read somewhere in the package, and the public surface
is one literal ``qobf.__all__`` that the README lists and that names no module."""
import ast
import re
import types
from pathlib import Path

import pytest

import qobf

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qobf"
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


def read_names(trees) -> set[str]:
    """Names loaded as a name or an attribute anywhere in ``trees``; an import
    or a definition is not a read."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no source reads.

    ``sources`` maps file name to text. A name counts as read where it is loaded
    as a name or an attribute in any of the files; its own definition does not.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = read_names(trees.values())
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


def exported_names(init_source: str) -> tuple[list[str], list[str]]:
    """``__all__`` of a package ``__init__`` and the names it imports.

    ``__all__`` must be written out as a list of string literals; anything
    computed (``dir()``, a comprehension) raises ``ValueError``.
    """
    tree = ast.parse(init_source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported += [alias.asname or alias.name for alias in node.names]
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if not isinstance(node.value, ast.List) or not all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.value.elts
            ):
                raise ValueError("__all__ is not a literal list of strings")
            return [e.value for e in node.value.elts], imported
    raise ValueError("no __all__")


def unread_public_names(sources: dict[str, str], exported) -> list[str]:
    """Module-level public functions and classes that no source reads and that
    ``exported`` does not name: surface with no caller."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = read_names(trees.values())
    return [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
        and node.name not in exported
    ]


def readme_api_names(readme: str) -> list[str]:
    """Backticked names of the README's "Public API" section."""
    section = re.search(r"^## Public API\n(.*?)(?=^## |\Z)", readme, re.M | re.S)
    if section is None:
        return []
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section.group(1))


def modules_among(names, namespace) -> list[str]:
    return [n for n in names if isinstance(getattr(namespace, n), types.ModuleType)]


def test_all_is_the_literal_list_of_imports():
    names, imported = exported_names((PACKAGE / "__init__.py").read_text())
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(imported)
    assert qobf.__all__ == names


def test_every_public_definition_is_read_or_exported():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_public_names(sources, qobf.__all__) == []


def test_readme_lists_the_public_api():
    assert sorted(readme_api_names((ROOT / "README.md").read_text())) == sorted(qobf.__all__)


def test_all_names_no_module():
    assert modules_among(qobf.__all__, qobf) == []


def test_detects_a_computed_or_missing_all():
    names, imported = exported_names(
        "from .a import f, G as H\nimport os\n__all__ = ['f', 'H']\n"
    )
    assert (names, imported) == (["f", "H"], ["f", "H", "os"])
    for source in ("__all__ = [n for n in dir()]\n", "__all__ = ['f'] + []\n", "x = 1\n"):
        with pytest.raises(ValueError):
            exported_names(source)


def test_detects_an_unread_public_definition():
    sources = {
        "a.py": "def used():\n    pass\n\n\ndef exported():\n    pass\n\n\n"
                "def caller_less():\n    pass\n\n\nclass Gone:\n    pass\n\n\n"
                "class _Private:\n    pass\n\n\nCONSTANT = 1\n",
        "b.py": "from .a import Gone, used\nused()\n",
    }
    assert unread_public_names(sources, ["exported"]) == ["a.py: caller_less", "a.py: Gone"]


def test_detects_readme_api_drift():
    readme = "# x\n`other`\n## Public API\n- **a**: `f`, `G`\n\n## Next\n`h`\n"
    assert readme_api_names(readme) == ["f", "G"]
    assert readme_api_names("# x\n`f`\n") == []


def test_detects_a_module_in_all():
    namespace = types.SimpleNamespace(types=types, f=len)
    assert modules_among(["f", "types"], namespace) == ["types"]
