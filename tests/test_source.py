"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mukailab"


def _unused_imports(tree):
    """Names bound by an import statement anywhere in the module that no
    expression in the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_every_imported_name_is_used(path):
    # __init__ imports to re-export, so it is left out
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from math import gcd, lcm\nimport os.path\n\nprint(gcd(4, 6))\n")
    assert _unused_imports(tree) == [(1, "lcm"), (2, "os")]
