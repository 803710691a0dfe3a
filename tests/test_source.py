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


_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
                  "Counter", "deque", "WeakKeyDictionary", "WeakValueDictionary"}
_CACHE_DECORATORS = {"cache", "lru_cache"}


def _name(node):
    """The name an expression ends in: f for f, mod.f, f(...) and mod.f(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_mutable(value):
    """A list, dict or set display or comprehension, a call of a mutable
    container type, or a tuple holding one of these."""
    if isinstance(value, ast.Tuple):
        return any(_is_mutable(x) for x in value.elts)
    return isinstance(value, _MUTABLE_DISPLAYS) or (
        isinstance(value, ast.Call) and _name(value) in _MUTABLE_CALLS)


def _shared_state(tree, module):
    """Module-level mutable state: names bound at module or class level to
    a mutable value, names a function rebinds through ``global``, and
    functions wrapped in a caching decorator, as "module.name"."""
    found = set()

    def scan(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if any(_name(d) in _CACHE_DECORATORS for d in node.decorator_list):
                    found.add(prefix + node.name)
                if isinstance(node, ast.ClassDef):
                    scan(node.body, prefix + node.name + ".")
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                    and _is_mutable(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update(prefix + t.id for t in targets if isinstance(t, ast.Name))
            for field in ("body", "orelse", "finalbody", "handlers"):
                scan(getattr(node, field, ()), prefix)

    scan(tree.body, module + ".")
    found.update(module + "." + name for node in ast.walk(tree)
                 if isinstance(node, ast.Global) for name in node.names)
    return sorted(found)


# Allowed: the Enriques Hilbert-series cache and the CLI's cached parser,
# which the README's thread-safety note covers, and a read-only table.
SHARED_STATE = ["cli._parser", "lattice._CHI_O", "reductions._enriques_hilb_cache"]


def test_no_new_module_level_state():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _shared_state(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == SHARED_STATE


def test_the_check_sees_module_level_state():
    tree = ast.parse(
        "import functools\nfrom collections import deque\n"
        "A = []\nB = {'x': 1}\nC = (1, {2})\nD = dict()\nE = deque()\n"
        "T = (1, 2)\nF = frozenset({1})\nG = tuple([1])\n"
        "if T:\n    H = [x for x in T]\n"
        "class K:\n    table = {}\n    names = ()\n"
        "    def f(self):\n        local = []\n        return local\n"
        "@functools.lru_cache(maxsize=None)\ndef g():\n    return []\n"
        "def h():\n    global P\n    P = 1\n")
    assert _shared_state(tree, "m") == ["m.A", "m.B", "m.C", "m.D", "m.E", "m.H",
                                        "m.K.table", "m.P", "m.g"]
