"""Every name a pointdyn module imports is used in that module.

A dead import hides which layer a module really depends on, and it
outlives the code that needed it. The package __init__ is exempt: its
imports are the re-exported public API.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pointdyn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by the module-level imports of source that no
    other node of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_dead_and_live_imports():
    source = ("import os\nfrom math import lcm, gcd as g\nfrom . import sysfile\n"
              "print(g(4, 6), sysfile.load_file)\n")
    assert unused_imports(source) == ["lcm", "os"]
