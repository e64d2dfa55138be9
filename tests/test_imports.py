"""No module of the package keeps a module-level import it never reads.

This is the check a linter's F401 makes, done on the AST, since the tests
must run without one.  ``__init__.py`` is exempt: its imports are the
package's re-exports.  So is an import on a line marked ``# noqa: F401``:
a name that perfbench's ``--trace 1`` patches in the importing module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tokenslide"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> tuple[list[str], list[str]]:
    """(names bound by module-level imports and never read, names bound on
    lines marked ``# noqa: F401``), each in file order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: list[tuple[str, bool]] = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                marked = "# noqa: F401" in lines[alias.lineno - 1]
                bound.append(((alias.asname or alias.name).partition(".")[0], marked))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name, marked in bound if not marked and name not in read]
    return unused, [name for name, marked in bound if marked]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    unused, _ = _unused_imports(path.read_text(encoding="utf-8"))
    assert unused == []


def test_only_the_trace_patch_points_are_exempt():
    exempt = {
        (path.stem, name) for path in MODULES for name in _unused_imports(path.read_text(encoding="utf-8"))[1]
    }
    assert exempt == {
        ("interval_reconfig", "distances_from"),
        ("matching", "distances_from"),
        ("tree_reconfig", "closed_neighborhood_system"),
    }


def test_the_gate_names_what_a_deletion_leaves_behind():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from collections import deque as dq, Counter\n"
        "from .graphs import (\n"
        "    Graph,\n"
        "    distances_from,  # noqa: F401\n"
        ")\n"
        "from .graphs import UNREACHABLE\n"
        "def f(g: Graph) -> Counter:\n"
        "    import sys\n"
        "    return dq()\n"
    )
    assert _unused_imports(source) == (["os", "UNREACHABLE"], ["distances_from"])
