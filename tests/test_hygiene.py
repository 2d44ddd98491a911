"""Import hygiene: no module, test or tool imports a name it never reads.

An AST scan stands in for a linter.  A name counts as read when the module
loads it anywhere (``np`` in ``np.sum`` counts) or lists it in ``__all__``.
An import line that carries ``# noqa: F401`` is exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = sorted(path for part in ("src/eulerlab", "tests", "tools")
                 for path in (ROOT / part).rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unread_import_and_honours_the_exemptions():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import math\n"
              "from json import dumps as d, loads\n"
              "from sys import argv  # noqa: F401\n"
              "__all__ = ['loads']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == [(3, "math"), (4, "d")]
