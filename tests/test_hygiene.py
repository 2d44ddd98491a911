"""Hygiene: no module, test or tool imports a name it never reads, and only
the one 2D transport stage calls the transport.

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


def transport_callers(source: str) -> set[str]:
    """The top-level definitions of ``source`` (``<module>`` for its other
    statements) that call a ``transport_coeffs``, by name or attribute."""
    callers = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "transport_coeffs":
                    callers.add(getattr(top, "name", "<module>"))
    return callers


def test_only_the_transport_stage_calls_the_transport():
    """Every 2D stepper steps through ``operators._TransportStage``: a new
    velocity law goes on that stage, not into a stage of its own."""
    found = {f"{path.stem}.{name}" for path in sorted((ROOT / "src/eulerlab").glob("*.py"))
             for name in transport_callers(path.read_text())}
    assert found == {"operators._TransportStage"}


def test_the_transport_scan_finds_calls_by_name_and_attribute():
    source = ("from eulerlab import operators\n"
              "from eulerlab.operators import transport_coeffs\n"
              "def run(c):\n"
              "    def rhs(t, c, out):\n"
              "        return transport_coeffs(c, u1, u2, g, out)\n"
              "    return rhs\n"
              "class Stage:\n"
              "    def __call__(self, c):\n"
              "        return operators.transport_coeffs(c, u1, u2, g)\n"
              "k = transport_coeffs\n"
              "def other():\n"
              "    return k(c)\n")
    assert transport_callers(source) == {"run", "Stage"}
