"""List the functions of ``eulerlab`` that no config enters.

Usage::

    python tools/unreached.py [CONFIG ...]

With no argument the configs are ``configs/*.cfg``.  Every config runs in
this one process through ``eulerlab.cli.main`` (``run --config ...``), with
its outputs in a temporary directory, while a ``sys.setprofile`` hook
records each code object that is called.  The script then prints, for each
function or method defined in ``src/eulerlab`` that was never entered,
``file:line name (lines)``, and a total.  A definition nested in one that is
listed is not listed again; lambdas and comprehensions are left out, and so
are the methods that ``dataclass`` writes.  Each config's exit code goes to
stderr.  Running all configs takes a couple of minutes.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Definition:
    path: Path
    line: int     # the first line of its code: the first decorator's, or the def's
    name: str     # qualified within the module, e.g. ``RunManifest.write``
    lines: int    # decorators and docstring included


def definitions(path: Path) -> list[Definition]:
    """Every function and method defined in the module at ``path``, with
    the definitions that enclose it (outermost first)."""
    found = []

    def visit(node, prefix: str, outer: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                d = Definition(path, first, prefix + child.name, child.end_lineno - first + 1)
                found.append((d, outer))
                visit(child, f"{d.name}.<locals>.", outer + (d,))
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", outer)
            else:
                visit(child, prefix, outer)

    visit(ast.parse(path.read_text()), "", ())
    return found


def unreached(configs: list[Path]) -> list[Definition]:
    """The outermost definitions of ``eulerlab`` that running ``configs``
    never enters."""
    from eulerlab import cli

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(configs):
            sys.setprofile(hook)
            try:
                code = cli.main(["run", "--config", str(cfg), "--output-dir",
                                 str(Path(tmp) / f"{i:02d}_{cfg.stem}")])
            finally:
                sys.setprofile(previous)
            print(f"{cfg}: exit {code}", file=sys.stderr)

    seen = {(Path(c.co_filename).resolve(), c.co_firstlineno) for c in entered}
    package = Path(cli.__file__).resolve().parent
    out = []
    for path in sorted(package.glob("*.py")):
        for d, outer in definitions(path):
            missed = [o for o in (*outer, d) if (o.path, o.line) not in seen]
            if missed and missed[0] is d:
                out.append(d)
    return out


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    configs = [Path(a) for a in argv] or sorted((ROOT / "configs").glob("*.cfg"))
    missed = unreached(configs)
    for d in missed:
        print(f"{d.path.relative_to(ROOT)}:{d.line} {d.name} ({d.lines})")
    print(f"total: {len(missed)} definitions, {sum(d.lines for d in missed)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
