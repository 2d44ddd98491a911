"""Count the values a user of ``eulerlab`` can set.

Usage::

    python tools/count_settable.py SRC_ROOT

``SRC_ROOT`` is a directory that holds an ``eulerlab`` package (the ``src``
directory of a checkout); for any other argument the script prints its
usage and exits with status 2.  The count has three parts:

- the parameters of public module-level functions, and of the public
  methods and ``__init__`` of public classes; ``self`` and ``cls`` are left
  out, and so are properties;
- the fields of every dataclass;
- the keys of each distinct ``config.REGISTRY`` entry (systems that share
  one entry count it once), plus the keys every system has, read from the
  ``eulerlab.config`` under ``SRC_ROOT`` whatever else ``sys.path`` holds.

The script prints the three parts and their sum, e.g.
``parameters 258 + dataclass fields 99 + config keys 49 = 406``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_PROPERTIES = {"property", "cached_property"}


def _decorator_names(node) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _parameters(func, method: bool) -> int:
    args = func.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    if method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return len(names)


def count_source(tree: ast.Module) -> tuple[int, int]:
    """(parameters, dataclass fields) of one module."""
    params = fields = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                params += _parameters(node, method=False)
        elif isinstance(node, ast.ClassDef):
            if "dataclass" in _decorator_names(node):
                fields += sum(isinstance(item, ast.AnnAssign) for item in node.body)
            if node.name.startswith("_"):
                continue
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and (item.name == "__init__" or not item.name.startswith("_"))
                        and not _decorator_names(item) & _PROPERTIES):
                    params += _parameters(item, method=True)
    return params, fields


def count_config_keys(src_root: Path) -> int:
    # ahead of every other entry, so that the package under src_root is the
    # one imported (main has checked that there is one)
    sys.path.insert(0, str(src_root))
    from eulerlab import config

    entries = {id(entry): entry for entry in config.REGISTRY.values()}
    return len(config._COMMON) + sum(len(entry.keys) for entry in entries.values())


def main(argv: list[str]) -> int:
    src_root = Path(argv[0]).resolve() if len(argv) == 1 else None
    if src_root is None or not (src_root / "eulerlab" / "__init__.py").is_file():
        print("usage: python tools/count_settable.py SRC_ROOT", file=sys.stderr)
        return 2
    params = fields = 0
    for path in sorted((src_root / "eulerlab").glob("*.py")):
        p, f = count_source(ast.parse(path.read_text()))
        params, fields = params + p, fields + f
    keys = count_config_keys(src_root)
    print(f"parameters {params} + dataclass fields {fields} + config keys {keys} "
          f"= {params + fields + keys}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
