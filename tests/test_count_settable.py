"""tools/count_settable.py: the count of values a user can set."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from count_settable import count_source  # noqa: E402


def test_the_counting_rule():
    source = '''
from dataclasses import dataclass
from functools import cached_property

def public(a, b=1, *rest, c, **more): pass
def _private(a, b): pass

@dataclass(frozen=True)
class _Record:
    x: int
    y: float = 0.0

class Public:
    def __init__(self, n): pass
    def method(self, a): pass
    @classmethod
    def make(cls, a, b): pass
    @staticmethod
    def helper(a): pass
    @property
    def size(self): pass
    @cached_property
    def table(self): pass
    def _hidden(self, a): pass

class _Private:
    def __init__(self, a, b): pass
'''
    # 5 (public) + 1 (__init__) + 1 (method) + 2 (make) + 1 (helper)
    assert count_source(ast.parse(source)) == (10, 2)


def test_the_script_prints_three_parts_and_their_sum():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "count_settable.py"),
                           str(ROOT / "src")], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    m = re.fullmatch(r"parameters (\d+) \+ dataclass fields (\d+) \+ config keys (\d+) = (\d+)\n",
                     proc.stdout)
    assert m, proc.stdout
    params, fields, keys, total = map(int, m.groups())
    assert params + fields + keys == total


def run_script(*args):
    """The script with this checkout's package on PYTHONPATH, which must not
    stand in for the one under the given root."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "tools" / "count_settable.py"), *args],
                          capture_output=True, text=True, timeout=120, env=env)


def test_a_root_without_the_package_prints_the_usage(tmp_path):
    for args in ([str(tmp_path)], ["--help"], [], [str(ROOT / "src"), str(ROOT / "src")]):
        proc = run_script(*args)
        assert proc.returncode == 2, (args, proc.stdout)
        assert proc.stdout == "" and proc.stderr.startswith("usage:")


def test_the_config_keys_come_from_the_given_root(tmp_path):
    package = tmp_path / "eulerlab"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "config.py").write_text(
        "class _Entry:\n    keys = ('a', 'b')\n\n"
        "_shared = _Entry()\nREGISTRY = {'x': _shared, 'y': _shared}\n"
        "_COMMON = ('seed',)\n\n\ndef check(a, b):\n    pass\n")
    proc = run_script(str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "parameters 2 + dataclass fields 0 + config keys 3 = 5\n"
