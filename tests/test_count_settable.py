"""tools/count_settable.py: the count of values a user can set."""

import ast
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
