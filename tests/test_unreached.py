"""tools/unreached.py: the functions of ``eulerlab`` that no config enters."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from unreached import definitions, unreached  # noqa: E402


def test_one_config_leaves_the_steady_solver_unreached_and_enters_dispatch():
    missed = unreached([ROOT / "configs" / "couette_single_mode.cfg"])
    names = {(d.path.name, d.name) for d in missed}
    assert ("euler2d.py", "semilinear_solve") in names
    assert ("cli.py", "dispatch") not in names
    # the runner of the config's system ran; another system's did not
    assert ("config.py", "_run_couette") not in names
    assert ("config.py", "_run_euler2d") in names


def test_definitions_span_their_decorators_and_name_their_class(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f():\n"
                    "    def inner():\n"
                    "        pass\n"
                    "    return inner\n"
                    "\n"
                    "class C:\n"
                    "    @property\n"
                    "    def p(self):\n"
                    "        return 1\n")
    found = [(d.line, d.name, d.lines, [o.name for o in outer])
             for d, outer in definitions(path)]
    assert found == [(1, "f", 4, []), (2, "f.<locals>.inner", 2, ["f"]), (7, "C.p", 3, [])]
