"""tools/compare_runs.py: the byte-identity check between two source trees."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = [str(ROOT / "configs" / f"{name}.cfg")
           for name in ("couette_single_mode", "lemma_parabola")]


def compare(parent, change):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "compare_runs.py"),
                           str(parent), str(change), *CONFIGS],
                          capture_output=True, text=True, timeout=300)


def test_a_tree_matches_itself():
    proc = compare(SRC, SRC)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.splitlines()
    for name in ("couette_single_mode", "lemma_parabola"):
        row = next(line for line in rows if line.startswith(name))
        assert row.split()[1:4] == ["0/0", "same", "same"] and row.endswith("identical"), row


def test_a_changed_digit_count_is_named(tmp_path):
    change = tmp_path / "src"
    shutil.copytree(SRC / "eulerlab", change / "eulerlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = change / "eulerlab" / "cli.py"
    text = cli.read_text()
    assert text.count('".17g"') == 1
    cli.write_text(text.replace('".17g"', '".16g"'))
    proc = compare(SRC, change)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    row = next(line for line in proc.stdout.splitlines()
               if line.startswith("couette_single_mode"))
    assert "DIFFER: series.csv" in row
