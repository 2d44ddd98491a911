"""tools/compare_runs.py: the byte-identity check between two source trees."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = [str(ROOT / "configs" / f"{name}.cfg")
           for name in ("couette_single_mode", "lemma_parabola")]


def compare(parent, change, configs=CONFIGS):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "compare_runs.py"),
                           str(parent), str(change), *configs],
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


def test_a_moved_config_default_is_named(tmp_path):
    # a config that leaves output_dir to its default; dispatch is given the
    # output directory, so the files stay the same
    cfg = tmp_path / "default_dir.cfg"
    text = (ROOT / "configs" / "couette_single_mode.cfg").read_text()
    cfg.write_text("".join(line for line in text.splitlines(keepends=True)
                           if not line.startswith("output_dir")))
    change = tmp_path / "src"
    shutil.copytree(SRC / "eulerlab", change / "eulerlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    config = change / "eulerlab" / "config.py"
    text = config.read_text()
    assert text.count('"output_dir": ("str", "out")') == 1
    config.write_text(text.replace('"output_dir": ("str", "out")',
                                   '"output_dir": ("str", "elsewhere")'))
    proc = compare(SRC, change, [str(cfg)])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("default_dir"))
    assert lines[row].split()[1:5] == ["0/0", "same", "same", "DIFFERS"], lines[row]
    assert lines[row].endswith("1 identical"), lines[row]
    assert lines[row + 1] == "    config output_dir: 'out' vs 'elsewhere'"
