import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import eulerlab
from eulerlab import cli
from eulerlab.cli import (EXIT_BLOWUP, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, csv_bytes, main)
from eulerlab.stepping import BlowupError

TINY_EULER = """\
system = euler2d
nx = 32
ny = 32
preset = taylor_green
t_end = 0.5
diag_every = 0.25
"""

TINY_CLM = """\
system = clm
n = 256
t_end = 2.5
omega_cap = 20.0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_manifest(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)


class TestSubcommands:
    def test_presets_lists_library(self, capsys):
        assert main(["presets"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "taylor_green" in out and "heavy_over_light" in out

    def test_validate_echoes_without_running(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_EULER)
        assert main(["validate", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "system = euler2d" in out and "cfl = 0.4" in out
        assert not (tmp_path / "out").exists()

    def test_selfsim_subcommand_rejects_other_systems(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_CLM)
        assert main(["selfsim", "--config", cfg]) == EXIT_CONFIG
        assert "requires system = selfsim" in capsys.readouterr().err

    def test_console_entry_point(self):
        # the child imports the same eulerlab as this test, installed or not
        src = str(pathlib.Path(eulerlab.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "eulerlab.cli", "presets"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "stratified_rest" in proc.stdout


class TestConfigErrors:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_EULER + "viscosity = 0.1\n")
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert "unknown key 'viscosity'" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_EULER.replace("taylor_green", "vortex_soup"))
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        assert "not an euler2d initial condition" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("text, match", [
        ("system = selfsim\nn = 63\n", "n must be an even integer >= 64"),
        (TINY_CLM + "cfl = 0\n", "cfl must lie in"),
        (TINY_CLM.replace("n = 256", "n = 1023"), "n must be an even integer >= 8"),
        ("system = lemma_check\nweight_order = 2\n", "at least 4"),
        (TINY_EULER.replace("diag_every = 0.25", "diag_every = 0"),
         "diag_every must be positive"),
        ("system = passive_scalar\nnx = 16\nny = 16\nt_end = 1\ncfl = 0\n",
         "cfl must lie in"),
        # every config key that names a preset, checked against its system
        (TINY_EULER.replace("taylor_green", "stratified_rest"),
         "not an euler2d initial condition"),
        ("system = ipm\nnx = 16\nny = 16\nt_end = 1\npreset = taylor_green\n",
         "not an ipm initial condition"),
        ("system = passive_scalar\nnx = 16\nny = 16\nt_end = 1\nvelocity = swirl\n",
         "velocity 'swirl' is not a passive_scalar velocity"),
        ("system = passive_scalar\nnx = 16\nny = 16\nt_end = 1\ntest_function = gauss\n",
         "not a passive_scalar test function"),
        ("system = selfsim\nguess = wobbly\n", "guess 'wobbly' is not a selfsim initial guess"),
        ("system = lemma_check\nu_preset = cubic\n", "not a lemma_check transport profile"),
        # a negative horizon, for every system that steps in time
        (TINY_EULER.replace("t_end = 0.5", "t_end = -1"), "t_end must be nonnegative"),
        ("system = ipm\nnx = 16\nny = 16\nt_end = -1\npreset = stratified_rest\n",
         "t_end must be nonnegative"),
        ("system = passive_scalar\nnx = 16\nny = 16\nt_end = -1\n",
         "t_end must be nonnegative"),
        (TINY_CLM.replace("t_end = 2.5", "t_end = -1"), "t_end must be nonnegative"),
        ("system = degregorio\nn = 64\nt_end = -0.5\n", "t_end must be nonnegative"),
        # kmax outside the dealiased band of the grid (16 // 3 = 5)
        ("system = euler2d\nnx = 16\nny = 16\nt_end = 1\npreset = random_bandlimited\n"
         "kmax = 9\n", "kmax must lie inside the dealiased band"),
    ])
    def test_bad_values_exit_2_before_any_output(self, tmp_path, capsys, text, match):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        assert match in capsys.readouterr().err
        assert not out.exists()


    def test_kmax_is_checked_only_where_a_preset_reads_it(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_EULER + "kmax = 99\n")
        assert main(["validate", "--config", cfg]) == EXIT_OK


class TestFailureExitCodes:
    """Only a typed blow-up is reported as one; other errors are failures."""

    @pytest.mark.parametrize("module, func, text", [
        ("euler2d", "run", TINY_EULER),
        ("ipm", "ipm_run", "system = ipm\nnx = 16\nny = 16\nt_end = 1\n"
                           "preset = stratified_rest\n"),
    ])
    @pytest.mark.parametrize("error, code, status", [
        (BlowupError(0.75, 12), EXIT_BLOWUP, "blow-up detected: numerical blow-up"),
        (RuntimeError("solver exploded"), EXIT_NUMERICAL, "failed: solver exploded"),
    ])
    def test_exit_code_follows_the_error_type(self, tmp_path, monkeypatch, module, func,
                                              text, error, code, status):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(getattr(cli, module), func, fail)
        out = tmp_path / "a"
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--output-dir", str(out)]) == code
        assert read_manifest(out)["status"].startswith(status)


class TestRunArtifacts:
    def test_run_writes_csv_and_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_EULER)
        out = tmp_path / "a"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_OK
        man = read_manifest(out)
        assert man["system"] == "euler2d"
        assert man["status"] == "completed"
        assert man["config"]["nx"] == 32
        assert man["wall_seconds"] >= 0.0
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0].startswith("t,energy,enstrophy")
        assert len(lines) == 1 + 3  # t = 0, 0.25, 0.5

    def test_manifest_checksums_match_files(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_EULER)
        out = tmp_path / "a"
        main(["run", "--config", cfg, "--output-dir", str(out)])
        man = read_manifest(out)
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(man["files"]) == on_disk
        for name, digest in man["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_EULER)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--output-dir", str(a)]) == EXIT_OK
        assert main(["run", "--config", cfg, "--output-dir", str(b)]) == EXIT_OK
        assert (a / "diagnostics.csv").read_bytes() == (b / "diagnostics.csv").read_bytes()
        assert read_manifest(a)["files"] == read_manifest(b)["files"]

    def test_zero_horizon_run_records_initial_state_only(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_EULER.replace("t_end = 0.5", "t_end = 0.0"))
        out = tmp_path / "a"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_OK
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0,")

    def test_detected_blowup_completes_with_exit_4(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_CLM)
        out = tmp_path / "a"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_BLOWUP
        man = read_manifest(out)
        assert man["status"] == "completed: blow-up detected"
        assert man["extra"]["blowup_detected"] is True
        assert 1.5 < man["extra"]["t_star_estimate"] < 2.5
        assert (out / "series.csv").exists()

    def test_ipm_rest_state_run(self, tmp_path):
        cfg = write_cfg(tmp_path, "system = ipm\nnx = 32\nny = 32\n"
                                   "preset = stratified_rest\nt_end = 2.0\n"
                                   "diag_every = 1.0\n")
        out = tmp_path / "a"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_OK
        rows = np.genfromtxt(out / "diagnostics.csv", delimiter=",", names=True)
        assert np.max(np.abs(rows["mass"])) < 1e-12
        assert np.allclose(rows["grad_sup"], 1.0, atol=1e-12)


class TestCsvFormatting:
    def test_seventeen_digit_roundtrip(self):
        vals = [np.pi, 1.0 / 3.0, 6.02e23, -7.25e-300]
        data = csv_bytes(["a", "b", "c", "d"], [vals]).decode()
        back = [float(tok) for tok in data.splitlines()[1].split(",")]
        assert back == vals

    def test_ints_and_bools_render_plainly(self):
        data = csv_bytes(["i", "flag"], [[3, True], [4, False]]).decode()
        assert data.splitlines()[1] == "3,true"
        assert data.splitlines()[2] == "4,false"
