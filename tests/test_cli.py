import contextlib
import dataclasses
import hashlib
import importlib
import json
import math
import os
import pathlib
import platform
import re
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import eulerlab
from eulerlab import config, euler2d, lagrangian, models1d, presets, selfsim
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

SNAPSHOT_16 = """\
system = euler2d
nx = 16
ny = 16
preset = taylor_green
diag_every = 0.25
snapshot_every = 0.25
"""


def _fresh_python(*args):
    """Run a new interpreter that imports the same eulerlab as this test,
    installed or not."""
    src = str(pathlib.Path(eulerlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_manifest(outdir):
    with open(outdir / "manifest.json") as fh:
        return json.load(fh)


class _Hang(BaseException):
    """Raised by the alarm; no handler of the program catches it."""


@contextlib.contextmanager
def _alarm(seconds, what):
    """Raise :class:`_Hang` naming ``what`` if the block runs longer than ``seconds``."""
    def hang(signum, frame):
        raise _Hang(f"no exit within {seconds} s:\n{what}")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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

    @pytest.mark.parametrize("command", ["selfsim", "lemma-check"])
    def test_run_is_the_only_command_that_runs(self, tmp_path, capsys, command):
        # a config of the system the removed subcommand was named for
        cfg = write_cfg(tmp_path, "system = selfsim\nn = 64\n")
        with pytest.raises(SystemExit) as info:
            main([command, "--config", cfg, "--output-dir", str(tmp_path / "out")])
        assert info.value.code == EXIT_CONFIG
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_console_entry_point(self):
        proc = _fresh_python("-m", "eulerlab.cli", "presets")
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
        # cfl alone sizes the 1D step: a step cap is no longer a key
        (TINY_CLM + "dt_max = 0.05\n", "unknown key 'dt_max' for system 'clm'"),
        ("system = degregorio\nn = 64\nt_end = 1\ndt_max = 1e-3\n",
         "unknown key 'dt_max' for system 'degregorio'"),
        # a marker lattice needs 2 markers per direction (0 means none)
        (TINY_EULER + "marker_lattice = 1\n", "lattice needs m >= 2"),
        (TINY_EULER + "marker_lattice = -4\n", "lattice needs m >= 2"),
        # the Weber check grids the final lattice, which needs an even m >= 8
        (TINY_EULER + "marker_lattice = 2\n", "marker_lattice must be an even integer >= 8"),
        (TINY_EULER + "marker_lattice = 7\n", "marker_lattice must be an even integer >= 8"),
        (TINY_EULER + "marker_lattice = 9\n", "marker_lattice must be an even integer >= 8"),
        # a Casimir power below 1 integrates the cell area or divides by round-off zeros
        (TINY_EULER + "casimir_powers = 0\n", "casimir_powers must be integers >= 1"),
        (TINY_EULER + "casimir_powers = -1\n", "casimir_powers must be integers >= 1"),
        # kmax outside the dealiased band of the grid (16 // 3 = 5)
        ("system = euler2d\nnx = 16\nny = 16\nt_end = 1\npreset = random_bandlimited\n"
         "kmax = 9\n", "kmax must lie inside the dealiased band"),
        # values that used to fail inside the run, after the output dir existed
        ("system = couette_linear\nmodes = 1:0:1\nt_end = 1\nt_count = -1\n",
         "t_count must be nonnegative"),
        ("system = couette_linear\nmodes = 1:0:1; 0:0:1\nt_end = 1\n",
         "mode (0, 0) has no velocity representation"),
        ("system = selfsim\nn = 64\nmax_iter = -1\n", "max_iter must be nonnegative"),
    ])
    def test_bad_values_exit_2_before_any_output(self, tmp_path, capsys, text, match):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_CONFIG
        assert match in capsys.readouterr().err
        assert not out.exists()

    # float() takes nan and inf: an infinite horizon stepped until killed, and
    # a NaN amplitude read as a blow-up at t = 0
    @pytest.mark.parametrize("text, key", [
        ("system = euler2d\nnx = 16\nny = 16\npreset = taylor_green\nt_end = inf\n", "t_end"),
        (TINY_EULER + "eps = nan\n", "eps"),
        ("system = ipm\nnx = 16\nny = 16\nt_end = 1\npreset = heavy_over_light\n"
         "eps = -inf\n", "eps"),
        (TINY_CLM + "amplitude = nan\n", "amplitude"),
        ("system = degregorio\nn = 64\nt_end = inf\n", "t_end"),
        ("system = lemma_check\ng_const = nan\n", "g_const"),
        ("system = couette_linear\nmodes = 1:0:1; 2:nan:0.5\nt_end = 1\n", "modes"),
        ("system = couette_linear\nmodes = 1:0:1\nt_end = inf\n", "t_end"),
        ("system = selfsim\nn = 64\nlam0 = inf\n", "lam0"),
    ])
    def test_non_finite_floats_exit_2_before_any_output(self, tmp_path, capsys, text, key):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        with _alarm(10, text):
            code = main(["run", "--config", cfg, "--output-dir", str(out)])
        assert code == EXIT_CONFIG
        assert f"{key} must be finite" in capsys.readouterr().err
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

        monkeypatch.setattr(importlib.import_module(f"eulerlab.{module}"), func, fail)
        out = tmp_path / "a"
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--output-dir", str(out)]) == code
        assert read_manifest(out)["status"].startswith(status)

    def test_an_unconverged_profile_fails_with_its_record(self, tmp_path):
        text = "system = selfsim\nn = 64\nmax_iter = 0\nguess = perturbed\n"
        out = tmp_path / "a"
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--output-dir", str(out)]) == EXIT_NUMERICAL
        man = read_manifest(out)
        assert man["status"] == "failed: iteration did not converge"
        assert man["extra"]["converged"] is False and list(man["files"]) == ["profile.csv"]

    def test_an_uncertified_decomposition_fails_with_its_record(self, tmp_path, monkeypatch):
        check = selfsim.lemma_decomposition_check
        monkeypatch.setattr(selfsim, "lemma_decomposition_check",
                            lambda *args: dataclasses.replace(check(*args), certified=False))
        out = tmp_path / "a"
        assert main(["run", "--config", write_cfg(tmp_path, "system = lemma_check\n"),
                     "--output-dir", str(out)]) == EXIT_NUMERICAL
        man = read_manifest(out)
        assert man["status"] == "failed: decomposition not coercive"
        assert man["extra"]["certified"] is False and list(man["files"]) == ["decomposition.csv"]

    @pytest.mark.parametrize("n", [32, 96])
    def test_a_non_finite_marker_fails_the_run(self, tmp_path, monkeypatch, n):
        lattice = lagrangian.ParticleSet.lattice.__func__

        def poisoned(cls, m, lx, ly):
            particles = lattice(cls, m, lx, ly)
            particles.lifts[5, 1] = np.nan
            return particles

        monkeypatch.setattr(lagrangian.ParticleSet, "lattice", classmethod(poisoned))
        text = (f"system = euler2d\nnx = {n}\nny = {n}\npreset = taylor_green_perturbed\n"
                "t_end = 0.05\ndiag_every = 0.05\nmarker_lattice = 8\n")
        out = tmp_path / "a"
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--output-dir", str(out)]) == EXIT_NUMERICAL
        assert read_manifest(out)["status"] == "failed: non-finite sample point"

    def test_a_1d_failure_names_its_step(self, tmp_path, monkeypatch):
        monkeypatch.setattr(models1d, "_rhs_coeffs",
                            lambda c, grid, a, u=None: np.full_like(c, np.nan))
        out = tmp_path / "a"
        assert main(["run", "--config", write_cfg(tmp_path, TINY_CLM),
                     "--output-dir", str(out)]) == EXIT_NUMERICAL
        status = read_manifest(out)["status"]
        assert status.startswith("failed: non-finite state") and status.endswith("(step 1)")

    def test_a_1d_run_past_blow_up_stops_with_its_step(self, tmp_path):
        # amplitude 2 blows up at t = 1, and no omega_cap ends the run there
        text = "system = clm\nn = 256\namplitude = 2\nt_end = 3\ncfl = 0.1\n"
        out = tmp_path / "a"
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--output-dir", str(out)]) == EXIT_NUMERICAL
        man = read_manifest(out)
        assert re.fullmatch(r"failed: resolution lost at t = 1\.0\d+ \(step 10\d\d\): .*",
                            man["status"]), man["status"]
        assert man["files"] == {}


def _names(system, key):
    """The preset names a config key accepts, and one that names nothing."""
    return sorted(n for n, p in presets.REGISTRY.items()
                  if (p.system, p.key) == (system, key)), ["bogus"]


# (valid, invalid) values of every key, as config text: grids of 16^2 or
# smaller, 1D grids of at most 256 points, short 2D horizons.  The cosine
# datum of the 1D models blows up at t = 2 / |amplitude|, so a 1D horizon
# of 3 with no cap runs past it, until the grid loses the state and the
# run stops with exit 3.  NaN and infinity parse as floats and are invalid.
_GRID = (["8", "16"], ["6", "15"])
_NON_FINITE = ["nan", "inf", "-inf"]
_STEPPED_2D = {"nx": _GRID, "ny": _GRID, "cfl": (["0.3", "0.5"], ["0", "0.6"]),
               "t_end": (["0", "0.1", "0.3"], ["-1", *_NON_FINITE]),
               "diag_every": (["0.1", "0.25"], ["-0.1", "0"])}
_MODEL_1D = {"n": (["16", "64", "256"], ["6", "15"]),
             "amplitude": (["-1", "0", "1"], _NON_FINITE),
             "cfl": (["0.1", "0.5"], ["0", "0.6"]),
             "t_end": (["0", "0.3", "3"], ["-1", *_NON_FINITE]),
             "omega_cap": (["0", "1.5", "5"], ["-1"])}
_KEYS = {
    "euler2d": {**_STEPPED_2D, "preset": _names("euler2d", "preset"),
                "eps": (["0", "0.3"], _NON_FINITE), "kmax": (["1", "2"], ["0", "6"]),
                "rms": (["0.2"], []), "casimir_powers": (["", "2 4"], ["0", "-1"]),
                "marker_lattice": (["0", "8"], ["-1", "1", "2", "9"]),
                "snapshot_every": (["0", "0.1"], ["-1"])},
    "couette_linear": {"modes": (["1:0:1", "1:0.5:1; 0:1:0.5", "2:-1:0.3"],
                                 ["0:0:1", "1:0:1; 0:0:2", "1:nan:1", "1:0:1; 2:-inf:1"]),
                       "t_start": (["0", "2"], []),
                       "t_end": (["-1", "1", "3"], _NON_FINITE),
                       "t_count": (["0", "1", "9"], ["-1"])},
    "passive_scalar": {**_STEPPED_2D, "velocity": _names("passive_scalar", "velocity"),
                       "test_function": _names("passive_scalar", "test_function")},
    "clm": _MODEL_1D,
    "degregorio": _MODEL_1D,
    "selfsim": {"n": (["64", "128"], ["63", "30"]), "domain_half_width": (["10", "20"], ["9"]),
                "lam0": (["1", "1.1"], []),
                "tol": (["1e-10", "1e-6"], []), "max_iter": (["0", "3"], ["-1"]),
                "guess": _names("selfsim", "guess"), "perturb": (["0", "0.05"], [])},
    "lemma_check": {"weight_order": (["4", "8"], ["3"]),
                    "delta": (["0.1", "0.3"], ["0", "0.5"]),
                    "u_preset": _names("lemma_check", "u_preset"),
                    "g_const": (["-1", "1"], _NON_FINITE)},
    "ipm": {**_STEPPED_2D, "preset": _names("ipm", "preset"),
            "eps": (["0", "0.01"], _NON_FINITE)},
}


@st.composite
def _configs(draw):
    """A valid config of some system, or one with a single key set out of range."""
    system = draw(st.sampled_from(tuple(config.REGISTRY)))
    keys = {"seed": (["0", "7"], ["-1"]), **_KEYS[system]}
    params = {k: draw(st.sampled_from(valid)) for k, (valid, _) in keys.items()}
    broken = draw(st.none() | st.sampled_from([k for k, (_, bad) in keys.items() if bad]))
    if broken is not None:
        params[broken] = draw(st.sampled_from(keys[broken][1]))
    return f"system = {system}\n" + "".join(f"{k} = {v}\n" for k, v in params.items())


class TestConfigProperty:
    """Any config, valid or not, ends in a known exit code with the artifacts it promises."""

    LIMIT_S = 10

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=_configs())
    def test_exit_code_and_manifest(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = pathlib.Path(tmp) / "run.cfg", pathlib.Path(tmp) / "out"
            cfg.write_text(text)
            with _alarm(self.LIMIT_S, text):
                code = main(["run", "--config", str(cfg), "--output-dir", str(out)])
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_BLOWUP), text
            if code == EXIT_CONFIG:
                assert not out.exists(), text
            else:
                assert list(out.rglob("manifest.json")) == [out / "manifest.json"], text

    def test_the_draws_name_every_key_of_every_system(self):
        assert list(_KEYS) == list(config.REGISTRY)
        for system, entry in config.REGISTRY.items():
            assert set(_KEYS[system]) == set(entry.keys), system


class TestNewSystem:
    """A system is one registry entry: the parser, the checks and the CLI follow it."""

    @pytest.fixture(autouse=True)
    def toy(self, monkeypatch):
        def check(params):
            if params["size"] < 1:
                raise ValueError("size must be positive")

        def run(cfg, manifest):
            manifest.add_csv("squares.csv", ["i", "square"],
                             ([i, i * i] for i in range(cfg["size"])))

        monkeypatch.setitem(config.REGISTRY, "toy", config.System(
            {"size": ("int", config.REQUIRED), "label": ("str", "plain")}, check, run))

    def call(self, tmp_path, text, *command):
        out = tmp_path / "out"
        args = command or ("run", "--output-dir", str(out))
        return main([args[0], "--config", write_cfg(tmp_path, text), *args[1:]]), out

    def test_run_writes_its_csv_and_a_manifest(self, tmp_path):
        code, out = self.call(tmp_path, "system = toy\nsize = 3\n")
        assert code == EXIT_OK
        assert (out / "squares.csv").read_text() == "i,square\n0,0\n1,1\n2,4\n"
        man = read_manifest(out)
        assert man["status"] == "completed" and list(man["files"]) == ["squares.csv"]
        assert man["config"] == {"system": "toy", "size": 3, "label": "plain",
                                 "output_dir": "out", "seed": 0}

    def test_validate_echoes_the_defaults(self, tmp_path, capsys):
        code, out = self.call(tmp_path, "system = toy\nsize = 3\n", "validate")
        assert code == EXIT_OK and not out.exists()
        assert capsys.readouterr().out.splitlines() == [
            "system = toy", "label = plain", "output_dir = out", "seed = 0", "size = 3"]

    @pytest.mark.parametrize("text, message", [
        ("system = toy\nsize = 3\ncolour = red\n",
         "line 3: unknown key 'colour' for system 'toy'"),
        ("system = toy\nsize = 0\n", "bad value for system 'toy': size must be positive"),
    ])
    def test_a_rejected_config_exits_2_before_any_output(self, tmp_path, capsys, text, message):
        code, out = self.call(tmp_path, text)
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_runner_that_writes_the_manifest_exits_3(self, tmp_path, monkeypatch, capsys):
        def run(cfg, manifest):
            manifest.add_csv("squares.csv", ["i", "square"], [[0, 0]])
            manifest.write("completed")

        monkeypatch.setitem(config.REGISTRY, "toy",
                            dataclasses.replace(config.REGISTRY["toy"], run=run))
        code, out = self.call(tmp_path, "system = toy\nsize = 3\n")
        assert code == EXIT_NUMERICAL
        assert "Traceback" not in capsys.readouterr().err
        man = read_manifest(out)
        assert man["status"] == ("failed: a runner may not write manifest.json; "
                                 "dispatch writes it after the run")
        assert list(man["files"]) == ["squares.csv"]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "squares.csv"]


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

    def test_a_profile_lists_its_half_line_rows_and_last_step(self, tmp_path):
        text = "system = selfsim\nn = 64\ndomain_half_width = 10\nguess = perturbed\n"
        out = tmp_path / "a"
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--output-dir", str(out)]) == EXIT_OK
        rows = (out / "profile.csv").read_text().splitlines()
        xs = [float(row.split(",")[0]) for row in rows[1:]]
        assert rows[0] == "X,omega" and len(xs) == 32
        assert xs[0] == 10.0 / 32 and xs[-1] == 10.0
        assert 0.0 < read_manifest(out)["extra"]["step_norm"] < 1e-3

    def test_manifest_names_the_environment(self, tmp_path):
        out = tmp_path / "a"
        main(["run", "--config", write_cfg(tmp_path, TINY_EULER), "--output-dir", str(out)])
        env = read_manifest(out)["environment"]
        assert env == {"python": platform.python_version(), "numpy": np.__version__,
                       "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
                       "machine": platform.machine()}

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

    # a 32^2 perturbed cellular flow folds an 8^2 lattice between t = 2.5 and 3
    @pytest.mark.parametrize("t_end, folded", [(1.0, False), (4.0, True)])
    def test_manifest_says_whether_the_marker_lattice_folded(self, tmp_path, t_end, folded):
        text = ("system = euler2d\nnx = 32\nny = 32\npreset = taylor_green_perturbed\n"
                f"eps = 0.3\nt_end = {t_end}\ndiag_every = 0.5\nmarker_lattice = 8\n")
        out = tmp_path / "a"
        assert main(["run", "--config", write_cfg(tmp_path, text),
                     "--output-dir", str(out)]) == EXIT_OK
        extra = read_manifest(out)["extra"]
        assert extra["lattice_folded"] is folded
        assert math.isfinite(extra["weber_residual"])

    def test_detected_blowup_completes_with_exit_4(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_CLM)
        out = tmp_path / "a"
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_BLOWUP
        man = read_manifest(out)
        assert man["status"] == "completed: blow-up detected"
        assert man["extra"]["blowup_detected"] is True
        assert 1.5 < man["extra"]["t_star_estimate"] < 2.5
        assert (out / "series.csv").exists()

    def test_a_rerun_lists_only_the_files_it_wrote(self, tmp_path):
        # the first run leaves snapshots at t = 0.25 .. 1.0, the second writes two
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        for t_end, out in ((1.0, used), (0.5, used), (0.5, fresh)):
            cfg = write_cfg(tmp_path, SNAPSHOT_16 + f"t_end = {t_end}\n")
            assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_OK
        assert (used / "snap_00003.eulb").exists()
        files = read_manifest(used)["files"]
        assert files == read_manifest(fresh)["files"]
        assert sorted(files) == ["diagnostics.csv", "snap_00000.eulb", "snap_00001.eulb"]

    def test_a_blowup_lists_the_snapshots_it_wrote(self, tmp_path, monkeypatch):
        out = tmp_path / "a"
        out.mkdir()
        (out / "snap_00009.eulb").write_bytes(b"left by another run")
        # diagnostics that turn non-finite at t = 0.5 stop the run there
        monkeypatch.setattr(euler2d, "_check_finite", lambda rec: rec.t < 0.5)
        cfg = write_cfg(tmp_path, SNAPSHOT_16 + "t_end = 1\n")
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_BLOWUP
        man = read_manifest(out)
        assert man["status"].startswith("blow-up detected: ")
        assert sorted(man["files"]) == ["checkpoint_abort.eulb", "snap_00000.eulb",
                                        "snap_00001.eulb"]
        for name, digest in man["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_a_failed_write_exits_3_and_leaves_no_temp_file(self, tmp_path):
        out = tmp_path / "a"
        (out / "diagnostics.csv").mkdir(parents=True)
        cfg = write_cfg(tmp_path, TINY_EULER)
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_NUMERICAL
        man = read_manifest(out)
        assert man["status"].startswith("failed: ")
        assert "diagnostics.csv" not in man["files"]
        assert sorted(p.name for p in out.iterdir()) == ["diagnostics.csv", "manifest.json"]

    def test_an_unwritable_manifest_exits_3_without_a_traceback(self, tmp_path, capsys):
        out = tmp_path / "a"
        (out / "manifest.json").mkdir(parents=True)
        cfg = str(CONFIG_DIR / "couette_single_mode.cfg")
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("failed: ") and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "series.csv"]

    def test_an_output_dir_that_is_a_file_exits_3_without_a_traceback(self, tmp_path, capsys):
        out = tmp_path / "a"
        out.write_bytes(b"not a directory")
        cfg = str(CONFIG_DIR / "couette_single_mode.cfg")
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("failed: ") and "Traceback" not in err
        assert out.read_bytes() == b"not a directory"

    def test_a_failed_run_lists_the_snapshots_it_wrote(self, tmp_path, monkeypatch):
        out = tmp_path / "a"
        out.mkdir()
        (out / "snap_00009.eulb").write_bytes(b"left by another run")
        real = euler2d._diagnostics

        def failing(grid, c, t, *args):
            if t >= 0.5:
                raise ValueError("diagnostics failed")
            return real(grid, c, t, *args)

        monkeypatch.setattr(euler2d, "_diagnostics", failing)
        cfg = write_cfg(tmp_path, SNAPSHOT_16 + "t_end = 1\n")
        assert main(["run", "--config", cfg, "--output-dir", str(out)]) == EXIT_NUMERICAL
        man = read_manifest(out)
        assert man["status"] == "failed: diagnostics failed"
        assert sorted(man["files"]) == ["snap_00000.eulb", "snap_00001.eulb"]
        for name, digest in man["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

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


# Imports eulerlab, parses every shipped config, dispatches the configs
# given as JSON and prints whether scipy was loaded before the first
# dispatch, the exit codes and the scipy subpackages loaded.
_FOOTPRINT_CHILD = r"""
import json, pathlib, sys
from eulerlab import cli, config
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.cfg")):
    config.parse_config_file(str(path))
scipy_at_start = "scipy" in sys.modules
out = pathlib.Path(sys.argv[2])
codes = [cli.dispatch(config.parse_config(text), out / str(i))
         for i, text in enumerate(json.loads(sys.argv[3]))]
print(json.dumps({"scipy_at_start": scipy_at_start, "codes": codes,
                  "loaded": sorted({m.split(".")[1] for m in sys.modules
                                    if m.startswith("scipy.")})}))
"""

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"

# scipy subpackages that cost start-up time; none belongs in a run that does not call it
HEAVY_SCIPY = {"ndimage", "optimize", "sparse", "integrate", "linalg", "special"}


class TestImportFootprint:
    def _child(self, tmp_path, texts):
        proc = _fresh_python("-c", _FOOTPRINT_CHILD, str(CONFIG_DIR), str(tmp_path),
                             json.dumps(texts))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_start_up_loads_no_scipy(self, tmp_path):
        """The manifest's write imports scipy for its version; nothing before a run does."""
        got = self._child(tmp_path, [])
        assert got["scipy_at_start"] is False

    def test_runs_without_markers_load_no_scipy_subpackage(self, tmp_path):
        texts = [
            TINY_EULER,
            "system = ipm\nnx = 32\nny = 32\npreset = heavy_over_light\neps = 0.01\n"
            "t_end = 0.5\ndiag_every = 0.25\n",
            "system = passive_scalar\nnx = 16\nny = 64\nvelocity = shear_sin\n"
            "test_function = bessel_pair\nt_end = 1.0\ndiag_every = 0.5\n",
            TINY_CLM,
            (CONFIG_DIR / "lemma_parabola.cfg").read_text(),
        ]
        got = self._child(tmp_path, texts)
        assert got["codes"] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_BLOWUP, EXIT_OK]
        assert HEAVY_SCIPY.isdisjoint(got["loaded"]), got["loaded"]

    def test_the_bicubic_marker_sampler_loads_no_scipy_subpackage(self, tmp_path):
        text = ("system = euler2d\nnx = 96\nny = 96\npreset = taylor_green_perturbed\n"
                "t_end = 0.05\ndiag_every = 0.05\nmarker_lattice = 8\n")
        got = self._child(tmp_path, [text])
        assert got["codes"] == [EXIT_OK]
        assert HEAVY_SCIPY.isdisjoint(got["loaded"]), got["loaded"]
