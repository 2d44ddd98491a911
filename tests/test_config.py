import pathlib

import pytest

from eulerlab.config import ConfigError, parse_config, parse_config_file

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"

GOOD = """
# a comment line
system = clm          # trailing comment
n = 512

t_end = 1.5
"""


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(GOOD)
        assert cfg.system == "clm"
        assert cfg["n"] == 512 and isinstance(cfg["n"], int)
        assert cfg["t_end"] == 1.5
        assert cfg["cfl"] == 0.1
        assert cfg["omega_cap"] == 0.0
        assert cfg["output_dir"] == "out"
        assert cfg["seed"] == 0

    def test_mode_list_parsing(self):
        cfg = parse_config("system = couette_linear\n"
                           "modes = 1:0.3:1.0; 2:-0.7:0.6\n"
                           "t_end = 10\n")
        assert cfg["modes"] == [(1, 0.3, 1.0), (2, -0.7, 0.6)]

    def test_int_list_parsing_accepts_commas_and_spaces(self):
        base = ("system = euler2d\nnx = 32\nny = 32\n"
                "preset = taylor_green\nt_end = 1\n")
        assert parse_config(base + "casimir_powers = 4, 6\n")["casimir_powers"] == (4, 6)
        assert parse_config(base + "casimir_powers = 4 6\n")["casimir_powers"] == (4, 6)

    def test_echo_is_json_friendly(self):
        cfg = parse_config("system = couette_linear\nmodes = 1:0:1\nt_end = 5\n")
        echo = cfg.echo()
        assert echo["system"] == "couette_linear"
        assert echo["modes"] == [[1, 0.0, 1.0]]

    def test_parse_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(GOOD)
        assert parse_config_file(p).system == "clm"

    def test_every_checked_in_config_parses(self):
        paths = sorted(CONFIG_DIR.glob("*.cfg"))
        assert paths, "no configs checked in"
        for path in paths:
            cfg = parse_config_file(path)
            assert cfg.system in cfg.echo()["system"]


class TestRejections:
    def reject(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_line_without_assignment(self):
        self.reject("system = clm\njust some words\n", r"line 2: expected key = value")

    def test_missing_key_before_equals(self):
        self.reject("system = clm\n= 3\n", "missing key before")

    def test_duplicate_key_reports_both_lines(self):
        self.reject("system = clm\nn = 4\nn = 8\nt_end = 1\n",
                     r"line 3: duplicate key 'n' \(first set on line 2\)")

    def test_missing_system(self):
        self.reject("n = 512\nt_end = 1\n", "missing key 'system'")

    def test_unknown_system(self):
        self.reject("system = navier_stokes\n", "unknown system")

    def test_unknown_key_for_system(self):
        self.reject("system = euler2d\nnx = 32\nny = 32\n"
                    "preset = taylor_green\nt_end = 1\nviscosity = 0.1\n",
                    r"line 6: unknown key 'viscosity'")

    def test_type_mismatch_names_line_and_type(self):
        self.reject("system = clm\nn = ten\nt_end = 1\n",
                     r"line 2: bad value for 'n' \(expected int\)")

    def test_missing_required_keys_listed(self):
        self.reject("system = euler2d\nnx = 32\n",
                     "missing required keys for system 'euler2d': ny, preset, t_end")

    def test_negative_seed(self):
        self.reject("system = clm\nn = 16\nt_end = 1\nseed = -3\n",
                     "seed must be a nonnegative integer")

    def test_malformed_mode_triple(self):
        self.reject("system = couette_linear\nmodes = 1:0.3\nt_end = 1\n",
                     "not kx:eta0:amp")


EULER_16 = "system = euler2d\nnx = 16\nny = 16\npreset = taylor_green\nt_end = 1\n"


class TestValueChecks:
    """Values the run would reject are rejected by the parser, with no work done."""

    @pytest.mark.parametrize("text, match", [
        ("system = selfsim\nn = 63\n", r"'selfsim': n must be an even integer >= 64"),
        ("system = selfsim\ndomain_half_width = 5\n", "L must be at least 10"),
        ("system = selfsim\nmodel = clm\n", "line 2: unknown key 'model'"),
        ("system = clm\nn = 1024\nt_end = 1\ncfl = 0\n", r"'clm': cfl must lie in"),
        ("system = degregorio\nn = 1024\nt_end = 1\ncfl = 0.6\n", "cfl must lie in"),
        ("system = clm\nn = 1023\nt_end = 1\n", "n must be an even integer >= 8, got 1023"),
        ("system = lemma_check\nweight_order = 2\n", "weight exponent N must be at least 4"),
        ("system = lemma_check\ndelta = 0.7\n", "delta must lie in"),
        ("system = lemma_check\ngrid_points = 500\n", "grid_points must lie in"),
        (EULER_16.replace("nx = 16", "nx = 15"), "nx must be an even integer >= 8"),
        # a negative cap used to complete at once with cap_reached and no step taken
        ("system = clm\nn = 64\nt_end = 0.3\nomega_cap = -1\n",
         r"omega_cap must be nonnegative \(0 means no cap\)"),
        ("system = degregorio\nn = 64\nt_end = 0.3\ntail_threshold = -1e-6\n",
         "tail_threshold must be nonnegative"),
        ("system = ipm\nnx = 16\nny = 16\npreset = stratified_rest\nt_end = 1\n"
         "tail_threshold = -1\n", "tail_threshold must be nonnegative"),
    ])
    def test_rejected(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    # a zero cadence or CFL number used to pass and then hang the time loop
    @pytest.mark.parametrize("text", [
        "system = passive_scalar\nnx = 16\nny = 16\nt_end = 1\ncfl = 0\n",
        EULER_16 + "cfl = 0.6\n",
        "system = ipm\nnx = 16\nny = 16\npreset = stratified_rest\nt_end = 1\n"
        "cfl = -0.1\n",
    ])
    def test_2d_cfl_outside_the_stable_range(self, text):
        with pytest.raises(ConfigError, match=r"cfl must lie in \(0, 0.5\]"):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        EULER_16 + "diag_every = 0\n",
        EULER_16 + "diag_every = -0.5\n",
        EULER_16 + "diag_every = nan\n",
        "system = passive_scalar\nnx = 16\nny = 16\nt_end = 1\ndiag_every = 0\n",
        "system = ipm\nnx = 16\nny = 16\npreset = stratified_rest\nt_end = 1\n"
        "diag_every = -1\n",
    ])
    def test_nonpositive_diag_every(self, text):
        with pytest.raises(ConfigError, match="diag_every must be positive"):
            parse_config(text)

    def test_negative_snapshot_every(self):
        with pytest.raises(ConfigError, match="snapshot_every must be nonnegative"):
            parse_config(EULER_16 + "snapshot_every = -1\n")

    def test_falling_couette_time_axis_is_legal(self):
        cfg = parse_config("system = couette_linear\nmodes = 1:0:1\nt_start = 5\n"
                           "t_end = -1\n")
        assert cfg["t_end"] == -1.0

    def test_boundary_values_pass(self):
        assert parse_config("system = clm\nn = 8\nt_end = 1\ncfl = 0.5\n")["cfl"] == 0.5
        assert parse_config("system = selfsim\nn = 64\ndomain_half_width = 10\n")["n"] == 64
        assert parse_config("system = lemma_check\nweight_order = 4\n")["weight_order"] == 4
        assert parse_config(EULER_16 + "snapshot_every = 0\n")["snapshot_every"] == 0.0
        assert parse_config(EULER_16.replace("t_end = 1", "t_end = 0"))["t_end"] == 0.0
        band = EULER_16.replace("taylor_green", "random_bandlimited")
        assert parse_config(band + "kmax = 5\n")["kmax"] == 5
        assert parse_config(EULER_16 + "marker_lattice = 0\n")["marker_lattice"] == 0
        assert parse_config(EULER_16 + "marker_lattice = 8\n")["marker_lattice"] == 8
        assert parse_config("system = clm\nn = 8\nt_end = 1\ndt_max = 0\n")["dt_max"] == 0.0
