"""Flat key=value experiment configs with strict, line-numbered validation.

One assignment per line, ``#`` starts a comment, blank lines are ignored.
Every system has a fixed key table; unknown keys, duplicate keys, missing
required keys, and type mismatches are all rejected with the offending
line number so configs stay diffable and honest.  Values are then passed
through the library's own validators (grid sizes, CFL numbers, output
cadences, time horizons, profile and lemma parameters) and every preset
name is looked up in :data:`eulerlab.presets.REGISTRY`, so a config that
the run would reject fails here, before any output is written.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import euler2d, presets, selfsim
from .grids import Grid1, Grid2
from .stepping import check_casimir_powers, check_cfl, check_schedule, check_t_end


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent experiment config."""


SYSTEMS = ("euler2d", "couette_linear", "passive_scalar", "clm",
           "degregorio", "selfsim", "lemma_check", "ipm")

_REQUIRED = object()


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_mode_list(s: str) -> list[tuple[int, float, float]]:
    """Shear-frame bands as ``kx:eta0:amp`` triples separated by ``;``."""
    modes = []
    for part in s.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 3:
            raise ValueError(f"mode {part!r} is not kx:eta0:amp")
        modes.append((int(bits[0]), float(bits[1]), float(bits[2])))
    if not modes:
        raise ValueError("empty mode list")
    return modes


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(int(p) for p in s.replace(",", " ").split())


_TYPES = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "modes": _parse_mode_list,
    "ints": _parse_int_list,
}

# key -> (type name, default or _REQUIRED), per system; the common block
# applies everywhere.
_COMMON = {
    "system": ("str", _REQUIRED),
    "output_dir": ("str", "out"),
    "seed": ("int", 0),
}

# the grid, CFL number and horizon of the 2D time-stepping systems
_STEPPED_2D = {
    "nx": ("int", _REQUIRED),
    "ny": ("int", _REQUIRED),
    "cfl": ("float", 0.4),
    "t_end": ("float", _REQUIRED),
}

_SCHEMAS: dict[str, dict] = {
    "euler2d": {
        **_STEPPED_2D,
        "diag_every": ("float", 0.5),
        "preset": ("str", _REQUIRED),
        "eps": ("float", 1e-2),
        "kmax": ("int", 4),
        "rms": ("float", 0.2),
        "casimir_powers": ("ints", (4,)),
        "marker_lattice": ("int", 0),
        "snapshot_every": ("float", 0.0),
    },
    "couette_linear": {
        "modes": ("modes", _REQUIRED),
        "t_start": ("float", 0.0),
        "t_end": ("float", _REQUIRED),
        "t_count": ("int", 181),
    },
    "passive_scalar": {
        **_STEPPED_2D,
        "diag_every": ("float", 1.0),
        "velocity": ("str", "shear_sin"),
        "test_function": ("str", "bessel_pair"),
    },
    "clm": {
        "n": ("int", _REQUIRED),
        "amplitude": ("float", 1.0),
        "cfl": ("float", 0.1),
        "t_end": ("float", _REQUIRED),
        "omega_cap": ("float", 0.0),
        "dt_max": ("float", 0.0),
        "tail_threshold": ("float", 1e-6),
    },
    "selfsim": {
        "n": ("int", 1024),
        "domain_half_width": ("float", 20.0),
        "model": ("str", "clm"),
        "lam0": ("float", 1.0),
        "tol": ("float", 1e-10),
        "max_iter": ("int", 25),
        "guess": ("str", "exact"),
        "perturb": ("float", 0.05),
    },
    "lemma_check": {
        "weight_order": ("int", 8),
        "delta": ("float", 0.1),
        "grid_points": ("int", 400),
        "grid_ratio": ("float", 1.1),
        "u_preset": ("str", "parabola"),
        "g_const": ("float", 1.0),
    },
    "ipm": {
        **_STEPPED_2D,
        "diag_every": ("float", 0.5),
        "preset": ("str", _REQUIRED),
        "eps": ("float", 1e-2),
        "tail_threshold": ("float", 1e-6),
    },
}
_SCHEMAS["degregorio"] = dict(_SCHEMAS["clm"])


def _check_values(system: str, params: dict) -> None:
    """Construct or check what the run would, without doing any of its work."""
    if system != "couette_linear" and "t_end" in params:
        check_t_end(params["t_end"])  # a falling couette time axis is legal
    if system in ("euler2d", "passive_scalar", "ipm"):
        grid = Grid2(params["nx"], params["ny"])
        check_schedule(params["cfl"], params["diag_every"],
                       params.get("snapshot_every", 0.0))
        if params.get("marker_lattice", 0) != 0:  # 0: no markers
            euler2d.check_weber_lattice(params["marker_lattice"])
        check_casimir_powers(params.get("casimir_powers", ()))
    elif system in ("clm", "degregorio"):
        Grid1(params["n"])
        check_cfl(params["cfl"])
        if not params["dt_max"] >= 0.0:  # 0: no cap
            raise ValueError("dt_max must be nonnegative (0 means no cap)")
    elif system == "couette_linear":
        euler2d.check_couette_modes(params["modes"])
        if params["t_count"] < 0:
            raise ValueError("t_count must be nonnegative")
    elif system == "selfsim":
        selfsim.ProfileProblem(n=params["n"], L=params["domain_half_width"],
                               model=params["model"])
        selfsim.check_max_iter(params["max_iter"])
    elif system == "lemma_check":
        selfsim.WeightedSpaceParams(N=params["weight_order"], delta=params["delta"],
                                    grid_points=params["grid_points"],
                                    grid_ratio=params["grid_ratio"])
    for key in presets.KEYS:
        if key in params:
            entry = presets.lookup(system, key, params[key])
            if "kmax" in entry.params:
                presets.check_kmax(grid, params["kmax"])


@dataclass
class ExperimentConfig:
    """A validated experiment description (system plus typed parameters)."""

    system: str
    params: dict = dc_field(default_factory=dict)

    def __getitem__(self, key):
        return self.params[key]

    def echo(self) -> dict:
        """Normalized, JSON-friendly key -> value map for manifests."""
        out = {"system": self.system}
        for k, v in sorted(self.params.items()):
            if isinstance(v, tuple):
                v = list(v)
            elif isinstance(v, list):
                v = [list(m) if isinstance(m, tuple) else m for m in v]
            out[k] = v
        return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key=value config; raise ConfigError otherwise."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        if key in raw:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {raw[key][1]})")
        raw[key] = (value, lineno)

    if "system" not in raw:
        raise ConfigError("missing key 'system'")
    system, sys_line = raw["system"]
    if system not in SYSTEMS:
        raise ConfigError(
            f"line {sys_line}: unknown system {system!r}; choose from {', '.join(SYSTEMS)}")

    schema = dict(_COMMON)
    schema.update(_SCHEMAS[system])

    params: dict = {}
    for key, (value, lineno) in raw.items():
        if key == "system":
            continue
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r} for system {system!r}")
        type_name, _ = schema[key]
        try:
            params[key] = _TYPES[type_name](value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value for {key!r} (expected {type_name}): {exc}") from None

    missing = [k for k, (_, default) in schema.items()
               if default is _REQUIRED and k != "system" and k not in params]
    if missing:
        raise ConfigError(f"missing required keys for system {system!r}: "
                          + ", ".join(sorted(missing)))

    for key, (_, default) in schema.items():
        if key != "system" and key not in params:
            params[key] = default

    if params["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    try:
        _check_values(system, params)
    except ValueError as exc:
        raise ConfigError(f"bad value for system {system!r}: {exc}") from None
    return ExperimentConfig(system=system, params=params)


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
