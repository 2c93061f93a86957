"""Run configuration: one JSON document shared by all CLI commands.

Layout::

    {
      "oscillator":   {"lambda": 0.2, "mu": 0.1, "m": 1.0, "omega": 1.0, "hbar": 1.0},
      "thermal":      {"C": 2.0},
      "initial":      {"delta": 4.0, "r": 0.0, "x0": 0.0, "p0": 0.0},
      "two_mode_env": {"Dxx": 0.1, "Dxpx": 0.0, "Dpxpx": 0.1,
                       "Dxy": 0.0, "Dxpy": 0.5, "Dpxpy": 0.0},
      "deco_grid":    {"t_min": 0.0, "t_max": 20.0, "t_steps": 21,
                       "c_min": 1.0, "c_max": 10.0, "c_steps": 10},
      "density":      {"t": 0.0, "x_min": -5.0, "x_max": 5.0, "n": 41},
      "propagate":    {"t_max": 50.0, "steps": 101},
      "scan":         {"dxx_min": 0.1, "dxx_max": 0.1, "dxx_steps": 1,
                       "dxpy_min": 0.0, "dxpy_max": 1.5, "dxpy_steps": 151}
    }

Only "oscillator" is always required; each command states which further
sections it needs.  The two-mode environment is given by its six free
mirror-symmetric coefficients; its dissipation constant is
oscillator.lambda.  Grid sections hold per-command defaults that CLI
flags override.

Structural problems (missing file, bad JSON, unknown or missing keys,
non-numeric values) raise :class:`ConfigError`; values that parse but
violate physical constraints raise the usual parameter errors from the
value-type constructors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .core import (OscillatorParams, ThermalParams, TwoModeEnvironment,
                   require_coherent_state_params)
from .errors import ConfigError

__all__ = ["InitialConditions", "RunConfig", "load_config"]

_GRID_SECTIONS = ("deco_grid", "density", "propagate", "scan")

_SECTION_KEYS = {
    "oscillator": {"lambda", "mu", "m", "omega", "hbar"},
    "thermal": {"C"},
    "initial": {"delta", "r", "x0", "p0"},
    "two_mode_env": {"Dxx", "Dxpx", "Dpxpx", "Dxy", "Dxpy", "Dpxpy"},
    "deco_grid": {"t_min", "t_max", "t_steps", "c_min", "c_max", "c_steps"},
    "density": {"t", "x_min", "x_max", "n"},
    "propagate": {"t_max", "steps"},
    "scan": {"dxx_min", "dxx_max", "dxx_steps", "dxpy_min", "dxpy_max", "dxpy_steps"},
}


@dataclass(frozen=True)
class InitialConditions:
    delta: float
    r: float
    x0: float = 0.0
    p0: float = 0.0

    def __post_init__(self):
        require_coherent_state_params(self.delta, self.r)


@dataclass(frozen=True)
class RunConfig:
    oscillator: OscillatorParams
    thermal: ThermalParams | None = None
    initial: InitialConditions | None = None
    two_mode_env: TwoModeEnvironment | None = None
    grids: dict = field(default_factory=dict)

    def require(self, section: str, command: str):
        """Return the named section, or raise ConfigError naming the command."""
        value = getattr(self, section)
        if value is None:
            raise ConfigError(f"command '{command}' requires config section '{section}'")
        return value


def _section(raw: dict, name: str, required: bool) -> dict | None:
    if name not in raw:
        if required:
            raise ConfigError(f"missing required config section '{name}'")
        return None
    body = raw[name]
    if not isinstance(body, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    unknown = set(body) - _SECTION_KEYS[name]
    if unknown:
        raise ConfigError(f"unknown keys in section '{name}': {sorted(unknown)}")
    return body


def _number(section: str, body: dict, key: str, default=None) -> float:
    if key not in body:
        if default is None:
            raise ConfigError(f"section '{section}' is missing key '{key}'")
        return default
    value = body[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{section}.{key}' must be a number, got {value!r}")
    return float(value)


def load_config(path) -> RunConfig:
    """Parse and structurally validate a JSON run configuration."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    osc_body = _section(raw, "oscillator", required=True)
    oscillator = OscillatorParams(
        lam=_number("oscillator", osc_body, "lambda"),
        mu=_number("oscillator", osc_body, "mu", 0.0),
        m=_number("oscillator", osc_body, "m", 1.0),
        omega=_number("oscillator", osc_body, "omega", 1.0),
        hbar=_number("oscillator", osc_body, "hbar", 1.0),
    )

    thermal = None
    body = _section(raw, "thermal", required=False)
    if body is not None:
        thermal = ThermalParams(C=_number("thermal", body, "C"))

    initial = None
    body = _section(raw, "initial", required=False)
    if body is not None:
        initial = InitialConditions(
            delta=_number("initial", body, "delta"),
            r=_number("initial", body, "r"),
            x0=_number("initial", body, "x0", 0.0),
            p0=_number("initial", body, "p0", 0.0),
        )

    env = None
    body = _section(raw, "two_mode_env", required=False)
    if body is not None:
        env = TwoModeEnvironment.symmetric_env(
            Dxx=_number("two_mode_env", body, "Dxx"),
            Dxpx=_number("two_mode_env", body, "Dxpx"),
            Dpxpx=_number("two_mode_env", body, "Dpxpx"),
            Dxy=_number("two_mode_env", body, "Dxy"),
            Dxpy=_number("two_mode_env", body, "Dxpy"),
            Dpxpy=_number("two_mode_env", body, "Dpxpy"),
            lam=oscillator.lam,
        )

    grids = {}
    for name in _GRID_SECTIONS:
        body = _section(raw, name, required=False)
        if body is not None:
            grids[name] = {k: _number(name, body, k) for k in body}

    return RunConfig(oscillator=oscillator, thermal=thermal, initial=initial,
                     two_mode_env=env, grids=grids)
