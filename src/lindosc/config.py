"""Run configuration: one JSON document shared by all CLI commands.

Layout::

    {
      "oscillator":   {"lambda": 0.2, "mu": 0.1, "m": 1.0, "omega": 1.0, "hbar": 1.0},
      "thermal":      {"C": 2.0},
      "initial":      {"delta": 4.0, "r": 0.0, "x0": 0.0, "p0": 0.0},
      "two_mode_env": {"Dxx": 0.1, "Dxpx": 0.0, "Dpxpx": 0.1,
                       "Dxy": 0.0, "Dxpy": 0.5, "Dpxpy": 0.0},
      "deco_grid":    {"t_min": ..., "t_max": ..., "t_steps": ...,
                       "c_min": ..., "c_max": ..., "c_steps": ...},
      "density":      {"t": ..., "x_min": ..., "x_max": ..., "n": ...},
      "propagate":    {"t_max": ..., "steps": ...},
      "scan":         {"dxx_min": ..., "dxx_max": ..., "dxx_steps": ...,
                       "dxpy_min": ..., "dxpy_max": ..., "dxpy_steps": ...}
    }

:data:`SECTIONS` declares every key with its default.  Only "oscillator"
is always required; each command states which further sections it needs.
The two-mode environment is given by its six free mirror-symmetric
coefficients; its dissipation constant is oscillator.lambda.  Grid
sections hold per-command settings that CLI flags override.

Structural problems (missing file, bad JSON, unknown or missing keys,
values that are not finite numbers, fractions for integer keys) raise
:class:`ConfigError`; values that parse but violate physical constraints
raise the usual parameter errors from the value-type constructors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import (OscillatorParams, ThermalParams, TwoModeEnvironment,
                   require_coherent_state_params)
from .errors import ConfigError

__all__ = ["SECTIONS", "InitialConditions", "RunConfig", "load_config"]

#: Every config section with the default of each of its keys.  An int default
#: makes the key an integer.  None means no default: the key is required,
#: except in a grid section, whose command fills it (scan's Dxx range follows
#: two_mode_env.Dxx).  A grid section's keys are also its command's flags.
SECTIONS = {
    "oscillator": {"lambda": None, "mu": 0.0, "m": 1.0, "omega": 1.0, "hbar": 1.0},
    "thermal": {"C": None},
    "initial": {"delta": None, "r": None, "x0": 0.0, "p0": 0.0},
    "two_mode_env": dict.fromkeys(["Dxx", "Dxpx", "Dpxpx", "Dxy", "Dxpy", "Dpxpy"]),
    "deco_grid": {"t_min": 0.0, "t_max": 20.0, "t_steps": 21,
                  "c_min": 1.0, "c_max": 10.0, "c_steps": 10},
    "density": {"t": 0.0, "x_min": -5.0, "x_max": 5.0, "n": 41},
    "propagate": {"t_max": 50.0, "steps": 101},
    "scan": {"dxx_min": None, "dxx_max": None, "dxx_steps": 1,
             "dxpy_min": 0.0, "dxpy_max": 1.5, "dxpy_steps": 151},
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


def _section(raw: dict, name: str, required: bool) -> dict:
    """Section ``name`` of ``raw`` checked against ``SECTIONS[name]``, defaults filled.

    Each value must be a finite number, and a whole one where the default is
    an int.  With ``required``, a key without a default must be given.
    """
    body = raw[name]
    if not isinstance(body, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    defaults = SECTIONS[name]
    unknown = set(body) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in section '{name}': {sorted(unknown)}")
    values = dict(defaults)
    for key, value in body.items():
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int past float range
            finite = False
        if not finite:
            raise ConfigError(f"'{name}.{key}' must be a finite number, got {value!r}")
        if isinstance(defaults[key], int):
            if value != int(value):
                raise ConfigError(f"'{name}.{key}' must be an integer, got {value!r}")
            values[key] = int(value)
        else:
            values[key] = float(value)
    missing = [key for key, value in values.items() if value is None]
    if required and missing:
        raise ConfigError(f"section '{name}' is missing key '{missing[0]}'")
    return values


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
    unknown = set(raw) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if "oscillator" not in raw:
        raise ConfigError("missing required config section 'oscillator'")

    # the sections built into objects need every key; a grid section leaves
    # a key without a default to its command
    objects = ("oscillator", "thermal", "initial", "two_mode_env")
    sections = {name: _section(raw, name, name in objects) for name in raw}
    osc, thermal, initial, env = (sections.pop(name, None) for name in objects)
    oscillator = OscillatorParams(lam=osc.pop("lambda"), **osc)
    return RunConfig(
        oscillator=oscillator,
        thermal=thermal and ThermalParams(**thermal),
        initial=initial and InitialConditions(**initial),
        two_mode_env=env and TwoModeEnvironment.symmetric_env(**env, lam=oscillator.lam),
        grids=sections,
    )
