"""Command-line front end.

Subcommands: validate, deco-grid, density, timescales, asymptotic,
propagate, scan.  All numeric output is CSV with values rendered in
scientific notation at 15 significant digits, so identical configs and
flags produce bit-identical files.  Diagnostics go to standard error.

Exit codes: 0 on success, 1 for usage or configuration errors, 2 for
physical-validity failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext

import numpy as np

from . import single_mode
from .config import RunConfig, load_config
from .core import (
    NODE_BLOCK,
    ThermalParams,
    correlated_coherent_state,
    gibbs_coefficients,
    validate_single_mode,
    validate_two_mode,
)
from .errors import ConfigError, LindoscError, ParameterError
from .lyapunov import residual as lyapunov_residual
from .separability import (
    is_separable,
    scan_separability,
    simon_score,
    simon_score_closed_form,
)
from .two_mode import (
    det_cross_block,
    diffusion_matrix,
    drift_matrix,
    propagate_covariance,
    steady_covariance,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2

#: CSV ordering of the ten independent entries of a 4x4 covariance matrix.
COV_ENTRIES = (
    ("sigma_xx", 0, 0), ("sigma_xpx", 0, 1), ("sigma_xy", 0, 2), ("sigma_xpy", 0, 3),
    ("sigma_pxpx", 1, 1), ("sigma_ypx", 1, 2), ("sigma_pxpy", 1, 3),
    ("sigma_yy", 2, 2), ("sigma_ypy", 2, 3), ("sigma_pypy", 3, 3),
)


_BOOL_TEXT = np.array(["false", "true"], dtype=object)


def _bool_text(mask: np.ndarray) -> np.ndarray:
    """CSV text of a boolean array, one shared str object per value."""
    return _BOOL_TEXT[mask.astype(np.intp)]


def _cell_format(kind: type) -> str:
    return "%.14e" if issubclass(kind, (float, np.floating)) else "%s"


class CsvTable:
    """Rectangular table rendered deterministically.

    Floats render as ``%.14e`` (15 significant digits), bools as
    ``true``/``false``, everything else through ``str``.  Each row is
    rendered with a ``%`` template chosen by the types of its values, so a
    column may mix types.
    """

    def __init__(self, columns):
        self.columns = list(columns)
        self.rows = []

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(values)

    def add_columns(self, *columns):
        """Append one row per entry of the equally long 1-D ``columns``."""
        if len(columns) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} columns, got {len(columns)}")
        values = [np.asarray(c).tolist() for c in columns]
        if len({len(v) for v in values}) > 1:
            raise ValueError(f"columns differ in length: {[len(v) for v in values]}")
        self.rows.extend(zip(*values))

    def render(self) -> str:
        templates = {}
        chunks = [",".join(self.columns)]
        for start in range(0, len(self.rows), NODE_BLOCK):
            lines = []
            for row in self.rows[start:start + NODE_BLOCK]:
                kinds = tuple(map(type, row))
                template = templates.get(kinds)
                if template is None:
                    template = templates[kinds] = ",".join(map(_cell_format, kinds))
                if bool in kinds:
                    row = tuple(("true" if v else "false") if type(v) is bool else v
                                for v in row)
                lines.append(template % row)
            chunks.append("\n".join(lines))
        chunks.append("")  # the final newline, without a second copy of the text
        return "\n".join(chunks)


def _emit(text: str, out_path):
    # Written in slices: encoding the whole text at once would hold a second
    # full copy of it, as bytes, at the command's peak memory.
    with open(out_path, "w", newline="\n") if out_path else nullcontext(sys.stdout) as fh:
        for start in range(0, len(text), 1 << 16):
            fh.write(text[start:start + (1 << 16)])


def _grid_setting(cfg: RunConfig, section: str, key: str, flag_value, default):
    """Precedence: CLI flag, then config grid section, then built-in default."""
    if flag_value is not None:
        return flag_value
    return cfg.grids.get(section, {}).get(key, default)


def _linspace(lo: float, hi: float, steps, what: str) -> np.ndarray:
    steps = int(steps)
    if steps < 1:
        raise ConfigError(f"{what}: steps must be >= 1, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{what}: min and max must be finite, got {lo!r} and {hi!r}")
    if hi < lo:
        raise ConfigError(f"{what}: max {hi!r} is below min {lo!r}")
    return np.linspace(float(lo), float(hi), steps)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_validate(cfg: RunConfig, args) -> int:
    thermal = cfg.require("thermal", "validate")
    env = gibbs_coefficients(cfg.oscillator, thermal)
    report = validate_single_mode(env, thermal)
    print("single_mode (thermal coefficients):")
    for line in report.lines():
        print("  " + line)
    all_passed = report.passed
    if cfg.two_mode_env is not None:
        report2 = validate_two_mode(cfg.two_mode_env)
        print("two_mode (environment Gram matrix):")
        for line in report2.lines():
            print("  " + line)
        all_passed = all_passed and report2.passed
    return EXIT_OK if all_passed else EXIT_INVALID


def cmd_deco_grid(cfg: RunConfig, args) -> int:
    initial = cfg.require("initial", "deco-grid")
    params = cfg.oscillator
    c_grid = _linspace(
        _grid_setting(cfg, "deco_grid", "c_min", args.c_min, 1.0),
        _grid_setting(cfg, "deco_grid", "c_max", args.c_max, 10.0),
        _grid_setting(cfg, "deco_grid", "c_steps", args.c_steps, 10),
        "C grid",
    )
    if args.asymptotic:
        t_grid = np.array([math.inf])
    else:
        t_grid = _linspace(
            _grid_setting(cfg, "deco_grid", "t_min", args.t_min, 0.0),
            _grid_setting(cfg, "deco_grid", "t_max", args.t_max, 20.0),
            _grid_setting(cfg, "deco_grid", "t_steps", args.t_steps, 21),
            "t grid",
        )

    # (C, its thermal parameters or None where the Gibbs coefficients fail)
    c_nodes = []
    for c in c_grid.tolist():
        thermal = ThermalParams(C=c)
        valid = validate_single_mode(gibbs_coefficients(params, thermal), thermal).passed
        c_nodes.append((c, thermal if valid else None))

    columns = ["t", "C", "sigma_det", "delta_qd"]
    if args.skip_invalid:
        columns.append("status")
    table = CsvTable(columns)
    for t in t_grid.tolist():
        for c, thermal in c_nodes:
            if thermal is None:
                if not args.skip_invalid:
                    print(f"invalid thermal coefficients at C={c!r} "
                          "(rerun with --skip-invalid to keep going)", file=sys.stderr)
                    return EXIT_INVALID
                table.add(t, c, math.nan, math.nan, "invalid")
                continue
            sigma = single_mode.uncertainty_determinant(initial.delta, initial.r,
                                                        params, thermal, t)
            qd = single_mode.degree_from_uncertainty(sigma, params, thermal, t)
            row = [t, c, sigma, qd]
            if args.skip_invalid:
                row.append("ok")
            table.add(*row)
    _emit(table.render(), args.out)
    return EXIT_OK


def cmd_density(cfg: RunConfig, args) -> int:
    params = cfg.oscillator
    thermal = cfg.require("thermal", "density")
    n = int(_grid_setting(cfg, "density", "n", args.n, 41))
    if n < 2:
        raise ConfigError(f"density grid needs n >= 2, got {n}")
    x_grid = _linspace(
        _grid_setting(cfg, "density", "x_min", args.x_min, -5.0),
        _grid_setting(cfg, "density", "x_max", args.x_max, 5.0),
        n,
        "x grid",
    )

    table = CsvTable(["x", "xp", "re", "im"])
    if args.stationary:
        for x in x_grid:
            for xp in x_grid:
                value = single_mode.stationary_density_matrix_element(
                    params, thermal, float(x), float(xp))
                table.add(float(x), float(xp), value, 0.0)
    else:
        initial = cfg.require("initial", "density")
        t = float(_grid_setting(cfg, "density", "t", args.t, 0.0))
        env = gibbs_coefficients(params, thermal)
        state0 = correlated_coherent_state(initial.delta, initial.r, params,
                                           x0=initial.x0, p0=initial.p0)
        state = single_mode.propagate_moments(state0, env, params, t)
        for x in x_grid:
            for xp in x_grid:
                value = single_mode.density_matrix_element(state, float(x), float(xp))
                table.add(float(x), float(xp), value.real, value.imag)
    _emit(table.render(), args.out)
    return EXIT_OK


def cmd_timescales(cfg: RunConfig, args) -> int:
    params = cfg.oscillator
    thermal = cfg.require("thermal", "timescales")
    initial = cfg.require("initial", "timescales")
    delta, r = initial.delta, initial.r

    table = CsvTable(["name", "value"])
    table.add("t_deco_general",
              single_mode.decoherence_time(delta, r, params, thermal, "general"))
    if r == 0.0:
        table.add("t_deco_r0",
                  single_mode.decoherence_time(delta, r, params, thermal, "r0"))
    if thermal.C == 1.0:
        table.add("t_deco_zero_temperature",
                  single_mode.decoherence_time(delta, r, params, thermal,
                                               "zero_temperature"))
    table.add("t_deco_high_temperature",
              single_mode.decoherence_time(delta, r, params, thermal,
                                           "high_temperature"))
    table.add("t_thermal_fluctuation",
              single_mode.thermal_fluctuation_time(delta, r, params, thermal))
    table.add("t_relaxation", single_mode.relaxation_time(params))
    _emit(table.render(), args.out)
    return EXIT_OK


def _warn_env_validity(env):
    report = validate_two_mode(env)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        print(f"warning: environment fails positivity checks ({names}); "
              "results describe the formal dynamics", file=sys.stderr)


def cmd_asymptotic(cfg: RunConfig, args) -> int:
    params = cfg.oscillator
    env = cfg.require("two_mode_env", "asymptotic")
    _warn_env_validity(env)
    Y = drift_matrix(params)
    D = diffusion_matrix(env)
    s_inf = steady_covariance(Y, D)
    resid = lyapunov_residual(Y, s_inf, D)
    score = simon_score(s_inf)
    verdict = is_separable(s_inf).verdict
    det_c = det_cross_block(env, params)

    closed_score = None
    try:
        candidate = simon_score_closed_form(env, params)
    except LindoscError:
        candidate = None
    if candidate is not None and det_c <= 1e-12:
        closed_score = candidate
        if abs(closed_score - score) > 1e-10 * max(1.0, abs(score)):
            raise ParameterError(
                f"closed-form and full separability scores disagree: "
                f"{closed_score!r} vs {score!r}"
            )

    table = CsvTable(["name", "value"])
    for name, i, j in COV_ENTRIES:
        table.add(name, float(s_inf[i, j]))
    table.add("det_cross_block", det_c)
    table.add("simon_score", score)
    if closed_score is not None:
        table.add("simon_score_closed_form", closed_score)
    table.add("separable", verdict)
    table.add("lyapunov_residual", resid)
    _emit(table.render(), args.out)
    return EXIT_OK


def cmd_propagate(cfg: RunConfig, args) -> int:
    params = cfg.oscillator
    initial = cfg.require("initial", "propagate")
    env = cfg.require("two_mode_env", "propagate")
    _warn_env_validity(env)
    t_grid = _linspace(
        0.0,
        _grid_setting(cfg, "propagate", "t_max", args.t_max, 50.0),
        _grid_setting(cfg, "propagate", "steps", args.steps, 101),
        "t grid",
    )
    state1 = correlated_coherent_state(initial.delta, initial.r, params,
                                       x0=initial.x0, p0=initial.p0)
    block = state1.covariance()
    sigma0 = np.zeros((4, 4))
    sigma0[:2, :2] = block
    sigma0[2:, 2:] = block

    table = CsvTable(["t"] + [name for name, _, _ in COV_ENTRIES] + ["simon_score"])
    cov_i, cov_j = [i for _, i, _ in COV_ENTRIES], [j for _, _, j in COV_ENTRIES]
    for start in range(0, t_grid.size, NODE_BLOCK):
        t = t_grid[start:start + NODE_BLOCK]
        sigma = propagate_covariance(sigma0, env, params, t)
        table.add_columns(t, *sigma[:, cov_i, cov_j].T, simon_score(sigma))
    _emit(table.render(), args.out)
    return EXIT_OK


def cmd_scan(cfg: RunConfig, args) -> int:
    params = cfg.oscillator
    env = cfg.require("two_mode_env", "scan")
    dxx_grid = _linspace(
        _grid_setting(cfg, "scan", "dxx_min", args.dxx_min, env.Dxx),
        _grid_setting(cfg, "scan", "dxx_max", args.dxx_max, env.Dxx),
        _grid_setting(cfg, "scan", "dxx_steps", args.dxx_steps, 1),
        "Dxx grid",
    )
    dxpy_grid = _linspace(
        _grid_setting(cfg, "scan", "dxpy_min", args.dxpy_min, 0.0),
        _grid_setting(cfg, "scan", "dxpy_max", args.dxpy_max, 1.5),
        _grid_setting(cfg, "scan", "dxpy_steps", args.dxpy_steps, 151),
        "Dxpy grid",
    )
    scan = scan_separability(env, params, dxx_grid, dxpy_grid)
    separable = np.where(scan.boundary, "boundary", _bool_text(scan.separable))
    if scan.in_window is None:
        in_window = np.full(scan.Dxx.size, "", dtype=object)
    else:
        in_window = _bool_text(scan.in_window)
    table = CsvTable(["Dxx", "Dxpy", "S", "separable", "in_window", "status"])
    table.add_columns(scan.Dxx, scan.Dxpy, scan.score, separable, in_window, scan.status)
    del scan, separable, in_window  # the rows hold the values; free the arrays before rendering
    _emit(table.render(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lindosc",
                     description="Gaussian dynamics of damped quantum oscillators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, "check parameter validity, exit 2 on failure")

    p = add("deco-grid", cmd_deco_grid, "decoherence degree over a (t, C) grid")
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--t-steps", type=int, default=None)
    p.add_argument("--c-min", type=float, default=None)
    p.add_argument("--c-max", type=float, default=None)
    p.add_argument("--c-steps", type=int, default=None)
    p.add_argument("--asymptotic", action="store_true",
                   help="emit the infinite-time values instead of the t grid")
    p.add_argument("--skip-invalid", action="store_true",
                   help="mark C nodes failing validation instead of aborting")

    p = add("density", cmd_density, "density matrix on an (x, x') grid")
    p.add_argument("--t", type=float, default=None, help="evolution time (default 0)")
    p.add_argument("--stationary", action="store_true",
                   help="emit the infinite-time thermal state instead")
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="grid points per axis")

    p = add("timescales", cmd_timescales, "characteristic time scales")

    p = add("asymptotic", cmd_asymptotic,
            "asymptotic two-mode covariance and separability")

    p = add("propagate", cmd_propagate, "two-mode covariance trajectory")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)

    p = add("scan", cmd_scan, "separability scan over (Dxx, Dxpy)")
    p.add_argument("--dxx-min", type=float, default=None)
    p.add_argument("--dxx-max", type=float, default=None)
    p.add_argument("--dxx-steps", type=int, default=None)
    p.add_argument("--dxpy-min", type=float, default=None)
    p.add_argument("--dxpy-max", type=float, default=None)
    p.add_argument("--dxpy-steps", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LindoscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
