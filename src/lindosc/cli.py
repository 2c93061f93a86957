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

from . import lyapunov, single_mode
from .config import SECTIONS, RunConfig, load_config
from .core import (
    NODE_BLOCK,
    ThermalParams,
    correlated_coherent_state,
    gibbs_coefficients,
    validate_single_mode,
    validate_two_mode,
)
from .errors import ConfigError, LindoscError, ParameterError
from .separability import (
    closed_form_route,
    scan_separability,
    simon_score,
    simon_verdicts,
)
from .two_mode import (
    _block_diagonal,
    det_cross_block,
    diffusion_matrix,
    drift_matrix,
    propagate_covariance,
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
_STATUS_TEXT = np.array(["invalid", "ok"], dtype=object)


def _bool_text(mask: np.ndarray, text: np.ndarray = _BOOL_TEXT) -> np.ndarray:
    """CSV text of a boolean array, one shared str object per value."""
    return text[mask.astype(np.intp)]


def _cell_array(value) -> np.ndarray:
    """One-entry column for :meth:`CsvTable.add`, typed by the value."""
    if type(value) is bool:
        return np.array([value])
    if isinstance(value, (float, np.floating)):
        return np.array([value], dtype=float)
    return np.array([value], dtype=object)


class _Rows:
    """Row count and row tuples of a :class:`CsvTable`, built on access."""

    def __init__(self, blocks):
        self._blocks = blocks

    def __len__(self):
        return sum(len(cells[0]) for cells in self._blocks)

    def __iter__(self):
        for cells in self._blocks:
            yield from zip(*(c.tolist() for c in cells))


class CsvTable:
    """Rectangular table rendered deterministically.

    The table keeps blocks of equally long 1-D column arrays: one block per
    :meth:`add_columns` call, and a block of one row per :meth:`add`.  Each
    column renders by its dtype: floats as ``%.14e`` (15 significant
    digits), bools as ``true``/``false``, everything else through ``str``.
    :meth:`add` types each value on its own, so a column may mix types.
    A float column that repeats its values, such as a grid coordinate,
    formats each distinct value once; the text is the same.
    """

    def __init__(self, columns):
        self.columns = list(columns)
        self._blocks = []

    @property
    def rows(self) -> _Rows:
        return _Rows(self._blocks)

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self._blocks.append(tuple(map(_cell_array, values)))

    def add_columns(self, *columns):
        """Append one row per entry of the equally long 1-D ``columns``."""
        if len(columns) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} columns, got {len(columns)}")
        cells = tuple(map(np.asarray, columns))
        if len({c.shape for c in cells}) > 1 or cells[0].ndim != 1:
            raise ValueError(f"columns differ in shape: {[c.shape for c in cells]}")
        self._blocks.append(cells)

    def render(self) -> str:
        width = len(self.columns)
        chunks = [",".join(self.columns)]
        for cells in self._blocks:
            # one function per column, from a slice of rows to its cell values
            formats, cell_values = [], []
            for c in cells:
                texts = _repeated_float_text(c) if c.dtype.kind == "f" else None
                formats.append("%.14e" if c.dtype.kind == "f" and texts is None else "%s")
                cell_values.append(texts or (_bool_text(c) if c.dtype == bool else c).__getitem__)
            line, size = ",".join(formats), len(cells[0])
            for start in range(0, size, NODE_BLOCK):
                k = min(NODE_BLOCK, size - start)
                flat = [None] * (k * width)  # row-major cells of k rows
                for j, values in enumerate(cell_values):
                    flat[j::width] = values(slice(start, start + k)).tolist()
                chunks.append("\n".join([line] * k) % tuple(flat))
        chunks.append("")  # the final newline, without a second copy of the text
        return "\n".join(chunks)


def _repeated_float_text(c: np.ndarray):
    """Texts of a float column that repeats its values, else None.

    A column with at most a quarter as many distinct values as rows (a grid
    coordinate) formats each distinct value once.  The result maps a slice
    of rows to their texts.  Values are keyed on their bit pattern, so -0.0
    and 0.0 stay apart; wider floats than 8 bytes carry padding bits and
    are not keyed.
    """
    if c.itemsize > 8:
        return None
    keys = c.view(f"i{c.itemsize}")
    ordered = np.sort(keys)
    new = ordered[1:] != ordered[:-1]
    if 4 * (1 + np.count_nonzero(new)) > c.size:
        return None
    distinct = ordered[np.concatenate(([True], new))]
    texts = np.array(["%.14e" % v for v in distinct.view(c.dtype).tolist()], dtype=object)
    return lambda rows: texts[np.searchsorted(distinct, keys[rows])]


def _emit(text: str, out_path):
    try:
        target = open(out_path, "w", newline="\n") if out_path else nullcontext(sys.stdout)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path}: {exc.strerror}") from exc
    # Written in slices: encoding the whole text at once would hold a second
    # full copy of it, as bytes, at the command's peak memory.
    with target as fh:
        for start in range(0, len(text), 1 << 16):
            fh.write(text[start:start + (1 << 16)])


def _grid(cfg: RunConfig, args, section: str) -> dict:
    """A grid section's settings: a given flag wins, then the config, then SECTIONS."""
    values = cfg.grids.get(section, SECTIONS[section])
    return {key: value if getattr(args, key) is None else getattr(args, key)
            for key, value in values.items()}


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
    reports = [("single_mode (thermal coefficients)", validate_single_mode(env, thermal))]
    if cfg.two_mode_env is not None:
        reports.append(("two_mode (environment Gram matrix)",
                        validate_two_mode(cfg.two_mode_env)))
    lines = []
    for title, report in reports:
        lines += [title + ":"] + ["  " + line for line in report.lines()]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(report.passed for _, report in reports) else EXIT_INVALID


def cmd_deco_grid(cfg: RunConfig, args) -> int:
    initial = cfg.require("initial", "deco-grid")
    params = cfg.oscillator
    grid = _grid(cfg, args, "deco_grid")
    c_grid = _linspace(grid["c_min"], grid["c_max"], grid["c_steps"], "C grid")
    if args.asymptotic:
        t_grid = np.array([math.inf])
    else:
        t_grid = _linspace(grid["t_min"], grid["t_max"], grid["t_steps"], "t grid")

    valid = []
    for c in c_grid.tolist():
        thermal = ThermalParams(C=c)
        valid.append(validate_single_mode(gibbs_coefficients(params, thermal), thermal).passed)
    valid = np.array(valid, dtype=bool)
    if not (args.skip_invalid or valid.all()):
        print(f"invalid thermal coefficients at C={c_grid[~valid][0].item()!r} "
              "(rerun with --skip-invalid to keep going)", file=sys.stderr)
        return EXIT_INVALID

    # row-major nodes: t outer, C inner; only the valid ones are evaluated
    t = np.repeat(t_grid, c_grid.size)
    C = np.tile(c_grid, t_grid.size)
    ok = np.tile(valid, t_grid.size)
    sigma = np.full(t.size, math.nan)
    qd = np.full(t.size, math.nan)
    if ok.any():
        c_ok, t_ok = C[ok], t[ok]
        sigma_ok = single_mode.uncertainty_determinants(initial.delta, initial.r,
                                                        params, c_ok, t_ok)
        sigma[ok] = sigma_ok
        qd[ok] = single_mode.degrees_from_uncertainty(sigma_ok, params, c_ok, t_ok)
    columns = {"t": t, "C": C, "sigma_det": sigma, "delta_qd": qd}
    if args.skip_invalid:
        columns["status"] = _bool_text(ok, _STATUS_TEXT)
    table = CsvTable(columns)
    table.add_columns(*columns.values())
    _emit(table.render(), args.out)
    return EXIT_OK


def cmd_density(cfg: RunConfig, args) -> int:
    params = cfg.oscillator
    thermal = cfg.require("thermal", "density")
    grid = _grid(cfg, args, "density")
    if grid["n"] < 2:
        raise ConfigError(f"density grid needs n >= 2, got {grid['n']}")
    x_grid = _linspace(grid["x_min"], grid["x_max"], grid["n"], "x grid")

    x, xp = (a.ravel() for a in np.meshgrid(x_grid, x_grid, indexing="ij"))
    table = CsvTable(["x", "xp", "re", "im"])
    if args.stationary:
        value = single_mode.stationary_density_matrix_element(params, thermal, x, xp)
        table.add_columns(x, xp, value, np.zeros(value.size))
    else:
        initial = cfg.require("initial", "density")
        env = gibbs_coefficients(params, thermal)
        state0 = correlated_coherent_state(initial.delta, initial.r, params,
                                           x0=initial.x0, p0=initial.p0)
        state = single_mode.propagate_moments(state0, env, params, grid["t"])
        value = single_mode.density_matrix_element(state, x, xp)
        table.add_columns(x, xp, value.real, value.imag)
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
    s_inf = lyapunov.steady_covariance(Y, D)
    resid = lyapunov.residual(Y, s_inf, D)
    full = simon_verdicts(s_inf)
    det_c = det_cross_block(env, params)

    # The closed form takes det C where the criterion takes -|det C|, so the
    # two routes give the same S only where det C <= 0; there they must
    # agree within the sum of their rounding bounds.
    closed_score = None
    try:
        closed_score, closed_bound = closed_form_route(env, params)
    except LindoscError:
        pass
    if det_c > 0.0:
        closed_score = None
    if closed_score is not None and abs(closed_score - full.score) > closed_bound + full.bound:
        raise ParameterError(
            f"closed-form and full separability scores disagree: "
            f"{closed_score!r} vs {full.score!r}"
        )

    table = CsvTable(["name", "value"])
    for name, i, j in COV_ENTRIES:
        table.add(name, float(s_inf[i, j]))
    table.add("det_cross_block", det_c)
    table.add("simon_score", full.score)
    if closed_score is not None:
        table.add("simon_score_closed_form", closed_score)
    table.add("separable", full.verdict)
    table.add("lyapunov_residual", resid)
    _emit(table.render(), args.out)
    return EXIT_OK


def cmd_propagate(cfg: RunConfig, args) -> int:
    params = cfg.oscillator
    initial = cfg.require("initial", "propagate")
    env = cfg.require("two_mode_env", "propagate")
    _warn_env_validity(env)
    grid = _grid(cfg, args, "propagate")
    t_grid = _linspace(0.0, grid["t_max"], grid["steps"], "t grid")
    state1 = correlated_coherent_state(initial.delta, initial.r, params,
                                       x0=initial.x0, p0=initial.p0)
    sigma0 = _block_diagonal(state1.covariance())

    table = CsvTable(["t"] + [name for name, _, _ in COV_ENTRIES] + ["simon_score"])
    cov_i, cov_j = [i for _, i, _ in COV_ENTRIES], [j for _, _, j in COV_ENTRIES]
    sigma = propagate_covariance(sigma0, env, params, t_grid)
    for start in range(0, t_grid.size, NODE_BLOCK):
        block = slice(start, start + NODE_BLOCK)
        table.add_columns(t_grid[block], *sigma[block, cov_i, cov_j].T, simon_score(sigma[block]))
    del sigma  # the table holds copies of its entries; rendering is the peak of memory
    _emit(table.render(), args.out)
    return EXIT_OK


def cmd_scan(cfg: RunConfig, args) -> int:
    params = cfg.oscillator
    env = cfg.require("two_mode_env", "scan")
    grid = _grid(cfg, args, "scan")
    dxx_grid = _linspace(env.Dxx if grid["dxx_min"] is None else grid["dxx_min"],
                         env.Dxx if grid["dxx_max"] is None else grid["dxx_max"],
                         grid["dxx_steps"], "Dxx grid")
    dxpy_grid = _linspace(grid["dxpy_min"], grid["dxpy_max"], grid["dxpy_steps"],
                          "Dxpy grid")
    scan = scan_separability(env, params, dxx_grid, dxpy_grid)
    separable = np.where(scan.boundary, "boundary", _bool_text(scan.separable))
    in_window = scan.in_window
    if in_window is None:
        in_window = np.full(scan.Dxx.size, "", dtype=object)
    table = CsvTable(["Dxx", "Dxpy", "S", "separable", "in_window", "status"])
    table.add_columns(scan.Dxx, scan.Dxpy, scan.score, separable, in_window, scan.status)
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

    def add(name, func, help_text, grid=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="write the output here instead of stdout")
        # one flag per key of the command's config grid section: t_min is --t-min
        for key, default in SECTIONS.get(grid, {}).items():
            p.add_argument("--" + key.replace("_", "-"),
                           type=int if isinstance(default, int) else float,
                           help=f"overrides {grid}.{key}"
                           + ("" if default is None else f" (default {default})"))
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check parameter validity, exit 2 on failure")
    p = add("deco-grid", cmd_deco_grid, "decoherence degree over a (t, C) grid", "deco_grid")
    p.add_argument("--asymptotic", action="store_true",
                   help="emit the infinite-time values instead of the t grid")
    p.add_argument("--skip-invalid", action="store_true",
                   help="mark C nodes failing validation instead of aborting")
    p = add("density", cmd_density, "density matrix on an (x, x') grid", "density")
    p.add_argument("--stationary", action="store_true",
                   help="emit the infinite-time thermal state instead")
    add("timescales", cmd_timescales, "characteristic time scales")
    add("asymptotic", cmd_asymptotic, "asymptotic two-mode covariance and separability")
    add("propagate", cmd_propagate, "two-mode covariance trajectory", "propagate")
    add("scan", cmd_scan, "separability scan over (Dxx, Dxpy)", "scan")
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
