"""Seeded CLI workloads of the benchmark and the checks on their output.

Each workload is one fixed CLI command with a fixed node count.  The seed
varies only physical parameters and grid bounds, within the ranges in
``RANGES``; seed 0 puts every parameter at the midpoint of its range.

Verification runs outside the timed region.  It checks the header and
row count exactly, the grid columns exactly, every status or verdict
column against the value the inputs imply, every numeric cell against a
vectorized recomputation written out here from the closed forms, and a
seeded sample of rows against a second route through the library
(propagation, the Lyapunov solve, or the semigroup law).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

LAM = 0.2
SAMPLE_ROWS = 16

#: Relative tolerance of the full-table recomputation.  It resolves about
#: the first nine significant digits of each cell; byte-level changes in the
#: last digits show in the CSV SHA-256 instead.
TABLE_RTOL = 1e-9

RANGES = {
    "deco_surface": {"mu": (0.05, 0.15), "delta": (2.0, 6.0),
                     "r": (-0.3, 0.3), "t_max": (15.0, 25.0)},
    "propagate_traj": {"Dxx": (0.1, 0.3), "window_pos": (0.2, 0.8),
                       "delta": (0.5, 2.0), "t_max": (40.0, 60.0)},
    "scan_window": {"dxpy_max": (3.0, 5.0)},
}

HEADERS = {
    "deco_surface": "t,C,sigma_det,delta_qd,status",
    "propagate_traj": "t,sigma_xx,sigma_xpx,sigma_xy,sigma_xpy,sigma_pxpx,sigma_ypx,"
                      "sigma_pxpy,sigma_yy,sigma_ypy,sigma_pypy,simon_score",
    "scan_window": "Dxx,Dxpy,S,separable,in_window,status",
}

DECO_T_STEPS, DECO_C_STEPS = 200, 200
PROP_STEPS = 5001
SCAN_DXX_STEPS, SCAN_DXPY_STEPS = 50, 200
SCAN_DXX_MIN, SCAN_DXX_MAX = 0.05, 2.0

ROWS = {
    "deco_surface": DECO_T_STEPS * DECO_C_STEPS,
    "propagate_traj": PROP_STEPS,
    "scan_window": SCAN_DXX_STEPS * SCAN_DXPY_STEPS,
}

NAMES = tuple(RANGES)


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one workload run."""

    name: str
    seed: int
    params: dict
    config: dict
    #: argv with ``{config}`` and ``{out}`` placeholders for the file paths.
    argv: tuple


def draw(name: str, seed: int) -> dict:
    """Physical parameters of a workload; seed 0 gives the range midpoints."""
    ranges = RANGES[name]
    if seed == 0:
        return {k: 0.5 * (lo + hi) for k, (lo, hi) in ranges.items()}
    rng = random.Random(f"{name}:{seed}")
    return {k: rng.uniform(lo, hi) for k, (lo, hi) in ranges.items()}


def window(Dxx: float) -> tuple[float, float]:
    """Entanglement window of Dxpy for m = omega = 1 (needs Dxx/lam >= 1/2)."""
    root = math.sqrt(LAM * LAM + 1.0)
    ratio = Dxx / LAM
    return root * (ratio - 0.5), root * (ratio + 0.5)


def _window_env(Dxx: float, Dxpy: float) -> dict:
    return {"Dxx": Dxx, "Dxpx": 0.0, "Dpxpx": Dxx, "Dxy": 0.0, "Dxpy": Dxpy, "Dpxpy": 0.0}


def generate(name: str, seed: int) -> Inputs:
    p = draw(name, seed)
    if name == "deco_surface":
        config = {
            "oscillator": {"lambda": LAM, "mu": p["mu"]},
            "initial": {"delta": p["delta"], "r": p["r"]},
            "deco_grid": {"t_min": 0.0, "t_max": p["t_max"], "t_steps": DECO_T_STEPS,
                          "c_min": 1.0, "c_max": 10.0, "c_steps": DECO_C_STEPS},
        }
        argv = ("deco-grid", "--config", "{config}", "--skip-invalid", "--out", "{out}")
    elif name == "propagate_traj":
        lo, hi = window(p["Dxx"])
        p["Dxpy"] = lo + p["window_pos"] * (hi - lo)
        config = {
            "oscillator": {"lambda": LAM, "mu": 0.0},
            "initial": {"delta": p["delta"], "r": 0.0},
            "two_mode_env": _window_env(p["Dxx"], p["Dxpy"]),
            "propagate": {"t_max": p["t_max"], "steps": PROP_STEPS},
        }
        argv = ("propagate", "--config", "{config}")
    elif name == "scan_window":
        config = {
            "oscillator": {"lambda": LAM, "mu": 0.0},
            "two_mode_env": _window_env(0.1, 0.5),
            "scan": {"dxx_min": SCAN_DXX_MIN, "dxx_max": SCAN_DXX_MAX,
                     "dxx_steps": SCAN_DXX_STEPS, "dxpy_min": 0.0,
                     "dxpy_max": p["dxpy_max"], "dxpy_steps": SCAN_DXPY_STEPS},
        }
        argv = ("scan", "--config", "{config}")
    else:
        raise KeyError(f"unknown workload {name!r}")
    return Inputs(name=name, seed=seed, params=p, config=config, argv=argv)


def write_inputs(inputs: Inputs, directory) -> list[str]:
    """Write the config JSON into ``directory`` and return the concrete argv."""
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(inputs.config, indent=1, sort_keys=True) + "\n")
    out_path = directory / "out.csv"
    argv = [a.format(config=config_path, out=out_path) for a in inputs.argv]
    (directory / "argv.json").write_text(json.dumps(argv) + "\n")
    return argv


def writes_file(inputs: Inputs) -> bool:
    return "--out" in inputs.argv


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _cells(text: str, name: str, problems: list):
    """Split the CSV into rows of cells after checking header and row count."""
    if not text.endswith("\n"):
        problems.append("output does not end with a newline")
    lines = text.rstrip("\n").split("\n")
    if lines[0] != HEADERS[name]:
        problems.append(f"header {lines[0][:80]!r} != {HEADERS[name][:80]!r}")
        return None
    rows = lines[1:]
    if len(rows) != ROWS[name]:
        problems.append(f"{len(rows)} rows, expected {ROWS[name]}")
        return None
    width = HEADERS[name].count(",") + 1
    cells = [row.split(",") for row in rows]
    if any(len(c) != width for c in cells):
        problems.append(f"a row does not have {width} cells")
        return None
    return cells


def _floats(cells, col: int, problems: list) -> np.ndarray:
    try:
        return np.array([float(c[col]) for c in cells])
    except ValueError as exc:
        problems.append(f"column {col}: {exc}")
        return np.full(len(cells), np.nan)


def _printed(values) -> np.ndarray:
    """Values as the CLI prints them (15 significant digits), read back."""
    return np.array([float(f"{float(v):.14e}") for v in values])


def _check_exact(label: str, got: np.ndarray, want: np.ndarray, problems: list):
    bad = np.flatnonzero(got != want)
    if bad.size:
        i = int(bad[0])
        problems.append(f"{label}: {bad.size} cells differ, first in row {i}: "
                        f"{float(got[i])!r} != {float(want[i])!r}")


def _check_close(label: str, got, want, scale, problems: list, rtol=TABLE_RTOL):
    got, want = np.asarray(got, float), np.asarray(want, float)
    limit = rtol * np.asarray(scale, float)
    bad = np.flatnonzero(~(np.abs(got - want) <= limit))
    if bad.size:
        i = int(bad[0])
        row = np.unravel_index(i, got.shape)[0]
        problems.append(f"{label}: {bad.size} cells off, first in row {row}: "
                        f"{float(got.flat[i])!r} vs {float(want.flat[i])!r}")


def _check_labels(label: str, got, allowed, problems: list):
    """``allowed[i]`` is the set of values row i may hold."""
    bad = [i for i, (g, a) in enumerate(zip(got, allowed)) if g not in a]
    if bad:
        i = bad[0]
        problems.append(f"{label}: {len(bad)} rows wrong, first at row {i}: "
                        f"{got[i]!r} not in {sorted(allowed[i])}")


def _rng(inputs: Inputs) -> random.Random:
    """Seeded choice of the rows checked by a second route."""
    return random.Random(f"verify:{inputs.name}:{inputs.seed}")


def sigma_closed_form(delta, r, mu, t, C):
    """Uncertainty function sigma(t, C) of the one-mode model (m = omega = hbar = 1)."""
    W2 = 1.0 - mu * mu
    W = math.sqrt(W2)
    a = delta + 1.0 / (delta * (1.0 - r * r))
    b = delta - 1.0 / (delta * (1.0 - r * r))
    c2, s2 = np.cos(2.0 * W * t), np.sin(2.0 * W * t)
    inner = ((a - 2.0 * C) * (1.0 - mu * mu * c2) / W2 + b * mu * s2 / W
             + 2.0 * r * mu * (1.0 - c2) / (W2 * math.sqrt(1.0 - r * r)))
    return 0.25 * (np.exp(-4.0 * LAM * t) * (1.0 - a * C + C * C)
                   + np.exp(-2.0 * LAM * t) * C * inner + C * C)


def _verify_deco(inputs: Inputs, cells, problems: list):
    from lindosc import OscillatorParams, ThermalParams, correlated_coherent_state
    from lindosc import gibbs_coefficients, single_mode

    p = inputs.params
    t_grid = np.linspace(0.0, p["t_max"], DECO_T_STEPS)
    c_grid = np.linspace(1.0, 10.0, DECO_C_STEPS)
    t = np.repeat(t_grid, DECO_C_STEPS)
    C = np.tile(c_grid, DECO_T_STEPS)
    _check_exact("t", _floats(cells, 0, problems), _printed(t), problems)
    _check_exact("C", _floats(cells, 1, problems), _printed(C), problems)

    # Gibbs coefficients are valid iff (lam^2 - mu^2) C^2 >= lam^2.
    g = (LAM * LAM - p["mu"] ** 2) * C * C - LAM * LAM
    margin = 1e-9 * LAM * LAM
    status = [c[4] for c in cells]
    _check_labels("status", status,
                  [{"ok"} if x > margin else {"invalid"} if x < -margin else {"ok", "invalid"}
                   for x in g], problems)
    ok = np.array([s == "ok" for s in status])
    for col, label in ((2, "sigma_det"), (3, "delta_qd")):
        nan_cells = [c[col] for c, s in zip(cells, ok) if not s]
        if any(v != "nan" for v in nan_cells):
            problems.append(f"{label}: an invalid row is not nan")
    sigma = _floats(cells, 2, problems)[ok]
    qd = _floats(cells, 3, problems)[ok]
    want = sigma_closed_form(p["delta"], p["r"], p["mu"], t[ok], C[ok])
    _check_close("sigma_det", sigma, want, want, problems)
    _check_close("delta_qd", qd, 0.5 / np.sqrt(want), 0.5 / np.sqrt(want), problems)

    # Second route: exact moment propagation with the Lyapunov stationary state
    # (acceptance criterion 03, relative 1e-6).
    params = OscillatorParams(lam=LAM, mu=p["mu"])
    state0 = correlated_coherent_state(p["delta"], p["r"], params)
    valid_rows = np.flatnonzero(ok)
    worst = 0.0
    for k in _rng(inputs).sample(range(valid_rows.size), SAMPLE_ROWS):
        i = int(valid_rows[k])
        thermal = ThermalParams(C=float(C[i]))
        det = single_mode.propagate_moments(state0, gibbs_coefficients(params, thermal),
                                            params, float(t[i])).det
        csv_sigma = float(cells[i][2])
        worst = max(worst, abs(det - csv_sigma) / csv_sigma)
    if not worst <= 1e-6:
        problems.append(f"sigma_det vs propagate_moments: rel gap {worst:.3e} > 1e-6")


#: (i, j) of the ten covariance columns of ``propagate``, in CSV order.
COV_INDEX = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def _cov4(rows: np.ndarray) -> np.ndarray:
    """(N, 10) CSV covariance entries -> (N, 4, 4) symmetric matrices."""
    out = np.empty((rows.shape[0], 4, 4))
    for k, (i, j) in enumerate(COV_INDEX):
        out[:, i, j] = rows[:, k]
        out[:, j, i] = rows[:, k]
    return out


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def simon_terms(sigma: np.ndarray):
    """Simon score of (N, 4, 4) covariances and the magnitude of its terms."""
    A, B, C = sigma[:, :2, :2], sigma[:, 2:, 2:], sigma[:, :2, 2:]
    det_a, det_b, det_c = (np.linalg.det(X) for X in (A, B, C))
    chain = A @ _J @ C @ _J @ B @ _J @ np.swapaxes(C, 1, 2) @ _J
    cross = np.trace(chain, axis1=1, axis2=2)
    terms = (det_a * det_b, (0.25 - np.abs(det_c)) ** 2, -cross, -0.25 * (det_a + det_b))
    return sum(terms), sum(np.abs(x) for x in terms)


def _verify_propagate(inputs: Inputs, cells, problems: list):
    from lindosc import OscillatorParams, TwoModeEnvironment
    from lindosc.two_mode import propagate_covariance

    p = inputs.params
    t = np.linspace(0.0, p["t_max"], PROP_STEPS)
    _check_exact("t", _floats(cells, 0, problems), _printed(t), problems)
    got = np.column_stack([_floats(cells, k, problems) for k in range(1, 12)])

    # Closed forms for m = omega = 1 and the window family: S_inf has
    # a = Dxx/lam on the one-mode diagonals and cross entries
    # (Dxpy, lam Dxpy, -Dxpy)/(lam^2 + 1); M(t) = exp(-lam t) R(t).
    q = LAM * LAM + 1.0
    a, c, d = p["Dxx"] / LAM, p["Dxpy"] / q, LAM * p["Dxpy"] / q
    s_inf = np.array([[a, 0, c, d], [0, a, d, -c], [c, d, a, 0], [d, -c, 0, a]])
    block = np.diag([0.5 * p["delta"], 0.5 / p["delta"]])
    s0 = np.zeros((4, 4))
    s0[:2, :2] = block
    s0[2:, 2:] = block
    rot = np.zeros((PROP_STEPS, 4, 4))
    cos, sin = np.cos(t), np.sin(t)
    for k in (0, 2):
        rot[:, k, k] = rot[:, k + 1, k + 1] = cos
        rot[:, k, k + 1], rot[:, k + 1, k] = sin, -sin
    M = np.exp(-LAM * t)[:, None, None] * rot
    sigma = M @ (s0 - s_inf) @ np.swapaxes(M, 1, 2) + s_inf
    want = sigma[:, [i for i, _ in COV_INDEX], [j for _, j in COV_INDEX]]
    scale = max(1.0, float(np.abs(s_inf).max()), float(np.abs(s0).max()))
    _check_close("covariance", got[:, :10], want, scale, problems)
    score, size = simon_terms(sigma)
    _check_close("simon_score", got[:, 10], score, np.maximum(size, 1e-3), problems)

    # Verdicts the inputs imply: a product of pure states at t = 0 sits on
    # the boundary, and with Dxpy inside the window the state at t_max is
    # as entangled as the asymptotic one.
    s_end, size_end = simon_terms(s_inf[None])
    if not abs(got[0, 10]) <= 1e-12:
        problems.append(f"S(0) = {got[0, 10]!r}, expected 0 for a product of pure states")
    if not (s_end[0] < -1e-6 * size_end[0] and got[-1, 10] < 0.0):
        problems.append(f"S(t_max) = {got[-1, 10]!r}, expected negative (S_inf {s_end[0]!r})")

    # Second route: the semigroup law, sigma(t_i + t_j) from one propagation
    # of sigma(t_i) by t_j (acceptance criterion 10).
    params = OscillatorParams(lam=LAM)
    env = TwoModeEnvironment.symmetric_env(lam=LAM, **_window_env(p["Dxx"], p["Dxpy"]))
    table = _cov4(got[:, :10])
    rng = _rng(inputs)
    worst = 0.0
    for _ in range(SAMPLE_ROWS):
        i, j = rng.randrange(1, PROP_STEPS // 2), rng.randrange(1, PROP_STEPS // 2)
        step = propagate_covariance(table[i], env, params, float(t[j]))
        worst = max(worst, float(np.abs(step - table[i + j]).max()) / scale)
    if not worst <= 1e-10:
        problems.append(f"semigroup law: gap {worst:.3e} > 1e-10")


def _verify_scan(inputs: Inputs, cells, problems: list):
    from lindosc import lyapunov
    from lindosc.separability import simon_score

    p = inputs.params
    dxx_grid = np.linspace(SCAN_DXX_MIN, SCAN_DXX_MAX, SCAN_DXX_STEPS)
    dxpy_grid = np.linspace(0.0, p["dxpy_max"], SCAN_DXPY_STEPS)
    dxx = np.repeat(dxx_grid, SCAN_DXPY_STEPS)
    dxpy = np.tile(dxpy_grid, SCAN_DXX_STEPS)
    _check_exact("Dxx", _floats(cells, 0, problems), _printed(dxx), problems)
    _check_exact("Dxpy", _floats(cells, 1, problems), _printed(dxpy), problems)

    # Closed-form score of the window family (m = omega = 1, Dxy = 0).
    q = LAM * LAM + 1.0
    head = dxx ** 2 / LAM ** 2 + dxpy ** 2 / q - 0.25
    cross = 4.0 * dxx ** 2 * dxpy ** 2 / (LAM ** 2 * q)
    score, size = head * head - cross, head * head + cross
    got = _floats(cells, 2, problems)
    _check_close("S", got, score, size, problems)
    sep = [{"true"} if s > TABLE_RTOL * z else {"false"} if s < -TABLE_RTOL * z
           else {"true", "false", "boundary"} for s, z in zip(score, size)]
    _check_labels("separable", [c[3] for c in cells], sep, problems)

    # Gram matrix of the environment, written out from its coefficients.
    n = dxx.size
    gram = np.zeros((n, 4, 4), dtype=complex)
    il = 0.5j * LAM
    for i in range(4):
        gram[:, i, i] = dxx
    gram[:, 0, 1], gram[:, 1, 0] = -il, il
    gram[:, 2, 3], gram[:, 3, 2] = -il, il
    gram[:, 0, 3] = gram[:, 3, 0] = -dxpy
    gram[:, 1, 2] = gram[:, 2, 1] = -dxpy
    min_eig = np.linalg.eigvalsh(gram)[:, 0]
    gram_margin = 1e-8 * np.maximum(np.abs(dxx), np.maximum(np.abs(dxpy), LAM))

    in_window, status = [], []
    for k in range(n):
        if dxx[k] / LAM < 0.5:
            in_window.append({"false"})
            status.append({"invalid-window"})
            continue
        lo, hi = window(float(dxx[k]))
        if min(abs(dxpy[k] - lo), abs(dxpy[k] - hi)) <= 1e-6 * max(1.0, hi):
            in_window.append({"true", "false"})
            status.append({"ok", "invalid", "boundary-indeterminate"})
            continue
        in_window.append({"true"} if lo < dxpy[k] < hi else {"false"})
        if min_eig[k] > gram_margin[k]:
            status.append({"ok"})
        elif min_eig[k] < -gram_margin[k]:
            status.append({"invalid"})
        else:
            status.append({"ok", "invalid"})
    _check_labels("in_window", [c[4] for c in cells], in_window, problems)
    _check_labels("status", [c[5] for c in cells], status, problems)

    # Second route: S from the Lyapunov covariance (acceptance criterion 07),
    # with the verdict agreeing wherever |S| clears the boundary.
    block = np.array([[-LAM, 1.0], [-1.0, -LAM]])
    Y = np.zeros((4, 4))
    Y[:2, :2] = Y[2:, 2:] = block
    worst = 0.0
    for i in _rng(inputs).sample(range(n), SAMPLE_ROWS):
        a, b = float(dxx[i]), float(dxpy[i])
        D = np.array([[a, 0, 0, b], [0, a, b, 0], [0, b, a, 0], [b, 0, 0, a]])
        s_lyap = simon_score(lyapunov.steady_covariance(Y, D))
        worst = max(worst, abs(s_lyap - got[i]) / max(1.0, size[i]))
        if abs(s_lyap) > TABLE_RTOL * size[i]:
            verdict = "true" if s_lyap >= 0.0 else "false"
            if cells[i][3] != verdict:
                problems.append(f"row {i}: separable {cells[i][3]!r}, Lyapunov route {verdict!r}")
    if not worst <= 1e-10:
        problems.append(f"S vs Lyapunov route: gap {worst:.3e} > 1e-10 (relative to term size)")


_VERIFIERS = {
    "deco_surface": _verify_deco,
    "propagate_traj": _verify_propagate,
    "scan_window": _verify_scan,
}


def verify(inputs: Inputs, text: str) -> list[str]:
    """Problems found in one CSV output of the workload; empty when it is correct."""
    problems: list[str] = []
    cells = _cells(text, inputs.name, problems)
    if cells is not None:
        _VERIFIERS[inputs.name](inputs, cells, problems)
    return problems
