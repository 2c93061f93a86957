"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.  Every tolerance is fixed here, not calibrated.
"""

import json
import math
import subprocess
import sys

import numpy as np

from lindosc import (
    OscillatorParams,
    ThermalParams,
    correlated_coherent_state,
    gibbs_coefficients,
)
from lindosc import lyapunov
from lindosc.single_mode import (
    decoherence_degree,
    decoherence_time,
    propagate_moments,
    thermal_fluctuation_time,
    uncertainty_determinant,
)
from lindosc.separability import simon_score, simon_score_closed_form
from lindosc.lyapunov import steady_covariance
from lindosc.two_mode import (
    det_cross_block,
    diffusion_matrix,
    drift_matrix,
    propagate_covariance,
    propagator,
    steady_covariance_closed_form,
)

from . import oracles

FIG_PARAMS = OscillatorParams(lam=0.2, mu=0.1)


def report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_asymptotic_decoherence_degree():
    worst_exact = 0.0
    worst_late = 0.0
    for C in (1.5, 2.0, 10.0):
        th = ThermalParams(C=C)
        worst_exact = max(worst_exact,
                          abs(decoherence_degree(4.0, 0.0, FIG_PARAMS, th, math.inf) - 1.0 / C))
        late = decoherence_degree(4.0, 0.0, FIG_PARAMS, th, 200.0 / FIG_PARAMS.lam)
        worst_late = max(worst_late, abs(late - 1.0 / C))
    ok = worst_exact <= 1e-12 and worst_late <= 1e-6
    report(1, ok, f"qd(inf) err {worst_exact:.2e} (<=1e-12), qd(200/lam) err {worst_late:.2e} (<=1e-6)")


def test_criterion_02_minimum_uncertainty_start():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        delta, r, params, thermal = oracles.random_gibbs_draw(rng)
        worst = max(worst, abs(uncertainty_determinant(delta, r, params, thermal, 0.0) - 0.25))
    ok = worst <= 1e-12
    report(2, ok, f"1000 draws, max |sigma(0) - 1/4| = {worst:.2e} (<=1e-12)")


def test_criterion_03_closed_form_vs_dynamics_oracle():
    rng = np.random.default_rng(102)
    t_grid = np.linspace(0.0, 50.0, 21)
    worst_prop = 0.0
    worst_ode = 0.0
    for _ in range(100):
        delta, r, params, thermal = oracles.random_gibbs_draw(rng)
        env = gibbs_coefficients(params, thermal)
        state0 = correlated_coherent_state(delta, r, params)
        A, b = oracles.covariance_ode_1d(params.lam, params.mu, params.m, params.omega,
                                         env.Dxx, env.Dxp, env.Dpp)
        ode = oracles.rk4_affine_refined(A, b, [state0.sxx, state0.sxp, state0.spp], t_grid)
        for i, t in enumerate(t_grid):
            closed = uncertainty_determinant(delta, r, params, thermal, float(t))
            prop = propagate_moments(state0, env, params, float(t)).det
            ode_det = ode[i, 0] * ode[i, 2] - ode[i, 1] ** 2
            worst_prop = max(worst_prop, abs(prop - closed) / closed)
            worst_ode = max(worst_ode, abs(ode_det - closed) / closed,
                            abs(ode_det - prop) / closed)
    ok = worst_prop <= 1e-6 and worst_ode <= 1e-6
    report(3, ok, f"100 draws x 21 t: propagated rel err {worst_prop:.2e}, "
                  f"RK4 oracle rel err {worst_ode:.2e} (<=1e-6)")


def test_criterion_04_decoherence_trend():
    ok = True
    detail = []
    qd20 = []
    for C in (2.0, 6.0, 10.0):
        th = ThermalParams(C=C)
        q1 = decoherence_degree(4.0, 0.0, FIG_PARAMS, th, 1.0)
        q5 = decoherence_degree(4.0, 0.0, FIG_PARAMS, th, 5.0)
        q20 = decoherence_degree(4.0, 0.0, FIG_PARAMS, th, 20.0)
        qd20.append(q20)
        ok = ok and (q20 < q5 < q1 < 1.0)
        detail.append(f"C={C:g}: {q20:.4f}<{q5:.4f}<{q1:.4f}<1")
    ok = ok and qd20[0] > qd20[1] > qd20[2]
    report(4, ok, "; ".join(detail) + "; qd(20,C) strictly decreasing in C")


def test_criterion_05_time_scale_concordance():
    th = ThermalParams(C=10.0)
    t_deco = decoherence_time(4.0, 0.0, FIG_PARAMS, th, "high_temperature")
    t_d = thermal_fluctuation_time(4.0, 0.0, FIG_PARAMS, th)
    err_deco = abs(t_deco - 1.0 / 24.0)
    err_d = abs(t_d - 1.0 / 24.5)
    ratio = t_deco / t_d
    ok = err_deco <= 1e-12 and err_d <= 1e-12 and 0.95 <= ratio <= 1.05
    report(5, ok, f"t_deco err {err_deco:.2e}, t_d err {err_d:.2e} (<=1e-12), "
                  f"ratio {ratio:.4f} in [0.95, 1.05]")


def test_criterion_06_lyapunov_correctness():
    rng = np.random.default_rng(103)
    worst_resid = 0.0
    worst_gap = 0.0
    for _ in range(1000):
        env = oracles.random_valid_symmetric_env(rng)
        params = OscillatorParams(lam=env.lam)
        Y = drift_matrix(params)
        D = diffusion_matrix(env)
        S = steady_covariance(Y, D)
        worst_resid = max(worst_resid, lyapunov.residual(Y, S, D))
        worst_gap = max(worst_gap,
                        float(np.abs(S - steady_covariance_closed_form(env, params)).max()))
    ok = worst_resid <= 1e-10 and worst_gap <= 1e-12
    report(6, ok, f"1000 valid envs: max residual {worst_resid:.2e} (<=1e-10), "
                  f"closed-form gap {worst_gap:.2e} (<=1e-12)")


def test_criterion_07_simon_dual_path():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(500):
        env = oracles.random_special_family_env(rng)
        params = OscillatorParams(lam=env.lam)
        sigma = steady_covariance(drift_matrix(params), diffusion_matrix(env))
        gap = abs(simon_score(sigma) - simon_score_closed_form(env, params))
        worst = max(worst, gap)
    ok = worst <= 1e-10
    report(7, ok, f"500 constrained envs (det C <= 0): max |S_full - S_closed| = {worst:.2e} (<=1e-10)")


def test_criterion_08_entanglement_window():
    params = OscillatorParams(lam=0.2)
    lo, hi = 0.0, math.sqrt(1.04)
    margin = 1e-6
    sweep_ok = True
    for dxpy in np.linspace(0.0, 1.5, 200):
        env = _window_env(0.1, float(dxpy))
        score = simon_score_closed_form(env, params)
        if lo + margin < dxpy < hi - margin:
            sweep_ok = sweep_ok and score < 0.0
        elif dxpy < lo - margin or dxpy > hi + margin:
            sweep_ok = sweep_ok and score >= 0.0
    mid = simon_score_closed_form(_window_env(0.1, 0.5), params)
    outside = simon_score_closed_form(_window_env(0.1, 1.2), params)
    err_mid = abs(mid - (-0.18259985207))
    err_out = abs(outside - 0.53254437870)
    ok = sweep_ok and err_mid <= 1e-5 and err_out <= 1e-5
    report(8, ok, f"sign pattern on 200-point sweep OK={sweep_ok}, "
                  f"S(0.5) err {err_mid:.2e}, S(1.2) err {err_out:.2e} (<=1e-5)")


def test_criterion_09_nonnegative_cross_determinant_separable():
    rng = np.random.default_rng(105)
    worst = math.inf
    for _ in range(1000):
        env = oracles.random_valid_symmetric_env(rng, require_detc_nonneg=True)
        params = OscillatorParams(lam=env.lam)
        assert det_cross_block(env, params) >= 0.0
        score = simon_score(steady_covariance_closed_form(env, params))
        worst = min(worst, score)
    ok = worst >= -1e-12
    report(9, ok, f"1000 valid envs with det C >= 0: min S = {worst:.2e} (>= -1e-12)")


def test_criterion_10_propagator_laws():
    rng = np.random.default_rng(106)
    worst_semigroup = 0.0
    for _ in range(100):
        params = OscillatorParams(lam=rng.uniform(0.05, 0.5), m=rng.uniform(0.5, 2.0),
                                  omega=rng.uniform(0.5, 2.0))
        t1, t2 = rng.uniform(0.0, 10.0, 2)
        gap = np.abs(propagator(params, t1 + t2)
                     - propagator(params, t1) @ propagator(params, t2)).max()
        worst_semigroup = max(worst_semigroup, float(gap))

    import scipy.linalg
    worst_expm = 0.0
    for _ in range(50):
        params = OscillatorParams(lam=rng.uniform(0.05, 0.5), m=rng.uniform(0.5, 2.0),
                                  omega=rng.uniform(0.5, 2.0))
        t = rng.uniform(0.0, 15.0)
        gap = np.abs(propagator(params, t)
                     - scipy.linalg.expm(t * drift_matrix(params))).max()
        worst_expm = max(worst_expm, float(gap))

    envelope_ok = True
    for _ in range(20):
        env = oracles.random_valid_symmetric_env(rng)
        params = OscillatorParams(lam=env.lam)
        block = correlated_coherent_state(rng.uniform(0.5, 3.0),
                                          rng.uniform(-0.5, 0.5), params).covariance()
        sigma0 = np.zeros((4, 4))
        sigma0[:2, :2] = block
        sigma0[2:, 2:] = block
        s_inf = steady_covariance(drift_matrix(params), diffusion_matrix(env))
        K = 4.0 * max(1.0, params.m * params.omega, 1.0 / (params.m * params.omega))**2 \
            * np.abs(sigma0 - s_inf).max()
        for t in np.linspace(0.0, 10.0 / params.lam, 21):
            gap = np.abs(propagate_covariance(sigma0, env, params, float(t)) - s_inf).max()
            if gap > K * math.exp(-2.0 * params.lam * t) * (1.0 + 1e-9) + 1e-14:
                envelope_ok = False
    ok = worst_semigroup <= 1e-12 and worst_expm <= 1e-12 and envelope_ok
    report(10, ok, f"semigroup gap {worst_semigroup:.2e}, expm gap {worst_expm:.2e} (<=1e-12), "
                   f"exp(-2*lam*t) envelope OK={envelope_ok}")


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    valid = {
        "oscillator": {"lambda": 0.2, "mu": 0.1},
        "thermal": {"C": 2.0},
        "initial": {"delta": 4.0, "r": 0.0},
    }
    unphysical = json.loads(json.dumps(valid))
    unphysical["thermal"]["C"] = 1.0
    valid_path = tmp_path / "valid.json"
    valid_path.write_text(json.dumps(valid))
    unphysical_path = tmp_path / "unphysical.json"
    unphysical_path.write_text(json.dumps(unphysical))
    malformed_path = tmp_path / "malformed.json"
    malformed_path.write_text("{ this is not json")

    def run_cli(*argv):
        return subprocess.run([sys.executable, "-m", "lindosc", *argv],
                              capture_output=True)

    grid_args = ("deco-grid", "--config", str(valid_path),
                 "--t-min", "0", "--t-max", "10", "--t-steps", "6",
                 "--c-min", "2", "--c-max", "8", "--c-steps", "4")
    first = run_cli(*grid_args)
    second = run_cli(*grid_args)
    deterministic = first.stdout == second.stdout and first.returncode == 0

    scan_cfg = json.loads(json.dumps(valid))
    scan_cfg["oscillator"]["mu"] = 0.0
    scan_cfg["two_mode_env"] = {"Dxx": 0.1, "Dxpx": 0.0, "Dpxpx": 0.1,
                                "Dxy": 0.0, "Dxpy": 0.5, "Dpxpy": 0.0}
    scan_path = tmp_path / "scan.json"
    scan_path.write_text(json.dumps(scan_cfg))
    scan_args = ("scan", "--config", str(scan_path),
                 "--dxpy-min", "0", "--dxpy-max", "1.5", "--dxpy-steps", "30")
    deterministic = deterministic and \
        run_cli(*scan_args).stdout == run_cli(*scan_args).stdout

    code_valid = run_cli("validate", "--config", str(valid_path)).returncode
    code_malformed = run_cli("validate", "--config", str(malformed_path)).returncode
    code_unphysical = run_cli("validate", "--config", str(unphysical_path)).returncode
    code_usage = run_cli("validate").returncode  # missing --config

    ok = (deterministic and code_valid == 0 and code_malformed == 1
          and code_unphysical == 2 and code_usage == 1)
    report(11, ok, f"bit-identical CSV={deterministic}, exit codes "
                   f"valid={code_valid} malformed={code_malformed} "
                   f"unphysical={code_unphysical} usage={code_usage} (want 0/1/2/1)")


def _window_env(dxx, dxpy):
    from lindosc import TwoModeEnvironment
    return TwoModeEnvironment.symmetric_env(Dxx=dxx, Dxpx=0.0, Dpxpx=dxx,
                                            Dxy=0.0, Dxpy=dxpy, Dpxpy=0.0, lam=0.2)
