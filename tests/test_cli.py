"""CLI behaviour: exit codes, CSV contracts, reference values, determinism."""

import argparse
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import types
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

try:
    import fcntl
except ImportError:  # not on Windows
    fcntl = None

from lindosc import OscillatorParams, ParameterError, ThermalParams, TwoModeEnvironment, cli
from lindosc.core import NODE_BLOCK
from lindosc.separability import closed_form_route, simon_score, simon_score_closed_form
from lindosc.single_mode import decoherence_degree
from lindosc.two_mode import steady_covariance_closed_form

FIG1 = {
    "oscillator": {"lambda": 0.2, "mu": 0.1, "m": 1.0, "omega": 1.0, "hbar": 1.0},
    "thermal": {"C": 2.0},
    "initial": {"delta": 4.0, "r": 0.0, "x0": 0.0, "p0": 0.0},
}

ROOT = Path(__file__).resolve().parent.parent

WINDOW_ENV = {"Dxx": 0.1, "Dxpx": 0.0, "Dpxpx": 0.1,
              "Dxy": 0.0, "Dxpy": 0.5, "Dpxpy": 0.0}


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rendered(table) -> bytearray:
    """All the bytes that ``table`` renders, collected from its slices."""
    table.render((out := bytearray()).extend)
    return out


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestValidateCommand:
    def test_valid_config_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 0
        assert "PASS det_a_at_least_quarter" in out

    def test_unphysical_config_exits_two(self, tmp_path, capsys):
        body = json.loads(json.dumps(FIG1))
        body["thermal"]["C"] = 1.0
        cfg = write_config(tmp_path, body)
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 2
        assert "FAIL det_a_at_least_quarter" in out

    def test_missing_thermal_exits_one(self, tmp_path, capsys):
        body = {"oscillator": FIG1["oscillator"]}
        cfg = write_config(tmp_path, body)
        code, _, err = run(capsys, ["validate", "--config", cfg])
        assert code == 1
        assert "thermal" in err

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        code, _, err = run(capsys, ["validate", "--config", str(path)])
        assert code == 1
        assert "line" in err

    def test_unknown_section_exits_one(self, tmp_path, capsys):
        body = dict(FIG1, extra={"a": 1})
        cfg = write_config(tmp_path, body)
        code, _, err = run(capsys, ["validate", "--config", cfg])
        assert code == 1
        assert "extra" in err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        body = json.loads(json.dumps(FIG1))
        body["thermal"]["T"] = 300.0
        cfg = write_config(tmp_path, body)
        code, _, err = run(capsys, ["validate", "--config", cfg])
        assert code == 1

    def test_two_mode_section_checked(self, tmp_path, capsys):
        body = dict(FIG1, two_mode_env=WINDOW_ENV)
        cfg = write_config(tmp_path, body)
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 2  # the entangling window regime is not completely positive
        assert "FAIL delta_at_least_half" in out

    def test_two_mode_section_checked_at_the_config_hbar(self, tmp_path, capsys):
        # D/(hbar lam) = 0.375 I at hbar = 2: det A - 1/4 < 0, valid at hbar = 1
        env = {"Dxx": 0.15, "Dxpx": 0, "Dpxpx": 0.15, "Dxy": 0, "Dxpy": 0, "Dpxpy": 0}
        cfg = write_config(tmp_path, {"oscillator": {"lambda": 0.2, "hbar": 2.0},
                                      "thermal": {"C": 2.0}, "two_mode_env": env})
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 2
        assert "FAIL det_a_at_least_quarter slack=-1.09375000000000e-01" in out

    @pytest.mark.parametrize("oscillator,C", [
        # T = 0: Dxx*Dpp - Dxp^2 = (lam/2)^2 exactly, the slack is rounding
        ({"lambda": 0.567266219538856, "mu": 0.0, "m": 0.35948907446999856,
          "omega": 0.03470451824669471, "hbar": 1.0}, 1.0),
        # C = lam/sqrt(lam^2 - mu^2), where det A - 1/4 of D/(hbar lam) is 0
        ({"lambda": 0.1542320843456786, "mu": 0.022814830587515218, "m": 1.0, "omega": 1.0,
          "hbar": 1.0}, 1.0111238450381421),
    ])
    def test_saturated_constraints_exit_zero(self, tmp_path, capsys, oscillator, C):
        cfg = write_config(tmp_path, dict(FIG1, oscillator=oscillator, thermal={"C": C}))
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 0
        assert "FAIL" not in out and "PASS det_a_at_least_quarter" in out
        code, out, _ = run(capsys, ["deco-grid", "--config", cfg, "--c-min", str(C),
                                    "--c-max", str(C), "--c-steps", "1", "--t-steps", "2"])
        assert code == 0
        assert len(parse_csv(out)) == 2

    @pytest.mark.parametrize("command", ["asymptotic", "propagate"])
    def test_two_mode_warning_at_the_config_hbar(self, tmp_path, capsys, command):
        # D/(hbar lam) = 0.7 I at hbar = 0.5 is completely positive (0.35 I at
        # hbar = 1 is not): no warning, only the hbar = 1 requirement
        env = {"Dxx": 0.07, "Dxpx": 0, "Dpxpx": 0.07, "Dxy": 0, "Dxpy": 0, "Dpxpy": 0}
        cfg = write_config(tmp_path, dict(FIG1, oscillator={"lambda": 0.2, "hbar": 0.5},
                                          two_mode_env=env))
        code, out, err = run(capsys, [command, "--config", cfg])
        assert code == 2 and out == ""
        assert err == "error: two-mode operations are normalized to hbar = 1, got hbar=0.5\n"

    def test_overflowing_invariants_exit_two(self, tmp_path, capsys):
        # det A of D/lam is negative, but it overflows to nan: no PASS
        env = {"Dxx": 1e160, "Dxpx": 2e160, "Dpxpx": 1e160, "Dxy": 0.0, "Dxpy": 0.0,
               "Dpxpy": 0.0}
        cfg = write_config(tmp_path, dict(FIG1, two_mode_env=env))
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 2
        assert "FAIL det_a_at_least_quarter slack=+nan" in out

    @pytest.mark.parametrize("body", [FIG1, dict(FIG1, two_mode_env=WINDOW_ENV)])
    def test_out_flag_writes_the_report(self, tmp_path, capsys, body):
        cfg = write_config(tmp_path, body)
        code, want, _ = run(capsys, ["validate", "--config", cfg])
        out_path = tmp_path / "report.txt"
        got_code, out, _ = run(capsys, ["validate", "--config", cfg, "--out", str(out_path)])
        assert out == ""
        assert out_path.read_text() == want
        assert got_code == code


class TestDecoGridCommand:
    def test_single_node_at_t_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        code, out, _ = run(capsys, ["deco-grid", "--config", cfg,
                                    "--t-min", "0", "--t-max", "0", "--t-steps", "1",
                                    "--c-min", "2", "--c-max", "2", "--c-steps", "1"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["delta_qd"]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[0]["sigma_det"]) == pytest.approx(0.25, abs=1e-12)

    def test_asymptotic_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        code, out, _ = run(capsys, ["deco-grid", "--config", cfg, "--asymptotic",
                                    "--c-min", "10", "--c-max", "10", "--c-steps", "1"])
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["t"] == "inf"
        assert float(rows[0]["delta_qd"]) == pytest.approx(0.1, abs=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_damped_out_node_near_the_float_maximum(self, capsys):
        # exp(-2 lam t) is 0 at both: the t = 1e308 node prints what the
        # t = 1e300 node prints, the asymptotic sigma and degree
        rows = []
        for t_max in ("1e300", "1e308"):
            code, out, err = run(capsys, ["deco-grid", "--config",
                                          str(ROOT / "configs" / "single_mode.json"),
                                          "--t-max", t_max, "--t-steps", "2",
                                          "--c-min", "2", "--c-max", "2", "--c-steps", "1"])
            assert code == 0 and err == ""
            rows.append(out.splitlines()[-1].split(",", 1))
        assert rows[0][1] == rows[1][1] == \
            "2.00000000000000e+00,1.00000000000000e+00,5.00000000000000e-01"
        assert rows[1][0] == "1.00000000000000e+308"

    def test_invalid_node_aborts_without_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        code, _, err = run(capsys, ["deco-grid", "--config", cfg,
                                    "--c-min", "1", "--c-max", "2", "--c-steps", "2"])
        assert code == 2
        assert "C=1.0" in err

    @pytest.mark.parametrize("initial,message", [
        ({"delta": -4.0, "r": 0.0}, "delta must be > 0, got -4.0"),
        ({"delta": 4.0, "r": 1.0}, "correlation r must satisfy |r| < 1, got 1.0"),
    ])
    def test_invalid_initial_section_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                                 initial, message):
        # every C node fails validation, so no node evaluation would reject it
        cfg = write_config(tmp_path, dict(FIG1, initial=initial))
        out = tmp_path / "out.csv"
        code, stdout, err = run(capsys, ["deco-grid", "--config", cfg, "--skip-invalid",
                                         "--c-min", "1", "--c-max", "1.1", "--out", str(out)])
        assert code == 2
        assert err == f"error: {message}\n"
        assert stdout == "" and not out.exists()

    def test_skip_invalid_marks_nodes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        code, out, _ = run(capsys, ["deco-grid", "--config", cfg, "--skip-invalid",
                                    "--t-min", "0", "--t-max", "1", "--t-steps", "2",
                                    "--c-min", "1", "--c-max", "2", "--c-steps", "2"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4
        statuses = {(r["t"], r["C"]): r["status"] for r in rows}
        assert all(status == "invalid" for (t, c), status in statuses.items()
                   if c.startswith("1.0"))
        assert all(r["sigma_det"] == "nan" for r in rows if r["status"] == "invalid")

    def test_grid_values_in_unit_interval(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        code, out, _ = run(capsys, ["deco-grid", "--config", cfg, "--skip-invalid",
                                    "--t-min", "0", "--t-max", "20", "--t-steps", "50",
                                    "--c-min", "1", "--c-max", "10", "--c-steps", "50"])
        assert code == 0
        rows = [r for r in parse_csv(out) if r["status"] == "ok"]
        assert rows
        for r in rows:
            qd = float(r["delta_qd"])
            assert 0.0 < qd <= 1.0 + 1e-12

    @pytest.mark.parametrize("flags", [[], ["--asymptotic"]])
    def test_degree_column_matches_decoherence_degree(self, tmp_path, capsys, flags):
        cfg = write_config(tmp_path, FIG1)
        code, out, _ = run(capsys, ["deco-grid", "--config", cfg, *flags,
                                    "--t-min", "0", "--t-max", "10", "--t-steps", "6",
                                    "--c-min", "1.5", "--c-max", "9.3", "--c-steps", "7"])
        assert code == 0
        t_grid = [math.inf] if flags else np.linspace(0.0, 10.0, 6).tolist()
        params = OscillatorParams(lam=0.2, mu=0.1)
        want = [f"{decoherence_degree(4.0, 0.0, params, ThermalParams(C=c), t):.14e}"
                for t in t_grid for c in np.linspace(1.5, 9.3, 7).tolist()]
        assert [r["delta_qd"] for r in parse_csv(out)] == want

    def test_negative_t_min_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        code, out, err = run(capsys, ["deco-grid", "--config", cfg,
                                      "--t-min", "-1", "--t-max", "3", "--t-steps", "5",
                                      "--c-min", "2", "--c-max", "4", "--c-steps", "3"])
        assert code == 2
        assert out == ""
        assert err == "error: t must be >= 0, got -1.0\n"

    @pytest.mark.parametrize("flags", [[], ["--asymptotic"]])
    def test_invalid_c_mid_grid_names_the_first_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, flags):
        real = cli.one_mode_checks

        def checks(*args):
            values, passed = real(*args)
            passed = passed.copy()
            passed[1:3] = False  # C = 2, 3, 4, 5, 6: the second and third fail
            return values, passed

        monkeypatch.setattr(cli, "one_mode_checks", checks)
        cfg = write_config(tmp_path, FIG1)
        out_path = tmp_path / "grid.csv"
        code, out, err = run(capsys, ["deco-grid", "--config", cfg, *flags,
                                      "--out", str(out_path),
                                      "--c-min", "2", "--c-max", "6", "--c-steps", "5"])
        assert code == 2
        assert out == "" and not out_path.exists()
        assert err == ("invalid thermal coefficients at C=3.0 "
                       "(rerun with --skip-invalid to keep going)\n")

    def test_c_below_one_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        out_path = tmp_path / "grid.csv"
        code, out, err = run(capsys, ["deco-grid", "--config", cfg, "--c-min", "0.5",
                                      "--out", str(out_path)])
        assert code == 2
        assert out == "" and not out_path.exists()
        assert err == "error: C = coth(...) must be >= 1, got 0.5\n"

    def test_overflowing_coefficients_are_invalid_nodes(self, tmp_path, capsys):
        # Dxx and Dpp overflow to inf at C = 5e307 and 1e308: no warning, no pass
        body = dict(FIG1, oscillator={"lambda": 10.0, "mu": 0.1})
        cfg = write_config(tmp_path, body)
        argv = ["deco-grid", "--config", cfg, "--asymptotic", "--c-min", "2", "--c-max", "1e308",
                "--c-steps", "3"]
        code, out, err = run(capsys, argv + ["--skip-invalid"])
        assert code == 0 and err == ""
        assert [r["status"] for r in parse_csv(out)] == ["ok", "invalid", "invalid"]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("invalid thermal coefficients at C=5e+307 ")

    def test_status_is_validate_single_mode_per_node(self, tmp_path, capsys):
        # The batched check computes the floats of validate_single_mode at
        # every node: on grids through [1, 2 C*], and on grids from 1e-14 below
        # C* = lam/sqrt(lam^2 - mu^2) to 1e-15 above it (from 1 at mu = 0),
        # where det A - 1/4 changes sign and then is rounding.
        rng = np.random.default_rng(31)
        statuses, near = set(), set()
        for k in range(60):
            lam, m, hbar = (10.0 ** rng.uniform(-1.5, 1.5, 3)).tolist()
            mu = 0.0 if k % 3 == 0 else lam * float(rng.uniform(0.01, 0.99))
            w = lam * 10.0 ** float(rng.uniform(0.05, 1.0))
            c_star = lam / math.sqrt(lam * lam - mu * mu)
            lo, hi = [(1.0, 2.0 * c_star), (max(1.0, c_star - 1e-14), c_star + 1e-15)][k % 2]
            oscillator = {"lambda": lam, "mu": mu, "m": m, "omega": w, "hbar": hbar}
            cfg = write_config(tmp_path, dict(FIG1, oscillator=oscillator))
            code, out, _ = run(capsys, ["deco-grid", "--config", cfg, "--asymptotic",
                                        "--skip-invalid", "--c-min", repr(lo), "--c-max",
                                        repr(hi), "--c-steps", "21"])
            assert code == 0
            params = OscillatorParams(lam=lam, mu=mu, m=m, omega=w, hbar=hbar)
            want = ["ok" if cli.validate_single_mode(cli.gibbs_coefficients(
                params, ThermalParams(C=c))).passed else "invalid"
                for c in np.linspace(lo, hi, 21).tolist()]
            got = [r["status"] for r in parse_csv(out)]
            assert got == want
            (near if k % 2 else statuses).update(got)
        assert statuses == near == {"ok", "invalid"}

    def test_asymptotic_skip_invalid_rows(self, tmp_path, capsys):
        # the per-node text: 1/4 C**2 and exactly 1/C, nan for invalid C
        cfg = write_config(tmp_path, FIG1)
        code, out, _ = run(capsys, ["deco-grid", "--config", cfg, "--asymptotic",
                                    "--skip-invalid",
                                    "--c-min", "1", "--c-max", "9.3", "--c-steps", "12"])
        assert code == 0
        rows = ["t,C,sigma_det,delta_qd,status"]
        for c in np.linspace(1.0, 9.3, 12).tolist():
            if (0.2**2 - 0.1**2) * c**2 >= 0.2**2:
                rows.append(f"inf,{c:.14e},{0.25 * c * c:.14e},{1.0 / c:.14e},ok")
            else:
                rows.append(f"inf,{c:.14e},nan,nan,invalid")
        assert out == "\n".join(rows) + "\n"
        assert out.count(",invalid\n") == 1

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        argv = ["deco-grid", "--config", cfg,
                "--t-min", "0", "--t-max", "10", "--t-steps", "11",
                "--c-min", "2", "--c-max", "8", "--c-steps", "7"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestDensityCommand:
    def test_stationary_reference_value(self, tmp_path, capsys):
        body = json.loads(json.dumps(FIG1))
        body["thermal"]["C"] = 10.0
        cfg = write_config(tmp_path, body)
        code, out, _ = run(capsys, ["density", "--config", cfg, "--stationary",
                                    "--x-min", "0", "--x-max", "1", "--n", "2"])
        assert code == 0
        rows = parse_csv(out)
        origin = [r for r in rows if float(r["x"]) == 0.0 and float(r["xp"]) == 0.0][0]
        assert float(origin["re"]) == pytest.approx(math.sqrt(1.0 / (10.0 * math.pi)), abs=1e-12)
        assert float(origin["im"]) == 0.0

    def test_coherent_initial_state(self, tmp_path, capsys):
        body = json.loads(json.dumps(FIG1))
        body["initial"]["delta"] = 1.0
        cfg = write_config(tmp_path, body)
        code, out, _ = run(capsys, ["density", "--config", cfg, "--t", "0",
                                    "--x-min", "0", "--x-max", "1", "--n", "2"])
        assert code == 0
        rows = parse_csv(out)
        origin = [r for r in rows if float(r["x"]) == 0.0 and float(r["xp"]) == 0.0][0]
        assert float(origin["re"]) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)

    def test_hermiticity_across_grid(self, tmp_path, capsys):
        body = json.loads(json.dumps(FIG1))
        body["initial"].update(x0=0.7, p0=-0.4)
        cfg = write_config(tmp_path, body)
        code, out, _ = run(capsys, ["density", "--config", cfg, "--t", "1.5",
                                    "--x-min", "-2", "--x-max", "2", "--n", "5"])
        assert code == 0
        values = {(r["x"], r["xp"]): complex(float(r["re"]), float(r["im"]))
                  for r in parse_csv(out)}
        for (x, xp), v in values.items():
            assert v == pytest.approx(values[(xp, x)].conjugate(), rel=1e-12)

    def test_invalid_thermal_coefficients_exit_two(self, tmp_path, capsys):
        body = json.loads(json.dumps(FIG1))
        body["thermal"]["C"] = 1.0  # fails the fundamental constraint with mu != 0
        cfg = write_config(tmp_path, body)
        code, _, err = run(capsys, ["density", "--config", cfg, "--t", "1.0"])
        assert code == 2

    def test_bad_n_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        code, _, _ = run(capsys, ["density", "--config", cfg, "--n", "1"])
        assert code == 1

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_t_is_a_config_error_from_flag_and_file(self, tmp_path, capsys, value):
        # as the file's value, so the flag's: exit 1 naming density.t, not
        # the physics exit 2 that a finite negative t takes
        want = f"config error: 'density.t' must be a finite number, got {float(value)!r}\n"
        cfg = write_config(tmp_path, FIG1)
        assert run(capsys, ["density", "--config", cfg, f"--t={value}"]) == (1, "", want)
        cfg = write_config(tmp_path, dict(FIG1, density={"t": float(value)}))
        assert run(capsys, ["density", "--config", cfg]) == (1, "", want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flags", [[], ["--stationary"]])
    def test_overflowing_exponent_is_warning_free(self, capsys, flags):
        # at |x| ~ 1e200 the exponent overflows to -inf and the element is 0,
        # also at x = x' = 1e308, where x + x' overflows; numpy's
        # floating-point warnings, here errors, must not escape
        cfg = str(ROOT / "configs/single_mode.json")
        for x_max in ("1e201", "1e308"):
            code, out, err = run(capsys, ["density", "--config", cfg, "--x-min", "1e200",
                                          "--x-max", x_max, "--n", "2", *flags])
            assert code == 0 and err == ""
            assert {(r["re"], r["im"]) for r in parse_csv(out)} == {("0.00000000000000e+00",) * 2}


@pytest.mark.filterwarnings("ignore:thermal_fluctuation_time")
class TestTimescalesCommand:
    def test_reference_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        code, out, _ = run(capsys, ["timescales", "--config", cfg])
        assert code == 0
        values = {r["name"]: float(r["value"]) for r in parse_csv(out)}
        assert values["t_deco_r0"] == pytest.approx(1.0 / 4.2, abs=1e-12)
        assert values["t_relaxation"] == pytest.approx(5.0, abs=1e-15)
        assert "t_deco_zero_temperature" not in values

    def test_zero_temperature_infinite(self, tmp_path, capsys):
        body = {
            "oscillator": {"lambda": 0.2, "mu": 0.0},
            "thermal": {"C": 1.0},
            "initial": {"delta": 1.0, "r": 0.0},
        }
        cfg = write_config(tmp_path, body)
        code, out, _ = run(capsys, ["timescales", "--config", cfg])
        assert code == 0
        rows = {r["name"]: r["value"] for r in parse_csv(out)}
        assert rows["t_deco_zero_temperature"] == "inf"

    def test_zero_temperature_with_mu_exits_two(self, tmp_path, capsys):
        body = json.loads(json.dumps(FIG1))
        body["thermal"]["C"] = 1.0
        cfg = write_config(tmp_path, body)
        code, _, err = run(capsys, ["timescales", "--config", cfg])
        assert code == 2

    def test_warning_is_a_line_without_source_location(self):
        # C = 2 is outside the high-temperature regime: the command says so in
        # a warning line, not in a Python warning with a path and line number
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "lindosc", "timescales", "--config",
             str(ROOT / "configs" / "single_mode.json")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stdout.startswith("name,value\n")
        assert proc.stderr == ("warning: thermal_fluctuation_time assumes the high-temperature "
                               "regime; C=2.0\n")
        assert "UserWarning" not in proc.stderr and ".py:" not in proc.stderr

    def test_high_temperature_concordance(self, tmp_path, capsys):
        body = json.loads(json.dumps(FIG1))
        body["thermal"]["C"] = 10.0
        cfg = write_config(tmp_path, body)
        code, out, _ = run(capsys, ["timescales", "--config", cfg])
        assert code == 0
        values = {r["name"]: float(r["value"]) for r in parse_csv(out)}
        ratio = values["t_deco_high_temperature"] / values["t_thermal_fluctuation"]
        assert abs(ratio - 1.0) <= 0.05


class TestAsymptoticCommand:
    def test_window_environment_report(self, tmp_path, capsys):
        body = dict(FIG1, two_mode_env=WINDOW_ENV)
        body = json.loads(json.dumps(body))
        body["oscillator"]["mu"] = 0.0
        cfg = write_config(tmp_path, body)
        code, out, err = run(capsys, ["asymptotic", "--config", cfg])
        assert code == 0
        assert "positivity" in err  # warned, not fatal
        values = {r["name"]: r["value"] for r in parse_csv(out)}
        assert float(values["sigma_xy"]) == pytest.approx(0.5 / 1.04, rel=1e-12)
        assert float(values["sigma_pxpy"]) == pytest.approx(-0.5 / 1.04, rel=1e-12)
        assert float(values["det_cross_block"]) == pytest.approx(-0.25 / 1.04, rel=1e-12)
        assert float(values["simon_score"]) == pytest.approx(-0.18259985, abs=1e-7)
        assert float(values["simon_score_closed_form"]) == \
            pytest.approx(float(values["simon_score"]), abs=1e-10)
        assert values["separable"] == "entangled"
        assert float(values["lyapunov_residual"]) <= 1e-10

    def test_cross_free_environment_separable(self, tmp_path, capsys):
        env = dict(WINDOW_ENV, Dxpy=0.0)
        body = json.loads(json.dumps(dict(FIG1, two_mode_env=env)))
        body["oscillator"]["mu"] = 0.0
        cfg = write_config(tmp_path, body)
        code, out, _ = run(capsys, ["asymptotic", "--config", cfg])
        assert code == 0
        values = {r["name"]: r["value"] for r in parse_csv(out)}
        assert float(values["sigma_xy"]) == 0.0
        assert values["separable"] in ("separable", "separable-boundary")

    @pytest.mark.parametrize("dxx, dxpy", [
        (10.0, 51.5000970873),
        (1000.0, math.sqrt(1.04) * (1000.0 / 0.2 + 0.5)),
    ])
    def test_window_edge_is_no_disagreement(self, tmp_path, capsys, dxx, dxpy):
        # at the upper window edge S cancels terms of size (Dxx/lam)^4, and
        # the closed-form and full scores differ by rounding only
        env = dict(WINDOW_ENV, Dxx=dxx, Dpxpx=dxx, Dxpy=dxpy)
        body = json.loads(json.dumps(dict(FIG1, two_mode_env=env)))
        body["oscillator"]["mu"] = 0.0
        cfg = write_config(tmp_path, body)
        code, out, err = run(capsys, ["asymptotic", "--config", cfg])
        assert code == 0
        assert "disagree" not in err
        values = {r["name"]: r["value"] for r in parse_csv(out)}
        assert values["separable"] == "separable-boundary"
        p = OscillatorParams(lam=0.2)
        two_mode_env = TwoModeEnvironment.symmetric_env(lam=0.2, **env)
        sigma = steady_covariance_closed_form(two_mode_env, p)
        assert values["simon_score"] == "%.14e" % simon_score(sigma)
        assert values["simon_score_closed_form"] == \
            "%.14e" % simon_score_closed_form(two_mode_env, p)

    def test_positive_cross_determinant_omits_the_closed_form(self, tmp_path, capsys):
        # with det C > 0 the closed form exceeds the full score by det C, far
        # beyond rounding; it is not a second route there
        env = dict(WINDOW_ENV, Dxy=0.3, Dpxpy=0.3, Dxpy=0.05)
        body = json.loads(json.dumps(dict(FIG1, two_mode_env=env)))
        body["oscillator"]["mu"] = 0.0
        cfg = write_config(tmp_path, body)
        code, out, err = run(capsys, ["asymptotic", "--config", cfg])
        assert code == 0
        values = {r["name"]: r["value"] for r in parse_csv(out)}
        assert float(values["det_cross_block"]) > 0.0
        assert "simon_score_closed_form" not in values
        assert values["separable"] == "separable"

    @pytest.mark.parametrize("dxy", [0.47000000000000003, 0.3])
    def test_zero_cross_determinant_keeps_the_closed_form(self, tmp_path, capsys, dxy):
        # det C = 0 exactly: its float is rounding, of either sign, and only
        # a det C resolved positive drops the closed form
        env = dict(Dxx=1.0, Dxpx=0.0, Dpxpx=1.0, Dxy=dxy, Dxpy=dxy * math.sqrt(1.04) / 0.2,
                   Dpxpy=dxy)
        body = json.loads(json.dumps(dict(FIG1, two_mode_env=env)))
        body["oscillator"]["mu"] = 0.0
        cfg = write_config(tmp_path, body)
        code, out, err = run(capsys, ["asymptotic", "--config", cfg])
        assert code == 0
        assert "disagree" not in err
        values = {r["name"]: r["value"] for r in parse_csv(out)}
        assert 0.0 < abs(float(values["det_cross_block"])) < 1e-15
        assert "simon_score_closed_form" in values

    def test_zero_cross_determinant_routes_agree(self, tmp_path, capsys):
        # random det C = 0 nodes of the closed-form family: Dxpy = m w Dxy
        # sqrt(lam^2 + w^2)/lam; the two routes agree within their bounds
        rng = np.random.default_rng(43)
        for _ in range(200):
            lam = rng.uniform(0.05, 0.5)
            m, w = 10.0 ** rng.uniform(-0.5, 0.5, 2)
            mw = m * w
            dxx, dxy = rng.uniform(0.1, 3.0) * lam / mw, rng.uniform(-1.5, 1.5) * lam / mw
            env = dict(Dxx=dxx, Dxpx=0.0, Dpxpx=mw * mw * dxx, Dxy=dxy,
                       Dxpy=mw * dxy * math.sqrt(lam * lam + w * w) / lam, Dpxpy=mw * mw * dxy)
            cfg = write_config(tmp_path, dict(oscillator={"lambda": lam, "m": m, "omega": w},
                                              two_mode_env=env))
            code, out, err = run(capsys, ["asymptotic", "--config", cfg])
            assert code == 0, err
            assert "simon_score_closed_form" in {r["name"] for r in parse_csv(out)}

    def test_gap_beyond_the_rounding_bound_exits_two(self, tmp_path, capsys, monkeypatch):
        body = json.loads(json.dumps(dict(FIG1, two_mode_env=WINDOW_ENV)))
        body["oscillator"]["mu"] = 0.0
        cfg = write_config(tmp_path, body)

        def shifted(env, params):
            score, bound = closed_form_route(env, params)
            return score + 1e-9, bound

        monkeypatch.setattr(cli, "closed_form_route", shifted)
        code, out, err = run(capsys, ["asymptotic", "--config", cfg])
        assert code == 2
        assert "closed-form and full separability scores disagree" in err
        assert out == ""

    def test_closed_form_parameter_error_exits_two(self, tmp_path, capsys, monkeypatch):
        # only the closed form's family gate is a reason to omit its row
        cfg = write_config(tmp_path, dict(oscillator={"lambda": 0.2}, two_mode_env=WINDOW_ENV))

        def failing(env, params):
            raise ParameterError("closed form failed")

        monkeypatch.setattr(cli, "closed_form_route", failing)
        code, out, err = run(capsys, ["asymptotic", "--config", cfg])
        assert code == 2
        assert "closed form failed" in err
        assert out == ""

    def test_mirror_env_outside_the_family_omits_the_closed_form(self, tmp_path, capsys):
        env = dict(WINDOW_ENV, Dxpx=0.01)  # det C < 0, but Dxpx != 0
        cfg = write_config(tmp_path, dict(oscillator={"lambda": 0.2}, two_mode_env=env))
        code, out, err = run(capsys, ["asymptotic", "--config", cfg])
        assert code == 0, err
        values = {r["name"]: r["value"] for r in parse_csv(out)}
        assert float(values["det_cross_block"]) < 0.0
        assert "simon_score_closed_form" not in values

    def test_requires_env_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        code, _, err = run(capsys, ["asymptotic", "--config", cfg])
        assert code == 1
        assert "two_mode_env" in err


class TestPropagateCommand:
    def _window_config(self, tmp_path, delta=4.0, dxx=0.1):
        body = json.loads(json.dumps(dict(FIG1, two_mode_env=dict(WINDOW_ENV, Dxx=dxx, Dpxpx=dxx))))
        body["oscillator"]["mu"] = 0.0
        body["initial"]["delta"] = delta
        return write_config(tmp_path, body)

    def test_stationary_start_is_constant(self, tmp_path, capsys):
        # delta = 1 product state equals the asymptotic state of the
        # cross-free environment with Dxx = lam/2
        body = {
            "oscillator": {"lambda": 0.2, "mu": 0.0},
            "initial": {"delta": 1.0, "r": 0.0},
            "two_mode_env": {"Dxx": 0.1, "Dxpx": 0.0, "Dpxpx": 0.1,
                             "Dxy": 0.0, "Dxpy": 0.0, "Dpxpy": 0.0},
        }
        cfg = write_config(tmp_path, body)
        code, out, _ = run(capsys, ["propagate", "--config", cfg,
                                    "--t-max", "10", "--steps", "5"])
        assert code == 0
        rows = parse_csv(out)
        for r in rows:
            assert float(r["sigma_xx"]) == pytest.approx(0.5, abs=1e-12)
            assert float(r["sigma_pypy"]) == pytest.approx(0.5, abs=1e-12)
            assert float(r["sigma_xy"]) == pytest.approx(0.0, abs=1e-12)

    def test_entanglement_develops_in_window(self, tmp_path, capsys):
        cfg = self._window_config(tmp_path)
        code, out, _ = run(capsys, ["propagate", "--config", cfg,
                                    "--t-max", "50", "--steps", "26"])
        assert code == 0
        rows = parse_csv(out)
        scores = [float(r["simon_score"]) for r in rows]
        assert scores[0] == pytest.approx(0.0, abs=1e-12)  # product state starts on the boundary
        assert scores[-1] < 0.0
        assert any(s >= 0.0 for s in scores[:2])

    def test_final_row_near_asymptotics(self, tmp_path, capsys):
        cfg = self._window_config(tmp_path)
        code, out, _ = run(capsys, ["propagate", "--config", cfg,
                                    "--t-max", "50", "--steps", "11"])
        rows = parse_csv(out)
        final = rows[-1]
        # t_max = 50 = 10/lam: remaining transient is below exp(-2*lam*t) scale
        assert float(final["sigma_xy"]) == pytest.approx(0.5 / 1.04, abs=1e-7)
        assert float(final["simon_score"]) == pytest.approx(-0.18259985, abs=1e-6)


    def test_one_lyapunov_solve_per_call(self, tmp_path, capsys, monkeypatch):
        from lindosc import two_mode

        solves = []
        solve = two_mode.steady_entries
        monkeypatch.setattr(two_mode, "steady_entries",
                            lambda *args: solves.append(args) or solve(*args))
        code, out, _ = run(capsys, ["propagate", "--config", self._window_config(tmp_path),
                                    "--steps", "2500"])
        assert code == 0 and len(parse_csv(out)) == 2500
        assert len(solves) == 1

    @pytest.mark.parametrize("slice_cells", [1, 3, NODE_BLOCK, 64 * NODE_BLOCK])
    def test_output_does_not_depend_on_the_slice_size(self, capsys, monkeypatch, slice_cells):
        # 9,000 rows are several render slices.  In the mirror environment
        # B's entries are A's arrays and C's x10 is its x01, so each slice
        # formats 8 distinct float columns of the 12.
        argv = ["propagate", "--config", str(ROOT / "configs" / "two_mode_window.json"),
                "--steps", "9000"]
        kernel, stacks = cli._float_cells, []
        monkeypatch.setattr(cli, "_float_cells",
                            lambda x: stacks.append(x.shape) or kernel(x))
        code, want, err = run(capsys, argv)
        assert code == 0 and len(parse_csv(want)) == 9000
        monkeypatch.setattr(cli, "_SLICE_CELLS", slice_cells)
        assert run(capsys, argv) == (code, want, err)
        assert stacks and all(shape[0] == 8 for shape in stacks)

    def test_one_block_shares_the_mirror_columns(self, capsys, monkeypatch):
        # the trajectory reaches the table as one block of whole columns, in
        # which B's columns are A's objects and sigma_ypx is sigma_xpy's
        blocks = []

        class Recording(cli.CsvTable):
            def add_columns(self, *columns):
                blocks.append(dict(zip(self.columns, columns)))
                super().add_columns(*columns)

        monkeypatch.setattr(cli, "CsvTable", Recording)
        code, out, _ = run(capsys, ["propagate", "--config",
                                    str(ROOT / "configs" / "two_mode_window.json"),
                                    "--steps", "9000"])
        assert code == 0 and len(blocks) == 1
        (block,) = blocks
        assert len(block["t"]) == 9000
        for b, a in (("sigma_yy", "sigma_xx"), ("sigma_ypy", "sigma_xpx"),
                     ("sigma_pypy", "sigma_pxpx"), ("sigma_ypx", "sigma_xpy")):
            assert block[b] is block[a]


class TestScanCommand:
    def _config(self, tmp_path, dxx=0.1):
        body = json.loads(json.dumps(dict(FIG1, two_mode_env=dict(WINDOW_ENV, Dxx=dxx, Dpxpx=dxx))))
        body["oscillator"]["mu"] = 0.0
        return write_config(tmp_path, body)

    def test_sign_changes_at_window_edges(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        code, out, _ = run(capsys, ["scan", "--config", cfg,
                                    "--dxpy-min", "0", "--dxpy-max", "1.5",
                                    "--dxpy-steps", "151"])
        assert code == 0
        rows = parse_csv(out)
        crossings = []
        for a, b in zip(rows[:-1], rows[1:]):
            if (float(a["S"]) < 0.0) != (float(b["S"]) < 0.0):
                crossings.append(0.5 * (float(a["Dxpy"]) + float(b["Dxpy"])))
        assert len(crossings) == 2
        assert crossings[0] == pytest.approx(0.0, abs=0.02)
        assert crossings[1] == pytest.approx(math.sqrt(1.04), abs=0.02)

    def test_non_finite_score_is_boundary(self, tmp_path, capsys, recwarn):
        # S overflows to inf or nan at Dxx = 1e100; neither sign is a verdict,
        # and the overflow is not reported as a numpy warning
        cfg = self._config(tmp_path)
        code, out, err = run(capsys, ["scan", "--config", cfg, "--dxx-min", "1e100",
                                      "--dxx-max", "1e100", "--dxpy-max", "1e100",
                                      "--dxpy-steps", "3"])
        assert code == 0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in err
        rows = parse_csv(out)
        assert {r["S"] for r in rows} == {"inf", "nan"}
        assert all(r["separable"] == "boundary" for r in rows)
        assert all(r["status"] == "indeterminate" for r in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_environment_is_warning_free(self, capsys):
        # at Dxx = 1e308 the steady entries, D/lam and the window ratio
        # overflow; numpy's floating-point warnings, here errors, must not escape
        cfg = str(ROOT / "configs/two_mode_window.json")
        code, out, err = run(capsys, ["scan", "--config", cfg, "--dxx-min", "1e308",
                                      "--dxx-max", "1e308", "--dxpy-steps", "2"])
        assert code == 0 and err == ""
        assert [(r["S"], r["separable"], r["in_window"], r["status"]) for r in parse_csv(out)] \
            == [("nan", "boundary", "false", "indeterminate")] * 2

    def test_saturated_window_edge_is_not_invalid(self, tmp_path, capsys):
        # At m w Dxx/lam = 1/2 and Dxpy = 0 the environment is completely
        # positive with equality (D/lam has symplectic eigenvalues 1/2), and
        # S is 0 up to rounding: the node is boundary-indeterminate
        rng = random.Random(5)
        for k in range(40):
            lam, m, w = (10.0 ** rng.uniform(-1.0, 1.0) for _ in range(3))
            dxx = lam / (2.0 * m * w)
            while m * w * dxx / lam < 0.5:
                dxx = math.nextafter(dxx, math.inf)
            body = dict(FIG1, oscillator={"lambda": lam, "mu": 0.0, "m": m, "omega": w,
                                          "hbar": 1.0},
                        two_mode_env=dict(WINDOW_ENV, Dxx=dxx, Dpxpx=(m * w) ** 2 * dxx))
            cfg = write_config(tmp_path, body, f"edge{k}.json")
            code, out, _ = run(capsys, ["scan", "--config", cfg, "--dxpy-min", "0",
                                        "--dxpy-max", "0", "--dxpy-steps", "1"])
            assert code == 0
            assert parse_csv(out)[0]["status"] == "boundary-indeterminate"

    def test_zero_dxx_cross_template_is_invalid(self, tmp_path, capsys):
        # Dxy = 1 at Dxx = 0: sigma_00 and det A of D/lam are 0, and the
        # environment is not completely positive
        body = json.loads(json.dumps(dict(FIG1, two_mode_env=dict(WINDOW_ENV, Dxy=1.0,
                                                                  Dpxpy=1.0))))
        body["oscillator"]["mu"] = 0.0
        cfg = write_config(tmp_path, body)
        code, out, _ = run(capsys, ["scan", "--config", cfg, "--dxx-min", "0", "--dxx-max", "0",
                                    "--dxx-steps", "1", "--dxpy-min", "0", "--dxpy-max", "1",
                                    "--dxpy-steps", "3"])
        assert code == 0
        assert [r["status"] for r in parse_csv(out)] == ["invalid"] * 3

    def test_low_dxx_marks_invalid_window(self, tmp_path, capsys):
        cfg = self._config(tmp_path, dxx=0.05)
        code, out, _ = run(capsys, ["scan", "--config", cfg,
                                    "--dxpy-min", "0", "--dxpy-max", "1",
                                    "--dxpy-steps", "5"])
        assert code == 0
        rows = parse_csv(out)
        assert all(r["status"] == "invalid-window" for r in rows)

    def test_deterministic_output(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        argv = ["scan", "--config", cfg, "--dxpy-min", "0", "--dxpy-max", "1.5",
                "--dxpy-steps", "40"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestTwoModeMuWarning:
    """The two-mode model has no friction asymmetry: a nonzero mu is said once,
    as a warning line without a source location, and changes no output."""

    @pytest.mark.parametrize("command", ["asymptotic", "propagate", "scan"])
    def test_mu_is_one_warning_line(self, tmp_path, capsys, recwarn, command):
        body = json.loads((ROOT / "configs/two_mode_window.json").read_text())
        without = write_config(tmp_path, body, "mu_zero.json")
        body["oscillator"]["mu"] = 0.1
        code, out, err = run(capsys, [command, "--config", write_config(tmp_path, body)])
        want_code, want_out, want_err = run(capsys, [command, "--config", without])
        assert code == want_code == 0 and out == want_out
        assert err == ("warning: the two-mode model has no friction asymmetry; "
                       "params.mu is ignored\n" + want_err)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


class TestWarningHook:
    """main runs each command with one hook for library warnings: each that
    the filters in force let through is one ``warning: <message>`` line."""

    @staticmethod
    def _mu_config(tmp_path):
        body = json.loads((ROOT / "configs/two_mode_window.json").read_text())
        body["oscillator"]["mu"] = 0.1
        return write_config(tmp_path, body, "mu.json")

    @staticmethod
    def _hbar_two_config(tmp_path):
        # D/(hbar lam) = 0.375 I fails det A >= 1/4 at hbar = 2
        body = dict(FIG1, two_mode_env=dict(WINDOW_ENV, Dxx=0.15, Dpxpx=0.15, Dxpy=0.0))
        body["oscillator"] = dict(body["oscillator"], mu=0.0, hbar=2.0)
        return write_config(tmp_path, body, "hbar_two.json")

    def _argv(self, tmp_path, case):
        return {"timescales": ["timescales", "--config",
                               str(ROOT / "configs" / "single_mode.json")],
                "mu": ["asymptotic", "--config", self._mu_config(tmp_path)],
                "hbar": ["asymptotic", "--config", self._hbar_two_config(tmp_path)],
                "usage": ["scan", "--config", str(tmp_path / "missing.json")]}[case]

    @pytest.mark.parametrize("case, want", [("timescales", 0), ("mu", 0), ("hbar", 2),
                                            ("usage", 1)])
    def test_showwarning_is_restored(self, tmp_path, capsys, case, want):
        before = warnings.showwarning
        code, _, _ = run(capsys, self._argv(tmp_path, case))
        assert code == want and warnings.showwarning is before

    @pytest.mark.parametrize("case, message", [
        ("timescales", "thermal_fluctuation_time assumes the high-temperature regime"),
        ("mu", "params.mu is ignored")])
    def test_filters_in_force_apply(self, tmp_path, capsys, case, message):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            code, out, err = run(capsys, self._argv(tmp_path, case))
        assert code == 0 and out and message not in err

    @pytest.mark.parametrize("argv", [["asymptotic"], ["propagate"],
                                      ["propagate", "--steps", "0"],
                                      ["scan", "--dxx-steps", "0"]])
    def test_hbar_error_comes_first_and_alone(self, tmp_path, capsys, argv):
        # no result is produced, so neither the positivity warning of this
        # environment nor a bad grid flag is reported before the hbar error
        code, out, err = run(capsys, argv + ["--config", self._hbar_two_config(tmp_path)])
        assert code == 2 and out == ""
        assert err == "error: two-mode operations are normalized to hbar = 1, got hbar=2.0\n"


class TestMain:
    def test_calls_do_not_share_parsed_state(self, tmp_path, capsys):
        # the parser is built once per process; each call parses afresh
        cfg = write_config(tmp_path, dict(FIG1, two_mode_env=WINDOW_ENV))
        grid = ["--c-min", "1", "--c-max", "2", "--c-steps", "2", "--t-steps", "2"]
        code, out, _ = run(capsys, ["deco-grid", "--config", cfg, "--skip-invalid", *grid])
        assert code == 0 and "status" in out.splitlines()[0]
        code, out, _ = run(capsys, ["scan", "--config", cfg, "--dxpy-steps", "3"])
        assert code == 0 and len(parse_csv(out)) == 3
        code, out, err = run(capsys, ["deco-grid", "--config", cfg, *grid])
        assert code == 2 and out == "" and "C=1.0" in err

    def test_command_is_looked_up_at_call_time(self, tmp_path, capsys, monkeypatch):
        calls = []

        def cmd_scan(cfg, args):
            calls.append(args.command)
            return 7

        monkeypatch.setattr(cli, "cmd_scan", cmd_scan)
        cfg = write_config(tmp_path, dict(FIG1, two_mode_env=WINDOW_ENV))
        assert cli.main(["scan", "--config", cfg]) == 7
        assert calls == ["scan"]


class TestOutputFile:
    @pytest.mark.filterwarnings("ignore:thermal_fluctuation_time")
    def test_out_flag_writes_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        out_path = tmp_path / "result.csv"
        code, out, _ = run(capsys, ["timescales", "--config", cfg, "--out", str(out_path)])
        assert code == 0
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("name,value")

    @pytest.mark.filterwarnings("ignore:thermal_fluctuation_time")
    def test_unwritable_out_path_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        out_path = tmp_path / "missing" / "result.csv"
        code, out, err = run(capsys, ["timescales", "--config", cfg, "--out", str(out_path)])
        assert code == 1
        assert out == ""
        assert err == f"config error: cannot write {out_path}: No such file or directory\n"
        assert not out_path.parent.exists()

    @pytest.mark.parametrize("argv", [
        ["deco-grid", "--config", "single_mode.json", "--skip-invalid", "--t-steps", "40",
         "--c-steps", "50"],
        ["propagate", "--config", "two_mode_window.json", "--steps", "3000"],
        ["scan", "--config", "two_mode_window.json", "--dxpy-steps", "1000"],
    ])
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsysbinary, argv):
        argv = [str(ROOT / "configs" / a) if a.endswith(".json") else a for a in argv]
        assert cli.main(argv) == 0
        want = capsysbinary.readouterr().out
        out_path = tmp_path / "result.csv"
        assert cli.main(argv + ["--out", str(out_path)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert out_path.read_bytes() == want and len(want) > 1 << 16

    def test_text_only_stdout_takes_the_text(self, capsys, monkeypatch):
        argv = ["scan", "--config", str(ROOT / "configs" / "two_mode_window.json")]
        assert cli.main(argv) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert cli.main(argv) == 0
        assert sys.stdout.getvalue() == want


@pytest.mark.skipif(sys.platform != "linux", reason="pipe capacity is set through Linux fcntl")
class TestPipeWidening:
    """A command grows a standard output that is a pipe to ``_PIPE_BYTES``
    before it writes, and never shrinks one."""

    ARGV = ["asymptotic", "--config", str(ROOT / "configs" / "two_mode_window.json")]

    @staticmethod
    def _run_into_pipe(monkeypatch, argv, capacity=None):
        """Exit code, output and pipe capacity before and after ``argv`` runs
        with standard output on a fresh pipe, first set to ``capacity``."""
        read_fd, write_fd = os.pipe()
        with open(read_fd, "rb") as reader, open(write_fd, "wb") as writer:
            if capacity is not None:
                fcntl.fcntl(read_fd, fcntl.F_SETPIPE_SZ, capacity)
            before = fcntl.fcntl(read_fd, fcntl.F_GETPIPE_SZ)
            text = io.TextIOWrapper(writer, write_through=True)
            with monkeypatch.context() as m:
                m.setattr(sys, "stdout", text)
                code = cli.main(argv)
            text.detach().close()
            return code, reader.read(), before, fcntl.fcntl(read_fd, fcntl.F_GETPIPE_SZ)

    def test_pipe_grows(self, capsysbinary, monkeypatch):
        code, out, before, after = self._run_into_pipe(monkeypatch, self.ARGV)
        assert cli.main(self.ARGV) == code == 0 and out == capsysbinary.readouterr().out
        read_fd, write_fd = os.pipe()  # may this process grow a pipe as far?
        try:
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, cli._PIPE_BYTES)
            refused = False
        except PermissionError:
            refused = True
        finally:
            os.close(read_fd)
            os.close(write_fd)
        assert before < cli._PIPE_BYTES
        assert after == before if refused else after >= cli._PIPE_BYTES

    def test_wider_pipe_is_not_shrunk(self, monkeypatch):
        try:
            code, _, before, after = self._run_into_pipe(monkeypatch, self.ARGV, 1 << 20)
        except PermissionError:
            pytest.skip("this process may not grow a pipe to 1 MiB")
        assert code == 0 and before == after == 1 << 20
        monkeypatch.setattr(cli, "_PIPE_BYTES", 1 << 17)
        code, _, before, after = self._run_into_pipe(monkeypatch, self.ARGV, 1 << 20)
        assert code == 0 and before == after == 1 << 20

    def test_no_pipe_no_fcntl_call(self, tmp_path, monkeypatch):
        # --out, and a text standard output without bytes underneath, are no
        # pipe: the command sets nothing and writes as before
        calls = []
        monkeypatch.setattr(fcntl, "fcntl", lambda *args: calls.append(args))
        out_path = tmp_path / "result.csv"
        assert cli.main(self.ARGV + ["--out", str(out_path)]) == 0
        want = out_path.read_text()
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert cli.main(self.ARGV) == 0
        assert sys.stdout.getvalue() == want and calls == []

    def test_fcntl_without_pipe_sizes(self, capsysbinary, monkeypatch):
        # an fcntl module without F_GETPIPE_SZ and F_SETPIPE_SZ, as on other
        # systems: the pipe keeps its capacity and takes the same bytes
        assert cli.main(self.ARGV) == 0
        want = capsysbinary.readouterr().out
        monkeypatch.setitem(sys.modules, "fcntl", types.SimpleNamespace(fcntl=fcntl.fcntl))
        code, out, before, after = self._run_into_pipe(monkeypatch, self.ARGV)
        assert code == 0 and out == want and before == after


class TestClosedStdout:
    def test_closed_pipe_exits_one_without_a_traceback(self):
        # The output (about 5 MB) is far larger than a pipe buffer, also one
        # widened to 1 MiB, so the command is still writing when its reader
        # closes the pipe.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "lindosc", "propagate", "--config",
             str(ROOT / "configs" / "two_mode_window.json"), "--steps", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert head[0].startswith(b"t,sigma_xx,") and head[1].startswith(b"0.0")
        assert "Traceback" not in err and "Error" not in err


def _configs(argv):
    """``argv`` with each bare ``*.json`` name taken from ``configs/``."""
    return [str(ROOT / "configs" / a) if a.endswith(".json") and "/" not in a else a
            for a in argv]


class TestStreamedOutput:
    """A command hands its header and then each render slice to its sink as
    soon as the slice is joined: one ``cli._emit`` call each, of ``bytes`` or
    ``bytearray``."""

    @pytest.fixture
    def emitted(self, monkeypatch):
        seen = {"writes": [], "joins": 0, "tables": []}
        emit, join = cli._emit, cli._join_rows

        def recording_emit(data, fh):
            seen["writes"].append(data)
            emit(data, fh)

        def counting_join(cells):
            seen["joins"] += 1
            return join(cells)

        class Recording(cli.CsvTable):
            def render(self, write):
                seen["tables"].append(self)
                super().render(write)

        monkeypatch.setattr(cli, "_emit", recording_emit)
        monkeypatch.setattr(cli, "_join_rows", counting_join)
        monkeypatch.setattr(cli, "CsvTable", Recording)
        return seen

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("argv", [
        ["deco-grid", "--config", "single_mode.json", "--skip-invalid", "--t-steps", "300",
         "--c-steps", "300"],
        ["density", "--config", "single_mode.json", "--n", "200"],
        ["propagate", "--config", "two_mode_window.json", "--steps", "9000"],
        ["scan", "--config", "two_mode_window.json", "--dxx-steps", "2", "--dxpy-steps", "5000"],
    ])
    def test_one_emit_per_slice(self, tmp_path, capsysbinary, emitted, argv, to_file):
        out_path = tmp_path / "result.csv"
        assert cli.main(_configs(argv) + (["--out", str(out_path)] if to_file else [])) == 0
        out = capsysbinary.readouterr().out
        (table,), slices, writes = emitted["tables"], emitted["joins"], emitted["writes"]
        assert slices > 1 and len(writes) == 1 + slices
        assert {type(data) for data in writes} <= {bytes, bytearray}
        assert writes[0] == (",".join(table.columns) + "\n").encode()
        written = out_path.read_bytes() if to_file else out
        assert b"".join(writes) == written == _rendered(table)
        assert out == (b"" if to_file else written)


class TestNothingWrittenOnFailure:
    """A command opens its sink only after all its checks: an exit 1 or 2
    leaves no ``--out`` file and no standard output, and calls no ``_emit``."""

    @pytest.fixture
    def emits(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_emit", lambda data, fh: calls.append(data))
        return calls

    @pytest.mark.filterwarnings("ignore:thermal_fluctuation_time")
    @pytest.mark.parametrize("argv", [
        ["validate", "--config", "single_mode.json"],
        ["deco-grid", "--config", "single_mode.json", "--skip-invalid"],
        ["density", "--config", "single_mode.json"],
        ["timescales", "--config", "single_mode.json"],
        ["asymptotic", "--config", "two_mode_window.json"],
        ["propagate", "--config", "two_mode_window.json"],
        ["scan", "--config", "two_mode_window.json"],
    ])
    def test_unwritable_out_path(self, tmp_path, capsys, emits, argv):
        out_path = tmp_path / "missing" / "result.csv"
        code, out, err = run(capsys, _configs(argv) + ["--out", str(out_path)])
        assert code == 1 and out == "" and emits == []
        assert err.endswith(f"config error: cannot write {out_path}: No such file or directory\n")
        assert not out_path.parent.exists()

    @pytest.mark.parametrize("argv, want", [
        (["deco-grid", "--config", "single_mode.json"], 2),  # C = 1 fails validation
        (["deco-grid", "--config", "single_mode.json", "--c-min", "0.5"], 2),
        (["deco-grid", "--config", "single_mode.json", "--t-steps", "0"], 1),
        (["density", "--config", "single_mode.json", "--n", "1"], 1),
        (["propagate", "--config", "two_mode_window.json", "--steps", "0"], 1),
        (["scan", "--config", "two_mode_window.json", "--dxx-steps", "0"], 1),
        (["scan", "--config", "hbar_two.json"], 2),
        (["propagate", "--config", "hbar_two.json"], 2),
        (["asymptotic", "--config", "hbar_two.json"], 2),
        (["asymptotic", "--config", "single_mode.json"], 1),  # no two_mode_env
    ])
    def test_failed_command(self, tmp_path, capsys, emits, argv, want):
        body = dict(FIG1, two_mode_env=dict(WINDOW_ENV, Dxx=0.15, Dpxpx=0.15, Dxpy=0.0))
        body["oscillator"] = dict(body["oscillator"], mu=0.0, hbar=2.0)
        write_config(tmp_path, body, "hbar_two.json")
        argv = _configs([str(tmp_path / a) if a == "hbar_two.json" else a for a in argv])
        out_path = tmp_path / "result.csv"
        code, out, err = run(capsys, argv + ["--out", str(out_path)])
        assert code == want and out == "" and emits == [] and err
        assert not out_path.exists()
        assert run(capsys, argv) == (code, "", err)

    @pytest.mark.parametrize("argv, grid", [
        (["propagate", "--config", "two_mode_window.json", "--steps"], "t grid"),
        (["scan", "--config", "two_mode_window.json", "--dxpy-steps"], "Dxpy grid"),
        (["deco-grid", "--config", "single_mode.json", "--t-steps"], "t grid"),
    ])
    def test_grid_too_large_for_numpy(self, capsys, argv, grid):
        # numpy refuses 10**20 float64 values before it allocates any
        code, out, err = run(capsys, _configs(argv) + [str(10**20)])
        errors = [ln for ln in err.splitlines() if not ln.startswith("warning: ")]
        assert code == 1 and out == "" and len(errors) == 1
        assert errors[0].startswith(f"config error: {grid}: cannot hold {10**20} steps (")


class TestHeapPin:
    """The CLI pins glibc's mmap and trim thresholds before its first command,
    so that a warm call does not return its slice buffers to the kernel and
    fault them in again (a storm of hundreds of minor faults per call, seen
    to follow the byte layout of the sources)."""

    @pytest.mark.parametrize("argv", [
        ["deco-grid", "--config", "single_mode.json", "--skip-invalid", "--t-steps", "200",
         "--c-steps", "200", "--out", "OUT"],
        ["propagate", "--config", "two_mode_window.json", "--steps", "5001"],
    ], ids=["deco-grid", "propagate"])
    def test_warm_calls_take_few_minor_faults(self, tmp_path, monkeypatch, argv):
        resource = pytest.importorskip("resource")
        if sys.platform != "linux" or not cli._pin_heap():
            pytest.skip("glibc's mallopt is not available")
        argv = [str(tmp_path / "out.csv") if a == "OUT" else a for a in _configs(argv)]
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            monkeypatch.setattr(sys, "stderr", sink)
            faults = []
            for _ in range(25):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                assert cli.main(argv) == 0
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            monkeypatch.undo()
        assert max(faults[5:]) <= 8, faults


class TestLoadTimeChecks:
    """A config value that is not a finite number, or a fraction for an integer
    key, fails every command at load, before any output."""

    @pytest.mark.parametrize("section,key,value,argv", [
        ("density", "n", math.nan, ["density", "--stationary"]),
        ("propagate", "steps", math.inf, ["propagate"]),
        ("deco_grid", "t_steps", 3.5, ["deco-grid", "--c-min", "2"]),
        ("initial", "x0", math.nan, ["deco-grid", "--c-min", "2", "--c-max", "3",
                                     "--c-steps", "2", "--t-steps", "2"]),
        ("oscillator", "lambda", math.nan, ["deco-grid", "--c-min", "2"]),
        ("deco_grid", "t_steps", 2.5, ["validate"]),
        pytest.param("thermal", "C", 10**400, ["validate"], id="int-past-float-range"),
    ])
    def test_exits_one_naming_the_key_and_writes_nothing(self, tmp_path, capsys,
                                                         section, key, value, argv):
        body = json.loads(json.dumps(dict(FIG1, two_mode_env=WINDOW_ENV)))
        body.setdefault(section, {})[key] = value
        cfg = write_config(tmp_path, body)  # json writes the NaN and Infinity literals
        out_path = tmp_path / "out.csv"
        code, out, err = run(capsys, [argv[0], "--config", cfg, "--out", str(out_path),
                                      *argv[1:]])
        assert code == 1
        assert err.startswith(f"config error: '{section}.{key}' must be ")
        assert err.count("\n") == 1
        assert out == "" and not out_path.exists()

    def test_whole_float_is_an_integer(self, tmp_path, capsys):
        body = dict(FIG1, two_mode_env=WINDOW_ENV)
        body["oscillator"] = dict(FIG1["oscillator"], mu=0.0)
        from_config = write_config(tmp_path, dict(body, propagate={"steps": 3.0}), "a.json")
        from_flag = write_config(tmp_path, body, "b.json")
        code, out, _ = run(capsys, ["propagate", "--config", from_config, "--t-max", "2"])
        assert code == 0 and len(parse_csv(out)) == 3
        _, want, _ = run(capsys, ["propagate", "--config", from_flag, "--t-max", "2",
                                  "--steps", "3"])
        assert out == want

    def test_finite_unphysical_value_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(FIG1, thermal={"C": 0.5}))
        code, out, err = run(capsys, ["validate", "--config", cfg])
        assert code == 2
        assert out == ""
        assert err == "error: C = coth(...) must be >= 1, got 0.5\n"


def _surface(parser):
    """{command: {(option strings, dest, type, default)}} of every subcommand."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {(tuple(a.option_strings), a.dest, a.type, a.default) for a in p._actions}
            for name, p in sub.choices.items()}


class TestReferenceRoute:
    """The Kronecker solve of :mod:`lindosc.lyapunov` is a test reference only."""

    @pytest.mark.filterwarnings("ignore:thermal_fluctuation_time")
    @pytest.mark.parametrize("argv", [
        ["validate", "--config", "single_mode.json"],
        ["deco-grid", "--config", "single_mode.json", "--skip-invalid"],
        ["deco-grid", "--config", "single_mode.json", "--skip-invalid", "--asymptotic"],
        ["density", "--config", "single_mode.json"],
        ["density", "--config", "single_mode.json", "--stationary"],
        ["timescales", "--config", "single_mode.json"],
        ["asymptotic", "--config", "two_mode_window.json"],
        ["asymptotic", "--config", "two_mode_window_edge.json"],
        ["propagate", "--config", "two_mode_window.json"],
        ["scan", "--config", "two_mode_window.json"],
    ])
    def test_no_command_reaches_it(self, capsys, monkeypatch, argv):
        from lindosc import lyapunov

        def unreachable(*args):
            raise AssertionError("lyapunov.steady_covariance called")

        monkeypatch.setattr(lyapunov, "steady_covariance", unreachable)
        argv = [str(ROOT / "configs" / a) if a.endswith(".json") else a for a in argv]
        code, out, _ = run(capsys, argv)
        assert code == 0 and out


class TestCliSurface:
    COMMON = {(("-h", "--help"), "help", None, argparse.SUPPRESS),
              (("--config",), "config", None, None),
              (("--out",), "out", None, None)}
    EXPECTED = {
        "validate": set(),
        "deco-grid": {(("--t-min",), "t_min", float, None), (("--t-max",), "t_max", float, None),
                      (("--t-steps",), "t_steps", int, None), (("--c-min",), "c_min", float, None),
                      (("--c-max",), "c_max", float, None), (("--c-steps",), "c_steps", int, None),
                      (("--asymptotic",), "asymptotic", None, False),
                      (("--skip-invalid",), "skip_invalid", None, False)},
        "density": {(("--t",), "t", float, None), (("--stationary",), "stationary", None, False),
                    (("--x-min",), "x_min", float, None), (("--x-max",), "x_max", float, None),
                    (("--n",), "n", int, None)},
        "timescales": set(),
        "asymptotic": set(),
        "propagate": {(("--t-max",), "t_max", float, None), (("--steps",), "steps", int, None)},
        "scan": {(("--dxx-min",), "dxx_min", float, None), (("--dxx-max",), "dxx_max", float, None),
                 (("--dxx-steps",), "dxx_steps", int, None),
                 (("--dxpy-min",), "dxpy_min", float, None),
                 (("--dxpy-max",), "dxpy_max", float, None),
                 (("--dxpy-steps",), "dxpy_steps", int, None)},
    }

    def test_every_subcommand_has_exactly_these_options(self):
        assert _surface(cli.build_parser()) == {
            name: self.COMMON | options for name, options in self.EXPECTED.items()}


class TestGridBounds:
    @pytest.mark.parametrize("argv", [
        ["scan", "--dxpy-max", "inf"],
        ["scan", "--dxpy-max", "nan"],
        ["scan", "--dxx-min=-inf", "--dxx-max", "1"],
        ["propagate", "--t-max", "inf"],
        ["propagate", "--t-max", "nan"],
        ["deco-grid", "--t-max", "inf"],
        ["deco-grid", "--c-max", "nan"],
        ["density", "--x-max", "inf"],
        # finite bounds whose span max - min overflows
        ["density", "--x-min=-1e308", "--x-max", "1e308"],
        ["scan", "--dxpy-min=-1e308", "--dxpy-max", "1e308"],
    ])
    def test_non_finite_bound_is_a_config_error(self, tmp_path, capsys, recwarn, argv):
        body = dict(FIG1, two_mode_env=WINDOW_ENV)
        body["oscillator"] = dict(FIG1["oscillator"], mu=0.0)
        cfg = write_config(tmp_path, body)
        code, out, err = run(capsys, [argv[0], "--config", cfg, *argv[1:]])
        assert code == 1
        assert out == ""
        assert "must be finite" in err and " grid: " in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _fmt(value) -> str:
    """Per-value reference rendering of a CSV cell."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.14e}"
    if isinstance(value, bytes):
        return value.decode()
    return str(value)


def _assert_same_text(got: bytes, want: str):
    """got == want encoded, reporting the first line that differs (pytest's own
    diff of texts of megabytes takes minutes)."""
    if got != want.encode():
        lines = zip(got.decode().split("\n"), want.split("\n"))
        k, pair = next((k, pair) for k, pair in enumerate(lines) if pair[0] != pair[1])
        pytest.fail(f"line {k}: {pair[0]!r} != {pair[1]!r}")


def _cell_texts(cells) -> list:
    """The text of each cell of a cell matrix: its bytes other than NUL."""
    return [c[c != 0].tobytes().decode() for c in cells]


CELL_VALUES = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e308,
               -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, -2.5e-7,
               np.float64(2.5), np.float64(-0.0), np.float32(0.1), True, False,
               np.bool_(True), "ok", "", "separable-boundary", 7, -3, np.int64(5), b"invalid",
               b""]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCsvTable:
    def test_render_matches_per_value_reference(self):
        rng = random.Random(5)
        table = cli.CsvTable(["a", "b", "c"])
        rows = []
        for _ in range(500):  # every column mixes types from row to row
            rows.append(tuple(rng.choice(CELL_VALUES) for _ in range(3)))
            table.add(*rows[-1])
        want = "\n".join(["a,b,c"] + [",".join(_fmt(v) for v in row) for row in rows])
        assert _rendered(table) == (want + "\n").encode()

    def test_add_columns_takes_array_columns(self):
        columns = (np.array([0.5, -0.0, math.inf]), np.array([True, False, True]),
                   np.array(["x", "ok", "invalid"], dtype=object), [1, 2, 3])
        table = cli.CsvTable("abcd")
        table.add_columns(*columns)
        assert len(table.rows) == 3
        text = (b"a,b,c,d\n5.00000000000000e-01,true,x,1\n"
                b"-0.00000000000000e+00,false,ok,2\ninf,true,invalid,3\n")
        assert _rendered(table) == text
        with pytest.raises(ValueError):
            table.add_columns(*columns[:3])
        with pytest.raises(ValueError):
            table.add_columns(*columns[:3], [1, 2])
        assert len(table.rows) == 3
        assert _rendered(table) == text

    @staticmethod
    def _columns(rng, n):
        """Float, bool, object-text and int columns of n rows."""
        floats = np.array([rng.choice(CELL_VALUES[:13]) for _ in range(n)], dtype=float)
        return (floats, np.array([rng.random() < 0.5 for _ in range(n)]),
                np.array([rng.choice(["ok", "invalid", ""]) for _ in range(n)], dtype=object),
                np.arange(n) - 7)

    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
    def test_blocks_across_the_render_slices(self, n):
        rng = random.Random(n)
        columns = self._columns(rng, n)
        table = cli.CsvTable(["f", "b", "s", "i"])
        table.add_columns(*columns)
        rows = list(zip(*(c.tolist() for c in columns)))
        want = "\n".join(["f,b,s,i"] + [",".join(_fmt(v) for v in row) for row in rows])
        assert _rendered(table) == (want + "\n").encode()
        assert len(table.rows) == n and repr(list(table.rows)) == repr(rows)  # nan != nan

    @pytest.mark.parametrize("n", [5, 1025, 3000])
    def test_bytes_and_bool_columns(self, n):
        # an S column is its own cell matrix, also when strided; a bool column
        # is gathered from b"true" and b"false"
        rng = np.random.default_rng(n)
        labels = np.array([b"", b"ok", b"invalid", b"boundary-indeterminate", b"a,b"])
        matrix = rng.choice(labels, (n, 3))
        flags = rng.random((n, 2)) < 0.5
        columns = (matrix[:, 0], matrix[:, 1], flags[:, 1], labels[rng.integers(0, 5, n)],
                   np.zeros(n, "S1"), flags[:, 0].copy())
        assert not columns[1].flags.contiguous and not columns[2].flags.contiguous
        table = cli.CsvTable("abcdef")
        table.add_columns(*columns)
        rows = list(zip(*(c.tolist() for c in columns)))
        assert _rendered(table) == self._reference("abcdef", rows).encode()

    @pytest.mark.parametrize("column", [np.array(["ok", "日本語"]),
                                        np.array([b"ok", "é".encode()])])
    def test_str_and_bytes_text_must_be_ascii(self, column):
        # as an object column must (test_text_cells_of_any_character)
        table = cli.CsvTable(["s"])
        table.add_columns(column)
        with pytest.raises(ValueError, match="ASCII"):
            _rendered(table)

    def test_empty_table_is_the_header_line(self):
        assert _rendered(cli.CsvTable(["x", "y"])) == b"x,y\n"
        table = cli.CsvTable(["x", "y"])
        table.add_columns(np.array([]), np.array([], dtype=object))
        assert _rendered(table) == b"x,y\n"
        # an empty float column is counted before its distinct values are built
        table = cli.CsvTable(["x", "b", "w"])
        table.add_columns(np.array([]), np.array([], dtype=bool), np.array([], dtype=np.float32))
        assert _rendered(table) == b"x,b,w\n"
        # an empty gathered column formats its values but takes no rows
        table = cli.CsvTable(["g", "x", "e"])
        table.add_columns(cli.Gather(np.array([0.5, -0.0]), np.array([], np.uint8)), np.array([]),
                          cli.Gather(np.array([]), np.array([], np.intp)))
        assert _rendered(table) == b"g,x,e\n" and len(table.rows) == 0

    def test_add_and_add_columns_interleave(self):
        rng = random.Random(11)
        table = cli.CsvTable(["f", "b", "s", "i"])
        rows = []
        for n in (3, 0, 1500, 1):
            row = tuple(rng.choice(CELL_VALUES) for _ in range(4))
            table.add(*row)
            rows.append(row)
            columns = self._columns(rng, n)
            table.add_columns(*columns)
            rows.extend(zip(*(c.tolist() for c in columns)))
        want = "\n".join(["f,b,s,i"] + [",".join(_fmt(v) for v in row) for row in rows])
        assert _rendered(table) == (want + "\n").encode()
        assert len(table.rows) == len(rows)

    @staticmethod
    def _reference(columns, rows):
        return "\n".join([",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"

    @staticmethod
    def _bits(*patterns):
        return np.array(patterns, dtype=np.uint64).view(np.float64)

    def _assert_gathered_column_renders(self, values, index):
        """``Gather(values, index)`` renders and iterates as ``values[index]``
        does, cast as ``render`` casts."""
        table = cli.CsvTable(["v", "i"])
        table.add_columns(cli.Gather(values, index), np.arange(index.size))
        rows = list(zip(values[index].tolist(), range(index.size)))
        assert _rendered(table) == self._reference(["v", "i"], rows).encode()
        assert len(table.rows) == index.size and repr(list(table.rows)) == repr(rows)

    def test_repeated_signed_zeros_stay_apart(self):
        values = np.array([-0.0, 0.0])
        self._assert_gathered_column_renders(values, np.random.default_rng(1).integers(0, 2, 400))
        assert _cell_texts(cli._column_cells(values)) == ["-0.00000000000000e+00",
                                                          "0.00000000000000e+00"]

    def test_repeated_nans_of_any_payload_and_sign(self):
        nans = self._bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                          0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF)
        assert np.isnan(nans).all()
        values = np.concatenate([nans, [1.5, -2.5]])
        self._assert_gathered_column_renders(values, np.random.default_rng(2).integers(0, 7, 240))

    def test_repeated_infinities_and_subnormals(self):
        values = np.array([math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,
                           -1.7976931348623157e308])
        self._assert_gathered_column_renders(values, np.random.default_rng(3).integers(0, 7, 210))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
    def test_repeated_column_of_another_width(self, dtype):
        values = np.array([0.1, -0.0, 0.0, 1e-40, np.nan, np.inf], dtype=dtype)
        self._assert_gathered_column_renders(values, np.tile(np.arange(6, dtype=np.uint8), 50))

    def test_repeated_column_across_blocks_and_slices(self):
        # one axis, gathered in blocks of both sides of the slice edges
        rng = np.random.default_rng(4)
        grid = np.array([-0.0, 0.0, 0.25, math.nan, -math.inf, 1.0 / 3.0, 5e-324])
        table = cli.CsvTable(["x", "y"])
        rows = []
        for n in (1, 2500, 3, 1024, 0, 1025, 9000):
            if n == 1:
                row = (float(rng.choice(grid)), float(rng.standard_normal()))
                table.add(*row)
                rows.append(row)
                continue
            index, y = rng.integers(0, grid.size, n, dtype=np.uint8), rng.standard_normal(n)
            table.add_columns(cli.Gather(grid, index), y)
            rows.extend(zip(grid[index].tolist(), y.tolist()))
        assert _rendered(table) == self._reference(["x", "y"], rows).encode()
        assert len(table.rows) == len(rows)

    def test_gathered_column_is_one_dimensional_and_as_long_as_the_rest(self):
        table = cli.CsvTable(["g", "x"])
        values = np.array([0.5, 1.5])
        for bad in (cli.Gather(values, np.zeros((2, 1), np.uint8)),  # 2-D index
                    cli.Gather(values, np.zeros(3, np.uint8)),  # 3 rows against 2
                    cli.Gather(values[:, None], np.zeros(2, np.uint8)),  # 2-D values
                    cli.Gather(values, np.zeros(2))):  # not an integer index
            with pytest.raises(ValueError):
                table.add_columns(bad, np.zeros(2))
        assert len(table.rows) == 0 and _rendered(table) == b"g,x\n"

    @pytest.mark.parametrize("index", [[0, 2], [-1, 0], [1, -3]])
    def test_out_of_range_index_raises_instead_of_wrapping(self, index):
        table = cli.CsvTable(["g"])
        with pytest.raises(ValueError, match="gathered column"):
            table.add_columns(cli.Gather(np.array([0.5, 1.5]), np.array(index)))
        assert len(table.rows) == 0

    @pytest.mark.parametrize("slice_cells", [1, 3, NODE_BLOCK, 64 * NODE_BLOCK])
    def test_output_does_not_depend_on_the_slice_size(self, monkeypatch, slice_cells):
        # a mixed table, one of no float column and an all-float one, each in
        # blocks on both sides of the slice edges, render as the reference does
        monkeypatch.setattr(cli, "_SLICE_CELLS", slice_cells)
        rng = np.random.default_rng(20)
        specials = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, -1.5e-300, 2.5e300,
                             -7e-123, 9.999999999999995e100])
        axis = np.concatenate([specials, rng.standard_normal(40)])
        labels = np.array([b"ok", b"invalid", b"boundary-indeterminate"])

        def floats(n):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, n)
            values[rng.integers(0, n, n // 8)] = rng.choice(specials, n // 8)
            return values

        def gathered(values, n):
            return cli.Gather(values, rng.integers(0, values.size, n).astype(np.uint8))

        tables = {
            "gfltsb": lambda n: (gathered(axis, n), floats(n), gathered(labels, n), floats(n),
                                 np.zeros(n, "S1"), rng.random(n) < 0.5),
            "lsbg": lambda n: (gathered(labels, n), np.zeros(n, "S1"), rng.random(n) < 0.5,
                               gathered(labels, n)),
            "ffff": lambda n: tuple(floats(n) for _ in range(4)),
        }
        for columns, block in tables.items():
            table = cli.CsvTable(columns)
            rows = []
            for n in (700, 1, 0, 257):
                cells = block(n)
                table.add_columns(*cells)
                rows.extend(zip(*((np.take(*c) if isinstance(c, cli.Gather) else c).tolist()
                                  for c in cells)))
            _assert_same_text(_rendered(table), self._reference(columns, rows))

    @pytest.mark.parametrize("slice_cells", [1, 3, NODE_BLOCK, 64 * NODE_BLOCK])
    def test_cells_are_cut_to_the_bytes_they_use(self, monkeypatch, slice_cells):
        # Float columns whose features (a sign, a three-digit exponent, +-0,
        # +-inf and nan, Python's text) sit in stretches of rows, so that some
        # slices have them and others not, beside a gathered float and a
        # gathered label column whose values differ in width, in blocks on
        # both sides of the slice edges.  The output is the reference's, and
        # no cell matrix reaching the join keeps a byte column that is NUL in
        # every row: a float column's cells are cut per slice (a slice of
        # inf and nan alone keeps the 20-byte body of finite values), and a
        # gathered column's once per block (over the block's rows).
        monkeypatch.setattr(cli, "_SLICE_CELLS", slice_cells)
        rng = np.random.default_rng(23)
        features = [[-2.5, -1e-3], [1e-100, 1e250], [0.0, -0.0], [math.inf, -math.inf, math.nan],
                    [5e-324, 2.0 ** -22], [-1e-100, 1e250, -0.0]]
        axis = np.array([1e-3, -2.0, 1e250, 0.5, math.nan, -0.0])
        labels = np.array([b"ok", b"invalid", b"", b"boundary-indeterminate"])

        def floats(n, order):
            values = rng.uniform(1e-3, 1.0, n)  # no sign, two-digit exponents
            stretches = np.array_split(np.arange(n), 2 * len(features))
            for rows, feature in zip(stretches[1::2], [features[k] for k in order]):
                rows = rows[::3]
                values[rows] = rng.choice(feature, rows.size)
            return values

        def gathered(values, n):
            if n == 1:  # one value, so that the block uses all of them
                return cli.Gather(values[rng.integers(0, values.size, 1)], np.zeros(1, np.uint8))
            return cli.Gather(values, rng.permutation(np.resize(np.arange(values.size), n)))

        columns, blocks, rows = ["g", "f0", "l", "f1", "f2"], (700, 1, 0, 257, 2100), []
        table = cli.CsvTable(columns)
        for n in blocks:
            cells = (gathered(axis, n), floats(n, range(6)), gathered(labels, n),
                     floats(n, range(5, -1, -1)), floats(n, [1, 3]))
            table.add_columns(*cells)
            rows.extend(zip(*((np.take(*c) if isinstance(c, cli.Gather) else c).tolist()
                              for c in cells)))
        join, seen = cli._join_rows, []

        def spy(cells):
            seen.append([m.copy() for m in cells])
            return join(cells)

        monkeypatch.setattr(cli, "_join_rows", spy)
        _assert_same_text(_rendered(table), self._reference(columns, rows))

        def dead(m):
            return not m.any(axis=0).all()

        for matrices in seen:
            for j in (1, 3, 4):
                texts = _cell_texts(matrices[j])
                assert not dead(matrices[j]) or all(t.lstrip("-") in ("inf", "nan") for t in texts)
        ends = np.cumsum([len(m[0]) for m in seen])
        for end, n in zip(np.cumsum(blocks), blocks):
            block = [m for m, e in zip(seen, ends) if end - n < e <= end]
            assert sum(len(m[0]) for m in block) == n
            for j in (0, 2):
                assert n == 0 or not dead(np.concatenate([m[j] for m in block]))

    @pytest.mark.parametrize("slice_cells", [1, 3, NODE_BLOCK, 64 * NODE_BLOCK])
    def test_repeated_float_column_is_formatted_once(self, monkeypatch, slice_cells):
        # A float64 and a float32 column object, each at two positions apart,
        # beside another float column, gathered and text columns, in blocks
        # on both sides of the slice edges.  The output is the per-value
        # reference's; each slice's stacked kernel call formats each distinct
        # float column once, and the slice rule counts those: 3 per row here.
        monkeypatch.setattr(cli, "_SLICE_CELLS", slice_cells)
        rng = np.random.default_rng(24)
        specials = np.array([-0.0, 0.0, math.nan, math.inf, -1e-300, 2.5e300, -7e-123])
        axis = np.concatenate([specials, rng.standard_normal(20)])
        labels = np.array([b"ok", b"invalid", b"boundary-indeterminate"])

        def floats(n, decades=300):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-decades, decades + 1, n)
            values[rng.integers(0, n, n // 8)] = rng.choice(specials[:4], n // 8)
            return values

        columns, blocks, rows = ["f", "g", "w", "h", "f2", "l", "b", "w2"], (700, 1, 0, 2100), []
        table = cli.CsvTable(columns)
        for n in blocks:
            f, w = floats(n), floats(n, 30).astype(np.float32)
            cells = (f, cli.Gather(axis, rng.integers(0, axis.size, n).astype(np.uint8)), w,
                     floats(n), f, cli.Gather(labels, rng.integers(0, 3, n).astype(np.uint8)),
                     rng.random(n) < 0.5, w)
            table.add_columns(*cells)
            rows.extend(zip(*((np.take(*c) if isinstance(c, cli.Gather) else c).tolist()
                              for c in cells)))
        kernel, stacks = cli._float_cells, []

        def spy(x):
            if x.ndim == 2:  # a slice's stack; a gathered column's values are 1-D
                stacks.append(x.shape)
            return kernel(x)

        monkeypatch.setattr(cli, "_float_cells", spy)
        _assert_same_text(_rendered(table), self._reference(columns, rows))
        assert all(distinct == 3 and distinct * size <= max(slice_cells, 3)
                   for distinct, size in stacks)
        assert sum(size for _, size in stacks) == sum(blocks)
        assert len(stacks) == sum(min(n, max(-(-n * 3 // slice_cells),
                                             -(-n * len(columns) // (2 * slice_cells))))
                                  for n in blocks)

    def test_join_frees_the_cell_matrices(self, monkeypatch):
        # A deco-grid-like table of 40,000 rows (two gathered axes, two float
        # columns and a gathered status), whose label padding takes
        # translate, and a propagate-like one of 5,001 rows (twelve float
        # columns, one of them of mixed sign), sparse enough for replace.
        # Each slice's join copies its row matrix once without the NUL
        # bytes: translate first allocates the copy at full size, replace at
        # its final size.  The join frees the slice's cell matrices (larger
        # than the copy) before that, so beyond what render held when the
        # join began, it adds about one row matrix: 2.0 of them when the
        # matrices outlive the copy.
        for kind in ("deco-grid", "propagate"):
            rng = np.random.default_rng(22)
            if kind == "deco-grid":
                t, c = np.linspace(0.0, 30.0, 200), np.linspace(1.0, 10.0, 200)
                n = t.size * c.size
                status = cli.Gather(np.array([b"ok", b"invalid"]),
                                    (rng.random(n) < 0.1).astype(np.uint8))
                table = cli.CsvTable(["t", "C", "sigma", "degree", "status"])
                table.add_columns(*cli._grid_columns(t, c), rng.uniform(0.5, 3.0, n),
                                  rng.random(n), status)
            else:
                n = 5001
                score = rng.uniform(0.1, 1.0, n)
                score[rng.random(n) < 0.3] *= -1.0
                table = cli.CsvTable([f"v{k}" for k in range(12)])
                table.add_columns(np.linspace(0.0, 50.0, n),
                                  *(rng.uniform(0.5, 3.0, n) for _ in range(10)), score)
            want = bytes(_rendered(table))
            join, added, shares = cli._join_rows, [], []

            def traced_join(cells):
                matrix = len(cells[0]) * sum(m.shape[1] + 1 for m in cells)
                head = min(len(cells[0]), cli._NUL_PROBE_ROWS)
                shares.append(sum(np.count_nonzero(m[:head] == 0) for m in cells)
                              / (matrix * head / len(cells[0])))
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                joined = join(cells)
                added.append((tracemalloc.get_traced_memory()[1] - before) / matrix)
                return joined

            monkeypatch.setattr(cli, "_join_rows", traced_join)
            tracemalloc.start()
            try:
                out = _rendered(table)
            finally:
                tracemalloc.stop()
                monkeypatch.undo()
            assert out == want
            assert len(added) > 1 and max(added) <= 1.25
            sparse = [share <= 1 / 64 for share in shares]
            assert all(sparse) if kind == "propagate" else not any(sparse)

    #: Cell widths of the property test's slices: 128-byte rows with the
    #: separators, so that 2 NUL bytes a row are 1/64 of them.
    JOIN_WIDTHS = (40, 41, 44)

    @pytest.mark.parametrize("rows, nuls", [
        (700, 0), (700, 1), (700, 2), (700, 3), (700, 8), (700, 26), (700, 125), (1, 1),
        (700, (1, 40)),
    ], ids=["none", "below", "at", "above", "6%", "20%", "all", "one-row", "sparse-head"])
    def test_both_nul_deletions_give_the_same_bytes(self, monkeypatch, rows, nuls):
        # Random cells with ``nuls`` NUL bytes in each row, at random places;
        # a pair is the count in the probed head and in the rows after it.
        # Up to 1/64 of the head NUL, the join deletes them with replace,
        # otherwise with translate; an empty head sends every slice to
        # replace, so both ways run on each matrix.
        rng = np.random.default_rng(28)
        head, tail = nuls if isinstance(nuls, tuple) else (nuls, nuls)
        width = sum(self.JOIN_WIDTHS)
        chars = rng.integers(ord("0"), ord("z") + 1, (rows, width), dtype=np.uint8)
        count = np.where(np.arange(rows) < cli._NUL_PROBE_ROWS, head, tail)
        # a random permutation of each row's places; the first `count` are NUL
        chars[np.argsort(rng.random((rows, width)), axis=1) < count[:, None]] = 0
        cells = np.split(chars, np.cumsum(self.JOIN_WIDTHS)[:-1], axis=1)
        want = b"".join(b",".join(c[i].tobytes().replace(b"\0", b"") for c in cells) + b"\n"
                        for i in range(rows))
        for probe in (cli._NUL_PROBE_ROWS, 0):
            monkeypatch.setattr(cli, "_NUL_PROBE_ROWS", probe)
            joined = cli._join_rows([np.ascontiguousarray(c) for c in cells])
            assert type(joined) is bytearray and joined == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFloatKernel:
    """The numpy float kernel renders every float64 as ``%.14e`` does."""

    @staticmethod
    def _assert_renders(values, width=1):
        """``values`` in a table of ``width`` float columns render as ``_fmt`` does."""
        values = np.asarray(values, dtype=np.float64)
        values = values[:values.size - values.size % width].reshape(-1, width)
        table = cli.CsvTable([f"v{j}" for j in range(width)])
        table.add_columns(*values.T)
        # _fmt of a float is '%.14e' of it, here applied to all rows at once
        lines = "\n".join([",".join(["%.14e"] * width)] * len(values)) % tuple(values.ravel().tolist())
        _assert_same_text(_rendered(table), ",".join(table.columns) + "\n" + lines + "\n")

    def test_random_bit_patterns_over_all_exponents(self):
        bits = np.random.default_rng(13).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
        self._assert_renders(bits.view(np.float64), width=4)

    def test_sixteen_digit_decimals_ending_in_five(self):
        rng = np.random.default_rng(14)
        digits = rng.integers(10 ** 14, 10 ** 15, 20000)
        exponents = rng.integers(-300, 300, digits.size)
        values = [float(f"{d}5e{k}") for d, k in zip(digits.tolist(), exponents.tolist())]
        self._assert_renders(values + [-v for v in values], width=3)

    def test_dyadic_exact_ties(self):
        # n / 2^j with n odd and n 5^j of 16 digits has 16 significant digits,
        # the last a 5: a tie, which %.14e rounds to even
        rng = np.random.default_rng(15)
        ties = [2.0 ** -22]
        for j in range(23):
            lo, hi = -(-10 ** 15 // 5 ** j), min(10 ** 16 // 5 ** j, 2 ** 53)
            for n in rng.integers(lo, hi, 300).tolist():
                n |= 1
                if n * 5 ** j < 10 ** 16 and (j or n % 10 == 5):
                    ties.append(math.ldexp(n, -j))
        assert len(ties) > 5000
        assert "%.14e" % 2.0 ** -22 == "2.38418579101562e-07"  # rounded to even
        self._assert_renders(ties + [-v for v in ties], width=2)

    def test_carries_and_powers_of_ten(self):
        values = []
        for k in range(-323, 309):
            # the carry, then digit groups of 999|9999|9999|9999, 100|0000|0000|0000,
            # 100|0099|9900|0099 and 999|0000|9999|0000
            for text in (f"9.999999999999995e{k}", f"9.99999999999999e{k}", f"1e{k}",
                         f"1.00009999000099e{k}", f"9.99000099990000e{k}"):
                v = float(text)
                for ulps in range(-2, 3):
                    values.append(v)
                    v = np.nextafter(v, math.inf)
                values.extend([np.nextafter(values[-5], 0.0), np.nextafter(values[-5], 0.0)])
        values = np.array(values)
        assert "%.14e" % 9.999999999999995e100 == "1.00000000000000e+101"  # a carry
        assert "%.14e" % 1.00009999000099e-05 == "1.00009999000099e-05"
        self._assert_renders(np.concatenate([values, -values]), width=5)

    def test_edges_of_the_float_range(self):
        rng = np.random.default_rng(16)
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFFFFFFFFFFFFFFF, 0x7FF4000000000000], dtype=np.uint64).view(np.float64)
        fixed = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                 2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                 1e100, 1e-100, 9.99999999999999e99, 1e281, 1e-281, 1e282, 1e-282]
        three_digit = rng.uniform(1, 10, 5000) * 10.0 ** rng.integers(100, 308, 5000)
        subnormal = rng.integers(1, 2 ** 52, 5000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([nans, fixed, three_digit, 1 / three_digit, subnormal])
        rng.shuffle(values)
        self._assert_renders(np.concatenate([values, -values]), width=3)

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_exponent_estimate_one_off(self, monkeypatch, sign):
        # Next to a power of ten, a log10 a few ulps off moves floor(log10 |x|)
        # by one; the kernel must correct e either way.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + sign * 8 * np.spacing(log10(a)))
        values = np.array([float(f"1e{k}") * (1 + m * 2.0 ** -52)
                           for k in range(-280, 281, 3) for m in range(-400, 401, 5)])
        self._assert_renders(np.concatenate([values, -values]), width=3)

    def test_scaled_error_within_the_margin_bound(self):
        # core's tolerance block: |p + lo - y| <= 4 u^2 y for y = |x| 10^(14-e)
        rng = np.random.default_rng(19)
        x = rng.uniform(1, 10, 2000) * 10.0 ** rng.integers(-280, 281, 2000)
        e = np.floor(np.log10(x)).astype(np.intp)
        p, lo = cli._scaled(x, e - cli._E_MIN)
        u = Fraction(1, 2 ** 53)
        for xi, ei, pi, li in zip(x.tolist(), e.tolist(), p.tolist(), lo.tolist()):
            y = Fraction(xi) * Fraction(10) ** (14 - ei)
            assert abs(Fraction(pi) + Fraction(li) - y) <= 4 * u * u * y

    def test_kernel_memory_and_purity(self):
        # the kernel computes in place: on 4,096 values it holds at most 120
        # bytes per value at its peak, its result included, and it leaves its
        # input as it was
        rng = np.random.default_rng(21)
        x = rng.integers(0, 2 ** 64, 4096, dtype=np.uint64).view(np.float64)
        x[::2] = rng.standard_normal(2048) * 10.0 ** rng.integers(-280, 281, 2048)
        before = x.copy()
        cli._float_cells(x)
        tracemalloc.start()
        try:
            cells = cli._float_cells(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 120 * x.size
        assert np.array_equal(x.view(np.uint64), before.view(np.uint64))
        assert _cell_texts(cells) == ["%.14e" % v for v in x.tolist()]

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
    def test_columns_of_other_widths(self, dtype):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            column = np.concatenate([bits, rng.standard_normal(20000), [math.nan, -0.0]])
            column = column.astype(dtype)
        table = cli.CsvTable(["v", "w"])
        table.add_columns(column, column[::-1])
        _assert_same_text(_rendered(table), TestCsvTable._reference(
            ["v", "w"], zip(column.tolist(), column[::-1].tolist())))

    def test_text_cells_of_any_character(self):
        texts = ["", "a b", "sep,ar\nated", "~\x7f", "\t"]
        rng = random.Random(18)
        rows = [(rng.choice(texts), rng.choice([0.5, -1e-300, math.nan]), rng.choice(texts))
                for _ in range(3000)]
        table = cli.CsvTable(["s", "f", "t"])
        table.add_columns(*(np.array(c, dtype=object if j != 1 else float)
                            for j, c in enumerate(zip(*rows))))
        table.add("x,y", 2.0, "\n")
        rows.append(("x,y", 2.0, "\n"))
        _assert_same_text(_rendered(table), TestCsvTable._reference(["s", "f", "t"], rows))
        # text is ASCII: a wider character raises rather than render mangled
        for text in ("é", "日本語"):
            table = cli.CsvTable(["s", "f"])
            table.add_columns(np.array(["ok"] * 3000 + [text], dtype=object), np.zeros(3001))
            with pytest.raises(ValueError, match="ASCII"):
                _rendered(table)


class TestRenderAtTheCli:
    """Each grid command's table renders as the per-value reference does."""

    @pytest.fixture
    def tables(self, monkeypatch):
        tables = []

        class Recording(cli.CsvTable):
            def add_columns(self, *columns):
                self.gathered = [name for name, c in zip(self.columns, columns)
                                 if isinstance(c, cli.Gather)]
                super().add_columns(*columns)

            def render(self, write):
                tables.append(self)
                super().render(write)

        monkeypatch.setattr(cli, "CsvTable", Recording)
        return tables

    @staticmethod
    def _check(tables, capsys, argv, gathered):
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(tables) == 1
        table = tables[0]
        # axes and labels reach the table as values and indices, not one cell per row
        assert table.gathered == gathered
        want = "\n".join([",".join(table.columns)]
                         + [",".join(_fmt(v) for v in row) for row in table.rows]) + "\n"
        assert out.encode() == _rendered(table) == want.encode()

    @pytest.mark.parametrize("flags", [
        ["--c-min", "2", "--c-max", "8", "--t-steps", "30", "--c-steps", "40"],
        ["--c-min", "1", "--c-max", "1.2", "--t-steps", "30", "--c-steps", "40", "--skip-invalid"],
        ["--asymptotic", "--c-min", "2", "--c-max", "8", "--c-steps", "40"],
        ["--asymptotic", "--c-min", "1", "--c-max", "1.2", "--c-steps", "40", "--skip-invalid"],
    ])
    def test_deco_grid(self, tmp_path, capsys, tables, flags):
        gathered = ["t", "C", "status"] if "--skip-invalid" in flags else ["t", "C"]
        self._check(tables, capsys, ["deco-grid", "--config", write_config(tmp_path, FIG1), *flags],
                    gathered)

    @pytest.mark.parametrize("flags", [["--t", "3.5"], ["--stationary"]])
    def test_density(self, tmp_path, capsys, tables, flags):
        body = json.loads(json.dumps(FIG1))
        body["initial"].update(x0=0.7, p0=-0.4)
        self._check(tables, capsys, ["density", "--config", write_config(tmp_path, body),
                                     "--n", "45", *flags],
                    ["x", "xp", "im"] if "--stationary" in flags else ["x", "xp"])

    def test_scan(self, tmp_path, capsys, tables):
        body = json.loads(json.dumps(dict(FIG1, two_mode_env=WINDOW_ENV)))
        body["oscillator"]["mu"] = 0.0
        self._check(tables, capsys, ["scan", "--config", write_config(tmp_path, body),
                                     "--dxx-min", "0.05", "--dxx-max", "0.3", "--dxx-steps", "6",
                                     "--dxpy-min", "0", "--dxpy-max", "1.5", "--dxpy-steps", "40"],
                    ["Dxx", "Dxpy", "separable", "in_window", "status"])
