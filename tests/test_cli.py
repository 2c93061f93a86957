"""CLI behaviour: exit codes, CSV contracts, reference values, determinism."""

import argparse
import json
import math
import random

import numpy as np
import pytest

from lindosc import OscillatorParams, ThermalParams, TwoModeEnvironment, cli
from lindosc.lyapunov import steady_covariance
from lindosc.separability import closed_form_route, simon_score, simon_score_closed_form
from lindosc.single_mode import decoherence_degree
from lindosc.two_mode import diffusion_matrix, drift_matrix

FIG1 = {
    "oscillator": {"lambda": 0.2, "mu": 0.1, "m": 1.0, "omega": 1.0, "hbar": 1.0},
    "thermal": {"C": 2.0},
    "initial": {"delta": 4.0, "r": 0.0, "x0": 0.0, "p0": 0.0},
}

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


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestValidateCommand:
    def test_valid_config_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FIG1)
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 0
        assert "PASS gibbs_thermal_constraint" in out

    def test_unphysical_config_exits_two(self, tmp_path, capsys):
        body = json.loads(json.dumps(FIG1))
        body["thermal"]["C"] = 1.0
        cfg = write_config(tmp_path, body)
        code, out, _ = run(capsys, ["validate", "--config", cfg])
        assert code == 2
        assert "FAIL gibbs_thermal_constraint" in out

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
        assert "FAIL gram_matrix_psd" in out

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
        failing = {3.0, 4.0}  # C = 2, 3, 4, 5, 6: the second and third fail
        real = cli.validate_single_mode

        def validate(env, thermal):
            report = real(env, thermal)
            if thermal.C in failing:
                report = type(report)(tuple(type(c)(c.name, False, c.slack)
                                            for c in report.checks))
            return report

        monkeypatch.setattr(cli, "validate_single_mode", validate)
        cfg = write_config(tmp_path, FIG1)
        out_path = tmp_path / "grid.csv"
        code, out, err = run(capsys, ["deco-grid", "--config", cfg, *flags,
                                      "--out", str(out_path),
                                      "--c-min", "2", "--c-max", "6", "--c-steps", "5"])
        assert code == 2
        assert out == "" and not out_path.exists()
        assert err == ("invalid thermal coefficients at C=3.0 "
                       "(rerun with --skip-invalid to keep going)\n")

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
        sigma = steady_covariance(drift_matrix(p), diffusion_matrix(two_mode_env))
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
        from lindosc import lyapunov

        solves = []
        solve = lyapunov.steady_covariance
        monkeypatch.setattr(lyapunov, "steady_covariance",
                            lambda *args: solves.append(args) or solve(*args))
        code, out, _ = run(capsys, ["propagate", "--config", self._window_config(tmp_path),
                                    "--steps", "2500"])
        assert code == 0 and len(parse_csv(out)) == 2500
        assert len(solves) == 1


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
    ])
    def test_non_finite_bound_is_a_config_error(self, tmp_path, capsys, recwarn, argv):
        body = dict(FIG1, two_mode_env=WINDOW_ENV)
        body["oscillator"] = dict(FIG1["oscillator"], mu=0.0)
        cfg = write_config(tmp_path, body)
        code, out, err = run(capsys, [argv[0], "--config", cfg, *argv[1:]])
        assert code == 1
        assert out == ""
        assert "must be finite" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _fmt(value) -> str:
    """Per-value reference rendering of a CSV cell."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.14e}"
    return str(value)


CELL_VALUES = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e308,
               -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, -2.5e-7,
               np.float64(2.5), np.float64(-0.0), np.float32(0.1), True, False,
               np.bool_(True), "ok", "", "separable-boundary", 7, -3, np.int64(5)]


class TestCsvTable:
    def test_render_matches_per_value_reference(self):
        rng = random.Random(5)
        table = cli.CsvTable(["a", "b", "c"])
        rows = []
        for _ in range(500):  # every column mixes types from row to row
            rows.append(tuple(rng.choice(CELL_VALUES) for _ in range(3)))
            table.add(*rows[-1])
        want = "\n".join(["a,b,c"] + [",".join(_fmt(v) for v in row) for row in rows])
        assert table.render() == want + "\n"

    def test_add_columns_takes_array_columns(self):
        columns = (np.array([0.5, -0.0, math.inf]), np.array([True, False, True]),
                   np.array(["x", "ok", "invalid"], dtype=object), [1, 2, 3])
        table = cli.CsvTable("abcd")
        table.add_columns(*columns)
        assert len(table.rows) == 3
        text = ("a,b,c,d\n5.00000000000000e-01,true,x,1\n"
                "-0.00000000000000e+00,false,ok,2\ninf,true,invalid,3\n")
        assert table.render() == text
        with pytest.raises(ValueError):
            table.add_columns(*columns[:3])
        with pytest.raises(ValueError):
            table.add_columns(*columns[:3], [1, 2])
        assert len(table.rows) == 3
        assert table.render() == text

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
        assert table.render() == want + "\n"
        assert len(table.rows) == n and repr(list(table.rows)) == repr(rows)  # nan != nan

    def test_empty_table_is_the_header_line(self):
        assert cli.CsvTable(["x", "y"]).render() == "x,y\n"
        table = cli.CsvTable(["x", "y"])
        table.add_columns(np.array([]), np.array([], dtype=object))
        assert table.render() == "x,y\n"

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
        assert table.render() == want + "\n"
        assert len(table.rows) == len(rows)

    @staticmethod
    def _reference(columns, rows):
        return "\n".join([",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]) + "\n"

    @staticmethod
    def _bits(*patterns):
        return np.array(patterns, dtype=np.uint64).view(np.float64)

    def _assert_repeated_column_renders(self, column):
        """``column`` takes the repeated-value path and renders as ``_fmt`` does."""
        assert cli._repeated_float_text(column) is not None
        table = cli.CsvTable(["v", "i"])
        table.add_columns(column, np.arange(column.size))
        assert table.render() == self._reference(["v", "i"], zip(column.tolist(), range(column.size)))

    def test_repeated_signed_zeros_stay_apart(self):
        rng = np.random.default_rng(1)
        self._assert_repeated_column_renders(rng.choice([-0.0, 0.0], 400))
        texts = cli._repeated_float_text(np.array([-0.0, 0.0] * 4))
        assert texts(slice(0, 2)).tolist() == ["-0.00000000000000e+00", "0.00000000000000e+00"]

    def test_repeated_nans_of_any_payload_and_sign(self):
        nans = self._bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                          0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF)
        assert np.isnan(nans).all()
        column = np.concatenate([np.tile(nans, 40), [1.5, -2.5] * 20])
        np.random.default_rng(2).shuffle(column)
        self._assert_repeated_column_renders(column)

    def test_repeated_infinities_and_subnormals(self):
        values = [math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,
                  -1.7976931348623157e308]
        column = np.array(values * 30)
        np.random.default_rng(3).shuffle(column)
        self._assert_repeated_column_renders(column)

    @pytest.mark.parametrize("distinct, repeated", [(100, True), (101, False)])
    def test_quarter_threshold(self, distinct, repeated):
        rng = np.random.default_rng(distinct)
        values = rng.standard_normal(distinct)
        column = np.concatenate([values, rng.choice(values, 400 - distinct)])
        assert (cli._repeated_float_text(column) is not None) == repeated
        table = cli.CsvTable(["v"])
        table.add_columns(column)
        assert table.render() == self._reference(["v"], ((v,) for v in column.tolist()))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
    def test_repeated_column_of_another_width(self, dtype):
        column = np.tile(np.array([0.1, -0.0, 0.0, 1e-40, np.nan, np.inf], dtype=dtype), 50)
        if column.itemsize > 8:  # padding bits: rendered value by value
            assert cli._repeated_float_text(column) is None
            table = cli.CsvTable(["v"])
            table.add_columns(column)
            assert table.render() == self._reference(["v"], ((v,) for v in column.tolist()))
        else:
            self._assert_repeated_column_renders(column)

    def test_repeated_column_across_blocks_and_slices(self):
        rng = np.random.default_rng(4)
        grid = np.array([-0.0, 0.0, 0.25, math.nan, -math.inf, 1.0 / 3.0, 5e-324])
        table = cli.CsvTable(["x", "y"])
        rows = []
        for n in (1, 2500, 3, 1024, 0, 1025):
            if n == 1:
                row = (float(rng.choice(grid)), float(rng.standard_normal()))
                table.add(*row)
                rows.append(row)
                continue
            x, y = rng.choice(grid, n), rng.standard_normal(n)
            table.add_columns(x, y)
            rows.extend(zip(x.tolist(), y.tolist()))
        assert table.render() == self._reference(["x", "y"], rows)


class TestRenderAtTheCli:
    """Each grid command's table renders as the per-value reference does."""

    @pytest.fixture
    def tables(self, monkeypatch):
        tables = []

        class Recording(cli.CsvTable):
            def render(self):
                tables.append(self)
                return super().render()

        monkeypatch.setattr(cli, "CsvTable", Recording)
        return tables

    @staticmethod
    def _check(tables, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(tables) == 1
        table = tables[0]
        want = "\n".join([",".join(table.columns)]
                         + [",".join(_fmt(v) for v in row) for row in table.rows]) + "\n"
        assert out == table.render() == want

    @pytest.mark.parametrize("flags", [
        ["--c-min", "2", "--c-max", "8", "--t-steps", "30", "--c-steps", "40"],
        ["--c-min", "1", "--c-max", "1.2", "--t-steps", "30", "--c-steps", "40", "--skip-invalid"],
        ["--asymptotic", "--c-min", "2", "--c-max", "8", "--c-steps", "40"],
        ["--asymptotic", "--c-min", "1", "--c-max", "1.2", "--c-steps", "40", "--skip-invalid"],
    ])
    def test_deco_grid(self, tmp_path, capsys, tables, flags):
        self._check(tables, capsys, ["deco-grid", "--config", write_config(tmp_path, FIG1), *flags])

    @pytest.mark.parametrize("flags", [["--t", "3.5"], ["--stationary"]])
    def test_density(self, tmp_path, capsys, tables, flags):
        body = json.loads(json.dumps(FIG1))
        body["initial"].update(x0=0.7, p0=-0.4)
        self._check(tables, capsys, ["density", "--config", write_config(tmp_path, body),
                                     "--n", "45", *flags])

    def test_scan(self, tmp_path, capsys, tables):
        body = json.loads(json.dumps(dict(FIG1, two_mode_env=WINDOW_ENV)))
        body["oscillator"]["mu"] = 0.0
        self._check(tables, capsys, ["scan", "--config", write_config(tmp_path, body),
                                     "--dxx-min", "0.05", "--dxx-max", "0.3", "--dxx-steps", "6",
                                     "--dxpy-min", "0", "--dxpy-max", "1.5", "--dxpy-steps", "40"])
