"""CLI behaviour: exit codes, CSV contracts, reference values, determinism."""

import json
import math
import random

import numpy as np
import pytest

from lindosc import OscillatorParams, ThermalParams, cli
from lindosc.single_mode import decoherence_degree

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
        for _ in range(500):  # every column mixes types from row to row
            table.add(*(rng.choice(CELL_VALUES) for _ in range(3)))
        want = "\n".join(["a,b,c"] + [",".join(_fmt(v) for v in row) for row in table.rows])
        assert table.render() == want + "\n"

    def test_add_columns_takes_array_columns(self):
        columns = (np.array([0.5, -0.0, math.inf]), np.array([True, False, True]),
                   np.array(["x", "ok", "invalid"], dtype=object), [1, 2, 3])
        table = cli.CsvTable("abcd")
        table.add_columns(*columns)
        assert len(table.rows) == 3
        assert table.render() == (
            "a,b,c,d\n5.00000000000000e-01,true,x,1\n"
            "-0.00000000000000e+00,false,ok,2\ninf,true,invalid,3\n")
        with pytest.raises(ValueError):
            table.add_columns(*columns[:3])
        with pytest.raises(ValueError):
            table.add_columns(*columns[:3], [1, 2])
        assert len(table.rows) == 3
