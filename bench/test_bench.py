"""Self-tests of the benchmark.  Run with ``python -m pytest bench``."""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from lindosc import cli  # noqa: E402


def _call_cli(inputs, directory, trace=None):
    """One in-process CLI call on fresh caches; returns the CSV and the wall time."""
    directory.mkdir(parents=True, exist_ok=True)
    argv = workloads.write_inputs(inputs, directory)
    for clear in worker._cache_clearers():
        clear()
    stdout = io.StringIO()
    if trace is not None:
        trace.install()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            rc = cli.main(argv)
            wall = perf_counter() - start
    finally:
        if trace is not None:
            trace.uninstall()
    assert rc == 0
    if workloads.writes_file(inputs):
        return (directory / "out.csv").read_text(), wall
    return stdout.getvalue(), wall


@pytest.fixture(scope="module")
def seed0(tmp_path_factory):
    """Seed-0 inputs and CSV of every workload."""
    out = {}
    for name in workloads.NAMES:
        inputs = workloads.generate(name, 0)
        out[name] = inputs, _call_cli(inputs, tmp_path_factory.mktemp(name))[0]
    return out


def test_generator_is_deterministic(tmp_path):
    for name in workloads.NAMES:
        first, again = workloads.generate(name, 7), workloads.generate(name, 7)
        assert first == again
        written = []
        for k, inputs in enumerate((first, again)):
            directory = tmp_path / f"{name}{k}"
            directory.mkdir()
            argv = workloads.write_inputs(inputs, directory)
            written.append(((directory / "config.json").read_bytes(),
                            [a.replace(str(directory), "") for a in argv]))
        assert written[0] == written[1]
        assert workloads.generate(name, 8).params != first.params


def test_seeds_stay_in_range_and_seed_zero_is_nominal():
    for name, ranges in workloads.RANGES.items():
        assert workloads.draw(name, 0) == {k: 0.5 * (lo + hi) for k, (lo, hi) in ranges.items()}
        for seed in range(1, 200):
            params = workloads.draw(name, seed)
            assert all(lo <= params[k] <= hi for k, (lo, hi) in ranges.items())


def test_seed_zero_outputs_verify(seed0):
    for name, (inputs, text) in seed0.items():
        assert workloads.verify(inputs, text) == [], name


def _flip_digit(text: str, rng: random.Random):
    """Flip the first digit after the decimal point of one numeric cell."""
    lines = text.split("\n")
    while True:
        row = rng.randrange(1, len(lines) - 1)
        cells = lines[row].split(",")
        col = rng.randrange(len(cells))
        cell = cells[col]
        if re.fullmatch(r"-?\d\.\d+e[+-]\d+", cell):
            k = cell.index(".") + 1
            cells[col] = cell[:k] + str((int(cell[k]) + 1) % 10) + cell[k + 1:]
            lines[row] = ",".join(cells)
            return "\n".join(lines), (row, col)


def test_verification_counts_a_flipped_digit_as_a_failure(seed0):
    rng = random.Random(11)
    for name, (inputs, text) in seed0.items():
        for _ in range(8):
            flipped, where = _flip_digit(text, rng)
            assert workloads.verify(inputs, flipped), (name, where)


def test_a_call_that_differs_from_the_reference_fails(seed0):
    inputs, text = seed0["propagate_traj"]
    # Last digit of one cell: below the recomputation tolerance, caught by the
    # byte comparison of every timed call with the reference.
    k = text.index("e", text.index("\n") + 1) - 1
    changed = text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1:]
    child = {"ref_rc": 0, "rcs": [0, 0, 0], "same_output": None}
    for stream, want_failed in ((text * 3, 0), (text + changed + text, 3)):
        sha = hashlib.sha256(stream.encode()).hexdigest()
        attempted, failed, _ = run.count_failures(inputs, child, text, sha, len(stream))
        assert (attempted, failed) == (3, want_failed)
    child = {"ref_rc": 0, "rcs": [0, 0, 2], "same_output": [True, False, True]}
    assert run.count_failures(inputs, child, text, "", 0)[:2] == (3, 2)


def test_seed_zero_call_counts_are_exact(seed0, tmp_path):
    """Counts of the seed code, two traced calls per workload."""
    for name, (inputs, text) in seed0.items():
        runs = []
        for k in range(2):
            trace = tracer.Tracer()
            csv, wall = _call_cli(inputs, tmp_path / f"{name}{k}", trace)
            assert csv == text
            totals = trace.totals()
            accounted = sum(v["self_s"] for v in totals.values())
            assert abs(accounted / wall - 1.0) <= run.ACCOUNTING_SHARE
            runs.append({layer: (v["calls"], v["work"]) for layer, v in totals.items()})
        assert runs[0] == runs[1]
        calls = {layer: c for layer, (c, _) in runs[0].items()}
        assert calls["config"] == calls["cli.cmd"] == calls["cli.render"] == 1
        assert runs[0]["cli.emit"] == (1, len(text))
        rows = workloads.ROWS[name]
        assert runs[0]["cli.render"][1] == rows * (workloads.HEADERS[name].count(",") + 1)
        if name == "deco_surface":
            valid = text.count(",ok\n")
            assert valid == 200 * 196  # C = 1.0, 1.045, 1.090, 1.136 fail the Gibbs check
            assert calls["single_mode"] == 2 * valid
            assert calls["core"] == 2 * workloads.DECO_C_STEPS
            assert calls["two_mode"] == calls["separability"] == calls["lyapunov"] == 0
        elif name == "propagate_traj":
            assert calls["two_mode"] == 2 * rows  # propagate_covariance, and the
            assert calls["separability"] == rows  # shape check inside simon_score
            assert calls["lyapunov"] == 1 and calls["core"] == 2
            assert calls["single_mode"] == 0
        else:
            checked = (rows - text.count(",invalid-window\n")
                       - text.count(",boundary-indeterminate\n"))
            assert calls["core"] == checked  # validate_two_mode per windowed node
            assert calls["two_mode"] == 2 * rows + 1
            assert calls["separability"] == 1
            assert calls["single_mode"] == calls["lyapunov"] == 0


def test_uninstall_restores_every_binding():
    from lindosc import config, core, separability

    before = (cli.load_config, cli.CsvTable.render, separability.validate_two_mode,
              core.validate_two_mode, cli.cmd_scan)
    trace = tracer.Tracer()
    trace.install()
    assert cli.load_config is not before[0] and separability.validate_two_mode is not before[2]
    trace.uninstall()
    assert (cli.load_config, cli.CsvTable.render, separability.validate_two_mode,
            core.validate_two_mode, cli.cmd_scan) == before
    assert config.load_config is before[0]


def test_each_call_is_set_against_the_reference_loops_beside_it():
    # The host slows by half between the second and third reference loop;
    # the ratio of the second call sees the mean of the two.
    child = {"wall_s": [1.0, 3.0], "ref_s": [0.5, 0.5, 1.0]}
    assert run.call_ratios(child) == [2.0, 4.0]
