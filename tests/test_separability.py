"""Tests for the Simon separability criterion and the entanglement window."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindosc import (
    InvalidEnvironmentError,
    OscillatorParams,
    ParameterError,
    ShapeError,
    TwoModeEnvironment,
)
from lindosc.separability import (
    block_decompose,
    entanglement_window,
    is_separable,
    scan_separability,
    simon_score,
    simon_score_closed_form,
)
from lindosc import validate_two_mode
from lindosc.lyapunov import steady_covariance
from lindosc.two_mode import (
    det_cross_block,
    diffusion_matrix,
    drift_matrix,
    steady_covariance_closed_form,
)

from . import oracles

PARAMS = OscillatorParams(lam=0.2)
WINDOW_ENV = TwoModeEnvironment.symmetric_env(
    Dxx=0.1, Dxpx=0.0, Dpxpx=0.1, Dxy=0.0, Dxpy=0.5, Dpxpy=0.0, lam=0.2)


def _sigma_from_blocks(A, B, C):
    top = np.hstack([A, C])
    bottom = np.hstack([C.T, B])
    return np.vstack([top, bottom])


class TestBlockDecompose:
    def test_block_diagonal_has_zero_cross(self):
        sigma = np.diag([1.0, 2.0, 3.0, 4.0])
        blocks = block_decompose(sigma)
        np.testing.assert_allclose(blocks.C, 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        M = rng.uniform(-1.0, 1.0, (4, 4))
        sigma = M + M.T + 4.0 * np.eye(4)
        blocks = block_decompose(sigma)
        np.testing.assert_allclose(blocks.reassemble(), sigma, atol=0.0)

    def test_symmetric_environment_gives_equal_blocks(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            env = oracles.random_valid_symmetric_env(rng)
            S = steady_covariance_closed_form(env, OscillatorParams(lam=env.lam))
            blocks = block_decompose(S)
            np.testing.assert_allclose(blocks.A, blocks.B, atol=1e-15)
            np.testing.assert_allclose(blocks.C, blocks.C.T, atol=1e-15)

    def test_rejects_asymmetric(self):
        bad = np.eye(4)
        bad[1, 2] = 1e-6
        with pytest.raises(ShapeError):
            block_decompose(bad)


class TestSimonScore:
    def test_ground_state_product_is_boundary(self):
        sigma = np.diag([0.5, 0.5, 0.5, 0.5])
        assert simon_score(sigma) == pytest.approx(0.0, abs=1e-15)

    def test_unit_blocks(self):
        assert simon_score(np.eye(4)) == pytest.approx(0.5625, abs=1e-15)

    def test_term_by_term_against_direct_formula(self):
        rng = np.random.default_rng(33)
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for _ in range(50):
            M = rng.uniform(-1.0, 1.0, (4, 4))
            sigma = M + M.T + 4.0 * np.eye(4)
            A, B, C = sigma[:2, :2], sigma[2:, 2:], sigma[:2, 2:]
            expected = (np.linalg.det(A) * np.linalg.det(B)
                        + (0.25 - abs(np.linalg.det(C))) ** 2
                        - np.trace(A @ J @ C @ J @ B @ J @ C.T @ J)
                        - 0.25 * (np.linalg.det(A) + np.linalg.det(B)))
            assert simon_score(sigma) == pytest.approx(float(expected), rel=1e-12)

    def test_swap_invariance(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            M = rng.uniform(-1.0, 1.0, (4, 4))
            sigma = M + M.T + 4.0 * np.eye(4)
            blocks = sigma[:2, :2], sigma[2:, 2:], sigma[:2, 2:]
            swapped = _sigma_from_blocks(blocks[1], blocks[0], blocks[2].T)
            assert simon_score(sigma) == pytest.approx(simon_score(swapped), rel=1e-12)

    def test_stack_matches_each_node(self):
        rng = np.random.default_rng(40)
        M = rng.uniform(-1.0, 1.0, (64, 4, 4))
        stack = M + np.swapaxes(M, 1, 2) + 4.0 * np.eye(4)
        stack[::3] *= 1e3
        stack[1] = np.diag([0.5, 0.5, 0.5, 0.5])
        scores = simon_score(stack)
        assert scores.shape == (64,)
        assert scores.tolist() == [simon_score(sigma) for sigma in stack]

    def test_stack_checks_symmetry_against_each_node_scale(self):
        stack = np.stack([1e6 * np.eye(4), np.eye(4)])
        stack[1, 0, 1] = 1e-6  # far below the first node's scale, not its own
        with pytest.raises(ShapeError):
            simon_score(stack)
        with pytest.raises(ShapeError):
            simon_score(np.eye(4)[None, None])

    def test_continuity_under_perturbation(self):
        rng = np.random.default_rng(35)
        sigma = steady_covariance_closed_form(WINDOW_ENV, PARAMS)
        s0 = simon_score(sigma)
        for _ in range(20):
            E = rng.uniform(-1.0, 1.0, (4, 4))
            E = 1e-7 * (E + E.T)
            s1 = simon_score(sigma + E)
            assert abs(s1 - s0) < 1e-4


class TestIsSeparable:
    def test_zero_cross_correlations_separable(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            # physical one-mode blocks: det >= 1/4
            a = rng.uniform(0.5, 2.0)
            b = rng.uniform(0.5, 2.0)
            sigma = np.diag([a, max(0.26 / a, rng.uniform(0.3, 2.0)),
                             b, max(0.26 / b, rng.uniform(0.3, 2.0))])
            result = is_separable(sigma)
            assert result.separable

    def test_window_environment_entangled(self):
        sigma = steady_covariance_closed_form(WINDOW_ENV, PARAMS)
        result = is_separable(sigma)
        assert not result.separable
        assert result.verdict == "entangled"
        assert result.score == pytest.approx(-0.1825998520710059, abs=1e-10)

    def test_boundary_flag(self):
        result = is_separable(np.diag([0.5, 0.5, 0.5, 0.5]))
        assert result.separable and result.boundary
        assert result.verdict == "separable-boundary"

    def test_rejects_a_stack(self):
        with pytest.raises(ShapeError):
            is_separable(np.stack([np.eye(4), np.eye(4)]))


class TestSimonScoreClosedForm:
    def test_reference_values(self):
        assert simon_score_closed_form(WINDOW_ENV, PARAMS) \
            == pytest.approx(-0.1825998520710059, abs=1e-12)
        outside = TwoModeEnvironment.symmetric_env(
            Dxx=0.1, Dxpx=0.0, Dpxpx=0.1, Dxy=0.0, Dxpy=1.2, Dpxpy=0.0, lam=0.2)
        assert simon_score_closed_form(outside, PARAMS) \
            == pytest.approx(0.5325443786982247, abs=1e-12)

    def test_perfect_square_without_cross_momentum(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            dxx = rng.uniform(0.05, 2.0)
            env = TwoModeEnvironment.symmetric_env(
                Dxx=dxx, Dxpx=0.0, Dpxpx=dxx, Dxy=0.0, Dxpy=0.0, Dpxpy=0.0,
                lam=0.2)
            assert simon_score_closed_form(env, PARAMS) >= 0.0

    def test_constraint_violations_rejected(self):
        env = TwoModeEnvironment.symmetric_env(Dxx=0.1, Dxpx=0.0, Dpxpx=0.2,
                                               Dxy=0.0, Dxpy=0.5, Dpxpy=0.0, lam=0.2)
        with pytest.raises(InvalidEnvironmentError):
            simon_score_closed_form(env, PARAMS)
        env = TwoModeEnvironment.symmetric_env(Dxx=0.1, Dxpx=0.05, Dpxpx=0.1,
                                               Dxy=0.0, Dxpy=0.5, Dpxpy=0.0, lam=0.2)
        with pytest.raises(InvalidEnvironmentError):
            simon_score_closed_form(env, PARAMS)

    def test_requires_hbar_one(self):
        with pytest.raises(ParameterError):
            simon_score_closed_form(WINDOW_ENV, OscillatorParams(lam=0.2, hbar=2.0))

    def test_dual_path_on_nonpositive_cross_determinant(self):
        rng = np.random.default_rng(38)
        for _ in range(100):
            env = oracles.random_special_family_env(rng)
            p = OscillatorParams(lam=env.lam)
            sigma = steady_covariance(drift_matrix(p), diffusion_matrix(env))
            assert simon_score_closed_form(env, p) \
                == pytest.approx(simon_score(sigma), rel=1e-10, abs=1e-10)

    def test_positive_cross_determinant_discrepancy_is_det_c(self):
        # with det C > 0 the closed form exceeds the full criterion by
        # exactly det C (the criterion takes |det C|); the dual-path
        # equality therefore only holds on det C <= 0
        rng = np.random.default_rng(39)
        found = 0
        while found < 20:
            env = oracles.random_special_family_env(rng, require_detc_nonpos=False)
            p = OscillatorParams(lam=env.lam)
            det_c = det_cross_block(env, p)
            if det_c <= 1e-6:
                continue
            found += 1
            sigma = steady_covariance_closed_form(env, p)
            full = simon_score(sigma)
            closed = simon_score_closed_form(env, p)
            assert closed - full == pytest.approx(det_c, rel=1e-8)


class TestEntanglementWindow:
    def test_reference_window(self):
        lo, hi = entanglement_window(0.1, PARAMS)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(math.sqrt(1.04), rel=1e-14)

    def test_rejects_below_uncertainty_bound(self):
        with pytest.raises(ParameterError):
            entanglement_window(0.08, PARAMS)

    def test_requires_hbar_one(self):
        with pytest.raises(ParameterError):
            entanglement_window(0.1, OscillatorParams(lam=0.2, hbar=0.5))

    @settings(deadline=None, max_examples=100)
    @given(dxx=st.floats(min_value=0.5, max_value=5.0),
           u=st.floats(min_value=0.0, max_value=3.0))
    def test_sign_consistency_with_closed_form(self, dxx, u):
        # dxx in units of lam/(m w): dxx >= 0.5 keeps the window defined
        p = PARAMS
        d = dxx * p.lam
        lo, hi = entanglement_window(d, p)
        dxpy = u * hi
        env = TwoModeEnvironment.symmetric_env(Dxx=d, Dxpx=0.0, Dpxpx=d,
                                               Dxy=0.0, Dxpy=dxpy, Dpxpy=0.0,
                                               lam=p.lam)
        score = simon_score_closed_form(env, p)
        margin = 1e-6 * max(1.0, hi)
        if lo + margin < dxpy < hi - margin:
            assert score < 0.0
        elif dxpy < lo - margin or dxpy > hi + margin:
            assert score >= 0.0


class TestScanSeparability:
    def test_single_midwindow_node(self):
        scan = scan_separability(WINDOW_ENV, PARAMS, [0.1], [0.5])
        assert len(scan.score) == 1
        assert scan.score[0] == pytest.approx(-0.1825998520710059, abs=1e-10)
        assert not scan.separable[0]
        assert scan.in_window[0]
        assert scan.status[0] == "invalid"  # this regime is not completely positive

    def test_zero_cross_momentum_row_is_nonnegative(self):
        scan = scan_separability(WINDOW_ENV, PARAMS, np.linspace(0.1, 0.5, 5), [0.0])
        assert (scan.score >= 0.0).all()

    def test_sign_matches_window_away_from_endpoints(self):
        scan = scan_separability(WINDOW_ENV, PARAMS, [0.1], np.linspace(0.0, 1.5, 200))
        lo, hi = entanglement_window(0.1, PARAMS)
        for dxpy, score, in_window in zip(scan.Dxpy, scan.score, scan.in_window):
            margin = 1e-6 * hi
            if lo + margin < dxpy < hi - margin:
                assert score < 0.0 and in_window
            elif dxpy < lo - margin or dxpy > hi + margin:
                assert score >= 0.0 and not in_window

    def test_below_uncertainty_bound_marks_invalid_window(self):
        scan = scan_separability(WINDOW_ENV, PARAMS, [0.05], np.linspace(0.0, 1.0, 5))
        assert all(status == "invalid-window" for status in scan.status)
        assert not scan.in_window.any()

    def test_endpoint_marked_boundary(self):
        scan = scan_separability(WINDOW_ENV, PARAMS, [0.1], [0.0])
        assert scan.status[0] == "boundary-indeterminate"

    def test_row_major_order(self):
        scan = scan_separability(WINDOW_ENV, PARAMS, [0.1, 0.2], [0.0, 0.5])
        assert list(zip(scan.Dxx, scan.Dxpy)) == \
            [(0.1, 0.0), (0.1, 0.5), (0.2, 0.0), (0.2, 0.5)]

    def test_nonzero_dxy_template_has_no_window_column(self):
        env = TwoModeEnvironment.symmetric_env(Dxx=0.3, Dxpx=0.0, Dpxpx=0.3,
                                               Dxy=0.1, Dxpy=0.0, Dpxpy=0.1, lam=0.2)
        scan = scan_separability(env, PARAMS, [0.3], [0.2])
        assert scan.in_window is None

    @pytest.mark.parametrize("params, dxy", [
        (PARAMS, 0.0),
        (OscillatorParams(lam=0.2, m=1.5, omega=0.8), 0.0),
        (PARAMS, 0.1),
    ])
    def test_columns_match_scalar_reference(self, params, dxy):
        mw2 = (params.m * params.omega) ** 2
        template = TwoModeEnvironment.symmetric_env(
            Dxx=0.3, Dxpx=0.0, Dpxpx=mw2 * 0.3, Dxy=dxy, Dxpy=0.0, Dpxpy=mw2 * dxy,
            lam=params.lam)
        # the first Dxx row sits below the one-mode bound (invalid-window);
        # Dxpy crosses both window edges of the third row, and hits them
        dxx_grid = np.array([0.4, 0.5, 1.5, 3.0, 6.0]) * params.lam / (params.m * params.omega)
        lo, hi = entanglement_window(float(dxx_grid[2]), params)
        dxpy_grid = np.concatenate([np.linspace(-1.0, 4.0, 41),
                                    [lo, hi, lo + 1e-10, hi - 5e-10, hi + 1e-6]])
        scan = scan_separability(template, params, dxx_grid, dxpy_grid)
        want = _scan_reference(template, params, dxx_grid, dxpy_grid)
        assert len(scan.score) == len(want)
        got = list(zip(scan.Dxx, scan.Dxpy, scan.score, scan.separable, scan.boundary,
                       [None] * len(want) if scan.in_window is None else scan.in_window,
                       scan.status))
        assert got == want
        statuses = set(scan.status)
        assert statuses >= ({"ok", "invalid"} if dxy else
                            {"invalid-window", "boundary-indeterminate", "invalid"})


def _scan_reference(template, params, dxx_values, dxpy_values):
    """The scan node by node through the public scalar functions."""
    mw2 = (params.m * params.omega) ** 2
    rows = []
    for dxx in map(float, dxx_values):
        window = None
        if template.Dxy == 0.0 and params.m * params.omega * dxx / params.lam >= 0.5:
            window = entanglement_window(dxx, params)
        for dxpy in map(float, dxpy_values):
            env = TwoModeEnvironment.symmetric_env(
                Dxx=dxx, Dxpx=0.0, Dpxpx=mw2 * dxx, Dxy=template.Dxy, Dxpy=dxpy,
                Dpxpy=mw2 * template.Dxy, lam=template.lam)
            result = is_separable(steady_covariance_closed_form(env, params))
            in_window, status = None, "ok"
            if template.Dxy == 0.0:
                if window is None:
                    in_window, status = False, "invalid-window"
                else:
                    lo, hi = window
                    in_window = lo < dxpy < hi
                    if min(abs(dxpy - lo), abs(dxpy - hi)) <= 1e-9 * max(1.0, hi):
                        status = "boundary-indeterminate"
            if status == "ok" and not validate_two_mode(env).passed:
                status = "invalid"
            rows.append((dxx, dxpy, result.score, result.separable, result.boundary,
                         in_window, status))
    return rows
