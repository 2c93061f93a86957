"""Tests for the Simon separability criterion and the entanglement window."""

import math
import re
from decimal import Decimal

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
    SCAN_STATUSES,
    closed_form_route,
    entanglement_window,
    scan_separability,
    simon_score,
    simon_score_closed_form,
    simon_verdicts,
)
from lindosc import separability, validate_two_mode
from lindosc.core import (
    NODE_BLOCK,
    SCORE_RTOL,
    axis_factors,
    bona_fide_checks,
    covariance_blocks,
    entry_invariants_and_sums,
    stack_blocks,
    sum_products,
)
from lindosc.lyapunov import steady_covariance
from lindosc.two_mode import (
    det_cross_block,
    diffusion_matrix,
    drift_matrix,
    is_physical,
    steady_covariance_closed_form,
    steady_entries,
)

from . import oracles

EPS = np.finfo(float).eps
PARAMS = OscillatorParams(lam=0.2)
J = np.array([[0.0, 1.0], [-1.0, 0.0]])
WINDOW_ENV = TwoModeEnvironment.symmetric_env(
    Dxx=0.1, Dxpx=0.0, Dpxpx=0.1, Dxy=0.0, Dxpy=0.5, Dpxpy=0.0, lam=0.2)


def _sigma_from_blocks(A, B, C):
    top = np.hstack([A, C])
    bottom = np.hstack([C.T, B])
    return np.vstack([top, bottom])


class TestBlockDecompose:
    def test_symmetric_environment_gives_equal_blocks(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            env = oracles.random_valid_symmetric_env(rng)
            S = steady_covariance_closed_form(env, OscillatorParams(lam=env.lam))
            A, B, C = S[:2, :2], S[2:, 2:], S[:2, 2:]
            np.testing.assert_allclose(A, B, atol=1e-15)
            np.testing.assert_allclose(C, C.T, atol=1e-15)

    def test_rejects_asymmetric(self):
        bad = np.eye(4)
        bad[1, 2] = 1e-6
        with pytest.raises(ShapeError):
            simon_score(bad)
        with pytest.raises(ShapeError):
            simon_verdicts(bad)


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
            result = simon_verdicts(sigma)
            assert result.separable

    def test_window_environment_entangled(self):
        sigma = steady_covariance_closed_form(WINDOW_ENV, PARAMS)
        result = simon_verdicts(sigma)
        assert not result.separable
        assert result.verdict == "entangled"
        assert result.score == pytest.approx(-0.1825998520710059, abs=1e-10)

    def test_boundary_flag(self):
        result = simon_verdicts(np.diag([0.5, 0.5, 0.5, 0.5]))
        assert result.separable and result.boundary
        assert result.verdict == "separable-boundary"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_score_is_boundary(self, bad):
        sigma = np.diag([0.5, 0.5, 0.5, 0.5])
        sigma[0, 2] = sigma[2, 0] = bad
        with np.errstate(invalid="ignore"):
            result = simon_verdicts(sigma)
        assert not math.isfinite(result.score)
        assert result.boundary
        assert result.verdict == "separable-boundary"


class TestSimonVerdicts:
    def test_stack_matches_batches_of_one(self):
        rng = np.random.default_rng(40)
        stack = np.stack([oracles.random_physical_covariance(rng) for _ in range(60)]
                         + [np.diag([0.5, 0.5, 0.5, 0.5])])
        batch = simon_verdicts(stack)
        np.testing.assert_array_equal(batch.score, simon_score(stack))
        for k, sigma in enumerate(stack):
            one = simon_verdicts(sigma)
            assert one == (batch.score[k], batch.separable[k], batch.boundary[k], batch.bound[k])
            assert type(one.score) is float and type(one.boundary) is bool
        assert batch.boundary[-1] and not batch.boundary[:-1].any()
        assert {True, False} <= set(batch.separable[:-1])

    def test_bound_is_the_score_taken_by_magnitudes(self):
        # S with every entry and every sign replaced by its magnitude, times
        # SCORE_RTOL; the chain's |J| factors as matrices here
        rng = np.random.default_rng(43)
        stack = np.stack([oracles.random_physical_covariance(rng) for _ in range(50)])
        A, B, C = (np.abs(m) for m in (stack[:, :2, :2], stack[:, 2:, 2:], stack[:, :2, 2:]))
        P = np.abs(J)
        cross = np.trace(A @ P @ C @ P @ B @ P @ np.swapaxes(C, -1, -2) @ P, axis1=1, axis2=2)
        det_a, det_b, det_c = (m[:, 0, 0] * m[:, 1, 1] + m[:, 0, 1] * m[:, 1, 0]
                               for m in (A, B, C))
        size = det_a * det_b + (0.25 + det_c) ** 2 + cross + 0.25 * (det_a + det_b)
        np.testing.assert_allclose(simon_verdicts(stack).bound, SCORE_RTOL * size,
                                   rtol=1e-14, atol=0.0)

    def test_local_symplectic_maps_keep_score_and_verdict(self):
        # det A, det B, det C and the trace term of S are invariant under
        # local Sp(2) + Sp(2) maps sigma -> L sigma L^T; the computed scores
        # must agree within the sum of their rounding bounds
        rng = np.random.default_rng(41)
        verdicts = set()
        for _ in range(300):
            sigma = oracles.random_physical_covariance(rng)
            L = oracles.random_local_symplectic(rng)
            moved = L @ sigma @ L.T
            before, after = simon_verdicts(sigma), simon_verdicts(0.5 * (moved + moved.T))
            tol = before.bound + after.bound
            assert abs(after.score - before.score) <= tol
            if abs(before.score) > 2.0 * tol:
                assert (after.separable, after.boundary) == (before.separable, False)
                verdicts.add(before.verdict)
        assert verdicts == {"separable", "entangled"}

    def test_mode_swap_keeps_verdict(self):
        rng = np.random.default_rng(42)
        verdicts = set()
        for k in range(400):
            draw = oracles.random_window_env if k % 2 else oracles.random_two_mode_env
            env = draw(rng)
            p = OscillatorParams(lam=env.lam)
            sigma = steady_covariance(drift_matrix(p), diffusion_matrix(env))
            if not is_physical(sigma):
                continue
            swapped = steady_covariance(drift_matrix(p), diffusion_matrix(env.swapped()))
            before, after = simon_verdicts(sigma), simon_verdicts(swapped)
            tol = before.bound + after.bound
            assert abs(after.score - before.score) <= tol
            if abs(before.score) > 2.0 * tol:
                assert after.verdict == before.verdict
                verdicts.add(before.verdict)
        assert verdicts == {"separable", "entangled"}


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
            # and within the sum of the two routes' rounding bounds
            closed, closed_bound = closed_form_route(env, p)
            full = simon_verdicts(sigma)
            assert abs(closed - full.score) <= closed_bound + full.bound

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


def _window_edge_nodes():
    """Both window edges of the Dxy = 0 family at relative offsets 0, +-1e-12,
    +-1e-9 and +-1e-6: (params, env, exact S).  a = m w Dxx / lam runs to
    1e5, where S cancels terms of size a^4 = 1e20."""
    for lam in (0.01, 0.2, 5.0):
        for m, omega in ((1.0, 1.0), (1.5, 0.8), (0.7, 2.0)):
            p = OscillatorParams(lam=lam, m=m, omega=omega)
            mw2 = (m * omega) ** 2
            for a in (0.6, 1.0, 3.7, 51.3, 1e3, 1e5):
                dxx = a * lam / (m * omega)
                for edge in (-0.5, 0.5):
                    for offset in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6):
                        dxpy = math.sqrt(lam * lam + omega * omega) * (a + edge) * (1.0 + offset)
                        env = TwoModeEnvironment.symmetric_env(
                            Dxx=dxx, Dxpx=0.0, Dpxpx=mw2 * dxx, Dxy=0.0, Dxpy=dxpy,
                            Dpxpy=0.0, lam=lam)
                        yield p, env, oracles.exact_window_score(m, omega, lam, dxx, dxpy)


def _random_near_edge_nodes(rng, count):
    """``count`` nodes (params, Dxx, Dxpy) of the Dxy = 0 family near a window
    edge or its mirror at -Dxpy: lam, m and omega over two decades, a = m w
    Dxx / lam in 1/2 + [1e-8, 1e5], relative offsets down to 1e-15 and then
    up to 8 ulps either way."""
    for _ in range(count):
        lam, m, omega = 10.0 ** rng.uniform(-1.0, 1.0, 3)
        a = 0.5 + 10.0 ** rng.uniform(-8.0, 5.0)
        edge = math.sqrt(lam * lam + omega * omega) * (a + rng.choice((-0.5, 0.5)))
        offset = rng.choice((0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6))
        dxpy = edge * (1.0 + offset) + int(rng.integers(-8, 9)) * math.ulp(edge)
        yield (OscillatorParams(lam=lam, m=m, omega=omega), a * lam / (m * omega),
               rng.choice((-1.0, 1.0)) * dxpy)


class TestWindowEdgeSweep:
    """The verdict at the window edges, against a 60-digit reference."""

    def test_bound_covers_the_rounding_of_both_covariance_routes(self):
        resolved = boundary = 0
        for p, env, exact in _window_edge_nodes():
            lyap = steady_covariance(drift_matrix(p), diffusion_matrix(env))
            for sigma in (lyap, steady_covariance_closed_form(env, p)):
                got = simon_verdicts(sigma)
                assert abs(Decimal(got.score) - exact) <= Decimal(got.bound)
                # the written-out S: within 8 eps Sigma = bound / 4
                assert abs(Decimal(got.score) - exact) <= Decimal(got.bound) / 4
                if got.boundary:
                    boundary += 1
                else:
                    resolved += 1
                    assert got.separable == (exact >= 0)
        assert resolved > 0 and boundary > 0

    def test_routes_agree_within_their_bounds(self):
        for p, env, exact in _window_edge_nodes():
            full = simon_verdicts(steady_covariance(drift_matrix(p), diffusion_matrix(env)))
            closed, closed_bound = closed_form_route(env, p)
            assert abs(closed - full.score) <= closed_bound + full.bound
            assert abs(Decimal(closed) - exact) <= Decimal(closed_bound)

    def test_scan_verdicts_match_the_reference(self):
        nodes = list(_window_edge_nodes())
        for k in range(0, len(nodes), 14):  # one Dxx, both edges, seven offsets
            p, env, _ = nodes[k]
            block = nodes[k:k + 14]
            scan = scan_separability(env, p, [env.Dxx], [e.Dxpy for _, e, _ in block])
            for (_, _, exact), separable, boundary in zip(block, scan.separable, scan.boundary):
                assert boundary or separable == (exact >= 0)

    def test_in_window_agrees_with_the_sign_of_s(self):
        # two routes to one verdict: the closed-form window edges give
        # in_window, S gives separable; they agree wherever S is resolved
        nodes = [(p, env.Dxx, sign * env.Dxpy)
                 for p, env, _ in _window_edge_nodes() for sign in (1.0, -1.0)]
        nodes += _random_near_edge_nodes(np.random.default_rng(41), 1200)
        resolved = 0
        for p, dxx, dxpy in nodes:
            mw2 = (p.m * p.omega) ** 2
            template = TwoModeEnvironment.symmetric_env(
                Dxx=dxx, Dxpx=0.0, Dpxpx=mw2 * dxx, Dxy=0.0, Dxpy=0.0, Dpxpy=0.0, lam=p.lam)
            scan = scan_separability(template, p, [dxx], [dxpy])
            if not scan.boundary[0] and p.m * p.omega * dxx / p.lam >= 0.5:
                resolved += 1
                assert scan.in_window[0] == (not scan.separable[0]), (p, dxx, dxpy)
        assert resolved > len(nodes) // 2


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
        assert _statuses(scan) == ["invalid"]  # this regime is not completely positive

    def test_zero_cross_momentum_row_is_nonnegative(self):
        scan = scan_separability(WINDOW_ENV, PARAMS, np.linspace(0.1, 0.5, 5), [0.0])
        assert (scan.score >= 0.0).all()

    def test_sign_matches_window_away_from_endpoints(self):
        dxpy_grid = np.linspace(0.0, 1.5, 200)
        scan = scan_separability(WINDOW_ENV, PARAMS, [0.1], dxpy_grid)
        lo, hi = entanglement_window(0.1, PARAMS)
        for dxpy, score, in_window in zip(dxpy_grid, scan.score, scan.in_window):
            margin = 1e-6 * hi
            if lo + margin < dxpy < hi - margin:
                assert score < 0.0 and in_window
            elif dxpy < lo - margin or dxpy > hi + margin:
                assert score >= 0.0 and not in_window

    def test_below_uncertainty_bound_marks_invalid_window(self):
        scan = scan_separability(WINDOW_ENV, PARAMS, [0.05], np.linspace(0.0, 1.0, 5))
        assert _statuses(scan) == ["invalid-window"] * 5
        assert not scan.in_window.any()

    def test_endpoint_marked_boundary(self):
        scan = scan_separability(WINDOW_ENV, PARAMS, [0.1], [0.0])
        assert _statuses(scan) == ["boundary-indeterminate"]

    def test_status_codes_follow_the_documented_order(self):
        # scan_separability's docstring lists the statuses in the order they
        # are tested; a code is the index of its label in that list
        documented = re.findall(r'"([a-z-]+)"', scan_separability.__doc__)
        assert list(SCAN_STATUSES) == documented
        scan = scan_separability(WINDOW_ENV, PARAMS, [0.05, 0.1, 1.0, 1e100], [0.0, 0.5, 2.0])
        assert scan.status.dtype == np.uint8
        assert _statuses(scan) == (["invalid-window"] * 3
                                   + ["boundary-indeterminate", "invalid", "invalid"]
                                   + ["ok", "ok", "invalid"] + ["indeterminate"] * 3)

    def test_row_major_order(self):
        # node k is (Dxx[k // 2], Dxpy[k % 2]): the scan of that node alone
        dxx_grid, dxpy_grid = [0.1, 0.2], [0.0, 0.5]
        scan = scan_separability(WINDOW_ENV, PARAMS, dxx_grid, dxpy_grid)
        nodes = zip(np.repeat(dxx_grid, 2), np.tile(dxpy_grid, 2))
        assert [scan_separability(WINDOW_ENV, PARAMS, [dxx], [dxpy]).score[0]
                for dxx, dxpy in nodes] == scan.score.tolist()

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
        # Dxpy crosses both window edges of the third row and of its mirror
        # at -Dxpy, and hits them
        dxx_grid = np.array([0.4, 0.5, 1.5, 3.0, 6.0]) * params.lam / (params.m * params.omega)
        lo, hi = entanglement_window(float(dxx_grid[2]), params)
        dxpy_grid = np.concatenate([np.linspace(-4.0, 4.0, 65),
                                    [lo, hi, lo + 1e-10, hi - 5e-10, hi + 1e-6, -lo, -hi]])
        scan = scan_separability(template, params, dxx_grid, dxpy_grid)
        _assert_agrees_with_reference(scan, template, params, dxx_grid, dxpy_grid)
        statuses = set(_statuses(scan))
        assert statuses >= ({"ok", "invalid"} if dxy else
                            {"invalid-window", "boundary-indeterminate", "invalid"})

    @pytest.mark.parametrize("seed", range(8))
    def test_random_columns_match_scalar_reference(self, seed):
        # (lam, m, w) over two decades, Dxy = 0 on even seeds and random on
        # odd ones; a negative Dxx row (invalid, or invalid-window at Dxy =
        # 0), rows on both sides of the one-mode bound, and a 1e100 row whose
        # S overflows (indeterminate)
        rng = np.random.default_rng(seed)
        lam, m, w = 10.0 ** rng.uniform(-1.0, 1.0, 3)
        params = OscillatorParams(lam=lam, m=m, omega=w)
        mw2, unit = (m * w) ** 2, lam / (m * w)
        dxy = 0.0 if seed % 2 == 0 else rng.uniform(-1.0, 1.0) * unit
        template = TwoModeEnvironment.symmetric_env(
            Dxx=unit, Dxpx=0.0, Dpxpx=mw2 * unit, Dxy=dxy, Dxpy=0.0, Dpxpy=mw2 * dxy, lam=lam)
        ratios = np.concatenate([[-rng.uniform(0.1, 2.0)], rng.uniform(0.2, 4.0, 5)])
        dxx_grid = np.concatenate([ratios * unit, [1e100]])
        dxpy_grid = np.concatenate([[0.0], math.hypot(lam, w) * rng.uniform(-5.0, 5.0, 24)])
        scan = scan_separability(template, params, dxx_grid, dxpy_grid)
        _assert_agrees_with_reference(scan, template, params, dxx_grid, dxpy_grid)
        statuses = _statuses(scan)
        assert statuses[-dxpy_grid.size:] == ["indeterminate"] * dxpy_grid.size
        assert set(statuses[:dxpy_grid.size]) == {"invalid" if dxy else "invalid-window"}


def test_scan_solves_the_stationary_blocks_once(monkeypatch):
    # B = A on every scan node: the one-mode stationary solve runs for A and
    # for C's symmetric part only
    from lindosc import single_mode

    solve, calls = single_mode.stationary_covariance, []
    monkeypatch.setattr(single_mode, "stationary_covariance",
                        lambda *args: calls.append(args) or solve(*args))
    scan_separability(WINDOW_ENV, PARAMS, np.linspace(0.05, 0.3, 6), np.linspace(0.0, 1.5, 40))
    assert len(calls) == 2


class TestScanAxes:
    """The scan evaluates on its axes what depends on one of them, and per
    node sums of products of axis factors: every field agrees with the
    route that takes each node on its own, and each magnitude sum is the
    node's within its rounding."""

    @staticmethod
    def _template(seed, scale, cross):
        # (lam, m, w) over two decades; Dxx, Dxy and Dxpy up to ``scale``,
        # with Dpxpx = m^2 w^2 Dxx and Dpxpy = m^2 w^2 Dxy still finite
        rng = np.random.default_rng(seed)
        lam, m, w = (10.0 ** rng.uniform(-1.0, 1.0, 3)).tolist()
        params = OscillatorParams(lam=lam, m=m, omega=w)
        mw2 = (m * w) ** 2
        unit = scale * min(lam / (m * w), 1.0 / max(1.0, mw2))
        dxy = rng.uniform(-1.0, 1.0) * unit if cross else 0.0
        template = TwoModeEnvironment.symmetric_env(
            Dxx=unit, Dxpx=0.0, Dpxpx=mw2 * unit, Dxy=dxy, Dxpy=0.0, Dpxpy=mw2 * dxy, lam=lam)
        return template, params, rng, unit

    def _grid(self, scale, cross, shape):
        # Dxx rows on both sides of the one-mode bound and negative ones;
        # Dxpy across the window and its mirror
        seed = 3 * [1.0, 1e150, 1e308].index(scale) + 7 * cross + shape[1]
        template, params, rng, unit = self._template(seed, scale, cross)
        dxx = unit * rng.uniform(-1.0, 1.0, shape[0])
        dxpy = unit * rng.uniform(-1.0, 1.0, shape[1])
        if shape[0] > 1:
            dxx[0] = 0.0
        return template, params, dxx, dxpy

    @staticmethod
    def _per_node(template, params, dxx_values, dxpy_values):
        """The scan's fields on the flattened node arrays: steady_entries of
        every node, simon_verdicts of its covariance and bona_fide_checks of
        its D/lam; then the bound of S, and the magnitude sums of S and of
        the five checks, from core.entry_invariants_and_sums."""
        dxx = np.repeat(dxx_values, len(dxpy_values))
        dxpy = np.tile(dxpy_values, len(dxx_values))
        mw2 = (params.m * params.omega) ** 2
        dpxpx, dxy, dpxpy = mw2 * dxx, template.Dxy, mw2 * template.Dxy
        zero = np.zeros(dxx.size)
        with np.errstate(all="ignore"):  # beyond float64 an entry is inf
            sigma = stack_blocks(*steady_entries(
                dxx, 0.0, dpxpx, dxx, 0.0, dpxpx, dxy, dxpy, dxpy, dpxpy, params))
            result = simon_verdicts(sigma)
            mode = (dxx, zero, zero, dpxpx)
            env = stack_blocks(mode, mode, (dxy, dxpy, dxpy, dpxpy)) / template.lam
            _, passed = bona_fide_checks(env)
            sums = [entry_invariants_and_sums(*covariance_blocks(sigma), "score")[1],
                    *entry_invariants_and_sums(*covariance_blocks(env), "checks")[1]]
            has_window = params.m * params.omega * dxx / params.lam >= 0.5
        windowed = dxy == 0.0
        in_window = None
        if windowed:
            lo, hi = np.full(dxx.size, np.nan), np.full(dxx.size, np.nan)
            lo[has_window], hi[has_window] = entanglement_window(dxx[has_window], params)
            in_window = (lo < np.abs(dxpy)) & (np.abs(dxpy) < hi)
        status = np.select([windowed & ~has_window, ~passed.all(axis=-1),
                            ~np.isfinite(result.score), windowed & result.boundary],
                           [0, 1, 2, 3], 4).astype(np.uint8)
        return (result.score, result.separable, result.boundary, in_window, status,
                result.bound, sums)

    @staticmethod
    def _fields(scan):
        return (scan.score, scan.separable, scan.boundary, scan.in_window, scan.status)

    @staticmethod
    def _assert_same_bits(got, want):
        """Equal fields, bit for bit but for the sign of a NaN score: it
        comes from the SIMD or scalar loop that made the NaN, so it moves
        with a node's place in its block, and the CSV prints nan for both."""
        for x, y in zip(got, want, strict=True):
            assert (x is None) == (y is None)
            if x is None:
                continue
            assert x.dtype == y.dtype and x.shape == y.shape
            if x.dtype.kind == "f":
                nan = np.isnan(x)
                assert np.array_equal(nan, np.isnan(y))
                x, y = np.where(nan, 0.0, x), np.where(nan, 0.0, y)
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (7, 13), (2, 4 * NODE_BLOCK + 5), (30, 150)])
    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e308])
    def test_axes_equal_nodes(self, scale, cross, shape):
        template, params, dxx, dxpy = self._grid(scale, cross, shape)
        scan = scan_separability(template, params, dxx, dxpy)
        *want, bound, _ = self._per_node(template, params, dxx, dxpy)
        axis_bound = SCORE_RTOL * _axis_sums(template, params, dxx, dxpy)[0]
        _assert_agrees(self._fields(scan), want, bound + axis_bound)

    @pytest.mark.parametrize("shape", [(7, 13), (30, 150)])
    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e308])
    def test_axis_sums_match_the_nodes(self, scale, cross, shape):
        # the axis route's magnitude sums of S and of the five checks of D/lam
        # are the node route's: non-finite at the same nodes, and elsewhere
        # within both routes' roundings of positive terms, (10 + 10) eps/2
        template, params, dxx, dxpy = self._grid(scale, cross, shape)
        *fields, _, sums = self._per_node(template, params, dxx, dxpy)
        for got, want in zip(_axis_sums(template, params, dxx, dxpy), sums, strict=True):
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite)
            got, want = got[finite], want[finite]
            assert (np.abs(got - want) <= 10.0 * EPS * want).all()
        # S overflows at every node of the two larger scales, and at none of
        # the first
        finite = np.isfinite(fields[0])
        assert finite.all() if scale == 1.0 else not finite.any()
        scan = scan_separability(template, params, dxx, dxpy)
        assert np.array_equal(np.isfinite(scan.score), np.isfinite(fields[0]))
        assert np.array_equal(scan.status, fields[4])

    @pytest.mark.parametrize("node_block", [1, 3, 200, 65536])
    def test_output_does_not_depend_on_the_block_size(self, monkeypatch, node_block):
        for seed, cross, shape in ((5, False, (9, 37)), (6, True, (2, 4 * NODE_BLOCK + 5))):
            template, params, rng, unit = self._template(seed, 1.0, cross)
            dxx = unit * rng.uniform(-1.0, 4.0, shape[0])
            dxpy = unit * rng.uniform(-4.0, 4.0, shape[1])
            want = self._fields(scan_separability(template, params, dxx, dxpy))
            with monkeypatch.context() as patch:
                patch.setattr(separability, "NODE_BLOCK", node_block)
                got = self._fields(scan_separability(template, params, dxx, dxpy))
            self._assert_same_bits(got, want)

    @pytest.mark.parametrize("dxx, dxpy, message", [
        ([1.0, -1e308, 1e308], [0.0], "Dpxpx must be finite, got -inf"),
        ([1.0, 1e308], [0.0, math.nan], "Dpxpx must be finite, got inf"),
        ([0.5, math.inf], [0.0], "Dxx must be finite, got inf"),
        ([0.5, 1.0], [0.0, math.nan, -math.inf], "Dxpy must be finite, got nan"),
        ([0.5], [-math.inf, math.nan], "Dxpy must be finite, got -inf"),
    ])
    def test_first_non_finite_value_is_reported(self, dxx, dxpy, message):
        # m w = 10, so Dpxpx = 100 Dxx overflows at Dxx = +-1e308
        params = OscillatorParams(lam=0.2, m=2.0, omega=5.0)
        template = TwoModeEnvironment.symmetric_env(
            Dxx=1.0, Dxpx=0.0, Dpxpx=100.0, Dxy=0.0, Dxpy=0.0, Dpxpy=0.0, lam=0.2)
        with np.errstate(over="ignore"), pytest.raises(ParameterError) as caught:
            scan_separability(template, params, dxx, dxpy)
        assert str(caught.value) == message


def _statuses(scan) -> list:
    """The label of each node's status code."""
    return [SCAN_STATUSES[code] for code in scan.status]


def _axis_sums(template, params, dxx_values, dxpy_values):
    """The magnitude sums of S and of the five checks of D/lam as the scan
    takes them, one array each over the nodes in row-major order:
    core.axis_factors of the magnitudes of the entries, on a Dxx column and
    a Dxpy row, summed by core.sum_products over the grid."""
    column = np.asarray(dxx_values, dtype=float)[:, None]
    row = np.asarray(dxpy_values, dtype=float)[None, :]
    mw2, lam = (params.m * params.omega) ** 2, template.lam
    dxy, dpxpy = template.Dxy, mw2 * template.Dxy
    with np.errstate(all="ignore"):  # beyond float64 an entry is inf
        (a00, a01, _, a11), _, c = steady_entries(column, 0.0, mw2 * column, column, 0.0,
                                                  mw2 * column, dxy, row, row, dpxpy, params)
        mode, cross = (column / lam, 0.0, mw2 * column / lam), (dxy / lam, row / lam,
                                                                row / lam, dpxpy / lam)
        pairs = [pair for blocks, which in ((((a00, a01, a11), c), "score"),
                                            ((mode, cross), "checks"))
                 for pair in axis_factors(*([np.abs(x) for x in block] for block in blocks),
                                          1.0, which)]
        shape = (column.size, row.size)
        return [np.broadcast_to(sum_products(*pair), shape).ravel() for pair in pairs]


def _assert_agrees(got, want, summed_bound):
    """Scan fields (score, separable, boundary, in_window, status) against
    the node-by-node route's: in_window and status equal, S non-finite at
    the same nodes and elsewhere within the two routes' summed bound, and a
    verdict that both resolve of the same sign."""
    (score, separable, boundary, in_window, status), (
        want_score, want_separable, want_boundary, want_in_window, want_status) = got, want
    assert (in_window is None) == (want_in_window is None)
    if in_window is not None:
        assert np.array_equal(in_window, want_in_window)
    assert np.array_equal(status, want_status)
    finite = np.isfinite(want_score)
    assert np.array_equal(np.isfinite(score), finite)
    assert (np.abs(score[finite] - want_score[finite]) <= summed_bound[finite]).all()
    assert (boundary | want_boundary)[~finite].all()
    resolved = ~(boundary | want_boundary)
    assert np.array_equal(separable[resolved], want_separable[resolved])


def _assert_agrees_with_reference(scan, template, params, dxx_values, dxpy_values):
    """:func:`_assert_agrees` against :func:`_scan_reference`, whose rows
    lead with the nodes' coordinates in the scan's order."""
    rows = _scan_reference(template, params, dxx_values, dxpy_values)
    dxx, dxpy, score, separable, boundary, in_window, status, bound = (
        np.array(column) for column in zip(*rows))
    assert np.array_equal(dxx, np.repeat(dxx_values, len(dxpy_values)))
    assert np.array_equal(dxpy, np.tile(dxpy_values, len(dxx_values)))
    fields = (scan.score, scan.separable, scan.boundary, scan.in_window,
              np.array(_statuses(scan)))
    axis_bound = SCORE_RTOL * _axis_sums(template, params, dxx_values, dxpy_values)[0]
    _assert_agrees(fields, (score, separable, boundary,
                            None if scan.in_window is None else in_window, status),
                   bound + axis_bound)


def _scan_reference(template, params, dxx_values, dxpy_values):
    """The scan node by node through the public scalar functions, with the
    statuses in their documented order, and the bound of each node's S.  A
    check of D/lam whose slack is not finite is unresolved, not failed (the
    tolerance policy of core): a node with one reports it through its
    non-finite S."""
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
            result = simon_verdicts(steady_covariance_closed_form(env, params))
            windowed = template.Dxy == 0.0
            in_window = None
            if windowed:
                in_window = window is not None and window[0] < abs(dxpy) < window[1]
            if windowed and window is None:
                status = "invalid-window"
            elif any(not c.passed and math.isfinite(c.slack)
                     for c in validate_two_mode(env).checks):
                status = "invalid"  # a check resolved below 0; one that overflows is unresolved
            elif not math.isfinite(result.score):
                status = "indeterminate"
            elif windowed and result.boundary:
                status = "boundary-indeterminate"
            else:
                status = "ok"
            rows.append((dxx, dxpy, result.score, result.separable, result.boundary,
                         in_window, status, result.bound))
    return rows
