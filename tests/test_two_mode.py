"""Tests for two-oscillator covariance dynamics and asymptotics."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from lindosc import (
    OscillatorParams,
    ParameterError,
    ShapeError,
    SingularSystemError,
    TwoModeEnvironment,
    correlated_coherent_state,
)
from lindosc import lyapunov, single_mode, two_mode
from lindosc.core import NODE_BLOCK, SCORE_RTOL, block_entries, covariance_blocks, stack_blocks
from lindosc.separability import simon_score
from lindosc.lyapunov import steady_covariance
from lindosc.single_mode import moment_propagator
from lindosc.two_mode import (
    det_cross_block,
    diffusion_matrix,
    drift_matrix,
    is_physical,
    propagate_covariance,
    propagate_entries,
    propagator,
    steady_covariance_closed_form,
)

from . import oracles

PARAMS = OscillatorParams(lam=0.2)
WINDOW_ENV = TwoModeEnvironment.symmetric_env(
    Dxx=0.1, Dxpx=0.0, Dpxpx=0.1, Dxy=0.0, Dxpy=0.5, Dpxpy=0.0, lam=0.2)


def _random_params(rng):
    return OscillatorParams(lam=rng.uniform(0.05, 0.5), m=rng.uniform(0.5, 2.0),
                            omega=rng.uniform(0.5, 2.0))


class TestDriftMatrix:
    def test_reference_blocks(self):
        Y = drift_matrix(PARAMS)
        np.testing.assert_allclose(Y[:2, :2], [[-0.2, 1.0], [-1.0, -0.2]])
        np.testing.assert_allclose(Y[2:, 2:], Y[:2, :2])
        np.testing.assert_allclose(Y[:2, 2:], 0.0)

    def test_eigenvalues(self):
        eigs = np.sort_complex(np.linalg.eigvals(drift_matrix(PARAMS)))
        expected = np.sort_complex([-0.2 + 1j, -0.2 + 1j, -0.2 - 1j, -0.2 - 1j])
        np.testing.assert_allclose(eigs, expected, atol=1e-12)

    def test_trace(self):
        assert np.trace(drift_matrix(PARAMS)) == pytest.approx(-0.8, abs=1e-15)

    def test_warns_on_mu(self):
        with pytest.warns(UserWarning, match="mu is ignored"):
            drift_matrix(OscillatorParams(lam=0.2, mu=0.1))

    def test_requires_hbar_one(self):
        with pytest.raises(ParameterError):
            drift_matrix(OscillatorParams(lam=0.2, hbar=2.0))


class TestDiffusionMatrix:
    def test_placement(self):
        env = TwoModeEnvironment(Dxx=1.0, Dxpx=2.0, Dpxpx=3.0, Dyy=4.0, Dypy=5.0,
                                 Dpypy=6.0, Dxy=7.0, Dxpy=8.0, Dypx=9.0, Dpxpy=10.0,
                                 lam=0.2)
        D = diffusion_matrix(env)
        np.testing.assert_allclose(D, D.T)
        assert D[0, 3] == D[3, 0] == 8.0  # Dxpy
        assert D[0, 0] == 1.0 and D[1, 1] == 3.0 and D[2, 2] == 4.0 and D[3, 3] == 6.0
        assert D[1, 2] == 9.0  # Dypx

    def test_block_diagonal_without_cross_terms(self):
        env = TwoModeEnvironment.symmetric_env(Dxx=0.3, Dxpx=0.1, Dpxpx=0.4,
                                               Dxy=0.0, Dxpy=0.0, Dpxpy=0.0, lam=0.2)
        D = diffusion_matrix(env)
        np.testing.assert_allclose(D[:2, 2:], 0.0)


class TestPropagator:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(propagator(PARAMS, 0.0), np.eye(4))

    def test_half_period_value(self):
        M = propagator(PARAMS, math.pi)
        np.testing.assert_allclose(M, -math.exp(-0.2 * math.pi) * np.eye(4), atol=1e-15)

    def test_semigroup_law(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p = _random_params(rng)
            t1, t2 = rng.uniform(0.0, 10.0, 2)
            np.testing.assert_allclose(propagator(p, t1 + t2),
                                       propagator(p, t1) @ propagator(p, t2),
                                       atol=1e-12)

    def test_matches_generic_expm(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            p = _random_params(rng)
            t = rng.uniform(0.0, 20.0)
            np.testing.assert_allclose(propagator(p, t),
                                       scipy.linalg.expm(t * drift_matrix(p)),
                                       atol=1e-12)

    def test_decay_envelope(self):
        p = OscillatorParams(lam=0.3, m=1.5, omega=0.8)
        bound = max(1.0, 1.0 / (p.m * p.omega), p.m * p.omega)
        for t in np.linspace(0.0, 40.0, 41):
            M = propagator(p, float(t))
            assert np.abs(M).max() <= bound * math.exp(-p.lam * t) * (1.0 + 1e-12)
        assert np.abs(propagator(p, 200.0)).max() < 1e-17

    def test_block_diagonal_of_one_mode_propagator(self):
        p = OscillatorParams(lam=0.3, mu=0.17, m=1.7, omega=0.8)
        times = np.linspace(0.0, 40.0, 81)
        with pytest.warns(UserWarning, match="mu is ignored"):
            M = propagator(p, times)
        block = moment_propagator(replace(p, mu=0.0), times)
        np.testing.assert_array_equal(M[:, :2, :2], block)
        np.testing.assert_array_equal(M[:, 2:, 2:], block)
        assert not M[:, :2, 2:].any() and not M[:, 2:, :2].any()

    def test_rejects_negative_t(self):
        with pytest.raises(ParameterError):
            propagator(PARAMS, -1.0)
        with pytest.raises(ParameterError, match="got -1.0"):
            propagator(PARAMS, np.array([0.0, 2.0, -1.0]))
        with pytest.raises(ParameterError):
            propagator(PARAMS, np.array([0.0, math.nan]))


class TestSteadyCovariance:
    def test_isotropic_diffusion(self):
        # with m = omega = 1, Y + Y^T = -2 lam I, so S = (d/lam) I solves exactly
        Y = drift_matrix(PARAMS)
        d = 0.37
        S = steady_covariance(Y, d * np.eye(4))
        np.testing.assert_allclose(S, (d / 0.2) * np.eye(4), atol=1e-13)

    def test_residual_on_random_environments(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            env = oracles.random_valid_symmetric_env(rng)
            p = OscillatorParams(lam=env.lam)
            Y = drift_matrix(p)
            D = diffusion_matrix(env)
            S = steady_covariance(Y, D)
            assert lyapunov.residual(Y, S, D) <= 1e-10 * max(1.0, np.abs(D).max())

    def test_gibbs_like_diffusion(self):
        env = TwoModeEnvironment.symmetric_env(Dxx=0.25, Dxpx=0.0, Dpxpx=0.25,
                                               Dxy=0.0, Dxpy=0.0, Dpxpy=0.0, lam=0.2)
        S = steady_covariance(drift_matrix(PARAMS), diffusion_matrix(env))
        assert S[0, 0] == pytest.approx(0.25 / 0.2, rel=1e-12)

    def test_singular_system_raises(self):
        with pytest.raises(SingularSystemError):
            lyapunov.steady_covariance(np.zeros((4, 4)), np.eye(4))


class TestClosedFormAsymptotics:
    def test_cross_only_reference(self):
        S = steady_covariance_closed_form(WINDOW_ENV, PARAMS)
        assert S[0, 2] == pytest.approx(0.5 / 1.04, rel=1e-12)       # sigma_xy
        assert S[0, 3] == pytest.approx(0.1 / 1.04, rel=1e-12)       # sigma_xpy
        assert S[1, 3] == pytest.approx(-0.5 / 1.04, rel=1e-12)      # sigma_pxpy
        assert S[0, 0] == pytest.approx(0.5, rel=1e-12)              # Dxx/lam
        np.testing.assert_allclose(S[:2, :2], S[2:, 2:], atol=1e-15)

    def test_matches_lyapunov_route(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            env = oracles.random_valid_symmetric_env(rng)
            p = OscillatorParams(lam=env.lam)
            closed = steady_covariance_closed_form(env, p)
            solved = steady_covariance(drift_matrix(p), diffusion_matrix(env))
            np.testing.assert_allclose(closed, solved, atol=1e-12)

    def test_non_mirror_environment_matches_lyapunov_route(self):
        env = TwoModeEnvironment(Dxx=0.3, Dxpx=0.1, Dpxpx=0.3, Dyy=0.4, Dypy=-0.2,
                                 Dpypy=0.5, Dxy=0.1, Dxpy=0.2, Dypx=-0.3, Dpxpy=0.05,
                                 lam=0.2)
        closed = steady_covariance_closed_form(env, PARAMS)
        solved = steady_covariance(drift_matrix(PARAMS), diffusion_matrix(env))
        assert np.abs(closed - solved).max() <= 1e-13 * np.abs(solved).max()
        assert closed[0, 3] != closed[1, 2]  # sigma_xpy != sigma_ypx

    def test_requires_matching_lam(self):
        with pytest.raises(ParameterError):
            steady_covariance_closed_form(WINDOW_ENV, OscillatorParams(lam=0.3))

    def test_plain_built_mirror_env_takes_the_closed_form(self):
        e = WINDOW_ENV
        plain = TwoModeEnvironment(Dxx=e.Dxx, Dxpx=e.Dxpx, Dpxpx=e.Dpxpx, Dyy=e.Dxx,
                                   Dypy=e.Dxpx, Dpypy=e.Dpxpx, Dxy=e.Dxy, Dxpy=e.Dxpy,
                                   Dypx=e.Dxpy, Dpxpy=e.Dpxpy, lam=e.lam)
        np.testing.assert_array_equal(steady_covariance_closed_form(plain, PARAMS),
                                      steady_covariance_closed_form(WINDOW_ENV, PARAMS))


def _product_initial(delta, r, params):
    block = correlated_coherent_state(delta, r, params).covariance()
    sigma0 = np.zeros((4, 4))
    sigma0[:2, :2] = block
    sigma0[2:, 2:] = block
    return sigma0


class TestPropagateCovariance:
    def test_fixed_point(self):
        s_inf = steady_covariance(drift_matrix(PARAMS), diffusion_matrix(WINDOW_ENV))
        for t in (0.0, 1.0, 7.5, 30.0):
            np.testing.assert_allclose(
                propagate_covariance(s_inf, WINDOW_ENV, PARAMS, t), s_inf, atol=1e-12)

    def test_matches_ode_oracle(self):
        rng = np.random.default_rng(25)
        t_grid = np.linspace(0.0, 30.0, 13)
        for _ in range(5):
            env = oracles.random_valid_symmetric_env(rng)
            p = OscillatorParams(lam=env.lam)
            sigma0 = _product_initial(rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5), p)
            A, b = oracles.covariance_ode_two_mode(env.lam, p.m, p.omega,
                                                   diffusion_matrix(env))
            ode = oracles.rk4_affine_refined(A, b, sigma0.flatten(order="F"), t_grid)
            for i, t in enumerate(t_grid):
                exact = propagate_covariance(sigma0, env, p, float(t))
                np.testing.assert_allclose(exact, ode[i].reshape((4, 4), order="F"),
                                           atol=1e-8)

    def test_exponential_approach_to_asymptotics(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            env = oracles.random_valid_symmetric_env(rng)
            p = OscillatorParams(lam=env.lam)
            sigma0 = _product_initial(rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5), p)
            s_inf = steady_covariance(drift_matrix(p), diffusion_matrix(env))
            K = 4.0 * max(1.0, p.m * p.omega, 1.0 / (p.m * p.omega))**2 \
                * np.abs(sigma0 - s_inf).max()
            for t in np.linspace(0.0, 10.0 / p.lam, 21):
                gap = np.abs(propagate_covariance(sigma0, env, p, float(t)) - s_inf).max()
                assert gap <= K * math.exp(-2.0 * p.lam * t) * (1.0 + 1e-9) + 1e-14

    def test_output_symmetric_and_diagonal_positive(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            env = oracles.random_valid_symmetric_env(rng)
            p = OscillatorParams(lam=env.lam)
            sigma0 = _product_initial(rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5), p)
            for t in np.linspace(0.0, 20.0, 9):
                s = propagate_covariance(sigma0, env, p, float(t))
                np.testing.assert_array_equal(s, s.T)
                assert (np.diag(s) > 0.0).all()

    def test_rejects_asymmetric_input(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-6
        with pytest.raises(ShapeError):
            propagate_covariance(bad, WINDOW_ENV, PARAMS, 1.0)

    def test_time_array_matches_per_time_calls(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            env = oracles.random_valid_symmetric_env(rng)
            p = OscillatorParams(lam=env.lam, m=rng.uniform(0.5, 2.0),
                                 omega=rng.uniform(0.5, 2.0))
            sigma0 = _product_initial(rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5), p)
            times = np.concatenate([[0.0], rng.uniform(0.0, 40.0, 50)])
            batch = propagate_covariance(sigma0, env, p, times)
            assert batch.shape == (51, 4, 4)
            for t, sigma in zip(times, batch):
                np.testing.assert_array_equal(sigma, propagate_covariance(sigma0, env, p, float(t)))
            assert propagate_covariance(sigma0, env, p, times.reshape(3, 17)).shape == (3, 17, 4, 4)

    def test_one_lyapunov_solve_across_node_blocks(self, monkeypatch):
        solves = []
        solve = two_mode.steady_entries
        monkeypatch.setattr(two_mode, "steady_entries",
                            lambda *args: solves.append(args) or solve(*args))
        sigma0 = _product_initial(2.0, 0.3, PARAMS)
        times = np.linspace(0.0, 40.0, 2 * NODE_BLOCK + 5)
        batch = propagate_covariance(sigma0, WINDOW_ENV, PARAMS, times)
        assert len(solves) == 1
        for start in range(0, times.size, NODE_BLOCK):
            block = slice(start, start + NODE_BLOCK)
            np.testing.assert_array_equal(
                batch[block], propagate_covariance(sigma0, WINDOW_ENV, PARAMS, times[block]))
        assert propagate_covariance(sigma0, WINDOW_ENV, PARAMS, np.array([])).shape == (0, 4, 4)

    def test_concurrent_calls_agree_with_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        sigma0 = _product_initial(2.0, 0.3, PARAMS)
        times = list(np.linspace(0.0, 12.0, 32))
        serial = [propagate_covariance(sigma0, WINDOW_ENV, PARAMS, t) for t in times]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(
                lambda t: propagate_covariance(sigma0, WINDOW_ENV, PARAMS, t), times))
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)


def _bits(entries) -> list:
    return [np.asarray(x).tobytes() for x in entries]


class TestMirrorModes:
    """B relaxes once with A where its inputs are A's bit for bit, and on its
    own otherwise; either way it is, bit for bit, the one-mode relaxation of
    its own initial entries and diffusion block."""

    TIMES = np.linspace(0.0, 30.0, 41)
    C0 = (0.1, -0.05, 0.02, 0.2)

    @staticmethod
    def _state(delta, r):
        s = correlated_coherent_state(delta, r, PARAMS)
        return (s.sxx, s.sxp, s.sxp, s.spp)

    def _relaxed(self, x0, dxx, dxp, dpp):
        """One mode's block, relaxed through single_mode alone."""
        p = replace(PARAMS, mu=0.0)
        s_xx, s_xp, s_pp = single_mode.stationary_covariance(p, dxx, dxp, dpp)
        m = block_entries(moment_propagator(p, self.TIMES))
        r00, r01, _, r11 = single_mode.relaxed_entries(m, x0, (s_xx, s_xp, s_xp, s_pp))
        return r00, r01, r01, r11

    @pytest.mark.parametrize("case", ["mirror", "next_dyy", "signed_zero_dypy", "other_b0"])
    def test_b_is_its_own_relaxation(self, case):
        env, a0 = WINDOW_ENV, self._state(2.0, 0.3)
        b0 = self._state(1.5, -0.2) if case == "other_b0" else a0
        if case == "next_dyy":
            env = replace(env, Dyy=float(np.nextafter(env.Dxx, math.inf)))
        elif case == "signed_zero_dypy":
            env = replace(env, Dxpx=0.0, Dypy=-0.0)
        a, b, c = propagate_entries(a0, b0, self.C0, env, PARAMS, self.TIMES)
        shared = case == "mirror"
        assert (b is a) is shared and all((y is x) is shared for x, y in zip(a, b))
        want_a = self._relaxed(a0, env.Dxx, env.Dxpx, env.Dpxpx)
        want_b = self._relaxed(b0, env.Dyy, env.Dypy, env.Dpypy)
        assert _bits(a) == _bits(want_a) and _bits(b) == _bits(want_b)
        # the stacked route, from blocks that are views of one matrix
        sigma = propagate_covariance(stack_blocks(a0, b0, self.C0), env, PARAMS, self.TIMES)
        assert sigma.tobytes() == stack_blocks(want_a, want_b, c).tobytes()

    @pytest.mark.parametrize("case", ["mirror", "next_dyy", "signed_zero_dypy"])
    def test_steady_b_is_solved_once(self, case, monkeypatch):
        # B's stationary solve is A's where their coefficients match bit for
        # bit, and B is then A's tuple; otherwise B is solved on its own
        env = WINDOW_ENV
        if case == "next_dyy":
            env = replace(env, Dyy=float(np.nextafter(env.Dxx, math.inf)))
        elif case == "signed_zero_dypy":
            env = replace(env, Dxpx=0.0, Dypy=-0.0)
        solve, calls = single_mode.stationary_covariance, []
        monkeypatch.setattr(single_mode, "stationary_covariance",
                            lambda *args: calls.append(args) or solve(*args))
        a, b, _ = two_mode.steady_entries(*(getattr(env, k) for k in COEFFICIENTS), PARAMS)
        shared = case == "mirror"
        assert (b is a) is shared and len(calls) == 3 - shared
        b_xx, b_xp, b_pp = solve(replace(PARAMS, mu=0.0), env.Dyy, env.Dypy, env.Dpypy)
        assert _bits(b) == _bits((b_xx, b_xp, b_xp, b_pp))


COEFFICIENTS = ("Dxx", "Dxpx", "Dpxpx", "Dyy", "Dypy", "Dpypy", "Dxy", "Dxpy", "Dypx", "Dpxpy")

#: Exchanges the two oscillators: (x, p_x, y, p_y) -> (y, p_y, x, p_x).
SWAP = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                 [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


class TestAsymmetricEnvironments:
    """Environments with unequal one-mode blocks and Dxpy != Dypx."""

    def test_steady_covariance_matches_scipy(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            env = oracles.random_two_mode_env(rng)
            p = OscillatorParams(lam=env.lam, m=rng.uniform(0.5, 2.0), omega=rng.uniform(0.5, 2.0))
            Y, D = drift_matrix(p), diffusion_matrix(env)
            S = steady_covariance(Y, D)
            ref = scipy.linalg.solve_continuous_lyapunov(Y, -2.0 * D)
            assert np.abs(S - ref).max() <= 1e-13 * np.abs(S).max()

    def test_closed_form_matches_kronecker_route_across_scales(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            env = oracles.random_two_mode_env(rng)
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            env = replace(env, lam=env.lam * 10.0 ** rng.uniform(-1.0, 1.0),
                          **{name: scale * getattr(env, name) for name in COEFFICIENTS})
            p = OscillatorParams(lam=env.lam, m=10.0 ** rng.uniform(-1.5, 1.5),
                                 omega=10.0 ** rng.uniform(-1.5, 1.5))
            S = steady_covariance_closed_form(env, p)
            ref = steady_covariance(drift_matrix(p), diffusion_matrix(env))
            assert np.abs(S - ref).max() <= 1e-13 * np.abs(ref).max()
            # exchanging the modes gives B, A and C^T bit for bit
            swapped = steady_covariance_closed_form(env.swapped(), p)
            np.testing.assert_array_equal(swapped, SWAP @ S @ SWAP.T)

    def test_mode_swap_law(self):
        rng = np.random.default_rng(32)
        times = np.linspace(0.0, 30.0, 31)
        for _ in range(50):
            env = oracles.random_two_mode_env(rng)
            p = OscillatorParams(lam=env.lam, m=rng.uniform(0.5, 2.0), omega=rng.uniform(0.5, 2.0))
            S = steady_covariance(drift_matrix(p), diffusion_matrix(env))
            S_swapped = steady_covariance(drift_matrix(p), diffusion_matrix(env.swapped()))
            assert np.abs(S_swapped - SWAP @ S @ SWAP.T).max() <= 1e-13 * np.abs(S).max()

            A = rng.uniform(-1.0, 1.0, (4, 4))
            sigma0 = A @ A.T + np.eye(4)
            sigmas = propagate_covariance(sigma0, env, p, times)
            swapped = propagate_covariance(SWAP @ sigma0 @ SWAP.T, env.swapped(), p, times)
            gap = np.abs(swapped - SWAP @ sigmas @ SWAP.T).max(axis=(1, 2))
            assert (gap <= 1e-13 * np.abs(sigmas).max(axis=(1, 2))).all()


class TestArbitraryGaussianInputs:
    """Propagation from correlated and entangled initial states, in
    environments with unequal one-mode blocks and Dxpy != Dypx."""

    TIMES = np.linspace(0.0, 30.0, 16)

    @staticmethod
    def _cases(seed, n=40):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            env = oracles.random_two_mode_env(rng)
            p = OscillatorParams(lam=env.lam, m=rng.uniform(0.5, 2.0), omega=rng.uniform(0.5, 2.0))
            yield env, p, oracles.random_physical_covariance(rng)

    def test_matches_expm_and_kronecker_route(self):
        # The reference route limits the bound: scipy's expm is off by up to
        # about 5e-14 in the entries of M here, which moves sigma by up to
        # 2.3e-13 of its largest entry over 200 such draws, while a 40-digit
        # expm put the package's sigma within 3e-16 of it.
        entangled = 0
        for env, p, sigma0 in self._cases(41):
            entangled += simon_score(sigma0) < 0.0
            Y = drift_matrix(p)
            s_inf = steady_covariance(Y, diffusion_matrix(env))
            for t, sigma in zip(self.TIMES, propagate_covariance(sigma0, env, p, self.TIMES)):
                M = scipy.linalg.expm(t * Y)
                want = M @ (sigma0 - s_inf) @ M.T + s_inf
                assert np.abs(sigma - want).max() <= 1e-12 * np.abs(want).max()
        assert 5 <= entangled <= 35  # both kinds of input occur

    def test_semigroup_law(self):
        for env, p, sigma0 in self._cases(42):
            for t1, t2 in ((0.7, 2.9), (5.0, 13.5), (0.0, 4.25)):
                once = propagate_covariance(sigma0, env, p, t1 + t2)
                twice = propagate_covariance(propagate_covariance(sigma0, env, p, t1), env, p, t2)
                assert np.abs(twice - once).max() <= 1e-13 * np.abs(once).max()

    def test_entries_are_the_blocks_of_the_stack(self):
        for env, p, sigma0 in self._cases(43, 10):
            stack = propagate_covariance(sigma0, env, p, self.TIMES)
            got = propagate_entries(*covariance_blocks(sigma0), env, p, self.TIMES)
            for block, want in zip(got, covariance_blocks(stack)):
                for x, y in zip(block, want):
                    np.testing.assert_array_equal(x, y)


class TestDetCrossBlock:
    def test_zero_without_cross_terms(self):
        env = TwoModeEnvironment.symmetric_env(Dxx=0.3, Dxpx=0.0, Dpxpx=0.3,
                                               Dxy=0.0, Dxpy=0.0, Dpxpy=0.0, lam=0.2)
        assert det_cross_block(env, PARAMS) == 0.0

    def test_reference_value(self):
        assert det_cross_block(WINDOW_ENV, PARAMS) == pytest.approx(-0.25 / 1.04, rel=1e-12)

    def test_matches_block_determinant(self):
        rng = np.random.default_rng(28)
        for _ in range(100):
            env = oracles.random_valid_symmetric_env(rng)
            p = OscillatorParams(lam=env.lam)
            S = steady_covariance_closed_form(env, p)
            det_direct = float(np.linalg.det(S[:2, 2:]))
            assert det_cross_block(env, p) == pytest.approx(det_direct, rel=1e-10, abs=1e-12)

    @staticmethod
    def _random_env(rng):
        """Ten coefficients of magnitude 1e-3 to 1e3, the cross ones of
        either sign, with lam from 0.05 to 2 and m, omega from 0.1 to 10."""
        lam = rng.uniform(0.05, 2.0)
        m, w = (10.0 ** rng.uniform(-1.0, 1.0, 2)).tolist()
        d = 10.0 ** rng.uniform(-3.0, 3.0, 10)
        d[6:] *= rng.choice([-1.0, 1.0], 4)
        env = TwoModeEnvironment(*d.tolist(), lam=lam)  # Dxx, Dxpx, ..., Dpxpy, field order
        return env, OscillatorParams(lam=lam, m=m, omega=w)

    def test_any_environment_matches_the_exact_kronecker_solve(self):
        # a float Kronecker solve is off by more than 100 eps of the
        # magnitude sum at these scales, so the reference is exact
        rng = np.random.default_rng(30)
        for _ in range(1000):
            env, p = self._random_env(rng)
            det_c, size = two_mode.cross_block_route(env, p)
            assert abs(Fraction(det_c) - oracles.exact_cross_block_det(env, p)) \
                <= Fraction(SCORE_RTOL * size)

    def test_mode_swap_gives_the_same_bits(self):
        rng = np.random.default_rng(31)
        for _ in range(5000):
            env, p = self._random_env(rng)
            assert two_mode.cross_block_route(env.swapped(), p) == \
                two_mode.cross_block_route(env, p)

    def test_mirror_environment_gives_the_mirror_only_formula(self):
        rng = np.random.default_rng(32)
        for _ in range(5000):
            env, p = self._random_env(rng)
            env = TwoModeEnvironment.symmetric_env(
                Dxx=env.Dxx, Dxpx=env.Dxpx, Dpxpx=env.Dpxpx, Dxy=env.Dxy, Dxpy=env.Dxpy,
                Dpxpy=env.Dpxpy, lam=env.lam)
            assert det_cross_block(env, p) == oracles.cross_block_det_formula(
                env.Dxy, env.Dxpy, env.Dpxpy, env.lam, p.m, p.omega)


class TestPhysicalityDiagnostic:
    def test_valid_environment_gives_physical_state(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            env = oracles.random_valid_symmetric_env(rng)
            p = OscillatorParams(lam=env.lam)
            S = steady_covariance_closed_form(env, p)
            assert is_physical(S)

    def test_window_environment_is_formal(self):
        # the entangling cross-diffusion regime is not completely positive,
        # and its asymptotic state dips below the physical bound
        S = steady_covariance_closed_form(WINDOW_ENV, PARAMS)
        assert not is_physical(S)

    def test_overflowing_invariants_are_not_physical(self):
        # det A = 1e320 - 4e320 < 0 overflows to nan: no verdict, so not physical
        S = np.diag([1e160, 1e160, 1.0, 1.0])
        S[0, 1] = S[1, 0] = 2e160
        assert is_physical(np.stack([S, np.eye(4)])).tolist() == [False, True]
