"""Tests for one-mode dynamics, decoherence measures, and time scales."""

import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lindosc import (
    OscillatorParams,
    ParameterError,
    StateError,
    ThermalParams,
    correlated_coherent_state,
    gibbs_coefficients,
)
from lindosc.core import GaussianState1D
from lindosc.lyapunov import steady_covariance
from lindosc.single_mode import (
    asymptotic_state,
    decoherence_coefficients,
    decoherence_degree,
    decoherence_time,
    degree_from_uncertainty,
    degrees_from_uncertainty,
    density_matrix_element,
    drift_matrix,
    moment_propagator,
    propagate_moments,
    relaxation_time,
    relaxed_entries,
    short_time_coherence_coefficient,
    short_time_uncertainty_determinant,
    stationary_covariance,
    stationary_density_matrix_element,
    thermal_fluctuation_time,
    uncertainty_determinant,
    uncertainty_determinants,
)

from . import oracles

FIG_PARAMS = OscillatorParams(lam=0.2, mu=0.1)


class TestDriftMatrix:
    def test_reference(self):
        np.testing.assert_allclose(drift_matrix(FIG_PARAMS), [[-0.1, 1.0], [-1.0, -0.3]])

    @settings(deadline=None)
    @given(lam=st.floats(0.01, 2.0), mu=st.floats(-0.5, 0.5),
           m=st.floats(0.1, 10.0), omega=st.floats(0.1, 10.0))
    def test_trace_is_minus_two_lam(self, lam, mu, m, omega):
        Y = drift_matrix(OscillatorParams(lam=lam, mu=mu, m=m, omega=omega))
        assert np.trace(Y) == pytest.approx(-2.0 * lam, rel=1e-12)

    def test_mu_zero_symmetric_damping(self):
        Y = drift_matrix(OscillatorParams(lam=0.3))
        assert Y[0, 0] == Y[1, 1] == -0.3


class TestMomentPropagator:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(moment_propagator(FIG_PARAMS, 0.0), np.eye(2))

    def test_semigroup_law(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = OscillatorParams(lam=rng.uniform(0.05, 0.5), mu=rng.uniform(0.0, 0.3),
                                 m=rng.uniform(0.5, 2.0), omega=rng.uniform(0.5, 2.0))
            t1, t2 = rng.uniform(0.0, 10.0, 2)
            lhs = moment_propagator(p, t1 + t2)
            rhs = moment_propagator(p, t1) @ moment_propagator(p, t2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_matches_generic_expm(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = OscillatorParams(lam=rng.uniform(0.05, 0.5), mu=rng.uniform(0.0, 0.3),
                                 m=rng.uniform(0.5, 2.0), omega=rng.uniform(0.5, 2.0))
            t = rng.uniform(0.0, 15.0)
            np.testing.assert_allclose(moment_propagator(p, t),
                                       scipy.linalg.expm(t * drift_matrix(p)),
                                       atol=1e-12)

    def test_rejects_negative_and_nonfinite_t(self):
        with pytest.raises(ParameterError):
            moment_propagator(FIG_PARAMS, -0.1)
        with pytest.raises(ParameterError):
            moment_propagator(FIG_PARAMS, math.inf)

    def test_time_array_matches_per_time_calls(self):
        p = OscillatorParams(lam=0.3, mu=0.17, m=1.7, omega=0.8)
        times = np.concatenate([[0.0], np.random.default_rng(5).uniform(0.0, 40.0, 60)])
        batch = moment_propagator(p, times)
        assert batch.shape == (61, 2, 2)
        for t, M in zip(times, batch):
            np.testing.assert_array_equal(M, moment_propagator(p, float(t)))
        assert moment_propagator(p, times.reshape(61, 1)).shape == (61, 1, 2, 2)

    @pytest.mark.parametrize("bad", [-0.5, -math.inf, math.nan])
    def test_time_array_names_the_first_bad_time(self, bad):
        times = np.array([0.0, 1.0, bad, -2.0, math.inf])
        with pytest.raises(ParameterError, match=f"t must be finite and >= 0, got {bad!r}$"):
            moment_propagator(FIG_PARAMS, times)


class TestRelaxedEntries:
    def test_matches_the_matrix_products(self):
        # any 2x2 matrices, not only symmetric ones, with array entries that
        # broadcast against float entries
        rng = np.random.default_rng(44)
        M, s0, s_inf = rng.standard_normal((3, 50, 2, 2))
        want = M @ (s0 - s_inf) @ np.swapaxes(M, 1, 2) + s_inf
        got = relaxed_entries(*(tuple(x[:, i, j] for i in (0, 1) for j in (0, 1))
                                for x in (M, s0, s_inf)))
        np.testing.assert_allclose(np.stack(got, -1).reshape(50, 2, 2), want,
                                   rtol=0.0, atol=1e-14 * np.abs(want).max())
        one = relaxed_entries(tuple(M[0].ravel()), (1.0, 0.5, 0.5, 2.0), tuple(s_inf[0].ravel()))
        np.testing.assert_allclose(np.reshape(one, (2, 2)),
                                   M[0] @ ([[1.0, 0.5], [0.5, 2.0]] - s_inf[0]) @ M[0].T + s_inf[0],
                                   rtol=1e-14)


class TestPropagateMoments:
    def test_t_zero_is_identity(self):
        th = ThermalParams(C=2.0)
        env = gibbs_coefficients(FIG_PARAMS, th)
        s0 = correlated_coherent_state(4.0, 0.3, FIG_PARAMS, x0=1.0, p0=-2.0)
        s = propagate_moments(s0, env, FIG_PARAMS, 0.0)
        assert s == s0

    def test_long_time_reaches_thermal_moments(self):
        th = ThermalParams(C=2.0)
        env = gibbs_coefficients(FIG_PARAMS, th)
        s0 = correlated_coherent_state(4.0, 0.0, FIG_PARAMS)
        s = propagate_moments(s0, env, FIG_PARAMS, 200.0 / FIG_PARAMS.lam)
        ref = asymptotic_state(FIG_PARAMS, th)
        assert s.sxx == pytest.approx(ref.sxx, abs=1e-12)
        assert s.spp == pytest.approx(ref.spp, abs=1e-12)
        assert s.sxp == pytest.approx(0.0, abs=1e-12)

    def test_rejects_invalid_environment(self):
        th = ThermalParams(C=1.0)
        env = gibbs_coefficients(FIG_PARAMS, th)  # fails the fundamental constraint
        s0 = correlated_coherent_state(4.0, 0.0, FIG_PARAMS)
        with pytest.raises(ParameterError):
            propagate_moments(s0, env, FIG_PARAMS, 1.0)

    def test_rejects_mismatched_env(self):
        th = ThermalParams(C=2.0)
        env = gibbs_coefficients(OscillatorParams(lam=0.3, mu=0.1), th)
        s0 = correlated_coherent_state(4.0, 0.0, FIG_PARAMS)
        with pytest.raises(ParameterError):
            propagate_moments(s0, env, FIG_PARAMS, 1.0)
        # a state at another hbar would relax to this hbar's thermal determinant
        params = OscillatorParams(lam=0.2, mu=0.1)
        s0 = correlated_coherent_state(4.0, 0.0, OscillatorParams(lam=0.2, mu=0.1, hbar=2.0))
        with pytest.raises(ParameterError, match="hbar: 2.0 vs 1.0"):
            propagate_moments(s0, gibbs_coefficients(params, th), params, 1e4)

    def test_determinant_matches_closed_form_and_ode(self):
        rng = np.random.default_rng(11)
        t_grid = np.linspace(0.0, 50.0, 21)
        for _ in range(10):
            delta, r, params, thermal = oracles.random_gibbs_draw(rng)
            env = gibbs_coefficients(params, thermal)
            s0 = correlated_coherent_state(delta, r, params)
            A, b = oracles.covariance_ode_1d(params.lam, params.mu, params.m, params.omega,
                                             env.Dxx, env.Dxp, env.Dpp)
            ode = oracles.rk4_affine_refined(A, b, [s0.sxx, s0.sxp, s0.spp], t_grid)
            for i, t in enumerate(t_grid):
                closed = uncertainty_determinant(delta, r, params, thermal, float(t))
                propagated = propagate_moments(s0, env, params, float(t)).det
                ode_det = ode[i, 0] * ode[i, 2] - ode[i, 1] ** 2
                assert propagated == pytest.approx(closed, rel=1e-9)
                assert ode_det == pytest.approx(closed, rel=1e-6)

    def test_means_match_ode(self):
        rng = np.random.default_rng(12)
        t_grid = np.linspace(0.0, 20.0, 9)
        for _ in range(5):
            delta, r, params, thermal = oracles.random_gibbs_draw(rng)
            env = gibbs_coefficients(params, thermal)
            s0 = correlated_coherent_state(delta, r, params, x0=1.3, p0=-0.7)
            A = oracles.mean_ode_matrix_1d(params.lam, params.mu, params.m, params.omega)
            ode = oracles.rk4_affine_refined(A, np.zeros(2), [1.3, -0.7], t_grid)
            for i, t in enumerate(t_grid):
                s = propagate_moments(s0, env, params, float(t))
                assert s.mean_x == pytest.approx(ode[i, 0], abs=1e-8)
                assert s.mean_p == pytest.approx(ode[i, 1], abs=1e-8)


class TestUncertaintyDeterminant:
    def test_exact_at_t_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            delta, r, params, thermal = oracles.random_gibbs_draw(rng)
            value = uncertainty_determinant(delta, r, params, thermal, 0.0)
            assert value == pytest.approx(0.25, abs=1e-12)

    def test_asymptote(self):
        th = ThermalParams(C=3.0)
        assert uncertainty_determinant(4.0, 0.0, FIG_PARAMS, th, math.inf) \
            == pytest.approx(0.25 * 9.0, abs=1e-15)

    def test_never_below_minimum_uncertainty(self):
        rng = np.random.default_rng(6)
        t_grid = np.linspace(0.0, 50.0, 101)
        for _ in range(50):
            delta, r, params, thermal = oracles.random_gibbs_draw(rng)
            for t in t_grid:
                sigma = uncertainty_determinant(delta, r, params, thermal, float(t))
                assert sigma >= 0.25 * (1.0 - 1e-9)

    def test_domain_checks(self):
        th = ThermalParams(C=2.0)
        with pytest.raises(ParameterError):
            uncertainty_determinant(4.0, 0.0, OscillatorParams(lam=0.2, mu=0.25), th, 1.0)
        with pytest.raises(ParameterError):
            uncertainty_determinant(4.0, 0.0, OscillatorParams(lam=0.2, mu=1.5, omega=1.0), th, 1.0)
        with pytest.raises(ParameterError):
            uncertainty_determinant(-1.0, 0.0, FIG_PARAMS, th, 1.0)
        with pytest.raises(ParameterError):
            uncertainty_determinant(4.0, 1.0, FIG_PARAMS, th, 1.0)
        with pytest.raises(ParameterError):
            uncertainty_determinant(4.0, 0.0, FIG_PARAMS, th, -1.0)


class TestShortTimeUncertainty:
    def test_t_zero(self):
        assert short_time_uncertainty_determinant(4.0, 0.2, FIG_PARAMS, ThermalParams(C=2.0), 0.0) \
            == pytest.approx(0.25, abs=1e-15)

    def test_quadratic_agreement_with_closed_form(self):
        th = ThermalParams(C=2.0)
        # |closed - linearized| should shrink like t^2
        errs = []
        for t in (0.01, 0.005, 0.0025):
            closed = uncertainty_determinant(4.0, 0.3, FIG_PARAMS, th, t)
            lin = short_time_uncertainty_determinant(4.0, 0.3, FIG_PARAMS, th, t)
            errs.append(abs(closed - lin) / t**2)
        assert max(errs) < 10.0 * min(errs)
        assert max(errs) < 10.0

    def test_constant_for_coherent_zero_t(self):
        p = OscillatorParams(lam=0.2)
        th = ThermalParams(C=1.0)
        for t in (0.0, 0.05, 0.1):
            assert short_time_uncertainty_determinant(1.0, 0.0, p, th, t) \
                == pytest.approx(0.25, abs=1e-15)


class TestDecoherenceDegree:
    def test_one_at_t_zero(self):
        assert decoherence_degree(4.0, 0.0, FIG_PARAMS, ThermalParams(C=2.0), 0.0) \
            == pytest.approx(1.0, abs=1e-12)

    def test_asymptotic_inverse_c(self):
        assert decoherence_degree(4.0, 0.0, FIG_PARAMS, ThermalParams(C=10.0), math.inf) \
            == pytest.approx(0.1, abs=1e-15)

    def test_asymptote_times_c_is_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            delta, r, params, thermal = oracles.random_gibbs_draw(rng)
            qd = decoherence_degree(delta, r, params, thermal, math.inf)
            assert qd * thermal.C == pytest.approx(1.0, abs=1e-15)

    def test_reference_ordering(self):
        th = ThermalParams(C=2.0)
        q1 = decoherence_degree(4.0, 0.0, FIG_PARAMS, th, 1.0)
        q5 = decoherence_degree(4.0, 0.0, FIG_PARAMS, th, 5.0)
        q20 = decoherence_degree(4.0, 0.0, FIG_PARAMS, th, 20.0)
        assert q20 < q5 < q1 < 1.0


def _sigma_per_node(delta, r, params, C, t):
    """The closed form for one node with the math module, as the scalar
    evaluator computed it before the arrays-first kernel."""
    if t == math.inf:
        return 0.25 * params.hbar**2 * C * C
    lam, mu, omega = params.lam, params.mu, params.omega
    W = params.effective_frequency
    W2 = W * W
    a = delta + 1.0 / (delta * (1.0 - r * r))
    b = delta - 1.0 / (delta * (1.0 - r * r))
    c2, s2 = math.cos(2.0 * W * t), math.sin(2.0 * W * t)
    e2, e4 = math.exp(-2.0 * lam * t), math.exp(-4.0 * lam * t)
    inner = ((a - 2.0 * C) * (omega * omega - mu * mu * c2) / W2
             + b * mu * s2 / W
             + 2.0 * r * mu * omega * (1.0 - c2) / (W2 * math.sqrt(1.0 - r * r)))
    return 0.25 * params.hbar**2 * (e4 * (1.0 - a * C + C * C) + e2 * C * inner + C * C)


class TestUncertaintyDeterminants:
    PARAMS = OscillatorParams(lam=0.2, mu=0.12, m=0.7, omega=1.3, hbar=0.9)
    C = np.geomspace(1.0, 1e3, 37)
    T = np.concatenate([[0.0], np.geomspace(1e-3, 80.0, 40), [math.inf]])

    def test_matches_per_node_closed_form(self):
        t, C = np.meshgrid(self.T, self.C, indexing="ij")
        for delta, r in ((3.0, 0.4), (0.7, -0.65)):
            got = uncertainty_determinants(delta, r, self.PARAMS, C, t)
            want = [[_sigma_per_node(delta, r, self.PARAMS, c, tt) for c in self.C.tolist()]
                    for tt in self.T.tolist()]
            # exp, cos and sin round as the C library's: the same digits, not just close
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", range(4))
    def test_axis_evaluation_is_node_evaluation(self, seed):
        # on (C, t[:, None]) exp, cos and sin run on t's shape only; each node
        # keeps its operations in order, so the bits are the flattened call's
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.05, 0.5)
        params = OscillatorParams(lam=lam, mu=rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.9) * lam,
                                  m=rng.uniform(0.5, 2.0), omega=rng.uniform(0.5, 2.0),
                                  hbar=rng.uniform(0.5, 2.0))
        delta, r = rng.uniform(0.3, 6.0), rng.uniform(-0.8, 0.8)
        C = rng.uniform(1.0, 50.0, 23)
        t = np.concatenate([[0.0, math.inf, 1e308], rng.uniform(0.0, 60.0, 30)])
        sigma = uncertainty_determinants(delta, r, params, C, t[:, None])
        degrees = degrees_from_uncertainty(sigma, params, C, t[:, None])
        c_node, t_node = np.tile(C, t.size), np.repeat(t, C.size)
        sigma_node = uncertainty_determinants(delta, r, params, c_node, t_node)
        assert np.array_equal(sigma.ravel(), sigma_node, equal_nan=True)
        assert np.array_equal(degrees.ravel(),
                              degrees_from_uncertainty(sigma_node, params, c_node, t_node),
                              equal_nan=True)

    def test_scalar_call_is_a_batch_of_one(self):
        got = uncertainty_determinants(3.0, 0.4, self.PARAMS, self.C[None, :], self.T[:, None])
        for i, t in enumerate(self.T.tolist()):
            for j in (0, 17, 36):
                value = uncertainty_determinant(3.0, 0.4, self.PARAMS,
                                                ThermalParams(C=float(self.C[j])), t)
                assert type(value) is float and value == got[i, j]

    def test_t_zero_is_minimum_uncertainty(self):
        for delta, r in ((3.0, 0.4), (0.7, -0.65), (1.0, 0.0)):
            sigma = uncertainty_determinants(delta, r, self.PARAMS, self.C, 0.0)
            # terms of size C**2 cancel, so the rounding grows like C**2
            np.testing.assert_allclose(sigma / (0.25 * self.PARAMS.hbar**2), 1.0,
                                       rtol=0.0, atol=1e-14 * self.C.max()**2)
        sigma = uncertainty_determinants(3.0, 0.4, self.PARAMS, 1.0, 0.0)
        assert sigma == pytest.approx(0.25 * self.PARAMS.hbar**2, rel=1e-15)

    def test_asymptotic_nodes_are_exact(self):
        sigma = uncertainty_determinants(3.0, 0.4, self.PARAMS, self.C, math.inf)
        assert np.array_equal(sigma, 0.25 * self.PARAMS.hbar**2 * self.C * self.C)

    @pytest.mark.parametrize("bad", [-1.0, -math.inf, math.nan])
    def test_rejects_negative_and_nonfinite_t(self, bad):
        t = np.array([0.0, 2.0, bad, math.inf, -3.0])
        with pytest.raises(ParameterError, match=f"t must be >= 0, got {bad!r}"):
            uncertainty_determinants(3.0, 0.4, self.PARAMS, 2.0, t)

    @pytest.mark.parametrize("lam", [0.2, 1.5])
    def test_damped_out_nodes_near_the_float_maximum(self, lam):
        # exp(-2 lam t) is 0 there: the node takes the t = inf value, and
        # neither 2 W t nor -4 lam t may overflow into a warning or a nan
        params = OscillatorParams(lam=lam, mu=0.12, m=0.7, omega=1.9, hbar=0.9)
        t = np.array([1e300, 1e308, np.finfo(float).max, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = uncertainty_determinants(3.0, 0.4, params, 2.0, t)
        assert sigma.tolist() == [0.25 * 0.9**2 * 4.0] * 4

    def test_domain_checked_once_even_without_nodes(self):
        with pytest.raises(ParameterError, match="lam > mu"):
            uncertainty_determinants(4.0, 0.0, OscillatorParams(lam=0.2, mu=0.25),
                                     np.array([]), np.array([]))


class TestDegreesFromUncertainty:
    def test_matches_per_node_formula(self):
        sigma = np.array([0.25, 1.0, 7.3, 0.3])
        C = np.array([2.0, 3.0, 4.0, 5.0])
        t = np.array([0.0, 1.0, 2.0, math.inf])
        got = degrees_from_uncertainty(sigma, FIG_PARAMS, C, t)
        assert got.tolist() == [1.0 / (2.0 * math.sqrt(0.25)), 1.0 / (2.0 * math.sqrt(1.0)),
                                1.0 / (2.0 * math.sqrt(7.3)), 1.0 / 5.0]
        assert degree_from_uncertainty(7.3, FIG_PARAMS, ThermalParams(C=4.0), 2.0) == got[2]

    def test_rejects_nonpositive_sigma_at_finite_t(self):
        with pytest.raises(ParameterError, match="sigma must be > 0"):
            degrees_from_uncertainty(np.array([0.25, 0.0]), FIG_PARAMS, 2.0, 1.0)
        # sigma is not used at t = inf
        assert degrees_from_uncertainty(math.nan, FIG_PARAMS, 4.0, math.inf) == 0.25


class TestNegativeInfinityIsNotAsymptotic:
    """Only t = +inf selects the asymptotic branch; -inf and nan are rejected."""

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_scalar_evaluators_raise(self, bad):
        th = ThermalParams(C=2.0)
        with pytest.raises(ParameterError, match="t must be >= 0"):
            uncertainty_determinant(4.0, 0.0, FIG_PARAMS, th, bad)
        with pytest.raises(ParameterError, match="t must be >= 0"):
            decoherence_degree(4.0, 0.0, FIG_PARAMS, th, bad)
        with pytest.raises(ParameterError, match="t must be >= 0"):
            degree_from_uncertainty(1.0, FIG_PARAMS, th, bad)

    def test_plus_inf_still_asymptotic(self):
        th = ThermalParams(C=2.0)
        assert uncertainty_determinant(4.0, 0.0, FIG_PARAMS, th, math.inf) == 1.0
        assert decoherence_degree(4.0, 0.0, FIG_PARAMS, th, math.inf) == 0.5


def _density_per_node(state, x, xp):
    """<x|rho|x'> for one node with cmath, as the scalar evaluator computed it."""
    hbar, sxx, det = state.hbar, state.sxx, state.det
    half_sum = 0.5 * (x + xp) - state.mean_x
    diff = x - xp
    exponent = (-half_sum * half_sum / (2.0 * sxx)
                - det * diff * diff / (2.0 * hbar**2 * sxx)
                + 1j * (state.sxp / (hbar * sxx)) * half_sum * diff
                + 1j * state.mean_p * diff / hbar)
    return math.sqrt(1.0 / (2.0 * math.pi * sxx)) * cmath.exp(exponent)


class TestDensityMatrixElement:
    def test_coherent_state_origin(self):
        state = correlated_coherent_state(1.0, 0.0, OscillatorParams(lam=0.2))
        value = density_matrix_element(state, 0.0, 0.0)
        assert value.real == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)
        assert value.imag == 0.0

    def test_hermiticity(self):
        rng = np.random.default_rng(9)
        state = GaussianState1D(sxx=0.7, sxp=0.2, spp=0.9, mean_x=0.4, mean_p=-1.1)
        for _ in range(50):
            x, xp = rng.uniform(-3.0, 3.0, 2)
            assert density_matrix_element(state, x, xp) \
                == pytest.approx(density_matrix_element(state, xp, x).conjugate(), rel=1e-12)

    def test_unit_trace_by_quadrature(self):
        state = GaussianState1D(sxx=0.7, sxp=0.2, spp=0.9, mean_x=0.4, mean_p=-1.1)
        trace, err = scipy.integrate.quad(
            lambda x: density_matrix_element(state, x, x).real, -np.inf, np.inf)
        assert trace == pytest.approx(1.0, abs=1e-8)

    def test_positive_on_diagonal(self):
        state = GaussianState1D(sxx=0.7, sxp=0.2, spp=0.9, mean_x=0.4, mean_p=-1.1)
        for x in np.linspace(-5.0, 5.0, 21):
            assert density_matrix_element(state, float(x), float(x)).real > 0.0

    def test_half_sum_difference_form(self):
        # the same element written with the (alpha, beta, gamma) coefficients
        state = GaussianState1D(sxx=0.7, sxp=0.2, spp=0.9, mean_x=0.4, mean_p=-1.1)
        co = decoherence_coefficients(state)
        rng = np.random.default_rng(10)
        for _ in range(20):
            x, xp = rng.uniform(-3.0, 3.0, 2)
            half_sum, diff = 0.5 * (x + xp), x - xp
            expected = math.sqrt(co.alpha / math.pi) * np.exp(
                -co.alpha * half_sum**2 - co.gamma * diff**2
                + 1j * co.beta * half_sum * diff
                + 2.0 * co.alpha * state.mean_x * half_sum
                + 1j * (state.mean_p / state.hbar - co.beta * state.mean_x) * diff
                - co.alpha * state.mean_x**2
            )
            assert density_matrix_element(state, x, xp) == pytest.approx(complex(expected), rel=1e-12)

    def test_broadcasts_over_grids_like_per_node_calls(self):
        state = propagate_moments(
            correlated_coherent_state(4.0, 0.3, FIG_PARAMS, x0=0.7, p0=-0.4),
            gibbs_coefficients(FIG_PARAMS, ThermalParams(C=2.0)), FIG_PARAMS, 1.5)
        grid = np.linspace(-5.0, 5.0, 61)
        x, xp = np.meshgrid(grid, grid, indexing="ij")
        got = density_matrix_element(state, x, xp)
        assert got.shape == x.shape and got.dtype == complex
        want = [[_density_per_node(state, a, b) for b in grid.tolist()] for a in grid.tolist()]
        np.testing.assert_array_equal(got, want)  # the same digits as the cmath route
        scalar = density_matrix_element(state, 0.5, -1.25)
        assert type(scalar) is complex and scalar == _density_per_node(state, 0.5, -1.25)

    def test_rejects_nonpositive_determinant(self):
        bad = GaussianState1D(sxx=0.5, sxp=1.0, spp=0.5)
        with pytest.raises(StateError):
            density_matrix_element(bad, 0.0, 0.0)


class TestStationaryDensityMatrix:
    def test_origin_value(self):
        value = stationary_density_matrix_element(OscillatorParams(lam=0.2, mu=0.1),
                                                  ThermalParams(C=10.0), 0.0, 0.0)
        assert value == pytest.approx(math.sqrt(1.0 / (10.0 * math.pi)), abs=1e-12)

    def test_equals_general_form_at_thermal_moments(self):
        params = OscillatorParams(lam=0.2, mu=0.1)
        th = ThermalParams(C=4.0)
        state = asymptotic_state(params, th)
        rng = np.random.default_rng(13)
        for _ in range(30):
            x, xp = rng.uniform(-4.0, 4.0, 2)
            general = density_matrix_element(state, x, xp)
            assert general.imag == pytest.approx(0.0, abs=1e-15)
            assert general.real == pytest.approx(
                stationary_density_matrix_element(params, th, x, xp), rel=1e-12)

    def test_broadcasts_over_grids_like_per_node_calls(self):
        params, th = OscillatorParams(lam=0.2, mu=0.1, m=0.8, omega=1.2), ThermalParams(C=3.5)
        grid = np.linspace(-5.0, 5.0, 61)
        got = stationary_density_matrix_element(params, th, grid[:, None], grid[None, :])
        assert got.shape == (61, 61)
        mw = params.m * params.omega
        want = [[math.sqrt(mw / (math.pi * th.C)) * math.exp(
                    -(mw / 4.0) * ((a + b) ** 2 / th.C + (a - b) ** 2 * th.C))
                 for b in grid.tolist()] for a in grid.tolist()]
        # numpy squares with one rounding where ** 2 on a float calls pow()
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        scalar = stationary_density_matrix_element(params, th, grid[7], grid[50])
        assert type(scalar) is float and scalar == got[7, 50]

    def test_offdiagonal_decay_ratio(self):
        params = OscillatorParams(lam=0.2, mu=0.1)
        for C in (2.0, 5.0, 10.0):
            th = ThermalParams(C=C)
            ratio = stationary_density_matrix_element(params, th, 1.0, -1.0) \
                / stationary_density_matrix_element(params, th, 0.0, 0.0)
            assert ratio == pytest.approx(math.exp(-C), rel=1e-12)


class TestShortTimeCoherenceCoefficient:
    def test_initial_value_matches_exact_gamma(self):
        th = ThermalParams(C=2.0)
        state = correlated_coherent_state(4.0, 0.3, FIG_PARAMS)
        exact = decoherence_coefficients(state).gamma
        value = short_time_coherence_coefficient(4.0, 0.3, FIG_PARAMS, th, 0.0)
        assert value == pytest.approx(exact, rel=1e-12)
        assert value == pytest.approx(1.0 / 16.0, rel=1e-12)  # m*omega/(4*hbar*delta)

    def test_constant_for_coherent_state_zero_t(self):
        p = OscillatorParams(lam=0.2)
        th = ThermalParams(C=1.0)
        v0 = short_time_coherence_coefficient(1.0, 0.0, p, th, 0.0)
        v1 = short_time_coherence_coefficient(1.0, 0.0, p, th, 0.1)
        assert v0 == pytest.approx(0.25, rel=1e-12)
        assert v1 == pytest.approx(v0, rel=1e-12)

    def test_growth_rate_defines_decoherence_time(self):
        th = ThermalParams(C=2.0)
        v0 = short_time_coherence_coefficient(4.0, 0.3, FIG_PARAMS, th, 0.0)
        dt = 1e-3
        slope = (short_time_coherence_coefficient(4.0, 0.3, FIG_PARAMS, th, dt) - v0) / dt
        t_deco = decoherence_time(4.0, 0.3, FIG_PARAMS, th, "general")
        assert slope * t_deco == pytest.approx(v0, rel=1e-9)

    def test_warns_outside_short_time_domain(self):
        with pytest.warns(UserWarning):
            short_time_coherence_coefficient(4.0, 0.0, FIG_PARAMS, ThermalParams(C=2.0), 1.0)


class TestDecoherenceTime:
    def test_r0_reference(self):
        value = decoherence_time(4.0, 0.0, FIG_PARAMS, ThermalParams(C=2.0), "r0")
        assert value == pytest.approx(1.0 / 4.2, abs=1e-12)

    def test_general_equals_r0_at_r_zero(self):
        th = ThermalParams(C=2.0)
        assert decoherence_time(4.0, 0.0, FIG_PARAMS, th, "general") \
            == pytest.approx(decoherence_time(4.0, 0.0, FIG_PARAMS, th, "r0"), rel=1e-14)

    def test_zero_temperature(self):
        p = OscillatorParams(lam=0.2)
        th = ThermalParams(C=1.0)
        assert decoherence_time(4.0, 0.0, p, th, "zero_temperature") \
            == pytest.approx(1.0 / 1.2, abs=1e-12)
        assert decoherence_time(1.0, 0.0, p, th, "zero_temperature") == math.inf

    def test_zero_temperature_preconditions(self):
        with pytest.raises(ParameterError):
            decoherence_time(4.0, 0.0, FIG_PARAMS, ThermalParams(C=1.0), "zero_temperature")
        p = OscillatorParams(lam=0.2)
        with pytest.raises(ParameterError):
            decoherence_time(4.0, 0.0, p, ThermalParams(C=2.0), "zero_temperature")
        with pytest.raises(ParameterError):
            decoherence_time(4.0, 0.1, p, ThermalParams(C=1.0), "zero_temperature")

    def test_high_temperature_reference(self):
        value = decoherence_time(4.0, 0.0, FIG_PARAMS, ThermalParams(C=10.0), "high_temperature")
        assert value == pytest.approx(1.0 / 24.0, abs=1e-12)

    def test_r0_requires_r_zero(self):
        with pytest.raises(ParameterError):
            decoherence_time(4.0, 0.2, FIG_PARAMS, ThermalParams(C=2.0), "r0")

    def test_unknown_regime(self):
        with pytest.raises(ParameterError):
            decoherence_time(4.0, 0.0, FIG_PARAMS, ThermalParams(C=2.0), "bogus")


class TestThermalFluctuationTime:
    def test_reference_value(self):
        value = thermal_fluctuation_time(4.0, 0.0, FIG_PARAMS, ThermalParams(C=10.0))
        assert value == pytest.approx(1.0 / 24.5, abs=1e-12)

    def test_mu_zero_form(self):
        p = OscillatorParams(lam=0.2)
        value = thermal_fluctuation_time(4.0, 0.0, p, ThermalParams(C=10.0))
        assert value == pytest.approx(1.0 / (2.0 * 0.2 * (4.0 + 0.25) * 10.0), rel=1e-14)

    def test_same_scale_as_decoherence_time(self):
        for C in (10.0, 20.0, 50.0):
            th = ThermalParams(C=C)
            t_deco = decoherence_time(4.0, 0.0, FIG_PARAMS, th, "high_temperature")
            t_d = thermal_fluctuation_time(4.0, 0.0, FIG_PARAMS, th)
            assert abs(t_deco / t_d - 1.0) < 0.05

    def test_warns_below_high_temperature(self):
        with pytest.warns(UserWarning):
            thermal_fluctuation_time(4.0, 0.0, FIG_PARAMS, ThermalParams(C=2.0))


class TestRelaxationTime:
    def test_values(self):
        assert relaxation_time(OscillatorParams(lam=0.2)) == 5.0
        assert relaxation_time(OscillatorParams(lam=1.0)) == 1.0

    def test_equilibrium_after_ten_relaxation_times(self):
        th = ThermalParams(C=2.0)
        env = gibbs_coefficients(FIG_PARAMS, th)
        s0 = correlated_coherent_state(4.0, 0.0, FIG_PARAMS)
        s = propagate_moments(s0, env, FIG_PARAMS, 10.0 * relaxation_time(FIG_PARAMS))
        ref = asymptotic_state(FIG_PARAMS, th)
        assert abs(s.sxx - ref.sxx) < 1e-8
        assert abs(s.spp - ref.spp) < 1e-8
        assert abs(s.sxp) < 1e-8
        assert abs(s.mean_x) < 1e-8
        assert abs(s.mean_p) < 1e-8


def _random_drift(rng):
    """Oscillator with lam, m and omega over 2-3 decades and 0 < |mu| < 0.9 lam."""
    lam = 10.0 ** rng.uniform(-2.0, 1.0)
    mu = lam * rng.uniform(0.01, 0.9) * rng.choice([-1.0, 1.0])
    return OscillatorParams(lam=lam, mu=mu, m=10.0 ** rng.uniform(-1.5, 1.5),
                            omega=10.0 ** rng.uniform(-1.5, 1.5))


class TestStationaryCovariance:
    def test_matches_kronecker_route_at_nonzero_mu(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            params = _random_drift(rng)
            Dxx, Dxp, Dpp = rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
            s_xx, s_xp, s_pp = stationary_covariance(params, Dxx, Dxp, Dpp)
            ref = steady_covariance(drift_matrix(params), np.array([[Dxx, Dxp], [Dxp, Dpp]]))
            got = np.array([[s_xx, s_xp], [s_xp, s_pp]])
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_gibbs_diffusion_gives_the_thermal_state(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            _, _, params, thermal = oracles.random_gibbs_draw(rng)
            env = gibbs_coefficients(params, thermal)
            s_xx, s_xp, s_pp = stationary_covariance(params, env.Dxx, env.Dxp, env.Dpp)
            want = asymptotic_state(params, thermal)
            assert s_xx == pytest.approx(want.sxx, rel=1e-12)
            assert s_pp == pytest.approx(want.spp, rel=1e-12)
            assert abs(s_xp) <= 1e-12 * max(want.sxx, want.spp)

    def test_broadcasts_like_per_node_calls(self):
        params = OscillatorParams(lam=0.3, mu=-0.1, m=0.8, omega=1.7)
        Dxx = np.linspace(0.1, 2.0, 7)[:, None]
        Dxp, Dpp = np.linspace(-0.5, 0.5, 5), 0.4
        batch = stationary_covariance(params, Dxx, Dxp, Dpp)
        for i in range(7):
            for j in range(5):
                node = stationary_covariance(params, float(Dxx[i, 0]), float(Dxp[j]), Dpp)
                assert [float(b[i, j]) for b in batch] == list(node)

    def test_rejects_a_drift_that_is_not_hurwitz(self):
        # det Y = lam^2 - mu^2 + omega^2 <= 0: no stationary state
        for mu in (math.sqrt(0.2**2 + 1.0) * 1.5, -3.0):
            with pytest.raises(ParameterError, match="not Hurwitz"):
                stationary_covariance(OscillatorParams(lam=0.2, mu=mu), 1.0, 0.0, 1.0)


class TestAsymptoticState:
    def test_ground_state_at_c_one(self):
        s = asymptotic_state(OscillatorParams(lam=0.2), ThermalParams(C=1.0))
        assert (s.sxx, s.spp, s.sxp) == (0.5, 0.5, 0.0)

    def test_c_ten(self):
        s = asymptotic_state(OscillatorParams(lam=0.2), ThermalParams(C=10.0))
        assert (s.sxx, s.spp) == (5.0, 5.0)
        assert s.det == pytest.approx(25.0, abs=1e-12)

    def test_solves_lyapunov_equation(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            _, _, params, thermal = oracles.random_gibbs_draw(rng)
            s = asymptotic_state(params, thermal)
            Y = oracles.mean_ode_matrix_1d(params.lam, params.mu, params.m, params.omega)
            Dxx, Dxp, Dpp = oracles.gibbs_diffusion(params.lam, params.mu, params.m,
                                                    params.omega, params.hbar, thermal.C)
            S = s.covariance()
            D = np.array([[Dxx, Dxp], [Dxp, Dpp]])
            assert np.abs(Y @ S + S @ Y.T + 2.0 * D).max() < 1e-12
