"""Tests for parameter types, thermal coefficients, and validity checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindosc import (
    OscillatorParams,
    ParameterError,
    SingleModeEnv,
    StateError,
    ThermalParams,
    TwoModeEnvironment,
    correlated_coherent_state,
    gibbs_coefficients,
    validate_single_mode,
    validate_two_mode,
)
from lindosc.core import GRAM_CHECKS, GaussianState1D, gram_checks, gram_matrices


class TestOscillatorParams:
    def test_accepts_valid(self):
        p = OscillatorParams(lam=0.2, mu=0.1, m=2.0, omega=1.5, hbar=0.5)
        assert p.lam == 0.2

    @pytest.mark.parametrize("kwargs", [
        {"lam": 0.0}, {"lam": -1.0}, {"lam": math.nan},
        {"lam": 0.2, "m": 0.0}, {"lam": 0.2, "omega": -1.0},
        {"lam": 0.2, "hbar": 0.0}, {"lam": 0.2, "mu": math.inf},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            OscillatorParams(**kwargs)

    def test_effective_frequency(self):
        p = OscillatorParams(lam=0.2, mu=0.6, omega=1.0)
        assert p.effective_frequency == pytest.approx(0.8)
        with pytest.raises(ParameterError):
            OscillatorParams(lam=0.2, mu=1.0, omega=1.0).effective_frequency


class TestThermalParams:
    def test_bounds(self):
        assert ThermalParams(C=1.0).C == 1.0
        with pytest.raises(ParameterError):
            ThermalParams(C=0.99)
        with pytest.raises(ParameterError):
            ThermalParams(C=math.inf)

    def test_from_epsilon(self):
        assert ThermalParams.from_epsilon(math.inf).C == 1.0
        th = ThermalParams.from_epsilon(0.5)
        assert th.C == pytest.approx(1.0 / math.tanh(0.5))
        with pytest.raises(ParameterError):
            ThermalParams.from_epsilon(0.0)


class TestGibbsCoefficients:
    def test_reference_values(self):
        env = gibbs_coefficients(OscillatorParams(lam=0.2, mu=0.1), ThermalParams(C=2.0))
        assert env.Dxx == pytest.approx(0.1, abs=1e-15)
        assert env.Dpp == pytest.approx(0.3, abs=1e-15)
        assert env.Dxp == 0.0

    def test_zero_temperature_symmetric(self):
        env = gibbs_coefficients(OscillatorParams(lam=0.2, mu=0.0), ThermalParams(C=1.0))
        assert env.Dxx == pytest.approx(0.1, abs=1e-15)
        assert env.Dpp == pytest.approx(0.1, abs=1e-15)

    def test_rejects_lam_not_above_mu(self):
        with pytest.raises(ParameterError):
            gibbs_coefficients(OscillatorParams(lam=0.2, mu=0.2), ThermalParams(C=2.0))
        with pytest.raises(ParameterError):
            gibbs_coefficients(OscillatorParams(lam=0.2, mu=0.3), ThermalParams(C=2.0))

    def test_mass_frequency_scaling(self):
        th = ThermalParams(C=3.0)
        env = gibbs_coefficients(OscillatorParams(lam=0.2, mu=0.1, m=2.0, omega=0.5), th)
        # the product Dxx*Dpp is independent of m and omega
        ref = gibbs_coefficients(OscillatorParams(lam=0.2, mu=0.1), th)
        assert env.Dxx * env.Dpp == pytest.approx(ref.Dxx * ref.Dpp, rel=1e-14)


class TestValidateSingleMode:
    def test_pass_case_slacks(self):
        th = ThermalParams(C=2.0)
        report = validate_single_mode(gibbs_coefficients(OscillatorParams(lam=0.2, mu=0.1), th), th)
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["gibbs_thermal_constraint"].slack == pytest.approx(0.08, abs=1e-15)

    def test_fail_case_slacks(self):
        th = ThermalParams(C=1.0)
        report = validate_single_mode(gibbs_coefficients(OscillatorParams(lam=0.2, mu=0.1), th), th)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        assert not by_name["gibbs_thermal_constraint"].passed
        assert by_name["gibbs_thermal_constraint"].slack == pytest.approx(-0.01, abs=1e-15)
        assert not by_name["fundamental_constraint"].passed

    @settings(deadline=None)
    @given(C=st.floats(min_value=1.0, max_value=100.0))
    def test_mu_zero_always_passes(self, C):
        th = ThermalParams(C=C)
        report = validate_single_mode(gibbs_coefficients(OscillatorParams(lam=0.2), th), th)
        assert report.passed

    @settings(deadline=None, max_examples=200)
    @given(lam=st.floats(min_value=0.01, max_value=1.0),
           mu_frac=st.floats(min_value=0.0, max_value=0.95),
           C=st.floats(min_value=1.0, max_value=50.0))
    def test_gibbs_output_valid_iff_thermal_constraint(self, lam, mu_frac, C):
        mu = mu_frac * lam
        th = ThermalParams(C=C)
        report = validate_single_mode(
            gibbs_coefficients(OscillatorParams(lam=lam, mu=mu), th), th)
        if (lam**2 - mu**2) * C**2 >= lam**2:
            assert report.passed

    def test_gibbs_check_needs_thermal(self):
        env = gibbs_coefficients(OscillatorParams(lam=0.2, mu=0.1), ThermalParams(C=2.0))
        names = {c.name for c in validate_single_mode(env).checks}
        assert "gibbs_thermal_constraint" not in names

    def test_non_gibbs_env_skips_thermal_check(self):
        env = SingleModeEnv(Dxx=1.0, Dpp=1.0, Dxp=0.3, lam=0.2, mu=0.0)
        names = {c.name for c in validate_single_mode(env, ThermalParams(C=2.0)).checks}
        assert "gibbs_thermal_constraint" not in names


def _diagonal_env(d, lam):
    return TwoModeEnvironment.symmetric_env(Dxx=d, Dxpx=0.0, Dpxpx=d,
                                            Dxy=0.0, Dxpy=0.0, Dpxpy=0.0, lam=lam)


class TestValidateTwoMode:
    def test_diagonal_env_pass(self):
        report = validate_two_mode(_diagonal_env(0.2, 0.2))
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        # 2x2 block eigenvalues are d -/+ lam/2
        assert by_name["gram_matrix_psd"].slack == pytest.approx(0.1, abs=1e-12)

    def test_diagonal_env_boundary(self):
        # d exactly lam/2: minimum eigenvalue is 0, which the relative
        # tolerance must accept
        report = validate_two_mode(_diagonal_env(0.1, 0.2))
        assert report.passed

    def test_diagonal_env_fail(self):
        report = validate_two_mode(_diagonal_env(0.05, 0.2))
        by_name = {c.name: c for c in report.checks}
        assert not by_name["gram_matrix_psd"].passed
        assert by_name["gram_matrix_psd"].slack == pytest.approx(-0.05, abs=1e-12)
        assert not by_name["cs_xx_pxpx"].passed
        assert by_name["cs_xx_pxpx"].slack == pytest.approx(0.05**2 - 0.01, abs=1e-15)

    def test_all_zero_coefficients_fail(self):
        report = validate_two_mode(_diagonal_env(0.0, 0.2))
        by_name = {c.name: c for c in report.checks}
        assert by_name["gram_matrix_psd"].slack == pytest.approx(-0.1, abs=1e-12)
        assert not report.passed

    def test_swap_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            coeffs = rng.uniform(-0.5, 1.0, 10)
            env = TwoModeEnvironment(
                Dxx=abs(coeffs[0]), Dxpx=coeffs[1], Dpxpx=abs(coeffs[2]),
                Dyy=abs(coeffs[3]), Dypy=coeffs[4], Dpypy=abs(coeffs[5]),
                Dxy=coeffs[6], Dxpy=coeffs[7], Dypx=coeffs[8], Dpxpy=coeffs[9],
                lam=0.2,
            )
            a = validate_two_mode(env)
            b = validate_two_mode(env.swapped())
            assert a.passed == b.passed
            assert a.checks[0].slack == pytest.approx(b.checks[0].slack, abs=1e-12)

    def test_symmetric_flag_enforced(self):
        with pytest.raises(ParameterError):
            TwoModeEnvironment(Dxx=1.0, Dxpx=0.0, Dpxpx=1.0,
                               Dyy=2.0, Dypy=0.0, Dpypy=1.0,
                               Dxy=0.0, Dxpy=0.0, Dypx=0.0, Dpxpy=0.0,
                               lam=0.2, symmetric=True)


class TestCorrelatedCoherentState:
    def test_glauber(self):
        st1 = correlated_coherent_state(1.0, 0.0, OscillatorParams(lam=0.2))
        assert (st1.sxx, st1.spp, st1.sxp) == (0.5, 0.5, 0.0)

    def test_squeezed(self):
        st4 = correlated_coherent_state(4.0, 0.0, OscillatorParams(lam=0.2))
        assert (st4.sxx, st4.spp, st4.sxp) == (2.0, 0.125, 0.0)
        assert st4.det == pytest.approx(0.25, abs=1e-15)

    def test_correlated(self):
        s = correlated_coherent_state(1.0, 0.5, OscillatorParams(lam=0.2))
        assert s.sxx == pytest.approx(0.5)
        assert s.spp == pytest.approx(2.0 / 3.0)
        assert s.sxp == pytest.approx(0.25 / math.sqrt(0.75))
        assert s.det == pytest.approx(0.25, abs=1e-15)

    def test_means_carried(self):
        s = correlated_coherent_state(2.0, 0.1, OscillatorParams(lam=0.2), x0=1.5, p0=-0.5)
        assert (s.mean_x, s.mean_p) == (1.5, -0.5)

    @pytest.mark.parametrize("delta,r", [(0.0, 0.0), (-1.0, 0.0), (1.0, 1.0), (1.0, -1.2)])
    def test_rejects_bad_arguments(self, delta, r):
        with pytest.raises(ParameterError):
            correlated_coherent_state(delta, r, OscillatorParams(lam=0.2))

    @settings(deadline=None, max_examples=200)
    @given(
        delta=st.floats(min_value=1e-3, max_value=1e3),
        r=st.floats(min_value=-0.99, max_value=0.99),
        hbar=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_minimum_uncertainty_invariant(self, delta, r, hbar):
        p = OscillatorParams(lam=0.2, hbar=hbar)
        s = correlated_coherent_state(delta, r, p)
        assert s.det == pytest.approx(hbar**2 / 4.0, rel=1e-12)


class TestGaussianState1D:
    def test_rejects_nonpositive_widths(self):
        with pytest.raises(StateError):
            GaussianState1D(sxx=0.0, sxp=0.0, spp=1.0)
        with pytest.raises(StateError):
            GaussianState1D(sxx=1.0, sxp=0.0, spp=-1.0)

    def test_covariance_matrix(self):
        s = GaussianState1D(sxx=2.0, sxp=0.5, spp=1.0)
        np.testing.assert_allclose(s.covariance(), [[2.0, 0.5], [0.5, 1.0]])
        assert s.det == pytest.approx(1.75)


def _random_env(rng):
    coeffs = rng.uniform(-0.5, 1.0, 10)
    return TwoModeEnvironment(
        Dxx=abs(coeffs[0]), Dxpx=coeffs[1], Dpxpx=abs(coeffs[2]),
        Dyy=abs(coeffs[3]), Dypy=coeffs[4], Dpypy=abs(coeffs[5]),
        Dxy=coeffs[6], Dxpy=coeffs[7], Dypx=coeffs[8], Dpxpy=coeffs[9],
        lam=rng.uniform(0.05, 0.5),
    )


def _gram_reference(env, hbar=1.0):
    """Slacks and verdicts of the Gram checks for one environment, written
    out with a per-node eigen-solve and np.ix_ minors."""
    gram = env.coefficient_matrix(hbar=hbar)
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    slacks = [min_eig]
    passed = [min_eig >= -1e-10 * float(np.abs(gram).max())]
    for i, j in ((0, 2), (0, 1), (0, 3), (1, 2), (2, 3), (1, 3)):
        sub = gram[np.ix_((i, j), (i, j))]
        slack = float(np.real(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]))
        slacks.append(slack)
        passed.append(slack >= 0.0)
    return slacks, passed


class TestGramChecks:
    def test_stack_matches_validate_two_mode(self):
        rng = np.random.default_rng(8)
        n = 40
        envs = [_random_env(rng) for _ in range(n)]
        envs += [env.swapped() for env in envs]
        # 0.1 - 5e-11 fails its own tolerance, but not the 1e3 node's
        envs += [_diagonal_env(d, 0.2) for d in (0.0, 0.05, 0.1, 0.1 - 5e-11, 0.2, 1e3)]
        slack, passed = gram_checks(np.stack([env.coefficient_matrix() for env in envs]))
        assert slack.shape == passed.shape == (len(envs), len(GRAM_CHECKS))
        for k, env in enumerate(envs):
            report = validate_two_mode(env)
            assert tuple(c.name for c in report.checks) == GRAM_CHECKS
            assert slack[k].tolist() == [c.slack for c in report.checks]
            assert passed[k].tolist() == [c.passed for c in report.checks]
            assert ([c.slack for c in report.checks],
                    [c.passed for c in report.checks]) == _gram_reference(env)
        assert not passed[-3, 0]
        # the verdict is invariant under the mode swap
        np.testing.assert_array_equal(passed[:n].all(axis=1), passed[n:2 * n].all(axis=1))

    def test_gram_matrices_broadcast_over_coefficients(self):
        rng = np.random.default_rng(9)
        envs = [_random_env(rng) for _ in range(20)]
        names = ("Dxx", "Dxpx", "Dpxpx", "Dyy", "Dypy", "Dpypy", "Dxy", "Dxpy", "Dypx",
                 "Dpxpy", "lam")
        columns = [np.array([getattr(env, name) for env in envs]) for name in names]
        stack = gram_matrices(*columns, hbar=0.7)
        assert stack.shape == (20, 4, 4)
        for env, gram in zip(envs, stack):
            np.testing.assert_array_equal(gram, env.coefficient_matrix(hbar=0.7))
            assert _gram_reference(env, 0.7) == tuple(
                x.tolist() for x in gram_checks(gram))
