"""Tests for parameter types, thermal coefficients, and validity checks."""

import math
from dataclasses import replace
from fractions import Fraction

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
from lindosc.core import (
    INVARIANTS,
    SCALE_RTOL,
    SCORE_RTOL,
    GaussianState1D,
    axis_factors,
    bona_fide_checks,
    covariance_blocks,
    diffusion_matrix,
    entry_invariants,
    entry_invariants_and_sums,
    gibbs_diffusion,
    not_negative,
    one_mode_checks,
    stack_blocks,
    sum_products,
)
from lindosc.separability import simon_verdicts

from . import oracles

EPS = np.finfo(float).eps


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

    def test_bit_identical_to_the_batch(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            lam, m, w, hbar = 10.0 ** rng.uniform(-2.0, 2.0, 4)
            params = OscillatorParams(lam=lam, mu=lam * rng.uniform(-2.0, 0.99), m=m, omega=w,
                                      hbar=hbar)
            c_grid = 10.0 ** rng.uniform(0.0, 3.0, 20)
            Dxx, Dpp = gibbs_diffusion(params, c_grid)
            for k, C in enumerate(c_grid.tolist()):
                env = gibbs_coefficients(params, ThermalParams(C=C))
                assert (env.Dxx, env.Dpp, env.Dxp) == (Dxx[k], Dpp[k], 0.0)
                assert env.Dxx.hex() == float(Dxx[k]).hex()
                assert env.Dpp.hex() == float(Dpp[k]).hex()

    def test_batch_rejects_lam_not_above_mu(self):
        with pytest.raises(ParameterError):
            gibbs_diffusion(OscillatorParams(lam=0.2, mu=0.2), np.array([1.0, 2.0]))


class TestValidateSingleMode:
    def test_overflowing_slack_fails(self):
        # Dxx*Dpp and Dxp^2 overflow, and inf - inf is no verdict
        report = validate_single_mode(SingleModeEnv(Dxx=1e160, Dpp=1e160, Dxp=2e160, lam=1.0))
        check = {c.name: c for c in report.checks}["det_a_at_least_quarter"]
        assert math.isnan(check.slack)
        assert not check.passed

    def test_pass_case_slacks(self):
        # sigma = D/lam = diag(0.5, 1.5): det A - 1/4 = 1/2
        th = ThermalParams(C=2.0)
        report = validate_single_mode(gibbs_coefficients(OscillatorParams(lam=0.2, mu=0.1), th))
        assert report.passed
        assert [c.name for c in report.checks] == list(INVARIANTS[:2])
        by_name = {c.name: c for c in report.checks}
        assert by_name["sigma_xx_positive"].slack == pytest.approx(0.5, abs=1e-15)
        assert by_name["det_a_at_least_quarter"].slack == pytest.approx(0.5, abs=1e-15)

    def test_fail_case_slacks(self):
        # sigma = diag(0.25, 0.75): det A - 1/4 = ((lam^2 - mu^2) C^2 - lam^2)/(4 lam^2)
        th = ThermalParams(C=1.0)
        report = validate_single_mode(gibbs_coefficients(OscillatorParams(lam=0.2, mu=0.1), th))
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["sigma_xx_positive"].passed
        assert not by_name["det_a_at_least_quarter"].passed
        assert by_name["det_a_at_least_quarter"].slack == pytest.approx(-0.0625, abs=1e-15)

    @settings(deadline=None)
    @given(C=st.floats(min_value=1.0, max_value=100.0))
    def test_mu_zero_always_passes(self, C):
        th = ThermalParams(C=C)
        report = validate_single_mode(gibbs_coefficients(OscillatorParams(lam=0.2), th))
        assert report.passed

    @settings(deadline=None, max_examples=200)
    @given(lam=st.floats(min_value=0.01, max_value=1.0),
           mu_frac=st.floats(min_value=0.0, max_value=0.95),
           C=st.floats(min_value=1.0, max_value=50.0))
    def test_gibbs_output_valid_iff_thermal_constraint(self, lam, mu_frac, C):
        mu = mu_frac * lam
        th = ThermalParams(C=C)
        report = validate_single_mode(gibbs_coefficients(OscillatorParams(lam=lam, mu=mu), th))
        if (lam**2 - mu**2) * C**2 >= lam**2:
            assert report.passed

    def test_saturated_constraints_pass(self):
        # At T = 0 and mu = 0, and at C = lam/sqrt(lam^2 - mu^2), det A - 1/4
        # of sigma = D/(hbar lam) is 0 and its slack is rounding.  Against
        # the exact det A - 1/4 of the same sigma floats, the computed one is
        # within its bound, and so is the exact one.
        rng = np.random.default_rng(19)
        cases = [(OscillatorParams(lam=0.567266219538856, m=0.35948907446999856,
                                   omega=0.03470451824669471), ThermalParams(C=1.0)),
                 (OscillatorParams(lam=0.1542320843456786, mu=0.022814830587515218),
                  ThermalParams(C=1.0111238450381421))]
        for _ in range(1000):
            lam, m, w = 10.0 ** rng.uniform(-1.5, 1.5, 3)
            cases.append((OscillatorParams(lam=lam, m=m, omega=w), ThermalParams(C=1.0)))
            mu = lam * rng.uniform(0.01, 0.99)
            cases.append((OscillatorParams(lam=lam, mu=mu, m=m, omega=w),
                          ThermalParams(C=lam / math.sqrt(lam * lam - mu * mu))))
        for params, th in cases:
            env = gibbs_coefficients(params, th)
            report = validate_single_mode(env)
            assert report.passed, report
            by_name = {c.name: c for c in report.checks}
            scale = params.hbar * params.lam
            sxx, spp = Fraction(env.Dxx / scale), Fraction(env.Dpp / scale)
            assert Fraction(by_name["sigma_xx_positive"].slack) == sxx
            want = sxx * spp - Fraction(1, 4)
            bound = Fraction(SCORE_RTOL) * (sxx * spp + Fraction(1, 4))
            assert abs(Fraction(by_name["det_a_at_least_quarter"].slack) - want) <= bound
            assert abs(want) <= bound


class TestOneModeChecks:
    """The one-mode environment is completely positive exactly when its Gram
    matrix D - i (hbar lam/2) J is positive semidefinite."""

    def test_verdict_matches_gram_eigenvalues_across_scales(self):
        # sigma = D/(hbar lam) with det sigma, a third each, from 10^-0.6 to
        # 100 (all pass), from 0 to 1/2, and a relative 1e-12 to 1e-2 to
        # either side of 1/4; a tenth have a negative diagonal entry.  hbar
        # lam spans six decades and sigma_xx four more.
        rng = np.random.default_rng(2026)
        n = 120_000
        lam, hbar = 10.0 ** rng.uniform(-2.0, 2.0, n), 10.0 ** rng.uniform(-1.0, 1.0, n)
        sxx = 10.0 ** rng.uniform(-2.0, 2.0, n)
        corr = rng.uniform(-1.0, 1.0, n)
        near = 0.25 * (1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, -2.0, n))
        det = np.choose(rng.integers(0, 3, n), [10.0 ** rng.uniform(-0.6, 2.0, n),
                                                rng.uniform(0.0, 0.5, n), near])
        sxp = corr * 10.0 ** rng.uniform(-1.0, 1.0, n)
        spp = (det + sxp * sxp) / sxx
        flip = rng.random(n) < 0.1
        sxx = np.where(flip & (rng.random(n) < 0.5), -sxx, sxx)
        spp = np.where(flip & (sxx > 0.0), -spp, spp)
        Dxx, Dpp, Dxp = (x * hbar * lam for x in (sxx, spp, sxp))
        positive, resolved = oracles.gram_verdicts(
            oracles.one_mode_gram_matrices(Dxx, Dpp, Dxp, lam, hbar))
        values, passed = one_mode_checks(Dxx, Dpp, Dxp, lam, hbar)
        assert values.shape == passed.shape == (n, 2)
        passed = passed.all(axis=-1)
        np.testing.assert_array_equal(passed[resolved], positive[resolved])
        assert resolved.sum() > 0.9 * n
        assert 0.2 * n < positive[resolved].sum() < 0.8 * n

    def test_matches_the_two_mode_checks_of_two_copies(self):
        # the other three invariants of D1 (+) D1 follow from the first two
        rng = np.random.default_rng(5)
        for _ in range(200):
            Dxx, Dpp, lam = rng.uniform(0.0, 1.0, 3)
            Dxp = rng.uniform(-1.0, 1.0)
            copies = TwoModeEnvironment(Dxx=Dxx, Dxpx=Dxp, Dpxpx=Dpp, Dyy=Dxx, Dypy=Dxp,
                                        Dpypy=Dpp, Dxy=0.0, Dxpy=0.0, Dypx=0.0, Dpxpy=0.0,
                                        lam=lam)
            one = validate_single_mode(SingleModeEnv(Dxx=Dxx, Dpp=Dpp, Dxp=Dxp, lam=lam))
            two = validate_two_mode(copies)
            assert one.lines() == two.lines()[:2]
            assert one.passed == two.passed

    def test_non_finite_value_fails(self):
        values, passed = one_mode_checks(np.array([math.inf, 1.0]), 1.0, 0.0, 1.0, 1.0)
        assert not np.isfinite(values[0]).all() and not passed[0].all()
        assert passed[1].all()


def _diagonal_env(d, lam):
    return TwoModeEnvironment.symmetric_env(Dxx=d, Dxpx=0.0, Dpxpx=d,
                                            Dxy=0.0, Dxpy=0.0, Dpxpy=0.0, lam=lam)


class TestValidateTwoMode:
    # sigma = D/lam of a diagonal environment is d/lam times the identity:
    # both symplectic eigenvalues are d/lam, so Delta = 2 (d/lam)^2 and
    # U = ((d/lam)^2 - 1/4)^2
    def test_diagonal_env_pass(self):
        report = validate_two_mode(_diagonal_env(0.2, 0.2))
        assert report.passed
        assert [c.name for c in report.checks] == list(INVARIANTS[:5])
        by_name = {c.name: c for c in report.checks}
        assert by_name["delta_at_least_half"].slack == pytest.approx(1.5, abs=1e-15)
        assert by_name["uncertainty_relation"].slack == pytest.approx(0.5625, abs=1e-15)

    def test_diagonal_env_boundary(self):
        # d exactly lam/2: Delta - 1/2 and U are 0, which the rounding bound
        # must accept
        report = validate_two_mode(_diagonal_env(0.1, 0.2))
        assert report.passed

    def test_diagonal_env_fail(self):
        # both symplectic eigenvalues are 1/4: U = (1/16 - 1/4)^2 holds, and
        # Delta >= 1/2 is the check that fails
        report = validate_two_mode(_diagonal_env(0.05, 0.2))
        by_name = {c.name: c for c in report.checks}
        assert not by_name["delta_at_least_half"].passed
        assert by_name["delta_at_least_half"].slack == pytest.approx(-0.375, abs=1e-15)
        assert by_name["uncertainty_relation"].passed
        assert by_name["uncertainty_relation"].slack == pytest.approx(0.03515625, abs=1e-15)
        assert not report.passed

    def test_all_zero_coefficients_fail(self):
        report = validate_two_mode(_diagonal_env(0.0, 0.2))
        by_name = {c.name: c for c in report.checks}
        assert by_name["delta_at_least_half"].slack == -0.5
        assert not report.passed

    def test_swap_invariance(self):
        # Delta and U are invariant under the mode swap, and so is the verdict
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
            for k in (3, 4):
                assert a.checks[k].slack == pytest.approx(b.checks[k].slack, abs=1e-12)

    def test_overflowing_invariants_fail(self):
        # det A = 1e320 - 4e320 < 0, but it and the invariants built on it
        # overflow to nan; a non-finite slack fails
        env = TwoModeEnvironment.symmetric_env(Dxx=1e160, Dxpx=2e160, Dpxpx=1e160,
                                               Dxy=0.0, Dxpy=0.0, Dpxpy=0.0, lam=1.0)
        report = validate_two_mode(env)
        unresolved = [c.name for c in report.checks if not math.isfinite(c.slack)]
        assert unresolved == list(INVARIANTS[1:5])
        assert [c.name for c in report.failures()] == unresolved

    def test_symmetric_is_derived_from_the_coefficients(self):
        pairs = [("Dxx", "Dyy"), ("Dxpx", "Dypy"), ("Dpxpx", "Dpypy"), ("Dxpy", "Dypx")]
        for size in (1e-3, 4.0):
            env = TwoModeEnvironment.symmetric_env(Dxx=size, Dxpx=-size / 2, Dpxpx=size / 3,
                                                   Dxy=size / 5, Dxpy=size / 7,
                                                   Dpxpy=-size / 9, lam=0.2)
            assert env.symmetric and env.swapped().symmetric
            scale = max(1.0, size)  # max(1, |the eight mirror coefficients|)
            for a, b in pairs:
                for shift, symmetric in ((0.5, True), (2.0, False)):
                    moved = replace(env, **{b: getattr(env, a) + shift * SCALE_RTOL * scale})
                    assert moved.symmetric == moved.swapped().symmetric == symmetric


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


def invariants(sigma, sign=-1.0):
    """The six INVARIANTS of a (..., 4, 4) stack on a last axis."""
    return np.stack(entry_invariants(*covariance_blocks(sigma), sign), axis=-1)


def _env_sigma(envs):
    """Stack of D/lam of the environments (hbar = 1)."""
    return np.stack([diffusion_matrix(env) / env.lam for env in envs])


class TestGramChecks:
    """The bona fide checks of D/(hbar lam) against the environment's Gram
    matrix, whose positive semidefiniteness is complete positivity."""

    def test_stack_matches_validate_two_mode(self):
        rng = np.random.default_rng(8)
        n = 40
        envs = [_random_env(rng) for _ in range(n)]
        envs += [env.swapped() for env in envs]
        # 0.1 - 5e-11 is resolved below d = lam/2, at any scale of the stack
        envs += [_diagonal_env(d, 0.2) for d in (0.0, 0.05, 0.1, 0.1 - 5e-11, 0.2, 1e3)]
        slack, passed = bona_fide_checks(_env_sigma(envs))
        assert slack.shape == passed.shape == (len(envs), 5)
        positive, resolved = oracles.gram_verdicts(
            np.stack([oracles.env_gram_matrix(env) for env in envs]))
        for k, env in enumerate(envs):
            report = validate_two_mode(env)
            assert tuple(c.name for c in report.checks) == INVARIANTS[:5]
            assert slack[k].tolist() == [c.slack for c in report.checks]
            assert passed[k].tolist() == [c.passed for c in report.checks]
            if resolved[k]:
                assert report.passed == positive[k]
        assert [row.all() for row in passed[-6:]] == [False, False, True, False, True, True]
        # the verdict is invariant under the mode swap
        np.testing.assert_array_equal(passed[:n].all(axis=1), passed[n:2 * n].all(axis=1))

    def test_zero_leading_minors_fail(self):
        # Leading minors only at >= 0 would pass each of these: sigma_00,
        # det A or the 3x3 minor of D/lam is exactly 0 while Delta >= 1/2
        # and U >= 0 hold.  det A >= 1/4 excludes them, and the Gram matrix
        # has a resolved negative eigenvalue at each.
        def env(Dxx, Dxpx, Dpxpx, Dyy, Dypy, Dpypy, Dxy=0.0, Dxpy=0.0, Dypx=0.0, Dpxpy=0.0):
            return TwoModeEnvironment(Dxx=Dxx, Dxpx=Dxpx, Dpxpx=Dpxpx, Dyy=Dyy, Dypy=Dypy,
                                      Dpypy=Dpypy, Dxy=Dxy, Dxpy=Dxpy, Dypx=Dypx, Dpxpy=Dpxpy,
                                      lam=1.0)
        envs = [
            # sigma_00 = det A = minor_3 = 0, Delta - 1/2 = 1.5, U = 0.5625
            TwoModeEnvironment.symmetric_env(0.0, 0.0, 0.0, 1.0, 0.0, 1.0, lam=1.0),
            # det A = minor_3 = 0 with a {0, 2} minor of -3
            TwoModeEnvironment.symmetric_env(1.0, 1.0, 1.0, 2.0, 2.0, 3.0, lam=1.0),
            # scan nodes of a Dxy = 1 template at Dxx = 0, m = w = 1
            TwoModeEnvironment.symmetric_env(0.0, 0.0, 0.0, 1.0, 0.5, 1.0, lam=1.0),
            TwoModeEnvironment.symmetric_env(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, lam=1.0),
            env(0.0, 0.0, 1.0, 1.0, 0.0, 1.0),  # sigma_00 = det A = 0
            env(1.0, 1.0, 1.0, 1.0, 0.0, 1.0),  # det A = 0
            env(1.0, 0.0, 1.0, 1.0, 0.0, 1.0, Dxy=1.0),  # minor_3 = 0
        ]
        values = invariants(_env_sigma(envs))
        assert (values[:, :3] == 0.0).any(axis=1).all()
        positive, resolved = oracles.gram_verdicts(
            np.stack([oracles.env_gram_matrix(e) for e in envs]))
        assert resolved.all() and not positive.any()
        for e in envs:
            assert not validate_two_mode(e).passed
            assert not validate_two_mode(e.swapped()).passed
        assert not bona_fide_checks(_env_sigma(envs))[1].all(axis=-1).any()

    def test_verdict_matches_gram_eigenvalues_across_scales(self):
        # sigma = s W W^T / 4 - t I, a third each with t = 0 (positive
        # semidefinite), t drawn up to s (often indefinite), and t placing
        # the smallest eigenvalue of sigma + (i/2) Omega a relative 1e-12 to
        # 1e-2 to either side of 0; lam spans four decades and s two and a
        # half more
        rng = np.random.default_rng(2024)
        n = 100_000
        lam = 10.0 ** rng.uniform(-2.0, 2.0, n)
        w = rng.standard_normal((n, 4, 4))
        s = 10.0 ** rng.uniform(-1.25, 1.25, n)
        base = s[:, None, None] * (w @ np.swapaxes(w, 1, 2)) * 0.25
        base = 0.5 * (base + np.swapaxes(base, 1, 2))
        omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        edge = np.linalg.eigvalsh(base + 0.5j * omega)[:, 0]
        near = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, -2.0, n)
        t = np.choose(rng.integers(0, 3, n), [0.0 * s, rng.uniform(0.0, 1.0, n) * s,
                                              edge * (1.0 + near)])
        D = lam[:, None, None] * (base - t[:, None, None] * np.eye(4))
        entries = [D[:, i, j] for i, j in ((0, 0), (0, 1), (1, 1), (2, 2), (2, 3), (3, 3),
                                           (0, 2), (0, 3), (1, 2), (1, 3))]
        positive, resolved = oracles.gram_verdicts(oracles.gram_matrices(*entries, lam))
        passed = bona_fide_checks(D / lam[:, None, None])[1].all(axis=-1)
        np.testing.assert_array_equal(passed[resolved], positive[resolved])
        assert resolved.sum() > 0.95 * n
        assert 0.2 * n < positive[resolved].sum() < 0.8 * n

    def test_saturated_nodes_are_unresolved_and_pass(self):
        # Nodes on the boundary of complete positivity: the diagonal
        # environment with d = lam/2, and the a = 1/2 scan edge
        # (m w Dxx/lam = 1/2, Dxpy = 0) over random (lam, m, w).  Each
        # invariant is within its bound of the exact invariant of the same
        # floats, and the saturated ones are zero up to that bound.
        rng = np.random.default_rng(23)
        envs = [_diagonal_env(0.5 * lam, lam) for lam in (0.2, 0.3, 1e-3, 7.0)]
        for _ in range(60):
            lam, m, w = 10.0 ** rng.uniform(-1.5, 1.5, 3)
            dxx = lam / (2.0 * m * w)
            envs.append(TwoModeEnvironment.symmetric_env(
                Dxx=dxx, Dxpx=0.0, Dpxpx=(m * w) ** 2 * dxx, Dxy=0.0, Dxpy=0.0, Dpxpy=0.0,
                lam=lam))
        sigma = _env_sigma(envs)
        values, bounds = invariants(sigma), SCORE_RTOL * invariants(np.abs(sigma), 1.0)
        for k, env in enumerate(envs):
            exact = oracles.exact_invariants(sigma[k])
            for value, bound, want in zip(values[k], bounds[k], exact):
                assert abs(Fraction(float(value)) - want) <= Fraction(float(bound))
            for j in (1, 3, 4):  # det A - 1/4, Delta - 1/2 and U
                assert abs(exact[j]) <= Fraction(float(bounds[k, j]))
            assert validate_two_mode(env).passed


def _block_entries(sigma):
    """A, B and C of a (..., 4, 4) stack as entry tuples, read by index."""
    return tuple(tuple(sigma[..., r + i, c + j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
                 for r, c in ((0, 0), (2, 2), (0, 2)))


def _kernel_stacks(rng):
    """Seeded symmetric stacks: physical covariances, then matrices whose
    cross block C is not C^T, entries spread over twelve decades with both
    signs, and the same with a few entries at +-1e100."""
    physical = np.stack([oracles.random_physical_covariance(rng) for _ in range(60)])
    shape = (2000, 4, 4)
    raw = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-6.0, 6.0, shape)
    huge = raw.copy()
    huge[rng.random(huge.shape) < 0.1] = 1e100
    huge[rng.random(huge.shape) < 0.05] = -1e100
    return [physical] + [a + np.swapaxes(a, -1, -2) for a in (raw, huge)]


class TestEntryKernel:
    """The stack forms are wrappers of the entries kernel, bit for bit."""

    def test_stack_blocks_inverts_covariance_blocks(self):
        rng = np.random.default_rng(18)
        for sigma in _kernel_stacks(rng):
            blocks = _block_entries(sigma)
            assert np.array_equal(stack_blocks(*blocks), sigma)
            for got, want in zip(covariance_blocks(stack_blocks(*blocks)), blocks):
                assert all(np.array_equal(x, y) for x, y in zip(got, want))
        # floats broadcast with arrays; one matrix for floats alone
        block = (1.0, 2.0, 3.0, 4.0)
        assert stack_blocks(block, block, (np.arange(3.0), 0.0, 0.0, 0.0)).shape == (3, 4, 4)
        np.testing.assert_array_equal(stack_blocks(block, block, (0.0,) * 4),
                                      np.kron(np.eye(2), [[1.0, 2.0], [3.0, 4.0]]))

    def test_stack_wrappers_equal_the_entries_kernel(self):
        rng = np.random.default_rng(16)
        for sigma in _kernel_stacks(rng):
            C = sigma[:, :2, 2:]
            assert (C != np.swapaxes(C, -1, -2)).any(axis=(1, 2)).sum() > 0.9 * len(sigma)
            for sign, stack in ((-1.0, sigma), (1.0, np.abs(sigma))):
                blocks = _block_entries(stack)
                want = np.stack(entry_invariants(*blocks, sign), axis=-1)
                assert np.array_equal(invariants(stack, sign), want, equal_nan=True)
                # asking for S alone or for the five checks alone gives the same bits
                assert np.array_equal(entry_invariants(*blocks, sign, "score"), want[:, 5],
                                      equal_nan=True)
                assert np.array_equal(np.stack(entry_invariants(*blocks, sign, "checks"), -1),
                                      want[:, :5], equal_nan=True)
            entries = _block_entries(sigma)
            values, sums = entry_invariants_and_sums(*entries, "checks")
            slack, passed = bona_fide_checks(sigma)
            assert np.array_equal(slack, np.stack(values, -1), equal_nan=True)
            assert np.array_equal(passed, not_negative(np.stack(values, -1), np.stack(sums, -1)))
            score, size = entry_invariants_and_sums(*entries, "score")
            result = simon_verdicts(sigma)
            assert np.array_equal(result.score, score, equal_nan=True)
            assert np.array_equal(result.bound, SCORE_RTOL * size, equal_nan=True)
            assert np.array_equal(result.separable, score >= 0.0)
            assert np.array_equal(result.boundary, ~(np.abs(score) > SCORE_RTOL * size))
            # one matrix at a time, the entries are numpy scalars: same bits
            one_by_one = np.stack([invariants(matrix) for matrix in sigma])
            assert np.array_equal(one_by_one, invariants(sigma), equal_nan=True)
            finite = np.isfinite(invariants(sigma)).all()
        assert not finite  # the last stack, with its 1e100 entries, overflows

    def test_invariants_read_every_block_entry(self):
        # covariance_blocks takes a stack that is not symmetric as it is: each
        # of the twelve entries it reads lands where the kernel expects it
        rng = np.random.default_rng(17)
        sigma = rng.standard_normal((200, 4, 4))
        blocks = _block_entries(sigma)
        assert np.array_equal(invariants(sigma), np.stack(entry_invariants(*blocks), axis=-1))
        assert np.array_equal(bona_fide_checks(sigma)[0],
                              np.stack(entry_invariants(*blocks, which="checks"), axis=-1))


def _mirror_entries(rng):
    """Seeded entries of covariances with B = A: A's (a00, a01, a11) and C's
    four, over physical covariances and random entries of both signs across
    six and twelve decades, C not C^T."""
    physical = np.stack([oracles.random_physical_covariance(rng) for _ in range(60)])
    stacks = [physical]
    for decades in (3.0, 6.0):
        shape = (150, 4, 4)
        raw = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-decades, decades, shape)
        stacks.append(raw + np.swapaxes(raw, -1, -2))
    for sigma in stacks:
        (a00, a01, _, a11), _, c = _block_entries(sigma)
        yield (a00, a01, a11), c


class TestAxisFactors:
    """core.axis_factors with core.sum_products: the invariants of a
    covariance with B = A as sums of products of A's and C's factors."""

    @staticmethod
    def _invariants(a, c, sign=-1.0):
        """The six invariants in INVARIANTS order, by the axis route."""
        pairs = axis_factors(a, c, sign, "checks") + axis_factors(a, c, sign, "score")
        return [sum_products(*pair) for pair in pairs]

    def test_values_within_their_rounding_counts(self):
        # the axis route's rounding counts in core's tolerance block: 3 in
        # det A - 1/4, 5 in the 3x3 minor, 4 in Delta - 1/2 and 10 in U and S,
        # each (eps/2) times the magnitude sum, against the exact invariants
        # of the float entries
        counts = (0, 3, 5, 4, 10, 10)
        rng = np.random.default_rng(26)
        for a, c in _mirror_entries(rng):
            values = self._invariants(a, c)
            sums = self._invariants([np.abs(x) for x in a], [np.abs(x) for x in c], 1.0)
            sigma = stack_blocks((a[0], a[1], a[1], a[2]), (a[0], a[1], a[1], a[2]), c)
            for k in range(0, len(sigma), 3):
                exact = oracles.exact_invariants(sigma[k])
                for count, value, size, want in zip(counts, values, sums, exact, strict=True):
                    error = abs(Fraction(float(value[k])) - want)
                    assert error <= Fraction(count, 2) * Fraction(EPS) * Fraction(float(size[k]))

    def test_magnitude_sums_are_the_entry_sums(self):
        # sums of positive terms, rounded at most 10 times on either route
        rng = np.random.default_rng(27)
        for a, c in _mirror_entries(rng):
            blocks = ((a[0], a[1], a[1], a[2]),) * 2 + (c,)
            _, sums = entry_invariants_and_sums(*blocks, "all")
            got = self._invariants([np.abs(x) for x in a], [np.abs(x) for x in c], 1.0)
            for x, y in zip(got, sums, strict=True):
                assert (np.abs(x - y) <= 10.0 * EPS * y).all()
            # the first two checks are A's alone: entry_invariants' bits
            assert np.array_equal(got[0], sums[0]) and np.array_equal(got[1], sums[1])

    def test_a_grid_is_its_nodes(self):
        # factors on a column of A and a row of C, summed over the grid, give
        # each node's bits: the per-node work is elementwise, whatever the
        # block; the first two checks stay on the column
        rng = np.random.default_rng(28)
        (a00, a01, a11), c = next(_mirror_entries(rng))
        a, c = (a00[:12], a01[:12], a11[:12]), tuple(x[:20] for x in c)
        for sign, entries in ((-1.0, (a, c)), (1.0, ([np.abs(x) for x in a],
                                                       [np.abs(x) for x in c]))):
            a_col = [x[:, None] for x in entries[0]]
            c_row = [x[None, :] for x in entries[1]]
            a_node = [np.repeat(x, 20) for x in entries[0]]
            c_node = [np.tile(x, 12) for x in entries[1]]
            grid = self._invariants(a_col, c_row, sign)
            nodes = self._invariants(a_node, c_node, sign)
            assert grid[0].shape == grid[1].shape == (12, 1)
            for x, y in zip(grid, nodes, strict=True):
                assert np.broadcast_to(x, (12, 20)).ravel().tobytes() == y.tobytes()
