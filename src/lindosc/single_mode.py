"""Dynamics of one damped oscillator coupled to a thermal environment.

Covers the full time evolution of the Gaussian moments, the generalized
uncertainty function (covariance determinant), the degree of decoherence,
coordinate-representation density matrices, and the characteristic time
scales of the decoherence process.

The first and second moments obey linear equations with the drift

    Y = [[-(lam - mu), 1/m], [-m*omega**2, -(lam + mu)]],

so the propagator exp(t*Y) has the closed form
exp(-lam*t) * (cos(W*t)*I + sin(W*t)/W * B) with B = Y + lam*I and
W = sqrt(omega**2 - mu**2).  The infinite-time state is the solution of
the Lyapunov equation Y S + S Y^T = -2 D, :func:`stationary_covariance`;
:func:`relaxed_entries` relaxes any 2x2 block towards it, in both modes.

The closed forms take arrays first: :func:`moment_propagator` takes an
array of t, :func:`uncertainty_determinants` and
:func:`degrees_from_uncertainty` broadcast over arrays of C and t, and
:func:`density_matrix_element` and :func:`stationary_density_matrix_element`
over arrays of (x, x').  The scalar calls are batches of one.

``t = math.inf`` is accepted by the uncertainty and decoherence evaluators
and selects the exact asymptotic branch; it is not a large-float
approximation.  Only ``+inf`` does: ``-inf`` and ``nan`` are rejected like
any other negative time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import (
    GaussianState1D,
    OscillatorParams,
    SingleModeEnv,
    ThermalParams,
    block_entries,
    require_coherent_state_params,
    validate_single_mode,
)
from .errors import ParameterError, StateError

__all__ = [
    "DecoherenceCoefficients",
    "drift_matrix",
    "moment_propagator",
    "relaxed_entries",
    "stationary_covariance",
    "propagate_moments",
    "asymptotic_state",
    "uncertainty_determinant",
    "uncertainty_determinants",
    "short_time_uncertainty_determinant",
    "decoherence_degree",
    "degree_from_uncertainty",
    "degrees_from_uncertainty",
    "decoherence_coefficients",
    "density_matrix_element",
    "stationary_density_matrix_element",
    "short_time_coherence_coefficient",
    "decoherence_time",
    "thermal_fluctuation_time",
    "relaxation_time",
]

Regime = Literal["general", "r0", "zero_temperature", "high_temperature"]


@dataclass(frozen=True)
class DecoherenceCoefficients:
    """Exponent coefficients of the Gaussian density matrix in the
    half-sum / difference variables S = (x + x')/2, d = x - x':

        rho ~ exp(-alpha*S**2 - gamma*d**2 + i*beta*S*d + ...)

    alpha sets the diagonal width, gamma the off-diagonal (coherence)
    width, beta the coordinate-momentum correlation.
    """

    alpha: float
    beta: float
    gamma: float


def drift_matrix(params: OscillatorParams) -> np.ndarray:
    """2x2 drift of the first/second-moment equations.

    Means evolve as d<x,p>/dt = Y <x,p> and the covariance as
    dS/dt = Y S + S Y^T + 2 D.
    """
    return np.array([
        [-(params.lam - params.mu), 1.0 / params.m],
        [-params.m * params.omega**2, -(params.lam + params.mu)],
    ])


def moment_propagator(params: OscillatorParams, t) -> np.ndarray:
    """Closed-form propagator exp(t*Y) of the moment equations; an array
    ``t`` of finite times >= 0 gives shape t.shape + (2, 2)."""
    t = np.asarray(t, dtype=float)
    ok = np.isfinite(t) & (t >= 0.0)
    if not ok.all():
        raise ParameterError(f"t must be finite and >= 0, got {t[~ok][0].item()!r}")
    W = params.effective_frequency
    # B = Y + lam*I written out: adding lam back to the drift's diagonal rounds mu.
    B = np.array([
        [params.mu, 1.0 / params.m],
        [-params.m * params.omega**2, -params.mu],
    ])
    decay = _exp(-params.lam * t)[..., None, None]
    cos = np.cos(W * t)[..., None, None]
    sin = (np.sin(W * t) / W)[..., None, None]
    return decay * (cos * np.eye(2) + sin * B)


def relaxed_entries(M, s0, s_inf):
    """M (s0 - s_inf) M^T + s_inf at the propagator M = exp(t*Y), each 2x2
    matrix a tuple (x00, x01, x10, x11) of floats or arrays that broadcast."""
    m00, m01, m10, m11 = M
    d00, d01, d10, d11 = (x - y for x, y in zip(s0, s_inf))
    # U = M (s0 - s_inf), then U M^T; x10 is x01 of M (s0 - s_inf)^T M^T, in
    # x01's order of operations, so a symmetric s0 - s_inf relaxes to an
    # exactly symmetric matrix
    u00, u01 = m00 * d00 + m01 * d10, m00 * d01 + m01 * d11
    w00, w01 = m00 * d00 + m01 * d01, m00 * d10 + m01 * d11
    u10, u11 = m10 * d00 + m11 * d10, m10 * d01 + m11 * d11
    return (u00 * m00 + u01 * m01 + s_inf[0], u00 * m10 + u01 * m11 + s_inf[1],
            w00 * m10 + w01 * m11 + s_inf[2], u10 * m10 + u11 * m11 + s_inf[3])


@np.errstate(over="ignore")  # beyond float64 an entry is inf
def stationary_covariance(params: OscillatorParams, Dxx, Dxp, Dpp):
    """Stationary covariance (s_xx, s_xp, s_pp) of dS/dt = Y S + S Y^T + 2 D,
    D = [[Dxx, Dxp], [Dxp, Dpp]]: the 3x3 Cramer solution for its entries,

        s_xx = (m^2 (2 lam k+ + w^2) Dxx + 2 m k+ Dxp + Dpp) / (2 m^2 lam q)
        s_xp = (-m^2 w^2 (k+/lam) Dxx + 2 m k+ (k-/lam) Dxp + (k-/lam) Dpp) / (2 m q)
        s_pp = (m^2 w^4 Dxx - 2 m w^2 k- Dxp + (2 lam k- + w^2) Dpp) / (2 lam q)

    with k+/- = lam +/- mu and q = lam^2 - mu^2 + w^2 = det Y.  The diffusion
    coefficients may be floats or arrays that broadcast together.  Raises
    :class:`ParameterError` where q <= 0: Y is not Hurwitz, and no state is.
    """
    m, w, lam, mu = params.m, params.omega, params.lam, params.mu
    kp, km = lam + mu, lam - mu
    q = lam * lam - mu * mu + w * w
    if not q > 0.0:
        raise ParameterError(f"the drift is not Hurwitz: lam^2 - mu^2 + omega^2 = {q!r} <= 0")
    s_xx = (m * m * (2.0 * lam * kp + w * w) * Dxx + 2.0 * m * kp * Dxp + Dpp) \
        / (2.0 * m * m * lam * q)
    s_xp = (-m * m * w * w * (kp / lam) * Dxx + 2.0 * m * kp * (km / lam) * Dxp
            + (km / lam) * Dpp) / (2.0 * m * q)
    s_pp = (m * m * w**4 * Dxx - 2.0 * m * w * w * km * Dxp + (2.0 * lam * km + w * w) * Dpp) \
        / (2.0 * lam * q)
    return s_xx, s_xp, s_pp


def _require_env_matches(env: SingleModeEnv, params: OscillatorParams):
    for name in ("lam", "mu", "hbar"):
        if getattr(env, name) != getattr(params, name):
            raise ParameterError(
                f"environment and oscillator disagree on {name}: "
                f"{getattr(env, name)!r} vs {getattr(params, name)!r}"
            )


def asymptotic_state(params: OscillatorParams, thermal: ThermalParams) -> GaussianState1D:
    """Infinite-time thermal moments: sxx = hbar*C/(2*m*omega),
    spp = hbar*m*omega*C/2, sxp = 0, zero means."""
    return GaussianState1D(
        sxx=0.5 * params.hbar * thermal.C / (params.m * params.omega),
        sxp=0.0,
        spp=0.5 * params.hbar * params.m * params.omega * thermal.C,
        hbar=params.hbar,
    )


def propagate_moments(state0: GaussianState1D, env: SingleModeEnv,
                      params: OscillatorParams, t: float) -> GaussianState1D:
    """Exact moments at time t >= 0.

    Means follow M(t) = exp(t*Y); the covariance is
    M (S0 - S_inf) M^T + S_inf with S_inf the :func:`stationary_covariance`
    of the given diffusion coefficients.

    Raises
    ------
    ParameterError
        If the environment fails its validity checks, the environment or
        the state disagrees with the oscillator parameters, or t is negative.
    """
    _require_env_matches(env, params)
    if state0.hbar != params.hbar:
        raise ParameterError(f"state and oscillator disagree on hbar: "
                             f"{state0.hbar!r} vs {params.hbar!r}")
    report = validate_single_mode(env)
    if not report.passed:
        names = ", ".join(c.name for c in report.failures())
        raise ParameterError(f"invalid single-mode environment: {names} failed")
    if t == 0.0:
        return state0  # M(0) is exactly the identity
    M = moment_propagator(params, t)
    s_xx, s_xp, s_pp = stationary_covariance(params, env.Dxx, env.Dxp, env.Dpp)
    s0 = (state0.sxx, state0.sxp, state0.sxp, state0.spp)
    sxx, sxp, _, spp = relaxed_entries(block_entries(M), s0, (s_xx, s_xp, s_xp, s_pp))
    mean = M @ np.array([state0.mean_x, state0.mean_p])
    return GaussianState1D(sxx=float(sxx), sxp=float(sxp), spp=float(spp),
                           mean_x=float(mean[0]), mean_p=float(mean[1]),
                           hbar=state0.hbar)


def _require_closed_form_domain(delta: float, r: float, params: OscillatorParams):
    if params.lam <= params.mu:
        raise ParameterError(f"need lam > mu, got lam={params.lam}, mu={params.mu}")
    require_coherent_state_params(delta, r)
    params.effective_frequency  # rejects omega <= |mu|


def _exp(x: np.ndarray) -> np.ndarray:
    """Elementwise exp rounded as the C library's ``exp`` (``math.exp``).

    numpy's real exp is its own vectorized kernel, which differs from libm
    in the last bit on about 5% of inputs, and by CPU.  Its complex exp is
    libm's ``cexp``, whose real part at zero phase is exactly ``exp(x)``, so
    the batched closed forms print the digits of the scalar ones.
    """
    return np.exp(x + 0j).real


def _require_times(t: np.ndarray):
    """Reject negative and nan times (``+inf`` passes), naming the first."""
    bad = ~(t >= 0.0)  # True for nan
    if bad.any():
        raise ParameterError(f"t must be >= 0, got {t[bad][0].item()!r}")


def uncertainty_determinant(delta: float, r: float, params: OscillatorParams,
                            thermal: ThermalParams, t: float) -> float:
    """Generalized uncertainty function sigma(t) = sxx*spp - sxp**2.

    Closed form for the evolution that starts from the minimum-uncertainty
    correlated coherent state (sigma(0) = hbar**2/4 identically) and
    relaxes to sigma(inf) = (hbar**2/4) * C**2.  Pass ``t = math.inf``
    for the exact asymptotic value.  A batch of one of
    :func:`uncertainty_determinants`.
    """
    return float(uncertainty_determinants(delta, r, params, thermal.C, t))


def uncertainty_determinants(delta: float, r: float, params: OscillatorParams,
                             C, t) -> np.ndarray:
    """:func:`uncertainty_determinant` broadcast over arrays of C and t.

    ``C`` holds bath coefficients as in :class:`ThermalParams` (finite,
    >= 1); this function does not check them.  Nodes with ``t = +inf``
    take the exact asymptotic value; a negative t, ``-inf`` or ``nan``
    raises :class:`ParameterError`.
    """
    _require_closed_form_domain(delta, r, params)
    C, t = np.asarray(C, dtype=float), np.asarray(t, dtype=float)
    _require_times(t)
    asymptotic = t == math.inf
    t = np.where(asymptotic, 0.0, t)  # a finite stand-in; replaced below
    hbar, lam, mu, omega = params.hbar, params.lam, params.mu, params.omega
    W = params.effective_frequency
    W2 = W * W
    a = delta + 1.0 / (delta * (1.0 - r * r))
    b = delta - 1.0 / (delta * (1.0 - r * r))
    with np.errstate(over="ignore"):  # -lam*t below -1.8e308 is -inf; exp gives 0
        e2, e4 = _exp(-2.0 * lam * t), _exp(-4.0 * lam * t)
    # where e2 is 0 the oscillating terms vanish; a zero phase keeps 2*W*t from overflowing
    t = np.where(e2 == 0.0, 0.0, t)
    c2, s2 = np.cos(2.0 * W * t), np.sin(2.0 * W * t)
    inner = ((a - 2.0 * C) * (omega * omega - mu * mu * c2) / W2
             + b * mu * s2 / W
             + 2.0 * r * mu * omega * (1.0 - c2) / (W2 * math.sqrt(1.0 - r * r)))
    sigma = 0.25 * hbar**2 * (e4 * (1.0 - a * C + C * C) + e2 * C * inner + C * C)
    return np.where(asymptotic, 0.25 * hbar**2 * C * C, sigma)


def short_time_uncertainty_determinant(delta: float, r: float, params: OscillatorParams,
                                       thermal: ThermalParams, t: float) -> float:
    """First-order small-t expansion of :func:`uncertainty_determinant`."""
    _require_closed_form_domain(delta, r, params)
    a = delta + 1.0 / (delta * (1.0 - r * r))
    b = delta - 1.0 / (delta * (1.0 - r * r))
    C = thermal.C
    slope = params.lam * a * C + params.mu * b * C - 2.0 * params.lam
    return 0.25 * params.hbar**2 * (1.0 + 2.0 * slope * t)


def decoherence_degree(delta: float, r: float, params: OscillatorParams,
                       thermal: ThermalParams, t: float) -> float:
    """Degree of quantum decoherence hbar / (2*sqrt(sigma(t))).

    Equals 1 for the initial minimum-uncertainty state, decreases as the
    off-diagonal density-matrix elements decay, and tends to 1/C at
    infinite time (``t = math.inf`` returns that limit exactly).
    """
    sigma = uncertainty_determinant(delta, r, params, thermal, t)
    return degree_from_uncertainty(sigma, params, thermal, t)


def degree_from_uncertainty(sigma: float, params: OscillatorParams,
                            thermal: ThermalParams, t: float) -> float:
    """Degree of decoherence from the value ``sigma`` of the uncertainty
    function at time t: hbar / (2*sqrt(sigma)), and exactly 1/C at
    ``t = math.inf``.  A batch of one of :func:`degrees_from_uncertainty`."""
    return float(degrees_from_uncertainty(sigma, params, thermal.C, t))


def degrees_from_uncertainty(sigma, params: OscillatorParams, C, t) -> np.ndarray:
    """:func:`degree_from_uncertainty` broadcast over arrays of sigma, C and t.

    Nodes with ``t = +inf`` take 1/C and ignore sigma; every other node
    needs sigma > 0.
    """
    sigma, C, t = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (sigma, C, t)))
    _require_times(t)
    asymptotic = t == math.inf
    bad = ~(asymptotic | (sigma > 0.0))
    if bad.any():
        raise ParameterError(f"sigma must be > 0, got {sigma[bad][0].item()!r}")
    return np.where(asymptotic, 1.0 / C, params.hbar / (2.0 * np.sqrt(sigma)))


def decoherence_coefficients(state: GaussianState1D) -> DecoherenceCoefficients:
    """Exponent coefficients (alpha, beta, gamma) of the state's density matrix."""
    det = state.det
    if det <= 0.0:
        raise StateError(f"covariance determinant must be > 0, got {det!r}")
    alpha = 1.0 / (2.0 * state.sxx)
    gamma = det / (2.0 * state.hbar**2 * state.sxx)
    beta = state.sxp / (state.hbar * state.sxx)
    return DecoherenceCoefficients(alpha=alpha, beta=beta, gamma=gamma)


@np.errstate(over="ignore", invalid="ignore")  # far out, the element is 0 or nan
def density_matrix_element(state: GaussianState1D, x, xp):
    """Coordinate-representation matrix element <x| rho |x'>.

    Gaussian in the half-sum and difference of (x, x'), with diagonal
    width set by sxx, off-diagonal width by the covariance determinant,
    and phases carried by sxp and the first moments.  Broadcasts over
    arrays of x and x' (returning a complex array); scalar arguments
    return a complex.
    """
    det = state.det
    if det <= 0.0:
        raise StateError(f"covariance determinant must be > 0, got {det!r}")
    hbar, sxx = state.hbar, state.sxx
    x, xp = np.asarray(x, dtype=float), np.asarray(xp, dtype=float)
    half_sum = 0.5 * x + 0.5 * xp - state.mean_x  # x + xp may overflow
    diff = x - xp
    prefactor = math.sqrt(1.0 / (2.0 * math.pi * sxx))
    exponent = (
        -half_sum * half_sum / (2.0 * sxx)
        - det * diff * diff / (2.0 * hbar**2 * sxx)
        + 1j * (state.sxp / (hbar * sxx)) * half_sum * diff
        + 1j * state.mean_p * diff / hbar
    )
    value = prefactor * np.exp(exponent)
    return complex(value) if value.ndim == 0 else value


@np.errstate(over="ignore", invalid="ignore")  # far out, the element is 0 or nan
def stationary_density_matrix_element(params: OscillatorParams, thermal: ThermalParams,
                                      x, xp):
    """Infinite-time thermal matrix element <x| rho(inf) |x'> (real).

    Broadcasts over arrays of x and x' (returning a float array); scalar
    arguments return a float.
    """
    mw = params.m * params.omega
    C, hbar = thermal.C, params.hbar
    x, xp = np.asarray(x, dtype=float), np.asarray(xp, dtype=float)
    pref = math.sqrt(mw / (math.pi * hbar * C))
    expo = -(mw / (4.0 * hbar)) * ((x + xp) ** 2 / C + (x - xp) ** 2 * C)
    value = pref * _exp(expo)
    return float(value) if value.ndim == 0 else value


def short_time_coherence_coefficient(delta: float, r: float, params: OscillatorParams,
                                     thermal: ThermalParams, t: float) -> float:
    """Magnitude of the off-diagonal exponent coefficient gamma for small t.

    gamma(t) = gamma(0) * (1 + 2*g*t) with gamma(0) = m*omega/(4*hbar*delta)
    and growth rate g; the decoherence time is 1/(2*g).  Warns when the
    small-t assumptions lam*t << 1 and W*t << 1 are stretched.
    """
    _require_closed_form_domain(delta, r, params)
    W = params.effective_frequency
    if params.lam * t > 0.1 or W * t > 0.1:
        warnings.warn(
            f"short-time form used outside its domain (lam*t={params.lam * t:.3g}, "
            f"W*t={W * t:.3g})",
            stacklevel=2,
        )
    g = _coherence_growth_rate(delta, r, params, thermal.C)
    gamma0 = params.m * params.omega / (4.0 * params.hbar * delta)
    return gamma0 * (1.0 + 2.0 * g * t)


def _coherence_growth_rate(delta: float, r: float, params: OscillatorParams, C: float) -> float:
    u = r * r / (delta * (1.0 - r * r))
    return (params.lam * (delta + u) * C + params.mu * (delta - u) * C
            - params.lam - params.mu
            - params.omega * r / (delta * math.sqrt(1.0 - r * r)))


def decoherence_time(delta: float, r: float, params: OscillatorParams,
                     thermal: ThermalParams, regime: Regime = "general") -> float:
    """Decoherence time scale of the off-diagonal density-matrix decay.

    Regimes
    -------
    "general":
        1 / (2*g) with the full growth rate g of the short-time
        off-diagonal coefficient.
    "r0":
        uncorrelated initial state, 1 / (2*(lam + mu)*(delta*C - 1));
        requires r = 0.
    "zero_temperature":
        1 / (2*lam*(delta - 1)); requires r = 0, mu = 0 and C = 1, and
        returns inf for the plain coherent state delta = 1.
    "high_temperature":
        the C >> 1 limit, with C standing in for 2*k*T/(hbar*omega).

    Returns ``math.inf`` whenever the growth rate is not positive (no
    exponential decay of the coherences).
    """
    _require_closed_form_domain(delta, r, params)
    lam, mu, C = params.lam, params.mu, thermal.C
    if regime == "general":
        g = _coherence_growth_rate(delta, r, params, C)
    elif regime == "r0":
        if r != 0.0:
            raise ParameterError(f"regime 'r0' requires r = 0, got r={r!r}")
        g = (lam + mu) * (delta * C - 1.0)
    elif regime == "zero_temperature":
        if r != 0.0:
            raise ParameterError(f"regime 'zero_temperature' requires r = 0, got r={r!r}")
        if mu != 0.0:
            raise ParameterError(f"regime 'zero_temperature' requires mu = 0, got mu={mu!r}")
        if C != 1.0:
            raise ParameterError(f"regime 'zero_temperature' requires C = 1, got C={C!r}")
        g = lam * (delta - 1.0)
    elif regime == "high_temperature":
        u = r * r / (delta * (1.0 - r * r))
        g = (lam * (delta + u) + mu * (delta - u)) * C
    else:
        raise ParameterError(f"unknown regime {regime!r}")
    if g <= 0.0:
        return math.inf
    return 1.0 / (2.0 * g)


def thermal_fluctuation_time(delta: float, r: float, params: OscillatorParams,
                             thermal: ThermalParams) -> float:
    """Time after which thermal fluctuations match quantum fluctuations.

    High-temperature expression; warns when C < 5 since the formula
    assumes C >> 1.
    """
    _require_closed_form_domain(delta, r, params)
    if thermal.C < 5.0:
        warnings.warn(
            f"thermal_fluctuation_time assumes the high-temperature regime; C={thermal.C}",
            stacklevel=2,
        )
    v = 1.0 / (delta * (1.0 - r * r))
    g = (params.lam * (delta + v) + params.mu * (delta - v)) * thermal.C
    if g <= 0.0:
        return math.inf
    return 1.0 / (2.0 * g)


def relaxation_time(params: OscillatorParams) -> float:
    """Energy-dissipation time scale 1/lam."""
    return 1.0 / params.lam
