"""Covariance dynamics of two independent oscillators in a common bath.

The two oscillators are identical, uncoupled, and share one environment;
the cross-diffusion coefficients are the only channel correlating them.
All second moments are collected in a 4x4 covariance matrix in the
canonical ordering (x, p_x, y, p_y), which evolves as

    dS/dt = Y S + S Y^T + 2 D,

with a block-diagonal drift Y (two copies of the drift of
:mod:`lindosc.single_mode` at mu = 0; the single-mode friction asymmetry
mu has no place in this model) and the symmetric diffusion matrix D of
the environment coefficients.  The exact solution is

    S(t) = M(t) (S(0) - S_inf) M(t)^T + S_inf,   M(t) = exp(t*Y),

where S_inf solves the Lyapunov equation Y S + S Y^T = -2 D.  M(t) and
the relaxation step are single_mode's.  For mirror-symmetric environments
every entry of S_inf also has a closed form, which doubles as an
independent cross-check of the Lyapunov route.

The kernels take arrays first: :func:`propagator` and
:func:`propagate_covariance` accept an array of times and return one 4x4
matrix per time, stacked as (..., 4, 4), and
:func:`steady_covariance_symmetric` broadcasts over arrays of diffusion
coefficients.  A scalar argument is a batch of one and gives a plain 4x4
matrix.  Nothing is cached: each call solves for S_inf once, whatever the
number of times it covers.

This module requires hbar = 1 (the separability analysis built on top of
it is normalized that way).
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from . import lyapunov, single_mode
from .core import NODE_BLOCK, SCALE_RTOL, OscillatorParams, TwoModeEnvironment, stack_matrices
from .errors import InvalidEnvironmentError, ParameterError, ShapeError

__all__ = [
    "drift_matrix",
    "diffusion_matrix",
    "propagator",
    "steady_covariance_closed_form",
    "steady_covariance_symmetric",
    "propagate_covariance",
    "det_cross_block",
    "physicality_min_eigenvalue",
    "require_covariance4",
    "require_hbar_one",
    "require_matching_lam",
]

#: The 2x2 symplectic form; its block diagonal is the two-mode form Omega.
J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def require_hbar_one(params: OscillatorParams):
    if params.hbar != 1.0:
        raise ParameterError(
            f"two-mode operations are normalized to hbar = 1, got hbar={params.hbar!r}"
        )


def require_covariance4(sigma: np.ndarray) -> np.ndarray:
    """Check shape and symmetry of a 4x4 covariance matrix or an (N, 4, 4)
    stack of them, return as float array.  Each matrix is checked against
    its own scale (``core.SCALE_RTOL``)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim not in (2, 3) or sigma.shape[-2:] != (4, 4):
        raise ShapeError(f"expected a 4x4 matrix or an (N, 4, 4) stack, got shape {sigma.shape}")
    scale = np.maximum(1.0, np.abs(sigma).max(axis=(-2, -1)))
    asym = np.abs(sigma - np.swapaxes(sigma, -1, -2)).max(axis=(-2, -1))
    bad = asym > SCALE_RTOL * scale
    if bad.any():
        raise ShapeError("covariance matrix is not symmetric "
                         f"(max asymmetry {float(asym[bad].flat[0]):.3e})")
    return sigma


def _warn_mu_ignored(params: OscillatorParams):
    if params.mu != 0.0:
        warnings.warn(
            "the two-mode model has no friction asymmetry; params.mu is ignored",
            stacklevel=3,
        )


def _block_diagonal(block: np.ndarray) -> np.ndarray:
    """(..., 4, 4) matrices with the (..., 2, 2) ``block`` twice on the diagonal."""
    out = np.zeros(block.shape[:-2] + (4, 4))
    out[..., :2, :2] = block
    out[..., 2:, 2:] = block
    return out


def _drift(params: OscillatorParams) -> np.ndarray:
    return _block_diagonal(single_mode.drift_matrix(replace(params, mu=0.0)))


def drift_matrix(params: OscillatorParams) -> np.ndarray:
    """Block-diagonal 4x4 drift; eigenvalues -lam +/- i*omega, twice."""
    _warn_mu_ignored(params)
    require_hbar_one(params)
    return _drift(params)


def diffusion_matrix(env: TwoModeEnvironment) -> np.ndarray:
    """Symmetric 4x4 diffusion matrix in (x, p_x, y, p_y) ordering.

    Gram-positivity of the environment is reported by
    ``core.validate_two_mode`` and deliberately not enforced here: the
    cross-diffusion regimes that entangle the asymptotic state generally
    violate it, and evaluating them is the point of the analysis.
    """
    return np.array([
        [env.Dxx, env.Dxpx, env.Dxy, env.Dxpy],
        [env.Dxpx, env.Dpxpx, env.Dypx, env.Dpxpy],
        [env.Dxy, env.Dypx, env.Dyy, env.Dypy],
        [env.Dxpy, env.Dpxpy, env.Dypy, env.Dpypy],
    ])


def propagator(params: OscillatorParams, t) -> np.ndarray:
    """Closed-form M(t) = exp(t*Y): :func:`single_mode.moment_propagator` at
    mu = 0 on both diagonal blocks, each
    exp(-lam*t) * (cos(omega*t)*I + sin(omega*t)/omega * [[0, 1/m], [-m*omega**2, 0]]).

    ``t`` may be an array of times; the result then has shape t.shape + (4, 4).
    """
    require_hbar_one(params)
    _warn_mu_ignored(params)
    return _block_diagonal(single_mode.moment_propagator(replace(params, mu=0.0), t))


def _require_symmetric_env(env: TwoModeEnvironment):
    if not env.symmetric:
        raise InvalidEnvironmentError(
            "closed-form asymptotics need a mirror-symmetric environment "
            "(build one with TwoModeEnvironment.symmetric_env)"
        )


def require_matching_lam(env: TwoModeEnvironment, params: OscillatorParams):
    if env.lam != params.lam:
        raise ParameterError(
            f"environment and oscillator disagree on lam: {env.lam!r} vs {params.lam!r}"
        )


def steady_covariance_closed_form(env: TwoModeEnvironment,
                                  params: OscillatorParams) -> np.ndarray:
    """Asymptotic covariance of a mirror-symmetric environment, entry by entry.

    Checks the environment and evaluates :func:`steady_covariance_symmetric`
    on its coefficients.
    """
    require_hbar_one(params)
    _require_symmetric_env(env)
    require_matching_lam(env, params)
    return steady_covariance_symmetric(env.Dxx, env.Dxpx, env.Dpxpx,
                                       env.Dxy, env.Dxpy, env.Dpxpy, params)


def steady_covariance_symmetric(Dxx, Dxpx, Dpxpx, Dxy, Dxpy, Dpxpy,
                                params: OscillatorParams) -> np.ndarray:
    """Closed-form asymptotic covariances of mirror-symmetric environments.

    The six free coefficients may be arrays that broadcast together; the
    result has their shape + (4, 4).  The caller vouches for hbar = 1 and
    for the environments' lam being ``params.lam``.

    Both one-mode blocks are equal and the cross block is symmetric; the
    six independent entries are rational in the diffusion coefficients:

        s_xy   = (m^2 (2 lam^2 + w^2) Dxy + 2 m lam Dxpy + Dpxpy) / (2 m^2 lam q)
        s_xpy  = (-m^2 w^2 Dxy + 2 m lam Dxpy + Dpxpy) / (2 m q)
        s_pxpy = (m^2 w^4 Dxy - 2 m w^2 lam Dxpy + (2 lam^2 + w^2) Dpxpy) / (2 lam q)

    with q = lam^2 + w^2, and the same three forms with (Dxx, Dxpx, Dpxpx)
    for the one-mode entries.
    """
    m, w, lam = params.m, params.omega, params.lam
    q = lam * lam + w * w

    def triple(d_qq, d_qp, d_pp):
        s_qq = (m * m * (2.0 * lam * lam + w * w) * d_qq + 2.0 * m * lam * d_qp + d_pp) \
            / (2.0 * m * m * lam * q)
        s_qp = (-m * m * w * w * d_qq + 2.0 * m * lam * d_qp + d_pp) / (2.0 * m * q)
        s_pp = (m * m * w**4 * d_qq - 2.0 * m * w * w * lam * d_qp
                + (2.0 * lam * lam + w * w) * d_pp) / (2.0 * lam * q)
        return s_qq, s_qp, s_pp

    sxx, sxpx, spxpx = triple(Dxx, Dxpx, Dpxpx)
    sxy, sxpy, spxpy = triple(Dxy, Dxpy, Dpxpy)
    return stack_matrices([
        [sxx, sxpx, sxy, sxpy],
        [sxpx, spxpx, sxpy, spxpy],
        [sxy, sxpy, sxx, sxpx],
        [sxpy, spxpy, sxpx, spxpx],
    ])


def propagate_covariance(sigma0: np.ndarray, env: TwoModeEnvironment,
                         params: OscillatorParams, t) -> np.ndarray:
    """Exact covariance at time t >= 0 from the initial covariance sigma0.

    ``t`` may be an array of times; the result has shape t.shape + (4, 4).
    The stationary covariance is solved once per call, and the propagators
    are built in one broadcast per NODE_BLOCK times, so the temporaries stay
    small however many times the call covers.
    """
    sigma0 = require_covariance4(sigma0)
    require_matching_lam(env, params)
    require_hbar_one(params)
    s_inf = lyapunov.steady_covariance(_drift(params), diffusion_matrix(env))
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (4, 4))
    times, stack = t.reshape(-1), out.reshape(-1, 4, 4)
    for start in range(0, times.size, NODE_BLOCK):
        block = slice(start, start + NODE_BLOCK)
        stack[block] = single_mode.relaxed_covariance(propagator(params, times[block]),
                                                      sigma0, s_inf)
    return out


def det_cross_block(env: TwoModeEnvironment, params: OscillatorParams) -> float:
    """Determinant of the asymptotic cross-covariance block.

    det C = ((m w^2 Dxy + Dpxpy/m)^2 + 4 lam^2 (Dxy Dpxpy - Dxpy^2))
            / (4 lam^2 (lam^2 + w^2)).

    Negative values are the precondition for asymptotic entanglement.
    """
    require_hbar_one(params)
    _require_symmetric_env(env)
    require_matching_lam(env, params)
    m, w, lam = params.m, params.omega, params.lam
    q = lam * lam + w * w
    lead = m * w * w * env.Dxy + env.Dpxpy / m
    return (lead * lead + 4.0 * lam * lam * (env.Dxy * env.Dpxpy - env.Dxpy**2)) \
        / (4.0 * lam * lam * q)


def physicality_min_eigenvalue(sigma: np.ndarray):
    """Optional diagnostic: minimum eigenvalue of sigma + (i/2) Omega.

    Omega is the symplectic form of the (x, p_x, y, p_y) ordering; a
    nonnegative result (up to rounding) means sigma is a bona fide
    two-mode quantum covariance matrix.  Nothing in this package enforces
    it; callers concerned about complete positivity of their inputs can.
    A float for one 4x4 matrix, an (N,) array for an (N, 4, 4) stack.
    """
    sigma = require_covariance4(sigma)
    return scalar_or_array(np.linalg.eigvalsh(sigma + 0.5j * _block_diagonal(J))[..., 0])


def scalar_or_array(values: np.ndarray):
    """A float for a 0-d result (one matrix in), else the array (a stack in)."""
    return float(values) if values.ndim == 0 else values
