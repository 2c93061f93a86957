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

:func:`is_physical` tests a covariance with core's invariants, not with
eigenvalues.

This module requires hbar = 1 (the separability analysis built on top of
it is normalized that way).
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from . import lyapunov, single_mode
from .core import (
    NODE_BLOCK,
    SCALE_RTOL,
    OscillatorParams,
    TwoModeEnvironment,
    bona_fide_checks,
    diffusion_matrix,
    stack_matrices,
)
from .errors import InvalidEnvironmentError, ParameterError, ShapeError

__all__ = [
    "drift_matrix",
    "diffusion_matrix",
    "propagator",
    "steady_covariance_closed_form",
    "steady_entries_symmetric",
    "steady_covariance_symmetric",
    "propagate_covariance",
    "det_cross_block",
    "cross_block_route",
    "is_physical",
    "require_covariance4",
    "require_hbar_one",
    "require_matching_lam",
]


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
            "(Dxx = Dyy, Dxpx = Dypy, Dpxpx = Dpypy, Dxpy = Dypx)"
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


def steady_entries_symmetric(Dxx, Dxpx, Dpxpx, Dxy, Dxpy, Dpxpy, params: OscillatorParams):
    """Closed-form asymptotic covariances of mirror-symmetric environments,
    as their six distinct entries (s_xx, s_xpx, s_pxpx, s_xy, s_xpy, s_pxpy).

    The six free coefficients may be floats or arrays that broadcast
    together.  The caller vouches for hbar = 1 and for the environments'
    lam being ``params.lam``.

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

    return triple(Dxx, Dxpx, Dpxpx) + triple(Dxy, Dxpy, Dpxpy)


def steady_covariance_symmetric(Dxx, Dxpx, Dpxpx, Dxy, Dxpy, Dpxpy,
                                params: OscillatorParams) -> np.ndarray:
    """:func:`steady_entries_symmetric` stacked into 4x4 matrices, of shape
    the coefficients' broadcast shape + (4, 4)."""
    sxx, sxpx, spxpx, sxy, sxpy, spxpy = steady_entries_symmetric(
        Dxx, Dxpx, Dpxpx, Dxy, Dxpy, Dpxpy, params)
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
    return cross_block_route(env, params)[0]


def cross_block_route(env: TwoModeEnvironment, params: OscillatorParams) -> tuple[float, float]:
    """:func:`det_cross_block` and its magnitude sum: the same products with
    every coefficient and sign taken by its magnitude."""
    require_hbar_one(params)
    _require_symmetric_env(env)
    require_matching_lam(env, params)
    m, w, lam = params.m, params.omega, params.lam
    q = lam * lam + w * w
    lead = m * w * w * env.Dxy + env.Dpxpy / m
    size = m * w * w * abs(env.Dxy) + abs(env.Dpxpy) / m
    cross = env.Dxy * env.Dpxpy
    return ((lead * lead + 4.0 * lam * lam * (cross - env.Dxpy**2)) / (4.0 * lam * lam * q),
            (size * size + 4.0 * lam * lam * (abs(cross) + env.Dxpy**2)) / (4.0 * lam * lam * q))


def is_physical(sigma: np.ndarray):
    """Whether sigma is a bona fide covariance, sigma + (i/2) Omega >= 0
    (:func:`lindosc.core.bona_fide_checks`, a non-finite invariant failing).
    Nothing in this package enforces it.  A bool for one 4x4 matrix, an
    (N,) array for a stack.
    """
    values, passed = bona_fide_checks(require_covariance4(sigma))
    passed = (passed & np.isfinite(values)).all(axis=-1)
    return bool(passed) if passed.ndim == 0 else passed


def scalar_or_array(values: np.ndarray):
    """A float for a 0-d result (one matrix in), else the array (a stack in)."""
    return float(values) if values.ndim == 0 else values
