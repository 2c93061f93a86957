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

where S_inf solves the Lyapunov equation Y S + S Y^T = -2 D.  M(t), the
relaxation step and the stationary solve are single_mode's: the two modes
share one 2x2 drift block, so S_inf is :func:`steady_entries`, three
one-mode closed forms and the antisymmetric part of the cross block, for
any environment.  :mod:`lindosc.lyapunov` solves the same equation by
Kronecker vectorization as an independent reference route.

The kernels take arrays first, and give the entries of the blocks A, B
and C: :func:`steady_entries` over arrays of diffusion coefficients and
:func:`propagate_entries` over an array of times, relaxing each block on
its own, and B not again where its inputs are A's.  :func:`propagator`
and :func:`propagate_covariance` stack one 4x4 matrix per time as
(..., 4, 4).  Nothing is cached: each call solves for S_inf once,
whatever the number of times it covers.

:func:`is_physical` tests a covariance with core's invariants, not with
eigenvalues.

This module requires hbar = 1 (the separability analysis built on top of
it is normalized that way).
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from . import single_mode
from .core import (
    SCALE_RTOL,
    OscillatorParams,
    TwoModeEnvironment,
    block_entries,
    bona_fide_checks,
    covariance_blocks,
    diffusion_matrix,
    stack_blocks,
)
from .errors import ParameterError, ShapeError

__all__ = [
    "drift_matrix",
    "diffusion_matrix",
    "propagator",
    "steady_covariance_closed_form",
    "steady_entries",
    "propagate_entries",
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


#: What the two-mode operations say when ``params.mu`` is not 0.
MU_IGNORED = "the two-mode model has no friction asymmetry; params.mu is ignored"


def _warn_mu_ignored(params: OscillatorParams):
    if params.mu != 0.0:
        warnings.warn(MU_IGNORED, stacklevel=3)


def _block_diagonal(block: np.ndarray) -> np.ndarray:
    """(..., 4, 4) matrices with the (..., 2, 2) ``block`` twice on the diagonal."""
    m = block_entries(block)
    return stack_blocks(m, m, (0.0,) * 4)


def drift_matrix(params: OscillatorParams) -> np.ndarray:
    """Block-diagonal 4x4 drift; eigenvalues -lam +/- i*omega, twice."""
    _warn_mu_ignored(params)
    require_hbar_one(params)
    return _block_diagonal(single_mode.drift_matrix(replace(params, mu=0.0)))


def propagator(params: OscillatorParams, t) -> np.ndarray:
    """Closed-form M(t) = exp(t*Y): :func:`single_mode.moment_propagator` at
    mu = 0 on both diagonal blocks, each
    exp(-lam*t) * (cos(omega*t)*I + sin(omega*t)/omega * [[0, 1/m], [-m*omega**2, 0]]).

    ``t`` may be an array of times; the result then has shape t.shape + (4, 4).
    """
    require_hbar_one(params)
    _warn_mu_ignored(params)
    return _block_diagonal(single_mode.moment_propagator(replace(params, mu=0.0), t))


def require_matching_lam(env: TwoModeEnvironment, params: OscillatorParams):
    if env.lam != params.lam:
        raise ParameterError(
            f"environment and oscillator disagree on lam: {env.lam!r} vs {params.lam!r}"
        )


def _env_steady_entries(env: TwoModeEnvironment, params: OscillatorParams):
    """:func:`steady_entries` of ``env``, for hbar = 1 and a matching lam."""
    require_hbar_one(params)
    require_matching_lam(env, params)
    e = env
    return steady_entries(e.Dxx, e.Dxpx, e.Dpxpx, e.Dyy, e.Dypy, e.Dpypy, e.Dxy, e.Dxpy,
                          e.Dypx, e.Dpxpy, params)


def steady_covariance_closed_form(env: TwoModeEnvironment,
                                  params: OscillatorParams) -> np.ndarray:
    """Asymptotic covariance of any environment: :func:`steady_entries` of its
    coefficients, stacked into a 4x4 matrix."""
    return stack_blocks(*_env_steady_entries(env, params))


@np.errstate(over="ignore")  # beyond float64 an entry is inf, and S is not finite
def steady_entries(Dxx, Dxpx, Dpxpx, Dyy, Dypy, Dpypy, Dxy, Dxpy, Dypx, Dpxpy,
                   params: OscillatorParams):
    """Closed-form asymptotic covariance of any environment, as the entries of
    its blocks A, B and C in the form :func:`lindosc.core.entry_invariants`
    takes.  The ten diffusion coefficients may be arrays that broadcast
    together; the caller vouches for hbar = 1 and for their lam being
    ``params.lam``.

    Both modes share the drift block Y1 (single_mode's at mu = 0), so
    Y S + S Y^T = -2 D splits into Y1 X + X Y1^T = -2 D_X for X = A, B and C.
    A, B and the symmetric part of C are :func:`single_mode.stationary_covariance`
    of their blocks of D.  The antisymmetric part (Dxpy - Dypx)/2 J of D_C
    gives (Dxpy - Dypx)/(2 lam) J, as Y1 J + J Y1^T = tr(Y1) J = -2 lam J.
    Halving before the sums keeps them from overflowing.  Where B's
    coefficients are A's bit for bit, B is A's tuple, solved once: the same
    arrays, so callers must treat the entries as read-only.
    """
    params = replace(params, mu=0.0)
    a_xx, a_xp, a_pp = single_mode.stationary_covariance(params, Dxx, Dxpx, Dpxpx)
    a = (a_xx, a_xp, a_xp, a_pp)
    if _same_bits((Dyy, Dypy, Dpypy), (Dxx, Dxpx, Dpxpx)):
        b = a
    else:
        b_xx, b_xp, b_pp = single_mode.stationary_covariance(params, Dyy, Dypy, Dpypy)
        b = (b_xx, b_xp, b_xp, b_pp)
    sym, anti = 0.5 * Dxpy + 0.5 * Dypx, (0.5 * Dxpy - 0.5 * Dypx) / params.lam
    c_xx, c_xp, c_pp = single_mode.stationary_covariance(params, Dxy, sym, Dpxpy)
    return a, b, (c_xx, c_xp + anti, c_xp - anti, c_pp)


def _same_bits(x, y) -> bool:
    """Whether the tuples of floats or arrays ``x`` and ``y`` hold the same
    entries bit for bit: dtype, shape and bytes (so -0.0 is not 0.0)."""
    return all(u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
               for u, v in zip(map(np.asarray, x), map(np.asarray, y)))


def propagate_entries(a0, b0, c0, env: TwoModeEnvironment, params: OscillatorParams, t):
    """Exact covariance at times t >= 0 from an initial one, both as the
    entries of the blocks A, B and C (``core.entry_invariants``' form), which
    broadcast with ``t``.  M(t) is block-diagonal, so each block relaxes on
    its own.  A and B have one off-diagonal value, so their stacks are
    exactly symmetric.

    Where B's inputs are A's bit for bit, its initial entries and (Dyy, Dypy,
    Dpypy) against (Dxx, Dxpx, Dpxpx), B relaxes exactly as A does, and the
    result's B is A's tuple: the same arrays.  Entries may alias one another
    in this way, so callers must treat them as read-only."""
    _warn_mu_ignored(params)
    a_inf, b_inf, c_inf = _env_steady_entries(env, params)
    m = block_entries(single_mode.moment_propagator(replace(params, mu=0.0), t))
    (a00, a01, _, a11), c = (single_mode.relaxed_entries(m, x0, x_inf)
                             for x0, x_inf in ((a0, a_inf), (c0, c_inf)))
    a = (a00, a01, a01, a11)
    if b_inf is a_inf and _same_bits(b0, a0):
        return a, a, c
    b00, b01, _, b11 = single_mode.relaxed_entries(m, b0, b_inf)
    return a, (b00, b01, b01, b11), c


def propagate_covariance(sigma0: np.ndarray, env: TwoModeEnvironment,
                         params: OscillatorParams, t) -> np.ndarray:
    """Exact covariance at times t >= 0 from the initial covariance sigma0:
    :func:`propagate_entries` of its blocks, stacked as t.shape + (4, 4)."""
    blocks = covariance_blocks(require_covariance4(sigma0))
    return stack_blocks(*propagate_entries(*blocks, env, params, t))


def det_cross_block(env: TwoModeEnvironment, params: OscillatorParams) -> float:
    """Determinant of the asymptotic cross-covariance block of any environment.

    det C = ((m w^2 Dxy + Dpxpy/m)^2 + 4 lam^2 (Dxy Dpxpy - Dxpy Dypx)
             + w^2 (Dxpy - Dypx)^2) / (4 lam^2 (lam^2 + w^2)).

    Negative values are the precondition for asymptotic entanglement.
    """
    return cross_block_route(env, params)[0]


def cross_block_route(env: TwoModeEnvironment, params: OscillatorParams) -> tuple[float, float]:
    """:func:`det_cross_block` and its magnitude sum: the same products with
    every coefficient and sign taken by its magnitude.  The square of
    Dxpy - Dypx is its own magnitude, as a difference is rounded relative to
    its result."""
    require_hbar_one(params)
    require_matching_lam(env, params)
    m, w, lam = params.m, params.omega, params.lam
    q = lam * lam + w * w
    lead = m * w * w * env.Dxy + env.Dpxpy / m
    size = m * w * w * abs(env.Dxy) + abs(env.Dpxpy) / m
    cross, skew, diff = env.Dxy * env.Dpxpy, env.Dxpy * env.Dypx, env.Dxpy - env.Dypx
    anti, den = w * w * diff * diff, 4.0 * lam * lam * q
    return ((lead * lead + 4.0 * lam * lam * (cross - skew) + anti) / den,
            (size * size + 4.0 * lam * lam * (abs(cross) + abs(skew)) + anti) / den)


def is_physical(sigma: np.ndarray):
    """Whether sigma is a bona fide covariance, sigma + (i/2) Omega >= 0
    (:func:`lindosc.core.bona_fide_checks`, a non-finite invariant failing).
    Nothing in this package enforces it.  A bool for one 4x4 matrix, an
    (N,) array for a stack.
    """
    values, passed = bona_fide_checks(require_covariance4(sigma))
    passed = (passed & np.isfinite(values)).all(axis=-1)
    return bool(passed) if passed.ndim == 0 else passed
