"""Separability analysis of two-mode Gaussian states (Simon criterion).

A two-mode Gaussian state with covariance blocks A, B (one-mode) and C
(cross correlations) is separable if and only if

    S = det A * det B + (1/4 - |det C|)^2
        - Tr[A J C J B J C^T J] - (det A + det B)/4  >=  0,

with J the 2x2 symplectic matrix [[0, 1], [-1, 0]] and hbar = 1.  States
with det C >= 0 are always separable; det C < 0 is necessary for
entanglement.

For the mirror-symmetric environment family with
m^2 w^2 Dxx = Dpxpx, Dxpx = 0 and m^2 w^2 Dxy = Dpxpy, the score of the
*asymptotic* state collapses to a closed form in the diffusion
coefficients, and with Dxy = 0 the entangled region is an explicit open
window of the cross coefficient Dxpy.  The closed form agrees with the
full criterion wherever det C <= 0 (the regime the family is built to
probe); for det C > 0 the two differ by exactly det C because of the
absolute value above, and the state is separable regardless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# validate_two_mode is also reached as separability.validate_two_mode.
from .core import (  # noqa: F401
    NODE_BLOCK,
    OscillatorParams,
    TwoModeEnvironment,
    gram_checks,
    gram_matrices,
    validate_two_mode,
)
from .errors import InvalidEnvironmentError, ParameterError, ShapeError
from .two_mode import (
    require_covariance4,
    require_matching_lam,
    scalar_or_array,
    steady_covariance_symmetric,
)

__all__ = [
    "BlockDecomposition",
    "SeparabilityResult",
    "ScanColumns",
    "block_decompose",
    "simon_score",
    "is_separable",
    "simon_score_closed_form",
    "entanglement_window",
    "scan_separability",
]

#: |S| below this value is reported as sitting on the separability boundary.
BOUNDARY_ATOL = 1e-12

#: Scan points closer than this (relative to the window scale) to a window
#: endpoint are reported as boundary-indeterminate.
ENDPOINT_MARGIN = 1e-9

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class BlockDecomposition:
    """2x2 blocks of a 4x4 covariance matrix (or of a stack of them):
    one-mode A and B, cross C."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def reassemble(self) -> np.ndarray:
        top = np.concatenate([self.A, self.C], axis=-1)
        bottom = np.concatenate([np.swapaxes(self.C, -1, -2), self.B], axis=-1)
        return np.concatenate([top, bottom], axis=-2)


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    score: float
    boundary: bool

    @property
    def verdict(self) -> str:
        if self.boundary:
            return "separable-boundary"
        return "separable" if self.separable else "entangled"


@dataclass(frozen=True)
class ScanColumns:
    """A separability scan over (Dxx, Dxpy), one array entry per node.

    ``in_window`` is None when the template has Dxy != 0 (no window).
    ``status`` holds "ok", "invalid", "invalid-window" or
    "boundary-indeterminate".
    """

    Dxx: np.ndarray
    Dxpy: np.ndarray
    score: np.ndarray
    separable: np.ndarray
    boundary: np.ndarray
    in_window: np.ndarray | None
    status: np.ndarray


def block_decompose(sigma: np.ndarray) -> BlockDecomposition:
    """Split a symmetric 4x4 covariance (or an (N, 4, 4) stack) into its
    (A, B, C) blocks."""
    sigma = require_covariance4(sigma)
    return BlockDecomposition(A=sigma[..., :2, :2].copy(),
                              B=sigma[..., 2:, 2:].copy(),
                              C=sigma[..., :2, 2:].copy())


def simon_score(sigma: np.ndarray):
    """Separability score S of a two-mode covariance matrix (hbar = 1).

    S >= 0 is necessary and sufficient for separability of the Gaussian
    state with this covariance.  Takes one 4x4 matrix (returns a float) or
    an (N, 4, 4) stack (returns an (N,) array).
    """
    blocks = block_decompose(sigma)
    A, B, C = blocks.A, blocks.B, blocks.C
    det_a, det_b, det_c = np.linalg.det(A), np.linalg.det(B), np.linalg.det(C)
    chain = A @ _J @ C @ _J @ B @ _J @ np.swapaxes(C, -1, -2) @ _J
    cross = np.trace(chain, axis1=-2, axis2=-1)
    score = det_a * det_b + (0.25 - np.abs(det_c)) ** 2 - cross - 0.25 * (det_a + det_b)
    return scalar_or_array(score)


def is_separable(sigma: np.ndarray) -> SeparabilityResult:
    """Separability verdict and score of one 4x4 covariance; |S| < 1e-12 is
    flagged as boundary."""
    if np.ndim(sigma) != 2:
        raise ShapeError(f"expected one 4x4 matrix, got shape {np.shape(sigma)}")
    score = simon_score(sigma)
    return SeparabilityResult(separable=score >= 0.0,
                              score=score,
                              boundary=abs(score) < BOUNDARY_ATOL)


def _require_special_family(env: TwoModeEnvironment, params: OscillatorParams):
    if not env.symmetric:
        raise InvalidEnvironmentError("closed-form score needs a mirror-symmetric environment")
    mw2 = (params.m * params.omega) ** 2
    scale = max(1.0, abs(env.Dxx), abs(env.Dpxpx), abs(env.Dxy), abs(env.Dpxpy)) * max(1.0, mw2)
    problems = []
    if abs(mw2 * env.Dxx - env.Dpxpx) > 1e-12 * scale:
        problems.append("m^2 w^2 Dxx != Dpxpx")
    if abs(env.Dxpx) > 1e-12 * scale:
        problems.append("Dxpx != 0")
    if abs(mw2 * env.Dxy - env.Dpxpy) > 1e-12 * scale:
        problems.append("m^2 w^2 Dxy != Dpxpy")
    if problems:
        raise InvalidEnvironmentError(
            "environment violates the closed-form score constraints: " + "; ".join(problems)
        )


def simon_score_closed_form(env: TwoModeEnvironment, params: OscillatorParams) -> float:
    """Separability score of the asymptotic state, in closed form.

    Valid for mirror-symmetric environments with m^2 w^2 Dxx = Dpxpx,
    Dxpx = 0, and m^2 w^2 Dxy = Dpxpy:

        S = (m^2 w^2 (Dxx^2 - Dxy^2)/lam^2 + Dxpy^2/q - 1/4)^2
            - 4 m^2 w^2 Dxx^2 Dxpy^2 / (lam^2 q),    q = lam^2 + w^2.

    Matches :func:`simon_score` of the asymptotic covariance whenever the
    cross-block determinant is <= 0 (always the case for Dxy = 0).
    """
    if params.hbar != 1.0:
        raise ParameterError(f"separability analysis requires hbar = 1, got {params.hbar!r}")
    require_matching_lam(env, params)
    _require_special_family(env, params)
    m, w, lam = params.m, params.omega, params.lam
    q = lam * lam + w * w
    mw2 = (m * w) ** 2
    head = mw2 * (env.Dxx**2 - env.Dxy**2) / lam**2 + env.Dxpy**2 / q - 0.25
    return head * head - 4.0 * mw2 * env.Dxx**2 * env.Dxpy**2 / (lam * lam * q)


def _window_ratio(Dxx, params: OscillatorParams):
    return params.m * params.omega * Dxx / params.lam


def entanglement_window(Dxx: float, params: OscillatorParams) -> tuple[float, float]:
    """Open interval of Dxpy producing an entangled asymptotic state.

    Applies to the Dxy = 0 closed-form family.  The window is

        (sqrt(lam^2 + w^2) * (m w Dxx/lam - 1/2),
         sqrt(lam^2 + w^2) * (m w Dxx/lam + 1/2)),

    defined only when m w Dxx / lam >= 1/2 (the one-mode uncertainty
    bound on the asymptotic state).  ``Dxx`` may be an array, giving
    arrays of endpoints.
    """
    if params.hbar != 1.0:
        raise ParameterError(f"separability analysis requires hbar = 1, got {params.hbar!r}")
    ratio = _window_ratio(Dxx, params)
    if np.any(ratio < 0.5):
        low = float(np.min(ratio))
        raise ParameterError(
            f"need m*omega*Dxx/lam >= 1/2 (one-mode uncertainty), got {low!r}"
        )
    root = math.sqrt(params.lam**2 + params.omega**2)
    return (root * (ratio - 0.5), root * (ratio + 0.5))


def scan_separability(env_template: TwoModeEnvironment, params: OscillatorParams,
                      dxx_values, dxpy_values) -> ScanColumns:
    """Evaluate the asymptotic separability score over a (Dxx, Dxpy) grid.

    Each node takes the template environment into the closed-form family
    (Dpxpx := m^2 w^2 Dxx, Dxpx := 0, Dpxpy := m^2 w^2 Dxy) with the
    node's Dxx and Dxpy, and scores the full asymptotic covariance.

    Nodes are in row-major order, Dxx slowest.  ``in_window`` is reported
    only for Dxy = 0 templates; the status column marks Gram-positivity
    violations ("invalid"), nodes whose Dxx is below the one-mode
    uncertainty bound ("invalid-window"), and nodes within 1e-9 of a
    window endpoint ("boundary-indeterminate").  A node status never
    aborts the scan.
    """
    if params.hbar != 1.0:
        raise ParameterError(f"separability analysis requires hbar = 1, got {params.hbar!r}")
    require_matching_lam(env_template, params)
    dxx_values = np.asarray(dxx_values, dtype=float).ravel()
    dxpy_values = np.asarray(dxpy_values, dtype=float).ravel()
    dxx = np.repeat(dxx_values, dxpy_values.size)
    dxpy = np.tile(dxpy_values, dxx_values.size)
    mw2 = (params.m * params.omega) ** 2
    dpxpx = mw2 * dxx
    dxy, dpxpy, lam = env_template.Dxy, mw2 * env_template.Dxy, env_template.lam
    for name, values in (("Dxx", dxx), ("Dpxpx", dpxpx), ("Dxpy", dxpy), ("Dpxpy", dpxpy)):
        bad = ~np.isfinite(values)
        if np.any(bad):
            first = float(np.extract(bad, values)[0])
            raise ParameterError(f"{name} must be finite, got {first!r}")

    score = np.empty(dxx.size)
    gram_ok = np.empty(dxx.size, dtype=bool)
    for start in range(0, dxx.size, NODE_BLOCK):
        k = slice(start, start + NODE_BLOCK)
        sigma = steady_covariance_symmetric(dxx[k], 0.0, dpxpx[k], dxy, dxpy[k], dpxpy, params)
        score[k] = simon_score(sigma)
        gram = gram_matrices(dxx[k], 0.0, dpxpx[k], dxx[k], 0.0, dpxpx[k],
                             dxy, dxpy[k], dxpy[k], dpxpy, lam)
        gram_ok[k] = gram_checks(gram)[1].all(axis=-1)

    status = np.full(dxx.size, "ok", dtype=object)
    status[~gram_ok] = "invalid"
    in_window = None
    if dxy == 0.0:
        has_window = _window_ratio(dxx, params) >= 0.5
        lo, hi = np.full(dxx.size, np.nan), np.full(dxx.size, np.nan)
        lo[has_window], hi[has_window] = entanglement_window(dxx[has_window], params)
        in_window = (lo < dxpy) & (dxpy < hi)
        margin = ENDPOINT_MARGIN * np.maximum(1.0, hi)
        status[np.minimum(np.abs(dxpy - lo), np.abs(dxpy - hi)) <= margin] = \
            "boundary-indeterminate"
        status[~has_window] = "invalid-window"
    return ScanColumns(Dxx=dxx, Dxpy=dxpy, score=score, separable=score >= 0.0,
                       boundary=np.abs(score) < BOUNDARY_ATOL, in_window=in_window,
                       status=status)
