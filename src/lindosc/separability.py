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
window of |Dxpy| (S is even in the cross coefficient Dxpy).  The closed
form agrees with the full criterion wherever det C <= 0 (the regime the
family is built to probe); for det C > 0 the two differ by exactly det C
because of the absolute value above, and the state is separable
regardless.

S is the last of the invariants that :func:`lindosc.core.entry_invariants`
writes out over the entries of A, B and C; :func:`simon_score` and
:func:`simon_verdicts` unpack one 4x4 matrix or an (N, 4, 4) stack into
them.  :func:`scan_separability`, whose nodes have B = A with A on the Dxx
axis and C on the Dxpy axis, takes S as
:func:`lindosc.core.axis_factors` writes it: sums of products of a factor
on each axis.  S cancels terms of the fourth power of the covariance
entries, so its sign is resolved only where |S| exceeds its rounding
bound; the bound is the same S taken on the magnitudes of the entries
with J replaced by |J|, so S and its bound come from the same products.  :func:`simon_verdicts` gives the score, the verdict and that
bound, and calls the node "boundary" inside it; the rule and its constant
are the tolerance policy of :mod:`lindosc.core`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# validate_two_mode is also reached as separability.validate_two_mode.
from .core import (  # noqa: F401
    NODE_BLOCK,
    SCORE_RTOL,
    OscillatorParams,
    TwoModeEnvironment,
    axis_factors,
    covariance_blocks,
    entry_invariants,
    entry_invariants_and_sums,
    negligible,
    not_negative,
    sum_products,
    validate_two_mode,
)
from .errors import InvalidEnvironmentError, ParameterError
from .two_mode import model_params, require_covariance4, steady_entries

__all__ = [
    "SeparabilityResult",
    "ScanColumns",
    "SCAN_STATUSES",
    "simon_score",
    "simon_verdicts",
    "simon_score_closed_form",
    "closed_form_route",
    "entanglement_window",
    "scan_separability",
]


class SeparabilityResult(NamedTuple):
    """Simon score, verdict and rounding bound of one covariance (floats and
    bools) or of an (N, 4, 4) stack ((N,) arrays).

    ``boundary`` holds where |score| <= ``bound`` or the score is not
    finite: there the sign of the score, and so ``separable`` (score >= 0),
    is not resolved.
    """

    score: float
    separable: bool
    boundary: bool
    bound: float

    @property
    def verdict(self) -> str:
        """Verdict of one covariance: entangled, separable or separable-boundary."""
        if self.boundary:
            return "separable-boundary"
        return "separable" if self.separable else "entangled"


#: Labels of the node statuses of :func:`scan_separability`, indexed by their
#: :attr:`ScanColumns.status` code, in the order in which they are tested.
SCAN_STATUSES = ("invalid-window", "invalid", "indeterminate", "boundary-indeterminate", "ok")


@dataclass(frozen=True)
class ScanColumns:
    """A separability scan over (Dxx, Dxpy), one array entry per node in
    row-major order, Dxx slowest.

    ``in_window`` is None when the template has Dxy != 0 (no window).
    ``status`` holds each node's status as a ``uint8`` code, the index of
    its label in :data:`SCAN_STATUSES`.
    """

    score: np.ndarray
    separable: np.ndarray
    boundary: np.ndarray
    in_window: np.ndarray | None
    status: np.ndarray


def simon_score(sigma: np.ndarray):
    """Separability score S of a two-mode covariance matrix (hbar = 1).

    S >= 0 is necessary and sufficient for separability of the Gaussian
    state with this covariance.  Takes one 4x4 matrix (returns a float) or
    an (N, 4, 4) stack (returns an (N,) array).
    """
    score = entry_invariants(*covariance_blocks(require_covariance4(sigma)), which="score")
    return float(score) if score.ndim == 0 else score


def _verdicts(score, size) -> SeparabilityResult:
    """The verdicts of a score S and its magnitude sum: the bound is
    ``core.SCORE_RTOL`` times the sum."""
    bound = SCORE_RTOL * size
    return SeparabilityResult(score, score >= 0.0, ~(np.abs(score) > bound), bound)


def simon_verdicts(sigma: np.ndarray) -> SeparabilityResult:
    """Simon score S, separability and boundary verdicts, and rounding bound.

    Takes one 4x4 matrix (floats and bools) or an (N, 4, 4) stack ((N,)
    arrays).  The bound is ``core.SCORE_RTOL`` times S evaluated with every
    entry and every sign replaced by its magnitude; a node with |S| within
    it, or with a non-finite S, is on the boundary.  See the tolerance
    policy in :mod:`lindosc.core`.
    """
    result = _verdicts(*entry_invariants_and_sums(*covariance_blocks(require_covariance4(sigma)),
                                                  "score"))
    if result.score.ndim == 0:
        return SeparabilityResult(float(result.score), bool(result.separable),
                                  bool(result.boundary), float(result.bound))
    return result


def _require_special_family(env: TwoModeEnvironment, params: OscillatorParams):
    if not env.symmetric:
        raise InvalidEnvironmentError("closed-form score needs a mirror-symmetric environment")
    mw2 = (params.m * params.omega) ** 2
    scale = max(1.0, abs(env.Dxx), abs(env.Dpxpx), abs(env.Dxy), abs(env.Dpxpy)) * max(1.0, mw2)
    problems = []
    if not negligible(mw2 * env.Dxx - env.Dpxpx, scale):
        problems.append("m^2 w^2 Dxx != Dpxpx")
    if not negligible(env.Dxpx, scale):
        problems.append("Dxpx != 0")
    if not negligible(mw2 * env.Dxy - env.Dpxpy, scale):
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
    return closed_form_route(env, model_params(params, env))[0]


def closed_form_route(env: TwoModeEnvironment, params: OscillatorParams) -> tuple[float, float]:
    """:func:`simon_score_closed_form` and its rounding bound: ``core.SCORE_RTOL``
    times the closed form with every term and sign taken by its magnitude."""
    params = model_params(params, env)
    _require_special_family(env, params)
    m, w, lam = params.m, params.omega, params.lam
    q = lam * lam + w * w
    mw2 = (m * w) ** 2
    head = mw2 * (env.Dxx**2 - env.Dxy**2) / lam**2 + env.Dxpy**2 / q - 0.25
    tail = 4.0 * mw2 * env.Dxx**2 * env.Dxpy**2 / (lam * lam * q)
    size = (mw2 * (env.Dxx**2 + env.Dxy**2) / lam**2 + env.Dxpy**2 / q + 0.25) ** 2 + tail
    return head * head - tail, SCORE_RTOL * size


@np.errstate(over="ignore")  # beyond float64 the ratio is inf, and so is the window
def _window_ratio(Dxx, params: OscillatorParams):
    return params.m * params.omega * Dxx / params.lam


def entanglement_window(Dxx: float, params: OscillatorParams) -> tuple[float, float]:
    """Open interval of |Dxpy| producing an entangled asymptotic state.

    Applies to the Dxy = 0 closed-form family.  S is even in Dxpy, and the
    state is entangled exactly where lo < |Dxpy| < hi.  The window is

        (sqrt(lam^2 + w^2) * (m w Dxx/lam - 1/2),
         sqrt(lam^2 + w^2) * (m w Dxx/lam + 1/2)),

    defined only when m w Dxx / lam >= 1/2 (the one-mode uncertainty
    bound on the asymptotic state).  ``Dxx`` may be an array, giving
    arrays of endpoints.
    """
    params = model_params(params)
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

    Nodes are in row-major order, Dxx slowest.  ``score``, ``separable``
    and ``boundary`` are :func:`simon_verdicts` of the nodes.  ``in_window``
    is reported only for Dxy = 0 templates: m w Dxx / lam >= 1/2 and
    lo < |Dxpy| < hi of :func:`entanglement_window`.  A node's status,
    coded by its index in :data:`SCAN_STATUSES`, is the first that holds
    of "invalid-window" (Dxy = 0 and Dxx below the one-mode uncertainty
    bound: no window), "invalid" (the environment is
    not completely positive: D/lam fails :func:`lindosc.core.bona_fide_checks`),
    "indeterminate" (S is not finite: no verdict),
    "boundary-indeterminate" (Dxy = 0 and ``boundary``: the sign of S, and
    so its agreement with ``in_window``, is not resolved) and "ok".  The
    first two are facts about the inputs.  A node status never aborts the
    scan.

    What depends on one axis is evaluated on that axis: the finite checks,
    A = B of :func:`lindosc.two_mode.steady_entries`, the mode entries of
    D/lam, its first two bona fide checks and the window ends on the Dxx
    column, and C and the cross entries of D/lam on the Dxpy row.  S, the
    other three checks of D/lam and the magnitude sums of all four are
    :func:`lindosc.core.axis_factors`: sums of products of a factor on the
    column and one on the row, each factor built on its axis once.  Per
    node, in blocks of whole Dxx rows, go only those sums
    (:func:`lindosc.core.sum_products`), the verdicts, ``in_window`` and the
    status.  A node's values do not depend on the block that holds it, and
    they are those of a scan of that node alone.  S rounds differently from
    :func:`simon_verdicts` of the node's covariance: the two differ by less
    than the sum of their bounds, and the bound is the same polynomial (see
    the tolerance policy of :mod:`lindosc.core`).
    """
    params = model_params(params, env_template)
    dxx = np.asarray(dxx_values, dtype=float).ravel()
    dxpy = np.asarray(dxpy_values, dtype=float).ravel()
    if dxx.size * dxpy.size == 0:  # no node, so no value to check
        dxx, dxpy = dxx[:0], dxpy[:0]
    # a (rows, 1) column of Dxx and a (1, cols) row of Dxpy
    column, row = dxx[:, None], dxpy[None, :]
    mw2 = (params.m * params.omega) ** 2
    dpxpx = mw2 * column
    dxy, dpxpy, lam = env_template.Dxy, mw2 * env_template.Dxy, env_template.lam
    for name, values in (("Dxx", dxx), ("Dpxpx", dpxpx), ("Dxpy", dxpy), ("Dpxpy", dpxpy)):
        bad = ~np.isfinite(values)
        if np.any(bad):
            first = float(np.extract(bad, values)[0])
            raise ParameterError(f"{name} must be finite, got {first!r}")

    # B = A: both modes have the diffusion block diag(Dxx, Dpxpx)
    (a_xx, a_xp, _, a_pp), _, c = steady_entries(column, 0.0, dpxpx, column, 0.0, dpxpx, dxy,
                                                 row, row, dpxpy, params)
    a = (a_xx, a_xp, a_pp)
    # D/lam: diag(Dxx, Dpxpx)/lam twice, and [[Dxy, Dxpy], [Dxpy, Dpxpy]]/lam;
    # beyond float64 an entry is inf, whose checks are unresolved
    with np.errstate(over="ignore"):
        mode, xpy = (column / lam, 0.0, dpxpx / lam), row / lam
    cross = (dxy / lam, xpy, xpy, dpxpy / lam)
    # S, the bona fide checks of D/lam and their magnitude sums as sums of
    # products of factors on the axes: A's on the Dxx column, C's on the row
    magnitudes = [[np.abs(x) for x in entries] for entries in (a, c, mode, cross)]
    (score_sum,), (size_sum,) = axis_factors(a, c), axis_factors(*magnitudes[:2], 1.0)
    checks = axis_factors(mode, cross, -1.0, "checks")
    sizes = axis_factors(*magnitudes[2:], 1.0, "checks")
    windowed = dxy == 0.0
    has_window = _window_ratio(dxx, params) >= 0.5
    no_window = windowed & ~has_window[:, None]
    # the first two checks are of D/lam's mode block alone, on the column
    with np.errstate(over="ignore", invalid="ignore"):
        mode_ok = functools.reduce(np.logical_and, (
            not_negative(sum_products(*check), sum_products(*size))
            for check, size in zip(checks[:2], sizes[:2])))
    per_node = (score_sum, size_sum, *checks[2:], *sizes[2:])

    shape = (dxx.size, dxpy.size)
    score = np.empty(shape)
    separable, boundary = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
    status = np.empty(shape, dtype=np.uint8)
    # Blocks of whole Dxx rows, at most 4 NODE_BLOCK nodes each: a per-node
    # temporary then takes at most 32 KiB, below glibc's default 128 KiB mmap
    # threshold, which still holds for a library caller, whose heap the CLI
    # has not pinned.  A Dxpy row longer than that is cut along Dxpy.
    cols = max(1, min(dxpy.size, 4 * NODE_BLOCK))
    rows = max(1, 4 * NODE_BLOCK // cols)
    for j in range(0, dxpy.size, cols):
        k = slice(j, j + cols)
        on_row = [(alpha, _part(gamma, np.s_[:, k])) for alpha, gamma in per_node]
        for i in range(0, dxx.size, rows):
            r = slice(i, i + rows)
            # overflow gives a non-finite sum: unresolved
            with np.errstate(over="ignore", invalid="ignore"):
                score_k, size_k, *values = (sum_products(_part(alpha, r), gamma)
                                            for alpha, gamma in on_row)
            score[r, k], separable[r, k], boundary[r, k], _ = _verdicts(score_k, size_k)
            positive = functools.reduce(np.logical_and,
                                        map(not_negative, values[:3], values[3:]), mode_ok[r])
            # the first status whose condition holds, in the documented order:
            # written from the last to the first, an earlier one over a later
            block = status[r, k]
            block.fill(4)
            if windowed:
                np.copyto(block, 3, where=boundary[r, k])
            np.copyto(block, 2, where=~np.isfinite(score_k))
            np.copyto(block, 1, where=~positive)
            np.copyto(block, 0, where=no_window[r])
            del score_k, size_k, values, positive  # not alive through the next block

    in_window = None
    if windowed:
        lo, hi = np.full(dxx.size, np.nan), np.full(dxx.size, np.nan)
        lo[has_window], hi[has_window] = entanglement_window(dxx[has_window], params)
        magnitude = np.abs(row)
        in_window = ((lo[:, None] < magnitude) & (magnitude < hi[:, None])).ravel()
    return ScanColumns(score=score.ravel(), separable=separable.ravel(),
                       boundary=boundary.ravel(), in_window=in_window, status=status.ravel())


def _part(entries, index):
    """The entries of a block of nodes: each array entry at ``index``, each
    float entry as it is, since it is every node's."""
    return tuple(x[index] if isinstance(x, np.ndarray) else x for x in entries)
