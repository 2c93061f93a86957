"""Parameter containers and validity checks for damped-oscillator dynamics.

All downstream machinery (moment propagation, decoherence measures,
two-mode covariance dynamics, separability analysis) consumes the value
types defined here.  Quantities are dimensionless: the default convention
is m = omega = hbar = 1, and temperature enters only through the
dimensionless ratio C = coth(hbar*omega / (2*k*T)), so C = 1 is the
zero-temperature limit and C >> 1 the classical one.

Validity of environment coefficients is *reported*, not enforced at
construction: several regimes of physical interest (notably the
cross-diffusion values that entangle the asymptotic two-mode state) sit
outside the complete-positivity constraints, and the library must still
be able to evaluate them.  ``validate_single_mode`` and
``validate_two_mode`` return itemized reports with the numeric slack of
every inequality.

Every verdict on a two-mode covariance sigma (hbar = 1) is a sign test on
the invariants of :func:`entry_invariants`: sigma_00, det A - 1/4, the
leading 3x3 minor, Delta - 1/2 (Delta = det A + det B + 2 det C), U =
det sigma - Delta/4 + 1/16, and Simon's S, U with |det C| in place of
det C.  sigma + (i/2) Omega >= 0 exactly when the first five are >= 0
(Simon, PRL 84, 2726 (2000); Serafini, Illuminati and De Siena, J. Phys. B
37, L21 (2004)): then A > 0 and det sigma >= 1/16, so sigma > 0 and both
symplectic eigenvalues are >= 1/2.  An environment is completely positive
exactly when its D/(hbar lam) is, and a one-mode D1 when two copies,
D1 (+) D1, are: there sigma_00 >= 0 and det A >= 1/4, Dxx Dpp - Dxp^2 >=
(lam hbar/2)^2 (Sandulescu and Scutaru, Ann. Phys. 173, 277 (1987)),
imply the rest.

The invariant kernel is entries-first: it takes the entries of the blocks
A, B and C as floats or arrays, and gives all six invariants, S alone or
the first five alone.  The stack forms (:func:`bona_fide_checks` here, the
Simon score of ``separability`` and ``two_mode.is_physical``) unpack one
4x4 matrix or a (..., 4, 4) stack with :func:`covariance_blocks` and call
the kernel; :func:`stack_blocks`, its inverse, is the one writer of the layout.
Where B = A, :func:`axis_factors` gives S and the five checks as sums of
products of a factor of A's entries and one of C's, which
:func:`sum_products` adds: on a grid whose A varies along one axis and C
along the other, the factors stay on the axes and only the sums are per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, StateError

__all__ = [
    "OscillatorParams",
    "ThermalParams",
    "SingleModeEnv",
    "TwoModeEnvironment",
    "GaussianState1D",
    "ValidationCheck",
    "ValidationReport",
    "gibbs_diffusion",
    "gibbs_coefficients",
    "one_mode_checks",
    "validate_single_mode",
    "validate_two_mode",
    "correlated_coherent_state",
    "entry_invariants",
    "entry_invariants_and_sums",
    "axis_factors",
    "sum_products",
    "block_entries",
    "covariance_blocks",
    "stack_blocks",
    "bona_fide_checks",
]

# Tolerance policy.  Every float comparison against a tolerance in the
# package takes its tolerance from this block; no other module holds one.
#
# * Equal up to the input's scale: two quantities built from the same
#   inputs agree when they differ by at most SCALE_RTOL times the input's
#   scale, max(1, |inputs|) (:func:`negligible`).  This rule decides
#   whether a TwoModeEnvironment is mirror-symmetric, checks the symmetry of
#   covariance matrices and the constraints of the closed-form separability
#   family.
# * SCORE_RTOL: the Simon verdict.  S adds up products of at most four
#   covariance entries.  Let Sigma be the sum of their magnitudes: S with
#   every entry and every sign replaced by its magnitude.  S is written out
#   over the entries of the stored matrix, and Sigma is the same expression
#   on their magnitudes.  Each product of S is rounded at most 10 times on
#   its way to S: twice in a 2x2 determinant or in an entry of A J C or
#   B J C^T (a product, then a sum); 7 times in (1/4 - |det C|)^2 (3 in its
#   base, twice that plus 1 in the square), then 3 in the final sum of four
#   terms; 5 times in a product of the trace term (2 + 2 + 1), then 3 in
#   summing its four products and 2 in the final sum; det A det B 5 + 3
#   times and (det A + det B)/4 3 + 1.  With eps the machine epsilon,
#   |fl(S) - S| <= 10 (eps/2) Sigma = 5 eps Sigma.  The axis route
#   (:func:`axis_factors`, for B = A) sums eight products of a factor of A's
#   entries and one of C's pairwise, 3 sums deep (:func:`sum_products`), and
#   keeps the count: det A det B - (det A + det B)/4 is rounded 6 times (5
#   in det A^2, 2 in det A/2, 1 in their difference), (1/4 - |det C|)^2 7
#   times, and each other product 4 times (1 in a monomial of A's entries,
#   2 in a quadratic of C's, 1 in their product), so at most 7 + 3 = 10.
#   Its Sigma is the same sum on the magnitudes, grouped by factors.
#   The matrix is rounded too: a relative error eta in each entry moves a
#   product of four entries by at most 4 eta of its size, and
#   SCORE_RTOL = 32 eps leaves eta up to (32 - 5)/4 = 6.75 eps.  On both
#   edges of the entanglement window, against a 60-digit reference, S of
#   either route to the asymptotic covariance stayed within 1.27 eps Sigma.
#   Where |S| <= SCORE_RTOL * Sigma, or S is not finite, the sign of S is
#   not resolved and the verdict is "boundary".  Two routes to S (the closed
#   form has its own Sigma) agree when they differ by at most the sum of
#   their bounds.  S meets this rule in one place, the verdicts that
#   ``separability.simon_verdicts`` and ``scan_separability`` share; a window
#   node of the scan with a "boundary" verdict is "boundary-indeterminate",
#   the scan's only unresolved status.
# * Every other sign test takes the same rule and constant: x >= 0 fails
#   only where x < -SCORE_RTOL * Sigma_x, Sigma_x being x on the magnitudes
#   (:func:`not_negative`).  A product is rounded at most 3 times in
#   det A - 1/4 (2 in det A, 1 in the difference), 5 times in the 3x3 minor
#   (2 in a cofactor, 1 in its product, 2 in the sum of three; on the axis
#   route 3 in a00 det A, 2 in the other three terms, then 2 sums), 5 in
#   Delta - 1/2 (2, then 3 in the sum of four; 4 on the axis route, as
#   2 det A + (2 det C + 1/2)), 10 in U (as in S, on either route) and 16 in
#   the det C of ``two_mode.cross_block_route``: 11 in its numerator (4 in
#   each term of m w^2 Dxy + Dpxpy/m, 1 in their product, then 2 in the sum
#   of three terms), 4 in its denominator, 1 in the quotient.  Its term
#   w^2 (Dxpy - Dypx)^2 is its own magnitude, as a difference is rounded
#   relative to its result: 3 products and its 2 factors, then 1 in the sum.
#   So |fl(det C) - det C| <= 16 (eps/2) Sigma = 8 eps Sigma, under
#   SCORE_RTOL, on coefficients taken as they are.  The entries of sigma =
#   D/(hbar lam) are rounded by at most eps < 6.75 eps.  A non-finite x is
#   unresolved: the itemized validate reports fail it, and a scan node with
#   one reports it through its non-finite S.
# * RENDER_TIE_MARGIN: the CSV float kernel of ``cli`` rounds
#   y = |x| 10^(14-e), y in [10^14, 10^15), to the 15-digit mantissa of
#   ``%.14e``.  It holds y as p + lo, a double-double (Dekker, Numer. Math.
#   18, 224 (1971)): p + err = |x| hi exactly, lo = fl(err + fl(|x| plo)),
#   where 10^(14-e) = hi + plo + d with |d| <= u^2 hi (u = eps/2: both
#   halves are rounded once from the exact integer).  Then |p + lo - y| <=
#   (1 + 1 + 2) u^2 y: u^2 y from d, as much from the product |x| plo, and
#   2 u^2 y from rounding err + |x| plo, which is at most 2u y.  As y < 2^50,
#   that is below 2^-54 = u/2.  The fraction (p - floor p) + lo, near 1/2,
#   is rounded once more by at most u/2, so the computed fraction is within
#   u = eps/2 of the true one.  A cell whose fraction lies within
#   RENDER_TIE_MARGIN = 2 eps (four times that bound) of 1/2 is rounded by
#   Python instead: exact ties, which ``%.14e`` rounds to even, and all
#   that rounding could move across 1/2.
# * RENDER_EXP_MAX bounds the kernel's domain, |e| <= 280 for the decimal
#   exponent e = floor(log10 |x|), an integer.  Its table then holds
#   10^(14-e) for |e| <= 281: its largest entry times the Veltkamp splitter
#   2^27 + 1 is below 10^304, finite, and the low half of its smallest is
#   above 10^-284, normal, so every partial product is exact as assumed.
#   Zeros, infinities, nan, subnormals and larger |e| take fixed texts or
#   Python's own rendering.
SCALE_RTOL = 1e-12
SCORE_RTOL = 32 * np.finfo(float).eps
RENDER_TIE_MARGIN = 2 * np.finfo(float).eps
RENDER_EXP_MAX = 280


def negligible(x: float, scale: float) -> bool:
    """|x| is zero up to ``SCALE_RTOL`` times ``scale`` (see the tolerance policy)."""
    return abs(x) <= SCALE_RTOL * scale


#: The unit of the blocks that bound the memory of temporaries on large
#: grids: ``scan``'s kernel takes at most 4 NODE_BLOCK nodes at a time, and
#: a render slice at most 8 NODE_BLOCK float cells.  Commands hand their
#: kernels and their tables whole columns.
NODE_BLOCK = 1024


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise ParameterError(f"{name} must be > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class OscillatorParams:
    """Damped harmonic oscillator parameters.

    ``lam`` is the dissipation constant and ``mu`` the friction asymmetry
    between the coordinate and momentum damping channels.  Constraints
    that only matter for particular dynamics (for instance ``lam > mu``
    for thermal-equilibrium coefficients, or ``omega > |mu|`` for the
    underdamped propagator) are enforced by the operations that rely on
    them, not here.
    """

    lam: float
    mu: float = 0.0
    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        _require_positive("lam", self.lam)
        _require_finite("mu", self.mu)
        _require_positive("m", self.m)
        _require_positive("omega", self.omega)
        _require_positive("hbar", self.hbar)

    @property
    def effective_frequency(self) -> float:
        """Oscillation frequency sqrt(omega**2 - mu**2) of the damped motion."""
        arg = self.omega**2 - self.mu**2
        if arg <= 0.0:
            raise ParameterError(
                f"need omega > |mu| for oscillatory dynamics, got omega={self.omega}, mu={self.mu}"
            )
        return math.sqrt(arg)


@dataclass(frozen=True)
class ThermalParams:
    """Bath temperature expressed through C = coth(hbar*omega / (2*k*T)).

    C = 1 is exactly T = 0; there is no upper bound but C must be finite.
    """

    C: float = 1.0

    def __post_init__(self):
        _require_finite("C", self.C)
        if self.C < 1.0:
            raise ParameterError(f"C = coth(...) must be >= 1, got {self.C!r}")

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "ThermalParams":
        """Build from epsilon = hbar*omega / (2*k*T) > 0 via C = coth(epsilon)."""
        if not epsilon > 0.0:
            raise ParameterError(f"epsilon must be > 0, got {epsilon!r}")
        return cls(C=1.0 / math.tanh(epsilon))


@dataclass(frozen=True)
class SingleModeEnv:
    """Diffusion coefficients of a single-mode environment.

    ``Dxx`` and ``Dpp`` drive diffusion in coordinate and momentum,
    ``Dxp`` is the anomalous cross coefficient.  The complete-positivity
    constraint Dxx*Dpp - Dxp**2 >= (lam*hbar/2)**2 is checked by
    :func:`validate_single_mode`, not at construction.
    """

    Dxx: float
    Dpp: float
    Dxp: float
    lam: float
    mu: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("Dxx", "Dpp", "Dxp", "mu"):
            _require_finite(name, getattr(self, name))
        _require_positive("lam", self.lam)
        _require_positive("hbar", self.hbar)


@dataclass(frozen=True)
class TwoModeEnvironment:
    """Diffusion coefficients of a common environment for two oscillators.

    Own-mode coefficients (Dxx, Dxpx, Dpxpx) and (Dyy, Dypy, Dpypy) play
    the single-mode role for each oscillator; the cross coefficients
    (Dxy, Dxpy, Dypx, Dpxpy) encode the environment-induced coupling.
    :attr:`symmetric` tells whether they form the mirror-symmetric family
    Dxx = Dyy, Dxpx = Dypy, Dpxpx = Dpypy, Dxpy = Dypx, for which the
    asymptotic covariance has equal one-mode blocks and a symmetric cross
    block.
    """

    Dxx: float
    Dxpx: float
    Dpxpx: float
    Dyy: float
    Dypy: float
    Dpypy: float
    Dxy: float
    Dxpy: float
    Dypx: float
    Dpxpy: float
    lam: float

    def __post_init__(self):
        for name in ("Dxx", "Dxpx", "Dpxpx", "Dyy", "Dypy", "Dpypy",
                     "Dxy", "Dxpy", "Dypx", "Dpxpy"):
            _require_finite(name, getattr(self, name))
        _require_positive("lam", self.lam)

    @property
    def symmetric(self) -> bool:
        """The four mirror pairs agree up to the scale of their eight
        coefficients (:func:`negligible`)."""
        pairs = [(self.Dxx, self.Dyy), (self.Dxpx, self.Dypy),
                 (self.Dpxpx, self.Dpypy), (self.Dxpy, self.Dypx)]
        scale = max(1.0, *(abs(v) for pair in pairs for v in pair))
        return all(negligible(a - b, scale) for a, b in pairs)

    @classmethod
    def symmetric_env(cls, Dxx: float, Dxpx: float, Dpxpx: float,
                      Dxy: float, Dxpy: float, Dpxpy: float,
                      lam: float) -> "TwoModeEnvironment":
        """Build a mirror-symmetric environment from its six free coefficients."""
        return cls(Dxx=Dxx, Dxpx=Dxpx, Dpxpx=Dpxpx,
                   Dyy=Dxx, Dypy=Dxpx, Dpypy=Dpxpx,
                   Dxy=Dxy, Dxpy=Dxpy, Dypx=Dxpy, Dpxpy=Dpxpy,
                   lam=lam)

    def swapped(self) -> "TwoModeEnvironment":
        """Exchange the roles of the two oscillators (x <-> y, p_x <-> p_y)."""
        return replace(self, Dxx=self.Dyy, Dxpx=self.Dypy, Dpxpx=self.Dpypy,
                       Dyy=self.Dxx, Dypy=self.Dxpx, Dpypy=self.Dpxpx,
                       Dxpy=self.Dypx, Dypx=self.Dxpy)


@dataclass(frozen=True)
class GaussianState1D:
    """First and second moments of a one-mode Gaussian state."""

    sxx: float
    sxp: float
    spp: float
    mean_x: float = 0.0
    mean_p: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("sxp", "mean_x", "mean_p"):
            _require_finite(name, getattr(self, name))
        _require_positive("hbar", self.hbar)
        for name in ("sxx", "spp"):
            v = _require_finite(name, getattr(self, name))
            if v <= 0.0:
                raise StateError(f"{name} must be > 0, got {v!r}")

    @property
    def det(self) -> float:
        """Determinant sxx*spp - sxp**2 of the covariance matrix."""
        return self.sxx * self.spp - self.sxp**2

    def covariance(self) -> np.ndarray:
        return np.array([[self.sxx, self.sxp], [self.sxp, self.spp]])


@dataclass(frozen=True)
class ValidationCheck:
    """Outcome of one inequality: slack = lhs - rhs, passed iff slack >= -tol."""

    name: str
    passed: bool
    slack: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.name} slack={self.slack:+.14e}"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ValidationCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]

    def __str__(self) -> str:
        return "\n".join(self.lines())


@np.errstate(over="ignore")  # an overflowing coefficient is inf, which the checks fail
def gibbs_diffusion(params: OscillatorParams, C):
    """Dxx = (lam - mu)/2 * hbar/(m*omega) * C and Dpp = (lam + mu)/2 *
    hbar*m*omega * C of the thermal (Gibbs) environment, whose Dxp is 0, at
    C a float or an array.

    Raises
    ------
    ParameterError
        If ``lam <= mu`` (no thermal equilibrium in that regime).
    """
    if params.lam <= params.mu:
        raise ParameterError(
            f"thermal coefficients need lam > mu, got lam={params.lam}, mu={params.mu}"
        )
    scale = params.hbar * C
    return (0.5 * (params.lam - params.mu) * scale / (params.m * params.omega),
            0.5 * (params.lam + params.mu) * scale * params.m * params.omega)


def gibbs_coefficients(params: OscillatorParams, thermal: ThermalParams) -> SingleModeEnv:
    """The environment whose stationary state is the thermal (Gibbs) state:
    :func:`gibbs_diffusion` at ``thermal.C``, with Dxp = 0."""
    Dxx, Dpp = gibbs_diffusion(params, thermal.C)
    return SingleModeEnv(Dxx=Dxx, Dpp=Dpp, Dxp=0.0, lam=params.lam, mu=params.mu,
                         hbar=params.hbar)


def not_negative(value, magnitude):
    """value >= 0 passes unless value < -SCORE_RTOL * magnitude (see the
    tolerance policy); a non-finite value passes.  Floats or arrays."""
    return np.logical_not(value < -SCORE_RTOL * magnitude)


def _report(values, passed) -> ValidationReport:
    """The report of :func:`bona_fide_checks`' leading values and flags, one
    line per check named from ``INVARIANTS``; a non-finite value fails too."""
    return ValidationReport(tuple(
        ValidationCheck(name, bool(ok) and math.isfinite(value), float(value))
        for name, ok, value in zip(INVARIANTS, passed, values)))


def diffusion_matrix(env: TwoModeEnvironment) -> np.ndarray:
    """Symmetric diffusion matrix in (x, p_x, y, p_y) ordering; its complete
    positivity is reported by :func:`validate_two_mode`, not enforced.  The
    ten coefficients of ``env`` may be arrays that broadcast together,
    giving a (..., 4, 4) stack."""
    e = env
    return stack_blocks((e.Dxx, e.Dxpx, e.Dxpx, e.Dpxpx), (e.Dyy, e.Dypy, e.Dypy, e.Dpypy),
                        (e.Dxy, e.Dxpy, e.Dypx, e.Dpxpy))


#: The invariants of :func:`entry_invariants`, in its order; the first five
#: are the bona fide checks of value >= 0.
INVARIANTS = ("sigma_xx_positive", "det_a_at_least_quarter", "minor_3_positive",
              "delta_at_least_half", "uncertainty_relation", "simon_score")


@np.errstate(over="ignore", invalid="ignore")  # overflow gives a non-finite value: unresolved
def entry_invariants(a, b, c, sign: float = -1.0, which: str = "all"):
    """sigma_00, det A - 1/4, the leading 3x3 minor, Delta - 1/2, U and S of
    a two-mode covariance sigma given by the entries of its blocks A =
    sigma[:2, :2], B = sigma[2:, 2:] and C = sigma[:2, 2:], written out with
    the symplectic form J = [[0, 1], [sign, 0]].  Each block is a tuple
    (x00, x01, x10, x11) of floats or arrays that broadcast together.

    ``which`` = "all" gives the six ``INVARIANTS`` as a tuple, "checks" the
    first five (the bona fide checks) as a tuple, and "score" S alone.

    sign = -1 gives the invariants.  On the magnitudes of the entries,
    sign = +1 gives each one's magnitude sum: the invariant with every entry
    and every sign replaced by its magnitude, from the same products.
    """
    (a00, a01, a10, a11), (b00, b01, b10, b11), (c00, c01, c10, c11) = a, b, c
    # U = A J C and V = B J C^T; J on the right swaps the columns and
    # multiplies the new first one by sign
    u00, u01 = sign * a01 * c00 + a00 * c10, sign * a01 * c01 + a00 * c11
    u10, u11 = sign * a11 * c00 + a10 * c10, sign * a11 * c01 + a10 * c11
    v00, v01 = sign * b01 * c00 + b00 * c01, sign * b01 * c10 + b00 * c11
    v10, v11 = sign * b11 * c00 + b10 * c01, sign * b11 * c10 + b10 * c11
    cross = sign * (u01 * v01 + u10 * v10) + u00 * v11 + u11 * v00  # sign * Tr(U J V J)
    det_a, det_b = a00 * a11 + sign * a01 * a10, b00 * b11 + sign * b01 * b10
    det_c = c00 * c11 + sign * c01 * c10
    head, quarter = det_a * det_b, sign * 0.25 * (det_a + det_b)
    # x * x, not x ** 2: a numpy scalar's ** 2 is C's pow, which can round
    # differently from an array's exact square
    if which != "checks":
        base = 0.25 + sign * np.abs(det_c)
        score = head + base * base + cross + quarter
        if which == "score":
            return score
    # the leading 3x3 block is [[a00, a01, c00], [a10, a11, c10], [c00, c10, b00]]
    minor_3 = (a00 * (a11 * b00 + sign * c10 * c10) + sign * a01 * (a10 * b00 + sign * c10 * c00)
               + c00 * (a10 * c10 + sign * a11 * c00))
    base = 0.25 + sign * det_c
    checks = (a00, det_a + sign * 0.25, minor_3, det_a + det_b + 2.0 * det_c + sign * 0.5,
              head + base * base + cross + quarter)
    return checks if which == "checks" else checks + (score,)


@np.errstate(over="ignore", invalid="ignore")  # overflow gives a non-finite value: unresolved
def axis_factors(a, c, sign: float = -1.0, which: str = "score"):
    """:func:`entry_invariants` of a covariance with B = A, A symmetric, as
    sums of products of a factor of A's entries and one of C's.  A is given
    as (a00, a01, a11) and C as (c00, c01, c10, c11), floats or arrays that
    broadcast together.

    Each invariant comes as a pair (alpha, gamma) of tuples of factors, A's
    and C's, and is :func:`sum_products` (alpha, gamma); a term of one block
    alone has the factor 1.0 on the other.  S is det A det B - (det A +
    det B)/4 + (1/4 - |det C|)^2 + sum_k alpha_k gamma_k: the trace term of
    :func:`entry_invariants` expanded over the six monomials alpha_k of A's
    entries, each times a quadratic gamma_k of C's.  U is S with det C for
    |det C|.  ``which`` = "score" gives S's pair alone, "checks" the pairs of
    the five checks, of which sigma_00 and det A - 1/4 have A's factors
    alone.  As in :func:`entry_invariants`, sign = +1 on the magnitudes of
    the entries gives the magnitude sums, from the same products.
    """
    a00, a01, a11 = a
    c00, c01, c10, c11 = c
    det_a, det_c = a00 * a11 + sign * a01 * a01, c00 * c11 + sign * c01 * c10
    head = det_a * det_a + sign * 0.5 * det_a
    c_sum = c01 + c10
    # the terms in their order of summation: in the scan's D/lam, whose A has
    # a01 = 0 and whose C has the same corner entries at every node, the first
    # two products lie on the Dxx axis and the next two on the Dxpy axis, and
    # their sums stay there.  A scalar a01 = 0 makes the a00 a01 and a01 a11
    # terms zeros, each summed first with a neighbour: left out, they leave
    # every sum's bits as they were
    cross = np.ndim(a01) > 0 or a01 != 0.0
    alpha = (a00 * a00, a11 * a11, a01 * a01, 1.0, a00 * a11,
             *((a00 * a01, a01 * a11) if cross else ()), head)

    def with_base(det):  # S with |det C| for det, U with det C
        base = 0.25 + sign * det
        return alpha, (sign * c11 * c11, sign * c00 * c00, 2.0 * sign * (c00 * c11 + c01 * c10),
                       base * base, sign * (c01 * c01 + c10 * c10),
                       *((2.0 * c11 * c_sum, 2.0 * c00 * c_sum) if cross else ()), 1.0)

    if which == "score":
        return (with_base(np.abs(det_c)),)
    return (((a00,), (1.0,)), ((det_a + sign * 0.25,), (1.0,)),
            ((a00 * det_a, a11, a01, a00),
             (1.0, sign * c00 * c00, 2.0 * c00 * c10, sign * c10 * c10)),
            ((det_a + det_a, 1.0), (1.0, 2.0 * det_c + sign * 0.5)),
            with_base(det_c))


def sum_products(alpha, gamma):
    """sum_k alpha_k gamma_k over factors that broadcast together, in a fixed
    order: the products, then pairwise sums, ceil(log2 k) deep.  Overflow is
    reported as numpy's error state says: a caller that takes a non-finite
    sum as unresolved sets it."""
    terms = [x * y for x, y in zip(alpha, gamma, strict=True)]
    while len(terms) > 1:
        terms = [x + y for x, y in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    return terms[0]


def entry_invariants_and_sums(a, b, c, which: str):
    """:func:`entry_invariants` of the block entries and the magnitude sums
    of the same invariants, as (values, sums)."""
    magnitudes = ([np.abs(x) for x in block] for block in (a, b, c))
    return entry_invariants(a, b, c, -1.0, which), entry_invariants(*magnitudes, 1.0, which)


def block_entries(block: np.ndarray):
    """The entries (x00, x01, x10, x11) of a 2x2 matrix or a (..., 2, 2)
    stack, as views: one block in the form :func:`entry_invariants` takes."""
    return block[..., 0, 0], block[..., 0, 1], block[..., 1, 0], block[..., 1, 1]


def covariance_blocks(sigma: np.ndarray):
    """The entries of A, B and C of a (..., 4, 4) stack, each block a tuple
    (x00, x01, x10, x11) of views, as :func:`entry_invariants` takes them."""
    return (block_entries(sigma[..., :2, :2]), block_entries(sigma[..., 2:, 2:]),
            block_entries(sigma[..., :2, 2:]))


def stack_blocks(a, b, c) -> np.ndarray:
    """The inverse of :func:`covariance_blocks`: sigma in (x, p_x, y, p_y)
    ordering, [[A, C], [C^T, B]], from blocks given as tuples (x00, x01,
    x10, x11) of floats or arrays that broadcast, as a (..., 4, 4) stack."""
    (a00, a01, a10, a11), (b00, b01, b10, b11), (c00, c01, c10, c11) = a, b, c
    entries = np.broadcast_arrays(a00, a01, c00, c01, a10, a11, c10, c11,
                                  c00, c10, b00, b01, c01, c11, b10, b11)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (4, 4))


def _checks(values, sums) -> tuple[np.ndarray, np.ndarray]:
    """Bona fide checks stacked on a last axis, with their pass flags."""
    values = np.stack(values, axis=-1)
    return values, not_negative(values, np.stack(sums, axis=-1))


def bona_fide_checks(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and pass flag, (..., 5) each, of the first five ``INVARIANTS``
    of a (..., 4, 4) stack: sigma + (i/2) Omega >= 0 where all pass."""
    return _checks(*entry_invariants_and_sums(*covariance_blocks(sigma), "checks"))


def one_mode_checks(Dxx, Dpp, Dxp, lam, hbar) -> tuple[np.ndarray, np.ndarray]:
    """Value and pass flag, (..., 2) each, of the first two
    :func:`bona_fide_checks` of D1 (+) D1 / (hbar lam), D1 = [[Dxx, Dxp],
    [Dxp, Dpp]], the arguments broadcasting together.  The other three are
    sigma_xx det A, 2 (det A - 1/4) and (det A - 1/4)^2, so D1 is completely
    positive exactly where both pass; a non-finite value fails."""
    xx, pp, xp = np.broadcast_arrays(*(d / (hbar * lam) for d in (Dxx, Dpp, Dxp)))
    one = (xx, xp, xp, pp)
    values, sums = entry_invariants_and_sums(one, one, (0.0, 0.0, 0.0, 0.0), "checks")
    values, passed = _checks(values[:2], sums[:2])
    return values, passed & np.isfinite(values)


def validate_single_mode(env: SingleModeEnv) -> ValidationReport:
    """Check complete positivity of the one-mode environment: the two
    :func:`one_mode_checks` of its D/(hbar lam), each with its invariant as
    the slack.  On thermal coefficients, det A - 1/4 is
    ((lam^2 - mu^2) C^2 - lam^2) / (4 lam^2)."""
    return _report(*one_mode_checks(env.Dxx, env.Dpp, env.Dxp, env.lam, env.hbar))


def validate_two_mode(env: TwoModeEnvironment, hbar: float = 1.0) -> ValidationReport:
    """Check complete positivity of the two-mode environment: the five
    :func:`bona_fide_checks` of D/(hbar lam), D being :func:`diffusion_matrix`,
    each with its invariant as the slack; a non-finite one fails."""
    return _report(*bona_fide_checks(diffusion_matrix(env) / (hbar * env.lam)))


def require_coherent_state_params(delta: float, r: float):
    """Require a finite squeezing delta > 0 and a finite correlation |r| < 1."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ParameterError(f"delta must be > 0, got {delta!r}")
    if not (math.isfinite(r) and abs(r) < 1.0):
        raise ParameterError(f"correlation r must satisfy |r| < 1, got {r!r}")


def correlated_coherent_state(delta: float, r: float, params: OscillatorParams,
                              x0: float = 0.0, p0: float = 0.0) -> GaussianState1D:
    """Minimum-uncertainty Gaussian with squeezing ``delta`` and correlation ``r``.

    sxx = hbar*delta / (2*m*omega),
    spp = hbar*m*omega / (2*delta*(1 - r**2)),
    sxp = hbar*r / (2*sqrt(1 - r**2)).

    The covariance determinant equals hbar**2/4 identically; delta = 1 and
    r = 0 give the ordinary (Glauber) coherent state.
    """
    require_coherent_state_params(delta, r)
    hbar, m, omega = params.hbar, params.m, params.omega
    return GaussianState1D(
        sxx=hbar * delta / (2.0 * m * omega),
        sxp=hbar * r / (2.0 * math.sqrt(1.0 - r * r)),
        spp=hbar * m * omega / (2.0 * delta * (1.0 - r * r)),
        mean_x=float(x0),
        mean_p=float(p0),
        hbar=hbar,
    )
