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
    "gibbs_coefficients",
    "validate_single_mode",
    "validate_two_mode",
    "correlated_coherent_state",
    "gram_matrices",
    "gram_checks",
]

# Tolerance policy.  Every float comparison against a tolerance in the
# package takes its tolerance from this block; no other module holds one.
#
# * Equal up to the input's scale: two quantities built from the same
#   inputs agree when they differ by at most SCALE_RTOL times the input's
#   scale, max(1, |inputs|) (:func:`negligible`).  This rule checks the
#   ``symmetric`` flag of TwoModeEnvironment, the symmetry of covariance
#   matrices, Dxp = 0 of Gibbs-type coefficients and the constraints of the
#   closed-form separability family.
# * GIBBS_RTOL: the looser rule for the product of Gibbs-type coefficients,
#   Dxx*Dpp = (lam^2 - mu^2) hbar^2 C^2 / 4, whose two sides come from
#   different formulas.
# * PSD_RTOL: the minimum eigenvalue of a Gram matrix passes at
#   >= -PSD_RTOL * max|G| of its own matrix.
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
#   |fl(S) - S| <= 10 (eps/2) Sigma = 5 eps Sigma.
#   The matrix is rounded too: a relative error eta in each entry moves a
#   product of four entries by at most 4 eta of its size, and
#   SCORE_RTOL = 32 eps leaves eta up to (32 - 5)/4 = 6.75 eps.  On both
#   edges of the entanglement window, against a 60-digit reference, S of
#   either route to the asymptotic covariance stayed within 1.27 eps Sigma.
#   Where |S| <= SCORE_RTOL * Sigma, or S is not finite, the sign of S is
#   not resolved and the verdict is "boundary".  Two routes to S (the closed
#   form has its own Sigma) agree when they differ by at most the sum of
#   their bounds.  ``separability.simon_verdicts`` is the one place S meets
#   this rule; a window node of ``scan_separability`` with a "boundary"
#   verdict is "boundary-indeterminate", the scan's only unresolved status.
SCALE_RTOL = 1e-12
GIBBS_RTOL = 1e-9
PSD_RTOL = 1e-10
SCORE_RTOL = 32 * np.finfo(float).eps


def negligible(x: float, scale: float, rtol: float = SCALE_RTOL) -> bool:
    """|x| is zero up to ``rtol`` times ``scale`` (see the tolerance policy)."""
    return abs(x) <= rtol * scale


#: Grid nodes go through the stacked kernels, and CSV rows through
#: rendering, this many at a time; this bounds the memory their
#: temporaries take on large grids.
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
    ``symmetric`` asserts the mirror-symmetric family Dxx = Dyy,
    Dxpx = Dypy, Dpxpx = Dpypy, Dxpy = Dypx, for which the asymptotic
    covariance has equal one-mode blocks and a symmetric cross block.
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
    symmetric: bool = False

    def __post_init__(self):
        for name in ("Dxx", "Dxpx", "Dpxpx", "Dyy", "Dypy", "Dpypy",
                     "Dxy", "Dxpy", "Dypx", "Dpxpy"):
            _require_finite(name, getattr(self, name))
        _require_positive("lam", self.lam)
        if self.symmetric:
            scale = max(1.0, *(abs(getattr(self, n)) for n in
                               ("Dxx", "Dyy", "Dxpx", "Dypy", "Dpxpx", "Dpypy", "Dxpy", "Dypx")))
            for a, b in (("Dxx", "Dyy"), ("Dxpx", "Dypy"),
                         ("Dpxpx", "Dpypy"), ("Dxpy", "Dypx")):
                if not negligible(getattr(self, a) - getattr(self, b), scale):
                    raise ParameterError(
                        f"symmetric flag set but {a} != {b}: "
                        f"{getattr(self, a)!r} vs {getattr(self, b)!r}"
                    )

    @classmethod
    def symmetric_env(cls, Dxx: float, Dxpx: float, Dpxpx: float,
                      Dxy: float, Dxpy: float, Dpxpy: float,
                      lam: float) -> "TwoModeEnvironment":
        """Build a mirror-symmetric environment from its six free coefficients."""
        return cls(Dxx=Dxx, Dxpx=Dxpx, Dpxpx=Dpxpx,
                   Dyy=Dxx, Dypy=Dxpx, Dpypy=Dpxpx,
                   Dxy=Dxy, Dxpy=Dxpy, Dypx=Dxpy, Dpxpy=Dpxpy,
                   lam=lam, symmetric=True)

    def coefficient_matrix(self, hbar: float = 1.0) -> np.ndarray:
        """Hermitian 4x4 matrix of environment scalar products (Gram matrix).

        Complete positivity of the dynamical semigroup is equivalent to
        this matrix being positive semidefinite.
        """
        return gram_matrices(self.Dxx, self.Dxpx, self.Dpxpx, self.Dyy, self.Dypy,
                             self.Dpypy, self.Dxy, self.Dxpy, self.Dypx, self.Dpxpy,
                             self.lam, hbar)

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


def gibbs_coefficients(params: OscillatorParams, thermal: ThermalParams) -> SingleModeEnv:
    """Diffusion coefficients whose stationary state is the thermal (Gibbs) state.

    Dxx = (lam - mu)/2 * hbar/(m*omega) * C,
    Dpp = (lam + mu)/2 * hbar*m*omega * C,
    Dxp = 0.

    Raises
    ------
    ParameterError
        If ``lam <= mu`` (no thermal equilibrium in that regime).
    """
    if params.lam <= params.mu:
        raise ParameterError(
            f"thermal coefficients need lam > mu, got lam={params.lam}, mu={params.mu}"
        )
    scale = params.hbar * thermal.C
    return SingleModeEnv(
        Dxx=0.5 * (params.lam - params.mu) * scale / (params.m * params.omega),
        Dpp=0.5 * (params.lam + params.mu) * scale * params.m * params.omega,
        Dxp=0.0,
        lam=params.lam,
        mu=params.mu,
        hbar=params.hbar,
    )


def _is_gibbs_type(env: SingleModeEnv, thermal: ThermalParams) -> bool:
    # Gibbs coefficients satisfy Dxp = 0 and Dxx*Dpp = (lam^2-mu^2) hbar^2 C^2 / 4
    # for any m, omega (the masses cancel in the product).
    target = 0.25 * (env.lam**2 - env.mu**2) * env.hbar**2 * thermal.C**2
    prod = env.Dxx * env.Dpp
    scale = max(1.0, abs(prod), abs(target))
    return negligible(env.Dxp, scale) and negligible(prod - target, scale, GIBBS_RTOL)


def validate_single_mode(env: SingleModeEnv, thermal: ThermalParams | None = None) -> ValidationReport:
    """Check the single-mode diffusion coefficients against their constraints.

    Always checks Dxx > 0, Dpp > 0 and the complete-positivity bound
    Dxx*Dpp - Dxp**2 >= (lam*hbar/2)**2.  When ``thermal`` is given and
    the coefficients are of thermal-equilibrium type, additionally checks
    (lam**2 - mu**2) * C**2 >= lam**2.
    """
    checks = [
        ValidationCheck("dxx_positive", env.Dxx > 0.0, env.Dxx),
        ValidationCheck("dpp_positive", env.Dpp > 0.0, env.Dpp),
    ]
    slack = env.Dxx * env.Dpp - env.Dxp**2 - 0.25 * env.lam**2 * env.hbar**2
    checks.append(ValidationCheck("fundamental_constraint", slack >= 0.0, slack))
    if thermal is not None and _is_gibbs_type(env, thermal):
        g = (env.lam**2 - env.mu**2) * thermal.C**2 - env.lam**2
        checks.append(ValidationCheck("gibbs_thermal_constraint", g >= 0.0, g))
    return ValidationReport(tuple(checks))


def stack_matrices(rows) -> np.ndarray:
    """Matrices of shape (..., n, n) from n rows of n entries that broadcast together."""
    n = len(rows)
    entries = np.broadcast_arrays(*(entry for row in rows for entry in row))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (n, n))


def gram_matrices(Dxx, Dxpx, Dpxpx, Dyy, Dypy, Dpypy, Dxy, Dxpy, Dypx, Dpxpy,
                  lam, hbar: float = 1.0) -> np.ndarray:
    """Hermitian Gram matrices of environment coefficients, shape (..., 4, 4).

    The coefficients may be arrays; they broadcast against each other.
    See :meth:`TwoModeEnvironment.coefficient_matrix`.
    """
    il = 0.5j * hbar * lam
    return stack_matrices([
        [Dxx, -Dxpx - il, Dxy, -Dxpy],
        [-Dxpx + il, Dpxpx, -Dypx, Dpxpy],
        [Dxy, -Dypx, Dyy, -Dypy - il],
        [-Dxpy, Dpxpy, -Dypy + il, Dpypy],
    ])


#: Names of the Gram checks, in the order of the last axis of ``gram_checks``.
GRAM_CHECKS = ("gram_matrix_psd", "cs_xx_yy", "cs_xx_pxpx", "cs_xx_pypy",
               "cs_yy_pxpx", "cs_yy_pypy", "cs_pxpx_pypy")
_MINOR_I = np.array([0, 0, 0, 1, 2, 1])
_MINOR_J = np.array([2, 1, 3, 2, 3, 3])


def gram_checks(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slack and pass flag of each positivity check of Gram matrices (..., 4, 4).

    Both results have shape (..., 7), ordered as ``GRAM_CHECKS``.  The first
    check is the minimum eigenvalue, which passes at >= -PSD_RTOL * max|G|
    of its own matrix; the other six are the 2x2 principal minors, which
    pass at >= 0.
    """
    min_eig = np.linalg.eigvalsh(gram)[..., 0]
    tol = PSD_RTOL * np.abs(gram).max(axis=(-2, -1))
    a, b = gram[..., _MINOR_I, _MINOR_I], gram[..., _MINOR_J, _MINOR_J]
    c, d = gram[..., _MINOR_I, _MINOR_J], gram[..., _MINOR_J, _MINOR_I]
    # Re(a b - c d) in real arithmetic: numpy's vectorized complex product
    # rounds differently from the scalar one the slacks were defined with.
    minors = (a.real * b.real - a.imag * b.imag) - (c.real * d.real - c.imag * d.imag)
    slack = np.concatenate([min_eig[..., None], minors], axis=-1)
    passed = np.concatenate([(min_eig >= -tol)[..., None], minors >= 0.0], axis=-1)
    return slack, passed


def validate_two_mode(env: TwoModeEnvironment, hbar: float = 1.0) -> ValidationReport:
    """Check positivity of the two-mode environment Gram matrix.

    Reports the minimum eigenvalue of the Hermitian coefficient matrix
    (positive semidefinite for a completely positive semigroup) and the
    six Cauchy-Schwarz minor inequalities it implies.  Pass tolerance for
    the eigenvalue check is relative to the largest matrix entry.  The
    determinant of each 2x2 principal minor is the slack of the
    corresponding coefficient inequality; for the own-mode pairs it
    already carries the (lam*hbar/2)**2 offset through the imaginary
    off-diagonal entries.  :func:`gram_checks` runs the same checks on
    stacks of Gram matrices.
    """
    slack, passed = gram_checks(env.coefficient_matrix(hbar=hbar))
    return ValidationReport(tuple(ValidationCheck(name, bool(ok), float(value))
                                  for name, ok, value in zip(GRAM_CHECKS, passed, slack)))


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
