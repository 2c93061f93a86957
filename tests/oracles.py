"""Independent numerical oracles and random parameter generators.

Nothing here calls the production drift/propagator/Lyapunov code paths:
drift and diffusion matrices are written out literally from the model
coefficients, time evolution is a fixed-step 4th-order Runge-Kutta
integration refined until successive step halvings agree, and positivity
filters diagonalize the environment Gram matrix directly.  The package
decides positivity by sign tests on polynomial invariants; the Gram
matrix's eigenvalues here and the exact ``fractions`` invariants below
are the test-only references it is checked against.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from lindosc import OscillatorParams, ThermalParams, TwoModeEnvironment

RK4_TOL = 1e-9


def rk4_affine(A, b, s0, t_grid, halvings=0):
    """Fixed-step RK4 for ds/dt = A s + b, sampled at t_grid.

    The base step is 1e-3 / max(1, ||A||_inf), divided by 2**halvings,
    and rounded down so it divides each grid interval exactly.  Because
    the right-hand side is affine, the RK4 update over one step is
    exactly the affine map s -> R s + c with
    R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24; composing n identical
    steps is done by binary powering of that map, which reproduces the
    stepped iteration in exact arithmetic.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n_dim = A.shape[0]
    scale = max(1.0, float(np.abs(A).sum(axis=1).max()))
    h_max = 1e-3 / scale / (2 ** halvings)
    eye = np.eye(n_dim)
    s = np.asarray(s0, dtype=float).copy()
    out = [s.copy()]
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        span = float(t1 - t0)
        if span == 0.0:
            out.append(s.copy())
            continue
        n_steps = max(1, int(math.ceil(span / h_max)))
        h = span / n_steps
        hA = h * A
        hA2 = hA @ hA
        hA3 = hA2 @ hA
        R = eye + hA + hA2 / 2.0 + hA3 / 6.0 + hA3 @ hA / 24.0
        c = (h * eye + h * hA / 2.0 + h * hA2 / 6.0 + h * hA3 / 24.0) @ b
        R_acc, c_acc = eye.copy(), np.zeros(n_dim)
        R_pow, c_pow = R, c
        k = n_steps
        while k:
            if k & 1:
                c_acc = R_pow @ c_acc + c_pow
                R_acc = R_pow @ R_acc
            c_pow = R_pow @ c_pow + c_pow
            R_pow = R_pow @ R_pow
            k >>= 1
        s = R_acc @ s + c_acc
        out.append(s.copy())
    return np.array(out)


def rk4_affine_refined(A, b, s0, t_grid, tol=RK4_TOL, max_halvings=8):
    """RK4 integration refined by step halving until two passes agree."""
    prev = None
    for level in range(max_halvings):
        traj = rk4_affine(A, b, s0, t_grid, halvings=level)
        if prev is not None:
            denom = np.maximum(np.abs(traj), 1.0)
            if float(np.max(np.abs(traj - prev) / denom)) <= tol:
                return traj
        prev = traj
    raise AssertionError("RK4 refinement did not converge")


def mean_ode_matrix_1d(lam, mu, m, omega):
    """Literal drift of the first-moment equations for one mode."""
    return np.array([[-(lam - mu), 1.0 / m], [-m * omega**2, -(lam + mu)]])


def covariance_ode_1d(lam, mu, m, omega, Dxx, Dxp, Dpp):
    """Affine system for s = (sxx, sxp, spp): ds/dt = A s + b."""
    A = np.array([
        [-2.0 * (lam - mu), 2.0 / m, 0.0],
        [-m * omega**2, -2.0 * lam, 1.0 / m],
        [0.0, -2.0 * m * omega**2, -2.0 * (lam + mu)],
    ])
    b = np.array([2.0 * Dxx, 2.0 * Dxp, 2.0 * Dpp])
    return A, b


def covariance_ode_two_mode(lam, m, omega, D):
    """Affine system for vec(S): d vec(S)/dt = A vec(S) + b (column stacking)."""
    block = np.array([[-lam, 1.0 / m], [-m * omega**2, -lam]])
    Y = np.zeros((4, 4))
    Y[:2, :2] = block
    Y[2:, 2:] = block
    eye = np.eye(4)
    A = np.kron(eye, Y) + np.kron(Y, eye)
    b = 2.0 * np.asarray(D, dtype=float).flatten(order="F")
    return A, b


def gibbs_diffusion(lam, mu, m, omega, hbar, C):
    """Thermal diffusion coefficients written out independently."""
    Dxx = 0.5 * (lam - mu) * hbar * C / (m * omega)
    Dpp = 0.5 * (lam + mu) * hbar * C * m * omega
    return Dxx, 0.0, Dpp


def initial_moments(delta, r, m, omega, hbar):
    """Minimum-uncertainty second moments written out independently."""
    sxx = hbar * delta / (2.0 * m * omega)
    spp = hbar * m * omega / (2.0 * delta * (1.0 - r * r))
    sxp = hbar * r / (2.0 * math.sqrt(1.0 - r * r))
    return sxx, sxp, spp


def random_gibbs_draw(rng):
    """Random (delta, r, params, thermal) with valid thermal coefficients."""
    lam = rng.uniform(0.1, 0.4)
    mu = rng.uniform(0.0, 0.8) * lam
    omega = rng.uniform(0.6, 1.5)
    delta = rng.uniform(0.5, 5.0)
    r = rng.uniform(-0.8, 0.8)
    c_min = lam / math.sqrt(lam * lam - mu * mu)
    C = rng.uniform(c_min + 0.05, 10.0)
    params = OscillatorParams(lam=lam, mu=mu, m=1.0, omega=omega, hbar=1.0)
    return delta, r, params, ThermalParams(C=C)


def gram_matrices(Dxx, Dxpx, Dpxpx, Dyy, Dypy, Dpypy, Dxy, Dxpy, Dypx, Dpxpy, lam, hbar=1.0):
    """Hermitian Gram matrices of environment coefficients, shape (..., 4, 4),
    written out independently; the coefficients broadcast together.  The
    semigroup is completely positive exactly when the matrix is positive
    semidefinite."""
    il = 0.5j * hbar * np.asarray(lam)
    rows = [
        [Dxx, -Dxpx - il, Dxy, -Dxpy],
        [-Dxpx + il, Dpxpx, -Dypx, Dpxpy],
        [Dxy, -Dypx, Dyy, -Dypy - il],
        [-Dxpy, Dpxpy, -Dypy + il, Dpypy],
    ]
    entries = np.broadcast_arrays(*(np.asarray(e, dtype=complex) for row in rows for e in row))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (4, 4))


def one_mode_gram_matrices(Dxx, Dpp, Dxp, lam, hbar=1.0):
    """Hermitian Gram matrices D - i (hbar lam/2) J of one-mode coefficients,
    shape (..., 2, 2): the first block of :func:`gram_matrices`."""
    return gram_matrices(Dxx, Dxp, Dpp, Dxx, Dxp, Dpp, 0.0, 0.0, 0.0, 0.0, lam, hbar)[..., :2, :2]


def env_gram_matrix(env, hbar=1.0):
    """Gram matrix of one :class:`TwoModeEnvironment`."""
    return gram_matrices(env.Dxx, env.Dxpx, env.Dpxpx, env.Dyy, env.Dypy, env.Dpypy,
                         env.Dxy, env.Dxpy, env.Dypx, env.Dpxpy, env.lam, hbar)


def _gram_matrix(Dxx, Dxpx, Dpxpx, Dxy, Dxpy, Dpxpy, lam):
    """Symmetric-family environment Gram matrix."""
    return gram_matrices(Dxx, Dxpx, Dpxpx, Dxx, Dxpx, Dpxpx, Dxy, Dxpy, Dxpy, Dpxpy, lam)


def gram_verdicts(gram):
    """(positive, resolved) of a stack of Gram matrices: the sign of the
    smallest eigenvalue, resolved where it exceeds 1e-12 of max|G|."""
    min_eig = np.linalg.eigvalsh(gram)[..., 0]
    return min_eig >= 0.0, np.abs(min_eig) > 1e-12 * np.abs(gram).max(axis=(-2, -1))


def _det(m):
    """Determinant of a square list of Fractions, by Laplace expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def exact_invariants(sigma):
    """The invariants of ``core.invariants`` of one 4x4 covariance, exactly:
    the float entries as Fractions, det sigma and the minors by Laplace
    expansion, S = U + min(det C, 0)."""
    s = [[Fraction(float(x)) for x in row] for row in np.asarray(sigma)]
    det_a = _det([row[:2] for row in s[:2]])
    det_b = _det([row[2:] for row in s[2:]])
    det_c = _det([row[2:] for row in s[:2]])
    delta = det_a + det_b + 2 * det_c
    u = _det(s) - delta / 4 + Fraction(1, 16)
    return (s[0][0], det_a - Fraction(1, 4), _det([row[:3] for row in s[:3]]),
            delta - Fraction(1, 2), u, u + min(det_c, 0))


def exact_cross_block_det(env, params):
    """det C of the asymptotic covariance in exact arithmetic on the float
    inputs: Y1 C + C Y1^T = -2 D_C, vectorized by Kronecker product as
    (I (x) Y1 + Y1 (x) I) vec C = -2 vec D_C and solved by Cramer's rule."""
    lam, m, w = (Fraction(x) for x in (params.lam, params.m, params.omega))
    y1 = [[-lam, 1 / m], [-m * w * w, -lam]]
    d_c = [[env.Dxy, env.Dxpy], [env.Dypx, env.Dpxpy]]
    order = [(0, 0), (1, 0), (0, 1), (1, 1)]  # vec: column-major
    kron = [[(y1[i][k] if l == j else 0) + (y1[j][l] if k == i else 0) for k, l in order]
            for i, j in order]
    rhs = [-2 * Fraction(d_c[i][j]) for i, j in order]
    det_k = _det(kron)
    c00, c10, c01, c11 = (_det([row[:n] + [b] + row[n + 1:] for row, b in zip(kron, rhs)])
                          / det_k for n in range(4))
    return c00 * c11 - c01 * c10


def cross_block_det_formula(Dxy, Dxpy, Dpxpy, lam, m=1.0, omega=1.0):
    """Asymptotic cross-block determinant of a mirror-symmetric environment
    (Dypx = Dxpy), written out independently.  Its squares are products:
    Python's float ``**`` calls the C library's pow, which need not round
    x**2 as it rounds x*x."""
    q = lam * lam + omega * omega
    lead = m * omega * omega * Dxy + Dpxpy / m
    return (lead * lead + 4.0 * lam * lam * (Dxy * Dpxpy - Dxpy * Dxpy)) / (4.0 * lam * lam * q)


def random_valid_symmetric_env(rng, require_detc_nonneg=False):
    """Rejection-sample a mirror-symmetric environment with PSD Gram matrix.

    With ``require_detc_nonneg`` the asymptotic cross-block determinant
    (computed from its own closed expression, m = omega = 1) must also
    be >= 0.
    """
    while True:
        lam = rng.uniform(0.05, 0.3)
        Dxx = rng.uniform(0.5 * lam, 2.0)
        Dpxpx = rng.uniform(0.5 * lam, 2.0)
        cap = min(Dxx, Dpxpx)
        Dxpx = rng.uniform(-0.4, 0.4) * cap
        Dxy, Dxpy, Dpxpy = rng.uniform(-0.7, 0.7, 3) * cap
        G = _gram_matrix(Dxx, Dxpx, Dpxpx, Dxy, Dxpy, Dpxpy, lam)
        if np.linalg.eigvalsh(G)[0] < 0.0:
            continue
        if require_detc_nonneg and cross_block_det_formula(Dxy, Dxpy, Dpxpy, lam) < 0.0:
            continue
        return TwoModeEnvironment.symmetric_env(
            Dxx=Dxx, Dxpx=Dxpx, Dpxpx=Dpxpx,
            Dxy=Dxy, Dxpy=Dxpy, Dpxpy=Dpxpy, lam=lam,
        )


def random_special_family_env(rng, m=1.0, omega=1.0, require_detc_nonpos=True):
    """Environment in the closed-form score family, det C <= 0 by default.

    The closed-form score only coincides with the full criterion where
    the cross-block determinant is nonpositive, so dual-path comparisons
    draw from that regime.  Coefficient ratios m*omega*D/lam are kept at
    a few at most, the scale of the entanglement-window physics; the
    resulting scores stay O(100), so absolute comparison tolerances are
    meaningful.
    """
    mw = m * omega
    while True:
        lam = rng.uniform(0.05, 0.4)
        Dxx = rng.uniform(0.1, 3.0) * lam / mw
        Dxy = rng.uniform(-1.5, 1.5) * lam / mw
        Dxpy = rng.uniform(-1.5, 1.5)
        if require_detc_nonpos and cross_block_det_formula(
                Dxy, Dxpy, mw * mw * Dxy, lam, m=m, omega=omega) > 0.0:
            continue
        return TwoModeEnvironment.symmetric_env(
            Dxx=Dxx, Dxpx=0.0, Dpxpx=mw * mw * Dxx,
            Dxy=Dxy, Dxpy=Dxpy, Dpxpy=mw * mw * Dxy, lam=lam,
        )


def random_two_mode_env(rng):
    """Environment with all ten coefficients drawn independently.

    Outside the mirror-symmetric family: the one-mode blocks differ and
    Dxpy != Dypx.  Positivity is not imposed; the Lyapunov solve and the
    propagation need only a Hurwitz drift.
    """
    lam = rng.uniform(0.05, 0.5)
    Dxx, Dpxpx, Dyy, Dpypy = rng.uniform(0.05, 2.0, 4)
    Dxpx, Dypy, Dxy, Dxpy, Dypx, Dpxpy = rng.uniform(-1.0, 1.0, 6)
    return TwoModeEnvironment(Dxx=Dxx, Dxpx=Dxpx, Dpxpx=Dpxpx, Dyy=Dyy, Dypy=Dypy,
                              Dpypy=Dpypy, Dxy=Dxy, Dxpy=Dxpy, Dypx=Dypx, Dpxpy=Dpxpy,
                              lam=lam)


def exact_window_score(m, omega, lam, Dxx, Dxpy, digits=60):
    """Simon score of the asymptotic state of the Dxy = 0 closed-form family,
    factored as ((a - b)^2 - 1/4)((a + b)^2 - 1/4) with a = m w Dxx / lam and
    b = Dxpy / sqrt(lam^2 + w^2), in ``digits``-digit decimal arithmetic on the
    float inputs.  It stands in for exact arithmetic at the window edges,
    where S cancels terms of size a^4."""
    with localcontext() as ctx:
        ctx.prec = digits
        m, omega, lam, Dxx, Dxpy = map(Decimal, (m, omega, lam, Dxx, Dxpy))
        a = m * omega * Dxx / lam
        b = Dxpy / (lam * lam + omega * omega).sqrt()
        quarter = Decimal(1) / 4
        return ((a - b) ** 2 - quarter) * ((a + b) ** 2 - quarter)


def _local_sp2(rng, max_squeeze):
    """Random element of Sp(2): rotation, squeeze, rotation."""
    def rotation(angle):
        return np.array([[math.cos(angle), math.sin(angle)],
                         [-math.sin(angle), math.cos(angle)]])
    r = rng.uniform(-max_squeeze, max_squeeze)
    return (rotation(rng.uniform(0.0, 2.0 * math.pi)) @ np.diag([math.exp(r), math.exp(-r)])
            @ rotation(rng.uniform(0.0, 2.0 * math.pi)))


def random_local_symplectic(rng, max_squeeze=1.0):
    """Random element of Sp(2) + Sp(2) acting on (x, p_x, y, p_y): local
    rotations and squeezers of each mode, squeeze factors up to
    exp(max_squeeze)."""
    S = np.zeros((4, 4))
    S[:2, :2] = _local_sp2(rng, max_squeeze)
    S[2:, 2:] = _local_sp2(rng, max_squeeze)
    return S


def random_physical_covariance(rng):
    """A physical two-mode covariance (hbar = 1): symplectic eigenvalues
    nu_1, nu_2 >= 1/2 transformed by local Sp(2) + Sp(2) maps, a beam
    splitter and a two-mode squeezer, all written out here.  Entangled
    and separable states both occur."""
    nu1, nu2 = rng.uniform(0.5, 2.0, 2)
    I, Z = np.eye(2), np.diag([1.0, -1.0])
    r, theta = rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0 * math.pi)
    two_mode_squeezer = np.block([[math.cosh(r) * I, math.sinh(r) * Z],
                                  [math.sinh(r) * Z, math.cosh(r) * I]])
    beam_splitter = np.block([[math.cos(theta) * I, math.sin(theta) * I],
                              [-math.sin(theta) * I, math.cos(theta) * I]])
    S = (random_local_symplectic(rng) @ beam_splitter @ two_mode_squeezer
         @ random_local_symplectic(rng))
    sigma = S @ np.diag([nu1, nu1, nu2, nu2]) @ S.T
    return 0.5 * (sigma + sigma.T)


def random_window_env(rng):
    """Environment near the Dxy = 0 entanglement window (m = omega = 1) with
    the mirror symmetry broken: own-mode coefficients differ by up to 25%,
    Dxpy and Dypx are drawn apart around the window, and Dxpx, Dypy, Dxy,
    Dpxpy are small.  Many of its asymptotic states are physical and
    entangled, though the environment is not completely positive."""
    lam = rng.uniform(0.05, 0.5)
    a = rng.uniform(0.6, 5.0)
    Dxx = a * lam
    Dpxpx, Dyy, Dpypy = Dxx * rng.uniform(0.8, 1.25, 3)
    Dxpx, Dypy, Dxy, Dpxpy = Dxx * rng.uniform(-0.05, 0.05, 4)
    Dxpy, Dypx = math.sqrt(lam * lam + 1.0) * (a + rng.uniform(-0.6, 0.6, 2))
    return TwoModeEnvironment(Dxx=Dxx, Dxpx=Dxpx, Dpxpx=Dpxpx, Dyy=Dyy, Dypy=Dypy,
                              Dpypy=Dpypy, Dxy=Dxy, Dxpy=Dxpy, Dypx=Dypx, Dpxpy=Dpxpy,
                              lam=lam)
