"""Principal eigenvalues on (0, ell) and the critical lengths.

The eigenproblem is

    -phi'' + beta*phi' - m*phi = zeta*phi,   0 < x < ell,
    a*phi(0) - b*phi'(0) = 0,                phi(ell) = 0,

with m = f'(0).  Substituting phi = exp(beta*x/2) * psi removes the drift:

    -psi'' = s*psi,   s = zeta + m - beta^2/4,
    (a - b*beta/2) * psi(0) = b * psi'(0),   psi(ell) = 0,

so zeta1 = s1 + beta^2/4 - m where s1 is the principal value of the
transformed Robin-Dirichlet problem.  s1 solves a transcendental equation
with a trigonometric branch (s1 > 0) and, when the effective Robin weight
A = a - b*beta/2 is negative, a hyperbolic branch (s1 < 0) carrying a
boundary-trapped mode.  Both branches are handled.

The critical lengths are the zero crossings

    zeta1(l_star) = 0        (with advection beta),
    gamma1(l_substar) = -beta^2/4   (gamma1 = zeta1 at beta = 0),

which exist for |beta| < c0 = 2*sqrt(m) because zeta1 is strictly
decreasing in ell from +inf.  For b = 0 both equal 2*pi/sqrt(c0^2-beta^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NoCriticalLength, NumericalError, _require_finite

__all__ = [
    "EigenProblem",
    "EigenResult",
    "principal_eigenvalue",
    "critical_length",
    "critical_length_no_advection",
]

_LMAX = 1e4


@dataclass(frozen=True)
class EigenProblem:
    ell: float
    beta: float
    a: float
    b: float
    m: float

    def __post_init__(self):
        _require_finite(ell=self.ell, beta=self.beta, a=self.a, b=self.b, m=self.m)
        if self.ell <= 0.0:
            raise ValueError("ell must be positive")
        if self.a < 0.0 or self.b < 0.0 or self.a + self.b <= 0.0:
            raise ValueError("need a, b >= 0 with a + b > 0")
        if self.m <= 0.0:
            raise ValueError("m = f'(0) must be positive")


@dataclass(frozen=True)
class EigenResult:
    zeta1: float
    x: np.ndarray
    eigenfunction: np.ndarray


def _transformed_s1(ell: float, A: float, b: float) -> float:
    """Principal s of -psi'' = s*psi, A*psi(0) = b*psi'(0), psi(ell) = 0."""
    if b == 0.0:
        k = np.pi / ell
        return k * k

    if A == 0.0:
        k = np.pi / (2.0 * ell)
        return k * k

    if A > 0.0:
        # psi = b cos(kx) + (A/k) sin(kx) stays positive up to its first
        # zero at k*ell = pi/2 + arctan(A/(b k)); the root lies in
        # (pi/(2 ell), pi/ell).  arctan2 keeps the b*k -> 0 underflow limit
        # exact (Dirichlet recovery).
        def g(k):
            return k * ell - np.pi / 2.0 - np.arctan2(A, b * k)

        # right endpoint padded past pi/ell: for b -> 0 the root sits at
        # pi/ell itself and rounding of k*ell can leave g(pi/ell) < 0
        k1 = brentq(g, np.pi / (2.0 * ell) * (1.0 - 1e-12),
                    (np.pi + 1e-9) / ell, xtol=1e-15, maxiter=200)
        return k1 * k1

    # A < 0: boundary parameter pulls the mode down; hyperbolic when
    # ell*|A| > b, linear exactly at ell*|A| = b, trigonometric below.
    absA = -A
    t = ell * absA / b
    if abs(t - 1.0) < 1e-13:
        return 0.0
    if t > 1.0:
        # tanh(kappa*ell) = b*kappa/|A| with kappa in (0, |A|/b).
        def gh(kappa):
            return np.tanh(kappa * ell) - b * kappa / absA

        hi = absA / b * (1.0 - 1e-15)
        if gh(hi) >= 0.0:
            # tanh saturated to 1 in double precision: the root sits within
            # ulps of |A|/b (the infinite-interval boundary-trapped mode)
            kappa = absA / b
            return -kappa * kappa
        lo = min(1.0 / ell, absA / b) * 1e-3
        while gh(lo) <= 0.0:
            lo *= 0.1
            if lo < 1e-300:
                return 0.0
        kappa = brentq(gh, lo, hi, xtol=1e-15, maxiter=200)
        return -kappa * kappa

    # Trigonometric with first zero before the quarter period:
    # k*ell = arctan(b*k/|A|).
    def gt(k):
        return k * ell - np.arctan2(b * k, absA)

    hi = (np.pi / 2.0 + 1.0) / ell
    lo = min(absA / b, 1.0 / ell) * 1e-3
    while gt(lo) >= 0.0:
        lo *= 0.1
        if lo < 1e-300:
            return 0.0
    k1 = brentq(gt, lo, hi, xtol=1e-15, maxiter=200)
    return k1 * k1


def _zeta1(ell: float, beta: float, a: float, b: float, m: float) -> float:
    s1 = _transformed_s1(ell, a - b * beta / 2.0, b)
    return s1 + beta * beta / 4.0 - m


def _eigenfunction(ell, beta, a, b, s1, n_min=801):
    """Sampled positive eigenfunction, max-normalized.

    The sample count is chosen so that the second-order finite-difference
    residual of the sampled profile stays below 1e-6 in sup norm.
    """
    A = a - b * beta / 2.0
    # Derivative growth rate of phi = exp(beta x/2) psi.
    rate = abs(beta) / 2.0 + np.sqrt(abs(s1))
    c_res = rate**4 / 12.0 + abs(beta) * rate**3 / 6.0 + 1.0
    dx = np.sqrt(2e-7 / c_res)
    n = int(np.clip(np.ceil(ell / dx) + 1, n_min, 400001))
    x = np.linspace(0.0, ell, n)

    if b == 0.0:
        psi = np.sin(np.sqrt(s1) * x)
    elif s1 > 0.0:
        k = np.sqrt(s1)
        psi = b * np.cos(k * x) + (A / k) * np.sin(k * x)
    elif s1 == 0.0:
        psi = b + A * x
    else:
        kap = np.sqrt(-s1)
        psi = b * np.cosh(kap * x) + (A / kap) * np.sinh(kap * x)

    phi = np.exp(beta * x / 2.0) * psi
    phi[-1] = 0.0
    phi /= np.max(np.abs(phi))
    if phi[len(phi) // 2] < 0.0:
        phi = -phi
    return x, phi


def principal_eigenvalue(p: EigenProblem) -> EigenResult:
    """Smallest eigenvalue, with its sign-definite eigenfunction."""
    s1 = _transformed_s1(p.ell, p.a - p.b * p.beta / 2.0, p.b)
    zeta1 = s1 + p.beta * p.beta / 4.0 - p.m
    x, phi = _eigenfunction(p.ell, p.beta, p.a, p.b, s1)
    return EigenResult(zeta1=zeta1, x=x, eigenfunction=phi)


def _bracketed_length_root(g, what: str) -> float:
    lo = 1e-3
    if g(lo) <= 0.0:
        lo = 1e-6
        if g(lo) <= 0.0:
            raise NumericalError(f"{what}: no positive value at the short end")
    hi = max(1.0, 2.0 * lo)
    while g(hi) >= 0.0:
        hi *= 2.0
        if hi > _LMAX:
            raise NumericalError(f"{what}: no sign change below L_max={_LMAX:g}")
    root = brentq(g, lo, hi, xtol=1e-13, maxiter=200)
    if abs(g(root)) > 1e-10:
        raise NumericalError(f"{what}: residual {g(root):.3e} exceeds 1e-10")
    return root


def critical_length(beta: float, a: float, b: float, m: float) -> float:
    """Length l_star with zeta1(l_star) = 0.  Needs |beta| < 2*sqrt(m)."""
    _require_finite(beta=beta, a=a, b=b, m=m)
    c0 = 2.0 * np.sqrt(m)
    if abs(beta) >= c0:
        raise NoCriticalLength(
            f"|beta|={abs(beta):g} >= c0={c0:g}: zeta1 never crosses zero")
    return _bracketed_length_root(lambda L: _zeta1(L, beta, a, b, m), "l_star")


def critical_length_no_advection(beta: float, a: float, b: float, m: float) -> float:
    """Length l_substar with gamma1(l_substar) = -beta^2/4.

    gamma1 is the principal eigenvalue of the advection-free problem;
    the offset -beta^2/4 restores the drift contribution.
    """
    _require_finite(beta=beta, a=a, b=b, m=m)
    c0 = 2.0 * np.sqrt(m)
    if abs(beta) >= c0:
        raise NoCriticalLength(
            f"|beta|={abs(beta):g} >= c0={c0:g}: gamma1 never reaches -beta^2/4")
    shift = beta * beta / 4.0
    return _bracketed_length_root(
        lambda L: _zeta1(L, 0.0, a, b, m) + shift, "l_substar")
