"""Principal eigenvalues on (0, ell) and the critical lengths.

The eigenproblem is

    -phi'' + beta*phi' - m*phi = zeta*phi,   0 < x < ell,
    a*phi(0) - b*phi'(0) = 0,                phi(ell) = 0,

with m = f'(0).  Substituting phi = exp(beta*x/2) * psi removes the drift:

    -psi'' = s*psi,   s = zeta + m - beta^2/4,
    (a - b*beta/2) * psi(0) = b * psi'(0),   psi(ell) = 0,

so zeta1 = s1 + beta^2/4 - m where s1 is the principal value of the
transformed Robin-Dirichlet problem.  For b = 0, s1 = (pi/ell)^2.  For
b > 0 the principal mode is b cos(kx) + (A/k) sin(kx) with s1 = k^2, or,
when the effective Robin weight A = a - b*beta/2 has ell*A < -b, the
boundary-trapped b cosh(kx) + (A/k) sinh(kx) with s1 = -k^2.  s1 is the
root of one of two secular equations, each divided by its wave number:

    ell - atan2(b*k, -A)/k = 0     (trigonometric, ell*A >= -b),
    tanh(k*ell)/k + b/A = 0        (hyperbolic, ell*A < -b).

For A < 0 both take the value ell + b/A at k = 0, whose sign picks the
equation and brackets its root; for A >= 0 the root lies in
[pi/(2 ell), pi/ell].  No bracket search is needed, and s1 = 0 exactly
where ell*A = -b.

The critical lengths are the zero crossings

    zeta1(l_star) = 0        (with advection beta),
    gamma1(l_substar) = -beta^2/4   (gamma1 = zeta1 at beta = 0),

which exist for |beta| < c0 = 2*sqrt(m) because zeta1 is strictly
decreasing in ell from +inf.  Both fix s1 = m - beta^2/4 = k^2 with

    k = sqrt((c0 - |beta|)(c0 + |beta|))/2 > 0,

so the trigonometric equation, read at that k, gives each in closed form:

    l_star    = atan2(b*k, b*beta/2 - a) / k,
    l_substar = atan2(b*k, -a) / k.

For b = 0 both equal 2*pi/sqrt(c0^2 - beta^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._brentq import brentq
from .errors import NoCriticalLength, NumericalError, _require_finite

__all__ = [
    "EigenProblem",
    "EigenResult",
    "principal_eigenvalue",
    "critical_length",
    "critical_length_no_advection",
]


def _require_admissible(beta: float, a: float, b: float, m: float) -> None:
    _require_finite(beta=beta, a=a, b=b, m=m)
    if a < 0.0 or b < 0.0 or a + b <= 0.0:
        raise ValueError("need a, b >= 0 with a + b > 0")
    if m <= 0.0:
        raise ValueError("m = f'(0) must be positive")


@dataclass(frozen=True)
class EigenProblem:
    ell: float
    beta: float
    a: float
    b: float
    m: float

    def __post_init__(self):
        _require_finite(ell=self.ell)
        if self.ell <= 0.0:
            raise ValueError("ell must be positive")
        _require_admissible(self.beta, self.a, self.b, self.m)


@dataclass(frozen=True)
class EigenResult:
    zeta1: float
    x: np.ndarray
    eigenfunction: np.ndarray


def _root(g, lo, hi, xtol, what: str) -> float:
    """brentq's root of g in [lo, hi].  A bracket end that overflowed (the
    ends scale as 1/ell) and a search that does not converge in 200
    iterations raise NumericalError naming what, not brentq's bare error."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalError(
            f"{what}: the bracket [{lo:g}, {hi:g}] is out of double range")
    try:
        return brentq(g, lo, hi, xtol=xtol, maxiter=200)
    except RuntimeError as exc:
        raise NumericalError(f"{what}: {exc}") from exc


def _transformed_s1(ell: float, A: float, b: float) -> float:
    """Principal s of -psi'' = s*psi, A*psi(0) = b*psi'(0), psi(ell) = 0,
    from the divided secular equations of the module docstring."""
    if b == 0.0:
        k = np.pi / ell
        return k * k

    g0 = ell + b / A if A < 0.0 else -math.inf  # either equation at k -> 0
    if g0 > 0.0:
        def gh(k):
            return (math.tanh(k * ell) + b * k / A) / k if k > 0.0 else g0

        hi = -A / b * (1.0 - 1e-15)
        if gh(hi) >= 0.0:
            # tanh saturated to 1 in double precision: the root sits within
            # ulps of |A|/b (the infinite-interval boundary-trapped mode)
            k = -A / b
            return -k * k
        k = _root(gh, 0.0, hi, 1e-15, f"eigenvalue root at ell = {ell:g}")
        return -k * k

    def g(k):
        return ell - math.atan2(b * k, -A) / k if k > 0.0 else g0

    if A < 0.0:
        lo, hi = 0.0, (np.pi / 2.0 + 1.0) / ell
    else:
        # right end padded past pi/ell: for b -> 0 the root sits at pi/ell
        # itself and rounding of k*ell can leave g(pi/ell) < 0
        lo, hi = np.pi / (2.0 * ell) * (1.0 - 1e-12), (np.pi + 1e-9) / ell
    k = _root(g, lo, hi, 1e-15, f"eigenvalue root at ell = {ell:g}")
    return k * k


def _eigenfunction(ell, beta, a, b, s1):
    """Sampled positive eigenfunction, max-normalized.

    The sample count is chosen so that the second-order finite-difference
    residual of the sampled profile stays below 1e-6 in sup norm.
    """
    A = a - b * beta / 2.0
    # Derivative growth rate of phi = exp(beta x/2) psi.
    rate = abs(beta) / 2.0 + np.sqrt(abs(s1))
    c_res = rate**4 / 12.0 + abs(beta) * rate**3 / 6.0 + 1.0
    dx = np.sqrt(2e-7 / c_res)
    n = int(np.clip(np.ceil(ell / dx) + 1, 801, 400001))
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
    """Smallest eigenvalue, with its sign-definite eigenfunction.

    Raises NumericalError when zeta1 or the sampled eigenfunction
    overflows double precision.
    """
    s1 = _transformed_s1(p.ell, p.a - p.b * p.beta / 2.0, p.b)
    zeta1 = s1 + p.beta * p.beta / 4.0 - p.m
    if not math.isfinite(zeta1):
        raise NumericalError(f"zeta1 = {zeta1} at ell = {p.ell:g}, "
                             f"beta = {p.beta:g}: out of double range")
    try:
        with np.errstate(over="raise", invalid="raise"):
            x, phi = _eigenfunction(p.ell, p.beta, p.a, p.b, s1)
    except FloatingPointError as exc:
        raise NumericalError(f"eigenfunction at ell = {p.ell:g}, "
                             f"beta = {p.beta:g}: {exc}") from exc
    return EigenResult(zeta1=zeta1, x=x, eigenfunction=phi)


def _critical_length(beta: float, a: float, b: float, m: float, drift: float,
                     what: str) -> float:
    """First zero ell of the transformed mode b cos(kx) + (A/k) sin(kx),
    A = a - b*drift/2, at k = sqrt(m - beta^2/4) > 0 (s1 = k^2).

    k*ell = pi/2 + atan2(A, b*k) = atan2(b*k, -A); the angle is taken with
    both arguments divided by b, so that no product overflows, and b = 0
    is the Dirichlet end, k*ell = pi.
    """
    _require_admissible(beta, a, b, m)
    c0 = 2.0 * math.sqrt(m)
    if abs(beta) >= c0:
        raise NoCriticalLength(f"|beta|={abs(beta):g} >= c0={c0:g}: {what}")
    # k = sqrt((c0 - |beta|)(c0 + |beta|))/2, with c0 and beta scaled by a
    # power of two so that the product neither overflows nor underflows
    e = math.frexp(c0)[1]
    c, d = math.ldexp(c0, -e), math.ldexp(abs(beta), -e)
    k = math.ldexp(math.sqrt((c - d) * (c + d)), e - 1)
    angle = math.atan2(k, drift / 2.0 - a / b) if b > 0.0 else math.pi
    return angle / k


def critical_length(beta: float, a: float, b: float, m: float) -> float:
    """Length l_star with zeta1(l_star) = 0.  Needs |beta| < 2*sqrt(m)."""
    return _critical_length(beta, a, b, m, beta, "zeta1 never crosses zero")


def critical_length_no_advection(beta: float, a: float, b: float, m: float) -> float:
    """Length l_substar with gamma1(l_substar) = -beta^2/4.

    gamma1 is the principal eigenvalue of the advection-free problem;
    the offset -beta^2/4 restores the drift contribution.
    """
    return _critical_length(beta, a, b, m, 0.0, "gamma1 never reaches -beta^2/4")
