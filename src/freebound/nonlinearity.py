"""Monostable reaction terms.

A reaction term f is admissible when

    f(0) = f(1) = 0,   (1-u) f(u) > 0  for u > 0, u != 1,
    f'(0) > 0,  f'(1) < 0,   f(u) <= f'(0) u  for u > 0.

Every admissible f carries the minimal front speed c0 = 2*sqrt(f'(0)) of
the unbounded-domain traveling waves.  Validation is by dense sampling
(the admissibility conditions are pointwise), with the supplied derivative
cross-checked against centered finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Nonlinearity",
    "ValidationReport",
    "logistic",
    "cubic_monostable",
    "from_coefficients",
    "validate",
]


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term with derivative and derived constants.

    Attributes
    ----------
    f : callable
        Reaction rate, vectorized over u >= 0.
    fprime : callable
        df/du, vectorized.
    fp0 : float
        f'(0) > 0.
    c0 : float
        Minimal traveling-wave speed, 2*sqrt(f'(0)).
    kind : str
        'logistic', 'cubic', or 'custom'.
    """

    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    fp0: float
    c0: float = field(init=False)
    kind: str = "custom"

    def __post_init__(self):
        if self.fp0 <= 0.0:
            raise ValueError("f'(0) must be positive")
        object.__setattr__(self, "c0", 2.0 * np.sqrt(self.fp0))


def logistic() -> Nonlinearity:
    """f(u) = u(1-u); fp0 = 1, c0 = 2."""
    return Nonlinearity(
        f=lambda u: u * (1.0 - u),
        fprime=lambda u: 1.0 - 2.0 * u,
        fp0=1.0,
        kind="logistic",
    )


def cubic_monostable(gamma: float) -> Nonlinearity:
    """f(u) = u(1-u)(1+gamma*u) with gamma in [0, 1).

    The upper bound on gamma keeps f(u) <= f'(0) u for all u > 0.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    g = float(gamma)
    return Nonlinearity(
        f=lambda u: u * (1.0 - u) * (1.0 + g * u),
        fprime=lambda u: 1.0 + 2.0 * (g - 1.0) * u - 3.0 * g * u * u,
        fp0=1.0,
        kind="cubic",
    )


def from_coefficients(coeffs) -> Nonlinearity:
    """Polynomial reaction term from ascending coefficients.

    f(u) = sum c_k u^k.  Requires c_0 = 0 (so f(0) = 0) and c_1 > 0.
    The result is not checked against the remaining admissibility
    conditions; run validate() before use.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size < 2 or c[0] != 0.0:
        raise ValueError("coefficients must start with 0 (f(0) = 0)")
    if c[1] <= 0.0:
        raise ValueError("linear coefficient f'(0) must be positive")
    dc = c[1:] * np.arange(1, c.size)      # Polynomial(c).deriv().coef
    return Nonlinearity(f=_horner(c), fprime=_horner(dc), fp0=float(c[1]),
                        kind="custom")


def _horner(coef):
    """u -> sum coef[k] u^k, scalar or array, in numpy's polyval order: the
    top coefficient plus u*0 (NaN for non-finite u), then c_k + v*u down
    to c_0.  Equal to np.polynomial.Polynomial(coef)(u) up to the sign of
    zero (Polynomial maps u to 0.0 + 1.0*u first), at a fraction of its
    cost on Python floats."""
    top, *rest = (float(v) for v in reversed(coef))

    def p(u):
        v = top + u * 0
        for c in rest:
            v = c + v * u
        return v

    return p


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail per admissibility clause, plus the sample grid used."""

    clauses: dict
    samples: np.ndarray

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())

    def failing(self):
        return [name for name, passed in self.clauses.items() if not passed]


def _sample_grid(samples: int, u_max: float) -> np.ndarray:
    # Geometric points resolve the behavior near u = 0; uniform points
    # cover (0, u_max]; extra points straddle u = 1.
    n_geo = samples // 2
    geo = np.geomspace(1e-12, u_max, n_geo)
    uni = np.linspace(u_max / samples, u_max, samples - n_geo)
    near_one = 1.0 + np.array([-1e-3, -1e-6, 1e-6, 1e-3])
    # np.unique's values by a sort and a mask of unequal neighbours: numpy
    # 2.4's np.unique imports numpy.ma
    grid = np.sort(np.concatenate([geo, uni, near_one]))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    return grid[(grid > 0.0) & (grid <= u_max)]


def validate(n: Nonlinearity, samples: int = 400, u_max: float = 10.0) -> ValidationReport:
    """Check the admissibility clauses on a dense sample grid.

    Raises ValueError if f(0) or f(1) differ from 0 by more than 1e-12;
    all other clauses are reported, not raised.
    """
    if samples < 100:
        raise ValueError("samples must be at least 100")
    if u_max <= 1.0:
        raise ValueError("u_max must exceed 1")

    f0 = float(n.f(np.array(0.0)))
    f1 = float(n.f(np.array(1.0)))
    if abs(f0) > 1e-12 or abs(f1) > 1e-12:
        raise ValueError(f"f(0)={f0:.3e}, f(1)={f1:.3e}: roots at 0 and 1 required")

    u = _sample_grid(samples, u_max)
    fu = np.asarray(n.f(u), dtype=float)

    off_one = np.abs(u - 1.0) > 1e-9
    sign_ok = bool(np.all(((1.0 - u) * fu)[off_one] > 0.0))

    fp0_ok = n.fp0 > 0.0
    fp1_ok = float(n.fprime(np.array(1.0))) < 0.0
    linear_bound_ok = bool(np.all(fu <= n.fp0 * u * (1.0 + 1e-12) + 1e-15))
    c0_ok = abs(n.c0 * n.c0 - 4.0 * n.fp0) <= 2.0 * np.spacing(4.0 * n.fp0)

    # Derivative consistency: centered difference at relative tolerance 1e-6.
    h = 1e-6 * np.maximum(u, 1.0)
    fd = (np.asarray(n.f(u + h)) - np.asarray(n.f(u - h))) / (2.0 * h)
    fp = np.asarray(n.fprime(u), dtype=float)
    scale = np.maximum(np.abs(fp), 1.0)
    deriv_ok = bool(np.all(np.abs(fd - fp) <= 1e-6 * scale + 1e-9))

    clauses = {
        "roots_at_0_and_1": True,
        "sign_(1-u)f(u)>0": sign_ok,
        "fp0_positive": fp0_ok,
        "fprime1_negative": fp1_ok,
        "f_below_linearization": linear_bound_ok,
        "c0_consistent": bool(c0_ok),
        "fprime_matches_fd": deriv_ok,
    }
    return ValidationReport(clauses=clauses, samples=u)
