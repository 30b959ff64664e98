"""Exception hierarchy.

DomainError subclasses signal that the requested object does not exist for
the given parameters (outside an existence range); they map to CLI exit
code 1.  NumericalError and ConfigError signal that the computation itself
failed; they map to exit code 2, as does ValueError for parameters refused
at the boundary (_require_finite).
"""

import math


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class FreeboundError(Exception):
    pass


class DomainError(FreeboundError):
    """Requested object does not exist for these parameters."""


class NoSemiWave(DomainError):
    """No semi-wave: c - beta >= c0, or beta <= -c0 for the spreading speed."""


class NoWave(DomainError):
    """No traveling / tadpole wave at this speed or advection."""


class NoFiniteWave(DomainError):
    """Finite-length wave requires 0 < c < c_tilde."""


class NoCriticalLength(DomainError):
    """No critical length: |beta| >= c0, principal eigenvalue never crosses."""


class NoStationary(DomainError):
    """No increasing stationary solution (beta >= c0, or a = 0)."""


class NoBracket(DomainError):
    """Threshold bisection: both endpoints classify the same."""


class NumericalError(FreeboundError):
    """Solver failed to converge or violated a runtime invariant."""


class InvariantViolation(NumericalError):
    """A discrete invariant (h' > 0, ceiling, positivity) was violated."""


class InsufficientData(NumericalError):
    """Trajectory too short for the requested fit."""


class ConfigError(FreeboundError):
    """Malformed or unknown configuration input."""
