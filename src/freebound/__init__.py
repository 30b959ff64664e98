"""Free-boundary reaction-diffusion-advection laboratory.

Simulates u_t - u_xx + beta*u_x = f(u) on 0 < x < h(t) with a mixed left
boundary a*u - b*u_x = 0 and the Stefan front law h'(t) = -mu*u_x(t, h(t)),
and computes the analytic objects that govern its long-time behavior:
principal eigenvalues and critical lengths, semi-wave spreading speeds,
critical advection, wave profiles, spreading/vanishing classification,
and the sharp parameter thresholds.
"""

from .nonlinearity import (
    Nonlinearity,
    ValidationReport,
    cubic_monostable,
    from_coefficients,
    logistic,
    validate,
)
from .eigen import (
    EigenProblem,
    EigenResult,
    critical_length,
    critical_length_no_advection,
    principal_eigenvalue,
)
from .waves import (
    SpeedResult,
    WaveProfile,
    critical_advection,
    finite_wave,
    profile_interpolator,
    shoot_semi_wave,
    spreading_speed,
    stationary_increasing,
    tadpole_wave,
    traveling_wave,
)
from .stefan import (
    FrontState,
    ProblemSpec,
    Trajectory,
    default_initial_profile,
    initial_state,
    ode_upper_bound,
    simulate,
    simulate_many,
    step,
)
from .classify import Classification, classify
from .thresholds import ThresholdResult, lambda_threshold, mu_threshold
from .asymptotics import SpeedFit, fit_speed, profile_error
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Nonlinearity", "ValidationReport", "logistic", "cubic_monostable",
    "from_coefficients", "validate",
    "EigenProblem", "EigenResult", "principal_eigenvalue",
    "critical_length", "critical_length_no_advection",
    "WaveProfile", "SpeedResult", "shoot_semi_wave", "spreading_speed",
    "critical_advection", "finite_wave", "traveling_wave", "tadpole_wave",
    "stationary_increasing", "profile_interpolator",
    "ProblemSpec", "FrontState", "Trajectory", "initial_state", "step",
    "simulate", "simulate_many", "ode_upper_bound", "default_initial_profile",
    "Classification", "classify",
    "ThresholdResult", "mu_threshold", "lambda_threshold",
    "SpeedFit", "fit_speed", "profile_error",
    "errors",
]
