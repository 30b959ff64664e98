"""Sharp spreading-law checks on finished spreading runs.

When spreading happens with |beta| < c0, the front obeys

    h'(t) -> c_tilde,    h(t) - c_tilde*t -> H   for some H,

and the profile converges in sup norm to a composite of the increasing
stationary profile v(x) and the semi-wave q(z):

    u(t, x) ~ v(x) * q(c_tilde*t + H - x)    (a > 0),
    u(t, x) ~ q(c_tilde*t + H - x)           (a = 0),

with q extended by zero outside its support.  H is estimated from the
trajectory tail (only its existence is known a priori, not its value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData
from .stefan import ProblemSpec, Trajectory
from .waves import WaveProfile, profile_interpolator

__all__ = ["SpeedFit", "fit_speed", "profile_error"]

MIN_TAIL_SAMPLES = 50


@dataclass(frozen=True)
class SpeedFit:
    c_measured: float   # mean of h' over the tail window
    H: float            # mean of h - c_tilde*t over the tail window
    drift: float        # least-squares slope of h - c_tilde*t, reported not hidden
    window: tuple       # (t_start, t_end) of the tail = final third of the run


def fit_speed(traj: Trajectory, ctilde: float) -> SpeedFit:
    t = traj.times
    tail = t >= t[-1] - (t[-1] - t[0]) / 3.0
    if int(np.count_nonzero(tail)) < MIN_TAIL_SAMPLES:
        raise InsufficientData(
            f"tail window holds {int(np.count_nonzero(tail))} samples; "
            f"need {MIN_TAIL_SAMPLES}")
    tt = t[tail]
    c_measured = float(np.mean(traj.hprime[tail]))
    series = traj.h[tail] - ctilde * tt
    H = float(np.mean(series))
    drift = float(np.polyfit(tt, series, 1)[0])
    return SpeedFit(c_measured=c_measured, H=H, drift=drift,
                    window=(float(tt[0]), float(tt[-1])))


def profile_error(snapshot, spec: ProblemSpec, ctilde: float, H: float,
                  vtilde: WaveProfile | None, qtilde: WaveProfile) -> float:
    """Sup-norm distance of a snapshot from the composite wave.

    snapshot is a (t, x, u) triple as stored on Trajectory.snapshots.
    vtilde is required when a > 0 and ignored when a = 0.
    """
    if spec.a > 0.0 and vtilde is None:
        raise ValueError("a > 0 requires the stationary profile vtilde")
    t, x, u = snapshot
    arg = ctilde * t + H - np.asarray(x, dtype=float)
    composite = profile_interpolator(qtilde)(arg)
    if spec.a > 0.0:
        composite = profile_interpolator(vtilde)(x) * composite
    return float(np.max(np.abs(np.asarray(u, dtype=float) - composite)))
