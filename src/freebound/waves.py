"""Phase-plane shooting for every ODE profile attached to the front problem.

All profiles solve q'' - g*q' + f(q) = 0 for some effective drift g in the
(q, q') phase plane, which has a saddle at (1, 0) and an equilibrium at
(0, 0) whose type switches with g:

    |g| < c0      unstable spiral      (c0 = 2*sqrt(f'(0)))
    g >= c0       unstable node
    g <= -c0      stable node

One kernel (_shoot) makes every shot: DOP853 in tau >= 0 on the field
[-q', f(q) - g*q'] backward (z = -tau) or [q', g*q' - f(q)] forward
(z = tau).  A profile picks the drift, launch, direction and events:

    semi-wave   g = c - beta < c0; backward from the saddle launch
                (1 - eps, |lam_minus| eps) on the stable manifold to q = 0
    traveling   g = c; from the saddle launch to q = TAIL_CUT, backward
                for c >= c0 (right), forward along lam_plus for c <= -c0
    finite      g = c - beta; forward from (0, c_tilde/mu) to q' = 0
    tadpole     g = c0; backward from (0, -(beta - c0)/mu) to the tail cut
    stationary  g = beta < c0; backward from the saddle launch to a*q = b*q'

Speeds rest on one curve: the semi-wave slope s(g) = q'(0) at drift g,
strictly decreasing on g < c0.  A semi-wave shot that also carries the
variational pair (dq/dg, dq'/dg) returns s and ds/dg together (_slope).

    c_tilde    the fixed point c = mu * s(c - beta), unique in
               (0, c0 + beta); found by safeguarded Newton on
               F(c) = mu*s(c - beta) - c, whose slope mu*s' - 1 is
               negative, with bisection inside the sign bracket.
    beta_star  at c_tilde(beta_star) = beta_star - c0 the drift is
               c - beta = -c0, so beta_star = c0 + mu * s(-c0): one shot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator

from .errors import (
    NoFiniteWave,
    NoSemiWave,
    NoStationary,
    NoWave,
    NumericalError,
    _require_finite,
)
from .nonlinearity import Nonlinearity

__all__ = [
    "WaveProfile",
    "SpeedResult",
    "shoot_semi_wave",
    "spreading_speed",
    "critical_advection",
    "finite_wave",
    "traveling_wave",
    "tadpole_wave",
    "stationary_increasing",
    "profile_interpolator",
]

EPS_LAUNCH = 1e-8      # distance from the saddle at manifold launch
TAIL_CUT = 1e-7        # where heteroclinic tails are truncated
_RTOL = 1e-12
_ATOL = 1e-14
_MAX_STEP = 0.1


@dataclass(frozen=True)
class WaveProfile:
    """Sampled ODE profile.

    kind is one of 'semi', 'finite', 'traveling-left', 'traveling-right',
    'tadpole', 'stationary'.  z, q, qp hold ordered samples of (z, q, q');
    speed is the wave speed (None for stationary profiles); slope0 is
    q'(0); endpoint is z_c for finite waves, else None; dslope0 is
    d(slope0)/dg for semi-waves shot with variational=True, else None.
    """

    kind: str
    z: np.ndarray
    q: np.ndarray
    qp: np.ndarray
    speed: float | None
    slope0: float
    endpoint: float | None = None
    dslope0: float | None = None


@dataclass(frozen=True)
class SpeedResult:
    c_tilde: float
    residual: float
    profile: WaveProfile


def _saddle_launch(g: float, fp1: float, sign: float = -1.0) -> list:
    # EPS_LAUNCH below the saddle (1, 0) along its eigendirection (1, lam):
    # sign = -1 the stable one (lam < 0), +1 the unstable; fp1 = f'(1) < 0
    lam = 0.5 * (g + sign * np.sqrt(g * g - 4.0 * fp1))
    return [1.0 - EPS_LAUNCH, -lam * EPS_LAUNCH]


def _default_budget(n: Nonlinearity) -> float:
    return 100.0 / np.sqrt(n.fp0)


def _event(fn, direction, terminal=True):
    """Mark fn(tau, y) as a solve_ivp stopping event."""
    fn.terminal = terminal
    fn.direction = direction
    return fn


def _shoot(g, n, y0, events, budget, max_step, *, backward, dense):
    """One DOP853 shot of q'' - g*q' + f(q) = 0 from y0 = (q, q') over
    tau in [0, budget], z = -tau (backward) or z = tau (forward).

    A four-component y0 adds the variational pair (dq/dg, dq'/dg) of the
    backward field.  An invalid value inside the integrator (its error norm
    breaks down when a shot stalls in the origin) raises NumericalError.
    """
    if len(y0) == 4:
        def rhs(_t, y):
            q, p, q_g, p_g = y
            return [-p, n.f(q) - g * p, -p_g, n.fprime(q) * q_g - p - g * p_g]
    elif backward:
        def rhs(_t, y):
            return [-y[1], n.f(y[0]) - g * y[1]]
    else:
        def rhs(_t, y):
            return [y[1], g * y[1] - n.f(y[0])]

    try:
        with np.errstate(invalid="raise"):
            sol = solve_ivp(rhs, (0.0, budget), y0, method="DOP853",
                            rtol=_RTOL, atol=_ATOL, max_step=max_step,
                            events=events, dense_output=dense)
    except FloatingPointError as exc:
        raise NumericalError(
            f"shot at drift g = {g:g} broke down in the integrator: {exc}") from exc
    if not sol.success:
        raise NumericalError(f"integrator failed: {sol.message}")
    return sol


def _sample(sol, tau_end, n_samples, reverse):
    """(tau, q, q') at n_samples uniform points (default: about 2e-4 apart,
    2001 to 500001) of a dense shot on [0, tau_end]; reverse returns them in
    descending tau, which is ascending z for a backward shot."""
    if n_samples is None:
        n_samples = int(np.clip(np.ceil(tau_end / 2e-4) + 1, 2001, 500001))
    tau = np.linspace(0.0, tau_end, n_samples)
    y = sol.sol(tau)
    if reverse:
        return tau[::-1], y[0, ::-1].copy(), y[1, ::-1].copy()
    return tau, y[0].copy(), y[1].copy()


def shoot_semi_wave(c: float, beta: float, n: Nonlinearity, *,
                    samples: bool = True, n_samples: int | None = None,
                    z_budget: float | None = None,
                    max_step: float = _MAX_STEP,
                    variational: bool = False) -> WaveProfile:
    """Half-line profile with q(0) = 0, q(+inf) = 1 for speed c.

    Integrates backward in z from the saddle along its stable
    eigendirection until q crosses 0; the translate with the crossing at
    z = 0 is the semi-wave and slope0 = q'(0) > 0.  Exists only for
    c - beta < c0.  With variational=True the shot also carries
    (dq/dg, dq'/dg) for the drift g = c - beta and sets dslope0 = ds/dg.
    """
    g = c - beta
    if g >= n.c0:
        raise NoSemiWave(f"c - beta = {g:g} >= c0 = {n.c0:g}")
    if z_budget is None:
        z_budget = _default_budget(n)

    fp1 = float(n.fprime(1.0))
    y0 = _saddle_launch(g, fp1)
    if variational:
        # the launch direction moves with g through lam(g)
        dlam = 0.5 * (1.0 - g / np.sqrt(g * g - 4.0 * fp1))
        y0 += [0.0, -dlam * EPS_LAUNCH]

    events = [
        _event(lambda _t, y: y[0], -1.0),
        # spiral decayed into the origin without crossing: c is numerically
        # indistinguishable from the existence boundary (legitimate crossing
        # amplitudes reach ~1e-40 near the boundary, so the floor sits far
        # below them, above the denormal range where stepping breaks down)
        _event(lambda _t, y: abs(y[0]) + abs(y[1]) - 1e-220, -1.0),
    ]
    sol = _shoot(g, n, y0, events, z_budget, max_step, backward=True,
                 dense=samples)
    if sol.t_events[1].size > 0:
        raise NumericalError(
            f"semi-wave shot at drift c - beta = {g:g} collapsed into the "
            f"origin before crossing q=0: c - beta is too close to c0")
    if sol.t_events[0].size == 0:
        raise NumericalError(
            f"semi-wave shot at drift c - beta = {g:g} did not reach q=0 "
            f"within z-budget {z_budget:g}")
    tau_star = float(sol.t_events[0][0])
    y_cross = sol.y_events[0][0]
    slope0 = float(y_cross[1])
    # s = p(tau*(g), g) with q(tau*, g) = 0, dq/dtau = -p, dp/dtau = -g*p
    # there, so ds/dg = p_g + (-g*p) * (q_g/p) = p_g - g*q_g
    dslope0 = float(y_cross[3] - g * y_cross[2]) if variational else None

    if samples:
        tau, q, qp = _sample(sol, tau_star, n_samples, reverse=True)
        z = tau_star - tau
        q[0] = 0.0
    else:
        z = np.array([0.0, tau_star])
        q = np.array([0.0, y0[0]])
        qp = np.array([slope0, y0[1]])
    return WaveProfile(kind="semi", z=z, q=q, qp=qp, speed=c, slope0=slope0,
                       dslope0=dslope0)


class _Slope(NamedTuple):
    s: float
    ds: float


def _slope(g, n, z_budget, max_step) -> _Slope:
    """s(g) = q'(0) of the semi-wave with drift g, and ds/dg, in one shot."""
    w = shoot_semi_wave(g, 0.0, n, samples=False, z_budget=z_budget,
                        max_step=max_step, variational=True)
    return _Slope(w.slope0, w.dslope0)


def spreading_speed(beta: float, mu: float, n: Nonlinearity, *,
                    max_step: float = _MAX_STEP) -> SpeedResult:
    """Fixed point c_tilde of c = mu * q'(0; c - beta) in (0, c0 + beta).

    Newton on F(c) = mu*s(c - beta) - c from c = 0, where F > 0; F is
    strictly decreasing, so every shot narrows the sign bracket
    [lo, c0 + beta - delta] and a step leaving it is replaced by
    bisection.  The residual and profile come from a separate plain shot
    at the root.
    """
    _require_finite(beta=beta, mu=mu)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if beta <= -n.c0:
        raise NoSemiWave(f"beta = {beta:g} <= -c0 = {-n.c0:g}: no spreading speed")

    cmax = n.c0 + beta
    delta = min(2e-3 * n.c0, 0.25 * cmax)
    budget = _default_budget(n)

    def shot_budget(delta):
        # Near the existence boundary the origin spiral slows down as
        # omega = sqrt((c0-g)(c0+g))/2; give the shot room for a full turn.
        omega = 0.5 * np.sqrt(delta * (2.0 * n.c0 - delta))
        return max(budget, 8.0 / omega + 0.5 * budget)

    def newton_pair(c):
        s, ds = _slope(c - beta, n, z_budget, max_step)
        return mu * s - c, mu * ds - 1.0

    z_budget = shot_budget(delta)
    c = lo = 0.0
    f, df = newton_pair(c)
    if f <= 0.0:
        raise NumericalError("slope map not positive at c = 0")
    for _ in range(4):
        hi = cmax - delta
        bracketed = False          # F(hi) <= 0 seen
        root = None
        for _ in range(200):
            c_new = c - f / df if df < 0.0 else np.nan
            if abs(c_new - c) <= 1e-13 * c:
                root = c_new
                break
            if not lo < c_new < hi:
                c_new = 0.5 * (lo + hi) if bracketed else hi
            c = c_new
            f, df = newton_pair(c)
            if f > 0.0:
                lo = c
                if c == hi:        # F > 0 all the way to c0 + beta - delta
                    break
            else:
                hi, bracketed = c, True
        else:
            raise NumericalError("Newton on the slope map did not converge")
        if root is not None:
            if root <= 1e-9 * cmax:
                # root far below cmax (extreme beta or mu); one fixed-point
                # sweep keeps c_tilde > 0
                root = mu * _slope(root - beta, n, z_budget, max_step).s
            profile = shoot_semi_wave(root, beta, n, z_budget=z_budget,
                                      max_step=max_step)
            residual = abs(mu * profile.slope0 - root)
            return SpeedResult(c_tilde=root, residual=residual, profile=profile)
        delta *= 0.25
        z_budget = shot_budget(delta)
    raise NumericalError("fixed point pinned against c0 + beta; bracket failed")


def critical_advection(mu: float, n: Nonlinearity) -> float:
    """Unique beta_star > c0 with c_tilde(beta_star) = beta_star - c0.

    At that fixed point the semi-wave drift is c - beta = -c0, so
    beta_star = c0 + mu * s(-c0), read off one shot of the slope curve.
    """
    _require_finite(mu=mu)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    return n.c0 + mu * _slope(-n.c0, n, _default_budget(n), _MAX_STEP).s


def finite_wave(c: float, beta: float, mu: float, n: Nonlinearity, *,
                ctilde: float | None = None,
                n_samples: int | None = None,
                max_step: float = _MAX_STEP) -> WaveProfile:
    """Finite-length wave: q(0) = 0, mu*q'(0) = c_tilde, q'(z_c) = 0.

    Shoots forward from the Stefan-compatible slope; the launch sits below
    the stable manifold of the saddle, so q' reaches 0 at a finite z_c
    with q(z_c) < 1.  Exists for 0 < c < c_tilde.
    """
    if ctilde is None:
        ctilde = spreading_speed(beta, mu, n).c_tilde
    if not 0.0 < c < ctilde:
        raise NoFiniteWave(f"need 0 < c < c_tilde = {ctilde:g}, got c = {c:g}")

    events = [_event(lambda _t, y: y[1], -1.0),          # turning point
              _event(lambda _t, y: y[0] - 1.5, 1.0)]     # overshoot
    budget = _default_budget(n)
    sol = _shoot(c - beta, n, [0.0, ctilde / mu], events, budget, max_step,
                 backward=False, dense=True)
    if sol.t_events[1].size > 0:
        raise NumericalError(
            f"finite-wave shot (c={c:g}) escaped past q=1: launch slope lies "
            f"above the stable manifold (inconsistent ctilde?)")
    if sol.t_events[0].size == 0:
        raise NumericalError(f"finite-wave shot (c={c:g}) found no turning point "
                             f"within z-budget {budget:g}")
    z_c = float(sol.t_events[0][0])
    z, q, qp = _sample(sol, z_c, n_samples, reverse=False)
    q[0] = 0.0
    qp[-1] = 0.0
    return WaveProfile(kind="finite", z=z, q=q, qp=qp, speed=c,
                       slope0=ctilde / mu, endpoint=z_c)


def traveling_wave(c: float, direction: str, n: Nonlinearity, *,
                   n_samples: int | None = None,
                   z_budget: float | None = None,
                   max_step: float = _MAX_STEP) -> WaveProfile:
    """Classical heteroclinic on the line, normalized so q(0) = 1/2.

    direction='right': q(-inf) = 0, q(+inf) = 1, needs c >= c0.
    direction='left':  q(-inf) = 1, q(+inf) = 0, needs c <= -c0.
    """
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    tol = 1e-12 * n.c0
    if direction == "right" and c < n.c0 - tol:
        raise NoWave(f"right wave needs c >= c0 = {n.c0:g}, got {c:g}")
    if direction == "left" and c > -n.c0 + tol:
        raise NoWave(f"left wave needs c <= -c0 = {-n.c0:g}, got {c:g}")
    if z_budget is None:
        z_budget = 2.0 * _default_budget(n)

    right = direction == "right"
    y0 = _saddle_launch(c, float(n.fprime(1.0)), -1.0 if right else 1.0)
    events = [
        _event(lambda _t, y: y[0] - TAIL_CUT, -1.0),
        # non-terminal: anchors the translation q(0) = 1/2 with event
        # precision (the tail cut itself is exponentially ill-conditioned)
        _event(lambda _t, y: y[0] - 0.5, -1.0, terminal=False),
    ]
    sol = _shoot(c, n, y0, events, z_budget, max_step, backward=right,
                 dense=True)
    if sol.t_events[0].size == 0:
        raise NumericalError(f"wave tail not reached within z-budget {z_budget:g}")
    tau_star = float(sol.t_events[0][0])
    tau_half = float(sol.t_events[1][0])
    slope_half = float(sol.y_events[1][0][1])

    tau, q, qp = _sample(sol, tau_star, n_samples, reverse=right)
    z = tau_half - tau if right else tau - tau_half
    return WaveProfile(kind=f"traveling-{direction}", z=z, q=q, qp=qp,
                       speed=c, slope0=slope_half)


def tadpole_wave(beta: float, mu: float, n: Nonlinearity, *,
                 beta_star: float | None = None,
                 n_samples: int | None = None,
                 max_step: float = _MAX_STEP) -> WaveProfile:
    """Front-anchored profile with a single hump and an infinite left tail.

    Solves V'' - c0 V' + f(V) = 0 on (-inf, 0] with V(0) = 0,
    -mu*V'(0) = beta - c0, V(-inf) = 0.  Exists iff c0 < beta < beta_star.
    The left tail decays slowly, so acceptance uses the looser 1e-4 cut.
    """
    if beta_star is None:
        beta_star = critical_advection(mu, n)
    if not n.c0 < beta < beta_star:
        raise NoWave(f"tadpole needs c0 < beta < beta_star = {beta_star:g}, "
                     f"got beta = {beta:g}")

    events = [_event(lambda _t, y: y[0] - 5e-7, -1.0),       # tail cut
              _event(lambda _t, y: y[0] - 3.0, 1.0)]     # escaped the hump
    budget = _default_budget(n)
    sol = _shoot(n.c0, n, [0.0, -(beta - n.c0) / mu], events, budget,
                 max_step, backward=True, dense=True)
    if sol.t_events[1].size > 0:
        raise NumericalError("tadpole shot escaped the hump region")
    if sol.t_events[0].size > 0:
        tau_end = float(sol.t_events[0][0])
    elif sol.y[0, -1] < 1e-4:
        tau_end = float(sol.t[-1])
    else:
        raise NumericalError(
            f"tadpole tail not below 1e-4 within z-budget {budget:g}")

    tau, q, qp = _sample(sol, tau_end, n_samples, reverse=True)
    z = -tau
    q[-1] = 0.0
    return WaveProfile(kind="tadpole", z=z, q=q, qp=qp,
                       speed=beta - n.c0, slope0=-(beta - n.c0) / mu)


def stationary_increasing(beta: float, a: float, b: float, n: Nonlinearity, *,
                          n_samples: int | None = None,
                          max_step: float = _MAX_STEP) -> WaveProfile:
    """Strictly increasing stationary profile on the half-line.

    Solves v'' - beta*v' + f(v) = 0 with a*v(0) = b*v'(0), v(+inf) = 1.
    Traced backward from the saddle until the phase point satisfies the
    boundary relation; exists for beta < c0 and a > 0.
    """
    if a <= 0.0:
        raise NoStationary("increasing stationary profile needs a > 0")
    if beta >= n.c0:
        raise NoStationary(f"beta = {beta:g} >= c0 = {n.c0:g}")

    y0 = _saddle_launch(beta, float(n.fprime(1.0)))
    events = [_event(lambda _t, y: a * y[0] - b * y[1], -1.0)]
    budget = _default_budget(n)
    sol = _shoot(beta, n, y0, events, budget, max_step, backward=True,
                 dense=True)
    if sol.t_events[0].size == 0:
        raise NoStationary(
            f"trajectory never met a*v = b*v' within z-budget {budget:g} "
            f"(a={a:g}, b={b:g}, beta={beta:g})")
    tau_star = float(sol.t_events[0][0])
    slope0 = float(sol.y_events[0][0][1])
    tau, q, qp = _sample(sol, tau_star, n_samples, reverse=True)
    z = tau_star - tau
    if b == 0.0:
        q[0] = 0.0
    return WaveProfile(kind="stationary", z=z, q=q, qp=qp,
                       speed=None, slope0=slope0)


def profile_interpolator(profile: WaveProfile):
    """Monotone-cubic evaluator of q(z), flat-extended beyond the samples.

    Monotone interpolation keeps q within its sample range, so composite
    sup-norm comparisons cannot pick up interpolation overshoot.
    """
    pchip = PchipInterpolator(profile.z, profile.q, extrapolate=False)
    lo, hi = profile.z[0], profile.z[-1]
    q_lo, q_hi = profile.q[0], profile.q[-1]

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        out = pchip(np.clip(z, lo, hi))
        out = np.where(z < lo, q_lo, out)
        out = np.where(z > hi, q_hi, out)
        return out

    return evaluate
