"""Phase-plane shooting for every ODE profile attached to the front problem.

All profiles solve q'' - g*q' + f(q) = 0 for some effective drift g in the
(q, q') phase plane, which has a saddle at (1, 0) and an equilibrium at
(0, 0) whose type switches with g:

    |g| < c0      unstable spiral      (c0 = 2*sqrt(f'(0)))
    g >= c0       unstable node
    g <= -c0      stable node

One kernel (_shoot) makes every shot: DOP853 in tau >= 0 on the field
[-q', f(q) - g*q'] backward (z = -tau) or [q', g*q' - f(q)] forward
(z = tau).  It is scipy's DOP853 algorithm (tableau, initial step, step
control, error norm, event location by brentq on a step's interpolant)
written for Python floats, since the state has two or four components
and array overhead would dominate.  A step's interpolant (three extra
stages) is computed only where an event fires, or at every step of a
dense shot, whose samples _sample then draws in one vectorized pass.
A profile picks the drift, launch, direction and events:

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

s(g) depends on neither beta nor mu, so every query samples one curve.
Each variational shot adds (g, s, ds/dg) to a _SlopeCurve kept per
Nonlinearity instance and max_step: made on first use (never at import),
keyed by the instance's identity (Polynomial terms are unhashable, and
equal terms need not share shots), and dropped when the instance is
collected.  spreading_speed starts Newton inside the tightest stored sign
bracket, at the root of its cubic Hermite interpolant, or at a stored
shot that already meets Newton's tolerance, so a repeated query costs one
shot plus the residual shot; with nothing usable stored it starts from
c = 0.  Nothing is served from the curve: every c_tilde is a Newton root
of shots made in its own call, and its residual comes from a fresh plain
shot.  The first query on a fresh instance takes the c = 0 path, bit for
bit what it took before the curve existed; warm results agree with it
within 1e-12 (tests/test_waves.py).

Only the speed is eager: SpeedResult.profile, the sampled semi-wave at
c_tilde, is shot and sampled on its first read.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from math import inf, nan, nextafter, sqrt
from operator import mul
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import DOP853
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

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
    """c_tilde, the residual |mu*q'(0) - c_tilde| of the shot at it, and
    (as profile) that semi-wave, shot and sampled on first read."""

    c_tilde: float
    residual: float
    _shoot_profile: Callable[[], WaveProfile] = field(repr=False, compare=False)

    @cached_property
    def profile(self) -> WaveProfile:
        return self._shoot_profile()


def _saddle_launch(g: float, fp1: float, sign: float = -1.0) -> list:
    # EPS_LAUNCH below the saddle (1, 0) along its eigendirection (1, lam):
    # sign = -1 the stable one (lam < 0), +1 the unstable; fp1 = f'(1) < 0
    lam = 0.5 * (g + sign * np.sqrt(g * g - 4.0 * fp1))
    return [1.0 - EPS_LAUNCH, -lam * EPS_LAUNCH]


def _default_budget(n: Nonlinearity) -> float:
    return 100.0 / np.sqrt(n.fp0)


def _event(fn, direction, terminal=True):
    """A stopping event of _shoot: fn(y) crossing zero upward (direction
    +1) or downward (-1); a non-terminal event is recorded, not stopped at."""
    return fn, direction, terminal


# DOP853's tableau as Python floats, row s of A cut to its first s entries
# (the rest are zero); the fields are autonomous, so the stage times C go
# unused.
_A = tuple(tuple(map(float, DOP853.A[s, :s])) for s in range(1, DOP853.n_stages))
_A_EXTRA = tuple(tuple(map(float, row[:s])) for s, row in
                 enumerate(DOP853.A_EXTRA, start=DOP853.n_stages + 1))
_B = tuple(map(float, DOP853.B))
_E3 = tuple(map(float, DOP853.E3))
_E5 = tuple(map(float, DOP853.E5))
_D = tuple(tuple(map(float, row)) for row in DOP853.D)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0       # -1/(error estimator order 7 + 1)
_EVENT_TOL = 4.0 * np.finfo(float).eps


class _Shot(NamedTuple):
    """Outcome of one _shoot: the roots (tau) and states of each event in
    the order met, where the shot ended (a terminal root or the budget),
    and with dense=True the interpolant (t_old, h, y_old, F) of every step."""
    t_events: list
    y_events: list
    t: float
    y: list
    steps: list | None


def _rms(v) -> float:
    return sqrt(sum(x * x for x in v)) / sqrt(len(v))


def _initial_step(rhs, y, fy, budget, max_step) -> float:
    # scipy's select_initial_step for a method of error order 7
    scale = [_ATOL + abs(v) * _RTOL for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(fy, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, budget)
    f1 = rhs([v + h0 * fv for v, fv in zip(y, fy)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, fy, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100.0 * h0, h1, budget, max_step)


def _dense(rhs, K, h, y_old, y, f_old, f):
    """The seventh-degree interpolant coefficients F of an accepted step:
    three extra stages appended to the per-component stage lists K."""
    for a in _A_EXTRA:
        k = rhs([yj + sum(map(mul, a, kj)) * h for yj, kj in zip(y_old, K)])
        for kj, v in zip(K, k):
            kj.append(v)
    dy = [a - b for a, b in zip(y, y_old)]
    return ([dy, [h * a - b for a, b in zip(f_old, dy)],
             [2 * a - h * (b + c) for a, b, c in zip(dy, f, f_old)]]
            + [[h * sum(map(mul, d, kj)) for kj in K] for d in _D])


def _interpolate(step, t) -> list:
    # scipy's Horner order: from the top coefficient, alternately times
    # x and 1 - x, then plus y_old
    t_old, h, y_old, F = step
    x = (t - t_old) / h
    out = []
    for j, yj in enumerate(y_old):
        v = 0.0
        for i, Fk in enumerate(reversed(F)):
            v += Fk[j]
            v *= x if i % 2 == 0 else 1 - x
        out.append(v + yj)
    return out


def _shoot(g, n, y0, events, budget, max_step, *, backward, dense) -> _Shot:
    """One DOP853 shot of q'' - g*q' + f(q) = 0 from y0 = (q, q') over
    tau in [0, budget], z = -tau (backward) or z = tau (forward).

    A four-component y0 adds the variational pair (dq/dg, dq'/dg) of the
    backward field.  events are _event triples.  An error norm that turns
    0/0 or NaN (a shot stalling in the origin) raises NumericalError.
    """
    f, fprime = n.f, n.fprime
    if len(y0) == 4:
        def rhs(y):
            q, p, q_g, p_g = y
            return [-p, float(f(q)) - g * p, -p_g,
                    float(fprime(q)) * q_g - p - g * p_g]
    elif backward:
        def rhs(y):
            q, p = y
            return [-p, float(f(q)) - g * p]
    else:
        def rhs(y):
            q, p = y
            return [p, g * p - float(f(q))]

    y = [float(v) for v in y0]
    fy = rhs(y)
    t = 0.0
    h_abs = _initial_step(rhs, y, fy, budget, max_step)
    g_old = [fn(y) for fn, _, _ in events]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    steps = [] if dense else None
    while t < budget:
        min_step = 10.0 * abs(nextafter(t, inf) - t)
        h_abs = min(max(h_abs, min_step), max_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericalError(
                    f"integrator failed at drift g = {g:.17g}: required step "
                    f"size is less than spacing between numbers")
            t_new = min(t + h_abs, budget)
            h = h_abs = t_new - t
            # component-major stage lists: K[j][s] is stage s of y[j]
            K = [[v] for v in fy]
            for a in _A:
                k = rhs([yj + sum(map(mul, a, kj)) * h for yj, kj in zip(y, K)])
                for kj, v in zip(K, k):
                    kj.append(v)
            y_new = [yj + h * sum(map(mul, _B, kj)) for yj, kj in zip(y, K)]
            f_new = rhs(y_new)
            s5 = s3 = 0.0
            for kj, fj, yj, ynj in zip(K, f_new, y, y_new):
                kj.append(fj)
                scale = _ATOL + max(abs(yj), abs(ynj)) * _RTOL
                e5 = sum(map(mul, _E5, kj)) / scale
                e3 = sum(map(mul, _E3, kj)) / scale
                s5 += e5 * e5
                s3 += e3 * e3
            if s5 == 0.0 and s3 == 0.0:
                err = 0.0
            else:
                denom = s5 + 0.01 * s3
                err = h * s5 / sqrt(denom * len(y)) if denom > 0.0 else nan
                if err != err:
                    why = ("invalid value encountered in scalar divide"
                           if denom == 0.0 else "the error norm is NaN")
                    raise NumericalError(f"shot at drift g = {g:.17g} broke down "
                                         f"in the integrator: {why}")
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True

        t_old, y_old, f_old = t, y, fy
        t, y, fy = t_new, y_new, f_new
        step = None
        if dense:
            step = (t_old, h, y_old, _dense(rhs, K, h, y_old, y, f_old, fy))
            steps.append(step)
        if not events:
            continue
        g_new = [fn(y) for fn, _, _ in events]
        hits = [i for i, ((_, d, _), a, b) in enumerate(zip(events, g_old, g_new))
                if d * a <= 0.0 <= d * b]
        g_old = g_new
        if not hits:
            continue
        if step is None:
            step = (t_old, h, y_old, _dense(rhs, K, h, y_old, y, f_old, fy))
        found = [(brentq(lambda s, fn=events[i][0]: fn(_interpolate(step, s)),
                         t_old, t, xtol=_EVENT_TOL, rtol=_EVENT_TOL), i)
                 for i in hits]
        stop = any(events[i][2] for i in hits)
        if stop:
            # events after the first terminal root in this step never happen
            found.sort()
            first = next(k for k, (_, i) in enumerate(found) if events[i][2])
            found = found[:first + 1]
        for root, i in found:
            t_events[i].append(root)
            y_events[i].append(_interpolate(step, root))
        if stop:
            t = found[-1][0]
            return _Shot(t_events, y_events, t, _interpolate(step, t), steps)
    return _Shot(t_events, y_events, t, y, steps)


def _sample(shot, tau_end, n_samples, reverse):
    """(tau, q, q') at n_samples uniform points (default: about 2e-4 apart,
    2001 to 500001) of a dense shot on [0, tau_end]; reverse returns them in
    descending tau, which is ascending z for a backward shot.

    All steps' interpolants are evaluated in one vectorized pass, in the
    order of _interpolate: bit for bit what scipy's OdeSolution gives on
    the same steps."""
    if n_samples is None:
        n_samples = int(np.clip(np.ceil(tau_end / 2e-4) + 1, 2001, 500001))
    tau = np.linspace(0.0, tau_end, n_samples)
    t_old = np.array([s[0] for s in shot.steps])
    h = np.array([s[1] for s in shot.steps])
    seg = np.searchsorted(t_old[1:], tau, side="left")
    x = (tau - t_old[seg]) / h[seg]
    x_pair = (x, 1 - x)
    out = []
    for j in (0, 1):
        F = np.array([[Fk[j] for Fk in s[3]] for s in shot.steps])
        v = np.zeros_like(x)
        for i in range(F.shape[1]):
            v += F[seg, -1 - i]
            v *= x_pair[i % 2]
        v += np.array([s[2][j] for s in shot.steps])[seg]
        out.append(v[::-1].copy() if reverse else v)
    return (tau[::-1] if reverse else tau), out[0], out[1]


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
    _require_finite(c=c, beta=beta)
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

    # a shot that stalls in the origin spiral near c0 ends in _shoot's
    # NumericalError when the error norm turns 0/0 (amplitude ~1e-168)
    shot = _shoot(g, n, y0, [_event(lambda y: y[0], -1.0)], z_budget,
                  max_step, backward=True, dense=samples)
    if not shot.t_events[0]:
        raise NumericalError(
            f"semi-wave shot at drift c - beta = {g:.17g} did not reach q=0 "
            f"within z-budget {z_budget:g}")
    tau_star = shot.t_events[0][0]
    y_cross = shot.y_events[0][0]
    slope0 = float(y_cross[1])
    # s = p(tau*(g), g) with q(tau*, g) = 0, dq/dtau = -p, dp/dtau = -g*p
    # there, so ds/dg = p_g + (-g*p) * (q_g/p) = p_g - g*q_g
    dslope0 = float(y_cross[3] - g * y_cross[2]) if variational else None

    if samples:
        tau, q, qp = _sample(shot, tau_star, n_samples, reverse=True)
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


class _SlopeCurve:
    """Every variational shot made for one reaction term at one max_step:
    drifts g in ascending order with s(g) and ds/dg."""

    def __init__(self):
        self.g, self.s, self.ds = [], [], []

    def add(self, g, slope: _Slope):
        i = bisect_left(self.g, g)
        if i == len(self.g) or self.g[i] != g:
            self.g.insert(i, g)
            self.s.insert(i, slope.s)
            self.ds.insert(i, slope.ds)

    def newton_start(self, beta, mu, cap):
        """(c, g, bracket) to start Newton on F(c) = mu*s(c - beta) - c
        from, with c = g + beta, or None.

        A stored shot with 0 < c <= cap next to the root where Newton's step
        is already below its tolerance is the start itself, so a repeated
        query shoots at a stored drift and converges in one shot (bracket
        None).  Otherwise bracket = (lo, hi) holds adjacent stored shots
        with F(lo) > 0 >= F(hi), 0 < hi <= cap, and c is the root of F's
        cubic Hermite interpolant between them.
        """
        gs, ss, dss = self.g, self.s, self.ds
        # F decreases along g, so its sign splits the sorted drifts
        i = bisect_left(range(len(gs)), True,
                        key=lambda k: mu * ss[k] - (gs[k] + beta) <= 0.0)
        ends = []
        for k in range(max(i - 1, 0), min(i + 1, len(gs))):
            c = gs[k] + beta
            f, df = mu * ss[k] - c, mu * dss[k] - 1.0
            if df < 0.0 and abs((c - f / df) - c) <= 1e-13 * c and c <= cap:
                return c, gs[k], None
            ends.append((c, f, df))
        if len(ends) < 2:
            return None
        (lo, f_lo, df_lo), (hi, f_hi, df_hi) = ends
        if not (lo < hi <= cap and hi > 0.0):
            return None
        h = hi - lo

        def hermite(c):
            x = (c - lo) / h
            return ((1.0 + 2.0 * x) * (1.0 - x) ** 2 * f_lo
                    + x * (1.0 - x) ** 2 * h * df_lo
                    + x * x * (3.0 - 2.0 * x) * f_hi
                    - x * x * (1.0 - x) * h * df_hi)

        c = brentq(hermite, lo, hi, xtol=_EVENT_TOL * hi, rtol=_EVENT_TOL)
        return c, c - beta, (lo, hi)


# one _SlopeCurve per reaction term instance and max_step, keyed by id(n)
# (Polynomial terms are unhashable) and dropped when the term is collected
_CURVES: dict = {}


def _slope_curve(n: Nonlinearity, max_step: float) -> _SlopeCurve:
    key = (id(n), max_step)
    curve = _CURVES.get(key)
    if curve is None:
        curve = _CURVES[key] = _SlopeCurve()
        weakref.finalize(n, _CURVES.pop, key, None)
    return curve


def _slope(g, n, z_budget, max_step) -> _Slope:
    """s(g) = q'(0) of the semi-wave with drift g, and ds/dg, in one shot,
    added to n's slope curve."""
    w = shoot_semi_wave(g, 0.0, n, samples=False, z_budget=z_budget,
                        max_step=max_step, variational=True)
    slope = _Slope(w.slope0, w.dslope0)
    _slope_curve(n, max_step).add(g, slope)
    return slope


def spreading_speed(beta: float, mu: float, n: Nonlinearity, *,
                    max_step: float = _MAX_STEP) -> SpeedResult:
    """Fixed point c_tilde of c = mu * q'(0; c - beta) in (0, c0 + beta).

    Newton on F(c) = mu*s(c - beta) - c; F is strictly decreasing, so every
    shot narrows the sign bracket and a step leaving it is replaced by
    bisection.  Newton starts where n's slope curve puts it
    (_SlopeCurve.newton_start): inside the sign bracket of two earlier
    shots, or at an earlier shot whose Newton step is already below
    tolerance; with neither, from c = 0, where F > 0, with the bracket
    [0, c0 + beta - delta].  The residual comes from a separate plain shot
    at the root; the profile is shot again, with samples, only when it is
    read.
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

    def newton_pair(c, g):
        s, ds = _slope(g, n, z_budget, max_step)
        return mu * s - c, mu * ds - 1.0

    z_budget = shot_budget(delta)
    lo, hi, bracketed = 0.0, cmax - delta, False   # bracketed: F(hi) <= 0 seen
    start = _slope_curve(n, max_step).newton_start(beta, mu, hi)
    if start is None:
        c = lo
        f, df = newton_pair(c, c - beta)
        if f <= 0.0:
            raise NumericalError("slope map not positive at c = 0")
    else:
        c, g, bracket = start
        if bracket is not None:
            (lo, hi), bracketed = bracket, True
        f, df = newton_pair(c, g)
        if f > 0.0:
            lo = c
        else:
            hi, bracketed = c, True
    for _ in range(4):
        root = None
        for _ in range(200):
            c_new = c - f / df if df < 0.0 else np.nan
            if abs(c_new - c) <= 1e-13 * c:
                root = c_new
                break
            if not lo < c_new < hi:
                c_new = 0.5 * (lo + hi) if bracketed else hi
            c = c_new
            f, df = newton_pair(c, c - beta)
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
            slope0 = shoot_semi_wave(root, beta, n, samples=False,
                                     z_budget=z_budget, max_step=max_step).slope0
            return SpeedResult(
                c_tilde=root, residual=abs(mu * slope0 - root),
                _shoot_profile=lambda: shoot_semi_wave(
                    root, beta, n, z_budget=z_budget, max_step=max_step))
        delta *= 0.25
        z_budget = shot_budget(delta)
        hi, bracketed = cmax - delta, False
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
    _require_finite(c=c, beta=beta, mu=mu)
    if ctilde is None:
        ctilde = spreading_speed(beta, mu, n).c_tilde
    if not 0.0 < c < ctilde:
        raise NoFiniteWave(f"need 0 < c < c_tilde = {ctilde:g}, got c = {c:g}")

    events = [_event(lambda y: y[1], -1.0),          # turning point
              _event(lambda y: y[0] - 1.5, 1.0)]     # overshoot
    budget = _default_budget(n)
    shot = _shoot(c - beta, n, [0.0, ctilde / mu], events, budget, max_step,
                  backward=False, dense=True)
    if shot.t_events[1]:
        raise NumericalError(
            f"finite-wave shot (c={c:g}) escaped past q=1: launch slope lies "
            f"above the stable manifold (inconsistent ctilde?)")
    if not shot.t_events[0]:
        raise NumericalError(f"finite-wave shot (c={c:g}) found no turning point "
                             f"within z-budget {budget:g}")
    z_c = shot.t_events[0][0]
    z, q, qp = _sample(shot, z_c, n_samples, reverse=False)
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
    _require_finite(c=c)
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
        _event(lambda y: y[0] - TAIL_CUT, -1.0),
        # non-terminal: anchors the translation q(0) = 1/2 with event
        # precision (the tail cut itself is exponentially ill-conditioned)
        _event(lambda y: y[0] - 0.5, -1.0, terminal=False),
    ]
    shot = _shoot(c, n, y0, events, z_budget, max_step, backward=right,
                  dense=True)
    if not shot.t_events[0]:
        raise NumericalError(f"wave tail not reached within z-budget {z_budget:g}")
    tau_star = shot.t_events[0][0]
    tau_half = shot.t_events[1][0]
    slope_half = shot.y_events[1][0][1]

    tau, q, qp = _sample(shot, tau_star, n_samples, reverse=right)
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
    _require_finite(beta=beta, mu=mu)
    if beta_star is None:
        beta_star = critical_advection(mu, n)
    if not n.c0 < beta < beta_star:
        raise NoWave(f"tadpole needs c0 < beta < beta_star = {beta_star:g}, "
                     f"got beta = {beta:g}")

    events = [_event(lambda y: y[0] - 5e-7, -1.0),       # tail cut
              _event(lambda y: y[0] - 3.0, 1.0)]     # escaped the hump
    budget = _default_budget(n)
    shot = _shoot(n.c0, n, [0.0, -(beta - n.c0) / mu], events, budget,
                  max_step, backward=True, dense=True)
    if shot.t_events[1]:
        raise NumericalError("tadpole shot escaped the hump region")
    if shot.t_events[0]:
        tau_end = shot.t_events[0][0]
    elif shot.y[0] < 1e-4:
        tau_end = shot.t
    else:
        raise NumericalError(
            f"tadpole tail not below 1e-4 within z-budget {budget:g}")

    tau, q, qp = _sample(shot, tau_end, n_samples, reverse=True)
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
    _require_finite(beta=beta, a=a, b=b)
    if a <= 0.0:
        raise NoStationary("increasing stationary profile needs a > 0")
    if beta >= n.c0:
        raise NoStationary(f"beta = {beta:g} >= c0 = {n.c0:g}")

    y0 = _saddle_launch(beta, float(n.fprime(1.0)))
    events = [_event(lambda y: a * y[0] - b * y[1], -1.0)]
    budget = _default_budget(n)
    shot = _shoot(beta, n, y0, events, budget, max_step, backward=True,
                  dense=True)
    if not shot.t_events[0]:
        raise NoStationary(
            f"trajectory never met a*v = b*v' within z-budget {budget:g} "
            f"(a={a:g}, b={b:g}, beta={beta:g})")
    tau_star = shot.t_events[0][0]
    slope0 = shot.y_events[0][0][1]
    tau, q, qp = _sample(shot, tau_star, n_samples, reverse=True)
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
