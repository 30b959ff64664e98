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
and array overhead would dominate.  The tableau is held as float
literals, checked against scipy.integrate.DOP853's by the tests, and the
event roots come from scipy's C brentq loaded alone (_scipy.brentq), so
that a shot loads neither scipy.integrate nor scipy.optimize's package.

A step is straight-line code: for each of the three fields (_FIELDS:
backward, forward, and backward with the variational pair) _kernel
generates a step function and a dense function from the tableau literals,
with the field's expressions inlined, and compiles them on the first shot
that needs them, never at import.  Every stage combination is written out
as 0.0 + a0*k0 + a1*k1 + ..., left to right (a product with a zero
coefficient adds nothing and is left out), which is what the builtin
sum of the generic stage loop computed on 3.11 (tests/oracles.py keeps
that loop as reference_rk_step; the generated code is bit-identical to
it), and no shot calls the builtin sum, whose float result 3.12 changed.
A step's interpolant (three extra stages) is computed at once only where
an event fires, for its root.  A dense shot packs each step's t, y and
stages into one float64 record and computes every step's interpolant
before it returns, in one call of the same dense function on float64
arrays with the step index last, float(f(q)) read as f(q): the same
operations in the same order, so the same bits.  A sampler of
profiles.py computes the shot's samples from them.

A profile picks the drift, launch, direction and events:

    semi-wave   g = c - beta < c0; backward from the saddle launch
                (1 - eps, |lam_minus| eps) on the stable manifold to q = 0
    traveling   g = c; from the saddle launch to q = TAIL_CUT, backward
                for c >= c0 (right), forward along lam_plus for c <= -c0
    finite      g = c - beta; forward from (0, c_tilde/mu) to q' = 0
    tadpole     g = c0; backward from (0, -(beta - c0)/mu) to the tail cut
    stationary  g = beta < c0; backward from the saddle launch to a*q = b*q'

Speeds rest on the semi-wave slope s(g) = q'(0) at drift g,
strictly decreasing on g < c0.  A semi-wave shot that also carries the
variational pair (dq/dg, dq'/dg) returns s and ds/dg together (_slope).

    c_tilde    the fixed point c = mu * s(c - beta), unique in
               (0, c0 + beta); found by safeguarded Newton on
               F(c) = mu*s(c - beta) - c, whose slope mu*s' - 1 is
               negative, with bisection inside the sign bracket.
    beta_star  at c_tilde(beta_star) = beta_star - c0 the drift is
               c - beta = -c0, so beta_star = c0 + mu * s(-c0): one shot
               per reaction term, since s(-c0) does not depend on mu.

Newton on F starts from c = 0 and only from there, so a query's c_tilde
and residual do not depend on the queries before it.  spreading_speed
keeps what each solve found, (c_tilde, residual, shot budget), and
critical_advection the slope s(-c0), in one table per Nonlinearity
instance, keyed by its identity, made on first use and dropped when the
instance is collected: a repeated query is a lookup that makes no shot
and returns a fresh instance's bits (tests/test_waves.py).

Samples are computed where they are read (profiles.py).  A profile holds
its dense shot's sampler: the first read of its z, q or qp computes every
sample, in vectorized blocks, and profile_interpolator computes only the
knots around its queries.  SpeedResult.profile, the semi-wave at c_tilde,
is shot on its first read.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import inf, nan, nextafter, sqrt
from struct import Struct
from typing import Callable, NamedTuple

import numpy as np

from ._scipy import brentq
from .errors import (
    NoFiniteWave,
    NoSemiWave,
    NoStationary,
    NoWave,
    NumericalError,
    _require_finite,
)
from .nonlinearity import Nonlinearity
from .profiles import WaveProfile, _Sampler, profile_interpolator

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
class SpeedResult:
    """c_tilde, the residual |mu*q'(0) - c_tilde| of the shot at it, and
    (as profile) that semi-wave, shot on first read and sampled where its
    samples are read.  c_tilde and residual are the bits of Newton from
    c = 0, on every call."""

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


# DOP853's tableau as Python float literals, equal to scipy.integrate.DOP853's
# (tests/test_shooting_kernel.py checks them): row s of A cut to its first s
# entries (the rest are zero); the fields are autonomous, so the stage times
# C go unused.
_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_A_EXTRA = (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259
)
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0
)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0       # -1/(error estimator order 7 + 1)
_EVENT_TOL = 4.0 * np.finfo(float).eps


class _Shot(NamedTuple):
    """Outcome of one _shoot: the roots (tau) and states of each event in
    the order met, where the shot ended (a terminal root or the budget),
    and with dense=True the interpolants of every step as four float64
    arrays (t_old, h, y_old, F), the step index last: t_old and h of shape
    (steps,), y_old (components, steps) and F (7, components, steps), F[:,
    :, k] being step k's coefficients as _interpolate reads them."""
    t_events: list
    y_events: list
    t: float
    y: list
    steps: list | None


# The fields _shoot integrates in tau, each written once: its state names
# and their tau-derivatives, in terms of the shot's f, fprime and g.
# _kernel inlines them into the rhs, step and dense functions it generates.
_FIELDS = {
    "backward": (("q", "p"), ("-p", "float(f(q)) - g * p")),
    "forward": (("q", "p"), ("p", "g * p - float(f(q))")),
    # the backward field carrying the variational pair (dq/dg, dq'/dg)
    "variational": (("q", "p", "q_g", "p_g"),
                    ("-p", "float(f(q)) - g * p", "-p_g",
                     "float(fprime(q)) * q_g - p - g * p_g")),
}
_F_NEW = len(_B)      # stage index of f(y_new), the first stage of the next step


def _combination(row, j, keep=None) -> str:
    """Source of sum(map(mul, row, K[j])) as Python 3.11 computes it,
    0.0 + row[0]*k0_j + row[1]*k1_j + ..., left to right, with no builtin
    sum (3.12's is compensated).  The accumulator is never -0.0, so adding
    0.0*k is exact for finite k: products with a zero coefficient are left
    out, except that of stage keep."""
    src = "0.0"
    for s, a in enumerate(row):
        if a != 0.0 or s == keep:
            src += f" {'-' if a < 0.0 else '+'} {abs(a)!r} * k{s}_{j}"
    return src


def _kernel_source(names, exprs) -> str:
    """Source of make(f, fprime, g) -> (rhs, step, dense) for one field.

    rhs(y) is the field.  step(y, fy, h) is one DOP853 step from y with
    fy = rhs(y): (y_new, f_new, s5, s3, K), s5 and s3 the sums of squared
    scaled 5th- and 3rd-order error estimates, K every stage component-major
    (K[13*j + s] is stage s of y[j]).  dense(K, h, y_old, y) is the step's
    interpolant coefficients F.  Its stages read f's values through num,
    float by default: with num=np.asarray, which returns an array as it
    is, dense takes float64 arrays holding every step's K, h, y_old and y
    with the step index last, and returns each step's F in the same place.
    Every sum runs in the order of scipy's stage loop, so each value is the
    one that loop gives on 3.11.
    """
    J = range(len(names))

    def tup(items):
        return "(" + "".join(f"{v}, " for v in items) + ")"

    def stages(rows, first, exprs=exprs):
        lines = []
        for s, row in enumerate(rows, start=first):
            lines += [f"{x} = y{j} + ({_combination(row, j)}) * h"
                      for j, x in enumerate(names)]
            lines += [f"k{s}_{j} = {e}" for j, e in enumerate(exprs)]
        return lines

    K = tup(f"k{s}_{j}" for j in J for s in range(_F_NEW + 1))
    step = [f"{tup(f'y{j}' for j in J)} = y", f"{tup(f'k0_{j}' for j in J)} = fy"]
    step += stages(_A, 1)
    step += [f"yn{j} = y{j} + h * ({_combination(_B, j)})" for j in J]
    step += [f"{x} = yn{j}" for j, x in enumerate(names)]
    step += [f"k{_F_NEW}_{j} = {e}" for j, e in enumerate(exprs)]
    for j in J:
        # the zero-weight f_new term stays: a non-finite f(y_new) makes the
        # error norm NaN
        step += [f"a, b = abs(y{j}), abs(yn{j})",
                 f"scale = {_ATOL!r} + (b if b > a else a) * {_RTOL!r}",
                 f"e5_{j} = ({_combination(_E5, j, keep=_F_NEW)}) / scale",
                 f"e3_{j} = ({_combination(_E3, j, keep=_F_NEW)}) / scale"]
    step += ["s5 = 0.0" + "".join(f" + e5_{j} * e5_{j}" for j in J),
             "s3 = 0.0" + "".join(f" + e3_{j} * e3_{j}" for j in J),
             f"return [{', '.join(f'yn{j}' for j in J)}], "
             f"[{', '.join(f'k{_F_NEW}_{j}' for j in J)}], s5, s3, {K}"]

    dense = [f"{K} = K", f"{tup(f'y{j}' for j in J)} = y_old",
             f"{tup(f'yn{j}' for j in J)} = y"]
    dense += stages(_A_EXTRA, _F_NEW + 1, [e.replace("float(", "num(") for e in exprs])
    dense += [f"dy{j} = yn{j} - y{j}" for j in J]
    F = [tup(f"dy{j}" for j in J),
         tup(f"h * k0_{j} - dy{j}" for j in J),
         tup(f"2.0 * dy{j} - h * (k{_F_NEW}_{j} + k0_{j})" for j in J)]
    F += [tup(f"h * ({_combination(d, j)})" for j in J) for d in _D]
    dense += [f"return {tup(F)}"]

    def body(lines):
        return "".join(f"        {line}\n" for line in lines)

    return (f"def make(f, fprime, g):\n"
            f"    def rhs(y):\n"
            f"        {tup(names)} = y\n"
            f"        return [{', '.join(exprs)}]\n"
            f"    def step(y, fy, h):\n{body(step)}"
            f"    def dense(K, h, y_old, y, num=float):\n{body(dense)}"
            f"    return rhs, step, dense\n")


@cache
def _kernel(field: str):
    """The make(f, fprime, g) of _kernel_source for one field of _FIELDS,
    compiled on the first shot that needs it (never at import)."""
    namespace = {}
    exec(compile(_kernel_source(*_FIELDS[field]), f"<waves: {field} kernel>",
                 "exec"), namespace)
    return namespace["make"]


def _rms(v) -> float:
    s = 0.0
    for x in v:
        s += x * x
    return sqrt(s) / sqrt(len(v))


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
    field = ("variational" if len(y0) == 4 else
             "backward" if backward else "forward")
    rhs, rk_step, coefficients = _kernel(field)(n.f, n.fprime, g)
    y = [float(v) for v in y0]
    fy = rhs(y)
    t = 0.0
    h_abs = _initial_step(rhs, y, fy, budget, max_step)
    g_old = [fn(y) for fn, _, _ in events]
    t_events = [[] for _ in events]
    y_events = [[] for _ in events]
    # a dense shot's record of each step: the t and y it reached, its stages
    record, taken = Struct(f"{1 + (_F_NEW + 2) * len(y)}d").pack, bytearray()
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
            y_new, f_new, s5, s3, K = rk_step(y, fy, h)
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

        t_old, y_old = t, y
        t, y, fy = t_new, y_new, f_new
        if dense:
            taken += record(t, *y, *K)
        if not events:
            continue
        g_new = [fn(y) for fn, _, _ in events]
        hits = [i for i, ((_, d, _), a, b) in enumerate(zip(events, g_old, g_new))
                if d * a <= 0.0 <= d * b]
        g_old = g_new
        if not hits:
            continue
        step = (t_old, h, y_old, coefficients(K, h, y_old, y))
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
        if stop:    # at the last root found, the terminal one
            t, y = root, y_events[i][-1]
            break
    return _Shot(t_events, y_events, t, y,
                  _steps(coefficients, y0, taken) if dense else None)


def _steps(coefficients, y0, taken) -> tuple:
    """A dense shot's interpolants (t_old, h, y_old, F) as _Shot holds
    them, from its start (0, y0) and taken, the float64 record of every
    step (the t and y it reached, then its stages K): h is t - t_old, as
    the step computed it, and F comes from one call of the field's dense
    function on arrays, in which an overflow gives inf or NaN as it does
    in Python floats."""
    d = len(y0)
    rows = np.frombuffer(taken).reshape(-1, 1 + (_F_NEW + 2) * d).T
    t = np.concatenate(([0.0], rows[0]))
    y = np.concatenate((np.array(y0, dtype=float)[:, None], rows[1:1 + d]), axis=1)
    h = t[1:] - t[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        F = coefficients(rows[1 + d:], h, y[:, :-1], y[:, 1:], np.asarray)
    return t[:-1], h, y[:, :-1], np.array(F)


def shoot_semi_wave(c: float, beta: float, n: Nonlinearity, *,
                    samples: bool = True, z_budget: float | None = None,
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
        return WaveProfile._sampled(
            "semi", _Sampler(shot, tau_star, True, lambda tau: tau_star - tau,
                             pin_q=(0,)),
            speed=c, slope0=slope0, dslope0=dslope0)
    return WaveProfile(kind="semi", z=np.array([0.0, tau_star]),
                       q=np.array([0.0, y0[0]]), qp=np.array([slope0, y0[1]]),
                       speed=c, slope0=slope0, dslope0=dslope0)


class _Slope(NamedTuple):
    s: float
    ds: float


# one results table per reaction term instance, keyed by id(n) (equal terms
# keep separate tables) and dropped when the term is collected: it maps each
# (beta, mu, max_step) spreading_speed solved to (c_tilde, residual,
# z_budget), the budget its shots used, and _S_MINUS_C0, a key no such
# tuple equals, to the slope s(-c0) critical_advection shot
_RESULTS: dict = {}
_S_MINUS_C0 = "s(-c0)"


def _results(n: Nonlinearity) -> dict:
    table = _RESULTS.get(id(n))
    if table is None:
        table = _RESULTS[id(n)] = {}
        weakref.finalize(n, _RESULTS.pop, id(n), None)
    return table


def _slope(g, n, z_budget, max_step) -> _Slope:
    """s(g) = q'(0) of the semi-wave with drift g, and ds/dg, in one shot."""
    w = shoot_semi_wave(g, 0.0, n, samples=False, z_budget=z_budget,
                        max_step=max_step, variational=True)
    return _Slope(w.slope0, w.dslope0)


def spreading_speed(beta: float, mu: float, n: Nonlinearity, *,
                    max_step: float = _MAX_STEP) -> SpeedResult:
    """Fixed point c_tilde of c = mu * q'(0; c - beta) in (0, c0 + beta).

    Solved by _fixed_point on a query's first call; n's results table
    answers a repeated query with no shot.  The profile is shot again,
    with samples and the solve's shot budget, only when it is read.
    """
    _require_finite(beta=beta, mu=mu)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if beta <= -n.c0:
        raise NoSemiWave(f"beta = {beta:g} <= -c0 = {-n.c0:g}: no spreading speed")
    results, key = _results(n), (beta, mu, max_step)
    if key not in results:
        results[key] = _fixed_point(beta, mu, n, max_step)
    c_tilde, residual, z_budget = results[key]
    return SpeedResult(
        c_tilde=c_tilde, residual=residual,
        _shoot_profile=lambda: shoot_semi_wave(
            c_tilde, beta, n, z_budget=z_budget, max_step=max_step))


def _fixed_point(beta, mu, n, max_step) -> tuple:
    """(c_tilde, residual, z_budget) of spreading_speed's query.

    Newton on F(c) = mu*s(c - beta) - c from c = 0, where F > 0, with the
    bracket [0, c0 + beta - delta]; F is strictly decreasing, so every shot
    narrows the sign bracket and a step leaving it is replaced by
    bisection.  Where F stays positive up to the bracket's end, delta
    shrinks, the shot budget grows, and Newton goes on.  The residual
    |mu*q'(0) - c_tilde| comes from a separate plain shot at the root.
    """
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
    hi, bracketed = cmax - delta, False   # bracketed: F(hi) <= 0 seen
    f, df = newton_pair(c)
    if f <= 0.0:
        raise NumericalError("slope map not positive at c = 0")
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
            slope0 = shoot_semi_wave(root, beta, n, samples=False,
                                     z_budget=z_budget, max_step=max_step).slope0
            return root, abs(mu * slope0 - root), z_budget
        delta *= 0.25
        z_budget = shot_budget(delta)
        hi, bracketed = cmax - delta, False
    raise NumericalError("fixed point pinned against c0 + beta; bracket failed")


def critical_advection(mu: float, n: Nonlinearity) -> float:
    """Unique beta_star > c0 with c_tilde(beta_star) = beta_star - c0.

    At that fixed point the semi-wave drift is c - beta = -c0, so
    beta_star = c0 + mu * s(-c0).  The slope s(-c0) does not depend on
    mu: the first call on n shoots it once and keeps it in n's results
    table, and every later call, for any mu, reads it there.
    """
    _require_finite(mu=mu)
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    results = _results(n)
    if _S_MINUS_C0 not in results:
        results[_S_MINUS_C0] = _slope(-n.c0, n, _default_budget(n), _MAX_STEP).s
    return n.c0 + mu * results[_S_MINUS_C0]


def finite_wave(c: float, beta: float, mu: float, n: Nonlinearity, *,
                ctilde: float | None = None,
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
    return WaveProfile._sampled(
        "finite", _Sampler(shot, z_c, False, lambda tau: tau, pin_q=(0,),
                           pin_qp=(-1,)),
        speed=c, slope0=ctilde / mu, endpoint=z_c)


def traveling_wave(c: float, direction: str, n: Nonlinearity, *,
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
    budget = 2.0 * _default_budget(n)
    right = direction == "right"
    y0 = _saddle_launch(c, float(n.fprime(1.0)), -1.0 if right else 1.0)
    events = [
        _event(lambda y: y[0] - TAIL_CUT, -1.0),
        # non-terminal: anchors the translation q(0) = 1/2 with event
        # precision (the tail cut itself is exponentially ill-conditioned)
        _event(lambda y: y[0] - 0.5, -1.0, terminal=False),
    ]
    shot = _shoot(c, n, y0, events, budget, max_step, backward=right,
                  dense=True)
    if not shot.t_events[0]:
        raise NumericalError(f"wave tail not reached within z-budget {budget:g}")
    tau_star = shot.t_events[0][0]
    tau_half = shot.t_events[1][0]
    slope_half = shot.y_events[1][0][1]

    z_of = (lambda tau: tau_half - tau) if right else (lambda tau: tau - tau_half)
    return WaveProfile._sampled(f"traveling-{direction}",
                                _Sampler(shot, tau_star, right, z_of),
                                speed=c, slope0=slope_half)


def tadpole_wave(beta: float, mu: float, n: Nonlinearity, *,
                 beta_star: float | None = None,
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
    # the shot ends at the tail cut's root, or at its budget (a hump below
    # the cut, for beta just above c0)
    if not shot.y[0] < 1e-4:
        raise NumericalError(
            f"tadpole tail not below 1e-4 within z-budget {budget:g}")

    return WaveProfile._sampled(
        "tadpole", _Sampler(shot, shot.t, True, lambda tau: -tau, pin_q=(-1,)),
        speed=beta - n.c0, slope0=-(beta - n.c0) / mu)


def stationary_increasing(beta: float, a: float, b: float, n: Nonlinearity, *,
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
    return WaveProfile._sampled(
        "stationary", _Sampler(shot, tau_star, True, lambda tau: tau_star - tau,
                               pin_q=(0,) if b == 0.0 else ()),
        speed=None, slope0=slope0)
