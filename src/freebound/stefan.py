"""Front-fixed finite-difference solver for the free boundary problem.

The moving domain 0 < x < h(t) is mapped to the unit interval by
xi = x / h(t), turning u(t, x) into w(t, xi) with

    w_t = w_xixi / h^2 + (xi*h' - beta) * w_xi / h + f(w),
    a*w(t,0) - (b/h)*w_xi(t,0) = 0,     w(t,1) = 0,
    h'(t) = -mu * w_xi(t,1) / h.

Each substep is one loop body in step: (1) boundary flux by the one-sided
second-order formula (-4*w[n-1] + w[n-2]) / (2*dxi*h), and h'; (2) the
advective limit dt <= 0.4*dxi*h/(|beta| + h') and the front update; (3)
explicit advection, mesh drift and reaction with implicit diffusion, the
mixed boundary folded into the first row, solved by LAPACK gtsv; a failed
or non-finite solve raises NumericalError.

A substep is some twenty numpy and LAPACK calls on a few hundred entries,
so call overhead, not arithmetic, sets its cost.  step therefore hoists
what does not change within a call: the grid xi (built once per spec, in
ProblemSpec.xi), beta, mu, a, b, |beta| and f.  It keeps its scalars in
Python floats, builds the right-hand side in one buffer with in-place
operations, fills np.empty arrays (half the cost of np.full at this size),
lets gtsv overwrite the arrays made for that substep, and writes the new w
into np.empty.  The order of every floating-point operation is
load-bearing: trajectories are bit-identical to the plain loop kept as
reference_step in tests/oracles.py, so dt/(h*h*dxi*dxi) may not become
dt/(h*h*dxi2), and no sum or product may be regrouped.

Runtime certificates maintained every step: h' > 0, w >= 0 (round-off
below -1e-10 aborts), and sup w <= eta(t) + 1e-6 where eta solves the
space-free comparison ODE eta' = f(eta), eta(0) = sup u0 + 1, by the RK4
step that ode_upper_bound also uses.

simulate_many runs K specs that share nx, dt, tmax, a, b and the reaction
term as one lockstep ensemble, so a substep's thirty-odd numpy and LAPACK
calls are made once for all K members instead of once per member.  Each
nominal step, every member takes a substep together, then the members
still short of their target take further substeps as a sub-ensemble; each
member's dt, h and h' come from step's own expressions, evaluated
elementwise, and eta is stepped once per distinct eta(0).  The K
tridiagonal systems go into one gtsv call (_stacked_system): every
off-diagonal at a joint between members is exactly zero, so gtsv's
multiplier there is zero, it takes the no-interchange branch, and each
update across the joint subtracts an exact zero; every member's solution,
and so its trajectory, is bit-identical to simulate(spec).  Every check of
step and simulate runs for every member at the same point.  The saving is
call overhead: at nx = 200 an ensemble substep costs about as much as
three or four single ones for eight members, but a one-member ensemble
costs twice what step does, so single runs stay on step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import InvariantViolation, NumericalError, _require_finite
from .nonlinearity import Nonlinearity

__all__ = [
    "ProblemSpec",
    "FrontState",
    "Trajectory",
    "default_initial_profile",
    "initial_state",
    "step",
    "simulate",
    "simulate_many",
    "ode_upper_bound",
]

CLAMP_FLOOR = -1e-10
CEILING_SLACK = 1e-6
CFL_SAFETY = 0.4


def default_initial_profile(h0: float, a: float, b: float) -> Callable:
    """Peak-normalized quadratic profile compatible with the left boundary.

    psi(x) = (h0 - x)(x + k) / N with k = b*h0 / (a*h0 + b), which gives
    a*psi(0) = b*psi'(0) exactly (k = 0 for b = 0, k = h0 for a = 0),
    psi(h0) = 0, psi'(h0) < 0, psi > 0 inside.
    """
    if a + b <= 0.0:
        raise ValueError("need a + b > 0")
    k = b * h0 / (a * h0 + b) if b > 0.0 else 0.0
    peak = ((h0 + k) / 2.0) ** 2

    def psi(x):
        return (h0 - x) * (np.asarray(x, dtype=float) + k) / peak

    return psi


@dataclass(frozen=True)
class ProblemSpec:
    """Full parameterization of one free-boundary run.

    u0 is a callable initial profile on [0, h0]; it must vanish at h0,
    be positive inside, satisfy the mixed boundary relation at 0 within
    discretization tolerance, and have negative slope at h0.  w0 (u0 on
    the grid) and xi (the read-only grid of nx + 1 points on [0, 1]) are
    derived from the other fields.
    """

    beta: float
    mu: float
    a: float
    b: float
    h0: float
    nonlinearity: Nonlinearity
    u0: Callable | None = None
    nx: int = 800
    dt: float | None = None
    tmax: float = 50.0
    w0: np.ndarray = field(init=False, repr=False, compare=False)
    xi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.h0 <= 0.0 or self.mu <= 0.0:
            raise ValueError("h0 and mu must be positive")
        if self.a < 0.0 or self.b < 0.0 or self.a + self.b <= 0.0:
            raise ValueError("need a, b >= 0 with a + b > 0")
        if self.nx < 8:
            raise ValueError("nx too small")
        if self.dt is None:
            object.__setattr__(self, "dt", 2e-4 * self.h0 * self.h0)
        _require_finite(beta=self.beta, mu=self.mu, a=self.a, b=self.b,
                        h0=self.h0, dt=self.dt, tmax=self.tmax)
        if self.dt <= 0.0 or self.tmax <= 0.0:
            raise ValueError("dt and tmax must be positive")
        # u0 = None stays None so dataclasses.replace(spec, h0=...) re-resolves
        # the default profile for the new front position
        u0 = self.u0 if self.u0 is not None else default_initial_profile(
            self.h0, self.a, self.b)
        object.__setattr__(self, "w0", self._sample_initial(u0))
        xi = np.linspace(0.0, 1.0, self.nx + 1)
        xi.flags.writeable = False
        object.__setattr__(self, "xi", xi)

    def _sample_initial(self, u0) -> np.ndarray:
        x = np.linspace(0.0, self.h0, self.nx + 1)
        w = np.asarray(u0(x), dtype=float).copy()
        if not np.all(np.isfinite(w)):
            raise ValueError("u0 must be finite on [0, h0]")
        sup = float(np.max(np.abs(w)))
        if sup == 0.0:
            raise ValueError("u0 is identically zero: not an admissible profile")
        if abs(w[-1]) > 1e-8 * max(1.0, sup):
            raise ValueError(f"u0(h0) = {w[-1]:.3e} must vanish")
        w[-1] = 0.0
        if np.any(w[1:-1] <= 0.0):
            raise ValueError("u0 must be positive in (0, h0)")
        dx = self.h0 / self.nx
        slope_h0 = (3.0 * w[-1] - 4.0 * w[-2] + w[-3]) / (2.0 * dx)
        if slope_h0 >= 0.0:
            raise ValueError("u0 must have negative slope at h0")
        slope_0 = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * dx)
        bc = self.a * w[0] - self.b * slope_0
        tol = 1e-6 * (self.a + self.b + 1.0) * max(1.0, sup)
        if abs(bc) > tol:
            raise ValueError(f"B[u0](0) = {bc:.3e} exceeds tolerance {tol:.1e}")
        return w


@dataclass
class FrontState:
    """Solution at one time level on the front-fixed grid."""

    t: float
    h: float
    w: np.ndarray
    hprime: float


@dataclass
class Trajectory:
    """Recorded time series of one run, immutable once returned."""

    times: np.ndarray
    h: np.ndarray
    hprime: np.ndarray
    supu: np.ndarray
    eta: np.ndarray
    snapshots: list  # (t, x, u) triples
    spec: ProblemSpec


def _boundary_flux(w: np.ndarray, dxi: float, h: float) -> float:
    # u_x(t, h) with w[n] = 0 folded in; item() keeps the scalar work in
    # Python floats, which round exactly as numpy's float64 scalars do
    return (-4.0 * w.item(-2) + w.item(-3)) / (2.0 * dxi * h)


def step(state: FrontState, spec: ProblemSpec) -> FrontState:
    """Advance one nominal time step spec.dt, sub-stepping under the
    advective limit dt <= 0.4*dxi*h/(|beta| + h')."""
    n = spec.nx
    dxi = 1.0 / n
    xi = spec.xi[1:-1]
    beta, mu, a, b = spec.beta, spec.mu, spec.a, spec.b
    abs_beta = abs(beta)
    f = spec.nonlinearity.f
    t, h, w, hp = state.t, state.h, state.w, state.hprime
    target = t + spec.dt
    while t < target - 1e-15 * max(1.0, target):
        hp = -mu * _boundary_flux(w, dxi, h)
        if hp <= 0.0:
            raise InvariantViolation(
                f"front speed h' = {hp:.3e} <= 0 at t = {t:.6g}")
        dt = min(target - t, CFL_SAFETY * dxi * h / (abs_beta + hp + 1e-30))
        h_new = h + dt * hp

        # rhs = w + dt*(vel*grad + f(w)) on w[1..n-1], built in one buffer
        vel = xi * hp
        vel -= beta
        vel /= h
        rhs = w[2:] - w[:-2]
        rhs /= 2.0 * dxi
        rhs *= vel
        rhs += f(w[1:-1])
        rhs *= dt
        rhs += w[1:-1]

        # implicit diffusion on w[1..n-1]; w0 = a1*w1 + a2*w2 from
        # a*w0 - (b/h)*(-3w0+4w1-w2)/(2 dxi) = 0 is folded into the first row
        r = dt / (h_new * h_new * dxi * dxi)
        sub = np.empty(n - 2)
        sub.fill(-r)
        sup = np.empty(n - 2)
        sup.fill(-r)
        diag = np.empty(n - 1)
        diag.fill(1.0 + 2.0 * r)
        if b > 0.0:  # for b = 0 the fold would subtract exact zeros
            den = 2.0 * a * dxi * h_new + 3.0 * b
            a1, a2 = 4.0 * b / den, -b / den
            diag[0] -= r * a1
            sup[0] -= r * a2
        *_, x, info = dgtsv(sub, diag, sup, rhs, overwrite_dl=1, overwrite_d=1,
                            overwrite_du=1, overwrite_b=1)
        if info != 0 or not np.isfinite(x).all():
            raise NumericalError(
                f"tridiagonal solve gave a non-finite density at t = {t:.6g} "
                f"(LAPACK info = {info})")

        w = np.empty(n + 1)
        w[1:-1] = x
        w[-1] = 0.0
        w[0] = a1 * x.item(0) + a2 * x.item(1) if b > 0.0 else 0.0
        if w.min() < CLAMP_FLOOR:
            raise NumericalError(
                f"density {w.min():.3e} below clamp floor at "
                f"t = {t:.6g}: reduce dt")
        np.maximum(w, 0.0, out=w)
        t, h = t + dt, h_new
    return FrontState(t=t, h=h, w=w, hprime=hp)


def initial_state(spec: ProblemSpec) -> FrontState:
    w = spec.w0.copy()
    hp = -spec.mu * _boundary_flux(w, 1.0 / spec.nx, spec.h0)
    return FrontState(t=0.0, h=spec.h0, w=w, hprime=hp)


def _eta_step(n: Nonlinearity, eta: float, dt: float) -> float:
    # classical RK4 on eta' = f(eta)
    k1 = float(n.f(eta))
    k2 = float(n.f(eta + 0.5 * dt * k1))
    k3 = float(n.f(eta + 0.5 * dt * k2))
    k4 = float(n.f(eta + dt * k3))
    return eta + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def simulate(spec: ProblemSpec, snapshot_times: Sequence[float] = (),
             stop: Callable[[FrontState], bool] | None = None) -> Trajectory:
    """Run to tmax, recording (t, h, h', sup u, eta) every nominal step.

    Profiles are snapshotted at the first step reaching each requested
    time; the final profile is always included.  The ceiling
    sup u <= eta + 1e-6 is enforced throughout.

    With stop set, the run ends after the first nominal step (recorded and
    snapshotted) whose state makes stop(state) true; at least one step is
    taken.  The recorded arrays then hold only the steps taken, a bitwise
    prefix of the full-horizon run, and every per-step check has run on
    each of them.
    """
    state = initial_state(spec)
    n_steps = int(np.ceil(spec.tmax / spec.dt))
    eta = float(np.max(spec.w0)) + 1.0

    times = np.empty(n_steps + 1)
    hs = np.empty(n_steps + 1)
    hps = np.empty(n_steps + 1)
    sups = np.empty(n_steps + 1)
    etas = np.empty(n_steps + 1)
    snapshots = []
    pending = sorted(float(t) for t in snapshot_times)
    xi = spec.xi

    def record(i, st, eta_now):
        times[i] = st.t
        hs[i] = st.h
        hps[i] = st.hprime
        sups[i] = float(np.max(st.w))
        etas[i] = eta_now
        if sups[i] > eta_now + CEILING_SLACK:
            raise InvariantViolation(
                f"sup u = {sups[i]:.8g} exceeds eta = {eta_now:.8g} "
                f"at t = {st.t:.6g}")

    record(0, state, eta)
    for i in range(1, n_steps + 1):
        try:
            state = step(state, spec)
        except (InvariantViolation, NumericalError) as exc:
            raise type(exc)(f"{exc} (while stepping to t = {i * spec.dt:.6g})") from exc
        eta = _eta_step(spec.nonlinearity, eta, spec.dt)
        record(i, state, eta)
        while pending and state.t >= pending[0] - 1e-12:
            snapshots.append((state.t, xi * state.h, state.w.copy()))
            pending.pop(0)
        if stop is not None and stop(state):
            break

    if not snapshots or snapshots[-1][0] < state.t:
        snapshots.append((state.t, xi * state.h, state.w.copy()))

    k = i + 1  # records taken; n_steps >= 1, so the loop ran
    return Trajectory(times=times[:k], h=hs[:k], hprime=hps[:k],
                      supu=sups[:k], eta=etas[:k],
                      snapshots=snapshots, spec=spec)


def _stacked_system(r, fold, n):
    """(dl, d, du) of len(r) implicit-diffusion systems stacked for one
    gtsv call, as step builds them for r = dt/(h*h*dxi*dxi), with the
    Robin fold (a1, a2) in each first row when fold is given.

    Member k owns rows k*(n+1) - 1 ... k*(n+1) + n - 1, the entries of its
    w less the very first and last of the stack: its n - 1 interior rows
    are step's system, its boundary entries are identity rows, and every
    off-diagonal that touches a boundary entry is zero.  gtsv's
    elimination then multiplies by exactly zero across each joint, so
    every member's solution is bit-identical to its own gtsv call.
    """
    width = n + 1
    off = (-r).repeat(width)
    off[::width] = 0.0
    off[n - 1::width] = 0.0
    off[n::width] = 0.0
    sup = off.copy()
    diag = (1.0 + 2.0 * r).repeat(width)
    diag[::width] = 1.0
    diag[n::width] = 1.0
    if fold is not None:
        a1, a2 = fold
        diag[1::width] -= r * a1
        sup[1::width] -= r * a2
    last = len(off) - 2
    return off[1:last], diag[1:-1], sup[1:last]


def simulate_many(specs: Sequence[ProblemSpec]) -> list[Trajectory]:
    """simulate(spec) for each spec, the runs stepped as one lockstep
    ensemble; each trajectory is bit-identical to simulate(spec)'s.

    The specs must share nx, dt, tmax, a, b and one reaction term (the
    same Nonlinearity); beta, mu, h0 and u0 may differ.  Only the final
    profile is snapshotted.  A check that fails in any member raises the
    error simulate would raise, its message prefixed with the member's
    index (a non-finite solve cannot name one), and no trajectory is
    returned.
    """
    specs = list(specs)
    if not specs:
        return []
    s0 = specs[0]
    shared = ("nx", "dt", "tmax", "a", "b", "nonlinearity")
    for s in specs[1:]:
        for name in shared:
            if getattr(s, name) != getattr(s0, name):
                raise ValueError(f"ensemble members differ in {name}")
    n, a, b, f = s0.nx, s0.a, s0.b, s0.nonlinearity.f
    dxi = 1.0 / n
    xi = s0.xi
    beta = np.array([s.beta for s in specs])
    abs_beta = np.abs(beta)
    neg_mu = -np.array([s.mu for s in specs])

    def substep(W, t, h, target, ids):
        """step's loop body for the members ids, whose rows of W, t, h
        and target are given; W's rows end to end are one stacked system."""
        K = len(ids)
        hp = neg_mu[ids] * ((-4.0 * W[:, -2] + W[:, -3]) / (2.0 * dxi * h))
        if hp.min() <= 0.0:
            k = (hp <= 0.0).argmax()
            raise InvariantViolation(
                f"ensemble member {ids[k]}: front speed h' = {hp[k]:.3e} <= 0 "
                f"at t = {t[k]:.6g}")
        dt = np.minimum(target - t,
                        CFL_SAFETY * dxi * h / (abs_beta[ids] + hp + 1e-30))
        h_new = h + dt * hp

        # rhs as step builds it, on W's rows end to end: the boundary
        # entries get finite values, which their identity rows pass through
        vel = xi * hp[:, None]
        vel -= beta[ids, None]
        vel /= h[:, None]
        rhs = np.empty((K, n + 1))
        flat = rhs.reshape(-1)
        np.subtract(W.reshape(-1)[2:], W.reshape(-1)[:-2], out=flat[1:-1])
        flat[0] = flat[-1] = 0.0
        rhs /= 2.0 * dxi
        rhs *= vel
        rhs[:, 1:-1] += f(W[:, 1:-1])  # f only where step evaluates it
        rhs *= dt[:, None]
        rhs += W

        r = dt / (h_new * h_new * dxi * dxi)
        fold = None
        if b > 0.0:
            den = 2.0 * a * dxi * h_new + 3.0 * b
            fold = 4.0 * b / den, -b / den
        *_, x, info = dgtsv(*_stacked_system(r, fold, n), flat[1:-1],
                            overwrite_dl=1, overwrite_d=1, overwrite_du=1,
                            overwrite_b=1)
        if info != 0 or not np.isfinite(x).all():
            # 0*NaN carries a non-finite value across the joints, so the
            # member that caused it cannot be told from x
            raise NumericalError(
                f"tridiagonal solve gave a non-finite density in an ensemble "
                f"of {K} at t = {t.min():.6g} (LAPACK info = {info})")

        W = rhs
        flat[1:-1] = x  # a no-op where dgtsv solved in place
        W[:, -1] = 0.0
        W[:, 0] = fold[0] * W[:, 1] + fold[1] * W[:, 2] if fold else 0.0
        if W.min() < CLAMP_FLOOR:
            low = W.min(axis=1)
            k = (low < CLAMP_FLOOR).argmax()
            raise NumericalError(
                f"ensemble member {ids[k]}: density {low[k]:.3e} below clamp "
                f"floor at t = {t[k]:.6g}: reduce dt")
        np.maximum(W, 0.0, out=W)
        return W, t + dt, h_new, hp

    K = len(specs)
    everyone = np.arange(K)
    W = np.array([s.w0 for s in specs])
    t = np.zeros(K)
    h = np.array([s.h0 for s in specs])
    hp = neg_mu * ((-4.0 * W[:, -2] + W[:, -3]) / (2.0 * dxi * h))
    nominal = s0.dt
    n_steps = int(np.ceil(s0.tmax / nominal))
    # eta depends only on eta(0): step each distinct eta(0) once
    eta0 = [float(np.max(s.w0)) + 1.0 for s in specs]
    levels = list(dict.fromkeys(eta0))
    level_of = np.array([levels.index(e) for e in eta0])
    eta = np.array(eta0)

    # row i holds every member's record of nominal step i
    times = np.empty((n_steps + 1, K))
    hs = np.empty((n_steps + 1, K))
    hps = np.empty((n_steps + 1, K))
    sups = np.empty((n_steps + 1, K))
    etas = np.empty((n_steps + 1, K))

    def record(i):
        times[i], hs[i], hps[i], etas[i] = t, h, hp, eta
        sup = sups[i] = W.max(axis=1)
        over = sup > eta + CEILING_SLACK
        if over.any():
            k = over.argmax()
            raise InvariantViolation(
                f"ensemble member {k}: sup u = {sup[k]:.8g} exceeds "
                f"eta = {eta[k]:.8g} at t = {t[k]:.6g}")

    record(0)
    for i in range(1, n_steps + 1):
        target = t + nominal
        limit = target - 1e-15 * np.maximum(1.0, target)
        try:
            while True:  # step's substep loop, run by every member behind
                behind = t < limit
                if behind.all():
                    W, t, h, hp = substep(W, t, h, target, everyone)
                elif behind.any():
                    ids = behind.nonzero()[0]
                    W[ids], t[ids], h[ids], hp[ids] = substep(
                        W[ids], t[ids], h[ids], target[ids], ids)
                else:
                    break
        except (InvariantViolation, NumericalError) as exc:
            raise type(exc)(f"{exc} (while stepping to t = {i * nominal:.6g})") from exc
        levels = [_eta_step(s0.nonlinearity, e, nominal) for e in levels]
        eta = np.array(levels)[level_of]
        record(i)

    return [Trajectory(times=times[:, k].copy(), h=hs[:, k].copy(),
                       hprime=hps[:, k].copy(), supu=sups[:, k].copy(),
                       eta=etas[:, k].copy(),
                       snapshots=[(t.item(k), s.xi * h.item(k), W[k].copy())],
                       spec=s)
            for k, s in enumerate(specs)]


def ode_upper_bound(n: Nonlinearity, eta0: float, t: float) -> float:
    """Solution eta(t) of eta' = f(eta), eta(0) = eta0 > 1.

    Decreases monotonically to 1: the space-free ceiling for sup u.
    Integrated by the RK4 step simulate uses, with equal steps <= 1e-3.
    """
    _require_finite(eta0=eta0, t=t)
    if eta0 <= 1.0:
        raise ValueError("eta0 must exceed 1")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    steps = int(np.ceil(t / 1e-3))
    eta = eta0
    for _ in range(steps):
        nxt = _eta_step(n, eta, t / steps)
        if nxt == eta:  # a fixed point of the step: every later step agrees
            break
        eta = nxt
    return eta
