"""Front-fixed finite-difference solver for the free boundary problem.

The moving domain 0 < x < h(t) is mapped to the unit interval by
xi = x / h(t), turning u(t, x) into w(t, xi) with

    w_t = w_xixi / h^2 + (xi*h' - beta) * w_xi / h + f(w),
    a*w(t,0) - (b/h)*w_xi(t,0) = 0,     w(t,1) = 0,
    h'(t) = -mu * w_xi(t,1) / h.

One time step: (1) boundary flux by the one-sided second-order formula
(-4*w[n-1] + w[n-2]) / (2*dxi*h); (2) explicit front update; (3) implicit
diffusion (tridiagonal solve) with explicit advection, mesh drift and
reaction; (4) mixed boundary folded into the matrix through one-sided
second-order differencing.  The advective step limit
dt <= 0.4*dxi*h/(|beta|+|h'|) is enforced by internal sub-stepping.

Runtime certificates maintained every step: h' > 0, w >= 0 (round-off
below -1e-10 aborts), and sup w <= eta(t) + 1e-6 where eta solves the
space-free comparison ODE eta' = f(eta), eta(0) = sup u0 + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

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
    discretization tolerance, and have negative slope at h0.
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

    def _sample_initial(self, u0) -> np.ndarray:
        x = np.linspace(0.0, self.h0, self.nx + 1)
        w = np.asarray(u0(x), dtype=float).copy()
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
    # u_x(t, h) with w[n] = 0 folded in
    return (-4.0 * w[-2] + w[-3]) / (2.0 * dxi * h)


def _left_coeffs(a: float, b: float, dxi: float, h: float):
    # w0 = a1*w1 + a2*w2 from a*w0 - (b/h)*(-3w0+4w1-w2)/(2 dxi) = 0
    if b == 0.0:
        return 0.0, 0.0
    den = 2.0 * a * dxi * h + 3.0 * b
    return 4.0 * b / den, -b / den


def _substep(state: FrontState, spec: ProblemSpec, dt: float) -> FrontState:
    n = spec.nx
    dxi = 1.0 / n
    w, h = state.w, state.h

    flux = _boundary_flux(w, dxi, h)
    hp = -spec.mu * flux
    if hp <= 0.0:
        raise InvariantViolation(
            f"front speed h' = {hp:.3e} <= 0 at t = {state.t:.6g}")
    h_new = h + dt * hp

    xi = np.linspace(0.0, 1.0, n + 1)
    vel = (xi * hp - spec.beta) / h
    grad = np.empty(n + 1)
    grad[1:-1] = (w[2:] - w[:-2]) / (2.0 * dxi)
    grad[0] = grad[-1] = 0.0  # boundary rows are not advanced explicitly

    rhs = w[1:-1] + dt * (vel[1:-1] * grad[1:-1]
                          + np.asarray(spec.nonlinearity.f(w[1:-1])))

    r = dt / (h_new * h_new * dxi * dxi)
    a1, a2 = _left_coeffs(spec.a, spec.b, dxi, h_new)
    m = n - 1  # unknowns w[1..n-1]
    ab = np.zeros((3, m))
    ab[0, 1:] = -r                    # superdiagonal
    ab[1, :] = 1.0 + 2.0 * r          # diagonal
    ab[2, :-1] = -r                   # subdiagonal
    ab[1, 0] -= r * a1                # fold w0 = a1*w1 + a2*w2
    if m > 1:
        ab[0, 1] -= r * a2
    w_new = np.empty(n + 1)
    w_new[1:-1] = solve_banded((1, 1), ab, rhs)
    w_new[-1] = 0.0
    w_new[0] = a1 * w_new[1] + a2 * w_new[2] if spec.b > 0.0 else 0.0

    bad = w_new < CLAMP_FLOOR
    if np.any(bad):
        raise NumericalError(
            f"density {w_new[bad].min():.3e} below clamp floor at "
            f"t = {state.t:.6g}: reduce dt")
    np.maximum(w_new, 0.0, out=w_new)

    return FrontState(t=state.t + dt, h=h_new, w=w_new, hprime=hp)


def step(state: FrontState, spec: ProblemSpec) -> FrontState:
    """Advance one nominal time step spec.dt, sub-stepping under the
    advective limit dt <= 0.4*dxi*h/(|beta| + |h'|)."""
    dxi = 1.0 / spec.nx
    target = state.t + spec.dt
    while state.t < target - 1e-15 * max(1.0, target):
        flux = _boundary_flux(state.w, dxi, state.h)
        hp = max(-spec.mu * flux, 0.0)
        bound = CFL_SAFETY * dxi * state.h / (abs(spec.beta) + hp + 1e-30)
        dt_s = min(target - state.t, bound)
        state = _substep(state, spec, dt_s)
    return state


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


def simulate(spec: ProblemSpec, snapshot_times: Sequence[float] = ()) -> Trajectory:
    """Run to tmax, recording (t, h, h', sup u, eta) every nominal step.

    Profiles are snapshotted at the first step reaching each requested
    time; the final profile is always included.  The ceiling
    sup u <= eta + 1e-6 is enforced throughout.
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
            xi = np.linspace(0.0, 1.0, spec.nx + 1)
            snapshots.append((state.t, xi * state.h, state.w.copy()))
            pending.pop(0)

    xi = np.linspace(0.0, 1.0, spec.nx + 1)
    if not snapshots or snapshots[-1][0] < state.t:
        snapshots.append((state.t, xi * state.h, state.w.copy()))

    return Trajectory(times=times, h=hs, hprime=hps, supu=sups, eta=etas,
                      snapshots=snapshots, spec=spec)


def ode_upper_bound(n: Nonlinearity, eta0: float, t: float) -> float:
    """Solution eta(t) of eta' = f(eta), eta(0) = eta0 > 1.

    Decreases monotonically to 1: the space-free ceiling for sup u.
    """
    if eta0 <= 1.0:
        raise ValueError("eta0 must exceed 1")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return eta0
    sol = solve_ivp(lambda _s, y: [float(n.f(y[0]))], (0.0, t), [eta0],
                    method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise NumericalError(f"eta integration failed: {sol.message}")
    return float(sol.y[0, -1])
