"""Front-fixed finite-difference solver for the free boundary problem.

The moving domain 0 < x < h(t) is mapped to the unit interval by
xi = x / h(t), turning u(t, x) into w(t, xi) with

    w_t = w_xixi / h^2 + (xi*h' - beta) * w_xi / h + f(w),
    a*w(t,0) - (b/h)*w_xi(t,0) = 0,     w(t,1) = 0,
    h'(t) = -mu * w_xi(t,1) / h.

Each substep is one loop body, in the private kernel _kernel: (1) boundary
flux by the one-sided second-order formula (-4*w[n-1] + w[n-2]) /
(2*dxi*h), and h'; (2) the advective limit dt <= 0.4*dxi*h/(|beta| + h')
and the front update; (3) explicit advection, mesh drift and reaction with
implicit diffusion, the mixed boundary folded into the first row, solved
by LAPACK gtsv; a failed or non-finite solve raises NumericalError.

A substep is some twenty numpy and LAPACK calls on a few hundred entries,
so call overhead, not arithmetic, sets its cost.  The kernel is built once
per run (once per call of step) and hoists all that does not change
within it: the grid xi (built once per spec, in ProblemSpec.xi), beta, mu,
a, b, |beta|, f, and every array.  It owns the velocity buffer, one buffer
whose two halves are gtsv's off-diagonals (one fill sets both), the
diagonal, and two state buffers of nx + 1 entries whose interior and
shifted views are made once.  A substep builds the right-hand side in the
interior of the state buffer it is not reading, and gtsv solves it there
in place, so the new w needs no copy; the two buffers then swap roles.
One min and one max of the solution give every check: a non-finite entry
makes one of them non-finite, the clamp test reads min(lo, w0), max(w, 0)
runs only where some entry is <= 0, and sup w is max(0, hi, w0).  The
contract of the reuse: the w the kernel returns is overwritten by its next
advance, so the run driver copies it into every snapshot and into every
state it hands to stop, and step returns the buffer of a kernel it then
drops.  gtsv alone takes about 18 us of a substep at nx = 800.

The order of every floating-point operation is load-bearing: steps are
bit-identical to the plain loop kept as reference_step in tests/oracles.py,
and runs to reference_simulate there, which drives that loop one nominal
step at a time; dt/(h*h*dxi*dxi) may not become dt/(h*h*dxi2), and no sum
or product may be regrouped.

gtsv is LAPACK's dgtsv from scipy.linalg._flapack, loaded alone by
_scipy.extension on the first kernel (_kernel and _lockstep, the two
places that build a run's buffers); importing freebound loads numpy only.

Runtime certificates maintained every step: h' > 0, w >= 0 (round-off
below -1e-10 aborts), and sup w <= eta(t) + 1e-6 where eta solves the
space-free comparison ODE eta' = f(eta), eta(0) = sup u0 + 1, by the RK4
step that ode_upper_bound also uses (split into equal substeps where f' is
steep, as from a large eta(0)); once eta is a fixed point of that step it
is not stepped again.

One private driver, _run, runs K >= 1 specs that share nx, dt, tmax, a, b
and the reaction term: simulate is its one-member case and simulate_many
its K-member one.  It owns what every run does once: the checks on the
snapshot times and the shared fields, the one statement that allocates
every member's records (a count no memory holds is refused there with a
ConfigError), eta stepped once per distinct eta(0) until every level is
settled, each member's records, ceiling check and snapshots, simulate's
stop hook, the final snapshot, and the "(while stepping to t = ...)"
context of a failure.  Only the substep engine is picked by member count.
A lone member steps on its kernel with its state in Python floats.  Two or
more step on _lockstep: each nominal step is one joint substep, the
kernel's loop body on the K states laid end to end, each member's dt, h
and h' from the kernel's own expressions evaluated elementwise, on buffers
made once per ensemble (two (K, nx+1) states that swap roles, the
velocity, and gtsv's bands, _stacked_bands).  The K tridiagonal systems go
into one gtsv call: every off-diagonal at a joint between members is
exactly zero, so gtsv's multiplier there is zero, it takes the
no-interchange branch, each update across the joint subtracts an exact
zero, and no joint entry is written, so the joints are set once and only
the interior is refilled.  The joint substep checks nothing itself: it
stands only where every member has h' > 0 and a finite solve with every
entry > 0 (and w0 >= 0), so that no member's kernel would refuse or clamp
it.  A member it leaves short of its target, or every member where it is
declined, finishes the nominal step alone on its own kernel (built once
per ensemble and seated at its row with one copy).  So every check and
clamp is a kernel's, and each member's trajectory is bit-identical to
simulate(spec).

Every member's run ends in one table, ends[k] = (its last recorded
nominal step, its error or None), written where the end happens: by its
recorder at tmax, when stop holds or when the ceiling check fails, and by
fail when its kernel raises, in a lone run or in _lockstep's loop over
the members, which goes on to the next; that member is not recorded in
that step, and its error is simulate(spec)'s.  The step loop breaks in
the step where a member ends; the rest go on from their states there, on
an engine picked again by their number, and nothing restarts from t = 0.
Only the eta levels of the members still stepping are stepped: a departed
member's eta can be infinite, which _eta_step would split into 1e4
substeps a step.

The two substep bodies stay because each wins on a workload the benchmark
runs: threshold-mu and front-800 step one member, sweep-16 two ensembles
of eight.  One body for m stacked members, m = 1 for a lone run, was
bit-identical but made a lone step 30-40 % slower at nx = 300 (23.1-24.1
against 30.1-33.6 us) and 8-18 % slower at nx = 800, since each stacked
or strided numpy call costs 0.3-0.5 us more than its 1-D form; on
length-1 arrays the records and the ceiling test alone cost 4.1 us a
step against 0.6 us in Python floats (a noisy 2-core host).  At nx = 200
an ensemble's nominal step costs about 70 / 130 / 202 us for K = 2 / 8 /
16 against 26-35 us for a lone run, so from about three members on the
ensemble is cheaper than its members run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._scipy import extension
from .errors import ConfigError, InvariantViolation, NumericalError, _require_finite
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
# most nominal steps a run may take: its records, ceil(tmax/dt) + 1 float64s,
# must fit numpy's index range in bytes; a count below it whose records fit
# in no memory is refused where they are allocated
MAX_STEPS = np.iinfo(np.intp).max // np.dtype(float).itemsize - 1


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
        # refused here, before a run allocates its records
        steps = self.tmax / self.dt
        if not steps < MAX_STEPS:
            raise ValueError(f"tmax / dt = {self.tmax!r} / {self.dt!r} gives {steps:.3g} "
                             f"steps, more than an array can hold: raise dt or lower tmax")
        if steps == 0.0:  # the quotient underflows: a run would take no step
            raise ValueError(f"tmax / dt = {self.tmax!r} / {self.dt!r} underflows to 0 "
                             f"steps: lower dt or raise tmax")
        try:
            xi = np.linspace(0.0, 1.0, self.nx + 1)
        except (MemoryError, ValueError) as exc:  # ValueError: past numpy's index range
            raise ValueError(f"nx = {self.nx!r} gives a grid of nx + 1 points that does "
                             f"not fit in memory: lower nx") from exc
        xi.flags.writeable = False
        # u0 = None stays None so dataclasses.replace(spec, h0=...) re-resolves
        # the default profile for the new front position
        u0 = self.u0 if self.u0 is not None else default_initial_profile(
            self.h0, self.a, self.b)
        object.__setattr__(self, "w0", self._sample_initial(u0))
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


def _kernel(spec: ProblemSpec, state: FrontState):
    """The substep loop of one run, on buffers made once, started at state.

    Returns (advance, seat).  advance(target) -> (t, h, h', w, sup w)
    takes substeps until t reaches target.  The returned w is one of the
    kernel's two state buffers and the next call overwrites it: a caller
    that keeps it keeps a copy.  state itself is not modified.
    seat(t, h, w) starts the next advance from (t, h, w) at the cost of
    one copy of w; that advance must take a substep, which sets h' and
    sup w anew.
    """
    dgtsv = extension("scipy.linalg._flapack").dgtsv

    n = spec.nx
    dxi = 1.0 / n
    two_dxi = 2.0 * dxi
    cfl_dxi = CFL_SAFETY * dxi
    xi = spec.xi[1:-1]
    beta, mu, a, b = spec.beta, spec.mu, spec.a, spec.b
    abs_beta = abs(beta)
    f = spec.nonlinearity.f
    vel = np.empty(n - 1)
    off = np.empty(2 * (n - 2))  # dl and du: one fill sets both
    dl, du = off[:n - 2], off[n - 2:]
    diag = np.empty(n - 1)
    lowest, highest = np.minimum.reduce, np.maximum.reduce  # x.min(), x.max()

    def views(w):  # the state, its interior and its two shifted interiors
        return w, w[1:-1], w[2:], w[:-2]

    w = np.array(state.w, dtype=float)
    cur, nxt = views(w), views(np.empty(n + 1))
    t, h, hp, sup = state.t, state.h, state.hprime, float(w.max())

    def seat(t_start, h_start, w_start):
        nonlocal t, h
        t, h = t_start, h_start
        cur[0][...] = w_start

    def advance(target):
        nonlocal cur, nxt, t, h, hp, sup
        limit = target - 1e-15 * max(1.0, target)
        while t < limit:
            w, w_in, w_right, w_left = cur
            hp = -mu * _boundary_flux(w, dxi, h)
            if hp <= 0.0:
                raise InvariantViolation(
                    f"front speed h' = {hp:.3e} <= 0 at t = {t:.6g}")
            dt = min(target - t, cfl_dxi * h / (abs_beta + hp + 1e-30))
            h_new = h + dt * hp

            # x = w + dt*(vel*grad + f(w)) on w[1..n-1], built in the next
            # state's interior, which gtsv then overwrites with the solution;
            # a ufunc's third argument is its output (out= costs a keyword)
            new, x = nxt[0], nxt[1]
            np.multiply(xi, hp, vel)
            np.subtract(vel, beta, vel)
            np.divide(vel, h, vel)
            np.subtract(w_right, w_left, x)
            x /= two_dxi
            x *= vel
            x += f(w_in)
            x *= dt
            x += w_in

            # implicit diffusion on w[1..n-1]; w0 = a1*w1 + a2*w2 from
            # a*w0 - (b/h)*(-3w0+4w1-w2)/(2 dxi) = 0 is folded into the first row
            r = dt / (h_new * h_new * dxi * dxi)
            off.fill(-r)
            diag.fill(1.0 + 2.0 * r)
            if b > 0.0:  # for b = 0 the fold would subtract exact zeros
                den = 2.0 * a * dxi * h_new + 3.0 * b
                a1, a2 = 4.0 * b / den, -b / den
                diag[0] -= r * a1
                du[0] -= r * a2
            # overwrite_dl, _d, _du and _b, by position: f2py's keyword
            # parsing would cost more than the rest of the call
            info = dgtsv(dl, diag, du, x, 1, 1, 1, 1)[-1]
            # min and max of x give every check: a non-finite entry makes
            # one of them non-finite, and the new w is x, w0 and w[n] = 0
            lo, hi = lowest(x), highest(x)
            if info != 0 or not (math.isfinite(lo) and math.isfinite(hi)):
                raise NumericalError(
                    f"tridiagonal solve gave a non-finite density at t = {t:.6g} "
                    f"(LAPACK info = {info})")
            w0 = a1 * x.item(0) + a2 * x.item(1) if b > 0.0 else 0.0
            new[0] = w0
            new[-1] = 0.0
            if lo <= 0.0 or w0 < 0.0:  # otherwise max(w, 0) is w itself
                low = min(lo, w0)
                if low < CLAMP_FLOOR:
                    # the centred advection difference undershoots where the
                    # cell Peclet number |beta| h / nx passes 2 (diffusion 1),
                    # and a smaller dt does not help there
                    peclet = abs_beta * h / n
                    advice = (f"cell Peclet number |beta| h / nx = {peclet:.3g} > 2 "
                              f"at nx = {n}: raise nx" if peclet > 2.0 else "reduce dt")
                    raise NumericalError(
                        f"density {low:.3e} below clamp floor at t = {t:.6g}: {advice}")
                np.maximum(new, 0.0, out=new)
            # max(w, 0) leaves +0.0 where w <= 0, so 0.0 goes first
            sup = max(0.0, hi, w0)
            cur, nxt = nxt, cur
            t, h = t + dt, h_new
        return t, h, hp, cur[0], sup

    return advance, seat


def step(state: FrontState, spec: ProblemSpec) -> FrontState:
    """Advance one nominal time step spec.dt, sub-stepping under the
    advective limit dt <= 0.4*dxi*h/(|beta| + h').  The new state owns its
    w; state is not modified."""
    t, h, hp, w, _ = _kernel(spec, state)[0](state.t + spec.dt)
    return FrontState(t=t, h=h, w=w, hprime=hp)


def initial_state(spec: ProblemSpec) -> FrontState:
    w = spec.w0.copy()
    hp = -spec.mu * _boundary_flux(w, 1.0 / spec.nx, spec.h0)
    return FrontState(t=0.0, h=spec.h0, w=w, hprime=hp)


def _eta_step(n: Nonlinearity, eta: float, dt: float) -> float:
    # classical RK4 on eta' = f(eta) over dt, in m equal substeps where one
    # step would take dt*|f'(eta)| past 0.1: past 0.5 RK4 undershoots a steep
    # decay, and from 0.1 down its relative error is below 1e-6; m = 1 is
    # the plain step, bit for bit.  At most 1e4 substeps, so that a huge or
    # non-finite f'(eta) costs a bounded loop
    f = n.f
    steep = dt * abs(n.fprime(eta))
    m = math.ceil(10.0 * min(steep, 1e3)) if steep > 0.1 else 1
    dt /= m
    for _ in range(m):
        k1 = float(f(eta))
        k2 = float(f(eta + 0.5 * dt * k1))
        k3 = float(f(eta + 0.5 * dt * k2))
        k4 = float(f(eta + dt * k3))
        eta = eta + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return eta


def simulate(spec: ProblemSpec, snapshot_times: Sequence[float] = (),
             stop: Callable[[FrontState], bool] | None = None) -> Trajectory:
    """Run to tmax, recording (t, h, h', sup u, eta) every nominal step.

    Profiles are snapshotted at the first step reaching each requested
    time, once for all the times one step reaches; the final profile is
    always included.  The ceiling sup u <= eta + 1e-6 is enforced
    throughout.

    With stop set, the run ends after the first nominal step (recorded and
    snapshotted) whose state makes stop(state) true; at least one step is
    taken.  Each state passed to stop owns its w.  The recorded arrays then
    hold only the steps taken, a bitwise prefix of the full-horizon run,
    and every per-step check has run on each of them.

    Raises ValueError for a snapshot time that is not finite or is
    negative, and ConfigError when the records of tmax / dt steps do not
    fit in memory.
    """
    run, = _run([spec], snapshot_times, stop)
    if isinstance(run, Exception):
        raise run
    return run


def simulate_many(specs: Sequence[ProblemSpec]) -> list[Trajectory | NumericalError]:
    """simulate(spec)'s outcome for each spec, the runs stepped as one
    lockstep ensemble: the trajectory, bit-identical to simulate(spec)'s,
    or the error simulate(spec) raises, of the same type and text.

    The specs must share nx, dt, tmax, a, b and one reaction term (the
    same Nonlinearity); beta, mu, h0 and u0 may differ.  Only the final
    profile is snapshotted.  A member that fails leaves with its own error
    at the nominal step where it fails; the rest step on.  Raises only for
    an ensemble it cannot build: ValueError for members that differ in a
    shared field, ConfigError for records that no memory holds.
    """
    return _run(specs)


def _run(specs, snapshot_times=(), stop=None) -> list:
    """The one run driver: every spec stepped to tmax, each member
    recorded, checked against its ceiling and snapshotted as simulate
    says.  Each member's end goes into the table ends, as (last recorded
    step, error or None), in the step where it happens, and the step loop
    breaks there; the members still stepping pick their engine again by
    their number: one on its kernel, two or more on _lockstep.  Returns
    ends[k]'s error or member k's Trajectory up to that step.  stop is
    simulate's and comes only with a lone spec."""
    requested = [float(t) for t in snapshot_times]
    if not all(0.0 <= t < math.inf for t in requested):
        raise ValueError(f"snapshot times must be finite and >= 0, got {requested!r}")
    specs = list(specs)
    if not specs:
        return []
    s0 = specs[0]
    for s in specs[1:]:
        for name in ("nx", "dt", "tmax", "a", "b", "nonlinearity"):
            if getattr(s, name) != getattr(s0, name):
                raise ValueError(f"ensemble members differ in {name}")
    K = len(specs)
    nominal = s0.dt
    n_steps = int(np.ceil(s0.tmax / nominal))
    try:
        # t, h, h', sup u and eta, one block: row k of each is member k's, a
        # column a nominal step
        records = np.empty((5, K, n_steps + 1))
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's index range
        raise ConfigError(
            f"tmax / dt = {s0.tmax!r} / {nominal!r} gives {n_steps} steps, whose "
            f"records do not fit in memory: raise dt or lower tmax") from exc
    states = [initial_state(s) for s in specs]
    for k, st in enumerate(states):
        sup = float(np.max(st.w))
        for series, value in zip(records, (st.t, st.h, st.hprime, sup, sup + 1.0)):
            series[k, 0] = value
    # each member's eta where its engine starts; eta depends only on eta(0)
    eta_at = records[4][:, 0].tolist()
    snapshots = [[] for _ in specs]
    ends = {}  # member: (its last recorded nominal step, its error or None)

    def recorder(k):
        """record(i, t, h, hp, sup, eta, w) -> ended: member k's nominal step
        i, which ends k's run at tmax, when stop holds, or when k fails its
        ceiling check."""
        times, hs, hps, sups, etas = (series[k] for series in records)
        xi, snaps = specs[k].xi, snapshots[k]
        pending = sorted(requested)

        def record(i, t, h, hp, sup, eta, w):
            nonlocal pending
            times[i], hs[i], hps[i], sups[i], etas[i] = t, h, hp, sup, eta
            if sup > eta + CEILING_SLACK:
                ends[k] = i, InvariantViolation(
                    f"sup u = {sup:.8g} exceeds eta = {eta:.8g} at t = {t:.6g}")
                return True
            done = (stop is not None and stop(FrontState(t=t, h=h, w=w.copy(), hprime=hp))
                    or i == n_steps)
            # one snapshot covers every requested time this step reached, and
            # the last step's
            if done or pending and t >= pending[0] - 1e-12:
                snaps.append((t, xi * h, w.copy()))
                pending = [s for s in pending if t < s - 1e-12]
            if done:
                ends[k] = i, None
            return done

        return record

    def fail(p, exc):
        """The kernel of the group's member p failed in nominal step i: the
        member ends, unrecorded in that step, with simulate's error."""
        error = type(exc)(f"{exc} (while stepping to t = {i * nominal:.6g})")
        error.__cause__ = exc
        ends[group[p]] = i - 1, error

    recorders = [recorder(k) for k in range(K)]
    f = s0.nonlinearity
    group = list(range(K))  # the members still stepping
    settled = False  # every level is a fixed point of the RK4 step: it stays put
    i = 0
    while group:
        # the engine by member count, from the group's current states: a
        # lone member's state is Python floats and its w, an ensemble's
        # vectors and its rows, and eta one level or one per distinct value
        if len(group) == 1:
            k, = group
            advance, _ = _kernel(specs[k], states[k])
            record = recorders[k]
            t, eta = states[k].t, eta_at[k]

            def step_eta(eta):
                return _eta_step(f, eta, nominal)
        else:
            advance = _lockstep([specs[k] for k in group], [states[k] for k in group], fail)
            t = np.array([states[k].t for k in group])
            eta = list(dict.fromkeys(eta_at[k] for k in group))
            level_of = [eta.index(eta_at[k]) for k in group]

            def record(i, t, h, hp, sup, levels, rows):
                columns = zip(group, t.tolist(), h.tolist(), hp.tolist(), sup.tolist(),
                              level_of, rows)
                for k, tk, hk, hpk, supk, level, w in columns:
                    if k not in ends:  # a member whose kernel failed is not recorded
                        recorders[k](i, tk, hk, hpk, supk, levels[level], w)
                return not ends.keys().isdisjoint(group)  # a member ended here

            def step_eta(levels):
                return [_eta_step(f, e, nominal) for e in levels]

        for i in range(i + 1, n_steps + 1):
            try:
                t, h, hp, w, sup = advance(t + nominal)
            except (InvariantViolation, NumericalError) as exc:  # a lone member's kernel
                fail(0, exc)
                break
            if not settled:
                stepped = step_eta(eta)
                settled = stepped == eta
                eta = stepped
            if record(i, t, h, hp, sup, eta, w):
                break
        # the others step on from their states at step i
        for p, k in enumerate(group):
            if k not in ends:
                states[k] = FrontState(t=t.item(p), h=h.item(p), w=w[p], hprime=hp.item(p))
                eta_at[k] = eta[level_of[p]]
        group = [k for k in group if k not in ends]
    return [error or Trajectory(*(series[k, :last + 1] for series in records),
                                snapshots=snapshots[k], spec=specs[k])
            for k, (last, error) in sorted(ends.items())]


def _stacked_bands(K, n):
    """gtsv's bands for K implicit-diffusion systems stacked end to end,
    made once per ensemble: (fill, dl, d, du).

    Member k owns rows k*(n+1) - 1 ... k*(n+1) + n - 1, the entries of its
    w less the very first and last of the stack: its n - 1 interior rows
    are the kernel's system, its boundary entries are identity rows, and
    every off-diagonal that touches a boundary entry is zero.  Those joint
    entries are written here, once.  fill(r, fold) writes the interior
    entries for r = dt/(h*h*dxi*dxi), with the Robin fold (a1, a2) in each
    first row when fold is given, as the kernel writes its own; gtsv
    overwrites the bands, so each solve needs a fill first.  gtsv's
    elimination multiplies by exactly zero across each joint, so every
    member's solution is bit-identical to its own gtsv call, and neither
    of its branches changes a joint entry: across a joint it never
    interchanges rows (|d| >= 0 = |dl|), the no-interchange branch writes
    only the next diagonal entry (1 - 0*0 = 1) and dl (zero), and an
    interchange inside a member, which the Robin fold can cause, writes a
    joint entry at most as -fact*0, a zero.
    """
    # off[0, k, j] couples row j of member k to row j - 1 (dl), and
    # off[1, k, j] couples row j - 1 to row j (du): one fill sets both
    off = np.zeros((2, K, n + 1))
    diag = np.ones((K, n + 1))
    off_in, diag_in = off[:, :, 2:n], diag[:, 1:n]
    first_diag, first_du = diag[:, 1], off[1, :, 2]

    def fill(r, fold):
        off_in[...] = -r[:, None]
        diag_in[...] = (1.0 + 2.0 * r)[:, None]
        if fold is not None:
            a1, a2 = fold
            first_diag[...] -= r * a1
            first_du[...] -= r * a2

    return (fill, off[0].reshape(-1)[2:-1], diag.reshape(-1)[1:-1],
            off[1].reshape(-1)[2:-1])


def _lockstep(specs, states, fail):
    """The substep engine of two or more members, started at states.

    Returns advance(target) -> (t, h, h', rows, sup w), target and all but
    rows vectors over the members: one joint substep for all of them, then
    each member it leaves short of its target finishes alone on its own
    kernel, seated at its row.  The joint substep is declined, and every
    member finishes alone, where some member's kernel would refuse or
    clamp it, so every check and clamp is a kernel's.  When member k's
    kernel fails, advance calls fail(k, error) and goes on to the next
    member; k's entries in what it returns are then not a state.  rows
    are the members' w, views of a state buffer that the next call
    overwrites.
    """
    dgtsv = extension("scipy.linalg._flapack").dgtsv

    K = len(specs)
    s0 = specs[0]
    n, a, b, f = s0.nx, s0.a, s0.b, s0.nonlinearity.f
    dxi = 1.0 / n
    two_dxi = 2.0 * dxi
    cfl_dxi = CFL_SAFETY * dxi
    xi = s0.xi
    beta = np.array([s.beta for s in specs])
    beta_col = beta[:, None]
    abs_beta = np.abs(beta)
    neg_mu = -np.array([s.mu for s in specs])
    lowest, highest = np.minimum.reduce, np.maximum.reduce
    vel = np.empty((K, n + 1))
    vel_in = vel.reshape(-1)[1:-1]
    fill, *bands = _stacked_bands(K, n)
    kernels = [_kernel(s, st) for s, st in zip(specs, states)]

    def views(W):  # the states, their rows end to end (the solve's), shifted, each row
        flat = W.reshape(-1)
        return W, flat[1:-1], flat[2:], flat[:-2], list(W)

    W = np.array([st.w for st in states])
    cur, nxt = views(W), views(W.copy())
    t = np.array([st.t for st in states])
    h = np.array([st.h for st in states])

    def joint(target, hp):
        """The kernel's loop body once for every member as one stack, taken
        only where every member's kernel would take it as it stands: returns
        sup w, or None with cur, t and h untouched."""
        nonlocal cur, nxt, t, h
        if lowest(hp) <= 0.0:
            return None
        _, w_in, w_right, w_left, _ = cur
        new, x = nxt[:2]
        dt = np.minimum(target - t, cfl_dxi * h / (abs_beta + hp + 1e-30))
        h_new = h + dt * hp

        # the kernel's right-hand side, on the rows end to end (contiguous
        # arrays cost a third of strided ones); each boundary entry gets a
        # finite value, replaced by 1 for its identity row: the solve keeps
        # it, so it moves neither test below
        np.multiply(xi, hp[:, None], vel)
        np.subtract(vel, beta_col, vel)
        np.divide(vel, h[:, None], vel)
        np.subtract(w_right, w_left, x)
        x /= two_dxi
        x *= vel_in
        x += f(w_in)
        new *= dt[:, None]
        x += w_in
        new[:, 0] = new[:, -1] = 1.0

        r = dt / (h_new * h_new * dxi * dxi)
        fold = None
        if b > 0.0:
            den = 2.0 * a * dxi * h_new + 3.0 * b
            fold = 4.0 * b / den, -b / den
        fill(r, fold)
        info = dgtsv(*bands, x, 1, 1, 1, 1)[-1]
        # the kernel refuses a failed or non-finite solve and clamps an entry
        # <= 0 or a w0 < 0: the step stands only where it would do neither
        # (a NaN fails 0 < min)
        w0 = fold[0] * new[:, 1] + fold[1] * new[:, 2] if fold else 0.0
        if info != 0 or not (0.0 < lowest(x) and highest(x) < math.inf) or (
                fold and lowest(w0) < 0.0):
            return None
        new[:, 0] = w0
        new[:, -1] = 0.0
        cur, nxt = nxt, cur
        t, h = t + dt, h_new
        # each row's interior is > 0, so its max is the kernel's max(0, hi, w0)
        return highest(new, axis=1)

    def advance(target):
        """One joint substep, then each member it leaves short of target, or
        every member where it is declined, alone on its kernel."""
        W = cur[0]
        hp = neg_mu * ((-4.0 * W[:, -2] + W[:, -3]) / (two_dxi * h))
        sup = joint(target, hp)
        if sup is None:  # declined: every member is short of target
            sup = np.empty(K)
        rows = cur[4]
        limit = target - 1e-15 * np.maximum(1.0, target)
        for k in (t < limit).nonzero()[0]:
            finish, seat = kernels[k]
            seat(t.item(k), h.item(k), rows[k])
            try:
                t[k], h[k], hp[k], rows[k][...], sup[k] = finish(target.item(k))
            except (InvariantViolation, NumericalError) as exc:
                fail(k, exc)
        return t, h, hp, rows, sup

    return advance


def ode_upper_bound(n: Nonlinearity, eta0: float, t: float) -> float:
    """Solution eta(t) of eta' = f(eta), eta(0) = eta0 > 1.

    Decreases monotonically to 1: the space-free ceiling for sup u.
    Integrated by the RK4 step simulate uses, with equal steps <= 1e-3
    (each split where f' is steep).  A start too large for those steps
    (about eta0 >= 2e7 for the logistic term, where even 1e4 substeps are
    unstable) raises NumericalError instead of returning a non-finite eta.
    """
    _require_finite(eta0=eta0, t=t)
    if eta0 <= 1.0:
        raise ValueError("eta0 must exceed 1")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    steps = int(np.ceil(t / 1e-3))
    eta = eta0
    for i in range(steps):
        nxt = _eta_step(n, eta, t / steps)
        if not math.isfinite(nxt):
            raise NumericalError(
                f"comparison ODE from eta0 = {eta0:g} overflowed at "
                f"t = {(i + 1) * t / steps:.6g}: its RK4 steps are unstable "
                f"from so large a start")
        if nxt == eta:  # a fixed point of the step: every later step agrees
            break
        eta = nxt
    return eta
