"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's own solvers: fixed-step
RK4 with bisection event location for the shooting problems, closed forms
for the logistic comparison ODE and the b = 0 eigenvalues, a DOP853 shot
on the untransformed eigenproblem, and the phase-plane first integral for
the zero-speed slope.  The exceptions are the slow reference paths: the
nested root search for the critical lengths that their closed form
replaced, bracketing root-finds for c_tilde and beta_star over the library's
plain semi-wave shot, without the Newton solve and the s(g) identity that
replaced them, that Newton solve started from c = 0 on every call,
without the slope curve's warm start, a mu_star/lambda_star bisection on
full-horizon runs, without the early stops at the spreading and Vanishing
certificates, the classification hints solved up front as simulate once
solved them, the Stefan substep loop as it stood before its per-call
hoisting and in-place buffers, simulate driving that loop one nominal
step at a time, and the generic DOP853 stage loop the
generated step functions of waves._kernel replaced.
"""

from dataclasses import replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg.lapack import dgtsv
from scipy.optimize import brentq

import freebound as fb
from freebound import waves
from freebound.eigen import _transformed_s1
from freebound.errors import (FreeboundError, InvariantViolation, NoCriticalLength,
                              NoSemiWave, NumericalError)
from freebound.stefan import CEILING_SLACK, CFL_SAFETY, CLAMP_FLOOR, FrontState
from freebound.waves import _A, _A_EXTRA, _ATOL, _B, _D, _E3, _E5, _RTOL


def rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def backward_slope_rk4(gamma, f, fprime1, h, eps=1e-8, tau_max=200.0):
    """q'(0) of the saddle trajectory for q'' - gamma*q' + f(q) = 0.

    Fixed-step RK4 on the backward system from the stable eigendirection
    launch; the q = 0 crossing is located by bisection on the step that
    brackets it.
    """
    lam = 0.5 * (gamma - np.sqrt(gamma * gamma - 4.0 * fprime1))

    def rhs(y):
        return np.array([-y[1], f(y[0]) - gamma * y[1]])

    y = np.array([1.0 - eps, -lam * eps])
    tau = 0.0
    while tau < tau_max:
        y_next = rk4_step(rhs, y, h)
        if y_next[0] <= 0.0:
            lo, hi = 0.0, h
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                y_mid = rk4_step(rhs, y, mid)
                if y_mid[0] <= 0.0:
                    hi = mid
                else:
                    lo = mid
            return rk4_step(rhs, y, 0.5 * (lo + hi))[1]
        y = y_next
        tau += h
    raise RuntimeError(f"no q = 0 crossing within tau_max={tau_max}")


def halved_step_slope(gamma, f, fprime1, h0=0.02, eps=1e-8, tol=1e-10):
    """Step-halving refinement of backward_slope_rk4."""
    prev = backward_slope_rk4(gamma, f, fprime1, h0, eps=eps)
    h = h0 / 2.0
    for _ in range(12):
        cur = backward_slope_rk4(gamma, f, fprime1, h, eps=eps)
        if abs(cur - prev) < tol:
            return cur
        prev, h = cur, h / 2.0
    raise RuntimeError("step halving did not settle")


def zero_speed_slope_first_integral(f, n_quad=200001):
    """q'(0) at gamma = 0 from (1/2) q'^2 = int_q^1 f: equals sqrt(2 F(1))."""
    u = np.linspace(0.0, 1.0, n_quad)
    return np.sqrt(2.0 * np.trapezoid(f(u), u))


def logistic_eta(eta0, t):
    """Closed form of eta' = eta(1 - eta), eta(0) = eta0."""
    e = np.exp(t)
    return eta0 * e / (1.0 + eta0 * (e - 1.0))


def zeta1_closed_form(ell, beta, m):
    """Principal eigenvalue for the b = 0 (Dirichlet) boundary."""
    return beta * beta / 4.0 + np.pi * np.pi / (ell * ell) - m


def lstar_closed_form(beta, c0):
    # c0^2 - beta^2 factored: it cancels to 8 digits at beta = c0 - 1e-8
    return 2.0 * np.pi / np.sqrt((c0 - beta) * (c0 + beta))


def principal_eigenvalue_shooting(p, *, rtol=1e-12, atol=1e-14):
    """Independent cross-check: shoot the untransformed problem.

    Integrates phi'' = beta*phi' - (m + zeta)*phi from the left boundary
    data (phi, phi')(0) = (b, a) (or (0, 1) when b = 0) and root-finds
    the smallest zeta with phi(ell) = 0; the principal eigenvalue is the
    first sign change of phi(ell; zeta) when marching zeta upward from a
    certified lower bound.
    """
    ell, beta, a, b, m = p.ell, p.beta, p.a, p.b, p.m
    y0 = (0.0, 1.0) if b == 0.0 else (b, a)

    def end_value(zeta):
        def rhs(x, y):
            return [y[1], beta * y[1] - (m + zeta) * y[0]]

        sol = solve_ivp(rhs, (0.0, ell), y0, method="DOP853",
                        rtol=rtol, atol=atol, dense_output=False)
        if not sol.success:
            raise NumericalError(f"shooting failed at zeta={zeta}")
        return sol.y[0, -1]

    A = a - b * beta / 2.0
    sigma2 = (A / b) ** 2 if (b > 0.0 and A < 0.0) else 0.0
    lo = beta * beta / 4.0 - m - sigma2 - 1.0
    step = max(0.25, np.pi**2 / (4.0 * ell * ell))

    v_lo = end_value(lo)
    if v_lo <= 0.0:
        raise NumericalError("lower bound for eigenvalue march is not certified")
    hi = lo
    for _ in range(100000):
        hi += step
        if end_value(hi) < 0.0:
            break
    else:
        raise NumericalError("no sign change found while marching zeta")
    return brentq(end_value, hi - step, hi, xtol=1e-12, maxiter=200)


def zeta1(ell, beta, a, b, m):
    """zeta1(ell) of the library's transcendental solve, without the
    sampled eigenfunction that principal_eigenvalue adds."""
    return _transformed_s1(ell, a - b * beta / 2.0, b) + beta * beta / 4.0 - m


def reference_critical_length(beta, a, b, m, *, advection=True):
    """l_star (l_substar when advection is False) by the nested solve the
    closed form replaced: brentq on ell over a doubling bracket capped at
    1e4, each zeta1(ell) a root-find of its own when b > 0."""
    c0 = 2.0 * np.sqrt(m)
    if abs(beta) >= c0:
        raise NoCriticalLength(f"|beta|={abs(beta):g} >= c0={c0:g}")
    if advection:
        def g(L):
            return zeta1(L, beta, a, b, m)
    else:
        def g(L):
            return zeta1(L, 0.0, a, b, m) + beta * beta / 4.0

    lo = 1e-3
    if g(lo) <= 0.0:
        lo = 1e-6
        if g(lo) <= 0.0:
            raise NumericalError("no positive value at the short end")
    hi = max(1.0, 2.0 * lo)
    while g(hi) >= 0.0:
        hi *= 2.0
        if hi > 1e4:
            raise NumericalError("no sign change below L_max=10000")
    return brentq(g, lo, hi, xtol=1e-13, maxiter=200)


def spreading_speed_brentq(beta, mu, n, max_step=0.1):
    """c_tilde by brentq on mu*q'(0; c - beta) - c over (0, c0 + beta - delta).

    The bracket's upper end backs off from the existence boundary until
    the sign changes; roots below the bisection resolution get one
    fixed-point sweep.
    """
    if beta <= -n.c0:
        raise NoSemiWave(f"beta = {beta:g} <= -c0")
    cmax = n.c0 + beta
    delta = min(2e-3 * n.c0, 0.25 * cmax)
    budget = 100.0 / np.sqrt(n.fp0)
    for _ in range(4):
        omega = 0.5 * np.sqrt(delta * (2.0 * n.c0 - delta))
        z_budget = max(budget, 8.0 / omega + 0.5 * budget)

        def slope0(c):
            return fb.shoot_semi_wave(c, beta, n, samples=False,
                                      z_budget=z_budget,
                                      max_step=max_step).slope0

        def gap(c):
            return mu * slope0(c) - c

        if gap(0.0) <= 0.0:
            raise NumericalError("slope map not positive at c = 0")
        c_hi = cmax - delta
        if gap(c_hi) < 0.0:
            c_t = brentq(gap, 0.0, c_hi, xtol=1e-12, maxiter=200)
            if c_t <= 1e-9 * cmax:
                c_t = mu * slope0(c_t)
            return c_t
        delta *= 0.25
    raise NumericalError("fixed point pinned against c0 + beta")


def reference_spreading_speed(beta, mu, n, max_step=0.1):
    """spreading_speed as it stood before the slope curve: (c_tilde,
    residual) by safeguarded Newton on mu*s(c - beta) - c from c = 0 on
    every call, its variational shots made directly, not through n's
    slope curve."""
    if beta <= -n.c0:
        raise NoSemiWave(f"beta = {beta:g} <= -c0 = {-n.c0:g}: no spreading speed")
    cmax = n.c0 + beta
    delta = min(2e-3 * n.c0, 0.25 * cmax)
    budget = waves._default_budget(n)

    def shot_budget(delta):
        omega = 0.5 * np.sqrt(delta * (2.0 * n.c0 - delta))
        return max(budget, 8.0 / omega + 0.5 * budget)

    def slope(c):
        w = fb.shoot_semi_wave(c - beta, 0.0, n, samples=False,
                               z_budget=z_budget, max_step=max_step,
                               variational=True)
        return w.slope0, w.dslope0

    def newton_pair(c):
        s, ds = slope(c)
        return mu * s - c, mu * ds - 1.0

    z_budget = shot_budget(delta)
    c = lo = 0.0
    f, df = newton_pair(c)
    if f <= 0.0:
        raise NumericalError("slope map not positive at c = 0")
    for _ in range(4):
        hi = cmax - delta
        bracketed = False
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
                if c == hi:
                    break
            else:
                hi, bracketed = c, True
        else:
            raise NumericalError("Newton on the slope map did not converge")
        if root is not None:
            if root <= 1e-9 * cmax:
                root = mu * slope(root)[0]
            slope0 = fb.shoot_semi_wave(root, beta, n, samples=False,
                                        z_budget=z_budget,
                                        max_step=max_step).slope0
            return root, abs(mu * slope0 - root)
        delta *= 0.25
        z_budget = shot_budget(delta)
    raise NumericalError("fixed point pinned against c0 + beta; bracket failed")


def critical_advection_nested(mu, n, b_max_factor=10.0, xtol=1e-10):
    """beta_star as the root of c_tilde(beta) - beta + c0, brentq over brentq."""
    def excess(beta):
        return spreading_speed_brentq(beta, mu, n) - beta + n.c0

    return brentq(excess, n.c0, b_max_factor * n.c0, xtol=xtol, maxiter=200)


def full_horizon_tmax(spec, lstar):
    """The threshold drivers' default horizon max(50, 10*l_star/c_tilde)."""
    ctilde = fb.spreading_speed(spec.beta, spec.mu, spec.nonlinearity).c_tilde
    return max(50.0, 10.0 * lstar / ctilde)


def threshold_full_horizon(spec, parameter, value_range, tol, psi=None):
    """(lo, hi) bracket of mu_star (parameter 'mu') or of lambda_star for
    u0 = lambda*psi (parameter 'lambda') by plain bisection on full-horizon
    runs.

    Every run goes to the library's default horizon and is classified on
    its whole trajectory.
    """
    lstar = fb.critical_length(spec.beta, spec.a, spec.b, spec.nonlinearity.fp0)
    tmax = full_horizon_tmax(spec, lstar)

    def make_spec(value):
        if parameter == "mu":
            return replace(spec, mu=value, tmax=tmax)
        return replace(spec, u0=lambda x: value * np.asarray(psi(x)),
                       tmax=tmax)

    def spreads(value):
        run = make_spec(value)
        verdict = fb.classify(fb.simulate(run), run, lstar=lstar).verdict
        if verdict not in ("Spreading", "Vanishing"):
            raise RuntimeError(f"{verdict} at {parameter} = {value!r}")
        return verdict == "Spreading"

    lo, hi = value_range
    if spreads(lo) or not spreads(hi):
        raise RuntimeError("the range does not bracket the flip")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if spreads(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _hint(errors, name, solve):
    try:
        return solve()
    except FreeboundError as exc:
        errors[name] = {"type": type(exc).__name__, "message": str(exc)}
        return None


def reference_classification_hint(traj, spec, errors):
    """(verdict, l_star, c_tilde) with both hints solved up front, as
    simulate once did: a hint that fails reads None, and its error goes
    into errors under its name."""
    n = spec.nonlinearity
    lstar = ctilde = None
    if abs(spec.beta) < n.c0:
        lstar = _hint(errors, "l_star",
                      lambda: fb.critical_length(spec.beta, spec.a, spec.b, n.fp0))
    if spec.beta > -n.c0:
        ctilde = _hint(errors, "c_tilde",
                       lambda: fb.spreading_speed(spec.beta, spec.mu, n).c_tilde)
    verdict = fb.classify(traj, spec, lstar=lstar, ctilde=ctilde)
    return verdict, lstar, ctilde


def _boundary_flux(w, dxi, h):
    # u_x(t, h) with w[n] = 0 folded in
    return (-4.0 * w[-2] + w[-3]) / (2.0 * dxi * h)


def reference_step(state, spec):
    """One nominal step of the Stefan stepper as written before its
    per-call hoisting: a fresh grid, fresh arrays and copying gtsv calls on
    every substep.  stefan.step must agree with it bit for bit."""
    n = spec.nx
    dxi = 1.0 / n
    xi = np.linspace(0.0, 1.0, n + 1)[1:-1]
    t, h, w, hp = state.t, state.h, state.w, state.hprime
    target = t + spec.dt
    while t < target - 1e-15 * max(1.0, target):
        hp = -spec.mu * _boundary_flux(w, dxi, h)
        if hp <= 0.0:
            raise InvariantViolation(
                f"front speed h' = {hp:.3e} <= 0 at t = {t:.6g}")
        dt = min(target - t,
                 CFL_SAFETY * dxi * h / (abs(spec.beta) + hp + 1e-30))
        h_new = h + dt * hp

        vel = (xi * hp - spec.beta) / h
        grad = (w[2:] - w[:-2]) / (2.0 * dxi)
        rhs = w[1:-1] + dt * (vel * grad
                              + np.asarray(spec.nonlinearity.f(w[1:-1])))

        # implicit diffusion on w[1..n-1]; w0 = a1*w1 + a2*w2 from
        # a*w0 - (b/h)*(-3w0+4w1-w2)/(2 dxi) = 0 is folded into the first row
        r = dt / (h_new * h_new * dxi * dxi)
        a1 = a2 = 0.0
        if spec.b > 0.0:
            den = 2.0 * spec.a * dxi * h_new + 3.0 * spec.b
            a1, a2 = 4.0 * spec.b / den, -spec.b / den
        sub = np.full(n - 2, -r)
        sup = np.full(n - 2, -r)
        diag = np.full(n - 1, 1.0 + 2.0 * r)
        diag[0] -= r * a1
        sup[0] -= r * a2
        *_, x, info = dgtsv(sub, diag, sup, rhs)
        if info != 0 or not np.all(np.isfinite(x)):
            raise NumericalError(
                f"tridiagonal solve gave a non-finite density at t = {t:.6g} "
                f"(LAPACK info = {info})")

        w = np.concatenate(([0.0], x, [0.0]))
        w[0] = a1 * w[1] + a2 * w[2] if spec.b > 0.0 else 0.0
        bad = w < CLAMP_FLOOR
        if np.any(bad):
            raise NumericalError(
                f"density {w[bad].min():.3e} below clamp floor at "
                f"t = {t:.6g}: reduce dt")
        np.maximum(w, 0.0, out=w)
        t, h = t + dt, h_new
    return FrontState(t=t, h=h, w=w, hprime=hp)


def reference_simulate(spec, snapshot_times=(), stop=None):
    """simulate as it stood when it drove reference_step one nominal step
    at a time: a FrontState per step, sup u read from each step's new w,
    and the RK4 ceiling step taken on every step.  Records, the ceiling,
    snapshots and the stop rule are simulate's."""
    w = spec.w0.copy()
    state = FrontState(t=0.0, h=spec.h0, w=w,
                       hprime=-spec.mu * _boundary_flux(w, 1.0 / spec.nx, spec.h0))
    n_steps = int(np.ceil(spec.tmax / spec.dt))
    eta = float(np.max(spec.w0)) + 1.0
    xi = np.linspace(0.0, 1.0, spec.nx + 1)
    rows, snapshots = [], []
    pending = sorted(float(t) for t in snapshot_times)

    def ceiling_rate(e):
        return float(spec.nonlinearity.f(e))

    def record(st):
        sup = float(np.max(st.w))
        if sup > eta + CEILING_SLACK:
            raise InvariantViolation(
                f"sup u = {sup:.8g} exceeds eta = {eta:.8g} at t = {st.t:.6g}")
        rows.append((st.t, st.h, st.hprime, sup, eta))

    record(state)
    for i in range(1, n_steps + 1):
        try:
            state = reference_step(state, spec)
        except (InvariantViolation, NumericalError) as exc:
            raise type(exc)(f"{exc} (while stepping to t = {i * spec.dt:.6g})") from exc
        eta = rk4_step(ceiling_rate, eta, spec.dt)
        record(state)
        if pending and state.t >= pending[0] - 1e-12:
            snapshots.append((state.t, xi * state.h, state.w.copy()))
            pending = [t for t in pending if state.t < t - 1e-12]
        if stop is not None and stop(state):
            break
    if not snapshots or snapshots[-1][0] < state.t:
        snapshots.append((state.t, xi * state.h, state.w.copy()))
    times, h, hprime, supu, etas = (np.array(col) for col in zip(*rows))
    return fb.Trajectory(times=times, h=h, hprime=hprime, supu=supu, eta=etas,
                         snapshots=snapshots, spec=spec)


def reference_shoot(g, n, y0, events, budget, max_step, *, backward, dense):
    """The shooting kernel as it stood on solve_ivp: one DOP853 shot of
    q'' - g*q' + f(q) = 0 from y0 over tau in [0, budget].  events are
    solve_ivp events fn(tau, y) with terminal and direction attributes."""
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
            f"shot at drift g = {g:.17g} broke down in the integrator: {exc}") from exc
    if not sol.success:
        raise NumericalError(f"integrator failed: {sol.message}")
    return sol


def reference_sample(shot, tau_end, n_samples, reverse):
    """The samples of a reference shot, through solve_ivp's OdeSolution."""
    if n_samples is None:
        n_samples = int(np.clip(np.ceil(tau_end / 2e-4) + 1, 2001, 500001))
    tau = np.linspace(0.0, tau_end, n_samples)
    y = shot.steps.sol(tau)
    if reverse:
        return tau[::-1], y[0, ::-1].copy(), y[1, ::-1].copy()
    return tau, y[0].copy(), y[1].copy()


def use_reference_kernel(monkeypatch):
    """Route every wave profile of the library through reference_shoot and
    reference_sample for the rest of a test."""
    def shoot(g, n, y0, events, budget, max_step, *, backward, dense):
        ivp_events = []
        for fn, direction, terminal in events:
            def event(_t, y, fn=fn):
                return fn(y)
            event.direction, event.terminal = direction, terminal
            ivp_events.append(event)
        sol = reference_shoot(g, n, list(y0), ivp_events, budget, max_step,
                              backward=backward, dense=dense)
        return waves._Shot(
            t_events=[list(te) for te in sol.t_events],
            y_events=[[list(y) for y in ye] for ye in sol.y_events],
            t=float(sol.t[-1]), y=list(sol.y[:, -1]), steps=sol)

    monkeypatch.setattr(waves, "_shoot", shoot)
    monkeypatch.setattr(waves, "_sample", reference_sample)


def _dot(row, ks):
    """sum(map(mul, row, ks)) as Python 3.11 computes it: from 0, left to
    right, every product kept (3.12's float sum is compensated)."""
    acc = 0.0
    for a, k in zip(row, ks):
        acc += a * k
    return acc


# the fields of waves._FIELDS, as _shoot wrote them before they were
# generated: (f, fprime, g) -> rhs
REFERENCE_FIELDS = {
    "backward": lambda f, fprime, g: lambda y: [-y[1], float(f(y[0])) - g * y[1]],
    "forward": lambda f, fprime, g: lambda y: [y[1], g * y[1] - float(f(y[0]))],
    "variational": lambda f, fprime, g: lambda y: [
        -y[1], float(f(y[0])) - g * y[1], -y[3],
        float(fprime(y[0])) * y[2] - y[1] - g * y[3]],
}


def reference_rk_step(rhs, y, fy, h):
    """One DOP853 step by the generic stage loop: (y_new, f_new, s5, s3,
    K) as a generated step of waves._kernel returns them, K flattened
    component-major.  waves' step functions must agree bit for bit."""
    K = [[v] for v in fy]
    for a in _A:
        k = rhs([yj + _dot(a, kj) * h for yj, kj in zip(y, K)])
        for kj, v in zip(K, k):
            kj.append(v)
    y_new = [yj + h * _dot(_B, kj) for yj, kj in zip(y, K)]
    f_new = rhs(y_new)
    s5 = s3 = 0.0
    for kj, fj, yj, ynj in zip(K, f_new, y, y_new):
        kj.append(fj)
        scale = _ATOL + max(abs(yj), abs(ynj)) * _RTOL
        e5 = _dot(_E5, kj) / scale
        e3 = _dot(_E3, kj) / scale
        s5 += e5 * e5
        s3 += e3 * e3
    return y_new, f_new, s5, s3, tuple(v for kj in K for v in kj)


def reference_dense(rhs, K, h, y_old, y):
    """The interpolant coefficients F of a step of reference_rk_step, from
    its three extra stages, as the generated dense functions give them."""
    stages = len(K) // len(y)
    K = [list(K[j * stages:(j + 1) * stages]) for j in range(len(y))]
    for a in _A_EXTRA:
        k = rhs([yj + _dot(a, kj) * h for yj, kj in zip(y_old, K)])
        for kj, v in zip(K, k):
            kj.append(v)
    dy = [a - b for a, b in zip(y, y_old)]
    f_old = [kj[0] for kj in K]
    f_new = [kj[stages - 1] for kj in K]
    return ([dy, [h * a - b for a, b in zip(f_old, dy)],
             [2 * a - h * (b + c) for a, b, c in zip(dy, f_new, f_old)]]
            + [[h * _dot(d, kj) for kj in K] for d in _D])


def reference_kernel(field):
    """waves._kernel with the reference field, step and dense functions."""
    def make(f, fprime, g):
        rhs = REFERENCE_FIELDS[field](f, fprime, g)
        return (rhs, lambda y, fy, h: reference_rk_step(rhs, y, fy, h),
                lambda K, h, y_old, y: reference_dense(rhs, K, h, y_old, y))
    return make


def use_reference_step(monkeypatch):
    """Make every shot of waves._shoot with reference_rk_step and
    reference_dense for the rest of a test."""
    monkeypatch.setattr(waves, "_kernel", reference_kernel)
