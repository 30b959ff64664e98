"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's own solvers: fixed-step
RK4 with bisection event location for the shooting problems, closed forms
for the logistic comparison ODE and the b = 0 eigenvalues, and the
phase-plane first integral for the zero-speed slope.  The exception is the
slow reference path for c_tilde and beta_star at the end: bracketing
root-finds over the library's plain semi-wave shot, without the Newton
solve and the s(g) identity that replaced them.
"""

import numpy as np
from scipy.optimize import brentq

import freebound as fb
from freebound.errors import NoSemiWave, NumericalError


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
    return 2.0 * np.pi / np.sqrt(c0 * c0 - beta * beta)


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


def critical_advection_nested(mu, n, b_max_factor=10.0, xtol=1e-10):
    """beta_star as the root of c_tilde(beta) - beta + c0, brentq over brentq."""
    def excess(beta):
        return spreading_speed_brentq(beta, mu, n) - beta + n.c0

    return brentq(excess, n.c0, b_max_factor * n.c0, xtol=xtol, maxiter=200)
