"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line
PASS report per criterion.  Long-horizon front runs are shared through
session fixtures (see conftest.py).
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import freebound as fb

from oracles import lstar_closed_form, zeta1, zeta1_closed_form


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def n():
    return fb.logistic()


@pytest.fixture(scope="module")
def ctilde_ladder(n):
    betas = (-1.5, -1.0, 0.0, 1.0, 1.5, 2.5)
    mus = (0.5, 1.0, 2.0)
    t0 = time.perf_counter()
    table = {(b, m): fb.spreading_speed(b, m, n) for b in betas for m in mus}
    return betas, mus, table, time.perf_counter() - t0


def test_criterion_1_eigenvalue_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (-1.5, 0.0, 1.5):
        for ell in (0.5, 1.0, np.pi, 5.0):
            zeta = zeta1(ell, beta, 1.0, 0.0, 1.0)
            worst = max(worst, abs(zeta - zeta1_closed_form(ell, beta, 1.0)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 1.0
    report(1, f"eigenvalue closed form, worst |error| = {worst:.2e}, "
              f"{elapsed*1e3:.0f} ms")


def test_criterion_2_critical_length_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.0, 1.0, 1.9):
        lstar = fb.critical_length(beta, 1.0, 0.0, 1.0)
        worst = max(worst, abs(lstar - lstar_closed_form(beta, 2.0)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 1.0
    report(2, f"critical length closed form, worst |error| = {worst:.2e}, "
              f"{elapsed*1e3:.0f} ms")


def test_criterion_3_semi_wave_fixed_point(n, ctilde_ladder):
    betas, mus, table, elapsed = ctilde_ladder
    worst = 0.0
    for (beta, mu), res in table.items():
        assert 0.0 < res.c_tilde < n.c0 + beta
        worst = max(worst, res.residual)
    assert worst < 1e-8
    assert elapsed < 10.0
    report(3, f"fixed-point residual over {len(table)} (beta, mu) pairs "
              f"< {worst:.2e}, {elapsed:.1f} s")


def test_criterion_4_speed_monotonicity_and_limits(n, ctilde_ladder):
    betas, mus, table, _ = ctilde_ladder
    for mu in mus:
        column = [table[(b, mu)].c_tilde for b in betas]
        assert np.all(np.diff(column) > 0.0)
    near_boundary = fb.spreading_speed(-1.99, 1.0, n).c_tilde
    assert near_boundary < 0.1
    small_mu = fb.spreading_speed(0.0, 1e-4, n).c_tilde
    assert small_mu < 1e-3
    report(4, f"c_tilde increasing in beta; c_tilde(-1.99) = {near_boundary:.2e} "
              f"< 0.1; c_tilde(mu=1e-4) = {small_mu:.2e} < 1e-3")


def test_criterion_5_spreading_speed_law(spreading_run, speed_05_2, lstar_05):
    spec, traj = spreading_run
    verdict = fb.classify(traj, spec, lstar=lstar_05)
    assert verdict.verdict == "Spreading"
    fit = fb.fit_speed(traj, speed_05_2.c_tilde)
    rel = abs(fit.c_measured - speed_05_2.c_tilde) / speed_05_2.c_tilde
    assert rel < 0.02
    assert abs(fit.drift) < 0.01 * speed_05_2.c_tilde
    report(5, f"tail h' matches c_tilde to {rel*100:.2f}% (<2%), "
              f"drift {abs(fit.drift)/speed_05_2.c_tilde*100:.2f}% of c_tilde (<1%)")


def test_criterion_6_profile_convergence(spreading_run, neumann_run,
                                         speed_05_2, n):
    spec, traj = spreading_run
    fit = fb.fit_speed(traj, speed_05_2.c_tilde)
    vt = fb.stationary_increasing(0.5, 1.0, 0.0, n)
    err_d = fb.profile_error(traj.snapshots[-1], spec, speed_05_2.c_tilde,
                             fit.H, vt, speed_05_2.profile)
    assert err_d < 0.05

    spec_n, traj_n = neumann_run
    fit_n = fb.fit_speed(traj_n, speed_05_2.c_tilde)
    err_n = fb.profile_error(traj_n.snapshots[-1], spec_n, speed_05_2.c_tilde,
                             fit_n.H, None, speed_05_2.profile)
    assert err_n < 0.05
    report(6, f"composite profile error {err_d:.3f} (mixed), "
              f"{err_n:.3f} (no-flux), both < 0.05")


def test_criterion_7_threshold_brackets(n, lstar_05):
    template = fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=0.0,
                              h0=0.5 * lstar_05, nonlinearity=n,
                              nx=300, dt=1.5e-3, tmax=50.0)
    res = fb.mu_threshold(template, (0.5, 4.0), 1e-2)
    assert res.note == "bracketed"
    lo, hi = res.bracket
    assert hi - lo < 1e-2
    # both verdicts were seen along the way; confirm from the history
    assert [v for v, verdict in res.history if verdict == "Spreading"]
    assert [v for v, verdict in res.history if verdict == "Vanishing"]

    wide = replace(template, h0=lstar_05 + 0.1)
    psi = fb.default_initial_profile(wide.h0, 1.0, 0.0)
    lam = fb.lambda_threshold(wide, psi, (0.1, 3.0), 1e-2)
    assert lam.note == "lambda-star-zero"
    report(7, f"mu_star in [{lo:.4f}, {hi:.4f}] (width {hi-lo:.1e} < 1e-2, "
              f"{res.runs} runs); lambda_star = 0 for h0 >= l_star")


def test_criterion_8_strong_advection_regimes(n, beta_star_1):
    spec_neg = fb.ProblemSpec(beta=-2.5, mu=1.0, a=1.0, b=0.0, h0=2.0,
                              nonlinearity=n, nx=400, tmax=40.0)
    traj_neg = fb.simulate(spec_neg)
    assert traj_neg.supu[-1] < 1e-3
    assert fb.classify(traj_neg, spec_neg).verdict == "Vanishing"

    spec_pos = fb.ProblemSpec(beta=beta_star_1 + 0.2, mu=1.0, a=1.0, b=0.0,
                              h0=2.0, nonlinearity=n, nx=400, tmax=60.0)
    traj_pos = fb.simulate(spec_pos)
    ct_pos = fb.spreading_speed(spec_pos.beta, 1.0, n).c_tilde
    assert fb.classify(traj_pos, spec_pos, ctilde=ct_pos).verdict == "Vanishing"

    mid = 0.5 * (n.c0 + beta_star_1)
    tad = fb.tadpole_wave(mid, 1.0, n, beta_star=beta_star_1)
    assert tad.q.max() > 0.1 and tad.q[0] < 1e-6
    with pytest.raises(fb.errors.NoWave):
        fb.tadpole_wave(beta_star_1 + 0.1, 1.0, n, beta_star=beta_star_1)
    report(8, f"beta=-2.5 vanishes (sup u = {traj_neg.supu[-1]:.1e}); "
              f"beta=beta*+0.2 vanishes; tadpole exists at {mid:.2f} "
              f"and not beyond beta* = {beta_star_1:.4f}")


def test_criterion_9_invariant_suites(n, spreading_run, beta_star_1):
    # comparison monotonicity in mu and in the initial amplitude
    base = dict(beta=0.4, a=1.0, b=0.0, h0=2.5, nonlinearity=n, nx=300, tmax=8.0)
    t_small = fb.simulate(fb.ProblemSpec(mu=0.7, **base))
    t_large = fb.simulate(fb.ProblemSpec(mu=1.4, **base))
    assert np.all(t_small.h <= t_large.h + 1e-6)
    psi = fb.default_initial_profile(2.5, 1.0, 0.0)
    t_lo = fb.simulate(fb.ProblemSpec(mu=1.0, u0=lambda x: 0.5 * psi(x), **base))
    t_hi = fb.simulate(fb.ProblemSpec(mu=1.0, u0=lambda x: 1.0 * psi(x), **base))
    assert np.all(t_lo.h <= t_hi.h + 1e-6)

    # ceiling and front positivity on every trajectory touched here
    for traj in (t_small, t_large, t_lo, t_hi, spreading_run[1]):
        assert np.all(traj.supu <= traj.eta + 1e-6)
        assert np.all(traj.hprime > 0.0)

    # step-halving stability of every shooting output
    s1 = fb.shoot_semi_wave(1.0, 0.0, n, samples=False, max_step=0.1).slope0
    s2 = fb.shoot_semi_wave(1.0, 0.0, n, samples=False, max_step=0.05).slope0
    c1 = fb.spreading_speed(0.5, 1.0, n, max_step=0.1)
    c2 = fb.spreading_speed(0.5, 1.0, n, max_step=0.05)
    f1 = fb.finite_wave(0.3, 0.5, 1.0, n, ctilde=c1.c_tilde, max_step=0.1)
    f2 = fb.finite_wave(0.3, 0.5, 1.0, n, ctilde=c1.c_tilde, max_step=0.05)
    v1 = fb.stationary_increasing(0.5, 1.0, 0.0, n, max_step=0.1).slope0
    v2 = fb.stationary_increasing(0.5, 1.0, 0.0, n, max_step=0.05).slope0
    mid_beta = 0.5 * (n.c0 + beta_star_1)
    t1 = fb.tadpole_wave(mid_beta, 1.0, n, beta_star=beta_star_1, max_step=0.1)
    t2 = fb.tadpole_wave(mid_beta, 1.0, n, beta_star=beta_star_1, max_step=0.05)
    w1 = fb.traveling_wave(n.c0, "right", n, max_step=0.1)
    w2 = fb.traveling_wave(n.c0, "right", n, max_step=0.05)
    zz = np.linspace(-5.0, 5.0, 41)
    tw_delta = np.max(np.abs(fb.profile_interpolator(w1)(zz)
                             - fb.profile_interpolator(w2)(zz)))
    deltas = (abs(s1 - s2), abs(c1.c_tilde - c2.c_tilde),
              abs(f1.endpoint - f2.endpoint), abs(v1 - v2),
              abs(t1.q.max() - t2.q.max()),
              abs(w1.slope0 - w2.slope0), tw_delta)
    assert max(deltas) < 1e-9

    # second-order spatial convergence of the front position
    psi4 = fb.default_initial_profile(4.0, 1.0, 0.0)
    hs = {}
    for nx in (100, 200, 400, 800):
        spec = fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=0.0, h0=4.0,
                              nonlinearity=n, u0=lambda x: 0.5 * psi4(x),
                              nx=nx, dt=1e-4, tmax=2.0)
        hs[nx] = fb.simulate(spec).h[-1]
    richardson = hs[800] + (hs[800] - hs[400]) / 3.0
    err = {nx: abs(hs[nx] - richardson) for nx in (100, 200, 400)}
    assert err[100] / err[200] >= 3.0
    assert err[200] / err[400] >= 3.0
    report(9, f"comparison monotonicity, ceiling, h' > 0 all hold; "
              f"step-halving max delta {max(deltas):.1e} < 1e-9; "
              f"grid-convergence ratios {err[100]/err[200]:.2f}, "
              f"{err[200]/err[400]:.2f} >= 3")
