import numpy as np
import pytest

import freebound as fb
from freebound import asymptotics
from freebound.stefan import Trajectory


def synthetic_linear_front(ctilde, intercept, n):
    t = np.linspace(0.0, 90.0, 400)
    spec = fb.ProblemSpec(beta=0.5, mu=2.0, a=1.0, b=0.0, h0=intercept,
                          nonlinearity=n, nx=100, tmax=1.0)
    return Trajectory(times=t, h=ctilde * t + intercept,
                      hprime=np.full_like(t, ctilde),
                      supu=np.ones_like(t), eta=np.full_like(t, 1.5),
                      snapshots=[], spec=spec)


def test_fit_speed_exact_linear_input(logistic_n):
    traj = synthetic_linear_front(0.8, 3.0, logistic_n)
    fit = fb.fit_speed(traj, 0.8)
    assert fit.c_measured == pytest.approx(0.8, abs=1e-14)
    assert fit.H == pytest.approx(3.0, abs=1e-12)
    assert abs(fit.drift) < 1e-12
    # window is the final third of the run
    assert fit.window[0] == pytest.approx(60.0, abs=0.5)


def test_fit_speed_insufficient_data(logistic_n):
    traj = synthetic_linear_front(0.8, 3.0, logistic_n)
    short = Trajectory(times=traj.times[:60], h=traj.h[:60],
                       hprime=traj.hprime[:60], supu=traj.supu[:60],
                       eta=traj.eta[:60], snapshots=[], spec=traj.spec)
    with pytest.raises(fb.errors.InsufficientData):
        fb.fit_speed(short, 0.8)


def test_speed_law_on_spreading_run(spreading_run, speed_05_2):
    spec, traj = spreading_run
    fit = fb.fit_speed(traj, speed_05_2.c_tilde)
    assert abs(fit.c_measured - speed_05_2.c_tilde) / speed_05_2.c_tilde < 0.02
    assert abs(fit.drift) < 0.01 * speed_05_2.c_tilde


def test_profile_error_identity_input(logistic_n, speed_05_2):
    # a snapshot equal to the composite itself gives error 0
    q = fb.profile_interpolator(speed_05_2.profile)
    vt = fb.stationary_increasing(0.5, 1.0, 0.0, logistic_n)
    v = fb.profile_interpolator(vt)
    spec = fb.ProblemSpec(beta=0.5, mu=2.0, a=1.0, b=0.0, h0=4.0,
                          nonlinearity=logistic_n, nx=100, tmax=1.0)
    t, H = 50.0, 2.0
    x = np.linspace(0.0, speed_05_2.c_tilde * t + H, 500)
    u = v(x) * q(speed_05_2.c_tilde * t + H - x)
    err = fb.profile_error((t, x, u), spec, speed_05_2.c_tilde, H, vt,
                           speed_05_2.profile)
    assert err == 0.0


def test_profile_error_requires_stationary_profile_when_a_positive(
        logistic_n, speed_05_2):
    spec = fb.ProblemSpec(beta=0.5, mu=2.0, a=1.0, b=0.0, h0=4.0,
                          nonlinearity=logistic_n, nx=100, tmax=1.0)
    x = np.linspace(0.0, 10.0, 50)
    with pytest.raises(ValueError, match="stationary"):
        fb.profile_error((10.0, x, np.ones_like(x)), spec, 0.8, 0.0, None,
                         speed_05_2.profile)


def test_profile_error_refuses_a_missing_vtilde_before_any_evaluation(
        monkeypatch, logistic_n):
    made = []

    def evaluator(profile):
        made.append(profile)
        raise AssertionError("an evaluator was made")

    monkeypatch.setattr(asymptotics, "profile_interpolator", evaluator)
    spec = fb.ProblemSpec(beta=0.5, mu=2.0, a=1.0, b=0.0, h0=4.0,
                          nonlinearity=logistic_n, nx=100, tmax=1.0)
    x = np.linspace(0.0, 10.0, 50)
    qt = fb.shoot_semi_wave(0.7, 0.5, logistic_n)
    with pytest.raises(ValueError, match="a > 0 requires the stationary profile vtilde"):
        fb.profile_error((10.0, x, np.ones_like(x)), spec, 0.8, 0.0, None, qt)
    assert made == [] and qt._arrays is None


def test_composite_convergence_dirichlet(spreading_run, speed_05_2, logistic_n):
    spec, traj = spreading_run
    fit = fb.fit_speed(traj, speed_05_2.c_tilde)
    vt = fb.stationary_increasing(0.5, 1.0, 0.0, logistic_n)
    errs = [fb.profile_error(s, spec, speed_05_2.c_tilde, fit.H, vt,
                             speed_05_2.profile) for s in traj.snapshots]
    assert errs[-1] < 0.05
    # non-increasing across the last three snapshots, within 0.01 slack
    assert errs[1] <= errs[0] + 0.01
    assert errs[2] <= errs[1] + 0.01


def test_composite_convergence_neumann(neumann_run, speed_05_2):
    spec, traj = neumann_run
    fit = fb.fit_speed(traj, speed_05_2.c_tilde)
    errs = [fb.profile_error(s, spec, speed_05_2.c_tilde, fit.H, None,
                             speed_05_2.profile) for s in traj.snapshots]
    assert errs[-1] < 0.05


def test_fit_speed_grid_refinement(logistic_n, lstar_05, speed_05_2):
    # coarser grids land farther from c_tilde than finer ones
    errs = {}
    for nx in (400, 1600):
        spec = fb.ProblemSpec(beta=0.5, mu=2.0, a=1.0, b=0.0,
                              h0=lstar_05 + 1.0, nonlinearity=logistic_n,
                              nx=nx, tmax=60.0)
        traj = fb.simulate(spec)
        fit = fb.fit_speed(traj, speed_05_2.c_tilde)
        errs[nx] = abs(fit.c_measured - speed_05_2.c_tilde)
    assert errs[1600] < errs[400]
