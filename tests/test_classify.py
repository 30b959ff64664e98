import numpy as np
import pytest

import freebound as fb
from freebound.stefan import Trajectory


@pytest.fixture(scope="module")
def n():
    return fb.logistic()


def make_spec(n, beta, **kw):
    kw.setdefault("mu", 1.0)
    kw.setdefault("a", 1.0)
    kw.setdefault("b", 0.0)
    kw.setdefault("h0", 2.0)
    kw.setdefault("nx", 100)
    kw.setdefault("tmax", 1.0)
    return fb.ProblemSpec(beta=beta, nonlinearity=n, **kw)


def synthetic(spec, times, h, hprime, supu, final_profile=None):
    times = np.asarray(times, float)
    h = np.asarray(h, float)
    if final_profile is None:
        x = np.linspace(0.0, h[-1], 201)
        u = np.full_like(x, supu[-1])
        u[-1] = 0.0
    else:
        x, u = final_profile
    return Trajectory(times=times, h=h, hprime=np.asarray(hprime, float),
                      supu=np.asarray(supu, float), eta=np.full_like(times, 2.0),
                      snapshots=[(times[-1], x, u)], spec=spec)


def test_spreading_by_critical_length_certificate(n):
    spec = make_spec(n, 0.5)
    t = np.linspace(0.0, 10.0, 50)
    traj = synthetic(spec, t, 2.0 + 0.5 * t, np.full_like(t, 0.5),
                     np.full_like(t, 0.8))
    c = fb.classify(traj, spec, lstar=3.24)
    assert c.verdict == "Spreading"
    assert c.evidence["rule"] == "front-beyond-critical-length"


def test_vanishing_rule(n):
    spec = make_spec(n, 0.5)
    t = np.linspace(0.0, 10.0, 50)
    traj = synthetic(spec, t, np.full_like(t, 2.4), np.full_like(t, 1e-7),
                     np.full_like(t, 1e-5))
    c = fb.classify(traj, spec, lstar=3.24)
    assert c.verdict == "Vanishing"


def test_vanishing_requires_front_below_critical_length(n):
    # decayed but the front sits beyond l_star + margin and never crossed it
    # during the recorded window: no rule fires
    spec = make_spec(n, 0.5)
    t = np.linspace(0.0, 10.0, 50)
    traj = synthetic(spec, t, np.full_like(t, 5.0), np.full_like(t, 1e-7),
                     np.full_like(t, 1e-5))
    c = fb.classify(traj, spec, lstar=6.0)
    assert c.verdict == "Vanishing"
    traj2 = synthetic(spec, t, np.full_like(t, 5.0), np.full_like(t, 1e-7),
                      np.full_like(t, 0.4))
    assert fb.classify(traj2, spec, lstar=6.0).verdict == "Undetermined"


def test_undetermined_inconclusive_short_run(n):
    spec = make_spec(n, 0.5)
    t = np.linspace(0.0, 5.0, 40)
    traj = synthetic(spec, t, 2.0 + 0.1 * t, np.full_like(t, 0.1),
                     np.full_like(t, 0.4))
    c = fb.classify(traj, spec, lstar=3.24)
    assert c.verdict == "Undetermined"


def test_virtual_vanishing_branch(n):
    # beta >= c0, density decayed, front still advancing
    spec = make_spec(n, 2.5)
    t = np.linspace(0.0, 40.0, 100)
    h = 2.0 + 1.2 * t
    x = np.linspace(0.0, h[-1], 400)
    u = np.full_like(x, 1e-5)
    u[-1] = 0.0
    traj = synthetic(spec, t, h, np.full_like(t, 0.01), np.full_like(t, 1e-5),
                     final_profile=(x, u))
    c = fb.classify(traj, spec, ctilde=1.4)
    assert c.verdict == "VirtualVanishing"


def test_virtual_spreading_window_checks(n):
    spec = make_spec(n, 2.5)
    t = np.linspace(0.0, 40.0, 100)
    h = 2.0 + 1.4 * t
    x = np.linspace(0.0, h[-1], 800)
    u = np.where(x < h[-1] - 2.0, 1.0, 0.0)
    traj = synthetic(spec, t, h, np.full_like(t, 1.4), np.ones_like(t),
                     final_profile=(x, u))
    c = fb.classify(traj, spec, ctilde=1.4)
    assert c.verdict == "VirtualSpreading"
    # short horizon: the moving window leaves [0, h]: diagnostic Undetermined
    t2 = np.linspace(0.0, 2.0, 30)
    h2 = 2.0 + 1.4 * t2
    traj2 = synthetic(spec, t2, h2, np.full_like(t2, 1.4), np.ones_like(t2),
                      final_profile=(np.linspace(0, h2[-1], 100),
                                     np.ones(100)))
    c2 = fb.classify(traj2, spec, ctilde=1.4)
    assert c2.verdict == "Undetermined"
    assert c2.evidence["rule"] == "moving-window-outside-domain"


def test_determinism(n):
    spec = make_spec(n, 0.5)
    t = np.linspace(0.0, 10.0, 50)
    traj = synthetic(spec, t, 2.0 + 0.5 * t, np.full_like(t, 0.5),
                     np.full_like(t, 0.8))
    v1 = fb.classify(traj, spec, lstar=3.24)
    v2 = fb.classify(traj, spec, lstar=3.24)
    assert v1.verdict == v2.verdict and v1.evidence == v2.evidence


def test_real_runs_agree_with_theory(n):
    # vanishing for strong negative advection; spreading beyond l_star
    spec_v = make_spec(n, -2.5, h0=2.0, nx=300, tmax=40.0)
    traj_v = fb.simulate(spec_v)
    assert fb.classify(traj_v, spec_v).verdict == "Vanishing"
    # consistency: sup u monotone to 0 over the final quarter
    tail = traj_v.times >= 0.75 * traj_v.times[-1]
    assert np.all(np.diff(traj_v.supu[tail]) <= 1e-12)

    lstar = fb.critical_length(0.5, 1.0, 0.0, 1.0)
    spec_s = make_spec(n, 0.5, h0=lstar + 0.5, nx=300, tmax=15.0)
    traj_s = fb.simulate(spec_s)
    assert fb.classify(traj_s, spec_s, lstar=lstar).verdict == "Spreading"


def test_dichotomy_exhaustive_for_subcritical_advection(n):
    # no virtual verdicts for |beta| < c0 on a small (mu, lambda) sweep
    lstar = fb.critical_length(0.5, 1.0, 0.0, 1.0)
    psi = fb.default_initial_profile(0.5 * lstar, 1.0, 0.0)
    for mu in (0.3, 3.0):
        for lam in (0.3, 1.5):
            spec = fb.ProblemSpec(beta=0.5, mu=mu, a=1.0, b=0.0, h0=0.5 * lstar,
                                  nonlinearity=n, u0=lambda x: lam * psi(x),
                                  nx=200, dt=2e-3, tmax=60.0)
            traj = fb.simulate(spec)
            v = fb.classify(traj, spec, lstar=lstar).verdict
            assert v in ("Spreading", "Vanishing", "Undetermined")


def test_vanishing_certificate_on_synthetic_states(n):
    from freebound.classify import vanishing_certificate

    spec = make_spec(n, 0.5, h0=1.0)
    lstar = fb.critical_length(0.5, 1.0, 0.0, n.fp0)
    x = np.linspace(0.0, 1.0, 101)
    # u = 0 gives H = h, so the largest candidate below l_star wins
    slack0, L0 = vanishing_certificate(1.0, x, np.zeros_like(x), spec, lstar)
    assert 1.0 < L0 < lstar and slack0 == L0 - 1.0
    # a larger density raises H and lowers the slack, for every mu
    u = 0.2 * np.sin(np.pi * x)
    slacks = [vanishing_certificate(1.0, x, amp * u, spec, lstar)[0]
              for amp in (0.5, 1.0, 2.0)]
    assert slack0 > slacks[0] > slacks[1] > slacks[2]
    big_mu = make_spec(n, 0.5, h0=1.0, mu=10.0)
    assert vanishing_certificate(1.0, x, u, big_mu, lstar)[0] < slacks[1]
    # no candidate length above a front at l_star
    xs = np.linspace(0.0, lstar, 101)
    slack, L = vanishing_certificate(lstar, xs, np.sin(np.pi * xs / lstar),
                                     spec, lstar)
    assert slack == -np.inf and np.isnan(L)
