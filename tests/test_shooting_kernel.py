"""The Python-float DOP853 shooting kernel: agreement with the solve_ivp
kernel it replaced (oracles.reference_shoot), its tableau, and the lazily
sampled semi-wave profile of spreading_speed."""

import hashlib

import numpy as np
import pytest
from scipy.integrate import DOP853

import freebound as fb
from freebound import waves

from oracles import reference_shoot, use_reference_kernel

# sha256 of DOP853's A, B, C, E3, E5, D, A_EXTRA, C_EXTRA as little-endian
# doubles, as scipy 1.17.1 ships them
DOP853_TABLEAU_SHA256 = (
    "9d429c27653a966841fb9a04f9c9cb735369096349afdebd78d635555c4d1e58")

CRITERION_3_LADDER = [(b, m) for b in (-1.5, -1.0, 0.0, 1.0, 1.5, 2.5)
                      for m in (0.5, 1.0, 2.0)]


@pytest.fixture(scope="module")
def n(logistic_n):
    return logistic_n


def on_both_kernels(monkeypatch, compute, term=fb.logistic):
    """compute(n) on the library's kernel, then on the reference kernel,
    each with a fresh reaction term n = term(), so that no reference shot
    enters a slope curve the library's shots use."""
    new = compute(term())
    with monkeypatch.context() as patch:
        use_reference_kernel(patch)
        old = compute(term())
    return new, old


def raised(compute, *args):
    with pytest.raises(fb.errors.FreeboundError) as info:
        compute(*args)
    return type(info.value), str(info.value)


# ----------------------------------------------------------------- tableau

def test_kernel_tableau_is_scipys_dop853():
    stages = DOP853.n_stages
    assert len(waves._A) == stages - 1
    for s, row in enumerate(waves._A, start=1):
        assert row == tuple(DOP853.A[s, :s])
        assert not np.any(DOP853.A[s, s:])
    assert len(waves._A_EXTRA) == len(DOP853.A_EXTRA)
    for s, (row, full) in enumerate(zip(waves._A_EXTRA, DOP853.A_EXTRA),
                                    start=stages + 1):
        assert row == tuple(full[:s])
        assert not np.any(full[s:])
    assert waves._B == tuple(DOP853.B)
    assert waves._E3 == tuple(DOP853.E3)
    assert waves._E5 == tuple(DOP853.E5)
    assert waves._D == tuple(map(tuple, DOP853.D))
    # a scipy that ships other coefficients must fail here, not shift numbers
    names = ("A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA")
    tableau = b"".join(np.ascontiguousarray(getattr(DOP853, name), dtype="<f8")
                       .tobytes() for name in names)
    assert hashlib.sha256(tableau).hexdigest() == DOP853_TABLEAU_SHA256


# ------------------------------------------------------ agreement: speeds

def test_slope_and_derivative_match_reference(n, monkeypatch):
    budget = waves._default_budget(n)
    for g in (-1.9, -1.5, -0.5, 0.5, 1.5, 1.9):
        new, old = on_both_kernels(monkeypatch,
                                   lambda nl: waves._slope(g, nl, budget, 0.1))
        assert abs(new.s - old.s) <= 1e-12
        assert abs(new.ds - old.ds) <= 1e-12


@pytest.mark.parametrize("kind, cases", [
    ("logistic", CRITERION_3_LADDER),
    ("cubic", [(b, 1.0) for b in (-1.5, -1.0, 0.0, 1.0, 1.5, 2.5)]),
])
def test_c_tilde_matches_reference(monkeypatch, kind, cases):
    term = fb.logistic if kind == "logistic" else lambda: fb.cubic_monostable(0.5)
    for beta, mu in cases:
        new, old = on_both_kernels(
            monkeypatch, lambda nl: fb.spreading_speed(beta, mu, nl), term)
        assert abs(new.c_tilde - old.c_tilde) <= 1e-12
        assert new.residual < 1e-8


def test_critical_advection_matches_reference(monkeypatch):
    for mu in (0.3, 1.0, 3.0):
        new, old = on_both_kernels(monkeypatch,
                                   lambda nl: fb.critical_advection(mu, nl))
        assert abs(new - old) <= 1e-12


# ---------------------------------------------------- agreement: profiles

PROFILES = {
    "semi": lambda n, c: fb.shoot_semi_wave(0.7, 0.2, n),
    "finite": lambda n, c: fb.finite_wave(0.2, 0.5, 1.0, n, ctilde=c["ctilde"]),
    "traveling-right": lambda n, c: fb.traveling_wave(n.c0, "right", n),
    "traveling-left": lambda n, c: fb.traveling_wave(-1.5 * n.c0, "left", n),
    "tadpole": lambda n, c: fb.tadpole_wave(0.5 * (n.c0 + c["beta_star"]), 1.0, n,
                                            beta_star=c["beta_star"]),
    "stationary-dirichlet": lambda n, c: fb.stationary_increasing(0.0, 1.0, 0.0, n),
    "stationary-robin": lambda n, c: fb.stationary_increasing(0.3, 1.0, 1.0, n),
}


@pytest.mark.parametrize("name", PROFILES)
def test_profile_matches_reference(n, monkeypatch, name):
    inputs = {"ctilde": fb.spreading_speed(0.5, 1.0, n).c_tilde,
              "beta_star": fb.critical_advection(1.0, n)}
    new, old = on_both_kernels(monkeypatch, lambda nl: PROFILES[name](nl, inputs))
    assert new.kind == old.kind and new.z.size == old.z.size
    # the sample ends are the event times (and the q = 1/2 anchor for
    # traveling waves)
    for a, b in ((new.z[0], old.z[0]), (new.z[-1], old.z[-1]),
                 (new.slope0, old.slope0)):
        assert abs(a - b) <= 1e-10
    if new.endpoint is not None:
        assert abs(new.endpoint - old.endpoint) <= 1e-10
    assert np.max(np.abs(new.q - old.q)) <= 1e-10
    assert np.max(np.abs(new.qp - old.qp)) <= 1e-10


def test_interpolants_evaluate_like_ode_solution(n):
    # the same steps, taken from a solve_ivp shot, sampled both ways
    def crossing(_t, y):
        return y[0]

    crossing.terminal, crossing.direction = True, -1.0
    sol = reference_shoot(0.5, n, waves._saddle_launch(0.5, -1.0), [crossing],
                          100.0, 0.1, backward=True, dense=True)
    steps = [(float(ip.t_old), float(ip.h), list(map(float, ip.y_old)),
              [list(map(float, row)) for row in ip.F])
             for ip in sol.sol.interpolants]
    shot = waves._Shot([], [], sol.t[-1], [], steps)
    tau, q, qp = waves._sample(shot, float(sol.t_events[0][0]), None, False)
    expected = sol.sol(tau)
    assert np.array_equal(q, expected[0]) and np.array_equal(qp, expected[1])
    for k in range(0, len(steps), 50):
        t = steps[k][0] + 0.3 * steps[k][1]
        assert np.array_equal(waves._interpolate(steps[k], t), sol.sol(t))


# ------------------------------------------------------ agreement: errors

def test_failed_shots_raise_like_reference(n, monkeypatch):
    for compute in (
        # stalls in the origin spiral: the error norm turns 0/0
        lambda nl: fb.spreading_speed(-n.c0 + 1e-6, 1.0, nl),
        lambda nl: fb.shoot_semi_wave(n.c0 - 3e-5, 0.0, nl, samples=False,
                                      z_budget=2000.0),
        # budget exhausted before q = 0
        lambda nl: fb.shoot_semi_wave(1.0, 0.0, nl, samples=False, z_budget=5.0),
    ):
        new, old = on_both_kernels(monkeypatch, lambda nl: raised(compute, nl))
        assert new == old
        assert new[0] is fb.errors.NumericalError and "drift" in new[1]


def test_collapse_event_located_like_reference(n, monkeypatch):
    # the semi-wave's collapse guard as a terminal event at a floor the
    # spiral reaches before it crosses q = 0 (at amplitude ~1e-138); at
    # 1e-220 itself the error norm breaks down first on both kernels
    g = n.c0 - 1e-4
    y0 = waves._saddle_launch(g, float(n.fprime(1.0)))
    events = [waves._event(lambda y: y[0], -1.0),
              waves._event(lambda y: abs(y[0]) + abs(y[1]) - 1e-100, -1.0)]
    new, old = on_both_kernels(monkeypatch, lambda nl: waves._shoot(
        g, nl, y0, events, 2000.0, 0.1, backward=True, dense=False))
    assert not new.t_events[0] and not old.t_events[0]
    assert abs(new.t_events[1][0] - old.t_events[1][0]) <= 1e-10
    assert new.t == new.t_events[1][0]
    assert np.max(np.abs(np.subtract(new.y, old.y))) <= 1e-110


# ----------------------------------------------------------- lazy profile

def test_spreading_speed_samples_its_profile_on_first_read(n, monkeypatch):
    samples, budgets = [], []
    sample, shoot = waves._sample, waves.shoot_semi_wave

    def counted_sample(*args, **kwargs):
        samples.append(args)
        return sample(*args, **kwargs)

    def recorded_shoot(*args, **kwargs):
        budgets.append(kwargs["z_budget"])
        return shoot(*args, **kwargs)

    monkeypatch.setattr(waves, "_sample", counted_sample)
    monkeypatch.setattr(waves, "shoot_semi_wave", recorded_shoot)
    res = fb.spreading_speed(0.5, 2.0, n)
    assert len(samples) == 0
    profile = res.profile
    assert len(samples) == 1
    assert res.profile is profile and len(samples) == 1

    eager = shoot(res.c_tilde, 0.5, n, z_budget=budgets[-1])
    for name in ("z", "q", "qp"):
        assert np.array_equal(getattr(profile, name), getattr(eager, name))
    assert profile.slope0 == eager.slope0
    assert res.residual == abs(2.0 * profile.slope0 - res.c_tilde)
