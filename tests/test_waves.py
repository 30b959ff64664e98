import gc
import warnings

import numpy as np
import pytest

import freebound as fb
from freebound import waves

from oracles import (
    critical_advection_nested,
    halved_step_slope,
    reference_spreading_speed,
    spreading_speed_brentq,
)

# Frozen from the step-halved fixed-step RK4 oracle in oracles.py
# (tolerance 1e-10 on the halving sequence):
SLOPE0_GAMMA1_LOGISTIC = 0.10491513853749346
CTILDE_BETA0_MU1_LOGISTIC = 0.36437072331588477
SLOPE0_GAMMA_MINUS2_LOGISTIC = 2.2129469448396546


@pytest.fixture(scope="module")
def n(logistic_n):
    # the session's term: its slope curve carries shots from every test
    return logistic_n


# ---------------------------------------------------------------- semi-waves

def test_zero_speed_slope_matches_first_integral(n):
    # gamma = 0: (1/2) q'(0)^2 = int_0^1 f, so q'(0) = 1/sqrt(3) exactly
    w = fb.shoot_semi_wave(0.0, 0.0, n)
    assert w.slope0 == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-10)
    assert np.all(np.diff(w.q) > 0.0)
    assert abs(w.q[-1] - 1.0) < 1e-6
    assert w.q[0] == 0.0


def test_zero_speed_slope_cubic_first_integral():
    # f = u(1-u)(1+g u): int_0^1 f = 1/6 + g/12
    for g in (0.2, 0.8):
        nc = fb.cubic_monostable(g)
        w = fb.shoot_semi_wave(0.0, 0.0, nc, samples=False)
        assert w.slope0 == pytest.approx(np.sqrt(1.0 / 3.0 + g / 6.0), abs=1e-10)


def test_slope_against_frozen_rk4_oracle(n):
    w = fb.shoot_semi_wave(1.0, 0.0, n, samples=False)
    assert w.slope0 == pytest.approx(SLOPE0_GAMMA1_LOGISTIC, abs=1e-8)


def test_no_semi_wave_at_existence_boundary(n):
    with pytest.raises(fb.errors.NoSemiWave):
        fb.shoot_semi_wave(n.c0, 0.0, n)
    with pytest.raises(fb.errors.NoSemiWave):
        fb.shoot_semi_wave(n.c0 + 1.0, 1.0, n)  # c - beta = c0 exactly
    # just inside the range the shot still lands
    w = fb.shoot_semi_wave(n.c0 + 1.0 - 1e-2, 1.0, n, samples=False)
    assert w.slope0 > 0.0


def test_semi_wave_ode_residual(n):
    w = fb.shoot_semi_wave(0.7, 0.2, n)
    g = 0.7 - 0.2
    dz = w.z[1] - w.z[0]
    r1 = np.abs((w.q[2:] - w.q[:-2]) / (2 * dz) - w.qp[1:-1]).max()
    r2 = np.abs((w.qp[2:] - w.qp[:-2]) / (2 * dz)
                - (g * w.qp[1:-1] - n.f(w.q[1:-1]))).max()
    assert max(r1, r2) < 1e-6


def test_slope_map_strictly_decreasing(n):
    # the fixed point is well-posed because the slope map decreases in c
    cs = np.linspace(0.0, 1.8, 10)
    slopes = [fb.shoot_semi_wave(c, 0.0, n, samples=False).slope0 for c in cs]
    assert np.all(np.diff(slopes) < 0.0)


def test_step_halving_convergence(n):
    # all shooting outputs move by < 1e-9 under a halved step ceiling
    s1 = fb.shoot_semi_wave(1.0, 0.0, n, samples=False, max_step=0.1).slope0
    s2 = fb.shoot_semi_wave(1.0, 0.0, n, samples=False, max_step=0.05).slope0
    assert abs(s1 - s2) < 1e-9
    c1 = fb.spreading_speed(0.5, 1.0, n, max_step=0.1).c_tilde
    c2 = fb.spreading_speed(0.5, 1.0, n, max_step=0.05).c_tilde
    assert abs(c1 - c2) < 1e-9
    f1 = fb.finite_wave(0.2, 0.5, 1.0, n, ctilde=c1, max_step=0.1)
    f2 = fb.finite_wave(0.2, 0.5, 1.0, n, ctilde=c1, max_step=0.05)
    assert abs(f1.endpoint - f2.endpoint) < 1e-9
    v1 = fb.stationary_increasing(0.3, 1.0, 1.0, n, max_step=0.1).slope0
    v2 = fb.stationary_increasing(0.3, 1.0, 1.0, n, max_step=0.05).slope0
    assert abs(v1 - v2) < 1e-9


def test_slope_derivative_matches_centred_difference(n):
    # the variational shot's ds/dg against a centred difference of plain
    # shots (h = 1e-5); both agree to ~1e-10 on (-c0, c0)
    budget = waves._default_budget(n)
    h = 1e-5
    for g in (-1.9, -1.5, -0.5, 0.5, 1.5, 1.9):
        k = waves._slope(g, n, budget, 0.1)
        s_plus = fb.shoot_semi_wave(g + h, 0.0, n, samples=False).slope0
        s_minus = fb.shoot_semi_wave(g - h, 0.0, n, samples=False).slope0
        assert k.ds == pytest.approx((s_plus - s_minus) / (2.0 * h), abs=1e-8)
        assert k.ds < 0.0
        assert k.s == pytest.approx(
            fb.shoot_semi_wave(g, 0.0, n, samples=False).slope0, abs=1e-12)


# ---------------------------------------------------------- spreading speed

def test_spreading_speed_beta0(n):
    res = fb.spreading_speed(0.0, 1.0, n)
    assert 0.0 < res.c_tilde < n.c0
    assert res.residual < 1e-8
    assert res.c_tilde == pytest.approx(CTILDE_BETA0_MU1_LOGISTIC, abs=1e-8)
    # returned profile is the matching semi-wave
    assert res.profile.slope0 == pytest.approx(res.c_tilde / 1.0, abs=1e-8)


def test_spreading_speed_increasing_in_beta(n):
    betas = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]
    cts = [fb.spreading_speed(b, 1.0, n).c_tilde for b in betas]
    assert np.all(np.diff(cts) > 0.0)
    for b, ct in zip(betas, cts):
        assert 0.0 < ct < n.c0 + b


def test_spreading_speed_limits(n):
    assert fb.spreading_speed(-n.c0 + 0.01, 1.0, n).c_tilde < 0.1
    assert fb.spreading_speed(0.0, 1e-4, n).c_tilde < 1e-3


def test_spreading_speed_domain(n):
    with pytest.raises(fb.errors.NoSemiWave):
        fb.spreading_speed(-n.c0, 1.0, n)
    with pytest.raises(fb.errors.NoSemiWave):
        fb.spreading_speed(-2.5, 1.0, n)
    with pytest.raises(ValueError):
        fb.spreading_speed(0.0, -1.0, n)


def test_spreading_speed_at_existence_boundary_raises_cleanly(n):
    # the first shot, at drift c0 - 1e-6, stalls in the origin spiral where
    # DOP853's error norm divides 0 by 0; that must surface as
    # NumericalError, not as a RuntimeWarning from inside scipy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fb.errors.NumericalError, match="drift"):
            fb.spreading_speed(-n.c0 + 1e-6, 1.0, n)


@pytest.fixture
def no_shots(monkeypatch):
    def shot(*args, **kwargs):
        raise AssertionError("a shot was made on non-finite input")

    monkeypatch.setattr(waves, "shoot_semi_wave", shot)


@pytest.mark.parametrize("beta, mu", [(np.nan, 1.0), (np.inf, 1.0),
                                      (-np.inf, 1.0), (0.0, np.nan),
                                      (0.0, np.inf)])
def test_spreading_speed_refuses_non_finite(n, no_shots, beta, mu):
    with pytest.raises(ValueError, match="must be finite"):
        fb.spreading_speed(beta, mu, n)


@pytest.mark.parametrize("mu", [np.nan, np.inf])
def test_critical_advection_refuses_non_finite(n, no_shots, mu):
    with pytest.raises(ValueError, match="must be finite"):
        fb.critical_advection(mu, n)


@pytest.mark.parametrize("call", [
    lambda n: fb.shoot_semi_wave(np.nan, 0.0, n),
    lambda n: fb.shoot_semi_wave(0.5, np.inf, n),
    lambda n: fb.traveling_wave(np.nan, "right", n),
    lambda n: fb.finite_wave(0.5, 0.0, np.nan, n, ctilde=1.0),
    lambda n: fb.tadpole_wave(np.nan, 1.0, n, beta_star=3.0),
    lambda n: fb.stationary_increasing(0.0, 1.0, np.inf, n),
], ids=["semi-c", "semi-beta", "traveling-c", "finite-mu", "tadpole-beta",
        "stationary-b"])
def test_wave_profiles_refuse_non_finite(monkeypatch, call):
    def shot(*args, **kwargs):
        raise AssertionError("a shot was made on non-finite input")

    monkeypatch.setattr(waves, "_shoot", shot)
    with pytest.raises(ValueError, match="must be finite"):
        call(fb.logistic())


def test_newton_matches_brentq_oracle(n):
    # criterion 3's ladder plus the extremes of criterion 4 and beyond
    cases = [(b, m) for b in (-1.5, -1.0, 0.0, 1.0, 1.5, 2.5)
             for m in (0.5, 1.0, 2.0)]
    cases += [(-1.99, 1.0), (n.c0, 1.0), (5.0, 1.0), (0.0, 1e-4)]
    for beta, mu in cases:
        res = fb.spreading_speed(beta, mu, n)
        assert res.c_tilde == pytest.approx(spreading_speed_brentq(beta, mu, n),
                                            abs=1e-10)
        assert res.residual < 1e-8


# --------------------------------------------------------- critical advection

@pytest.mark.parametrize("mu", [0.3, 1.0, 3.0])
def test_beta_star_identity_matches_nested_oracle(n, mu):
    assert fb.critical_advection(mu, n) == pytest.approx(
        critical_advection_nested(mu, n), abs=1e-9)


def test_excess_speed_positive_at_c0(n):
    ct = fb.spreading_speed(n.c0, 1.0, n).c_tilde
    assert ct - n.c0 + n.c0 > 0.0  # c_tilde > 0 at beta = c0


def test_critical_advection_flip_and_identity(n, beta_star_1):
    assert beta_star_1 > n.c0
    # sign-change oracle around the root
    lo = fb.spreading_speed(beta_star_1 - 0.05, 1.0, n).c_tilde - (beta_star_1 - 0.05) + n.c0
    hi = fb.spreading_speed(beta_star_1 + 0.05, 1.0, n).c_tilde - (beta_star_1 + 0.05) + n.c0
    assert lo > 0.0 > hi
    # independent saddle identity: at beta*, the semi-wave argument is -c0,
    # so beta* = c0 + mu * q'(0; -c0); frozen RK4 value cross-checks it
    assert beta_star_1 == pytest.approx(n.c0 + SLOPE0_GAMMA_MINUS2_LOGISTIC, abs=1e-6)


def test_critical_advection_small_mu(n):
    assert fb.critical_advection(1e-4, n) == pytest.approx(n.c0, abs=0.05)


# ----------------------------------------------------------------- finite waves

def test_finite_wave_basic(n):
    res = fb.spreading_speed(0.0, 1.0, n)
    w = fb.finite_wave(0.5 * res.c_tilde, 0.0, 1.0, n, ctilde=res.c_tilde)
    assert w.endpoint > 0.0
    assert w.q[-1] < 1.0
    assert abs(1.0 * w.slope0 - res.c_tilde) < 1e-8   # mu*q'(0) = c_tilde
    assert abs(w.qp[-1]) < 1e-8                        # q'(z_c) = 0
    assert np.all(w.q[1:] > 0.0)


def test_finite_wave_length_blows_up_toward_ctilde(n):
    res = fb.spreading_speed(0.0, 1.0, n)
    zs = [fb.finite_wave(f * res.c_tilde, 0.0, 1.0, n, ctilde=res.c_tilde).endpoint
          for f in (0.5, 0.9, 0.99)]
    assert zs[0] < zs[1] < zs[2]


def test_finite_wave_approaches_semi_wave(n):
    res = fb.spreading_speed(0.0, 1.0, n)
    w = fb.finite_wave(0.99 * res.c_tilde, 0.0, 1.0, n, ctilde=res.c_tilde)
    q_tilde = fb.profile_interpolator(res.profile)
    assert np.max(np.abs(w.q - q_tilde(w.z))) < 0.05


def test_no_finite_wave_outside_range(n):
    res = fb.spreading_speed(0.0, 1.0, n)
    with pytest.raises(fb.errors.NoFiniteWave):
        fb.finite_wave(res.c_tilde, 0.0, 1.0, n, ctilde=res.c_tilde)
    with pytest.raises(fb.errors.NoFiniteWave):
        fb.finite_wave(-0.1, 0.0, 1.0, n, ctilde=res.c_tilde)


# ------------------------------------------------------------- traveling waves

def test_left_wave_at_minimal_speed(n):
    w = fb.traveling_wave(-n.c0, "left", n)
    assert np.all(np.diff(w.q) < 0.0)
    assert np.all(w.qp < 0.0)
    assert abs(w.q[0] - 1.0) < 1e-6 and w.q[-1] < 1e-6


def test_right_wave_requires_minimal_speed(n):
    with pytest.raises(fb.errors.NoWave):
        fb.traveling_wave(1.0, "right", n)
    with pytest.raises(fb.errors.NoWave):
        fb.traveling_wave(-1.0, "left", n)


def test_right_wave_exponential_tail(n):
    w = fb.traveling_wave(n.c0, "right", n)
    assert np.all(np.diff(w.q) > 0.0)
    # fit log(1 - q) over the leading half: decay rate rho > 0
    mask = (w.z > 2.0) & (1.0 - w.q > 1e-12)
    coeffs = np.polyfit(w.z[mask], np.log(1.0 - w.q[mask]), 1)
    rho = -coeffs[0]
    assert rho > 0.1
    assert np.all(1.0 - w.q[mask] <= np.exp(coeffs[1] + 1e-6) * np.exp(-rho * w.z[mask]) * 1.5)


def test_left_right_mirror_symmetry(n):
    wl = fb.traveling_wave(-1.5 * n.c0, "left", n)
    wr = fb.traveling_wave(1.5 * n.c0, "right", n)
    q_right = fb.profile_interpolator(wr)
    assert np.max(np.abs(wl.q - q_right(-wl.z))) < 1e-6


# ---------------------------------------------------------------- tadpole wave

def test_tadpole_exists_in_band(n, beta_star_1):
    beta = 0.5 * (n.c0 + beta_star_1)
    w = fb.tadpole_wave(beta, 1.0, n, beta_star=beta_star_1)
    assert w.q[-1] == 0.0
    assert abs(-1.0 * w.slope0 - (beta - n.c0)) < 1e-8   # -mu V'(0) = beta - c0
    assert w.q[0] < 1e-6                                  # left tail decayed
    interior = w.q[1:-1]
    assert np.all(interior > 0.0)
    # single hump: q' changes sign exactly once
    sgn = np.sign(w.qp[np.abs(w.qp) > 1e-10])
    assert np.count_nonzero(np.diff(sgn)) == 1
    assert w.speed == pytest.approx(beta - n.c0)


def test_tadpole_only_inside_band(n, beta_star_1):
    with pytest.raises(fb.errors.NoWave):
        fb.tadpole_wave(beta_star_1 + 0.1, 1.0, n, beta_star=beta_star_1)
    with pytest.raises(fb.errors.NoWave):
        fb.tadpole_wave(n.c0, 1.0, n, beta_star=beta_star_1)


# ------------------------------------------------------------ stationary profile

def test_stationary_dirichlet(n):
    v = fb.stationary_increasing(0.0, 1.0, 0.0, n)
    assert v.q[0] == 0.0
    assert v.slope0 > 0.0
    assert np.all(np.diff(v.q) > 0.0)
    assert abs(v.q[-1] - 1.0) < 1e-6
    # beta = 0 Dirichlet stationary profile solves the gamma = 0 shot
    assert v.slope0 == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-10)


def test_stationary_robin_boundary_relation(n):
    v = fb.stationary_increasing(0.0, 1.0, 1.0, n)
    assert v.q[0] > 0.0
    assert v.q[0] == pytest.approx(v.slope0, abs=1e-10)  # a*v(0) = b*v'(0)


def test_stationary_exponential_tail(n):
    v = fb.stationary_increasing(0.5, 1.0, 0.0, n)
    mask = (v.z > 3.0) & (1.0 - v.q > 1e-12)
    rho = -np.polyfit(v.z[mask], np.log(1.0 - v.q[mask]), 1)[0]
    assert rho > 0.1


def test_no_stationary_outside_range(n):
    with pytest.raises(fb.errors.NoStationary):
        fb.stationary_increasing(n.c0, 1.0, 0.0, n)
    with pytest.raises(fb.errors.NoStationary):
        fb.stationary_increasing(0.0, 0.0, 1.0, n)


# --------------------------------------------------------------- slope curve

LADDER = [(b, m) for b in (-1.5, -1.0, 0.0, 1.0, 1.5, 2.5)
          for m in (0.5, 1.0, 2.0)]
# drifts no ladder shot has met: warm starts from Hermite roots
OFF_LADDER = [(b + 0.013, 1.07 * m) for b, m in LADDER]
TERMS = {
    "logistic": fb.logistic,
    "cubic": lambda: fb.cubic_monostable(0.5),
    "custom": lambda: fb.from_coefficients([0.0, 1.0, 0.0, -1.0]),
}


def curve_size(n):
    return len(waves._slope_curve(n, waves._MAX_STEP).g)


def warmed(term):
    n = term()
    for beta, mu in LADDER:
        fb.spreading_speed(beta, mu, n)
    return n


@pytest.fixture
def shots(monkeypatch):
    """Counts semi-wave shots; each is still made."""
    made = []
    shoot = waves.shoot_semi_wave

    def counted(*args, **kwargs):
        made.append(args)
        return shoot(*args, **kwargs)

    monkeypatch.setattr(waves, "shoot_semi_wave", counted)
    return made


@pytest.mark.parametrize("term", TERMS.values(), ids=TERMS)
def test_cold_spreading_speed_is_the_reference_path(term):
    for beta, mu in [(0.5, 2.0), (-1.99, 1.0), (2.5, 0.5), (5.0, 1.0),
                     (0.0, 1e-4)]:
        res = fb.spreading_speed(beta, mu, term())
        assert (res.c_tilde, res.residual) == reference_spreading_speed(
            beta, mu, term())


@pytest.mark.parametrize("term", TERMS.values(), ids=TERMS)
def test_warm_spreading_speed_matches_reference(term):
    n = warmed(term)
    for beta, mu in LADDER + OFF_LADDER:
        res = fb.spreading_speed(beta, mu, n)
        c_tilde, _ = reference_spreading_speed(beta, mu, term())
        assert abs(res.c_tilde - c_tilde) <= 1e-12
        assert res.residual < 1e-8


def test_warm_edge_raises_like_cold():
    def raised(n):
        with pytest.raises(fb.errors.FreeboundError) as info:
            fb.spreading_speed(-1.999999, 1.0, n)
        return type(info.value), str(info.value)

    cold = raised(fb.logistic())
    assert cold == raised(warmed(fb.logistic))
    assert cold[0] is fb.errors.NumericalError


def test_warm_ladder_needs_at_most_three_shots(shots):
    n = warmed(fb.logistic)
    size = curve_size(n)
    for beta, mu in LADDER:
        shots.clear()
        fb.spreading_speed(beta, mu, n)
        assert len(shots) <= 3
    assert curve_size(n) == size
    # a repeated query shoots where the last one converged: no new point
    for _ in range(2):
        fb.spreading_speed(0.3, 1.3, n)
        size = curve_size(n)
        fb.spreading_speed(0.3, 1.3, n)
        assert curve_size(n) == size


def test_slope_curve_is_dropped_with_its_term():
    n = fb.from_coefficients([0.0, 1.0, 0.0, -1.0])
    fb.critical_advection(1.0, n)
    key = (id(n), waves._MAX_STEP)
    assert waves._CURVES[key].g == [-n.c0]
    del n
    gc.collect()
    assert key not in waves._CURVES


# ------------------------------------------------------- oracle self-consistency

def test_library_slope_matches_fresh_rk4_oracle(n):
    # recompute one oracle value at reduced precision to guard the frozen
    # constants against drift in either implementation
    fresh = halved_step_slope(1.0, lambda u: u * (1.0 - u), -1.0, h0=0.04, tol=1e-8)
    assert fresh == pytest.approx(SLOPE0_GAMMA1_LOGISTIC, abs=1e-7)
