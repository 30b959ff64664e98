"""The Python-float DOP853 shooting kernel: its generated step and dense
functions against the generic stage loop (oracles.reference_rk_step), bit
for bit; agreement with the solve_ivp kernel it replaced
(oracles.reference_shoot); its tableau; the sampler that gives every
profile's samples, whole or by index, against the block loop it replaced
(oracles.reference_block_sample); and the lazily shot semi-wave profile
of spreading_speed."""

import hashlib
from math import nan, sqrt

import numpy as np
import pytest
from scipy.integrate import DOP853

import freebound as fb
from freebound import profiles, waves

from oracles import (
    REFERENCE_FIELDS,
    ode_solution_steps,
    record_samplers,
    reference_dense,
    reference_profile_arrays,
    reference_rk_step,
    reference_sample,
    reference_shoot,
    use_reference_kernel,
    use_reference_step,
)

# sha256 of DOP853's A, B, C, E3, E5, D, A_EXTRA, C_EXTRA as little-endian
# doubles, as scipy 1.17.1 ships them
DOP853_TABLEAU_SHA256 = (
    "9d429c27653a966841fb9a04f9c9cb735369096349afdebd78d635555c4d1e58")

CRITERION_3_LADDER = [(b, m) for b in (-1.5, -1.0, 0.0, 1.0, 1.5, 2.5)
                      for m in (0.5, 1.0, 2.0)]


@pytest.fixture(scope="module")
def n(logistic_n):
    return logistic_n


def on_both_kernels(monkeypatch, compute, term=fb.logistic,
                    reference=use_reference_kernel):
    """compute(n) on the library's kernel, then on the reference kernel
    (default: solve_ivp's), each with a fresh reaction term n = term(), so
    that no result solved on one kernel is looked up on the other."""
    new = compute(term())
    with monkeypatch.context() as patch:
        reference(patch)
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
    steps = ode_solution_steps(sol.sol)
    shot = waves._Shot([], [], sol.t[-1], [], steps)
    tau, q, qp = profiles._Sampler(shot, float(sol.t_events[0][0]), False,
                                   identity).arrays()
    expected = sol.sol(tau)
    assert np.array_equal(q, expected[0]) and np.array_equal(qp, expected[1])
    t_old, h, y_old, F = steps
    for k in range(0, len(h), 50):
        t = t_old[k] + 0.3 * h[k]
        step = (t_old[k], h[k], y_old[:, k], F[:, :, k])
        assert np.array_equal(waves._interpolate(step, t), sol.sol(t))


BLOCK = profiles._SAMPLE_BLOCK


def identity(tau):
    return tau


@pytest.fixture(scope="module")
def dense_shots(n):
    """Dense shots as the profiles make them, each with the tau of its
    first event: a semi-wave's at g = 0.5 (backward, to q = 0), the finite
    wave's at c = 0.2, beta = 0.5, mu = 1 (forward, to q' = 0) and the
    tadpole's half way into (c0, beta_star) at mu = 1 (backward, to its
    tail cut)."""
    budget = waves._default_budget(n)

    def shoot(g, y0, fn, backward):
        shot = waves._shoot(g, n, y0, [waves._event(fn, -1.0)], budget,
                            waves._MAX_STEP, backward=backward, dense=True)
        return shot, shot.t_events[0][0]

    ctilde = fb.spreading_speed(0.5, 1.0, n).c_tilde
    excess = 0.5 * (fb.critical_advection(1.0, n) - n.c0)
    return {
        "semi": shoot(0.5, waves._saddle_launch(0.5, float(n.fprime(1.0))),
                      lambda y: y[0], True),
        "finite": shoot(0.2 - 0.5, [0.0, ctilde], lambda y: y[1], False),
        "tadpole": shoot(n.c0, [0.0, -excess], lambda y: y[0] - 5e-7, True),
    }


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n_samples", [1, BLOCK - 1, BLOCK, BLOCK + 1, 5 * BLOCK + 17,
                                       None, 500001])
def test_blocks_sample_like_one_pass(dense_shots, n_samples, reverse):
    for shot, tau_end in dense_shots.values():
        new = profiles._Sampler(shot, tau_end, reverse, identity,
                                n_samples=n_samples).arrays()
        old = reference_sample(shot, tau_end, n_samples, reverse)
        for a, b in zip(new, old):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n_samples", [2, 3, BLOCK + 1, 2001, 110587, 122921, None])
def test_samples_by_index_are_the_whole_samples(dense_shots, n_samples, reverse):
    # tau_k = k * step but for the last, tau_end, element for element as
    # np.linspace makes the grid; each sample read by index has the bits
    # of the whole read, pins included
    for shot, tau_end in dense_shots.values():
        sampler = profiles._Sampler(shot, tau_end, reverse, lambda tau: 2.5 - tau,
                                    pin_q=(0, -1), pin_qp=(-1,), n_samples=n_samples)
        z, q, _ = sampler.arrays()
        k = np.arange(sampler.size)
        tau = np.linspace(0.0, tau_end, sampler.size)
        assert sampler._tau_at(k).tobytes() == (tau[::-1] if reverse else tau).tobytes()
        assert sampler.z_at(k).tobytes() == z.tobytes()
        assert sampler.q_at(k).tobytes() == q.tobytes()
        assert q[0] == q[-1] == 0.0
        mixed = np.random.default_rng(sampler.size).permutation(k)[:5000]
        assert sampler.q_at(mixed).tobytes() == q[mixed].tobytes()


@pytest.mark.parametrize("name", list(PROFILES))
def test_profiles_sample_like_the_block_loop(monkeypatch, logistic_n, name):
    # every profile's z, q, q', read after an evaluator was made, are the
    # bits of the block loop every profile was sampled with on its making
    inputs = {"ctilde": fb.spreading_speed(0.5, 1.0, logistic_n).c_tilde,
              "beta_star": fb.critical_advection(1.0, logistic_n)}
    made = record_samplers(monkeypatch)
    prof = PROFILES[name](logistic_n, inputs)
    fb.profile_interpolator(prof)(0.5)
    assert prof._arrays is None and len(made) == 1
    for a, b in zip((prof.z, prof.q, prof.qp), reference_profile_arrays(*made[0])):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert prof.z is prof.z


# ------------------------------------------------------ agreement: errors

FAILING_SHOTS = (
    # stalls in the origin spiral: the error norm turns 0/0
    lambda nl: fb.spreading_speed(-nl.c0 + 1e-6, 1.0, nl),
    lambda nl: fb.shoot_semi_wave(nl.c0 - 3e-5, 0.0, nl, samples=False,
                                  z_budget=2000.0),
    # budget exhausted before q = 0
    lambda nl: fb.shoot_semi_wave(1.0, 0.0, nl, samples=False, z_budget=5.0),
)


def test_failed_shots_raise_like_reference(monkeypatch):
    for compute in FAILING_SHOTS:
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


# ------------------------------------------- generated step: bit for bit

TERMS = {
    "logistic": fb.logistic,
    "cubic": lambda: fb.cubic_monostable(0.5),
    "custom": lambda: fb.from_coefficients([0.0, 1.0, 0.0, -1.0]),
}

# state magnitudes 10**e: shots' own range; the origin spiral's floor, where
# the error norm underflows to 0 or to 0/0; and f(q) overflowing, where it
# turns NaN
MAGNITUDES = {"typical": (-3.0, 1.0), "tiny": (-175.0, -160.0),
              "overflow": (150.0, 160.0)}


def hexes(values):
    return [float(v).hex() for v in values]


def error_norm(s5, s3, h, size):
    """_shoot's error norm of a step, or why _shoot raises on it."""
    if s5 == 0.0 and s3 == 0.0:
        return 0.0
    denom = s5 + 0.01 * s3
    err = h * s5 / sqrt(denom * size) if denom > 0.0 else nan
    if err != err:
        return "0/0" if denom == 0.0 else "NaN"
    return err


@pytest.mark.parametrize("term", TERMS)
@pytest.mark.parametrize("field", sorted(waves._FIELDS))
def test_generated_step_and_dense_match_the_stage_loop_bitwise(field, term):
    n = TERMS[term]()
    size = len(waves._FIELDS[field][0])
    rng = np.random.default_rng([sorted(waves._FIELDS).index(field),
                                 list(TERMS).index(term)])
    paths = {"0/0": 0, "NaN": 0}
    for lo, hi in MAGNITUDES.values():
        for _ in range(60):
            g = float(rng.uniform(-3.0, 3.0))
            y = [float(v) for v in
                 rng.uniform(-1.5, 1.5, size) * 10.0 ** rng.uniform(lo, hi)]
            h = float(10.0 ** rng.uniform(-4.0, 0.0))
            rhs, step, dense = waves._kernel(field)(n.f, n.fprime, g)
            ref_rhs = REFERENCE_FIELDS[field](n.f, n.fprime, g)
            fy = rhs(y)
            assert hexes(fy) == hexes(ref_rhs(y))
            new = step(y, fy, h)
            old = reference_rk_step(ref_rhs, y, fy, h)
            err = error_norm(old[2], old[3], h, size)
            assert error_norm(new[2], new[3], h, size) == err
            if err in paths:
                paths[err] += 1
            if err == "NaN":
                # a product 0.0*k with k non-finite, which the generated
                # step leaves out, is NaN in the stage loop; either way
                # the shot raises on this step
                continue
            y_new, f_new, s5, s3, K = new
            assert hexes([*y_new, *f_new, s5, s3, *K]) == hexes(
                [*old[0], *old[1], old[2], old[3], *old[4]])
            F = dense(K, h, y, y_new)
            F_ref = reference_dense(ref_rhs, old[4], h, y, old[0])
            assert [hexes(row) for row in F] == [hexes(row) for row in F_ref]
    assert paths["0/0"] > 0 and paths["NaN"] > 0


@pytest.mark.parametrize("term", TERMS)
@pytest.mark.parametrize("field", sorted(waves._FIELDS))
def test_all_steps_dense_matches_the_step_by_step_dense_bitwise(field, term):
    # a dense shot computes every step's interpolant in one call of the
    # generated dense on float64 arrays, the step index last, under
    # waves._steps' errstate: each step's coefficients are the bits of the
    # same dense on that step's Python floats, and of the stage loop's
    # where the step test above compares those, with no RuntimeWarning
    # raised into an error
    n = TERMS[term]()
    size = len(waves._FIELDS[field][0])
    rng = np.random.default_rng([sorted(waves._FIELDS).index(field),
                                 list(TERMS).index(term), 1])
    compared = 0
    for lo, hi in MAGNITUDES.values():
        for _ in range(4):
            g = float(rng.uniform(-3.0, 3.0))
            rhs, step, dense = waves._kernel(field)(n.f, n.fprime, g)
            ref_rhs = REFERENCE_FIELDS[field](n.f, n.fprime, g)
            steps = []
            for _ in range(15):
                y = [float(v) for v in
                     rng.uniform(-1.5, 1.5, size) * 10.0 ** rng.uniform(lo, hi)]
                h = float(10.0 ** rng.uniform(-4.0, 0.0))
                y_new, _, s5, s3, K = step(y, rhs(y), h)
                steps.append((K, h, y, y_new, error_norm(s5, s3, h, size)))
            K, h, y_old, y_new = (np.array(column).T for column in list(zip(*steps))[:4])
            with np.errstate(over="ignore", invalid="ignore"):
                F = dense(K, h, y_old, y_new, np.asarray)
            for k, (K_k, h_k, y_k, y_new_k, err) in enumerate(steps):
                rows = [hexes(component[k] for component in row) for row in F]
                assert rows == [hexes(row) for row in dense(K_k, h_k, y_k, y_new_k)]
                if err != "NaN":
                    ref = reference_dense(ref_rhs, K_k, h_k, y_k, y_new_k)
                    assert rows == [hexes(row) for row in ref]
                    compared += 1
    assert compared > 0


@pytest.mark.parametrize("field", sorted(waves._FIELDS))
def test_a_nan_f_of_y_new_alone_makes_the_error_norm_nan(field):
    # f(y_new), the twelfth call of f in a step, has zero weight in y_new
    # and in both error estimates; NaN there must still fail the step
    size = len(waves._FIELDS[field][0])
    y, h = [0.5, 0.3, 0.1, 0.2][:size], 0.01

    def generated(f, fprime, g):
        return waves._kernel(field)(f, fprime, g)[:2]

    def stage_loop(f, fprime, g):
        rhs = REFERENCE_FIELDS[field](f, fprime, g)
        return rhs, lambda y, fy, h: reference_rk_step(rhs, y, fy, h)

    for make in (generated, stage_loop):
        calls = []

        def f(u):
            calls.append(u)
            return nan if len(calls) == 13 else u * (1.0 - u)

        rhs, step = make(f, lambda u: 1.0 - 2.0 * u, 0.5)
        y_new, _, s5, s3, _ = step(y, rhs(y), h)
        assert len(calls) == 13 and all(v == v for v in y_new)
        assert error_norm(s5, s3, h, size) == "NaN"


def profile_bits(w):
    return ([getattr(w, name).tobytes() for name in ("z", "q", "qp")],
            hexes([w.slope0, w.speed or 0.0, w.endpoint or 0.0]))


@pytest.mark.parametrize("term", ["logistic", "custom"])
def test_speeds_and_profiles_are_bit_identical_on_the_stage_loop(monkeypatch,
                                                                   term):
    def compute(n):
        res = fb.spreading_speed(0.5, 1.0, n)
        beta_star = fb.critical_advection(1.0, n)
        speeds = [fb.spreading_speed(beta, mu, n)
                  for beta, mu in ((-1.5, 0.5), (1.5, 2.0))]
        inputs = {"ctilde": res.c_tilde, "beta_star": beta_star}
        return (hexes([res.c_tilde, res.residual, beta_star]
                      + [v for r in speeds for v in (r.c_tilde, r.residual)]),
                [profile_bits(res.profile)]
                + [profile_bits(make(n, inputs)) for make in PROFILES.values()])

    new, old = on_both_kernels(monkeypatch, compute, TERMS[term],
                               use_reference_step)
    assert new == old


def test_failed_shots_raise_like_the_stage_loop(monkeypatch):
    for compute in FAILING_SHOTS:
        new, old = on_both_kernels(monkeypatch, lambda nl: raised(compute, nl),
                                   reference=use_reference_step)
        assert new == old


def test_shots_call_no_builtin_sum(monkeypatch):
    # 3.12's sum() of floats is compensated, 3.11's is not: a shot that
    # called it would give other bits on other interpreters
    def no_sum(*args, **kwargs):
        raise AssertionError("builtin sum called on the shot path")

    monkeypatch.setattr(waves, "sum", no_sum, raising=False)
    n = fb.logistic()
    res = fb.spreading_speed(0.5, 1.0, n)
    inputs = {"ctilde": res.c_tilde, "beta_star": fb.critical_advection(1.0, n)}
    profiles = [res.profile] + [make(n, inputs) for make in PROFILES.values()]
    assert len({w.kind for w in profiles}) == 6


# ----------------------------------------------------------- lazy profile

def test_spreading_speed_samples_its_profile_on_first_read(n, monkeypatch):
    wholes, budgets = [], []
    arrays, shoot = profiles._Sampler.arrays, waves.shoot_semi_wave

    def counted_arrays(self):
        wholes.append(self)
        return arrays(self)

    def recorded_shoot(*args, **kwargs):
        budgets.append(kwargs["z_budget"])
        return shoot(*args, **kwargs)

    monkeypatch.setattr(profiles._Sampler, "arrays", counted_arrays)
    monkeypatch.setattr(waves, "shoot_semi_wave", recorded_shoot)
    res = fb.spreading_speed(0.5, 2.0, n)
    profile = res.profile
    assert res.profile is profile
    fb.profile_interpolator(profile)(np.linspace(-1.0, 30.0, 101))
    assert len(wholes) == 0
    z = profile.z
    assert len(wholes) == 1
    assert profile.z is z and len(profile.q) == len(z) and len(wholes) == 1

    eager = shoot(res.c_tilde, 0.5, n, z_budget=budgets[-1])
    for name in ("z", "q", "qp"):
        assert np.array_equal(getattr(profile, name), getattr(eager, name))
    assert profile.slope0 == eager.slope0
    assert res.residual == abs(2.0 * profile.slope0 - res.c_tilde)
