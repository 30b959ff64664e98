import re
from dataclasses import replace

import numpy as np
import pytest

import freebound as fb
from scipy.linalg.lapack import dgtsv

from freebound import stefan
from freebound.config import spec_from_config
from freebound.stefan import (CFL_SAFETY, FrontState, _stacked_bands, initial_state,
                               simulate_many, step)

from oracles import logistic_eta, reference_simulate, reference_step


@pytest.fixture(scope="module")
def n():
    return fb.logistic()


# -------------------------------------------------------- initial data class

def test_default_profile_satisfies_class_conditions(n):
    for a, b in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 2.0)]:
        h0 = 3.0
        psi = fb.default_initial_profile(h0, a, b)
        x = np.linspace(0.0, h0, 1001)
        v = psi(x)
        assert v[0] >= 0.0 and abs(v[-1]) < 1e-15
        assert np.all(v[1:-1] > 0.0)
        dpsi = (psi(1e-6) - psi(0.0)) / 1e-6
        assert a * psi(0.0) - b * dpsi == pytest.approx(0.0, abs=1e-5)
        assert (psi(h0) - psi(h0 - 1e-6)) / 1e-6 < 0.0  # negative slope at h0
        assert np.max(v) == pytest.approx(1.0, abs=1e-5)  # peak-normalized


def test_rejects_inadmissible_initial_data(n):
    with pytest.raises(ValueError, match="identically zero"):
        fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0,
                       nonlinearity=n, u0=lambda x: 0.0 * np.asarray(x), tmax=1.0)
    with pytest.raises(ValueError, match="vanish"):
        # misses the zero at h0
        fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0,
                       nonlinearity=n,
                       u0=lambda x: np.sin(np.pi * x / 2.0) + 0.05, tmax=1.0)
    with pytest.raises(ValueError, match="B\\[u0\\]"):
        # cos(pi x/(2 h0)) has psi(0) = 1: violates the Dirichlet relation
        fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0,
                       nonlinearity=n, u0=lambda x: np.cos(np.pi * x / 4.0), tmax=1.0)
    with pytest.raises(ValueError, match="positive in"):
        # sign change inside (0, h0)
        fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0,
                       nonlinearity=n,
                       u0=lambda x: np.asarray(x) * (2.0 - x) * (1.5 - x), tmax=1.0)


def test_spec_validation(n):
    with pytest.raises(ValueError):
        fb.ProblemSpec(beta=0.0, mu=-1.0, a=1.0, b=0.0, h0=2.0, nonlinearity=n, tmax=1.0)
    with pytest.raises(ValueError):
        fb.ProblemSpec(beta=0.0, mu=1.0, a=0.0, b=0.0, h0=2.0, nonlinearity=n, tmax=1.0)
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0, nonlinearity=n, tmax=1.0)
    assert spec.dt == pytest.approx(2e-4 * 4.0)


@pytest.mark.parametrize("dt, tmax", [
    (1e-300, 1e300),                         # tmax / dt overflows to inf
    (1e-10, 1e10),                           # 1e20 steps: past numpy's index range
    (1.0, float(stefan.MAX_STEPS + 1)),      # just past the bound
])
def test_spec_refuses_step_counts_no_array_holds(n, dt, tmax):
    # refused in ProblemSpec, before simulate allocates its records
    with pytest.raises(ValueError, match=r"^tmax / dt = .* more than an array can hold"):
        fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0, nonlinearity=n,
                       dt=dt, tmax=tmax)


def test_spec_refuses_a_run_with_no_step(n):
    # tmax / dt underflows to 0: the run would take no step
    with pytest.raises(ValueError, match=r"^tmax / dt = 1e-300 / 1e\+300 underflows "
                                         r"to 0 steps: lower dt or raise tmax$"):
        fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0, nonlinearity=n,
                       dt=1e300, tmax=1e-300)


def test_spec_refuses_a_grid_that_fits_no_memory(n):
    # 1e15 points, past the address space: the allocation fails at once
    with pytest.raises(ValueError, match=r"^nx = 1000000000000000 gives a grid .* lower nx$"):
        fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0, nonlinearity=n,
                       nx=10**15, tmax=1.0)


@pytest.mark.parametrize("dt, tmax", [
    (1e-10, 1e5),   # 1e15 steps: records past the address space
    (1.0, 1e18),    # within MAX_STEPS; two members' records are past numpy's index range
])
def test_runs_whose_records_fit_no_memory_are_refused(n, dt, tmax):
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0, nonlinearity=n,
                          nx=50, dt=dt, tmax=tmax)
    why = (f"tmax / dt = {tmax!r} / {dt!r} gives {int(np.ceil(tmax / dt))} steps, "
           f"whose records do not fit in memory: raise dt or lower tmax")
    for run in (lambda: fb.simulate(spec),
                lambda: simulate_many([spec, replace(spec, beta=1.0)])):
        with pytest.raises(fb.errors.ConfigError) as refused:
            run()
        assert str(refused.value) == why


@pytest.mark.parametrize("times", [(1.0, float("nan")), (float("inf"),), (2.0, -3.0)])
def test_simulate_refuses_bad_snapshot_times(n, times):
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0, nonlinearity=n,
                          nx=50, tmax=0.1)
    with pytest.raises(ValueError, match="snapshot times must be finite and >= 0"):
        fb.simulate(spec, snapshot_times=times)


# ------------------------------------------------------------------ stepping

def test_small_data_growth_matches_linearization(n):
    # amplitude-small data on a long domain: one step multiplies interior
    # values by e^{f'(0) dt} up to O(dt^2)
    h0, dt = 200.0, 1e-3
    psi = fb.default_initial_profile(h0, 1.0, 0.0)
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=h0, nonlinearity=n,
                          u0=lambda x: 1e-8 * psi(x), nx=800, dt=dt, tmax=1.0)
    s0 = initial_state(spec)
    s1 = step(s0, spec)
    mid = spec.nx // 2
    ratio = s1.w[mid] / s0.w[mid]
    assert abs(ratio - np.exp(spec.nonlinearity.fp0 * dt)) < 2.0 * dt * dt


def test_one_step_against_grid_refinement_oracle(n):
    # the fine-grid oracle: nx=3200 with dt/16 over the same interval
    psi = fb.default_initial_profile(4.0, 1.0, 0.0)
    coarse = fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=0.0, h0=4.0, nonlinearity=n,
                            u0=lambda x: 0.5 * psi(x), nx=800, dt=1e-5, tmax=1.0)
    fine = replace(coarse, nx=3200, dt=coarse.dt / 16.0)
    sc = step(initial_state(coarse), coarse)
    sf = initial_state(fine)
    for _ in range(16):
        sf = step(sf, fine)
    assert sc.t == pytest.approx(sf.t, abs=1e-14)
    assert np.max(np.abs(sc.w - sf.w[::4])) < 1e-6


def test_front_speed_positive_and_recorded(n):
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0,
                          nonlinearity=n, nx=200, tmax=2.0)
    s = initial_state(spec)
    for _ in range(10):
        s = step(s, spec)
        assert s.hprime > 0.0
        assert s.w[-1] == 0.0
        assert np.all(s.w >= 0.0)


def _bits(value):
    return np.float64(value).tobytes()


def _assert_same_state(s, ref):
    assert _bits(s.t) == _bits(ref.t)
    assert _bits(s.h) == _bits(ref.h)
    assert _bits(s.hprime) == _bits(ref.hprime)
    assert s.w.tobytes() == ref.w.tobytes()


@pytest.mark.parametrize("nx", [200, 300, 800])
@pytest.mark.parametrize("beta", [0.5, 4.5])
@pytest.mark.parametrize("kind", ["logistic", "cubic"])
@pytest.mark.parametrize("a, b", [(1.0, 0.0), (1.0, 1.0)])
def test_step_is_bit_identical_to_reference_step(nx, beta, kind, a, b):
    n = fb.logistic() if kind == "logistic" else fb.cubic_monostable(0.5)
    spec = fb.ProblemSpec(beta=beta, mu=1.0, a=a, b=b, h0=2.0, nonlinearity=n,
                          nx=nx, dt=2e-3, tmax=1.0)
    if beta == 4.5:  # the CFL limit forces several substeps per step
        assert CFL_SAFETY * spec.h0 / (nx * beta) < spec.dt / 2.0
    s = ref = initial_state(spec)
    for _ in range(300):
        s, ref = step(s, spec), reference_step(ref, spec)
        _assert_same_state(s, ref)


def _assert_same_trajectory(run, ref, snapshots=1):
    for name in ("times", "h", "hprime", "supu", "eta"):
        assert getattr(run, name).tobytes() == getattr(ref, name).tobytes(), name
    assert len(run.snapshots) == len(ref.snapshots) == snapshots
    for (t1, x1, u1), (t2, x2, u2) in zip(run.snapshots, ref.snapshots):
        assert _bits(t1) == _bits(t2)
        assert x1.tobytes() == x2.tobytes() and u1.tobytes() == u2.tobytes()
    assert run.spec is ref.spec


@pytest.mark.parametrize("beta, a, b, kind, nx", [
    (0.5, 1.0, 0.0, "logistic", 200),
    (4.5, 1.0, 1.0, "cubic", 300),
    (0.5, 0.0, 1.0, "logistic", 800),
])
def test_simulate_is_bit_identical_on_reference_step(beta, a, b, kind, nx):
    n = fb.logistic() if kind == "logistic" else fb.cubic_monostable(0.5)
    spec = fb.ProblemSpec(beta=beta, mu=1.0, a=a, b=b, h0=2.0, nonlinearity=n,
                          nx=nx, dt=2e-3, tmax=2.0)
    fast = fb.simulate(spec, snapshot_times=(1.0,))
    _assert_same_trajectory(fast, reference_simulate(spec, snapshot_times=(1.0,)),
                            snapshots=2)
    # a stop hook on the state ends both runs at the same step, past 1.0
    h_stop = fast.h[3 * len(fast.h) // 4]

    def stop(state):
        return state.h >= h_stop

    stopped = fb.simulate(spec, snapshot_times=(1.0,), stop=stop)
    assert 1.0 < stopped.times[-1] < spec.tmax
    _assert_same_trajectory(
        stopped, reference_simulate(spec, snapshot_times=(1.0,), stop=stop),
        snapshots=2)


def test_states_own_their_profiles(n):
    # the stepper reuses its buffers; no state it hands out may share them
    spec = fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=1.0, h0=2.0,
                          nonlinearity=n, nx=100, tmax=1.0)
    s = initial_state(spec)
    for _ in range(3):
        before = s.w.copy()
        new = step(s, spec)
        assert s.w.tobytes() == before.tobytes()
        assert not np.shares_memory(new.w, s.w)
        s = new

    kept = []

    def stop(state):
        kept.append(state.w)
        return False

    traj = fb.simulate(spec, stop=stop)
    assert len(kept) == len(traj.times) - 1
    for gap in (1, 2):  # the stepper alternates between two buffers
        for u, v in zip(kept, kept[gap:]):
            assert not np.shares_memory(u, v)
    assert np.array([w.max() for w in kept]).tobytes() == traj.supu[1:].tobytes()
    assert kept[-1].tobytes() == traj.snapshots[-1][2].tobytes()


def test_density_below_clamp_floor_raises(n):
    # built directly, bypassing validate(): explicit reaction drives w < 0
    sink = fb.Nonlinearity(f=lambda u: -2000.0 * u, fprime=n.fprime, fp0=1.0)
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0,
                          nonlinearity=sink, nx=100, dt=1e-3, tmax=1.0)
    with pytest.raises(fb.errors.NumericalError,
                       match=r"density -\d\.\d{3}e[+-]\d+ below clamp floor") as new:
        step(initial_state(spec), spec)
    with pytest.raises(fb.errors.NumericalError) as ref:
        reference_step(initial_state(spec), spec)
    assert str(new.value) == str(ref.value)  # the same minimum is reported


def _peclet_specs(n, betas, dt=1e-3):
    # beta = 4 on 20 cells of a front near h = 20: the centred advection
    # difference undershoots once |beta| h / nx passes 2, whatever the dt
    return [fb.ProblemSpec(beta=beta, mu=1.0, a=1.0, b=0.0, h0=20.0,
                           nonlinearity=n, nx=20, dt=dt, tmax=2.0)
            for beta in betas]


def test_clamp_floor_past_a_cell_peclet_number_of_2_names_nx(n):
    for dt in (1e-3, 1e-4):
        spec, = _peclet_specs(n, (4.0,), dt)
        with pytest.raises(fb.errors.NumericalError) as info:
            fb.simulate(spec)
        message = str(info.value)
        assert "below clamp floor at t = 0.69" in message
        assert (": cell Peclet number |beta| h / nx = 4.09 > 2 at nx = 20: "
                "raise nx (while stepping to t = ") in message
    # in an ensemble the cell fails on its own kernel with the lone kernel's
    # advice, and the other cell steps on
    specs = _peclet_specs(n, (0.5, 4.0))
    assert _assert_outcomes_are_simulate(simulate_many(specs), specs) == [1]
    # at nx = 60 the number stays below 2 and the run goes on
    fb.simulate(fb.ProblemSpec(beta=4.0, mu=1.0, a=1.0, b=0.0, h0=20.0,
                               nonlinearity=n, nx=60, dt=1e-3, tmax=2.0))


def test_entries_below_zero_are_clamped_as_reference_step_clamps_them(n):
    # above the clamp floor, so the step clamps them to zero and goes on
    spec = fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=0.0, h0=2.0,
                          nonlinearity=n, nx=100, dt=1e-6, tmax=1.0)
    w = spec.w0.copy()
    w[1:40] = -1e-12
    state = replace(initial_state(spec), w=w)
    new = step(state, spec)
    assert np.count_nonzero(new.w[1:40] == 0.0) > 0
    _assert_same_state(new, reference_step(state, spec))


def test_non_positive_front_speed_raises(n):
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0,
                          nonlinearity=n, nx=100, tmax=1.0)
    w = spec.w0.copy()
    w[-2] = 0.0  # flux (-4 w[n-1] + w[n-2]) / (2 dxi h) > 0, so h' < 0
    state = FrontState(t=0.0, h=spec.h0, w=w, hprime=1.0)
    with pytest.raises(fb.errors.InvariantViolation,
                       match=r"front speed h' = -\d\.\d{3}e[+-]\d+ <= 0 at t = 0") as new:
        step(state, spec)
    with pytest.raises(fb.errors.InvariantViolation) as ref:
        reference_step(state, spec)
    assert str(new.value) == str(ref.value)


# ------------------------------------------------------------ ensembles

ENSEMBLES = {  # (a, b, reaction term, nx, betas); two lambdas each
    "dirichlet-logistic": (1.0, 0.0, fb.logistic(), 200, (-3.5, -1.5, 0.5, 2.5, 4.5)),
    "robin-cubic": (1.0, 1.0, fb.cubic_monostable(0.5), 300, (-4.5, 0.5, 3.5)),
    "neumann-custom": (0.0, 1.0, fb.from_coefficients([0.0, 1.0, 0.0, -1.0]), 200,
                       (-4.5, 1.0, 3.5)),
}


def _ensemble_specs(a, b, reaction, nx, betas, lambdas=(0.5, 2.0), tmax=1.0):
    psi = fb.default_initial_profile(2.0, a, b)
    return [fb.ProblemSpec(beta=beta, mu=0.5 + 0.25 * abs(beta), a=a, b=b, h0=2.0,
                           nonlinearity=reaction,
                           u0=lambda x, lam=lam: lam * psi(x),
                           nx=nx, dt=2e-3, tmax=tmax)
            for beta in betas for lam in lambdas]


@pytest.mark.parametrize("name", ENSEMBLES)
@pytest.mark.parametrize("nx", [200, 300])
def test_simulate_many_is_bit_identical_to_simulate(name, nx):
    a, b, reaction, _, betas = ENSEMBLES[name]
    specs = _ensemble_specs(a, b, reaction, nx, betas)
    # the CFL limit forces extra substeps on some members, not on others
    forced = [abs(s.beta) >= CFL_SAFETY * s.h0 / (nx * s.dt) for s in specs]
    assert any(forced) and not all(forced)
    for run, spec in zip(simulate_many(specs), specs):
        _assert_same_trajectory(run, fb.simulate(spec))


def test_one_member_ensemble_is_bit_identical_to_simulate():
    a, b, reaction, nx, _ = ENSEMBLES["robin-cubic"]
    spec, = _ensemble_specs(a, b, reaction, nx, (4.5,), lambdas=(0.5,))
    run, = simulate_many([spec])
    _assert_same_trajectory(run, fb.simulate(spec))
    assert simulate_many([]) == []


@pytest.mark.parametrize("fold", [False, True])
def test_stacked_gtsv_equals_separate_calls(fold):
    # the kernel's system for each member, with the Robin fold in the first
    # row, solved three times on one set of bands that gtsv overwrites
    rng = np.random.default_rng(7)
    n, K = 40, 5
    fill, dl, d, du = _stacked_bands(K, n)
    # the joint entries: off-diagonals that touch a boundary entry, and the
    # boundary entries' diagonal; flat index q of a band is (k, j) = divmod(q, n + 1)
    off_joint = np.isin(np.arange(2, K * (n + 1) - 1) % (n + 1), (0, 1, n))
    diag_joint = np.isin(np.arange(1, K * (n + 1) - 1) % (n + 1), (0, n))
    for _ in range(3):
        r = rng.uniform(0.5, 30.0, K)   # r > 3 pivots in the folded first row
        a1, a2 = (rng.uniform(1.0, 1.4, K), -rng.uniform(0.2, 0.4, K)) if fold else (None, None)
        w = rng.uniform(0.0, 2.0, (K, n + 1))
        separate = []
        for k in range(K):
            sub = np.full(n - 2, -r[k])
            sup = np.full(n - 2, -r[k])
            diag = np.full(n - 1, 1.0 + 2.0 * r[k])
            if fold:
                diag[0] -= r[k] * a1[k]
                sup[0] -= r[k] * a2[k]
            *_, x, info = dgtsv(sub, diag, sup, w[k, 1:-1].copy())
            assert info == 0
            separate.append(x)
        fill(r, (a1, a2) if fold else None)
        stack = w.reshape(-1)[1:-1]
        info = dgtsv(dl, d, du, stack, 1, 1, 1, 1)[-1]  # in place, as simulate_many calls it
        assert info == 0
        for k in range(K):
            assert w[k, 1:-1].tobytes() == separate[k].tobytes()
        if fold:  # an interchange leaves a nonzero in dl, where no-interchange writes 0
            assert dl[~off_joint].any()
        # neither gtsv branch wrote a joint entry, so the next fill needs none
        for band, joint, value in ((dl, off_joint, 0.0), (du, off_joint, 0.0),
                                   (d, diag_joint, 1.0)):
            assert np.all(band[joint] == value) and not np.signbit(band[joint]).any()


def test_simulate_many_refuses_specs_it_cannot_stack(n):
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0,
                          nonlinearity=n, nx=100, tmax=1.0)
    for other in (replace(spec, nx=120), replace(spec, dt=1e-3),
                  replace(spec, b=1.0), replace(spec, nonlinearity=fb.logistic())):
        with pytest.raises(ValueError, match="ensemble members differ"):
            simulate_many([spec, other])


def _assert_outcomes_are_simulate(outcomes, specs):
    """Each outcome is simulate(spec)'s trajectory, bit for bit, or the
    error simulate(spec) raises, of the same type and text; returns the
    members whose outcome is an error."""
    failed = []
    for k, (outcome, spec) in enumerate(zip(outcomes, specs, strict=True)):
        try:
            alone = fb.simulate(spec)
        except fb.errors.FreeboundError as exc:
            assert type(outcome) is type(exc)
            assert str(outcome) == str(exc)
            failed.append(k)
        else:
            _assert_same_trajectory(outcome, alone)
    return failed


def test_simulate_many_names_the_member_that_failed(n):
    # amplitude 1000 breaks the run within its first nominal step
    specs = _ensemble_specs(1.0, 0.0, n, 100, (0.0,), lambdas=(0.5, 1000.0))
    with pytest.raises(fb.errors.NumericalError) as alone:
        fb.simulate(specs[1])
    # the member leaves with simulate's error and the other steps on; a
    # one-member ensemble's outcome is simulate's error
    for members in (specs, [specs[1]]):
        outcomes = simulate_many(members)
        assert _assert_outcomes_are_simulate(outcomes, members) == [len(members) - 1]
        assert type(outcomes[-1]) is type(alone.value)
        assert str(outcomes[-1]) == str(alone.value)


@pytest.mark.parametrize("amplitudes, first", [
    ((0.5, 10.0), 1),
    # two members fail in the same nominal step: each leaves with its own
    # error
    ((0.5, 10.0, 20.0), 1),
    ((20.0, 0.5, 10.0), 0),
    # two survivors step on as an ensemble beside the departed level
    ((0.5, 10.0, 2.0), 1),
])
def test_a_non_finite_solve_names_the_first_member_that_failed(n, amplitudes, first):
    # f is infinite above u = 5, so a member whose profile passes 5 gets a
    # non-finite solve in its first substep; stacked, its NaNs would cross
    # the joints into its neighbours' rows.  Its eta is infinite from the
    # first step on, so the survivors' runs take as long as they take alone
    # only if the departed eta levels are not stepped
    blowup = fb.Nonlinearity(f=lambda u: np.where(u > 5.0, np.inf, u * (1.0 - u)),
                             fprime=n.fprime, fp0=1.0)
    psi = fb.default_initial_profile(2.0, 1.0, 0.0)
    specs = [fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0, nonlinearity=blowup,
                            u0=lambda x, lam=lam: lam * psi(x), nx=100, dt=1e-3, tmax=1.0)
             for lam in amplitudes]
    with pytest.raises(fb.errors.NumericalError, match="non-finite density at t = 0 "):
        fb.simulate(specs[first])
    outcomes = simulate_many(specs)
    failed = _assert_outcomes_are_simulate(outcomes, specs)
    assert failed == [k for k, lam in enumerate(amplitudes) if lam > 5.0]
    assert failed[0] == first
    assert all("non-finite density at t = 0 " in str(outcomes[k]) for k in failed)


@pytest.mark.parametrize("beta, amplitude, error, what", [
    (-3.5, 1000.0, fb.errors.NumericalError, "below clamp floor"),
    (4.5, 3000.0, fb.errors.InvariantViolation, "front speed"),
])
def test_a_failure_while_catching_up_names_the_member(n, beta, amplitude, error, what):
    # at this amplitude h' is so large that the CFL limit cuts the first
    # substep to a few 1e-6, and the member fails in its second substep,
    # the one it takes alone on its kernel
    specs = _ensemble_specs(1.0, 0.0, n, 100, (beta,), lambdas=(1.0, amplitude))
    with pytest.raises(error) as alone:
        fb.simulate(specs[1])
    assert what in str(alone.value)
    t_fail = float(re.search(r"at t = ([-+.e0-9]+)", str(alone.value)).group(1))
    assert 0.0 < t_fail < specs[1].dt
    outcomes = simulate_many(specs)
    assert _assert_outcomes_are_simulate(outcomes, specs) == [1]
    assert type(outcomes[1]) is error


def _engines(monkeypatch):
    """The engines each run builds, in order, as (kind, member count, the
    times at which its members start); the kernels a _lockstep builds are
    part of it, not engines of their own."""
    built = []
    lockstep, kernel = stefan._lockstep, stefan._kernel
    inside = []

    def counted_lockstep(specs, states, fail):
        built.append(("lockstep", len(specs), [st.t for st in states]))
        inside.append(True)
        try:
            return lockstep(specs, states, fail)
        finally:
            inside.pop()

    def counted_kernel(spec, state):
        if not inside:
            built.append(("kernel", 1, [state.t]))
        return kernel(spec, state)

    monkeypatch.setattr(stefan, "_lockstep", counted_lockstep)
    monkeypatch.setattr(stefan, "_kernel", counted_kernel)
    return built


def _left_at(outcomes, specs):
    """The times at which the members still stepping stood when the first
    member left: their recorded times at the nominal step its error names
    last (the target its kernel was stepping to, or the time at which its
    ceiling check failed)."""
    error = next(o for o in outcomes if isinstance(o, Exception))
    i = round(float(re.findall(r"t = ([-+.e0-9]+)", str(error))[-1]) / specs[0].dt)
    return [o.times[i] for o in outcomes if not isinstance(o, Exception)]


def _ceiling_specs(n):
    # a source of 100 on (0.9, 1): the member of amplitude 0.95 overshoots
    # its comparison ODE at t = 1.674, while the others never reach 0.9
    bump = fb.Nonlinearity(f=lambda u: np.where((u > 0.9) & (u < 1.0), 100.0, u * (1.0 - u)),
                           fprime=n.fprime, fp0=1.0)
    psi = fb.default_initial_profile(2.0, 1.0, 0.0)
    return [fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0, nonlinearity=bump,
                           u0=lambda x, lam=lam: lam * psi(x), nx=100, dt=2e-3, tmax=3.0)
            for lam in (0.3, 0.95, 0.5, 0.7)]


@pytest.mark.parametrize("failure, error", [
    # the member's kernel fails: it leaves unrecorded in that step
    ("peclet", "below clamp floor at t = 0.691: "),
    # its recorder's ceiling check fails, with no stepping context
    ("ceiling", "sup u = 1.1054507 exceeds eta = 1.1005265 at t = 1.674"),
])
def test_members_that_step_on_after_a_failure_form_a_new_ensemble(n, monkeypatch,
                                                                   failure, error):
    # member 1 fails mid-run: the other three step on from their states at
    # that nominal step as an ensemble of three
    specs = (_peclet_specs(n, (0.5, 4.0, 1.0, 2.0)) if failure == "peclet"
             else _ceiling_specs(n))
    built = _engines(monkeypatch)
    outcomes = simulate_many(specs)
    monkeypatch.undo()
    assert _assert_outcomes_are_simulate(outcomes, specs) == [1]
    assert error in str(outcomes[1])
    assert built == [("lockstep", 4, [0.0] * 4),
                     ("lockstep", 3, _left_at(outcomes, specs))]


def test_a_lone_survivor_steps_on_its_kernel(n, monkeypatch):
    # the Peclet failure in an ensemble of two, and two members that fail in
    # the same first nominal step beside one that does not: the survivor
    # steps on alone on its own kernel from where it stood
    blowup = fb.Nonlinearity(f=lambda u: np.where(u > 5.0, np.inf, u * (1.0 - u)),
                             fprime=n.fprime, fp0=1.0)
    psi = fb.default_initial_profile(2.0, 1.0, 0.0)
    cases = [
        (_peclet_specs(n, (0.5, 4.0)), [1]),
        ([fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0, nonlinearity=blowup,
                         u0=lambda x, lam=lam: lam * psi(x), nx=100, dt=1e-3, tmax=0.5)
          for lam in (20.0, 0.5, 10.0)], [0, 2]),
    ]
    for specs, failing in cases:
        built = _engines(monkeypatch)
        outcomes = simulate_many(specs)
        assert built == [("lockstep", len(specs), [0.0] * len(specs)),
                         ("kernel", 1, _left_at(outcomes, specs))]
        assert built[1][2][0] > 0.0
        monkeypatch.undo()
        assert _assert_outcomes_are_simulate(outcomes, specs) == failing


def test_sweep_cells_step_as_they_step_alone():
    # the 16 seed-0 cells of the sweep-16 benchmark, cut to tmax = 2: the
    # CFL limit leaves some members behind after every joint substep, some
    # after a few, and some never
    n = fb.logistic()
    specs = [replace(spec_from_config({"beta": float(beta), "mu": 1.0, "h0": 2.0,
                                       "nx": 200, "dt": 2e-3, "tmax": 2.0,
                                       "lambda": lam}), nonlinearity=n)
             for beta in np.linspace(-2.5, 4.5, 8) for lam in (0.5, 2.0)]
    behind = [0] * len(specs)
    kernel = stefan._kernel

    def counted(spec, state):  # count the nominal steps each member finishes alone
        advance, seat = kernel(spec, state)
        k = [s is spec for s in specs].index(True)

        def finish(target):
            behind[k] += 1
            return advance(target)

        return finish, seat

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stefan, "_kernel", counted)
        runs = simulate_many(specs)
    steps = len(runs[0].times) - 1
    assert steps in behind and 0 in behind
    assert any(0 < c < steps for c in behind)
    for run, spec in zip(runs, specs):
        _assert_same_trajectory(run, fb.simulate(spec))


@pytest.mark.parametrize("tmax", [1e-5, 2e-4])
def test_ensemble_clamps_entries_below_zero_as_each_member_alone(n, tmax):
    # a sink on densities below 1e-11 turns a band of 1e-15 values negative,
    # above the clamp floor: with dt*|sink| = 2 the explicit step gives -w,
    # and at r = 0.025 the implicit diffusion carries too little in from the
    # band's edges, so a joint substep clamps them to zero and goes on
    sink = fb.Nonlinearity(f=lambda u: np.where(u < 1e-11, -2e5 * u, u * (1.0 - u)),
                           fprime=n.fprime, fp0=1.0)
    psi = fb.default_initial_profile(2.0, 1.0, 0.0)
    specs = [fb.ProblemSpec(beta=beta, mu=1.0, a=1.0, b=0.0, h0=2.0, nonlinearity=sink,
                            u0=lambda x, lam=lam: lam * psi(x) * np.where(
                                (x > 0.6) & (x < 1.4), 1e-14, 1.0),
                            nx=100, dt=1e-5, tmax=tmax)
             for beta in (0.0, 0.5) for lam in (0.5, 1.0)]
    runs = simulate_many(specs)
    if tmax == 1e-5:  # one nominal step: every member has clamped entries
        assert all(np.count_nonzero(run.snapshots[-1][2][1:-1] == 0.0) for run in runs)
    for run, spec in zip(runs, specs):
        _assert_same_trajectory(run, fb.simulate(spec))


# ------------------------------------------------------------------ simulate

def test_trajectory_series_shapes_and_invariants(n):
    spec = fb.ProblemSpec(beta=0.3, mu=1.0, a=1.0, b=0.0, h0=2.5,
                          nonlinearity=n, nx=200, tmax=5.0)
    traj = fb.simulate(spec, snapshot_times=(2.0,))
    m = len(traj.times)
    assert all(len(arr) == m for arr in (traj.h, traj.hprime, traj.supu, traj.eta))
    assert np.all(np.diff(traj.h) >= 0.0)
    assert np.all(traj.hprime > 0.0)
    assert np.all(traj.supu <= traj.eta + 1e-6)
    # snapshots: requested time plus the final state
    assert len(traj.snapshots) == 2
    assert traj.snapshots[0][0] == pytest.approx(2.0, abs=2 * spec.dt)
    assert traj.snapshots[-1][0] == pytest.approx(traj.times[-1])


def test_spreading_for_large_front(n):
    # h0 beyond the critical length: the front must keep expanding and the
    # density stays bounded away from zero
    lstar = fb.critical_length(0.5, 1.0, 0.0, 1.0)
    spec = fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=0.0, h0=lstar + 0.5,
                          nonlinearity=n, nx=300, tmax=20.0)
    traj = fb.simulate(spec)
    assert traj.h[-1] > spec.h0 + 1.0
    assert traj.supu[-1] > 0.5


def test_strong_negative_advection_vanishes(n):
    spec = fb.ProblemSpec(beta=-2.5, mu=1.0, a=1.0, b=0.0, h0=2.0,
                          nonlinearity=n, nx=400, tmax=40.0)
    traj = fb.simulate(spec)
    assert traj.supu[-1] < 1e-3
    # the front plateaus
    tail = traj.times >= 30.0
    assert traj.h[-1] - traj.h[tail][0] < 1e-6
    assert np.all(traj.hprime > 0.0)


def test_tiny_mu_front_stays_below_critical_length(n):
    lstar = fb.critical_length(0.0, 1.0, 0.0, 1.0)
    spec = fb.ProblemSpec(beta=0.0, mu=1e-3, a=1.0, b=0.0, h0=0.8 * lstar,
                          nonlinearity=n, nx=300, tmax=30.0)
    traj = fb.simulate(spec)
    assert traj.h[-1] <= lstar + 0.05


# ------------------------------------------------------------- comparison laws

def test_monotone_in_mu(n):
    base = dict(beta=0.4, a=1.0, b=0.0, h0=2.5, nonlinearity=n, nx=300, tmax=8.0)
    t1 = fb.simulate(fb.ProblemSpec(mu=0.7, **base))
    t2 = fb.simulate(fb.ProblemSpec(mu=1.4, **base))
    assert np.all(t1.h <= t2.h + 1e-6)


def test_monotone_in_initial_amplitude(n):
    psi = fb.default_initial_profile(2.5, 1.0, 0.0)
    base = dict(beta=0.4, mu=1.0, a=1.0, b=0.0, h0=2.5, nonlinearity=n,
                nx=300, tmax=8.0)
    t1 = fb.simulate(fb.ProblemSpec(u0=lambda x: 0.5 * psi(x), **base))
    t2 = fb.simulate(fb.ProblemSpec(u0=lambda x: 1.0 * psi(x), **base))
    assert np.all(t1.h <= t2.h + 1e-6)
    # pointwise order of the final profiles on the common domain
    t_end1, x1, u1 = t1.snapshots[-1]
    t_end2, x2, u2 = t2.snapshots[-1]
    xs = np.linspace(0.0, min(x1[-1], x2[-1]), 500)
    assert np.all(np.interp(xs, x1, u1) <= np.interp(xs, x2, u2) + 1e-6)


def test_ceiling_follows_comparison_ode(n):
    # sup u stays below eta even when started above the carrying capacity
    psi = fb.default_initial_profile(3.0, 1.0, 0.0)
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=3.0,
                          nonlinearity=n, u0=lambda x: 1.8 * psi(x),
                          nx=300, tmax=10.0)
    traj = fb.simulate(spec)
    assert np.all(traj.supu <= traj.eta + 1e-6)
    assert traj.supu[-1] <= 1.0 + 1e-3
    # the ceiling column is the comparison ODE itself
    assert np.max(np.abs(traj.eta - logistic_eta(traj.eta[0], traj.times))) < 1e-9


def test_ceiling_holds_from_a_large_start(n):
    # eta(0) = 1001: one RK4 step of dt = 2e-3 has dt*|f'(eta)| = 4 and lands
    # at eta = -334, below sup u = 323; in substeps it follows the closed form
    psi = fb.default_initial_profile(2.0, 1.0, 0.0)
    spec = fb.ProblemSpec(beta=0.0, mu=0.5, a=1.0, b=0.0, h0=2.0, nonlinearity=n,
                          u0=lambda x: 1000.0 * psi(x), nx=200, dt=2e-3, tmax=0.1)
    traj = fb.simulate(spec)
    assert np.all(traj.supu <= traj.eta + 1e-6)
    exact = logistic_eta(traj.eta[0], traj.times)
    assert np.all(traj.eta >= exact * (1.0 - 1e-12))
    assert np.max(np.abs(traj.eta / exact - 1.0)) < 1e-6


def test_non_finite_density_raises_numerical_error(n):
    # built directly, bypassing validate(): f is NaN above u = 0.5
    bad = fb.Nonlinearity(f=lambda u: np.where(u > 0.5, np.nan, u * (1.0 - u)),
                          fprime=n.fprime, fp0=1.0)
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0,
                          nonlinearity=bad, nx=100, tmax=1.0)
    with pytest.raises(fb.errors.NumericalError, match="non-finite density at t = "):
        fb.simulate(spec)


def test_stop_hook_ends_the_run_on_a_prefix(n):
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=2.0,
                          nonlinearity=n, nx=100, tmax=1.0)
    full = fb.simulate(spec)
    seen = []

    def stop(st):
        seen.append(st.t)
        return st.t >= 0.5

    fast = fb.simulate(spec, stop=stop)
    k = len(fast.times)
    assert fast.times[-2] < 0.5 <= fast.times[-1] and seen == list(fast.times[1:])
    for name in ("times", "h", "hprime", "supu", "eta"):
        assert getattr(fast, name).tobytes() == getattr(full, name)[:k].tobytes()


# -------------------------------------------------------------- convergence

def test_second_order_spatial_convergence_of_front(n):
    psi = fb.default_initial_profile(4.0, 1.0, 0.0)
    hs = {}
    for nx in (100, 200, 400, 800):
        spec = fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=0.0, h0=4.0,
                              nonlinearity=n, u0=lambda x: 0.5 * psi(x),
                              nx=nx, dt=1e-4, tmax=2.0)
        hs[nx] = fb.simulate(spec).h[-1]
    richardson = hs[800] + (hs[800] - hs[400]) / 3.0
    err = {nx: abs(hs[nx] - richardson) for nx in (100, 200, 400)}
    assert err[100] / err[200] >= 3.0
    assert err[200] / err[400] >= 3.0


# ---------------------------------------------------------- comparison ODE

def test_ode_upper_bound_examples(n):
    assert fb.ode_upper_bound(n, 1.5, 0.0) == 1.5
    # logistic closed form: eta(t) = eta0 e^t / (1 + eta0 (e^t - 1))
    assert fb.ode_upper_bound(n, 1.5, 1.0) == pytest.approx(
        logistic_eta(1.5, 1.0), abs=1e-10)
    assert abs(fb.ode_upper_bound(n, 1.5, 30.0) - 1.0) < 1e-6
    # a long horizon ends at the step's fixed point, not after 1e9 steps
    assert abs(fb.ode_upper_bound(n, 1.5, 1e6) - 1.0) < 1e-12


@pytest.mark.parametrize("eta0", [1.5, 10.0, 100.0, 1000.0])
def test_ode_upper_bound_follows_the_closed_form_from_large_starts(n, eta0):
    for t in (1e-4, 1e-3, 2e-3, 1e-2, 0.1, 1.0, 5.0):
        assert fb.ode_upper_bound(n, eta0, t) == pytest.approx(
            logistic_eta(eta0, t), rel=1e-6)


def test_ode_upper_bound_monotone_decreasing(n):
    ts = [0.0, 0.5, 1.0, 2.0, 5.0]
    vals = [fb.ode_upper_bound(n, 2.0, t) for t in ts]
    assert np.all(np.diff(vals) < 0.0)
    assert all(v > 1.0 for v in vals)


def test_ode_upper_bound_preconditions(n):
    with pytest.raises(ValueError):
        fb.ode_upper_bound(n, 0.9, 1.0)
    with pytest.raises(ValueError):
        fb.ode_upper_bound(n, 1.5, -1.0)
    with pytest.raises(ValueError, match="must be finite"):
        fb.ode_upper_bound(n, np.nan, 1.0)
    with pytest.raises(ValueError, match="must be finite"):
        fb.ode_upper_bound(n, 1.5, np.inf)


@pytest.mark.parametrize("eta0", [1e8, 1e100])
def test_ode_upper_bound_refuses_a_start_its_steps_cannot_follow(n, eta0):
    # even 1e4 RK4 substeps of a 1e-3 step are unstable for the logistic
    # term from about eta0 = 2e7 up: the loop would end at -inf
    with pytest.raises(fb.errors.NumericalError,
                       match=re.escape(f"eta0 = {eta0:g}")):
        fb.ode_upper_bound(n, eta0, 1.0)


def test_ode_upper_bound_below_the_refusal_is_unchanged(n):
    assert fb.ode_upper_bound(n, 1e7, 1.0) == 1.5819766124888777
    assert fb.ode_upper_bound(n, 1e7, 1.0) == pytest.approx(
        logistic_eta(1e7, 1.0), rel=1e-6)
