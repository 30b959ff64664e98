"""waves.profile_interpolator against scipy's PchipInterpolator on every
sample (tests/oracles.reference_profile_interpolator), compared by bytes.

The evaluator reads only the knots around each query's segment, so these
tests query every kind of point: knots and their float neighbours,
midpoints, both ends, points beyond them, and one value at a time as well
as many at once.  On a shooting function's profile it reads those knots
from the profile's sampler, whose samples are never computed whole; the
values are the bytes of the evaluator on the whole arrays, and a sampler
is refused with the messages its arrays would be refused with.
"""

import numpy as np
import pytest

import freebound as fb
from freebound import asymptotics, profiles
from oracles import record_samplers, reference_profile_interpolator
from test_shooting_kernel import PROFILES


def profile(z, q):
    z, q = np.asarray(z, dtype=float), np.asarray(q, dtype=float)
    return fb.WaveProfile(kind="semi", z=z, q=q, qp=np.zeros_like(q),
                          speed=0.0, slope0=0.0)


def assert_same(prof, z):
    new = fb.profile_interpolator(prof)(z)
    old = reference_profile_interpolator(prof)(z)
    assert type(new) is type(old)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def queries(z, rng, count):
    """Knots, their float neighbours, midpoints, uniform points over and
    beyond the range, the first and last few knots, and the ends."""
    k = rng.integers(0, len(z), count)
    mid = 0.5 * (z[:-1] + z[1:])
    span = z[-1] - z[0]
    return np.concatenate([
        z[k], np.nextafter(z[k], np.inf), np.nextafter(z[k], -np.inf),
        mid[rng.integers(0, len(mid), count)],
        rng.uniform(z[0] - 0.1 * span, z[-1] + 0.1 * span, count),
        z[:8], z[-8:], mid[:8], mid[-8:],
        [z[0], z[-1], z[0] - 1.0, z[-1] + 1.0, -np.inf, np.inf]])


@pytest.fixture(scope="module")
def inputs(logistic_n, beta_star_1):
    return {"ctilde": fb.spreading_speed(0.5, 1.0, logistic_n).c_tilde,
            "beta_star": beta_star_1}


@pytest.mark.parametrize("name", PROFILES)
def test_profiles_match_pchip_bytes(logistic_n, inputs, name):
    prof = PROFILES[name](logistic_n, inputs)
    rng = np.random.default_rng(len(prof.z))
    z = queries(prof.z, rng, 5000)
    assert_same(prof, z)
    assert_same(prof, z[::-1])
    for one in z[::1499]:
        assert_same(prof, one)
        assert_same(prof, [one])


def whole(prof):
    """prof as a profile made from its arrays."""
    return fb.WaveProfile(kind=prof.kind, z=prof.z, q=prof.q, qp=prof.qp,
                          speed=prof.speed, slope0=prof.slope0,
                          endpoint=prof.endpoint, dslope0=prof.dslope0)


@pytest.mark.parametrize("name", PROFILES)
def test_unsampled_profiles_match_their_arrays_and_pchip_bytes(logistic_n, inputs,
                                                               name):
    prof = PROFILES[name](logistic_n, inputs)
    new = fb.profile_interpolator(prof)
    assert prof._arrays is None
    z = prof.z
    arrays = fb.profile_interpolator(whole(prof))
    old = reference_profile_interpolator(prof)
    mid = 0.5 * (z[:-1] + z[1:])
    span = z[-1] - z[0]
    every = np.concatenate([
        z, np.nextafter(z, np.inf), np.nextafter(z, -np.inf), mid,
        [z[0] - 1.0, z[-1] + 1.0, z[0] - 0.1 * span, z[-1] + 1e9, -1e9, 1e-300,
         -1e-300, 0.0, -0.0, np.inf, -np.inf, np.nan]])
    for lo in range(0, len(every), 200003):
        chunk = every[lo:lo + 200003]
        a, b, c = new(chunk), arrays(chunk), old(chunk)
        assert a.tobytes() == b.tobytes() == c.tobytes()
        assert np.array_equal(prof._sampler.search(np.clip(chunk, z[0], z[-1])),
                              np.searchsorted(z, np.clip(chunk, z[0], z[-1]),
                                              side="right"))
        assert np.array_equal(prof._sampler.search(chunk),
                              np.searchsorted(z, chunk, side="right"))
    for one in (z[0], z[-1], mid[len(mid) // 2], np.nan, np.inf, [], np.empty((0, 2))):
        a, b = new(one), old(one)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_profile_error_leaves_both_profiles_unsampled(monkeypatch, logistic_n,
                                                       speed_05_2):
    beta, mu = 0.5, 2.0
    spec = fb.ProblemSpec(beta=beta, mu=mu, a=1.0, b=0.0, h0=4.0,
                          nonlinearity=logistic_n, nx=100, tmax=0.1)
    x = np.linspace(0.0, 4.0, 101)
    snapshot = (0.1, x, np.exp(-x))
    vt = fb.stationary_increasing(beta, 1.0, 0.0, logistic_n)
    qt = fb.shoot_semi_wave(speed_05_2.c_tilde, beta, logistic_n)
    wholes = []
    arrays = profiles._Sampler.arrays
    monkeypatch.setattr(profiles._Sampler, "arrays",
                        lambda self: wholes.append(self) or arrays(self))
    error = fb.profile_error(snapshot, spec, speed_05_2.c_tilde, 2.0, vt, qt)
    assert vt._arrays is None and qt._arrays is None and not wholes
    assert error == fb.profile_error(snapshot, spec, speed_05_2.c_tilde, 2.0,
                                     whole(vt), whole(qt))


def doctored(prof, made, **change):
    """prof made again from the arguments of the last sampler made, with
    change applied to them (shot, tau_end, reverse, z_of, pin_q, pin_qp,
    n_samples)."""
    args = dict(zip(("shot", "tau_end", "reverse", "z_of", "pin_q", "pin_qp"),
                    made[-1]))
    args.update(change)
    return profiles.WaveProfile._sampled(
        prof.kind, profiles._Sampler(**args), speed=prof.speed, slope0=prof.slope0,
        endpoint=prof.endpoint, dslope0=prof.dslope0)


def nan_at(shot, k):
    """shot with the first interpolant coefficient of q at step k set to NaN."""
    t_old, h, y_old, F = shot.steps
    F = F.copy()
    F[0, 0, k] = np.nan
    return shot._replace(steps=(t_old, h, y_old, F))


@pytest.mark.parametrize("defect", ["nan read", "nan unread", "zero tau_end",
                                    "step below an ulp"])
def test_doctored_shots_refused_as_their_arrays(monkeypatch, logistic_n, defect):
    # a NaN coefficient on a step that samples read, or a grid whose step is
    # zero or below the ulp of z, refuses the sampler with the message its
    # arrays get; a NaN on a step that no sample reads refuses neither
    made = record_samplers(monkeypatch)
    prof = PROFILES["stationary-robin"](logistic_n, {})
    shot = made[-1][0]
    t_old = shot.steps[0]
    assert t_old[2] < 0.5 * made[-1][1]     # 3 samples skip step 1
    change = {"nan read": {"shot": nan_at(shot, len(t_old) // 2)},
              "nan unread": {"shot": nan_at(shot, 1), "n_samples": 3},
              "zero tau_end": {"tau_end": 0.0},
              "step below an ulp": {"tau_end": 1e-300}}[defect]
    bad = doctored(prof, made, **change)
    query = np.linspace(-5.0, 20.0, 101)

    def outcome(p):
        try:
            evaluate = fb.profile_interpolator(p)
        except ValueError as exc:
            return str(exc)
        return evaluate(query).tobytes()

    new = outcome(bad)
    assert bad._arrays is None
    assert new == outcome(whole(bad))
    refusals = {"nan read": "profile samples must be finite",
                "zero tau_end": "profile z must be strictly increasing",
                "step below an ulp": "profile z must be strictly increasing"}
    assert new == refusals[defect] if defect in refusals else isinstance(new, bytes)


def test_a_sampler_that_neither_proof_covers_is_computed_once(monkeypatch, logistic_n):
    # a NaN on a step that no sample reads fails the finiteness proof, and a
    # step below an ulp of z the ordering proof: the samples are computed
    # once, and the sampler is refused as its arrays are
    made = record_samplers(monkeypatch)
    prof = PROFILES["stationary-robin"](logistic_n, {})
    shot = made[-1][0]
    bad = doctored(prof, made, shot=nan_at(shot, 1), n_samples=3, tau_end=1e-300)
    wholes = []
    arrays = profiles._Sampler.arrays
    monkeypatch.setattr(profiles._Sampler, "arrays",
                        lambda self: wholes.append(self) or arrays(self))
    with pytest.raises(ValueError) as new:
        fb.profile_interpolator(bad)
    assert len(wholes) == 1
    with pytest.raises(ValueError) as old:
        fb.profile_interpolator(whole(bad))
    assert str(new.value) == str(old.value) == "profile z must be strictly increasing"


# two knots (the linear case), three, and more; Moler's end slope
# d = ((2 h0 + h1) m0 - h0 m1) / (h0 + h1) is set to 0 when its sign differs
# from m0's ([0, 1, 6]) and to 3 m0 when the secants change sign and
# |d| > 3 |m0| ([0, 1, -4]); flat and sign-changing secants zero the
# interior slopes; at the knot q = -0.0 of [1e-3, -0.0, -2, -1000] every
# coefficient of the cubic is negative, and PPoly's sum, started at 0.0,
# returns +0.0 there
SHORT = [
    ([0.0, 1.0], [0.25, -1.5]),
    ([-1.0, 0.5, 2.0], [0.0, 1.0, 0.5]),
    ([0.0, 1.0, 2.0], [0.0, 1.0, 6.0]),
    ([0.0, 1.0, 2.0], [0.0, 1.0, -4.0]),
    ([0.0, 0.5, 0.75, 3.0, 3.5, 7.0], [1.0, 1.0, 0.5, -2.0, 0.0, 0.0]),
    ([0.0, 1e-3, 2.0, 2.5, 9.0, 9.25, 10.0], [0.0, 0.5, 0.5, 1.0, 0.0, -0.0, 3.0]),
    ([0.0, 1.0, 3.0, 3.5], [1e-3, -0.0, -2.0, -1000.0]),
]


@pytest.mark.parametrize("z, q", SHORT)
def test_short_profiles_match_pchip_bytes(z, q):
    prof = profile(z, q)
    z = prof.z
    mid = 0.5 * (z[1:] + z[:-1])
    for arg in (z, mid, np.concatenate([mid, z])[::-1], z[0] - 2.0, z[-1] + 2.0,
                np.linspace(z[0] - 1.0, z[-1] + 1.0, 41).reshape(41, 1)):
        assert_same(prof, arg)
    for one in np.concatenate([z, mid]):
        assert_same(prof, one)


def test_random_short_profiles_match_pchip_bytes():
    rng = np.random.default_rng(11)
    for trial in range(300):
        size = int(rng.integers(2, 12))
        z = np.cumsum(rng.uniform(0.01, 2.0, size))
        q = (rng.choice([-1.0, 0.0, 0.5, 1.0], size) if trial % 2
             else rng.normal(size=size))
        prof = profile(z, q)
        assert_same(prof, queries(prof.z, rng, 20))
        assert_same(prof, rng.uniform(z[0] - 1.0, z[-1] + 1.0, 3))


@pytest.mark.parametrize("arg", [0.5, np.float64(2.0), np.array(1.25), [],
                                 np.empty((0, 3)), np.nan, -np.nan, [np.nan, 1.0]])
def test_scalar_empty_and_nan_queries(arg):
    prof = profile([0.0, 0.5, 1.5, 2.0], [0.0, 0.2, 0.9, 1.0])
    assert_same(prof, arg)
    if np.ndim(arg) == 0:
        assert fb.profile_interpolator(prof)(arg).shape == ()


@pytest.mark.parametrize("z, q", [
    ([0.0, 1.0, 1.0], [0.0, 0.5, 1.0]),
    ([0.0, 2.0, 1.0], [0.0, 0.5, 1.0]),
    ([1.0, 0.0], [0.0, 1.0]),
    ([0.0], [0.0]),
    ([0.0, 1.0], [0.0, 1.0, 2.0]),
    ([0.0, np.nan], [0.0, 1.0]),
    ([0.0, 1.0], [0.0, np.inf]),
])
def test_bad_profiles_refused_when_the_evaluator_is_made(z, q):
    with pytest.raises(ValueError):
        fb.profile_interpolator(profile(z, q))


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
def test_profile_error_bits_match_pchip(monkeypatch, logistic_n, a, b):
    beta, mu = 0.5, 2.0
    lstar = fb.critical_length(beta, a, b, logistic_n.fp0)
    spec = fb.ProblemSpec(beta=beta, mu=mu, a=a, b=b, h0=lstar + 1.0,
                          nonlinearity=logistic_n, nx=200, tmax=20.0)
    traj = fb.simulate(spec, snapshot_times=(15.0, 20.0))
    speed = fb.spreading_speed(beta, mu, logistic_n)
    fit = fb.fit_speed(traj, speed.c_tilde)
    vt = fb.stationary_increasing(beta, a, b, logistic_n) if a > 0.0 else None

    def errors():
        return [fb.profile_error(s, spec, speed.c_tilde, fit.H, vt, speed.profile)
                for s in traj.snapshots]

    new = errors()
    monkeypatch.setattr(asymptotics, "profile_interpolator",
                        reference_profile_interpolator)
    old = errors()
    assert [e.hex() for e in new] == [e.hex() for e in old]
