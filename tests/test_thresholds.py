import math
from dataclasses import replace

import numpy as np
import pytest

import freebound as fb
from freebound import thresholds
from freebound.classify import (MARGIN, vanishing_candidates,
                                vanishing_certificate)

from oracles import full_horizon_tmax, threshold_full_horizon


@pytest.fixture(scope="module")
def n():
    return fb.logistic()


@pytest.fixture(scope="module")
def template(n, lstar_05):
    # beta=0.5, Dirichlet, front at half the critical length; coarse grid
    # keeps each bisection run short while leaving the verdicts clear-cut
    return fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=0.0, h0=0.5 * lstar_05,
                          nonlinearity=n, nx=300, dt=1.5e-3, tmax=50.0)


@pytest.fixture(scope="module")
def mu_res(template):
    return fb.mu_threshold(template, (0.5, 4.0), 0.5)


@pytest.fixture(scope="module")
def lambda_config(n):
    lstar = fb.critical_length(0.0, 1.0, 0.0, 1.0)
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=0.6 * lstar,
                          nonlinearity=n, nx=250, dt=2e-3, tmax=50.0)
    return spec, fb.default_initial_profile(spec.h0, 1.0, 0.0), lstar


@pytest.fixture(scope="module")
def lambda_res(lambda_config):
    """lambda_threshold on lambda_config, and its number of simulate calls."""
    spec, psi, _ = lambda_config
    calls = []
    simulate = thresholds.simulate

    def counted(*args, **kwargs):
        calls.append(args[0])
        return simulate(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thresholds, "simulate", counted)
        res = fb.lambda_threshold(spec, psi, (0.05, 4.0), 0.5)
    return res, len(calls)


def test_mu_threshold_brackets_the_flip(mu_res):
    res = mu_res
    assert res.note == "bracketed"
    lo, hi = res.bracket
    assert hi - lo <= 0.5
    assert res.width == hi - lo
    assert 0.5 <= lo < hi <= 4.0
    # endpoint verdicts as recorded
    verdicts = dict((round(v, 12), verdict) for v, verdict in res.history)
    assert verdicts[round(lo, 12)] == "Vanishing"
    assert verdicts[round(hi, 12)] == "Spreading"
    # monotone history: no Vanishing above any Spreading parameter
    spread_vals = [v for v, verdict in res.history if verdict == "Spreading"]
    vanish_vals = [v for v, verdict in res.history if verdict == "Vanishing"]
    assert max(vanish_vals) < min(spread_vals)
    # bisection budget: endpoints + ceil(log2(range/tol)) midpoints
    assert res.runs <= 2 + int(np.ceil(np.log2(3.5 / 0.5)))


def test_mu_threshold_matches_full_horizon_bisection(template, mu_res):
    lo, hi = threshold_full_horizon(template, "mu", (0.5, 4.0), 0.5)
    assert mu_res.bracket == (lo, hi)
    assert mu_res.width == hi - lo


def test_lambda_threshold_matches_full_horizon_bisection(lambda_config,
                                                         lambda_res):
    spec, psi, _ = lambda_config
    res, _ = lambda_res
    lo, hi = threshold_full_horizon(spec, "lambda", (0.05, 4.0), 0.5, psi)
    assert res.bracket == (lo, hi)
    assert res.width == hi - lo


@pytest.mark.parametrize("which", ["mu", "lambda"])
def test_stops_say_why_each_run_ended(mu_res, lambda_res, which):
    res = mu_res if which == "mu" else lambda_res[0]
    assert len(res.stops) == res.runs
    # one run per value here: no run ended Undetermined
    assert sorted(s[0] for s in res.stops) == sorted(v for v, _ in res.history)
    verdicts = dict(res.history)
    for value, rule, t_stop, slack in res.stops:
        assert 0.0 < t_stop
        if verdicts[value] == "Spreading":
            assert rule == "front-beyond-critical-length" and slack is None
        elif rule == "vanishing-certificate":
            assert slack >= MARGIN
        else:
            assert rule == "horizon" and slack is None
    if which == "mu":
        # every Vanishing run of the template is certified early
        assert {rule for v, rule, _, _ in res.stops
                if verdicts[v] == "Vanishing"} == {"vanishing-certificate"}


def _threshold_case(kind, value, template, lambda_config, lstar_05):
    if kind == "mu":
        return replace(template, mu=value), lstar_05
    if kind == "lambda":
        spec, psi, lstar = lambda_config
        return replace(spec, u0=lambda x: value * np.asarray(psi(x))), lstar
    # Robin boundary, b > 0
    lstar = fb.critical_length(0.5, 1.0, 1.0, template.nonlinearity.fp0)
    return fb.ProblemSpec(beta=0.5, mu=value, a=1.0, b=1.0, h0=0.5 * lstar,
                          nonlinearity=template.nonlinearity, nx=200,
                          dt=2e-3, tmax=30.0), lstar


@pytest.mark.parametrize("kind, value, stops", [
    ("mu", 0.5, False), ("mu", 1.375, True), ("mu", 4.0, True),
    ("lambda", 0.05, False), ("lambda", 4.0, True), ("robin", 2.0, True)])
def test_until_h_run_is_a_prefix_of_the_full_run(template, lambda_config,
                                                 lstar_05, kind, value, stops):
    spec, lstar = _threshold_case(kind, value, template, lambda_config,
                                  lstar_05)
    until_h = lstar + MARGIN
    full = fb.simulate(spec)
    fast = fb.simulate(spec, until_h=until_h)
    k = len(fast.times)
    for name in ("times", "h", "hprime", "supu", "eta"):
        prefix = getattr(full, name)[:k]
        assert getattr(fast, name).tobytes() == prefix.tobytes(), name
    if stops:
        assert k < len(full.times)
        assert fast.h[-2] < until_h <= fast.h[-1]
    else:
        assert k == len(full.times) and full.h.max() < until_h
    assert [t for t, _, _ in fast.snapshots] == [fast.times[-1]]
    verdicts = {fb.classify(traj, spec, lstar=lstar).verdict
                for traj in (fast, full)}
    assert len(verdicts) == 1


@pytest.mark.parametrize("kind, value", [
    ("mu", 0.5), ("mu", 0.9375), ("lambda", 0.05)])
def test_vanishing_certificate_holds_on_the_full_run(
        template, lambda_config, lstar_05, mu_res, lambda_res, kind, value):
    res = mu_res if kind == "mu" else lambda_res[0]
    (t_cert, slack), = [(t, sl) for v, rule, t, sl in res.stops
                        if v == value and rule == "vanishing-certificate"]
    spec, lstar = _threshold_case(kind, value, template, lambda_config,
                                  lstar_05)
    base = template if kind == "mu" else lambda_config[0]
    spec = replace(spec, tmax=full_horizon_tmax(base, lstar))
    full = fb.simulate(spec, snapshot_times=(t_cert,))
    t, x, u = full.snapshots[0]
    assert t == t_cert
    # the certificate read off the full run at the firing time
    again, L = vanishing_certificate(x[-1], x, u, spec, lstar,
                                     vanishing_candidates(spec, spec.h0, lstar))
    assert again == slack >= MARGIN
    assert full.h.max() <= L - slack
    assert fb.classify(full, spec, lstar=lstar).verdict == "Vanishing"
    # the grid error in the final front is below the margin the slack needs
    coarse = fb.simulate(replace(spec, nx=spec.nx // 2))
    assert abs(full.h[-1] - coarse.h[-1]) < MARGIN


@pytest.mark.parametrize("kind, value", [
    ("mu", 1.375), ("mu", 4.0), ("lambda", 4.0), ("robin", 2.0)])
def test_vanishing_certificate_never_fires_on_spreading_runs(
        template, lambda_config, lstar_05, kind, value):
    spec, lstar = _threshold_case(kind, value, template, lambda_config,
                                  lstar_05)
    until_h = lstar + MARGIN
    checks = np.arange(thresholds.CHECK_EVERY, spec.tmax,
                       thresholds.CHECK_EVERY)
    traj = fb.simulate(spec, snapshot_times=checks, until_h=until_h)
    candidates = vanishing_candidates(spec, spec.h0, lstar)
    slacks = [vanishing_certificate(x[-1], x, u, spec, lstar, candidates)[0]
              for _, x, u in traj.snapshots if x[-1] < until_h]
    assert traj.h[-1] >= until_h and slacks
    assert max(slacks) < MARGIN


def test_bisect_ends_below_the_spacing_of_doubles(template, monkeypatch):
    calls = []

    def counted(make_spec, value, lstar, tmax, candidates, stops):
        calls.append(value)
        stops.append((value, "horizon", tmax, None))
        return "Spreading" if value >= 1.3 else "Vanishing"

    monkeypatch.setattr(thresholds, "_classified_run", counted)
    res = fb.mu_threshold(template, (0.5, 4.0), 1e-300)
    assert len(calls) == res.runs <= 2 + 64
    lo, hi = res.bracket
    verdicts = dict(res.history)
    assert verdicts[lo] == "Vanishing" and verdicts[hi] == "Spreading"
    assert math.nextafter(lo, hi) == hi


def test_mu_threshold_short_circuit_beyond_critical_length(template, lstar_05):
    from dataclasses import replace

    spec = replace(template, h0=lstar_05 + 0.1)
    res = fb.mu_threshold(spec, (0.5, 4.0), 0.5)
    assert res.note == "spreading-for-all-mu"
    assert res.bracket is None and res.runs == 0


def test_mu_threshold_no_bracket(template):
    with pytest.raises(fb.errors.NoBracket):
        fb.mu_threshold(template, (0.05, 0.2), 0.1)


def test_mu_threshold_requires_subcritical_advection(template, n):
    from dataclasses import replace

    spec = replace(template, beta=2.5)
    with pytest.raises(ValueError, match="beta"):
        fb.mu_threshold(spec, (0.5, 4.0), 0.5)


def test_lambda_threshold_zero_when_front_already_critical(template, lstar_05, n):
    from dataclasses import replace

    spec = replace(template, h0=lstar_05 + 0.1)
    psi = fb.default_initial_profile(spec.h0, 1.0, 0.0)
    res = fb.lambda_threshold(spec, psi, (0.1, 3.0), 0.5)
    assert res.note == "lambda-star-zero"
    assert res.bracket is None


def test_lambda_threshold_brackets_the_flip(lambda_res):
    res, calls = lambda_res
    assert res.note == "bracketed"
    lo, hi = res.bracket
    assert hi - lo <= 0.5
    # every value is simulated once, and every simulation is counted
    assert calls == res.runs
    values = [v for v, _ in res.history]
    assert len(set(values)) == len(values)
    # no vanishing verdict above the bracket
    vals = [v for v, verdict in res.history if verdict == "Vanishing"]
    assert vals and max(vals) <= lo + 1e-12


def test_lambda_threshold_possibly_infinite_marker(template, n):
    # a lambda range whose top still vanishes is reported, not bisected
    psi = fb.default_initial_profile(template.h0, 1.0, 0.0)
    from dataclasses import replace

    spec = replace(template, mu=0.3)
    res = fb.lambda_threshold(spec, psi, (0.05, 0.2), 0.1)
    assert res.note == "possibly-lambda-star-infinite"
    assert res.width == float("inf")


@pytest.mark.parametrize("value_range, tol", [((0.5, 4.0), np.nan),
                                              ((0.5, 4.0), 0.0),
                                              ((0.5, 4.0), -0.1),
                                              ((np.nan, 4.0), 0.5)])
def test_threshold_inputs_refused_before_any_solve(template, monkeypatch,
                                                   value_range, tol):
    from freebound import thresholds

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve was started on refused input")

    monkeypatch.setattr(thresholds, "simulate", no_solve)
    monkeypatch.setattr(thresholds, "spreading_speed", no_solve)
    psi = fb.default_initial_profile(template.h0, 1.0, 0.0)
    with pytest.raises(ValueError):
        fb.mu_threshold(template, value_range, tol)
    with pytest.raises(ValueError):
        fb.lambda_threshold(template, psi, value_range, tol)
