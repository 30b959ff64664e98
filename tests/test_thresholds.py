import numpy as np
import pytest

import freebound as fb


@pytest.fixture(scope="module")
def n():
    return fb.logistic()


@pytest.fixture(scope="module")
def template(n, lstar_05):
    # beta=0.5, Dirichlet, front at half the critical length; coarse grid
    # keeps each bisection run short while leaving the verdicts clear-cut
    return fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=0.0, h0=0.5 * lstar_05,
                          nonlinearity=n, nx=300, dt=1.5e-3, tmax=50.0)


def test_mu_threshold_brackets_the_flip(template):
    res = fb.mu_threshold(template, (0.5, 4.0), 0.5)
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
    # bisection budget: endpoints + ceil(log2(range/tol)) + 2 re-verifications
    assert res.runs <= 2 + int(np.ceil(np.log2(3.5 / 0.5))) + 2


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


def test_lambda_threshold_brackets_the_flip(n):
    lstar = fb.critical_length(0.0, 1.0, 0.0, 1.0)
    spec = fb.ProblemSpec(beta=0.0, mu=1.0, a=1.0, b=0.0, h0=0.6 * lstar,
                          nonlinearity=n, nx=250, dt=2e-3, tmax=50.0)
    psi = fb.default_initial_profile(spec.h0, 1.0, 0.0)
    res = fb.lambda_threshold(spec, psi, (0.05, 4.0), 0.5)
    assert res.note == "bracketed"
    lo, hi = res.bracket
    assert hi - lo <= 0.5
    # below the bracket: vanishing re-verified
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
