"""The Python-float brentq port against scipy.optimize.brentq, bit for bit:
the same calls of f, the same root (float.hex, so the sign of zero counts)
and the same error type and message."""

import inspect
import math
import random
import sys

import pytest
from scipy.optimize import brentq as scipy_brentq

import freebound as fb
from freebound import _brentq, eigen, waves
from freebound.eigen import _transformed_s1

_RTOL = 4 * sys.float_info.epsilon


def solve(solver, f, a, b, **kw):
    """(outcome, calls): ('root', hex) or (error type, message), and the
    hex of every x that solver passed to f, in order."""
    calls = []

    def traced(x):
        calls.append(float(x).hex())
        return f(x)

    try:
        outcome = ("root", float(solver(traced, a, b, **kw)).hex())
    except (ValueError, RuntimeError) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, calls


def assert_same(f, a, b, **kw):
    port = solve(_brentq.brentq, f, a, b, **kw)
    assert port == solve(scipy_brentq, f, a, b, **kw), (a, b, kw)
    return port[0]


@pytest.fixture
def twin(monkeypatch):
    """Every brentq call the library makes runs on both solvers, which
    must agree; returns the list of (a, b, kw) calls compared."""
    seen = []

    def both(f, a, b, **kw):
        seen.append((a, b, kw))
        assert_same(f, a, b, **kw)
        return _brentq.brentq(f, a, b, **kw)

    monkeypatch.setattr(eigen, "brentq", both)
    monkeypatch.setattr(waves, "brentq", both)
    return seen


# ------------------------------------------------- the library's own calls

@pytest.mark.parametrize("ell, A, b", [
    (2.0, 0.7, 1.0),              # Robin, A > 0
    (3.0, 1.0, 1e-30),            # A > 0 with b -> 0: the Dirichlet limit
    (5.0, -1.0, 1.0),             # A < 0, hyperbolic (ell*|A| > b)
    (0.5, -1.0, 1.0),             # A < 0, trigonometric (ell*|A| < b)
    (2.0, 0.0, 1.0),              # A = 0: the Neumann quarter wave
    (2.0, -0.5 * (1.0 - 1e-12), 1.0),  # A < 0 just below the crossover ell*|A| = b
])
def test_transformed_s1_branches(twin, ell, A, b):
    _transformed_s1(ell, A, b)
    assert twin


def test_semi_wave_event_root(twin):
    n = fb.logistic()
    for g in (-2.5, -0.5, 1.5):
        fb.shoot_semi_wave(g, 0.0, n, samples=False)
    assert len(twin) == 3


def test_spreading_speed_hermite_root_on_a_warm_curve(twin):
    n = fb.logistic()
    fb.spreading_speed(0.5, 2.0, n)
    fb.spreading_speed(0.5, 1.0, n)
    shots = len(twin)
    fb.spreading_speed(0.5, 1.5, n)
    # the event roots take xtol = _EVENT_TOL, the Hermite root a multiple
    assert [kw for _, _, kw in twin[shots:] if kw["xtol"] != waves._EVENT_TOL]


# ------------------------------------------------------- random brackets

FUNCTIONS = [
    lambda x: x ** 3 - 2.0 * x - 5.0,
    lambda x: math.tanh(3.0 * x - 0.4) - 0.1 * x,
    lambda x: math.exp(x) - 2.5,
    lambda x: (x - 0.37) ** 5,
    lambda x: math.atan(1e3 * (x - 0.123)),
    lambda x: math.cos(x) - x,
]
TOLERANCES = [{}, dict(xtol=1e-15, maxiter=200),
              dict(xtol=4 * _RTOL, rtol=_RTOL), dict(xtol=1e-3, rtol=1e-6),
              dict(maxiter=4)]


@pytest.mark.parametrize("k", range(len(FUNCTIONS)))
def test_random_brackets_both_orders(k):
    rng = random.Random(k)
    outcomes = set()
    for _ in range(300):
        a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        kw = rng.choice(TOLERANCES)
        outcomes.add(assert_same(FUNCTIONS[k], a, b, **kw)[0])
        assert_same(FUNCTIONS[k], b, a, **kw)
    assert outcomes >= {"root", "ValueError"}


def test_roots_keep_the_sign_of_zero():
    assert assert_same(lambda x: x, -0.0, 1.0) == ("root", "-0x0.0p+0")
    assert assert_same(lambda x: x, 1.0, -0.0) == ("root", "-0x0.0p+0")
    assert assert_same(lambda x: x, -1.0, 0.0) == ("root", "0x0.0p+0")
    assert_same(lambda x: x, -1.0, 1.0)
    assert_same(lambda x: math.sin(x), -1.0, 2.0)


# ------------------------------------------------- zero denominators

def _zero_division_line():
    lines, first = inspect.getsourcelines(_brentq.brentq)
    k = next(i for i, line in enumerate(lines) if "except ZeroDivisionError" in line)
    return first + k


def _runs_line(line, f, a, b):
    hit = []

    def tracer(frame, event, arg):
        if frame.f_code is _brentq.brentq.__code__:
            if event == "line" and frame.f_lineno == line:
                hit.append(line)
            return tracer
        return None

    sys.settrace(tracer)
    try:
        _brentq.brentq(f, a, b)
    except (ValueError, RuntimeError):
        pass
    finally:
        sys.settrace(None)
    return bool(hit)


def piecewise_constant(cuts, levels):
    def f(x):
        for cut, level in zip(cuts, levels):
            if x < cut:
                return level
        return levels[-1]
    return f


def test_zero_denominators_bisect_as_in_c():
    # tiny piecewise-constant values underflow the extrapolation's
    # denominator to zero, where C gets inf or nan and bisects
    line = _zero_division_line()
    rng = random.Random(11)
    divisions = 0
    for _ in range(300):
        cuts = sorted(rng.uniform(0.0, 1.0) for _ in range(rng.randint(1, 4)))
        levels = [rng.choice((-4.0, -1.0, -0.5, 0.5, 2.0)) * 1e-200
                  for _ in range(len(cuts) + 1)]
        f = piecewise_constant(cuts, levels)
        a, b = rng.uniform(-0.2, 0.3), rng.uniform(0.7, 1.2)
        for lo, hi in ((a, b), (b, a)):
            assert_same(f, lo, hi)
            divisions += _runs_line(line, f, lo, hi)
    assert divisions >= 20


# ----------------------------------------------------------- error paths

@pytest.mark.parametrize("f, a, b, kw, error", [
    (lambda x: x - 0.3, 0.0, 1.0, dict(xtol=0.0), ValueError),
    (lambda x: x - 0.3, 0.0, 1.0, dict(xtol=-1e-3), ValueError),
    (lambda x: x - 0.3, 0.0, 1.0, dict(rtol=1e-16), ValueError),
    (lambda x: x * x + 1.0, -1.0, 2.0, {}, ValueError),
    (lambda x: 1e-200, 0.0, 1.0, {}, ValueError),
    (lambda x: math.nan, 0.0, 1.0, {}, ValueError),
    (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, {}, ValueError),
    (lambda x: x - 0.3, 0.0, 1.0, dict(maxiter=-1), ValueError),
    (lambda x: math.tanh(x - 0.3), 0.0, 1.0, dict(maxiter=2), RuntimeError),
    (lambda x: x - 0.3, 0.0, 1.0, dict(maxiter=0), RuntimeError),
])
def test_error_paths(f, a, b, kw, error):
    kind, _ = assert_same(f, a, b, **kw)
    assert kind == error.__name__
