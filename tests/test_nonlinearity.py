import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freebound as fb
from freebound.nonlinearity import _sample_grid


def test_logistic_constants():
    n = fb.logistic()
    assert n.fp0 == 1.0
    assert n.c0 == 2.0
    report = fb.validate(n)
    assert report.ok, report.failing()


def test_c0_is_derived_not_passed():
    n = fb.Nonlinearity(f=lambda u: u * (1.0 - u), fprime=lambda u: 1.0 - 2.0 * u,
                        fp0=2.25)
    assert n.c0 == 3.0
    with pytest.raises(TypeError, match="c0"):
        fb.Nonlinearity(f=n.f, fprime=n.fprime, fp0=1.0, c0=5.0)


def test_cubic_all_clauses_pass():
    n = fb.cubic_monostable(0.5)
    report = fb.validate(n)
    assert report.ok, report.failing()
    assert n.fp0 == 1.0
    assert n.c0 == 2.0


def test_cubic_gamma_range():
    with pytest.raises(ValueError):
        fb.cubic_monostable(1.0)
    with pytest.raises(ValueError):
        fb.cubic_monostable(-0.1)


def test_polynomial_u_times_one_minus_u_squared():
    # u(1-u)(1+u) = u - u^3: every clause passes, fp0 = 1, c0 = 2
    n = fb.from_coefficients([0.0, 1.0, 0.0, -1.0])
    report = fb.validate(n)
    assert report.ok, report.failing()
    assert n.fp0 == 1.0
    assert n.c0 == 2.0
    # spot value from the report's own evaluation: f(0.5) = 0.375 <= fp0*0.5
    assert float(n.f(np.array(0.5))) == pytest.approx(0.375, abs=1e-15)


@pytest.mark.parametrize("coefficients", [
    [0.0, 1.0, 0.0, -1.0],
    [0.0, 1.0, 0.5, -1.5],
    [0.0, 2.0, -2.0],
    [0.0, 1.0, -1.0, 0.0],             # zero top coefficient
    [0.0, 0.7, 0.3, 1e-3, -1.001],
])
def test_from_coefficients_evaluates_like_numpy_polynomial(coefficients):
    # Horner closures in polyval's order: equal to Polynomial.__call__ (up
    # to the sign of zero) on validate's grid, on arrays and on floats
    n = fb.from_coefficients(coefficients)
    poly = np.polynomial.Polynomial(coefficients)
    u = fb.validate(n).samples
    u = np.concatenate([u, -u, [0.0, -0.0, np.inf, -np.inf, np.nan]])
    with np.errstate(invalid="ignore", over="ignore"):
        for mine, ref in ((n.f, poly), (n.fprime, poly.deriv())):
            assert np.array_equal(mine(u), ref(u), equal_nan=True)
            assert mine(np.array(0.5)) == ref(np.array(0.5))
            for x in u.tolist():
                v = mine(x)
                assert type(v) is float
                assert v == ref(x) or (v != v and ref(x) != ref(x))
    assert hash(n) == hash(n)


def test_linear_bound_violation_detected():
    # u(1-u)(1+1.5u) exceeds f'(0)*u near u = 0.2
    n = fb.from_coefficients([0.0, 1.0, 0.5, -1.5])
    report = fb.validate(n)
    assert not report.ok
    assert "f_below_linearization" in report.failing()


def test_sign_clause_violation_detected():
    # bistable u(u - 0.3)(1 - u) is negative on (0, 0.3)
    n = fb.Nonlinearity(
        f=lambda u: u * (u - 0.3) * (1.0 - u),
        fprime=lambda u: -3.0 * u * u + 2.6 * u - 0.3,
        fp0=1.0)  # deliberately wrong fp0; sign clause must fail regardless
    report = fb.validate(n)
    assert "sign_(1-u)f(u)>0" in report.failing()


def test_nonzero_roots_rejected():
    n = fb.Nonlinearity(f=lambda u: u * (1.0 - u) + 1e-6,
                        fprime=lambda u: 1.0 - 2.0 * u, fp0=1.0)
    with pytest.raises(ValueError, match="roots"):
        fb.validate(n)


def test_wrong_derivative_detected():
    n = fb.Nonlinearity(f=lambda u: u * (1.0 - u),
                        fprime=lambda u: 1.0 - 1.9 * u, fp0=1.0)
    report = fb.validate(n)
    assert "fprime_matches_fd" in report.failing()


def test_validate_preconditions():
    n = fb.logistic()
    with pytest.raises(ValueError):
        fb.validate(n, samples=50)
    with pytest.raises(ValueError):
        fb.validate(n, u_max=0.9)


def test_from_coefficients_rejects_bad_constant_or_linear_term():
    with pytest.raises(ValueError):
        fb.from_coefficients([0.1, 1.0])
    with pytest.raises(ValueError):
        fb.from_coefficients([0.0, -1.0, 1.0])


@given(gamma=st.floats(min_value=0.0, max_value=0.99))
@settings(max_examples=20, deadline=None)
def test_cubic_family_always_admissible(gamma):
    n = fb.cubic_monostable(gamma)
    assert fb.validate(n).ok
    # c0^2 = 4*fp0 to within 2 ulp
    assert abs(n.c0 * n.c0 - 4.0 * n.fp0) <= 2.0 * np.spacing(4.0 * n.fp0)


@pytest.mark.parametrize("samples, u_max", [(100, 1.5), (400, 10.0), (1001, 3.0),
                                            (4000, 1e3)])
def test_sample_grid_is_np_unique_by_bytes(samples, u_max):
    # the grid's parts as _sample_grid builds them; u_max ends two of them
    n_geo = samples // 2
    parts = [np.geomspace(1e-12, u_max, n_geo),
             np.linspace(u_max / samples, u_max, samples - n_geo),
             1.0 + np.array([-1e-3, -1e-6, 1e-6, 1e-3])]
    expected = np.unique(np.concatenate(parts))
    expected = expected[(expected > 0.0) & (expected <= u_max)]
    assert _sample_grid(samples, u_max).tobytes() == expected.tobytes()
