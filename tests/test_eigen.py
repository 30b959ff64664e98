import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freebound as fb

from freebound.eigen import _transformed_s1

from oracles import (lstar_closed_form, principal_eigenvalue_shooting,
                     reference_critical_length, zeta1)


def test_dirichlet_closed_form_examples():
    r = fb.principal_eigenvalue(fb.EigenProblem(ell=np.pi, beta=0.0, a=1.0, b=0.0, m=1.0))
    assert r.zeta1 == pytest.approx(0.0, abs=1e-12)
    r = fb.principal_eigenvalue(fb.EigenProblem(ell=1.0, beta=1.0, a=1.0, b=0.0, m=1.0))
    assert r.zeta1 == pytest.approx(0.25 + np.pi**2 - 1.0, abs=1e-12)


def test_neumann_cosine_mode():
    # -phi'' = (zeta + m) phi with phi'(0) = 0, phi(2) = 0: phi = cos(pi x/4)
    r = fb.principal_eigenvalue(fb.EigenProblem(ell=2.0, beta=0.0, a=0.0, b=1.0, m=1.0))
    assert r.zeta1 == pytest.approx(np.pi**2 / 16.0 - 1.0, abs=1e-12)


def test_eigenfunction_invariants():
    for ell, beta, a, b in [(np.pi, 0.0, 1.0, 0.0), (2.0, 1.5, 1.0, 0.0),
                            (3.0, 0.8, 0.5, 1.0), (3.0, 1.8, 0.2, 1.0)]:
        p = fb.EigenProblem(ell=ell, beta=beta, a=a, b=b, m=1.0)
        r = fb.principal_eigenvalue(p)
        phi, x = r.eigenfunction, r.x
        assert phi[-1] == 0.0
        assert np.all(phi[1:-1] > 0.0)
        dx = x[1] - x[0]
        res = (-(phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dx**2
               + beta * (phi[2:] - phi[:-2]) / (2.0 * dx)
               - (1.0 + r.zeta1) * phi[1:-1])
        assert np.max(np.abs(res)) < 1e-6


@pytest.mark.parametrize("beta,a,b", [(0.0, 1.0, 0.0), (1.0, 1.0, 0.0),
                                      (-1.2, 0.3, 1.0), (1.8, 0.2, 1.0)])
def test_strict_monotonicity_in_ell(beta, a, b):
    ells = np.linspace(0.4, 12.0, 20)
    z = [zeta1(L, beta, a, b, 1.0) for L in ells]
    assert np.all(np.diff(z) < 0.0)


def test_limits_in_ell():
    # zeta1 -> +inf as ell -> 0, -> beta^2/4 - m as ell -> inf (b = 0)
    assert zeta1(1e-3, 0.7, 1.0, 0.0, 1.0) > 1e5
    limit = 0.7**2 / 4.0 - 1.0
    assert zeta1(500.0, 0.7, 1.0, 0.0, 1.0) == pytest.approx(limit, abs=1e-4)
    assert zeta1(500.0, 0.7, 1.0, 0.0, 1.0) > limit


def test_gamma1_equals_zeta1_minus_quarter_beta_squared_when_b0():
    for ell in (0.7, 1.3, 3.0, 6.0):
        for beta in (-1.5, 0.5, 1.9):
            z = zeta1(ell, beta, 1.0, 0.0, 1.0)
            g = zeta1(ell, 0.0, 1.0, 0.0, 1.0)
            assert g == pytest.approx(z - beta**2 / 4.0, abs=1e-10)


@pytest.mark.parametrize("ell,beta", [(1.0, 0.0), (2.0, 0.7), (0.5, -1.2), (np.pi, 1.5)])
def test_shooting_agreement_dirichlet(ell, beta):
    p = fb.EigenProblem(ell=ell, beta=beta, a=1.0, b=0.0, m=1.0)
    z_analytic = fb.principal_eigenvalue(p).zeta1
    z_shoot = principal_eigenvalue_shooting(p)
    assert z_shoot == pytest.approx(z_analytic, abs=1e-8)


def test_shooting_agreement_robin_hyperbolic_branch():
    # beta > 2a/b puts the transformed Robin weight negative: the principal
    # mode is hyperbolic and must not be silently excluded
    p = fb.EigenProblem(ell=3.0, beta=1.8, a=0.2, b=1.0, m=1.0)
    z_analytic = fb.principal_eigenvalue(p).zeta1
    assert z_analytic < 1.8**2 / 4.0 - 1.0  # below the b=0 large-ell limit
    z_shoot = principal_eigenvalue_shooting(p)
    assert z_shoot == pytest.approx(z_analytic, abs=1e-8)


def _assert_eigenfunction_invariants(p, r):
    phi, x = r.eigenfunction, r.x
    assert phi[-1] == 0.0
    assert np.all(phi[1:-1] > 0.0)
    dx = x[1] - x[0]
    res = (-(phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / dx**2
           + p.beta * (phi[2:] - phi[:-2]) / (2.0 * dx)
           - (p.m + r.zeta1) * phi[1:-1])
    assert np.max(np.abs(res)) < 1e-6


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("d", [1e-14, 1e-13, 1e-12, 1e-8])
def test_principal_mode_across_the_crossover(d, side):
    # ell*|A| = b divides the trigonometric mode (s1 > 0) from the
    # boundary-trapped one (s1 < 0); with t = ell*|A|/b near 1,
    # s1 = 3(1 - t)/(t ell^2) to first order in 1 - t
    ell, b = 2.0, 1.0
    A = -(1.0 + side * d) * b / ell
    t = ell * -A / b
    s1 = _transformed_s1(ell, A, b)
    assert np.sign(s1) == np.sign(b + A * ell) != 0.0
    assert s1 == pytest.approx(3.0 * (1.0 - t) / (t * ell**2), rel=0.02)
    # a = 0 and beta = -2A/b give back this A exactly
    p = fb.EigenProblem(ell=ell, beta=-2.0 * A / b, a=0.0, b=b, m=1.0)
    r = fb.principal_eigenvalue(p)
    assert r.zeta1 == s1 + p.beta * p.beta / 4.0 - p.m
    _assert_eigenfunction_invariants(p, r)


def test_principal_mode_at_the_crossover_is_linear():
    # ell*|A| = b exactly: psi = b + A*x, s1 = 0
    p = fb.EigenProblem(ell=2.0, beta=1.0, a=0.0, b=1.0, m=1.0)
    r = fb.principal_eigenvalue(p)
    assert r.zeta1 == 1.0 / 4.0 - 1.0
    _assert_eigenfunction_invariants(p, r)


def test_critical_length_closed_form():
    # at beta = 1.99999999 l_star is about 31416, beyond any bracket a
    # search over ell would have capped
    for beta in (0.0, 1.0, 1.9, 1.99999999):
        expect = lstar_closed_form(beta, 2.0)
        assert fb.critical_length(beta, 1.0, 0.0, 1.0) == pytest.approx(expect, abs=1e-6)
        assert fb.critical_length_no_advection(beta, 1.0, 0.0, 1.0) == pytest.approx(
            expect, abs=1e-6)


def test_critical_length_zero_residual():
    ls = fb.critical_length(1.0, 1.0, 0.0, 1.0)
    assert abs(zeta1(ls, 1.0, 1.0, 0.0, 1.0)) <= 1e-12
    lsub = fb.critical_length_no_advection(1.0, 0.5, 1.0, 1.0)
    assert abs(zeta1(lsub, 0.0, 0.5, 1.0, 1.0) + 0.25) <= 1e-12


def _seeded_cases(count=200, seed=20100):
    """(beta, a, b, m): a = 0, b = 0, both signs of A = a - b*beta/2 and
    |beta|/c0 up to 0.999."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        m = float(rng.uniform(0.2, 5.0))
        beta = float(rng.uniform(-0.999, 0.999)) * 2.0 * np.sqrt(m)
        a, b = (float(v) for v in rng.uniform(0.0, 3.0, 2))
        if i % 4 == 1:
            a = 0.0
        elif i % 4 == 2:
            b = 0.0
        cases.append((beta, a, b, m))
    return cases


def test_critical_lengths_match_the_nested_solve():
    cases = _seeded_cases()
    signs = {np.sign(a - b * beta / 2.0) for beta, a, b, _ in cases}
    assert signs == {-1.0, 1.0}
    for beta, a, b, m in cases:
        ls = fb.critical_length(beta, a, b, m)
        lsub = fb.critical_length_no_advection(beta, a, b, m)
        assert ls == pytest.approx(reference_critical_length(beta, a, b, m), rel=1e-12)
        assert lsub == pytest.approx(
            reference_critical_length(beta, a, b, m, advection=False), rel=1e-12)
        assert abs(zeta1(ls, beta, a, b, m)) <= 1e-12
        assert abs(zeta1(lsub, 0.0, a, b, m) + beta * beta / 4.0) <= 1e-12


def test_no_critical_length_at_and_beyond_c0():
    with pytest.raises(fb.errors.NoCriticalLength):
        fb.critical_length(2.0, 1.0, 0.0, 1.0)
    with pytest.raises(fb.errors.NoCriticalLength):
        fb.critical_length(-2.3, 1.0, 0.0, 1.0)
    with pytest.raises(fb.errors.NoCriticalLength):
        fb.critical_length_no_advection(2.0, 1.0, 0.0, 1.0)


def test_robin_critical_lengths_exist_without_ordering_assumption():
    # general (a, b): both lengths exist for |beta| < c0; no ordering asserted
    ls = fb.critical_length(0.8, 0.7, 1.3, 1.0)
    lsub = fb.critical_length_no_advection(0.8, 0.7, 1.3, 1.0)
    assert ls > 0.0 and lsub > 0.0
    assert abs(zeta1(ls, 0.8, 0.7, 1.3, 1.0)) <= 1e-12


def test_problem_validation():
    with pytest.raises(ValueError):
        fb.EigenProblem(ell=-1.0, beta=0.0, a=1.0, b=0.0, m=1.0)
    with pytest.raises(ValueError):
        fb.EigenProblem(ell=1.0, beta=0.0, a=0.0, b=0.0, m=1.0)
    with pytest.raises(ValueError):
        fb.EigenProblem(ell=1.0, beta=0.0, a=1.0, b=0.0, m=0.0)


@given(beta=st.floats(-1.8, 1.8), a=st.floats(0.1, 2.0), b=st.floats(0.0, 2.0),
       ell=st.floats(0.3, 8.0), factor=st.floats(1.05, 3.0))
@settings(max_examples=25, deadline=None)
def test_monotonicity_property(beta, a, b, ell, factor):
    assert zeta1(ell, beta, a, b, 1.0) > zeta1(ell * factor, beta, a, b, 1.0)
