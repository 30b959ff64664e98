"""Bisection drivers for the sharp spreading/vanishing thresholds.

For |beta| < c0 and a front starting below the critical length, the
long-time verdict flips monotonically in the Stefan coefficient mu (and,
with u0 = lambda*psi, in the amplitude lambda): comparison of solutions
makes the verdict map monotone, so the threshold is bracketed by
bisection on repeated simulate + classify.  The threshold point itself is
unobservable at finite precision; results are brackets, never points.

Each run stops at the first of two certificates, checked by one stop
hook in simulate:

- Spreading, after the first step with h >= l_star + classify.MARGIN.
  That is classify's rule 1: a front beyond the critical length never
  stops (Du & Lin 2010), and the rule looks for any recorded time, so it
  holds on the full horizon exactly when it holds on the bitwise prefix
  the stopped run records.
- Vanishing, at a check (every CHECK_EVERY time units) where
  classify.vanishing_certificate has slack L - H >= classify.MARGIN:
  then h(t) <= H < L < l_star for all later t, so rule 1 can never fire
  and the solution decays (Du & Lin 2010): the run vanishes, and no later
  step can change that verdict.  The bound is proved for the PDE and read
  off the discrete state, as rule 1 is; the margin asks the discrete front
  to stay MARGIN below L, more than its grid error.  The tests check that
  the full-horizon runs end Vanishing below H, that halving nx moves the
  final front by less than MARGIN, and that brackets equal those of
  full-horizon bisection.

A run neither certificate ends goes to tmax and classify decides.  The
eigen data of the certificate depend on neither mu nor lambda, so each
threshold call computes them once, for a fixed grid of lengths in
(h0, l_star).  A stopped run skips the per-step invariant checks
(h' > 0, clamp floor, ceiling) the full run would have met after the stop.

simulate is deterministic, so a value is classified once: the final
endpoints are not re-run, and lambda_threshold hands the verdict of its
probe of the upper endpoint to the bisection instead of running it again.
Every midpoint lies strictly inside (lo, hi), each Vanishing value becomes
lo and each Spreading value hi, so the history is monotone by
construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .classify import (MARGIN, classify, vanishing_candidates,
                       vanishing_certificate)
from .eigen import critical_length
from .errors import NoBracket, NumericalError
from .stefan import ProblemSpec, simulate
from .waves import spreading_speed

__all__ = ["ThresholdResult", "mu_threshold", "lambda_threshold"]

CHECK_EVERY = 0.5  # model time between Vanishing certificate checks


@dataclass(frozen=True)
class ThresholdResult:
    parameter: str               # 'mu' or 'lambda'
    bracket: tuple | None        # (lo, hi): classify(lo)=Vanishing, classify(hi)=Spreading
    width: float
    runs: int
    history: tuple               # ((value, verdict), ...): lo, hi, then the
                                 # midpoints in evaluation order
    note: str                    # 'bracketed' | 'spreading-for-all-mu'
                                 # | 'lambda-star-zero' | 'possibly-lambda-star-infinite'
    stops: tuple = ()            # ((value, rule, t_stop, slack), ...), one per
                                 # run: rule is 'front-beyond-critical-length',
                                 # 'vanishing-certificate' (slack = L - H) or
                                 # 'horizon' (slack None)


def _default_tmax(spec: ProblemSpec, lstar: float) -> float:
    ct = spreading_speed(spec.beta, spec.mu, spec.nonlinearity).c_tilde
    return max(50.0, 10.0 * lstar / ct)


def _check_hypotheses(spec: ProblemSpec, lstar: float) -> None:
    c0 = spec.nonlinearity.c0
    cond_i = spec.h0 < lstar and (spec.b == 0.0 or spec.beta <= 0.0)
    half = np.pi / np.sqrt(c0 * c0 - spec.beta * spec.beta)
    cond_ii = spec.h0 < half and (spec.beta <= 0.0
                                  or spec.a >= spec.b * spec.beta / 2.0)
    if not (cond_i or cond_ii):
        warnings.warn(
            "threshold hypotheses not satisfied (h0 vs l_star / boundary "
            "weights); a monotone flip is not guaranteed", stacklevel=4)


def _certificates(spec: ProblemSpec, lstar: float, candidates: tuple,
                  fired: dict) -> Callable:
    """Stop hook for simulate: true once either certificate fires, which
    it records in fired as (rule, t, slack)."""
    next_check = CHECK_EVERY

    def stop(st):
        nonlocal next_check
        if st.h >= lstar + MARGIN:
            fired["stop"] = ("front-beyond-critical-length", float(st.t),
                             None)
            return True
        if st.t < next_check - 1e-9:
            return False
        next_check += CHECK_EVERY
        slack, _ = vanishing_certificate(st.h, spec.xi * st.h, st.w, spec,
                                         lstar, candidates)
        if slack >= MARGIN:
            fired["stop"] = ("vanishing-certificate", float(st.t), slack)
            return True
        return False

    return stop


def _classified_run(make_spec: Callable[[float], ProblemSpec], value: float,
                    lstar: float, tmax: float, candidates: tuple,
                    stops: list) -> str:
    """Verdict at one parameter value; appends one stops entry per run."""
    for t_horizon in (tmax, 2.0 * tmax):
        spec = replace(make_spec(value), tmax=t_horizon)
        fired = {}
        traj = simulate(spec, stop=_certificates(spec, lstar, candidates,
                                                 fired))
        rule, t_stop, slack = fired.get(
            "stop", ("horizon", float(traj.times[-1]), None))
        stops.append((value, rule, t_stop, slack))
        if rule == "vanishing-certificate":
            return "Vanishing"
        verdict = classify(traj, spec, lstar=lstar).verdict
        if verdict != "Undetermined":
            return verdict
    raise NumericalError(
        f"classification still Undetermined at parameter {value:g} "
        f"after doubling tmax to {2*tmax:g}")


def _bisect(make_spec, lo, hi, tol, lstar, tmax, candidates, parameter,
            stops, v_hi=None) -> ThresholdResult:
    """Bisect [lo, hi] to width <= tol, or until no double lies strictly
    between them.  stops already holds the caller's runs; v_hi, when the
    caller has classified hi, is not run again."""
    history = []

    def run(value, verdict=None):
        if verdict is None:
            verdict = _classified_run(make_spec, value, lstar, tmax,
                                      candidates, stops)
        history.append((value, verdict))
        return verdict

    v_lo, v_hi = run(lo), run(hi, v_hi)
    if v_lo != "Vanishing" or v_hi != "Spreading":
        raise NoBracket(
            f"endpoints classify as ({v_lo}, {v_hi}); need (Vanishing, Spreading)")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # tol below the spacing of doubles here
            break
        if run(mid) == "Spreading":
            hi = mid
        else:
            lo = mid

    return ThresholdResult(parameter=parameter, bracket=(lo, hi),
                           width=hi - lo, runs=len(stops),
                           history=tuple(history), note="bracketed",
                           stops=tuple(stops))


def _setup(spec: ProblemSpec, parameter: str, value_range: tuple, tol: float):
    """Input checks, l_star, tmax and the Vanishing certificate's eigen data
    shared by both thresholds, before any simulation; tmax is None when
    h0 >= l_star already decides the answer."""
    lo, hi = value_range
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"{parameter}_range must be finite with 0 < lo < hi")
    if abs(spec.beta) >= spec.nonlinearity.c0:
        raise ValueError(f"{parameter} threshold requires |beta| < c0")
    lstar = critical_length(spec.beta, spec.a, spec.b, spec.nonlinearity.fp0)
    if spec.h0 >= lstar:
        return lstar, None, ()
    _check_hypotheses(spec, lstar)
    return (lstar, _default_tmax(spec, lstar),
            vanishing_candidates(spec, spec.h0, lstar))


def mu_threshold(spec: ProblemSpec, mu_range: tuple, tol: float) -> ThresholdResult:
    """Bracket the Stefan-coefficient threshold mu_star to width <= tol."""
    lstar, tmax, candidates = _setup(spec, "mu", mu_range, tol)
    if tmax is None:
        return ThresholdResult(parameter="mu", bracket=None, width=0.0,
                               runs=0, history=(), note="spreading-for-all-mu")
    lo, hi = mu_range
    return _bisect(lambda m: replace(spec, mu=m), lo, hi, tol, lstar, tmax,
                   candidates, "mu", [])


def lambda_threshold(spec: ProblemSpec, psi: Callable,
                     lambda_range: tuple, tol: float) -> ThresholdResult:
    """Bracket the initial-amplitude threshold lambda_star for u0 = lambda*psi.

    Returns the zero-threshold marker when h0 >= l_star, and the
    possibly-infinite marker when even lambda_max fails to spread.
    """
    lstar, tmax, candidates = _setup(spec, "lambda", lambda_range, tol)
    if tmax is None:
        return ThresholdResult(parameter="lambda", bracket=None, width=0.0,
                               runs=0, history=(), note="lambda-star-zero")
    lo, hi = lambda_range

    def make_spec(lam):
        return replace(spec, u0=lambda x, _l=lam: _l * np.asarray(psi(x)))

    stops = []
    v_hi = _classified_run(make_spec, hi, lstar, tmax, candidates, stops)
    if v_hi != "Spreading":
        return ThresholdResult(parameter="lambda", bracket=None,
                               width=float("inf"), runs=len(stops),
                               history=((hi, v_hi),),
                               note="possibly-lambda-star-infinite",
                               stops=tuple(stops))
    return _bisect(make_spec, lo, hi, tol, lstar, tmax, candidates, "lambda",
                   stops, v_hi)
