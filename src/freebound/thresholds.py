"""Bisection drivers for the sharp spreading/vanishing thresholds.

For |beta| < c0 and a front starting below the critical length, the
long-time verdict flips monotonically in the Stefan coefficient mu (and,
with u0 = lambda*psi, in the amplitude lambda): comparison of solutions
makes the verdict map monotone, so the threshold is bracketed by
bisection on repeated runs of simulate.  The threshold point itself is
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

A run neither certificate ends is read at tmax on its way to 2*tmax: the
hook stops it there when classify's rule 2 holds, and reads rule 2 again
at 2*tmax.  The rule that stopped a run gives its verdict, the one
classify would give on its trajectory: rule 1 Spreading, the certificate
or rule 2 Vanishing; a run that reaches 2*tmax with rule 2 failing, which
classify calls Undetermined, raises NumericalError.  The eigen data of
the certificate depend on neither mu nor lambda, so each threshold call
computes them once, for a fixed grid of lengths in (h0, l_star).  A stopped run skips the per-step
invariant checks (h' > 0, clamp floor, ceiling) the full run would have
met after the stop.

simulate is deterministic, so a value is simulated once: no horizon
restarts from t = 0, the final endpoints are not re-run, and
lambda_threshold's probe of the upper endpoint is the bisection's run of
it.  Every midpoint lies strictly inside (lo, hi), each Vanishing value
becomes lo and each Spreading value hi, so the history is monotone by
construction.

The runs of one threshold go to up to `workers` processes at once
(default: the CPU count).  The path is the one-core bisection: lo and hi
(hi first for lambda, whose probe it is), then the midpoints the verdicts
select.  One scheduler keeps the verdicts it knows.  Whenever a worker is
free it hands it the first value on the path that is neither known nor
running, reading a verdict still pending as a guess: at an endpoint the
verdict the bracket needs, since any other ends the path, and at a
midpoint "Spreading".  The midpoint guess was chosen by measurement on
the threshold-mu benchmark's inputs (seeds 0-7, median of 8 passes, two
rounds, 2 cores): it beat one worker on every seed in both rounds, by up
to a third, and beat a "Vanishing" guess on 4 and 5 of the 8 seeds,
seed 0 among them both times; the two guesses are close.

The result is built from the path alone once every value on it is
known, so history, stops and runs are those of one core.  A run the
verdicts moved off the path is wasted and its outcome never read.  The
first error on the path is raised in one core's order (lo's, hi's,
NoBracket, then each midpoint's), and an error off the path is not
raised.  With one worker, or where the fork start method does not exist,
the scheduler runs each value in-process as it hands it out, which is
the one-core sequence exactly.  Otherwise the workers are a pool of
forked processes, started after LAPACK is loaded, each on its own pipe
and with no thread in the parent.  They inherit the spec maker (whose
nonlinearity need not pickle), l_star, tmax and the eigen data, are sent
values, and send back each value's verdict or exception with its stops
entries.  Every worker is terminated and joined when the call ends, so a
wasted run still going dies then and no worker outlives the call; a
worker that dies mid-run raises NumericalError at once.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._scipy import extension
from .classify import (MARGIN, decayed_and_stalled, vanishing_candidates,
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
                                 # stop or horizon passed, and runs counts
                                 # them: rule is 'front-beyond-critical-length',
                                 # 'vanishing-certificate' (slack = L - H) or
                                 # 'horizon' (tmax or 2*tmax; slack None)


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


def _classified_run(make_spec: Callable[[float], ProblemSpec], value: float,
                    lstar: float, tmax: float, candidates: tuple,
                    stops: list) -> str:
    """Verdict at one parameter value from one run to 2*tmax, whose stop
    hook appends a stops entry at each certificate or horizon it meets and
    stops the run with the verdict of the rule that fired."""
    spec = replace(make_spec(value), tmax=2.0 * tmax)
    # the step counts at which runs to tmax and to 2*tmax end
    horizons = (math.ceil(tmax / spec.dt), math.ceil(spec.tmax / spec.dt))
    steps, next_check, verdict = 0, CHECK_EVERY, None

    def stop(st):
        nonlocal steps, next_check, verdict
        steps, t = steps + 1, float(st.t)
        if st.h >= lstar + MARGIN:
            stops.append((value, "front-beyond-critical-length", t, None))
            verdict = "Spreading"
            return True
        if t >= next_check - 1e-9:
            next_check += CHECK_EVERY
            slack, _ = vanishing_certificate(st.h, spec.xi * st.h, st.w, spec,
                                             lstar, candidates)
            if slack >= MARGIN:
                stops.append((value, "vanishing-certificate", t, slack))
                verdict = "Vanishing"
                return True
        if steps in horizons:
            stops.append((value, "horizon", t, None))
            if decayed_and_stalled(float(np.max(st.w)), st.hprime, st.h, lstar):
                verdict = "Vanishing"
        return verdict is not None

    simulate(spec, stop=stop)
    if verdict is None:
        raise NumericalError(
            f"classification still Undetermined at parameter {value:g} "
            f"after doubling tmax to {spec.tmax:g}")
    return verdict


def _path(lo, hi, tol, probe_hi):
    """The one-core bisection as a coroutine: yields each value in the
    order it is run there, is sent that value's verdict, and returns
    (bracket, history, note).  With probe_hi, hi is run first, as
    lambda_threshold's probe of the upper endpoint, and a hi that does not
    spread ends the path."""
    if probe_hi:
        v_hi = yield hi
        if v_hi != "Spreading":
            return None, ((hi, v_hi),), "possibly-lambda-star-infinite"
        v_lo = yield lo
    else:
        v_lo = yield lo
        v_hi = yield hi
    if v_lo != "Vanishing" or v_hi != "Spreading":
        raise NoBracket(
            f"endpoints classify as ({v_lo}, {v_hi}); need (Vanishing, Spreading)")
    history = [(lo, v_lo), (hi, v_hi)]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # tol below the spacing of doubles here
            break
        verdict = yield mid
        history.append((mid, verdict))
        if verdict == "Spreading":
            hi = mid
        else:
            lo = mid
    return (lo, hi), tuple(history), "bracketed"


def _follow(path, answer):
    """Drive the coroutine path, sending each value it yields
    answer(value), until answer returns None.  Returns the values yielded,
    in order, and the path's result, None when it stopped short."""
    values = []
    try:
        values.append(next(path))
        while (verdict := answer(values[-1])) is not None:
            values.append(path.send(verdict))
    except StopIteration as end:
        return values, end.value
    return values, None


def _outcome(value, job):
    """(value, its verdict or the exception its run raised, its stops)."""
    make_spec, lstar, tmax, candidates = job
    stops = []
    try:
        verdict = _classified_run(make_spec, value, lstar, tmax, candidates,
                                  stops)
    except Exception as exc:
        verdict = exc
    return value, verdict, stops


def _serve(conn, job):
    """A pool worker: sends back the outcome of each value it receives,
    until it is ended."""
    while True:
        conn.send(_outcome(conn.recv(), job))


def _fork_context():
    """multiprocessing's fork context, or None where fork does not exist."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _bisect(make_spec, lo, hi, tol, lstar, tmax, candidates, parameter,
            workers, probe_hi=False) -> ThresholdResult:
    """Bisect [lo, hi] to width <= tol, or until no double lies strictly
    between them, running up to workers values at once; probe_hi runs hi
    first, as lambda_threshold's probe."""
    job = (make_spec, lstar, tmax, candidates)
    known = {}        # value -> (verdict or the exception raised, its stops)
    running = set()

    def path():
        return _path(lo, hi, tol, probe_hi)

    def guess(value):
        return "Vanishing" if value == lo else "Spreading"

    def actual(value):
        outcome = known.get(value, (None,))[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def guessed(value):
        if value in running:
            return guess(value)
        outcome = known.get(value, (None,))[0]
        return None if isinstance(outcome, Exception) else outcome

    def ahead():
        """The first value on the guessed path neither known nor running."""
        try:
            values, result = _follow(path(), guessed)
        except NoBracket:  # a known endpoint ends the path
            return None
        return None if result is not None or values[-1] in known else values[-1]

    size = min(workers, len(_follow(path(), guess)[0]))
    context = _fork_context() if size > 1 else None
    pool = []         # (process, its end of the pipe) per worker
    try:
        if context is None:
            size, finished = 1, []

            def submit(value):
                finished.append(_outcome(value, job))
            collect = finished.pop
        else:
            from multiprocessing.connection import wait

            # the Stefan kernel's LAPACK extension, loaded here once:
            # forked workers inherit it instead of each loading it
            extension("scipy.linalg._flapack")
            for _ in range(size):
                conn, end = context.Pipe()
                worker = context.Process(target=_serve, args=(end, job),
                                         daemon=True)
                worker.start()
                pool.append((worker, conn))
                end.close()
            idle, busy = [conn for _, conn in pool], {}

            def submit(value):
                conn = idle.pop()
                conn.send(value)
                busy[conn] = value

            def collect():
                conn = wait(list(busy))[0]
                value = busy.pop(conn)
                idle.append(conn)
                try:
                    return conn.recv()
                except EOFError:
                    raise NumericalError(f"the worker running {parameter} = "
                                         f"{value:g} ended without a verdict") from None
        while True:
            values, result = _follow(path(), actual)
            if result is not None:
                break
            while len(running) < size and (value := ahead()) is not None:
                running.add(value)
                submit(value)
            value, verdict, stops = collect()
            running.discard(value)
            known[value] = (verdict, stops)
    finally:
        for worker, _ in pool:
            worker.terminate()
        for worker, conn in pool:
            worker.join()
            conn.close()

    bracket, history, note = result
    stops = tuple(entry for value in values for entry in known[value][1])
    return ThresholdResult(
        parameter=parameter, bracket=bracket,
        width=math.inf if bracket is None else bracket[1] - bracket[0],
        runs=len(stops), history=history, note=note, stops=stops)


def _setup(spec: ProblemSpec, parameter: str, value_range: tuple, tol: float,
           workers: int | None):
    """Input checks, l_star, tmax, the Vanishing certificate's eigen data
    and the worker count shared by both thresholds, before any
    simulation; tmax is None when h0 >= l_star already decides the
    answer."""
    lo, hi = value_range
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"{parameter}_range must be finite with 0 < lo < hi")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    if abs(spec.beta) >= spec.nonlinearity.c0:
        raise ValueError(f"{parameter} threshold requires |beta| < c0")
    workers = workers or os.cpu_count() or 1
    lstar = critical_length(spec.beta, spec.a, spec.b, spec.nonlinearity.fp0)
    if spec.h0 >= lstar:
        return lstar, None, (), workers
    _check_hypotheses(spec, lstar)
    return (lstar, _default_tmax(spec, lstar),
            vanishing_candidates(spec, spec.h0, lstar), workers)


def mu_threshold(spec: ProblemSpec, mu_range: tuple, tol: float, *,
                 workers: int | None = None) -> ThresholdResult:
    """Bracket the Stefan-coefficient threshold mu_star to width <= tol,
    running up to workers values at once (default: the CPU count)."""
    lstar, tmax, candidates, workers = _setup(spec, "mu", mu_range, tol, workers)
    if tmax is None:
        return ThresholdResult(parameter="mu", bracket=None, width=0.0,
                               runs=0, history=(), note="spreading-for-all-mu")
    lo, hi = mu_range
    return _bisect(lambda m: replace(spec, mu=m), lo, hi, tol, lstar, tmax,
                   candidates, "mu", workers)


def lambda_threshold(spec: ProblemSpec, psi: Callable,
                     lambda_range: tuple, tol: float, *,
                     workers: int | None = None) -> ThresholdResult:
    """Bracket the initial-amplitude threshold lambda_star for u0 = lambda*psi,
    running up to workers values at once (default: the CPU count).

    Returns the zero-threshold marker when h0 >= l_star, and the
    possibly-infinite marker when even lambda_max fails to spread.
    """
    lstar, tmax, candidates, workers = _setup(spec, "lambda", lambda_range,
                                              tol, workers)
    if tmax is None:
        return ThresholdResult(parameter="lambda", bracket=None, width=0.0,
                               runs=0, history=(), note="lambda-star-zero")
    lo, hi = lambda_range

    def make_spec(lam):
        return replace(spec, u0=lambda x, _l=lam: _l * np.asarray(psi(x)))

    return _bisect(make_spec, lo, hi, tol, lstar, tmax, candidates, "lambda",
                   workers, probe_hi=True)
