"""scipy.optimize.brentq in Python floats.

A step-for-step port of scipy's brentq.c and of the checks its Python
wrapper makes, so that importing the package does not load
scipy.optimize.  It makes the same calls of f, in the same order, and
returns the same float or raises the same error with the same message
(tests/test_brentq.py compares the two bit for bit).
"""

from __future__ import annotations

import sys

__all__ = ["brentq"]

# scipy's defaults; rtol may not go below 4 machine epsilons
_XTOL = 2e-12
_RTOL = 4 * sys.float_info.epsilon
_ITER = 100


def brentq(f, a, b, xtol=_XTOL, rtol=_RTOL, maxiter=_ITER) -> float:
    """A root of f in the sign-changing bracket [a, b] (either order),
    to within xtol + rtol*|root|, as scipy.optimize.brentq returns it.

    Raises ValueError for xtol <= 0, rtol below 4 eps, maxiter < 0, f(a)
    and f(b) of one sign, or f returning NaN; RuntimeError when maxiter
    iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def fx(x):
        v = float(f(x))
        if v != v:
            raise ValueError(f"The function value at x={x} is NaN; "
                             f"solver cannot continue.")
        return v

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = fx(xpre)
    fcur = fx(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    # neither is zero (nor NaN), so "<" reads the sign bit as C's signbit
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        # C divides by zero into inf or nan, which fails the step test
        # below; Python raises instead, and takes the same bisection
        step = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
                step = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            except ZeroDivisionError:
                pass
        if step:
            spre, scur = scur, stry
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
