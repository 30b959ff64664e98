"""The two scipy extensions the library calls, each loaded alone.

LAPACK's dgtsv, one per Stefan substep, is scipy.linalg._flapack's, the
function object scipy.linalg.lapack.dgtsv is.  brentq, for every event
root of a shot and for the Robin zeta1, is scipy's C brentq in
scipy.optimize._zeros behind the checks scipy.optimize.brentq makes: the
same calls of f, in the same order, and the same float or the same error
(tests/test_brentq.py compares the two bit for bit).

extension runs one such module on its first use without its package's
__init__ and registers it in sys.modules, where a later import of the
package reuses it.  Importing scipy.linalg.lapack loads 85 scipy modules,
about 23 MB and 0.3 s on a 2-core host; _flapack alone takes about 5 ms
and _zeros 0.5 ms.  Importing freebound loads numpy only.
"""

from __future__ import annotations

import sys

__all__ = ["brentq", "extension"]

_RTOL = 4 * sys.float_info.epsilon  # scipy's least rtol


def extension(name: str):
    """The compiled module scipy.<subpackage>.<ext> named by name, loaded
    alone on first use."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    import importlib.machinery
    import importlib.util
    import os
    # find_spec of a top-level name locates scipy without importing it
    scipy = importlib.util.find_spec("scipy")
    subpackage = name.split(".")[1]
    spec = None if scipy is None else importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, subpackage) for d in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"freebound needs scipy, whose extension {name} was not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def brentq(f, a, b, xtol=2e-12, rtol=_RTOL, maxiter=100) -> float:
    """A root of f in the sign-changing bracket [a, b] (either order), to
    within xtol + rtol*|root|, as scipy.optimize.brentq returns it, and
    raising what it raises."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def fx(x):
        v = float(f(x))
        if v != v:
            raise ValueError(f"The function value at x={x} is NaN; "
                             f"solver cannot continue.")
        return v

    # scipy.optimize.brentq's own call: no args, no full output, and a
    # RuntimeError when maxiter iterations do not converge
    return extension("scipy.optimize._zeros")._brentq(
        fx, a, b, xtol, rtol, maxiter, (), False, True)
