"""The package imports numpy and scipy.linalg's LAPACK, not scipy's heavy
subpackages, and compiles no shooting kernel: every CLI command pays its
import in a fresh interpreter.  Evaluating a profile loads no scipy
subpackage either."""

import os
import subprocess
import sys

import freebound as fb

# run in a fresh interpreter, where nothing else has imported scipy yet
CHECK = """
import sys
import numpy as np
import freebound, freebound.cli
heavy = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")
loaded = [m for m in heavy if m in sys.modules]
assert not loaded, f"importing freebound loaded {loaded}"
# the shooting kernel's step functions are compiled on first use
kernels = freebound.waves._kernel.cache_info().currsize
assert kernels == 0, f"importing freebound compiled {kernels} step functions"
w = freebound.shoot_semi_wave(0.5, 0.0, freebound.logistic())
assert freebound.waves._kernel.cache_info().currsize == 1
q = freebound.profile_interpolator(w)(w.z)
assert np.allclose(q, w.q, rtol=0.0, atol=1e-12)
assert "scipy.interpolate" not in sys.modules
print("ok")
"""


def test_import_loads_no_heavy_scipy_subpackage():
    src = os.path.dirname(os.path.dirname(fb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", CHECK], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
