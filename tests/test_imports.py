"""Importing the package loads numpy and no scipy module at all, and
compiles no shooting kernel: every CLI command pays its import in a fresh
interpreter.  The first root loads scipy's brentq extension
scipy.optimize._zeros and no other scipy module, and the commands that
need no Stefan run (eigen, semiwave, wave, and classify and asymptotics of
a saved run) load nothing more; neither they nor evaluating a profile load
numpy.ma.  The first Stefan kernel loads LAPACK's extension
scipy.linalg._flapack; sweep and a threshold on more than one worker
load it in the parent before their pools fork, so that the workers
inherit it.  Neither importing the package nor a threshold on one worker
loads multiprocessing.  Each extension loaded alone gives the bits its
scipy package gives, and a later import of the package reuses it."""

import os
import subprocess
import sys

import pytest

import freebound as fb
from freebound.cli import main

TINY_CFG = "beta = 0.5\nmu = 2\nh0 = 4.2\nnx = 100\ntmax = 12\n"

# run in a fresh interpreter, where nothing else has imported scipy yet;
# argv: the run directory simulate wrote, a scratch directory
CHECK = """
import contextlib, io, os, sys
import numpy as np
import freebound, freebound.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), f"importing freebound loaded {scipy_modules()}"
# the shooting kernel's step functions are compiled on first use
kernels = freebound.waves._kernel.cache_info().currsize
assert kernels == 0, f"importing freebound compiled {kernels} step functions"
w = freebound.shoot_semi_wave(0.5, 0.0, freebound.logistic())
assert freebound.waves._kernel.cache_info().currsize == 1
ZEROS = ["scipy.optimize._zeros"]
assert scipy_modules() == ZEROS, f"the first root loaded {scipy_modules()}"
q = freebound.profile_interpolator(w)(w.z)
assert np.allclose(q, w.q, rtol=0.0, atol=1e-12)
assert scipy_modules() == ZEROS, f"evaluating a profile loaded {scipy_modules()}"
assert "numpy.ma" not in sys.modules, "evaluating a profile loaded numpy.ma"

run, scratch = sys.argv[1], sys.argv[2]
trajectory = os.path.join(run, "trajectory.csv")
commands = [
    ["eigen", "--ell", "2", "--beta", "0.5"],
    ["eigen", "--find-lstar", "--beta", "0.5", "--a", "1", "--b", "1"],
    ["semiwave", "--beta", "0.5", "--mu", "2"],
    ["wave", "--kind", "stationary", "--beta", "0.5",
     "--out", os.path.join(scratch, "wave.csv")],
    ["classify", "--trajectory", trajectory],
    ["asymptotics", "--trajectory", trajectory, "--snapshots", run],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert freebound.cli.main(argv) == 0, argv
    assert scipy_modules() == ZEROS, f"{argv[0]} loaded {scipy_modules()}"
    assert "numpy.ma" not in sys.modules, f"{argv[0]} loaded numpy.ma"

with contextlib.redirect_stdout(io.StringIO()):
    assert freebound.cli.main(["simulate", "--config", os.path.join(run, "tiny.cfg"),
                               "--out", os.path.join(scratch, "run")]) == 0
assert scipy_modules() == ["scipy.linalg._flapack", *ZEROS], f"simulate loaded {scipy_modules()}"
print("ok")
"""

# a fresh parent binds LAPACK before its pool forks
SWEEP = """
import contextlib, io, sys
import freebound.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules()
with contextlib.redirect_stdout(io.StringIO()):
    assert freebound.cli.main(["sweep", "--config", sys.argv[1], "--betas", "0.5,1",
                               "--workers", "2", "--out", sys.argv[2]]) == 0
assert scipy_modules() == ["scipy.linalg._flapack"], f"sweep's parent loaded {scipy_modules()}"
print("ok")
"""

# no multiprocessing on import, nor for a threshold on one worker
NO_MULTIPROCESSING = """
import sys
import freebound as fb

assert "multiprocessing" not in sys.modules, "importing freebound loaded multiprocessing"
n = fb.logistic()
lstar = fb.critical_length(0.5, 1.0, 0.0, n.fp0)
spec = fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=0.0, h0=0.5 * lstar,
                      nonlinearity=n, nx=50, dt=0.01)
assert fb.mu_threshold(spec, (0.5, 4.0), 2.0, workers=1).note == "bracketed"
assert "multiprocessing" not in sys.modules, "one worker loaded multiprocessing"
print("ok")
"""

# a fresh parent binds LAPACK before a threshold's pool forks; argv: a
# threshold config
THRESHOLD = """
import contextlib, io, os, sys
import freebound.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules()
bound = []
os.register_at_fork(before=lambda: bound.append("scipy.linalg._flapack" in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    assert freebound.cli.main(["threshold", "--param", "mu", "--config", sys.argv[1],
                               "--tol", "0.5", "--workers", "2"]) == 0
assert bound == [True, True], f"LAPACK bound at each fork: {bound}"
assert scipy_modules() == ["scipy.linalg._flapack", "scipy.optimize._zeros"], \
    f"threshold's parent loaded {scipy_modules()}"
print("ok")
"""

# argv: "first" to import scipy.linalg before the run, "never" not to; prints
# the sha256 of a Robin run's trajectory and snapshots
TRAJECTORY = """
import hashlib, sys
import numpy as np
if sys.argv[1] == "first":
    import scipy.linalg
import freebound as fb

spec = fb.ProblemSpec(beta=0.7, mu=2.0, a=1.0, b=0.5, h0=3.0,
                      nonlinearity=fb.logistic(), nx=120, tmax=3.0)
traj = fb.simulate(spec, snapshot_times=(1.5,))
digest = hashlib.sha256()
for series in (traj.times, traj.h, traj.hprime, traj.supu, traj.eta):
    digest.update(series.tobytes())
for t, x, u in traj.snapshots:
    digest.update(np.array([t]).tobytes() + x.tobytes() + u.tobytes())
assert ("scipy.linalg" in sys.modules) == (sys.argv[1] == "first")
print(digest.hexdigest())
"""

# a run, then scipy.linalg imported: scipy reuses the extension the run loaded
LATER_IMPORT = """
import sys
import freebound as fb

fb.simulate(fb.ProblemSpec(beta=0.5, mu=2.0, a=1.0, b=0.0, h0=3.0,
                           nonlinearity=fb.logistic(), nx=50, tmax=0.5))
flapack = sys.modules["scipy.linalg._flapack"]
import scipy.linalg
import scipy.linalg.lapack
assert sys.modules["scipy.linalg._flapack"] is flapack
assert scipy.linalg.lapack.dgtsv is flapack.dgtsv
assert fb._scipy.extension("scipy.linalg._flapack") is flapack
print("ok")
"""

# argv: "first" to import scipy.optimize before the roots, "never" not to;
# prints the hex of a Robin zeta1, a semi-wave's event root and a c_tilde
ROOTS = """
import sys
if sys.argv[1] == "first":
    import scipy.optimize
import freebound as fb

n = fb.logistic()
roots = [fb.principal_eigenvalue(fb.EigenProblem(2.0, 0.5, 1.0, 1.0, 1.0)).zeta1,
         fb.shoot_semi_wave(0.5, 0.0, n, samples=False).z[-1],
         fb.spreading_speed(0.5, 2.0, n).c_tilde]
assert ("scipy.optimize" in sys.modules) == (sys.argv[1] == "first")
print(" ".join(float(r).hex() for r in roots))
"""

# a root, then scipy.optimize imported: scipy reuses the extension the root loaded
LATER_OPTIMIZE = """
import sys
import freebound as fb

fb.shoot_semi_wave(0.5, 0.0, fb.logistic(), samples=False)
zeros = sys.modules["scipy.optimize._zeros"]
import scipy.optimize
import scipy.optimize._zeros_py
assert sys.modules["scipy.optimize._zeros"] is zeros
assert scipy.optimize._zeros_py._zeros is zeros
assert fb._scipy.extension("scipy.optimize._zeros") is zeros
print("ok")
"""


def _run_fresh(code, *argv):
    src = os.path.dirname(os.path.dirname(fb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def _fresh(code, *argv):
    assert _run_fresh(code, *argv) == "ok"


def test_only_stefan_runs_load_scipy(tmp_path):
    run = tmp_path / "saved"
    run.mkdir()
    (run / "tiny.cfg").write_text(TINY_CFG)
    assert main(["simulate", "--config", str(run / "tiny.cfg"), "--snapshots", "10,12",
                 "--out", str(run)]) == 0
    _fresh(CHECK, run, tmp_path)


def test_sweep_binds_lapack_before_its_pool_forks(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("beta = 0.5\nmu = 2\nh0 = 4.2\nnx = 50\ntmax = 1\n")
    _fresh(SWEEP, cfg, tmp_path / "sweep.csv")


def test_multiprocessing_is_loaded_only_for_a_pool():
    _fresh(NO_MULTIPROCESSING)


def test_threshold_binds_lapack_before_its_pool_forks(tmp_path):
    cfg = tmp_path / "thr.cfg"
    cfg.write_text("beta = 0.5\nmu = 1\nh0 = 1.6\nnx = 100\ndt = 0.002\ntmax = 50\n")
    _fresh(THRESHOLD, cfg)


def test_runs_give_the_same_bits_whether_scipy_linalg_is_imported_or_not():
    never, first = (_run_fresh(TRAJECTORY, when) for when in ("never", "first"))
    assert len(never) == 64 and never == first


def test_scipy_linalg_imported_after_a_run_reuses_its_extension():
    _fresh(LATER_IMPORT)


def test_lapack_without_scipy_is_an_import_error_naming_scipy(monkeypatch):
    # None in sys.modules makes a name unimportable, and unfindable
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setitem(sys.modules, "scipy", None)
    with pytest.raises(ImportError, match="scipy"):
        fb._scipy.extension("scipy.linalg._flapack")


def test_roots_give_the_same_bits_whether_scipy_optimize_is_imported_or_not():
    never, first = (_run_fresh(ROOTS, when) for when in ("never", "first"))
    assert len(never.split()) == 3 and never == first


def test_scipy_optimize_imported_after_a_root_reuses_its_extension():
    _fresh(LATER_OPTIMIZE)


def test_brentq_without_scipy_is_an_import_error_naming_scipy(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._zeros", raising=False)
    monkeypatch.setitem(sys.modules, "scipy", None)
    with pytest.raises(ImportError, match="scipy"):
        fb.eigen.brentq(lambda x: x - 0.3, 0.0, 1.0)
