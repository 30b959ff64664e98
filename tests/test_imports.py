"""Importing the package loads numpy and no scipy module at all, and
compiles no shooting kernel: every CLI command pays its import in a fresh
interpreter.  The commands that need no Stefan run (eigen, semiwave, wave,
and classify and asymptotics of a saved run) load no scipy module either,
and neither does evaluating a profile.  LAPACK's dgtsv is imported by the
first Stefan kernel; sweep imports it in the parent before its pool forks,
so that the workers inherit it."""

import os
import subprocess
import sys

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
q = freebound.profile_interpolator(w)(w.z)
assert np.allclose(q, w.q, rtol=0.0, atol=1e-12)
assert not scipy_modules(), f"evaluating a profile loaded {scipy_modules()}"

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
    assert not scipy_modules(), f"{argv[0]} loaded {scipy_modules()}"

with contextlib.redirect_stdout(io.StringIO()):
    assert freebound.cli.main(["simulate", "--config", os.path.join(run, "tiny.cfg"),
                               "--out", os.path.join(scratch, "run")]) == 0
assert "scipy.linalg.lapack" in sys.modules, "simulate ran without LAPACK"
print("ok")
"""

# a fresh parent binds LAPACK before its pool forks
SWEEP = """
import contextlib, io, sys
import freebound.cli

assert "scipy" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert freebound.cli.main(["sweep", "--config", sys.argv[1], "--betas", "0.5,1",
                               "--workers", "2", "--out", sys.argv[2]]) == 0
assert "scipy.linalg.lapack" in sys.modules, "sweep's parent did not bind LAPACK"
print("ok")
"""


def _fresh(code, *argv):
    src = os.path.dirname(os.path.dirname(fb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


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
