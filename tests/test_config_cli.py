import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import freebound as fb
from freebound import cli, config
from freebound.cli import main
from freebound.config import parse_config, nonlinearity_from_config, spec_from_config
from freebound.errors import ConfigError, NumericalError

from oracles import reference_classification_hint

BASE_CFG = """\
# spreading run
beta = 0.5
mu = 2.0
a = 1
b = 0
h0 = 4.2
lambda = 1.0
nx = 200
tmax = 5
nonlinearity = logistic
"""


# ------------------------------------------------------------------- config

def test_parse_config_roundtrip():
    cfg = parse_config(BASE_CFG)
    assert cfg["beta"] == 0.5 and cfg["nx"] == 200
    assert cfg["nonlinearity"] == "logistic"


def test_unknown_key_rejected_with_line_number():
    # tol and snapshots are command-line options only: no command reads
    # them from a config
    for key, value in (("betta", "1.0"), ("tol", "0.01"), ("snapshots", "40, 80")):
        with pytest.raises(ConfigError, match=f"line 2: unknown key '{key}'"):
            parse_config(f"beta = 0.5\n{key} = {value}\n")


def test_duplicate_and_malformed_lines():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("beta = 0.5\nbeta = 1.0\n")
    with pytest.raises(ConfigError, match="expected"):
        parse_config("beta 0.5\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("beta = fast\n")


def test_nonlinearity_kinds():
    assert nonlinearity_from_config({"nonlinearity": "logistic"}).kind == "logistic"
    n = nonlinearity_from_config({"nonlinearity": "cubic", "gamma": 0.4})
    assert n.kind == "cubic"
    n = nonlinearity_from_config({"nonlinearity": "custom",
                                  "coefficients": [0.0, 1.0, 0.0, -1.0]})
    assert float(n.f(np.array(0.5))) == pytest.approx(0.375)
    with pytest.raises(ConfigError):
        nonlinearity_from_config({"nonlinearity": "cubic"})
    with pytest.raises(ConfigError):
        nonlinearity_from_config({"nonlinearity": "exotic"})


def test_spec_from_config_requires_core_keys():
    with pytest.raises(ConfigError, match="missing required key"):
        spec_from_config(parse_config("beta = 0.5\nmu = 1.0\nh0 = 2.0\n"))
    spec = spec_from_config(parse_config(BASE_CFG))
    assert spec.beta == 0.5 and spec.nx == 200


# ----------------------------------------------------------------------- cli

def test_version_subprocess():
    out = subprocess.run([sys.executable, "-m", "freebound", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == fb.__version__


def test_eigen_find_lstar(capsys):
    assert main(["eigen", "--find-lstar", "--beta", "0", "--a", "1",
                 "--b", "0", "--m", "1"]) == 0
    out = capsys.readouterr().out
    val = float(out.splitlines()[0].split("=")[1])
    assert val == pytest.approx(np.pi, abs=1e-6)


def test_eigen_find_lstar_just_below_c0(capsys):
    # l_star = pi/1e-4 is about 31416
    assert main(["eigen", "--find-lstar", "--beta", "1.99999999", "--a", "1",
                 "--b", "0", "--m", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["l_star"] == pytest.approx(np.pi / 1e-4, rel=1e-6)


@pytest.mark.parametrize("a, b, m, why", [
    ("-1", "0", "1", "need a, b >= 0 with a + b > 0"),
    ("0", "0", "1", "need a, b >= 0 with a + b > 0"),
    ("1", "-2", "1", "need a, b >= 0 with a + b > 0"),
    ("1", "0", "-1", "m = f'(0) must be positive"),
    ("1", "0", "0", "m = f'(0) must be positive"),
])
def test_eigen_find_lstar_bad_input_exits_2(capsys, a, b, m, why):
    assert main(["eigen", "--find-lstar", "--beta", "0.5", "--a", a, "--b", b,
                 "--m", m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {why}"]


def test_eigen_json(capsys):
    assert main(["eigen", "--ell", "1", "--beta", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["zeta1"] == pytest.approx(0.25 + np.pi**2 - 1.0, abs=1e-10)


@pytest.mark.parametrize("beta", ["0", "2", "5"])
def test_eigen_bracket_out_of_double_range_exits_2(capsys, beta):
    # the root bracket's ends scale as 1/ell: at ell = 1e-310 the right end
    # overflows for every A = a - b*beta/2 (here 1, 0 and -1.5)
    assert main(["eigen", "--ell", "1e-310", "--beta", beta, "--a", "1",
                 "--b", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: eigenvalue root at ell = 1e-310: the bracket [")
    assert line.endswith(", inf] is out of double range")


@pytest.mark.parametrize("ell, beta, why", [
    # s1 = -inf and beta^2/4 = inf
    ("2", "1e308", "zeta1 = nan"),
    # zeta1 = 3 is finite, the sampled eigenfunction overflows
    ("1e308", "5", "overflow encountered"),
])
def test_eigen_out_of_double_range_exits_2(capsys, ell, beta, why):
    assert main(["eigen", "--ell", ell, "--beta", beta, "--a", "1", "--b", "1",
                 "--m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and why in line


def test_semiwave_domain_error_exit_code(capsys):
    assert main(["semiwave", "--beta", "-2.1", "--mu", "1"]) == 1
    assert "no spreading speed" in capsys.readouterr().err


def test_semiwave_edge_error_names_the_drift_it_shot(capsys):
    # the first shot, at c = 0, has drift 1.999999, which {g:g} would print
    # as 2: a drift never shot (g >= c0 has no semi-wave)
    assert main(["semiwave", "--beta", "-1.999999", "--mu", "1"]) == 2
    err = capsys.readouterr().err
    assert f"drift g = {0.0 - -1.999999:.17g} broke down" in err
    assert "g = 2 " not in err


def test_missing_config_exit_code(capsys):
    assert main(["simulate", "--config", "/nonexistent/x.cfg"]) == 2


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("beta = 0.5\nwhat = 7\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1,nan,inf,-3", "-3", "abc", "2,"])
def test_simulate_refuses_bad_snapshot_times(tmp_path, capsys, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG)
    assert main(["simulate", "--config", str(cfg), f"--snapshots={value}",
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --snapshots must be a comma list of finite times >= 0, got {value!r}"]
    assert not (tmp_path / "o").exists()


# tmax / dt overflows to inf, and 1e20 steps is past numpy's index range:
# both are refused before anything is allocated
HUGE_RUNS = ["dt = 1e-300\ntmax = 1e300\n", "dt = 1e-10\ntmax = 1e10\n"]


@pytest.mark.parametrize("horizon", HUGE_RUNS)
def test_step_counts_no_array_holds_exit_2(tmp_path, capsys, horizon):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 0.5\nmu = 2\nh0 = 4.2\nnx = 100\n" + horizon)
    for argv in (["simulate", "--out", str(tmp_path / "o")],
                 ["threshold", "--param", "mu", "--tol", "0.1"]):
        assert main([*argv, "--config", str(cfg)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: tmax / dt = ")
        assert line.endswith("more than an array can hold: raise dt or lower tmax")


@pytest.mark.parametrize("horizon", HUGE_RUNS)
def test_sweep_writes_error_rows_for_step_counts_no_array_holds(tmp_path, capsys,
                                                                 horizon):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("beta = 0.5\nmu = 2\nh0 = 4.2\nnx = 100\n" + horizon)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--betas", "0.5,1", "--workers", "1",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[3:] for row in rows] == [["Error", "nan", "nan"]] * 2
    failures = json.loads(Path(f"{out}.errors.json").read_text())
    assert [f["index"] for f in failures] == [0, 1]
    assert all(f["type"] == "ConfigError" and "more than an array can hold"
               in f["message"] for f in failures)


NO_STEP = "beta = 0.5\nmu = 2\nh0 = 1\nnx = 100\ndt = 1e300\ntmax = 1e-300\n"
NO_STEP_WHY = "tmax / dt = 1e-300 / 1e+300 underflows to 0 steps: lower dt or raise tmax"


def test_runs_with_no_step_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(NO_STEP)
    for argv in (["simulate", "--out", str(tmp_path / "o")],
                 ["threshold", "--param", "mu", "--tol", "0.1"]):
        assert main([*argv, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {NO_STEP_WHY}"]
    assert not (tmp_path / "o").exists()


def test_sweep_writes_error_rows_for_runs_with_no_step(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(NO_STEP)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--betas", "0.5,1", "--workers", "1",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[3:] for row in rows] == [["Error", "nan", "nan"]] * 2
    failures = json.loads(Path(f"{out}.errors.json").read_text())
    assert [(f["index"], f["type"], f["message"]) for f in failures] == [
        (0, "ConfigError", NO_STEP_WHY), (1, "ConfigError", NO_STEP_WHY)]


# counts inside every bound whose arrays fit in no memory: the records of
# 1.2e15 steps (5e15 at threshold's horizon of 50) and a grid of 1e15
# points, all past the address space, so each allocation fails at once
# without touching memory
OVERSIZE_RUNS = [
    ("nx = 100\ndt = 1e-14\ntmax = 12\n",
     r"tmax / dt = [0-9.]+ / 1e-14 gives [0-9]+ steps, whose records do not fit "
     r"in memory: raise dt or lower tmax"),
    ("nx = 1000000000000000\ntmax = 12\n",
     r"nx = 1000000000000000 gives a grid of nx \+ 1 points that does not fit in "
     r"memory: lower nx"),
]


@pytest.mark.parametrize("size, why", OVERSIZE_RUNS)
def test_runs_that_fit_no_memory_exit_2(tmp_path, capsys, size, why):
    cfg = tmp_path / "run.cfg"
    # h0 below l_star, so threshold simulates
    cfg.write_text("beta = 0.5\nmu = 2\nh0 = 1\n" + size)
    for argv in (["simulate", "--out", str(tmp_path / "o")],
                 ["threshold", "--param", "mu", "--tol", "0.1"]):
        assert main([*argv, "--config", str(cfg)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert re.fullmatch(f"error: {why}", line), line
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("size, why", OVERSIZE_RUNS)
def test_sweep_writes_error_rows_for_runs_that_fit_no_memory(tmp_path, capsys,
                                                             size, why):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("beta = 0.5\nmu = 2\nh0 = 1\n" + size)
    out = tmp_path / "sweep.csv"
    # one worker: the ensemble of both cells is refused, and each cell gets
    # its error
    assert main(["sweep", "--config", str(cfg), "--betas", "0.5,1", "--workers", "1",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[3:] for row in rows] == [["Error", "nan", "nan"]] * 2
    failures = json.loads(Path(f"{out}.errors.json").read_text())
    assert [(f["index"], f["type"]) for f in failures] == [(0, "ConfigError"),
                                                           (1, "ConfigError")]
    assert all(re.fullmatch(why, f["message"]) for f in failures)


def test_simulate_outputs_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG)
    for sub in ("o1", "o2"):
        assert main(["simulate", "--config", str(cfg), "--snapshots", "2.5",
                     "--out", str(tmp_path / sub)]) == 0
    t1 = (tmp_path / "o1" / "trajectory.csv").read_bytes()
    t2 = (tmp_path / "o2" / "trajectory.csv").read_bytes()
    assert t1 == t2  # identical config -> byte-identical CSV
    header = t1.decode().splitlines()[0]
    assert header == "t,h,hprime,supu,eta"
    summary = json.loads((tmp_path / "o1" / "summary.json").read_text())
    assert summary["classification_hint"] in (
        "Spreading", "Vanishing", "VirtualSpreading", "VirtualVanishing",
        "Undetermined")
    snap = (tmp_path / "o1" / summary["snapshots"][0]["file"]).read_text()
    assert snap.splitlines()[0] == "x,u"


def test_classify_cli_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert main(["classify", "--trajectory", str(tmp_path / "o" / "trajectory.csv"),
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Spreading"  # h0=4.2 > l_star(0.5)


def test_asymptotics_cli(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG.replace("tmax = 5", "tmax = 12"))
    assert main(["simulate", "--config", str(cfg), "--snapshots", "10,12",
                 "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert main(["asymptotics", "--trajectory",
                 str(tmp_path / "o" / "trajectory.csv"),
                 "--snapshots", str(tmp_path / "o")]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("c_measured", "c_tilde", "H", "drift", "profile_errors"):
        assert key in report
    assert report["profile_errors"]


def test_wave_csv(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert main(["wave", "--kind", "right", "--c", "2.0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "z,q,qp"
    assert len(lines) > 1000
    assert main(["wave", "--kind", "right", "--c", "1.0", "--out", str(out)]) == 1


def test_sweep_empty_grid(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--betas", "",
                 "--out", str(out)]) == 0
    assert out.read_text() == "beta,mu,lambda,verdict,h_final,supu_final\n"


def test_sweep_grid_limit(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG)
    rc = main(["sweep", "--config", str(cfg), "--betas", "0:1:101",
               "--mus", "0:1:101", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_sweep_mu_column_flip(tmp_path, capsys):
    # below the critical length the mu column flips Vanishing -> Spreading
    cfg = tmp_path / "s.cfg"
    cfg.write_text("""\
beta = 0.5
mu = 1.0
a = 1
b = 0
h0 = 1.62
lambda = 1.0
nx = 250
dt = 2e-3
tmax = 60
nonlinearity = logistic
""")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--mus", "0.5,3.0",
                 "--out", str(out)]) == 0
    verdicts = [line.split(",")[3] for line in out.read_text().splitlines()[1:]]
    assert verdicts == ["Vanishing", "Spreading"]


def test_sweep_beta_column_transitions(tmp_path, capsys):
    # fixed large amplitude: Spreading below c0, VirtualSpreading between
    # c0 and beta*, Vanishing beyond beta*
    cfg = tmp_path / "s.cfg"
    cfg.write_text("""\
mu = 1.0
a = 1
b = 0
h0 = 3.0
lambda = 3.0
nx = 300
dt = 2e-3
tmax = 60
nonlinearity = logistic
beta = 0
""")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--betas", "0.5,2.5,4.5",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    verdicts = [r[3] for r in rows]
    assert verdicts == ["Spreading", "VirtualSpreading", "Vanishing"]


def test_sweep_solves_c_tilde_only_when_rule_3_reads_it(monkeypatch):
    calls = []
    real = cli.spreading_speed

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "spreading_speed", counting)
    base = parse_config("mu = 1.0\na = 1\nb = 0\nnx = 200\ndt = 2e-3\n"
                        "nonlinearity = logistic\n")
    cells = [  # (beta, lambda, h0, tmax), eager rule, lazy c_tilde solves
        ((0.5, 3.0, 3.0, 5.0), "front-beyond-critical-length", 0),
        ((4.5, 0.5, 2.0, 10.0), "decayed-and-stalled", 0),
        ((-2.5, 0.5, 2.0, 10.0), "decayed-and-stalled", 0),
        ((1.5, 0.5, 2.0, 2.0), "no-rule-fired", 0),  # beta < c0: no rule 3
        ((2.5, 3.0, 3.0, 5.0), "moving-window-outside-domain", 1),
    ]
    for (beta, lam, h0, tmax), rule, solves in cells:
        cfg = dict(base, beta=beta, h0=h0, tmax=tmax)
        cfg["lambda"] = lam
        calls.clear()
        (index, row, reason), = cli._sweep_chunk([(7, cfg)])
        assert (index, reason) == (7, None)
        assert len(calls) == solves
        spec = spec_from_config(cfg)
        eager, _, _ = reference_classification_hint(fb.simulate(spec), spec, {})
        assert eager.evidence["rule"] == rule
        assert row[0] == eager.verdict


def test_sweep_records_why_rows_failed(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG.replace("tmax = 5", "tmax = 0.5"))
    out = tmp_path / "sweep.csv"
    sidecar = tmp_path / "sweep.csv.errors.json"
    assert main(["sweep", "--config", str(cfg), "--mus", "1.0,-1.0",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows[0][3] != "Error"
    assert rows[1][3:] == ["Error", "nan", "nan"]
    failures = json.loads(sidecar.read_text())
    assert len(failures) == 1
    assert failures[0]["index"] == 1 and failures[0]["config"]["mu"] == -1.0
    assert failures[0]["type"] == "ConfigError"
    assert failures[0]["message"] == "h0 and mu must be positive"
    # a clean sweep leaves no sidecar, not even a stale one
    assert main(["sweep", "--config", str(cfg), "--mus", "1.0",
                 "--out", str(out)]) == 0
    assert not sidecar.exists()


@pytest.mark.parametrize("cells", [1, 2, 5, 16, 17, 40, 100])
@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_sweep_chunks_are_contiguous_bounded_and_fill_the_workers(cells, workers):
    items = list(range(cells))
    chunks = cli._sweep_chunks(items, workers)
    assert [i for chunk in chunks for i in chunk] == items
    assert all(1 <= len(chunk) <= cli.ENSEMBLE_MAX for chunk in chunks)
    assert len(chunks) % workers == 0 or len(chunks) == cells
    assert max(map(len, chunks)) - min(map(len, chunks)) <= 1


class _InProcessPool:
    """ProcessPoolExecutor's interface, mapping in this process."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class _SpyPool(_InProcessPool):
    """_InProcessPool that records the max_workers each pool was given."""

    started = []

    def __init__(self, max_workers=None):
        self.started.append(max_workers)


@pytest.mark.parametrize("betas, workers, cpus, started", [
    ("0.5", "3", 8, 1),       # one chunk: one worker, not three
    ("0.5,1.5", "3", 8, 2),
    ("0.5,1.5,2.5", "2", 8, 2),
    ("0.5", None, 3, 1),      # without --workers: the CPU count, capped
    ("0.5,1.5", None, 1, 1),
])
def test_sweep_starts_no_more_workers_than_chunks(tmp_path, monkeypatch, capsys,
                                                  betas, workers, cpus, started):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG.replace("tmax = 5", "tmax = 0.1"))
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _SpyPool)
    monkeypatch.setattr(_SpyPool, "started", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    argv = ["sweep", "--config", str(cfg), "--betas", betas,
            "--out", str(tmp_path / "sweep.csv")]
    if workers is not None:
        argv += ["--workers", workers]
    assert main(argv) == 0
    assert _SpyPool.started == [started]


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve started")


@pytest.mark.parametrize("flag, value, why", [
    ("--workers", "0", "--workers must be at least 1, got 0"),
    ("--workers", "-2", "--workers must be at least 1, got -2"),
    ("--betas", "nan", "--betas must be finite, got nan"),
    ("--betas", "0.5,inf", "--betas must be finite, got inf"),
    ("--mus", "nan:2:3", "--mus must be finite, got nan"),
    ("--lambdas", "1,-inf", "--lambdas must be finite, got -inf"),
])
def test_sweep_refuses_bad_flags_before_any_solve(tmp_path, monkeypatch, capsys,
                                                  flag, value, why):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG)
    for name in ("ProcessPoolExecutor", "simulate", "simulate_many"):
        monkeypatch.setattr(cli, name, _no_solve)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), f"{flag}={value}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {why}"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--betas", "0:1:x"),
    ("--betas", "0:1:-1"),
    ("--betas", "0:1:0"),
    ("--betas", "0:1:2.5"),
    ("--betas", "0:1"),
    ("--betas", "a,b"),
    ("--betas", ","),
    ("--mus", "0:1:3:4"),
    ("--mus", "1:2:10001"),
    ("--lambdas", "0.5,,x"),
])
def test_sweep_refuses_grids_that_do_not_parse(tmp_path, monkeypatch, capsys,
                                               flag, value):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG)
    for name in ("ProcessPoolExecutor", "simulate", "simulate_many"):
        monkeypatch.setattr(cli, name, _no_solve)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), f"{flag}={value}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flag} must be lo:hi:num with 1 <= num <= 10000 or a comma "
        f"list of numbers, got {value!r}"]
    assert not out.exists()


def _sweep_files(argv, out):
    assert main([*argv, "--out", str(out)]) == 0
    sidecar = Path(f"{out}.errors.json")
    return out.read_bytes(), sidecar.read_bytes() if sidecar.exists() else None


def test_sweep_with_a_failing_cell_writes_what_the_per_cell_path_writes(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    calls = []  # the betas of each simulate_many call
    ensemble = cli.simulate_many

    def recorded(specs):
        calls.append([s.beta for s in specs])
        return ensemble(specs)

    monkeypatch.setattr(cli, "simulate_many", recorded)

    # a run that fails (h' <= 0 at lambda = 1000) before a cell whose spec
    # is refused (u0 identically zero at lambda = 0): rows and sidecar read
    # in cell order, the refused cell outside the ensemble
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text("beta = 0.5\nmu = 2\nh0 = 4.2\nnx = 100\ntmax = 12\n")
    ordered = ["sweep", "--config", str(tiny), "--betas", "0.5",
               "--lambdas", "1000,0,1", "--workers", "1"]
    csv, sidecar = _sweep_files(ordered, tmp_path / "ordered.csv")
    assert calls == [[0.5, 0.5]]
    failures = json.loads(sidecar)
    assert [(f["index"], f["type"]) for f in failures] == [(0, "InvariantViolation"),
                                                           (1, "ConfigError")]
    assert "front speed h'" in failures[0]["message"]
    assert failures[1]["message"] == "u0 is identically zero: not an admissible profile"
    assert [row.split(",")[3] for row in csv.decode().splitlines()[1:]] == [
        "Error", "Error", "Spreading"]

    # on (0.9, 1) the reaction sinks at -2000 u, as in the clamp floor test:
    # cells whose density grows past 0.9 break the floor mid-run
    cfg = tmp_path / "s.cfg"
    cfg.write_text("beta = 0.5\nmu = 1.0\na = 1\nb = 0\nh0 = 6\nnx = 200\n"
                   "dt = 2e-3\ntmax = 6\n")
    argv = ["sweep", "--config", str(cfg), "--betas=-3,0.5,1.5",
            "--lambdas", "0.5,0.85", "--workers", "1"]
    betas = [-3.0, -3.0, 0.5, 0.5, 1.5, 1.5]
    calls.clear()
    healthy_csv, healthy_sidecar = _sweep_files(argv, tmp_path / "healthy.csv")
    assert healthy_sidecar is None and calls == [betas]

    logistic = fb.logistic()
    sink = fb.Nonlinearity(
        f=lambda u: np.where((u > 0.9) & (u < 1.0), -2000.0 * u, logistic.f(u)),
        fprime=logistic.fprime, fp0=1.0, kind="logistic")
    monkeypatch.setattr(config, "logistic", lambda: sink)
    calls.clear()
    together = _sweep_files(argv, tmp_path / "together.csv")
    assert calls == [betas]  # one ensemble for the chunk, each cell run once
    monkeypatch.setattr(cli, "ENSEMBLE_MAX", 1)
    calls.clear()
    alone = _sweep_files(argv, tmp_path / "alone.csv")
    assert calls == [[beta] for beta in betas]
    assert together == alone

    rows = together[0].decode().splitlines()[1:]
    failures = json.loads(together[1])
    failed = [f["index"] for f in failures]
    assert failed == [i for i, row in enumerate(rows) if ",Error," in row]
    assert 0 < len(failed) < len(rows)
    for f in failures:
        assert f["type"] == "NumericalError" and "below clamp floor" in f["message"]
        t_fail = float(re.search(r"at t = ([0-9.]+)", f["message"]).group(1))
        assert t_fail > 1.0  # mid-run, after the ensemble had stepped
    healthy_rows = healthy_csv.decode().splitlines()[1:]
    for i, row in enumerate(rows):
        if i not in failed:
            assert row == healthy_rows[i]


def _l_star_fails(*args):
    raise NumericalError("l_star: stubbed failure")


def test_sweep_records_the_hints_it_dropped(tmp_path, monkeypatch, capsys):
    # l_star's solve fails: each cell is classified without it, and the
    # sidecar says so
    monkeypatch.setattr(cli, "critical_length", _l_star_fails)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG.replace("tmax = 5", "tmax = 0.5"))
    argv = ["sweep", "--config", str(cfg), "--betas", "1.99999999",
            "--lambdas", "0.5,2", "--workers", "1"]
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    together = _sweep_files(argv, tmp_path / "together.csv")
    monkeypatch.setattr(cli, "ENSEMBLE_MAX", 1)
    alone = _sweep_files(argv, tmp_path / "alone.csv")
    assert together == alone
    csv, sidecar = together
    assert b"Error" not in csv
    assert csv.decode().splitlines()[0] == "beta,mu,lambda,verdict,h_final,supu_final"
    failures = json.loads(sidecar)
    assert [(f["index"], f["config"]["lambda"]) for f in failures] == [(0, 0.5), (1, 2.0)]
    for f in failures:
        assert f["hint"] == "l_star" and f["config"]["beta"] == 1.99999999
        assert f["type"] == "NumericalError"
        assert f["message"] == "l_star: stubbed failure"
    assert "(0 failed cells, 2 dropped hints)" in capsys.readouterr().out


def test_sweep_chunk_solves_each_hint_once(monkeypatch):
    # the chunk's cells share one reaction term, whose results table solves
    # c_tilde once per (beta, mu) at rule 3; l_star is solved for each cell
    shots, lengths = [], []
    shoot, length = fb.waves.shoot_semi_wave, cli.critical_length

    def counted_shot(*args, **kwargs):
        shots.append(args)
        return shoot(*args, **kwargs)

    def counted_length(*args):
        lengths.append(args[:2])
        return length(*args)

    monkeypatch.setattr(fb.waves, "shoot_semi_wave", counted_shot)
    monkeypatch.setattr(cli, "critical_length", counted_length)
    for mu in (1.0, 2.0):
        fb.spreading_speed(2.5, mu, fb.logistic())
    solves = len(shots)    # one cold Newton solve at (2.5, 1) and at (2.5, 2)
    shots.clear()
    base = parse_config("a = 1\nb = 0\nh0 = 3.0\nnx = 200\ndt = 2e-3\ntmax = 5.0\n"
                        "nonlinearity = logistic\n")
    chunk = []
    for beta in (0.5, 2.5):
        for mu in (1.0, 2.0):
            for lam in (2.0, 3.0):
                cfg = dict(base, beta=beta, mu=mu)
                cfg["lambda"] = lam
                chunk.append((10 + len(chunk), cfg))
    rows = cli._sweep_chunk(chunk)
    assert len(shots) == solves
    assert lengths == [(0.5, 1.0)] * 4

    shots.clear()
    lengths.clear()
    for (index, cfg), (i, row, reason) in zip(chunk, rows, strict=True):
        spec = spec_from_config(cfg)
        traj = fb.simulate(spec)
        verdict = cli._verdict(traj, spec, {})
        assert (i, reason) == (index, None)
        assert row == (verdict.verdict, float(traj.h[-1]), float(traj.supu[-1]))
    # cell by cell, each cell has its own term: every beta = 2.5 cell
    # reaches rule 3 and solves c_tilde
    assert len(shots) == 2 * solves
    assert lengths == [(0.5, 1.0)] * 4


@pytest.mark.parametrize("argv, cfg_line", [
    (["eigen", "--ell", "nan", "--beta", "0"], None),
    (["eigen", "--beta", "inf", "--find-lstar"], None),
    (["simulate", "--config", "run.cfg", "--out", "o"], "beta = nan"),
    (["simulate", "--config", "run.cfg", "--out", "o"], "lambda = nan"),
    (["wave", "--kind", "right", "--c", "nan"], None),
    (["wave", "--kind", "stationary", "--beta", "nan"], None),
    (["threshold", "--param", "mu", "--config", "run.cfg", "--tol", "nan"], None),
])
def test_non_finite_input_exits_2(tmp_path, monkeypatch, capsys, argv, cfg_line):
    monkeypatch.chdir(tmp_path)
    text = BASE_CFG
    if cfg_line is not None:
        key = cfg_line.split(" = ")[0]
        text = re.sub(rf"(?m)^{key} = .*$", cfg_line, text)
    (tmp_path / "run.cfg").write_text(text)
    assert main(argv) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("coefficients, code, message", [
    ("0, 1, 1", 2, "roots_at_0_and_1"),   # f(1) = 2
    ("0, 1, 0, -1", 0, ""),               # u - u^3 is admissible
])
def test_custom_reaction_term_validated_on_load(tmp_path, capsys, coefficients,
                                                code, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG.replace("nonlinearity = logistic",
                                    "nonlinearity = custom\n"
                                    f"coefficients = {coefficients}"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    assert message in capsys.readouterr().err


def test_semiwave_custom_reaction_term(capsys):
    argv = ["semiwave", "--beta", "0.5", "--mu", "1", "--nonlinearity", "custom",
            "--coefficients", "0,1,0,-1", "--json"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    n = fb.from_coefficients([0.0, 1.0, 0.0, -1.0])
    assert out["c_tilde"] == fb.spreading_speed(0.5, 1.0, n).c_tilde
    assert out["residual"] < 1e-8


def test_semiwave_refuses_inadmissible_custom_term_before_any_shot(monkeypatch,
                                                                   capsys):
    def shot(*args, **kwargs):
        raise AssertionError("a shot was made for an inadmissible term")

    monkeypatch.setattr(fb.waves, "_shoot", shot)
    assert main(["semiwave", "--beta", "0.5", "--mu", "1", "--nonlinearity",
                 "custom", "--coefficients", "0,1,1"]) == 2
    assert "roots_at_0_and_1" in capsys.readouterr().err


def test_simulate_keeps_c_tilde_when_l_star_fails(tmp_path, monkeypatch, capsys):
    # l_star's solve fails while c_tilde still exists: each hint stands on
    # its own
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG)

    def summary():
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        return json.loads((out / "summary.json").read_text())

    assert "hint_errors" not in summary()
    monkeypatch.setattr(cli, "critical_length", _l_star_fails)
    failed = summary()
    assert failed["l_star"] is None
    assert failed["c_tilde"] == fb.spreading_speed(0.5, 2.0, fb.logistic()).c_tilde
    assert failed["hint_errors"] == {"l_star": {
        "type": "NumericalError", "message": "l_star: stubbed failure"}}


def test_run_directory_reload_matches_in_memory_run(tmp_path, capsys):
    # classify and asymptotics read back exactly what simulate computed:
    # 17-digit CSVs and the JSON summary round-trip every double
    text = BASE_CFG.replace("tmax = 5", "tmax = 12")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--snapshots", "10,12",
                 "--out", str(out)]) == 0
    snapdir = tmp_path / "snaps"   # --snapshots may point anywhere
    snapdir.mkdir()
    for path in out.glob("snapshot_t*.csv"):
        shutil.copy(path, snapdir)
    capsys.readouterr()
    assert main(["classify", "--trajectory", str(out / "trajectory.csv"),
                 "--json"]) == 0
    classified = json.loads(capsys.readouterr().out)
    assert main(["asymptotics", "--trajectory", str(out / "trajectory.csv"),
                 "--snapshots", str(snapdir)]) == 0
    report = json.loads(capsys.readouterr().out)

    spec = spec_from_config(parse_config(text))
    traj = fb.simulate(spec, snapshot_times=[10.0, 12.0])
    verdict, _, _ = reference_classification_hint(traj, spec, {})
    assert classified == json.loads(json.dumps(
        {"verdict": verdict.verdict, "evidence": verdict.evidence}))
    sr = fb.spreading_speed(spec.beta, spec.mu, spec.nonlinearity)
    fit = fb.fit_speed(traj, sr.c_tilde)
    vt = fb.stationary_increasing(spec.beta, spec.a, spec.b, spec.nonlinearity)
    errors = [{"t": snap[0], "sup_error": fb.profile_error(
        snap, spec, sr.c_tilde, fit.H, vt, sr.profile)}
        for snap in traj.snapshots if snap[0] >= fit.window[0]]
    assert errors
    assert report == json.loads(json.dumps(
        {"c_measured": fit.c_measured, "c_tilde": sr.c_tilde, "H": fit.H,
         "drift": fit.drift, "profile_errors": errors}))


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A simulate run directory with one snapshot, made once per module."""
    base = tmp_path_factory.mktemp("run")
    cfg = base / "run.cfg"
    cfg.write_text(BASE_CFG)
    assert main(["simulate", "--config", str(cfg), "--snapshots", "2.5",
                 "--out", str(base / "o")]) == 0
    return base / "o"


def _drop_config(out):
    summary = json.loads((out / "summary.json").read_text())
    del summary["config"]
    (out / "summary.json").write_text(json.dumps(summary))


def _keep_one_row(out):
    path = out / "trajectory.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")


def _keep_three_columns(out):
    path = out / "trajectory.csv"
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + [",".join(r.split(",")[:3]) for r in rows]) + "\n")


def _rename_columns(out):
    path = out / "trajectory.csv"
    header, rest = path.read_text().split("\n", 1)
    path.write_text("time,front,speed,sup,eta\n" + rest)


def _snapshot_without_file(out):
    summary = json.loads((out / "summary.json").read_text())
    summary["snapshots"] = [{"t": 2.5}]
    (out / "summary.json").write_text(json.dumps(summary))


@pytest.mark.parametrize("spoil", [_drop_config, _keep_one_row,
                                   _keep_three_columns, _rename_columns,
                                   _snapshot_without_file])
def test_malformed_run_directory_exits_2_with_one_error_line(
        run_dir, tmp_path, capsys, spoil):
    out = tmp_path / "o"
    shutil.copytree(run_dir, out)
    spoil(out)
    capsys.readouterr()
    trajectory = str(out / "trajectory.csv")
    for argv in (["classify", "--trajectory", trajectory],
                 ["asymptotics", "--trajectory", trajectory, "--snapshots", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


def test_summary_that_is_not_json_is_named_in_the_error(run_dir, tmp_path, capsys):
    out = tmp_path / "o"
    shutil.copytree(run_dir, out)
    (out / "summary.json").write_text("nope")
    capsys.readouterr()
    trajectory = str(out / "trajectory.csv")
    for argv in (["classify", "--trajectory", trajectory],
                 ["asymptotics", "--trajectory", trajectory, "--snapshots", str(out)]):
        assert main(argv) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(out / "summary.json") in line


@pytest.mark.parametrize("key, value", [
    ("l_star", True), ("l_star", "x"), ("l_star", [1]), ("l_star", 10**400),
    ("c_tilde", False), ("c_tilde", float("nan")),
    ("snapshots", [{"t": True, "file": "x.csv"}]), ("snapshots", [])])
def test_summary_classify_cannot_read_is_refused(run_dir, tmp_path, capsys,
                                                 key, value):
    # a hint that is not null or a finite float, a boolean snapshot time and
    # an empty snapshot list (simulate always writes the final profile)
    out = tmp_path / "o"
    shutil.copytree(run_dir, out)
    summary = json.loads((out / "summary.json").read_text())
    summary[key] = value
    (out / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    trajectory = str(out / "trajectory.csv")
    for argv in (["classify", "--trajectory", trajectory],
                 ["asymptotics", "--trajectory", trajectory, "--snapshots", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and str(out / "summary.json") in line
        assert line.endswith("(rerun simulate)")


def test_simulate_takes_one_snapshot_per_step(tmp_path, capsys):
    # three requested times inside one nominal step: one snapshot, and the
    # final one at tmax
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG)
    assert main(["simulate", "--config", str(cfg), "--snapshots", "2.5,2.5000001,2.5",
                 "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out.rstrip().endswith("2 snapshot(s)")
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    files = [entry["file"] for entry in summary["snapshots"]]
    assert len(files) == len(set(files)) == 2
    assert sorted(p.name for p in (tmp_path / "o").glob("snapshot_t*.csv")) == sorted(files)


def test_classify_config_uses_the_configs_own_hints(run_dir, tmp_path, capsys):
    # the run is Dirichlet (b = 0); a config with b = 1 has its own l_star
    trajectory = str(run_dir / "trajectory.csv")
    cfg = tmp_path / "robin.cfg"
    cfg.write_text(BASE_CFG.replace("b = 0", "b = 1"))
    capsys.readouterr()
    assert main(["classify", "--trajectory", trajectory, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["evidence"]["lstar"] == \
        fb.critical_length(0.5, 1.0, 0.0, 1.0)
    assert main(["classify", "--trajectory", trajectory, "--config", str(cfg),
                 "--json"]) == 0
    lstar = json.loads(capsys.readouterr().out)["evidence"]["lstar"]
    assert lstar == fb.critical_length(0.5, 1.0, 1.0, 1.0)
    assert lstar == pytest.approx(2.3030, abs=1e-4)


def test_classify_reads_the_run_hints_without_solving_them(run_dir, monkeypatch,
                                                           capsys):
    # without --config, classify takes l_star and c_tilde from summary.json
    argv = ["classify", "--trajectory", str(run_dir / "trajectory.csv"), "--json"]
    capsys.readouterr()
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(cli, "critical_length", _l_star_fails)
    monkeypatch.setattr(cli, "spreading_speed", _l_star_fails)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_threshold_json_says_why_each_run_stopped(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASE_CFG.replace("mu = 2.0", "mu = 1.0")
                   .replace("h0 = 4.2", "h0 = 1.6223")
                   .replace("tmax = 5", "tmax = 50\ndt = 0.002"))
    argv = ["threshold", "--param", "mu", "--config", str(cfg),
            "--tol", "0.5", "--lo", "0.5", "--hi", "4"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out) == ["bracket", "history", "note", "parameter", "runs",
                           "stops", "width"]
    assert len(out["stops"]) == out["runs"]
    assert [s[0] for s in out["stops"]] == [v for v, _ in out["history"]]
    for (value, verdict), (_, rule, t_stop, slack) in zip(out["history"],
                                                          out["stops"]):
        if verdict == "Spreading":
            assert rule == "front-beyond-critical-length" and slack is None
        else:
            assert rule == "vanishing-certificate" and slack >= 0.05
        assert 0.0 < t_stop < 50.0
