import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import freebound as fb
from freebound.cli import _classification_hint, main
from freebound.config import parse_config, nonlinearity_from_config, spec_from_config
from freebound.errors import ConfigError

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
    with pytest.raises(ConfigError, match="line 2: unknown key 'betta'"):
        parse_config("beta = 0.5\nbetta = 1.0\n")


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


def test_eigen_json(capsys):
    assert main(["eigen", "--ell", "1", "--beta", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["zeta1"] == pytest.approx(0.25 + np.pi**2 - 1.0, abs=1e-10)


def test_semiwave_domain_error_exit_code(capsys):
    assert main(["semiwave", "--beta", "-2.1", "--mu", "1"]) == 1
    assert "no spreading speed" in capsys.readouterr().err


def test_missing_config_exit_code(capsys):
    assert main(["simulate", "--config", "/nonexistent/x.cfg"]) == 2


def test_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("beta = 0.5\nwhat = 7\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, cfg_line", [
    (["eigen", "--ell", "nan", "--beta", "0"], None),
    (["eigen", "--beta", "inf", "--find-lstar"], None),
    (["simulate"], "beta = nan"),
])
def test_non_finite_input_exits_2(tmp_path, capsys, argv, cfg_line):
    if cfg_line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG.replace("beta = 0.5", cfg_line))
        argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]
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
    verdict, _, _ = _classification_hint(traj, spec)
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
