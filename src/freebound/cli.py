"""Command-line entry point.

Subcommands: eigen, semiwave, wave, simulate, classify, threshold,
asymptotics, sweep.  All numerics are deterministic; CSV files carry full
double precision (17 significant digits) so downstream refinement checks
lose nothing.  Exit status: 0 success, 1 domain error (the requested
object does not exist), 2 numerical failure or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import fit_speed, profile_error
from .classify import classify
from .config import ConfigError, load_config, nonlinearity_from_config, spec_from_config
from .eigen import EigenProblem, critical_length, critical_length_no_advection, principal_eigenvalue
from .errors import DomainError, FreeboundError, NumericalError
from .stefan import Trajectory, simulate
from .thresholds import lambda_threshold, mu_threshold
from .waves import (
    finite_wave,
    spreading_speed,
    stationary_increasing,
    tadpole_wave,
    traveling_wave,
)

FMT = "%.17g"


def _write_csv(path, header, columns):
    rows = np.column_stack(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(FMT % v for v in row) + "\n")


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _nonlinearity_from_args(args):
    cfg = {"nonlinearity": args.nonlinearity}
    if args.gamma is not None:
        cfg["gamma"] = args.gamma
    return nonlinearity_from_config(cfg)


def _cmd_eigen(args):
    if args.find_lstar:
        ls = critical_length(args.beta, args.a, args.b, args.m)
        lsub = critical_length_no_advection(args.beta, args.a, args.b, args.m)
        _emit(args, {"l_star": ls, "l_substar": lsub},
              f"l_star = {ls:.12g}\nl_substar = {lsub:.12g}")
        return 0
    if args.ell is None:
        raise ConfigError("eigen needs --ell (or --find-lstar)")
    res = principal_eigenvalue(EigenProblem(ell=args.ell, beta=args.beta,
                                            a=args.a, b=args.b, m=args.m))
    _emit(args, {"zeta1": res.zeta1}, f"zeta1 = {res.zeta1:.12g}")
    return 0


def _cmd_semiwave(args):
    n = _nonlinearity_from_args(args)
    res = spreading_speed(args.beta, args.mu, n)
    if args.profile_out:
        _write_csv(args.profile_out, "z,q,qp",
                   (res.profile.z, res.profile.q, res.profile.qp))
    _emit(args, {"c_tilde": res.c_tilde, "residual": res.residual},
          f"c_tilde = {res.c_tilde:.12g}\nresidual = {res.residual:.3e}")
    return 0


def _cmd_wave(args):
    n = _nonlinearity_from_args(args)
    if args.kind in ("left", "right"):
        if args.c is None:
            raise ConfigError(f"wave --kind {args.kind} needs --c")
        prof = traveling_wave(args.c, args.kind, n)
    elif args.kind == "finite":
        if args.c is None:
            raise ConfigError("wave --kind finite needs --c")
        prof = finite_wave(args.c, args.beta, args.mu, n)
    elif args.kind == "tadpole":
        prof = tadpole_wave(args.beta, args.mu, n)
    else:
        prof = stationary_increasing(args.beta, args.a, args.b, n)
    _write_csv(args.out, "z,q,qp", (prof.z, prof.q, prof.qp))
    meta = {"kind": prof.kind, "speed": prof.speed, "slope0": prof.slope0,
            "endpoint": prof.endpoint, "file": str(args.out)}
    _emit(args, meta, f"wrote {args.out} ({prof.kind}, {len(prof.z)} samples)")
    return 0


def _classification_hint(traj, spec):
    n = spec.nonlinearity
    lstar = ctilde = None
    try:
        if abs(spec.beta) < n.c0:
            lstar = critical_length(spec.beta, spec.a, spec.b, n.fp0)
        if spec.beta > -n.c0:
            ctilde = spreading_speed(spec.beta, spec.mu, n).c_tilde
    except FreeboundError:
        pass
    verdict = classify(traj, spec, lstar=lstar, ctilde=ctilde)
    return verdict, lstar, ctilde


def _cmd_simulate(args):
    cfg = load_config(args.config)
    spec = spec_from_config(cfg)
    snap_times = [float(s) for s in args.snapshots.split(",")] if args.snapshots else []
    traj = simulate(spec, snapshot_times=snap_times)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "trajectory.csv", "t,h,hprime,supu,eta",
               (traj.times, traj.h, traj.hprime, traj.supu, traj.eta))
    snap_files = []
    for t, x, u in traj.snapshots:
        name = f"snapshot_t{t:.6f}.csv"
        _write_csv(outdir / name, "x,u", (x, u))
        snap_files.append({"t": t, "file": name})

    verdict, lstar, ctilde = _classification_hint(traj, spec)
    summary = {
        "config": cfg,
        "h_final": float(traj.h[-1]),
        "supu_final": float(traj.supu[-1]),
        "hprime_final": float(traj.hprime[-1]),
        "classification_hint": verdict.verdict,
        "l_star": lstar,
        "c_tilde": ctilde,
        "snapshots": snap_files,
    }
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    _emit(args, summary,
          f"h({spec.tmax:g}) = {traj.h[-1]:.8g}, sup u = {traj.supu[-1]:.3e}, "
          f"hint = {verdict.verdict}\nwrote {outdir}/trajectory.csv, summary.json, "
          f"{len(snap_files)} snapshot(s)")
    return 0


def _load_run(trajectory_path, snapshot_dir):
    """(Trajectory, summary) of a simulate output directory.

    summary.json sits next to trajectory.csv; the snapshot CSVs it lists
    are read from snapshot_dir.
    """
    data = np.loadtxt(trajectory_path, delimiter=",", skiprows=1)
    summary_path = Path(trajectory_path).parent / "summary.json"
    try:
        with open(summary_path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
    except OSError as exc:
        raise ConfigError(
            f"missing {summary_path} next to the trajectory (rerun simulate)") from exc
    snapshots = []
    for entry in summary.get("snapshots", []):
        snap = np.loadtxt(Path(snapshot_dir) / entry["file"], delimiter=",", skiprows=1)
        snapshots.append((entry["t"], snap[:, 0], snap[:, 1]))
    traj = Trajectory(times=data[:, 0], h=data[:, 1], hprime=data[:, 2],
                      supu=data[:, 3], eta=data[:, 4], snapshots=snapshots,
                      spec=spec_from_config(summary["config"]))
    return traj, summary


def _cmd_classify(args):
    traj, summary = _load_run(args.trajectory, Path(args.trajectory).parent)
    spec = traj.spec if args.config is None else spec_from_config(load_config(args.config))
    verdict = classify(traj, spec, lstar=summary.get("l_star"),
                       ctilde=summary.get("c_tilde"))
    _emit(args, {"verdict": verdict.verdict, "evidence": verdict.evidence},
          f"verdict = {verdict.verdict}")
    return 0


def _cmd_threshold(args):
    cfg = load_config(args.config)
    spec = spec_from_config(cfg)
    if args.param == "mu":
        res = mu_threshold(spec, (args.lo, args.hi), args.tol)
    else:
        from .stefan import default_initial_profile

        psi = default_initial_profile(spec.h0, spec.a, spec.b)
        res = lambda_threshold(spec, psi, (args.lo, args.hi), args.tol)
    payload = {
        "parameter": res.parameter,
        "bracket": res.bracket,
        "width": res.width,
        "runs": res.runs,
        "note": res.note,
        "history": [[v, verdict] for v, verdict in res.history],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_asymptotics(args):
    traj, _ = _load_run(args.trajectory, args.snapshots)
    spec = traj.spec
    n = spec.nonlinearity
    sr = spreading_speed(spec.beta, spec.mu, n)
    fit = fit_speed(traj, sr.c_tilde)
    vt = stationary_increasing(spec.beta, spec.a, spec.b, n) if spec.a > 0 else None
    errors = []
    for snap in traj.snapshots:
        if snap[0] >= fit.window[0]:
            err = profile_error(snap, spec, sr.c_tilde, fit.H, vt, sr.profile)
            errors.append({"t": snap[0], "sup_error": err})
    report = {
        "c_measured": fit.c_measured,
        "c_tilde": sr.c_tilde,
        "H": fit.H,
        "drift": fit.drift,
        "profile_errors": errors,
    }
    print(json.dumps(report, sort_keys=True))
    return 0


def _parse_grid(text):
    if text is None:
        return [None]
    if ":" in text:
        lo, hi, num = text.split(":")
        return list(np.linspace(float(lo), float(hi), int(num)))
    return [float(v) for v in text.split(",") if v.strip()]


def _sweep_cell(payload):
    index, cfg = payload
    try:
        spec = spec_from_config(cfg)
        traj = simulate(spec)
        verdict, _, _ = _classification_hint(traj, spec)
        return index, (verdict.verdict, float(traj.h[-1]), float(traj.supu[-1]))
    except FreeboundError:
        return index, ("Error", float("nan"), float("nan"))


def _cmd_sweep(args):
    base = load_config(args.config)
    betas = _parse_grid(args.betas)
    mus = _parse_grid(args.mus)
    lambdas = _parse_grid(args.lambdas)
    cells = []
    for beta in betas:
        for mu in mus:
            for lam in lambdas:
                cfg = dict(base)
                if beta is not None:
                    cfg["beta"] = beta
                if mu is not None:
                    cfg["mu"] = mu
                if lam is not None:
                    cfg["lambda"] = lam
                cells.append(cfg)
    if len(cells) > 10000:
        raise ConfigError(f"sweep grid holds {len(cells)} cells, limit is 10000")

    results = {}
    if cells:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            for index, row in pool.map(_sweep_cell, list(enumerate(cells))):
                results[index] = row

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("beta,mu,lambda,verdict,h_final,supu_final\n")
        for i, cfg in enumerate(cells):
            verdict, h_final, supu = results[i]
            fh.write(",".join([
                FMT % cfg.get("beta", float("nan")),
                FMT % cfg.get("mu", float("nan")),
                FMT % cfg.get("lambda", 1.0),
                verdict, FMT % h_final, FMT % supu,
            ]) + "\n")
    print(f"wrote {args.out} ({len(cells)} cells)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="freebound", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_nonlin(p):
        p.add_argument("--nonlinearity", default="logistic",
                       choices=["logistic", "cubic"])
        p.add_argument("--gamma", type=float, default=None)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        # accept --json after the subcommand as well; SUPPRESS keeps the
        # parent's value when the flag is absent here
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
        return p

    p = add_parser("eigen", help="principal eigenvalue / critical lengths")
    p.add_argument("--ell", type=float, default=None)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--find-lstar", action="store_true")
    p.set_defaults(func=_cmd_eigen)

    p = add_parser("semiwave", help="spreading speed c_tilde")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--profile-out", default=None)
    add_nonlin(p)
    p.set_defaults(func=_cmd_semiwave)

    p = add_parser("wave", help="wave profiles as CSV (z,q,qp)")
    p.add_argument("--kind", required=True,
                   choices=["left", "right", "tadpole", "finite", "stationary"])
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--out", default="wave.csv")
    add_nonlin(p)
    p.set_defaults(func=_cmd_wave)

    p = add_parser("simulate", help="run the free boundary problem")
    p.add_argument("--config", required=True)
    p.add_argument("--snapshots", default=None, help="comma-separated times")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_simulate)

    p = add_parser("classify", help="verdict for a finished trajectory")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_classify)

    p = add_parser("threshold", help="bracket mu_star / lambda_star")
    p.add_argument("--param", required=True, choices=["mu", "lambda"])
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--lo", type=float, default=0.1)
    p.add_argument("--hi", type=float, default=10.0)
    p.set_defaults(func=_cmd_threshold)

    p = add_parser("asymptotics", help="speed fit and profile errors")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--snapshots", required=True, help="directory of snapshot CSVs")
    p.set_defaults(func=_cmd_asymptotics)

    p = add_parser("sweep", help="phase-table over (beta, mu, lambda)")
    p.add_argument("--config", required=True)
    p.add_argument("--betas", default=None, help="lo:hi:n or comma list")
    p.add_argument("--mus", default=None)
    p.add_argument("--lambdas", default=None)
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
