"""Command-line entry point.

Subcommands: eigen, semiwave, wave, simulate, classify, threshold,
asymptotics, sweep.  All numerics are deterministic; CSV files carry full
double precision (17 significant digits) so downstream refinement checks
lose nothing.  Exit status: 0 success, 1 domain error (the requested
object does not exist), 2 numerical failure or malformed input.

The classification hints l_star and c_tilde: sweep and classify --config
go through _verdict, which solves c_tilde only for a run that reaches rule
3 (beta >= c0 and rules 1-2 silent), the one rule that reads it; the
JSON of classify --config gains a hint_errors field when a hint fails.
simulate solves both, because summary.json reports both (a hint that
fails reads null, and its error goes into an added hint_errors field);
classify without --config passes those two to classify.classify, which
reads c_tilde only at rule 3, so it solves nothing.  A sweep row that
fails reads Error; its reason goes to the sidecar <out>.errors.json,
which also holds an entry, with an added "hint" key, for each cell
classified without a hint it asked for because the hint's solve failed.
A sweep with neither writes no sidecar.

A sweep cuts its cells, in grid order, into contiguous chunks of at most
ENSEMBLE_MAX, as many chunks as workers (--workers, else the CPU count) or
a multiple of that, and each pool worker runs a whole chunk (the pool
starts no more workers than there are chunks).  Every chunk, of one cell
or many, runs one way: its cells step together as one
stefan.simulate_many ensemble and share one reaction term, whose
spreading_speed results table solves c_tilde once per (beta, mu); an
ensemble of one is simulate.  A cell whose spec is refused stays out of
the ensemble, and a member that fails leaves it with its own error while
the rest step on, so each cell runs once and every row and sidecar entry
reads as a cell-by-cell sweep writes it, in cell order.

threshold runs up to --workers bisection values at once (else the CPU
count; see thresholds), and prints the same JSON for any --workers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._scipy import extension
from .asymptotics import fit_speed, profile_error
from .classify import classify, decayed_and_stalled
from .config import ConfigError, load_config, nonlinearity_from_config, spec_from_config
from .eigen import EigenProblem, critical_length, critical_length_no_advection, principal_eigenvalue
from .errors import DomainError, FreeboundError, NumericalError, _require_finite
from .stefan import ProblemSpec, Trajectory, default_initial_profile, simulate, simulate_many
from .thresholds import lambda_threshold, mu_threshold
from .waves import (
    finite_wave,
    spreading_speed,
    stationary_increasing,
    tadpole_wave,
    traveling_wave,
)

FMT = "%.17g"
ENSEMBLE_MAX = 16   # most sweep cells one worker steps as one ensemble


def _write_csv(path, header, columns):
    rows = np.column_stack(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(FMT % v for v in row) + "\n")


def _read_csv(path, header, min_rows):
    """The rows of a CSV that _write_csv wrote under header, as a 2-D
    array; anything else, or fewer than min_rows rows, is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[:1] == [header] and len(lines) > min_rows:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        if data.shape[1] == header.count(",") + 1:
            return data
    raise ConfigError(f"{path} does not hold the header {header} and {min_rows} "
                      f"or more rows of its columns (rerun simulate)")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _emit(args, payload: dict, text: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _nonlinearity_from_args(args):
    cfg = {"nonlinearity": args.nonlinearity}
    if args.gamma is not None:
        cfg["gamma"] = args.gamma
    if args.coefficients is not None:
        cfg["coefficients"] = [float(v) for v in args.coefficients.split(",")
                               if v.strip()]
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
    if args.kind in ("left", "right", "finite") and args.c is None:
        raise ConfigError(f"wave --kind {args.kind} needs --c")
    if args.kind in ("left", "right"):
        prof = traveling_wave(args.c, args.kind, n)
    elif args.kind == "finite":
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


def _cmd_simulate(args):
    cfg = load_config(args.config)
    spec = spec_from_config(cfg)
    traj = simulate(spec, snapshot_times=_parse_snapshots(args.snapshots))

    hint_errors = {}
    lstar, ctilde = _l_star(spec, hint_errors), _c_tilde(spec, hint_errors)
    verdict = classify(traj, spec, lstar=lstar, ctilde=ctilde)
    summary = {
        "config": cfg,
        "h_final": float(traj.h[-1]),
        "supu_final": float(traj.supu[-1]),
        "hprime_final": float(traj.hprime[-1]),
        "classification_hint": verdict.verdict,
        "l_star": lstar,
        "c_tilde": ctilde,
    }
    if hint_errors:
        summary["hint_errors"] = hint_errors
    wrote = _save_run(args.out, traj, summary)
    _emit(args, summary,
          f"h({spec.tmax:g}) = {traj.h[-1]:.8g}, sup u = {traj.supu[-1]:.3e}, "
          f"hint = {verdict.verdict}\n{wrote}")
    return 0


def _parse_snapshots(text):
    """--snapshots: a comma list of finite times >= 0, none when absent."""
    try:
        times = [float(v) for v in text.split(",")] if text else []
        valid = all(0.0 <= t < math.inf for t in times)
    except ValueError:
        valid = False
    if not valid:
        raise ConfigError(f"--snapshots must be a comma list of finite times "
                          f">= 0, got {text!r}")
    return times


def _save_run(outdir, traj, summary):
    """Write trajectory.csv, one snapshot_t{t:.6f}.csv per snapshot and
    summary.json (summary, given its snapshots list) to outdir; return the
    line that says so."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "trajectory.csv", "t,h,hprime,supu,eta",
               (traj.times, traj.h, traj.hprime, traj.supu, traj.eta))
    summary["snapshots"] = []
    for t, x, u in traj.snapshots:
        name = f"snapshot_t{t:.6f}.csv"
        _write_csv(outdir / name, "x,u", (x, u))
        summary["snapshots"].append({"t": t, "file": name})
    _write_json(outdir / "summary.json", summary)
    return (f"wrote {outdir}/trajectory.csv, summary.json, "
            f"{len(traj.snapshots)} snapshot(s)")


def _load_run(trajectory_path, snapshot_dir):
    """(Trajectory, summary) of a run directory _save_run wrote, refusing
    anything else with a ConfigError.  summary.json sits next to
    trajectory.csv; the snapshot CSVs it lists are read from snapshot_dir.
    """
    data = _read_csv(trajectory_path, "t,h,hprime,supu,eta", 2)
    summary_path = Path(trajectory_path).parent / "summary.json"
    try:
        with open(summary_path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
    except OSError as exc:
        raise ConfigError(
            f"missing {summary_path} next to the trajectory (rerun simulate)") from exc
    except ValueError as exc:
        raise ConfigError(f"{summary_path} is not JSON: {exc} (rerun simulate)") from exc
    if not isinstance(summary, dict) or "config" not in summary:
        raise ConfigError(f"{summary_path} holds no config (rerun simulate)")
    # JSON's true and false load as bool, an int to isinstance
    for key in ("l_star", "c_tilde"):
        hint = summary.get(key)
        if hint is not None and not (type(hint) in (int, float)
                                     and abs(hint) <= sys.float_info.max):
            raise ConfigError(f"{summary_path} has {key} = {json.dumps(hint)}, "
                              f"neither null nor a finite float (rerun simulate)")
    # simulate always writes the final profile
    entries = summary.get("snapshots")
    if not isinstance(entries, list) or not entries or not all(
            isinstance(e, dict) and type(e.get("t")) in (int, float)
            and isinstance(e.get("file"), str) for e in entries):
        raise ConfigError(f"{summary_path} lists no snapshot, or one that is not an "
                          f"object with a number t and a file name (rerun simulate)")
    snapshots = []
    for entry in entries:
        snap = _read_csv(Path(snapshot_dir) / entry["file"], "x,u", 1)
        snapshots.append((entry["t"], snap[:, 0], snap[:, 1]))
    # the columns are Trajectory's first five fields, in order
    return Trajectory(*data.T, snapshots=snapshots,
                      spec=spec_from_config(summary["config"])), summary


def _cmd_classify(args):
    traj, summary = _load_run(args.trajectory, Path(args.trajectory).parent)
    hint_errors = {}
    if args.config is None:
        # the hints simulate solved for the run's spec
        verdict = classify(traj, traj.spec, lstar=summary.get("l_star"),
                           ctilde=summary.get("c_tilde"))
    else:
        verdict = _verdict(traj, spec_from_config(load_config(args.config)), hint_errors)
    payload = {"verdict": verdict.verdict, "evidence": verdict.evidence}
    if hint_errors:
        payload["hint_errors"] = hint_errors
    _emit(args, payload, f"verdict = {verdict.verdict}")
    return 0


def _check_workers(args):
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")


def _cmd_threshold(args):
    _check_workers(args)
    spec = spec_from_config(load_config(args.config))
    if args.param == "mu":
        res = mu_threshold(spec, (args.lo, args.hi), args.tol,
                           workers=args.workers)
    else:
        psi = default_initial_profile(spec.h0, spec.a, spec.b)
        res = lambda_threshold(spec, psi, (args.lo, args.hi), args.tol,
                               workers=args.workers)
    print(json.dumps(asdict(res), sort_keys=True))
    return 0


def _cmd_asymptotics(args):
    traj, _ = _load_run(args.trajectory, args.snapshots)
    spec = traj.spec
    n = spec.nonlinearity
    sr = spreading_speed(spec.beta, spec.mu, n)
    fit = fit_speed(traj, sr.c_tilde)
    vt = stationary_increasing(spec.beta, spec.a, spec.b, n) if spec.a > 0 else None
    errors = [{"t": snap[0],
               "sup_error": profile_error(snap, spec, sr.c_tilde, fit.H, vt, sr.profile)}
              for snap in traj.snapshots if snap[0] >= fit.window[0]]
    report = {
        "c_measured": fit.c_measured,
        "c_tilde": sr.c_tilde,
        "H": fit.H,
        "drift": fit.drift,
        "profile_errors": errors,
    }
    print(json.dumps(report, sort_keys=True))
    return 0


MAX_CELLS = 10000


def _parse_grid(text, flag):
    """A sweep axis: None when the flag is absent, no values when it is
    blank, else lo:hi:num (num >= 1) or a comma list of finite numbers."""
    if text is None:
        return [None]
    if not text.strip():
        return []
    try:
        if ":" in text:
            lo, hi, num = text.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
            # more values than cells allowed: refused before np.linspace
            # allocates them
            values = (list(np.linspace(lo, hi, num))
                      if 1 <= num <= MAX_CELLS else [])
        else:
            values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"{flag} must be lo:hi:num with 1 <= num <= "
                          f"{MAX_CELLS} or a comma list of numbers, got {text!r}")
    for v in values:
        _require_finite(**{flag: float(v)})
    return values


def _hint(name, solve, errors):
    """solve(), or None when it raises a FreeboundError, which is recorded
    in errors under the hint's name."""
    try:
        return solve()
    except FreeboundError as exc:
        errors[name] = {"type": type(exc).__name__, "message": str(exc)}
        return None


def _l_star(spec, errors):
    """l_star, or None when |beta| >= c0 (there is none)."""
    n = spec.nonlinearity
    if abs(spec.beta) >= n.c0:
        return None
    return _hint("l_star", lambda: critical_length(spec.beta, spec.a, spec.b, n.fp0),
                 errors)


def _c_tilde(spec, errors):
    """c_tilde, or None when beta <= -c0 (there is none)."""
    n = spec.nonlinearity
    if spec.beta <= -n.c0:
        return None
    return _hint("c_tilde", lambda: spreading_speed(spec.beta, spec.mu, n).c_tilde,
                 errors)


def _verdict(traj, spec, errors):
    """classify's verdict, from one classify call, with c_tilde solved only
    when rule 3 is reached: rules 1-2 never read it.  For beta >= c0 there
    is no l_star, so rule 1 cannot fire, and rule 3 is reached exactly when
    rule 2 fails on the final state.  A hint that fails leaves the run
    classified without it, and its error goes into errors under its name.
    """
    lstar, ctilde = _l_star(spec, errors), None
    if spec.beta >= spec.nonlinearity.c0 and not decayed_and_stalled(
            float(traj.supu[-1]), float(traj.hprime[-1]), float(traj.h[-1]), lstar):
        ctilde = _c_tilde(spec, errors)
    return classify(traj, spec, lstar=lstar, ctilde=ctilde)


def _sweep_result(index, cfg, traj):
    """(index, CSV row, reasons): reasons lists the cell's dropped hints
    for the sidecar, or is None when there are none."""
    errors = {}
    verdict = _verdict(traj, traj.spec, errors)
    row = verdict.verdict, float(traj.h[-1]), float(traj.supu[-1])
    reasons = [{"index": index, "config": cfg, "hint": name, **error}
               for name, error in errors.items()]
    return index, row, reasons or None


def _sweep_chunk(chunk):
    """(index, CSV row, reasons) for each (index, cfg) of chunk, in chunk
    order: the cells whose specs build step as one simulate_many ensemble
    and share one reaction term.  A cell whose spec or run fails gives its
    Error row, with the error as its one reason.
    """
    cells = []  # each cell's spec, or the error that refused it
    for _, cfg in chunk:
        try:
            cells.append(spec_from_config(cfg))
        except FreeboundError as exc:
            cells.append(exc)
    specs = [cell for cell in cells if isinstance(cell, ProblemSpec)]
    # the cells of a sweep differ only in beta, mu and lambda
    specs = [replace(s, nonlinearity=specs[0].nonlinearity) for s in specs]
    try:
        runs = iter(simulate_many(specs))
    except FreeboundError as exc:  # records that fit no memory: each cell's error
        runs = itertools.repeat(exc)
    rows = []
    for (index, cfg), cell in zip(chunk, cells):
        outcome = next(runs) if isinstance(cell, ProblemSpec) else cell
        if isinstance(outcome, Exception):
            reason = {"index": index, "config": cfg, "type": type(outcome).__name__,
                      "message": str(outcome)}
            rows.append((index, ("Error", float("nan"), float("nan")), [reason]))
        else:
            rows.append(_sweep_result(index, cfg, outcome))
    return rows


def _sweep_chunks(items, workers):
    """items cut into contiguous chunks of at most ENSEMBLE_MAX, their
    number a multiple of workers (fewer only when items run out)."""
    count = -(-len(items) // ENSEMBLE_MAX)
    count = min(len(items), -(-count // workers) * workers)
    bounds = [len(items) * i // count for i in range(count + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _cmd_sweep(args):
    _check_workers(args)
    base = load_config(args.config)
    betas = _parse_grid(args.betas, "--betas")
    mus = _parse_grid(args.mus, "--mus")
    lambdas = _parse_grid(args.lambdas, "--lambdas")
    # refused before any cell's config is built
    count = len(betas) * len(mus) * len(lambdas)
    if count > MAX_CELLS:
        raise ConfigError(f"sweep grid holds {count} cells, limit is {MAX_CELLS}")
    cells = []
    for cell in itertools.product(betas, mus, lambdas):
        cfg = dict(base)
        cfg.update((k, v) for k, v in zip(("beta", "mu", "lambda"), cell) if v is not None)
        cells.append(cfg)

    results = {}
    failures = []
    if cells:
        workers = args.workers or os.cpu_count() or 1
        chunks = _sweep_chunks(list(enumerate(cells)), workers)
        # the Stefan kernel's LAPACK extension, loaded here once: forked
        # workers inherit it instead of each loading it
        extension("scipy.linalg._flapack")

        # under fork every worker starts at the first submit: start no more
        # than there are chunks
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            for rows in pool.map(_sweep_chunk, chunks):
                for index, row, reasons in rows:
                    results[index] = row
                    failures.extend(reasons or ())

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
    # a sidecar left by an earlier sweep would describe rows no longer there
    errors_path = Path(f"{args.out}.errors.json")
    errors_path.unlink(missing_ok=True)
    if failures:
        _write_json(errors_path, failures)
        dropped = sum("hint" in f for f in failures)
        print(f"wrote {errors_path} ({len(failures) - dropped} failed cells"
              + (f", {dropped} dropped hints)" if dropped else ")"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="freebound", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_nonlin(p):
        p.add_argument("--nonlinearity", default="logistic",
                       choices=["logistic", "cubic", "custom"])
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--coefficients", default=None,
                       help="custom f: ascending polynomial coefficients, "
                            "e.g. 0,1,0,-1 for u - u^3")

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
    p.add_argument("--workers", type=int, default=None)
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
