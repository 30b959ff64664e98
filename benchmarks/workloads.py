"""The four workloads: inputs made from a seed, one pass, and its gates.

Seed 0 gives exactly the reference inputs; any other seed perturbs them a
little (deterministically) while keeping each workload in its regime and
its cost nearly unchanged.  A pass calls the library through module
attributes (``fb.simulate``, ``fb.cli.main``), so the traced pass reaches
the wrappers installed by ``spans.Tracer.install``.

Each pass is a list of operations; an operation fails when one of its
gates fails or the pass raised.  Gates are plain functions so the
self-tests can feed them wrong answers.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import SWEEP_CELL_SPAN, sweep_hint_share


@dataclass
class Op:
    name: str
    problems: list = field(default_factory=list)

    def expect(self, ok, message: str) -> "Op":
        if not ok:
            self.problems.append(message)
        return self


@dataclass
class Tally:
    """Operations attempted and failed across passes."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            if op.problems:
                self.failed += 1
                self.problems.extend(f"{op.name}: {p}" for p in op.problems)


# -- gates -------------------------------------------------------------------

def bracket_gate(res, tol: float, reference=None) -> Op:
    """mu_threshold result: bracketed, narrow enough, both verdicts seen,
    and (on the reference inputs) overlapping the reference bracket."""
    op = Op("mu_threshold")
    op.expect(res.note == "bracketed", f"note is {res.note!r}")
    op.expect(res.bracket is not None and res.width <= tol,
              f"width {res.width!r} exceeds tol {tol}")
    seen = {verdict for _, verdict in res.history}
    op.expect({"Spreading", "Vanishing"} <= seen, f"history verdicts {sorted(seen)}")
    if reference is not None and res.bracket is not None:
        lo, hi = res.bracket
        op.expect(lo <= reference[1] and reference[0] <= hi,
                  f"bracket {res.bracket} misses reference {reference}")
    return op


def sweep_gate(code: int, text: str, cells: int, reference=None) -> list:
    """One op per sweep cell; a malformed table fails every cell."""
    lines = text.splitlines()
    table = []
    if code != 0:
        table.append(f"exit code {code}")
    if not lines or lines[0] != SweepTable.HEADER:
        table.append(f"header {lines[:1]}")
    if len(lines) - 1 != cells:
        table.append(f"{len(lines) - 1} rows, expected {cells}")
    rows = [line.split(",") for line in lines[1:]]
    ops = []
    for i in range(cells):
        op = Op(f"sweep cell {i}", list(table))
        if not table:
            verdict = rows[i][3]
            op.expect(verdict != "Error", "Error row")
            if reference is not None:
                op.expect(verdict == reference[i],
                          f"verdict {verdict}, reference {reference[i]}")
        ops.append(op)
    return ops


# -- workloads ---------------------------------------------------------------

class Workload:
    """Base: ``build`` makes the inputs (charged to setup_s), ``run`` is
    one timed pass, ``check`` gates its outputs."""

    name = ""
    ops_per_pass = 1

    def __init__(self, seed: int, scratch):
        import freebound as fb

        self.fb = fb
        self.seed = seed
        self.scratch = Path(scratch)
        self.rng = random.Random(seed)
        self.n = fb.logistic()
        self.tracer = None     # set by the harness around the traced pass
        self.build()

    def jitter(self, value: float, rel: float) -> float:
        """value on seed 0, else value * (1 + U(-rel, rel))."""
        if self.seed == 0:
            return value
        return value * (1.0 + self.rng.uniform(-rel, rel))

    def build(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Touch the main code paths once so first-call costs (lazy
        imports, the allocator growing its heap for the large profile
        arrays) stay out of the timed passes."""
        fb = self.fb
        spec = fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=0.0, h0=2.0,
                              nonlinearity=self.n, nx=64, tmax=0.05)
        fb.classify(fb.simulate(spec), spec)
        fb.spreading_speed(0.5, 1.0, self.n)
        fb.critical_length(0.5, 1.0, 0.0, self.n.fp0)

    def run(self):
        raise NotImplementedError

    def replay(self):
        """The pass as the traced run executes it (in-process)."""
        return self.run()

    def check(self, out) -> list:
        raise NotImplementedError

    def layer_extras(self, tracer, pass_wall: float, replay_wall: float) -> dict:
        """Per-layer metrics only this workload can give; ``replay_wall``
        is the untraced wall time of ``replay``."""
        return {}


class ThresholdMu(Workload):
    """Criterion 7's template bracketed to tol 0.25: 8 full-horizon runs."""

    name = "threshold-mu"
    TOL = 0.25
    REFERENCE = (1.3271, 1.3340)   # tol-1e-2 bracket on the seed-0 inputs

    def build(self):
        fb = self.fb
        lstar = fb.critical_length(0.5, 1.0, 0.0, self.n.fp0)
        self.spec = fb.ProblemSpec(beta=0.5, mu=1.0, a=1.0, b=0.0,
                                   h0=self.jitter(0.5, 0.06) * lstar,
                                   nonlinearity=self.n, nx=300, dt=1.5e-3)
        self.mu_range = (self.jitter(0.5, 0.1), self.jitter(4.0, 0.03))

    def run(self):
        return self.fb.mu_threshold(self.spec, self.mu_range, self.TOL)

    def check(self, res):
        return [bracket_gate(res, self.TOL, self.REFERENCE if self.seed == 0 else None)]


class Front800(Workload):
    """The long spreading run on the fine grid, then its asymptotics."""

    name = "front-800"
    ops_per_pass = 6
    SNAPSHOTS = (60.0, 70.0, 80.0)

    def build(self):
        fb = self.fb
        self.beta = 0.5
        self.mu = self.jitter(2.0, 0.03)
        self.lstar = fb.critical_length(self.beta, 1.0, 0.0, self.n.fp0)
        self.spec = fb.ProblemSpec(beta=self.beta, mu=self.mu, a=1.0, b=0.0,
                                   h0=self.lstar + 1.0, nonlinearity=self.n,
                                   nx=800, tmax=80.0)

    def run(self):
        fb, n = self.fb, self.n
        traj = fb.simulate(self.spec, snapshot_times=self.SNAPSHOTS)
        speed = fb.spreading_speed(self.beta, self.mu, n)
        vt = fb.stationary_increasing(self.beta, 1.0, 0.0, n)
        fit = fb.fit_speed(traj, speed.c_tilde)
        errors = [fb.profile_error(s, self.spec, speed.c_tilde, fit.H, vt, speed.profile)
                  for s in traj.snapshots if s[0] >= fit.window[0]]
        verdict = fb.classify(traj, self.spec, lstar=self.lstar)
        return traj, speed, fit, errors, verdict

    def check(self, out):
        import numpy as np

        traj, speed, fit, errors, verdict = out
        rel = abs(fit.c_measured / speed.c_tilde - 1.0)
        ops = [
            Op("simulate")
            .expect(bool(np.all(traj.supu <= traj.eta + 1e-6)), "sup u above eta + 1e-6")
            .expect(bool(np.all(traj.hprime > 0.0)), "h' <= 0"),
            Op("fit_speed").expect(rel < 0.02, f"|c_measured/c_tilde - 1| = {rel:.3g}"),
        ]
        for i in range(len(self.SNAPSHOTS)):
            err = errors[i] if i < len(errors) else math.inf
            ops.append(Op(f"profile_error {i}").expect(err < 0.05, f"error {err:.3g}"))
        ops.append(Op("classify").expect(verdict.verdict == "Spreading",
                                         f"verdict {verdict.verdict}"))
        return ops


class SpeedTable(Workload):
    """Criterion 3's c_tilde ladder, beta_star, a tadpole and l_star grid."""

    name = "speed-table"

    def build(self):
        shift = [self.jitter(1.0, 0.03) - 1.0 for _ in range(6)]
        self.betas = [b + s for b, s in zip((-1.5, -1.0, 0.0, 1.0, 1.5, 2.5), shift)]
        self.mus = [self.jitter(m, 0.05) for m in (0.5, 1.0, 2.0)]
        self.mu_star = self.jitter(1.0, 0.05)
        # (beta, a, b); the last two have a - b*beta/2 < 0 (hyperbolic branch)
        self.grid = [(self.jitter(beta, 0.05), a, b) for beta, a, b in
                     ((0.5, 1.0, 0.0), (-1.0, 0.5, 1.0), (0.8, 0.7, 1.3),
                      (1.5, 0.2, 1.0), (1.0, 0.0, 1.0))]
        self.ops_per_pass = len(self.betas) * len(self.mus) + 2 + len(self.grid)
        self.latencies = []    # seconds per spreading_speed call, all passes

    def run(self):
        fb, n = self.fb, self.n
        table = {}
        for mu in self.mus:
            for beta in self.betas:
                t0 = time.perf_counter()
                table[(beta, mu)] = fb.spreading_speed(beta, mu, n)
                self.latencies.append(time.perf_counter() - t0)
        bstar = fb.critical_advection(self.mu_star, n)
        tadpole = fb.tadpole_wave(0.5 * (n.c0 + bstar), self.mu_star, n, beta_star=bstar)
        lengths = [fb.critical_length(beta, a, b, n.fp0) for beta, a, b in self.grid]
        return table, bstar, tadpole, lengths

    def check(self, out):
        fb, n = self.fb, self.n
        table, bstar, tadpole, lengths = out
        ops = []
        for mu in self.mus:
            previous = -math.inf
            for beta in self.betas:
                res = table[(beta, mu)]
                ops.append(Op(f"spreading_speed({beta:.3g}, {mu:.3g})")
                           .expect(res.residual < 1e-8, f"residual {res.residual:.3g}")
                           .expect(0.0 < res.c_tilde < n.c0 + beta, "c_tilde out of range")
                           .expect(res.c_tilde > previous, "c_tilde not increasing in beta"))
                previous = res.c_tilde
        gap = abs(fb.spreading_speed(bstar, self.mu_star, n).c_tilde - (bstar - n.c0))
        ops.append(Op("critical_advection").expect(gap < 1e-8, f"identity gap {gap:.3g}"))
        ops.append(Op("tadpole_wave").expect(tadpole.q.max() > 0.1 and tadpole.q[0] < 1e-6,
                                             "tadpole hump or tail out of range"))
        for (beta, a, b), ell in zip(self.grid, lengths):
            zeta = fb.principal_eigenvalue(fb.EigenProblem(ell=ell, beta=beta, a=a, b=b,
                                                           m=n.fp0)).zeta1
            ops.append(Op(f"critical_length({beta:.3g}, {a}, {b})")
                       .expect(abs(zeta) < 1e-9, f"zeta1(l_star) = {zeta:.3g}"))
        return ops


class SerialPool:
    """Stand-in for ProcessPoolExecutor that runs sweep cells in-process,
    recording each cell as a span when a tracer is given."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        for item in items:
            with (self.tracer.span(SWEEP_CELL_SPAN) if self.tracer
                  else contextlib.nullcontext()):
                result = fn(item)
            yield result


class SweepTable(Workload):
    """`freebound sweep --betas=-2.5:4.5:8 --lambdas 0.5,2 --workers 2`."""

    name = "sweep-16"
    HEADER = "beta,mu,lambda,verdict,h_final,supu_final"
    WORKERS = 2
    ops_per_pass = 16
    # seed-0 verdict column: Spreading at cells 6, 8 and 10 (from 1)
    REFERENCE = tuple("Spreading" if i in (5, 7, 9) else "Vanishing" for i in range(16))

    def build(self):
        import freebound.cli  # noqa: F401  (the pass goes through cli.main)

        self.config = self.scratch / "sweep.cfg"
        self.out = self.scratch / "sweep.csv"
        mu = self.jitter(1.0, 0.03)
        lambdas = [self.jitter(0.5, 0.05), self.jitter(2.0, 0.05)]
        self.config.write_text(f"beta = 0.5\nmu = {mu!r}\nh0 = 2\nnx = 200\n"
                               f"dt = 2e-3\ntmax = 20\n", encoding="utf-8")
        # "--betas -2.5:..." is read by argparse as an option: pass it with "="
        self.argv = ["sweep", "--config", str(self.config), "--betas=-2.5:4.5:8",
                     "--lambdas", ",".join(repr(v) for v in lambdas),
                     "--workers", str(self.WORKERS), "--out", str(self.out)]

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.fb.cli.main(self.argv)
        return code, self.out.read_text(encoding="utf-8")

    def replay(self):
        cli = self.fb.cli
        pool = cli.ProcessPoolExecutor
        cli.ProcessPoolExecutor = lambda max_workers=None: SerialPool(self.tracer)
        try:
            return self.run()
        finally:
            cli.ProcessPoolExecutor = pool

    def check(self, out):
        code, text = out
        reference = self.REFERENCE if self.seed == 0 else None
        return sweep_gate(code, text, self.ops_per_pass, reference)

    def layer_extras(self, tracer, pass_wall, replay_wall):
        return {
            # serial cell time over the pool's worker-seconds
            "cli.sweep.pool_efficiency": replay_wall / (self.WORKERS * pass_wall),
            "cli.sweep.hint_share": sweep_hint_share(tracer),
        }


WORKLOADS = {w.name: w for w in (ThresholdMu, Front800, SpeedTable, SweepTable)}
