"""freebound benchmark: one workload, timed passes or one traced pass.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from its
``src`` directory, never from an installed copy.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's details (samples, environment stamp).  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(see README.md).  Exit status: 0 when every gate held, 1 when one
failed, 2 when the source tree or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7
PERCENTILES = ("90", "99", "99.9")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# name -> unit; matches BENCHMARK.json's end_to_end list.
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

# Setup in a fresh interpreter: import, nonlinearity, spec/config build.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), sys.argv[5])
print(repr(time.perf_counter() - t0))
"""


def summarize(samples) -> dict:
    """Median and sample count, plus the highest percentile (nearest
    rank) that has at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "p50": statistics.median(ordered)}
    for p in reversed(PERCENTILES):
        rank = math.ceil(n * Fraction(p) / 100)
        if n - rank >= 10:
            out[f"p{p}"] = ordered[rank - 1]
            break
    return out


def _git_sha(root: Path):
    """HEAD of the checkout, read from .git without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "freebound").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "git_sha": _git_sha(ROOT),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {k: os.environ[k] for k in PINNED_ENV},
    }


def measure_setup(name: str, seed: int, scratch: Path) -> list:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR),
             name, str(seed), str(scratch)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def timed_pass(workload, tally, replay=False, tracer=None):
    """Run one pass, traced when ``tracer`` is given, and return its wall
    time in seconds.  Its gates run afterwards, untraced and untimed."""
    import layers
    from workloads import Op

    fn = workload.replay if replay else workload.run
    if tracer is not None:
        workload.tracer = tracer
        layers.install(tracer)
    t0 = time.perf_counter()
    try:
        out, error = fn(), None
    except Exception as exc:  # a failed pass is counted, the run goes on
        out, error = None, exc
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            workload.tracer = None
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        tally.add(Op("pass", [f"raised {error!r}"]) for _ in range(workload.ops_per_pass))
    else:
        tally.add(workload.check(out))
    return wall


def end_to_end_run(workload, seconds, tally, scratch):
    setups = measure_setup(workload.name, workload.seed, scratch)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(timed_pass(workload, tally))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": statistics.median(setups),
               "pass_s": statistics.median(passes),
               "peak_rss_mb": rss_mb}
    detail = {"setup_s": summarize(setups), "pass_s": summarize(passes),
              "pass_samples": passes}
    if getattr(workload, "latencies", None):
        detail["spreading_speed_s"] = summarize(workload.latencies)
    return metrics, detail


def traced_run(workload, tally, spans_path):
    """One untraced pass (and, for the sweep, an untraced serial replay as
    the reference), then one traced replay; returns per-layer metrics."""
    import layers
    from spans import Tracer
    from workloads import Workload

    pass_wall = timed_pass(workload, tally)
    replay_wall = pass_wall
    if type(workload).replay is not Workload.replay:
        replay_wall = timed_pass(workload, tally, replay=True)
    tracer = Tracer()
    traced_wall = timed_pass(workload, tally, replay=True, tracer=tracer)

    metrics = layers.layer_metrics(tracer, replay_wall, traced_wall)
    metrics.update(workload.layer_extras(tracer, pass_wall, replay_wall))
    tracer.write_csv(spans_path)
    detail = {"pass_wall_s": pass_wall, "replay_wall_s": replay_wall,
              "traced_wall_s": traced_wall, "spans": len(tracer),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "freebound" / "__init__.py").is_file():
        print(f"error: no freebound sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy is first imported, here and in every child process
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import freebound
    import layers
    import workloads

    if not Path(freebound.__file__).resolve().is_relative_to(SRC):
        print(f"error: freebound imported from {freebound.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tally = workloads.Tally()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        workload.warm()
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, detail = traced_run(workload, tally, spans_path)
            units = layers.PER_LAYER
        else:
            metrics, detail = end_to_end_run(workload, args.seconds, tally, scratch)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, stamp=stamp())
    for problem in tally.problems:
        print(f"gate failed: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
