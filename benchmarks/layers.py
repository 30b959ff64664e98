"""The freebound layers the traced pass records, and the per-layer metrics.

Every metric is named ``<module>.<fn>.<stat>`` or ``<module>.<stat>``.
Each is reported for every workload; a layer the workload never calls
reads 0.  README.md lists which end-to-end metric each should move.
"""

from __future__ import annotations

import importlib
import statistics

PACKAGE = "freebound"

# (module, function) pairs wrapped as span "<module>.<function>".
LAYERS = (
    ("eigen", "critical_length"),
    ("waves", "shoot_semi_wave"),
    ("waves", "spreading_speed"),
    ("waves", "critical_advection"),
    ("waves", "stationary_increasing"),
    ("waves", "tadpole_wave"),
    ("waves", "finite_wave"),
    ("waves", "traveling_wave"),
    ("waves", "profile_interpolator"),
    ("stefan", "simulate"),
    ("stefan", "step"),
    ("classify", "classify"),
    ("thresholds", "mu_threshold"),
    ("thresholds", "lambda_threshold"),
    ("asymptotics", "fit_speed"),
    ("asymptotics", "profile_error"),
    ("config", "load_config"),
    ("config", "spec_from_config"),
    ("cli", "main"),
)

PROFILE_SPANS = ("waves.stationary_increasing", "waves.tadpole_wave",
                 "waves.finite_wave", "waves.traveling_wave",
                 "waves.profile_interpolator")
THRESHOLD_SPANS = ("thresholds.mu_threshold", "thresholds.lambda_threshold")
SWEEP_CELL_SPAN = "cli.sweep.cell"   # recorded by the serial sweep replay
HINT_SPANS = ("waves.spreading_speed", "eigen.critical_length")

# name -> unit; the order and names match BENCHMARK.json's per_layer list.
PER_LAYER = {
    "stefan.step.calls": "count",
    "stefan.step.us_mean": "us",
    "stefan.grid_cells_per_s": "1/s",
    "stefan.simulate.calls": "count",
    "stefan.simulate.busy_s": "s",
    "waves.shoot_semi_wave.calls": "count",
    "waves.shoot_semi_wave.busy_s": "s",
    "waves.spreading_speed.calls": "count",
    "waves.spreading_speed.busy_s": "s",
    "waves.spreading_speed.ms_p50": "ms",
    "waves.shots_per_ctilde": "ratio",
    "waves.critical_advection.calls": "count",
    "waves.critical_advection.busy_s": "s",
    "waves.ctilde_per_beta_star": "ratio",
    "waves.profiles.busy_s": "s",
    "thresholds.runs": "count",
    "thresholds.sim_time_units": "model_t",
    "thresholds.certified_time_frac": "frac",
    "thresholds.rerun_frac": "frac",
    "classify.classify.calls": "count",
    "classify.classify.busy_s": "s",
    "classify.undetermined_frac": "frac",
    "eigen.critical_length.calls": "count",
    "eigen.critical_length.busy_s": "s",
    "asymptotics.fit_speed.busy_s": "s",
    "asymptotics.profile_error.busy_s": "s",
    "cli.sweep.pool_efficiency": "frac",
    "cli.sweep.hint_share": "frac",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}


def _observe_step(tracer, idx, args, kwargs, result):
    tracer.counts["stefan.grid_cells"] += args[1].nx


def _observe_simulate(tracer, idx, args, kwargs, result):
    tracer.attrs[idx] = {"tmax": float(args[0].tmax)}


def _observe_classify(tracer, idx, args, kwargs, result):
    attrs = {"verdict": result.verdict}
    if result.evidence.get("rule") == "front-beyond-critical-length":
        # time at which the rigorous certificate h >= l_star + margin fired
        traj = args[0]
        lstar = kwargs["lstar"] if "lstar" in kwargs else args[2]
        margin = kwargs.get("margin",
                            importlib.import_module(f"{PACKAGE}.classify").MARGIN)
        attrs["t_cert"] = float(traj.times[(traj.h >= lstar + margin).argmax()])
    tracer.attrs[idx] = attrs


OBSERVERS = {
    "stefan.step": _observe_step,
    "stefan.simulate": _observe_simulate,
    "classify.classify": _observe_classify,
}


def install(tracer) -> None:
    tracer.install(PACKAGE, LAYERS, OBSERVERS)


def _ratio(num, den):
    return num / den if den else 0.0


def _threshold_metrics(tr):
    sims = [i for i in tr.indices("stefan.simulate")
            if tr.has_ancestor(i, THRESHOLD_SPANS)]
    verdicts = [i for i in tr.indices("classify.classify")
                if tr.has_ancestor(i, THRESHOLD_SPANS)]
    horizons = [tr.attrs[i]["tmax"] for i in sims]
    # each threshold run is one simulate followed by its classify
    needed = [tr.attrs[c].get("t_cert", tmax)
              for c, tmax in zip(verdicts, horizons)]
    base = {}
    for i, tmax in zip(sims, horizons):
        base[tr.run[i]] = min(tmax, base.get(tr.run[i], tmax))
    reruns = sum(tmax > base[tr.run[i]] * (1.0 + 1e-12)
                 for i, tmax in zip(sims, horizons))
    total = sum(horizons)
    return {
        "thresholds.runs": float(len(sims)),
        "thresholds.sim_time_units": total,
        "thresholds.certified_time_frac": _ratio(sum(needed), total),
        "thresholds.rerun_frac": _ratio(reruns, len(sims)),
    }


def layer_metrics(tr, wall_ref: float, wall_traced: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``wall_ref`` is the untraced wall time of the same work and
    ``wall_traced`` the traced one.  ``cli.sweep.*`` are filled in by the
    sweep workload and read 0 here.
    """
    dur = tr.durations()

    def busy(name):
        return sum(dur[i] for i in tr.indices(name))

    def calls(name):
        return float(len(tr.indices(name)))

    steps = tr.indices("stefan.step")
    step_busy = busy("stefan.step")
    speeds = tr.indices("waves.spreading_speed")
    shots_in_speed = sum(tr.has_ancestor(i, ("waves.spreading_speed",))
                         for i in tr.indices("waves.shoot_semi_wave"))
    speeds_in_adv = sum(tr.has_ancestor(i, ("waves.critical_advection",))
                        for i in speeds)
    classifications = tr.indices("classify.classify")
    undetermined = sum(tr.attrs[i]["verdict"] == "Undetermined"
                       for i in classifications)

    m = {
        "stefan.step.calls": float(len(steps)),
        "stefan.step.us_mean": _ratio(step_busy, len(steps)) * 1e6,
        "stefan.grid_cells_per_s": _ratio(tr.counts["stefan.grid_cells"], step_busy),
        "stefan.simulate.calls": calls("stefan.simulate"),
        "stefan.simulate.busy_s": busy("stefan.simulate"),
        "waves.shoot_semi_wave.calls": calls("waves.shoot_semi_wave"),
        "waves.shoot_semi_wave.busy_s": busy("waves.shoot_semi_wave"),
        "waves.spreading_speed.calls": float(len(speeds)),
        "waves.spreading_speed.busy_s": busy("waves.spreading_speed"),
        "waves.spreading_speed.ms_p50":
            statistics.median(dur[i] for i in speeds) * 1e3 if speeds else 0.0,
        "waves.shots_per_ctilde": _ratio(shots_in_speed, len(speeds)),
        "waves.critical_advection.calls": calls("waves.critical_advection"),
        "waves.critical_advection.busy_s": busy("waves.critical_advection"),
        "waves.ctilde_per_beta_star":
            _ratio(speeds_in_adv, calls("waves.critical_advection")),
        "waves.profiles.busy_s": sum(busy(n) for n in PROFILE_SPANS),
        "classify.classify.calls": float(len(classifications)),
        "classify.classify.busy_s": busy("classify.classify"),
        "classify.undetermined_frac": _ratio(undetermined, len(classifications)),
        "eigen.critical_length.calls": calls("eigen.critical_length"),
        "eigen.critical_length.busy_s": busy("eigen.critical_length"),
        "asymptotics.fit_speed.busy_s": busy("asymptotics.fit_speed"),
        "asymptotics.profile_error.busy_s": busy("asymptotics.profile_error"),
        "cli.sweep.pool_efficiency": 0.0,
        "cli.sweep.hint_share": 0.0,
        "trace.overhead_frac": _ratio(wall_traced - wall_ref, wall_ref),
        # share of the traced pass spent inside named layers; measured on
        # the traced pass itself, so run-to-run noise does not enter it
        "trace.coverage_frac": _ratio(sum(tr.self_times()), wall_traced),
    }
    m.update(_threshold_metrics(tr))
    return m


def sweep_hint_share(tr) -> float:
    """Share of sweep-cell time spent on the l_star / c_tilde hint."""
    cells = set(tr.indices(SWEEP_CELL_SPAN))
    dur = tr.durations()
    hint = sum(dur[i] for name in HINT_SPANS for i in tr.indices(name)
               if tr.parent[i] in cells)
    return _ratio(hint, sum(dur[i] for i in cells))
