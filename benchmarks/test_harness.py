"""Self-tests for the benchmark harness; they run no solver.

    python3 -m pytest benchmarks -q
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import run
import spans
import workloads


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    tracer = spans.Tracer(clock=_fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert tracer.names == ["root", "a", "b", "c"]
    assert tracer.parent == [-1, 0, 0, 2]
    assert tracer.run == [0, 0, 0, 0]
    assert tracer.durations() == [10, 3, 4, 1]
    assert tracer.self_times() == [3, 3, 3, 1]
    assert sum(tracer.self_times()) == 10   # self times partition the root
    assert tracer.has_ancestor(3, ("root",)) and not tracer.has_ancestor(1, ("b",))


def test_roots_start_new_runs():
    tracer = spans.Tracer(clock=_fake_clock(range(8)))
    for _ in range(2):
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
    assert tracer.run == [0, 0, 2, 2]
    assert tracer.indices("leaf") == [1, 3]


def test_install_rebinds_every_binding_and_uninstall_restores():
    import freebound
    import freebound.stefan
    import freebound.thresholds

    original = freebound.stefan.simulate
    tracer = spans.Tracer()
    tracer.install("freebound", [("stefan", "simulate")])
    try:
        for module in (freebound, freebound.stefan, freebound.thresholds):
            assert module.simulate is not original
            assert module.simulate.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert freebound.thresholds.simulate is original
    assert freebound.simulate is original


@pytest.mark.parametrize("n, key", [(9, None), (99, None), (100, "p90"),
                                    (999, "p90"), (1000, "p99"), (10000, "p99.9")])
def test_percentile_only_with_ten_samples_beyond(n, key):
    out = run.summarize(list(range(n)))
    assert out["n"] == n
    assert out["p50"] == (n - 1) / 2
    extra = set(out) - {"n", "p50"}
    assert extra == ({key} if key else set())
    if key:
        beyond = sum(v > out[key] for v in range(n))
        assert beyond >= 10


def _threshold(bracket, history, note="bracketed"):
    width = bracket[1] - bracket[0] if bracket else 0.0
    return SimpleNamespace(bracket=bracket, width=width, history=history, note=note)


GOOD_HISTORY = ((0.5, "Vanishing"), (4.0, "Spreading"))


def test_good_bracket_passes():
    op = workloads.bracket_gate(_threshold((1.15625, 1.375), GOOD_HISTORY), 0.25,
                                workloads.ThresholdMu.REFERENCE)
    assert op.problems == []


@pytest.mark.parametrize("res", [
    _threshold((1.5, 1.7), GOOD_HISTORY),                  # misses the reference
    _threshold((1.0, 1.4), GOOD_HISTORY),                  # wider than tol
    _threshold((1.2, 1.4), ((0.5, "Spreading"),)),         # one verdict only
    _threshold(None, (), note="spreading-for-all-mu"),
])
def test_wrong_bracket_is_counted_as_failed(res):
    tally = workloads.Tally()
    tally.add([workloads.bracket_gate(res, 0.25, workloads.ThresholdMu.REFERENCE)])
    assert (tally.attempted, tally.failed) == (1, 1)


def _sweep_csv(verdicts):
    rows = [f"{i},1,0.5,{v},2,0" for i, v in enumerate(verdicts)]
    return "\n".join([workloads.SweepTable.HEADER] + rows) + "\n"


def test_wrong_verdict_is_counted_as_failed():
    reference = ["Vanishing"] * 15 + ["Spreading"]
    tally = workloads.Tally()
    tally.add(workloads.sweep_gate(0, _sweep_csv(reference), 16, reference))
    assert (tally.attempted, tally.failed) == (16, 0)

    wrong = list(reference)
    wrong[3], wrong[7] = "Spreading", "Error"
    tally.add(workloads.sweep_gate(0, _sweep_csv(wrong), 16, reference))
    assert (tally.attempted, tally.failed) == (32, 2)


def test_malformed_sweep_table_fails_every_cell():
    tally = workloads.Tally()
    tally.add(workloads.sweep_gate(0, "beta,mu\n", 16))
    tally.add(workloads.sweep_gate(2, _sweep_csv(["Vanishing"] * 16), 16))
    assert (tally.attempted, tally.failed) == (32, 32)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
