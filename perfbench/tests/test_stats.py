"""Percentile selection, operation tallies and per-layer metric derivation."""

import pytest

from perfbench.layers import METRICS, layer_metrics
from perfbench.spans import LayerTotals
from perfbench.stats import Outcome, Tally, attempt, summarize, tail_percentile


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, (50.0, 10)), (40, (75.0, 30)),
    (100, (90.0, 90)), (200, (95.0, 190)), (1000, (99.0, 990)), (10000, (99.9, 9990)),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = [float(k) for k in range(n, 0, -1)]  # values 1..n, unsorted
    assert tail_percentile(samples) == expected


def test_summary_states_median_and_sample_count():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary == {"median": 2.0, "tail": None, "samples": 3}
    assert summarize([float(k) for k in range(1, 21)])["tail"] == {"percentile": 50.0,
                                                                  "value": 10.0}


def test_failing_check_raising_op_and_raising_check_all_count_as_failed():
    def op(x):
        if x == "boom":
            raise RuntimeError("op failed")
        return x

    outcomes = [attempt(str(x), op, x) for x in ("good", "bad", "boom", "odd")]

    def check(outcome):
        if outcome.value == "odd":
            raise ValueError("cannot check")
        return [] if outcome.value == "good" else ["wrong value"]

    tally = Tally()
    tally.record(outcomes, check)
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.problems == ["bad: wrong value", "boom: RuntimeError: op failed",
                              "odd: check raised ValueError: cannot check"]
    tally.record([Outcome("fine", 1)], lambda o: [])
    assert (tally.attempted, tally.failed) == (5, 3)


def test_layer_metrics_are_per_pass_and_zero_for_unreached_layers():
    totals = {
        "states.inner": LayerTotals(800, 4.0, 2.0),
        "amplitudes.amplitude": LayerTotals(200, 6.0, 1.0),
        "werner.project_werner": LayerTotals(4, 8.0, 0.1),
        "slocc.project": LayerTotals(4, 7.0, 0.5),
        "ensembles.mixed_trace": LayerTotals(4, 3.5, 0.2),
        "sweeps.find_threshold": LayerTotals(2, 9.0, 0.0),
        "sweeps.parallel_map": LayerTotals(2, 5.0, 0.0),
        "sweeps.parallel_map.task": LayerTotals(8, 9.0, 0.0),
    }
    values = layer_metrics(totals, {"sweeps.flagged_rows": 4}, passes=2)
    assert set(values) == set(METRICS) - {"trace.overhead", "src.lines"}
    assert values["states.inner.calls"] == 400
    assert values["states.inner.self_s"] == 1.0
    assert values["amplitudes.amplitude.calls_per_point"] == 50
    assert values["ensembles.mixed_trace.share_of_project"] == 0.5
    assert values["sweeps.find_threshold.pipeline_evals"] == 2
    assert values["sweeps.parallel_map.wall_s"] == 2.5
    assert values["sweeps.parallel_map.busy_s"] == 4.5
    assert values["sweeps.flagged_rows"] == 2
    assert values["entanglement.bell_horodecki.calls"] == 0
    assert values["slocc.project.undefined"] == 0
