"""Where the tracer wraps the program, and the per-layer metrics derived from it.

Layers are the modules under ``src/islocc/``.  Each patch names the module
attribute the *caller* looks up at call time: ``ensembles.amplitude`` is the
amplitude the traces and overlaps use, ``amplitudes.inner`` the inner
product behind every overlap matrix, and so on.  ``svg`` is not wrapped
because no workload renders SVG.
"""

from __future__ import annotations

from .spans import LayerTotals, Patch, Tracer


def _count_bytes(tracer: Tracer, text: str) -> None:
    tracer.count("sweeps.encode.bytes", len(text.encode("utf-8")))


def _count_flagged(tracer: Tracer, records) -> None:
    tracer.count("sweeps.flagged_rows", sum(1 for r in records if getattr(r, "flagged", False)))


_UNDEFINED = (("ProjectionUndefinedError", "slocc.project.undefined"),)

PATCHES = (
    Patch("islocc.amplitudes", "inner", "states.inner"),
    Patch("islocc.amplitudes", "overlap_matrix", "amplitudes.overlap_matrix"),
    Patch("islocc.ensembles", "amplitude", "amplitudes.amplitude"),
    Patch("islocc.ensembles", "state_overlap", "ensembles.state_overlap"),
    Patch("islocc.slocc", "state_overlap", "ensembles.state_overlap"),
    Patch("islocc.slocc", "mixed_trace", "ensembles.mixed_trace"),
    Patch("islocc.werner", "project", "slocc.project", errors=_UNDEFINED),
    Patch("islocc.indistinguishability", "degree_n", "indistinguishability.degree_n"),
    Patch("islocc.sweeps", "degree_two", "indistinguishability.degree_two"),
    Patch("islocc.entanglement", "bell_horodecki", "entanglement.bell_horodecki"),
    Patch("islocc.sweeps", "analyze", "entanglement.analyze"),
    Patch("islocc.werner", "werner_direct", "werner.werner_direct"),
    Patch("islocc.sweeps", "project_werner", "werner.project_werner"),
    Patch("islocc.sweeps", "parallel_map", "sweeps.parallel_map",
          task_span="sweeps.parallel_map.task"),
    Patch("islocc.sweeps", "run_sweep", "sweeps.run_sweep", after=_count_flagged),
    Patch("islocc.cli", "run_sweep", "sweeps.run_sweep", after=_count_flagged),
    Patch("islocc.cli", "find_threshold", "sweeps.find_threshold"),
    Patch("islocc.sweeps", "records_to_json", "sweeps.encode", after=_count_bytes),
    Patch("islocc.cli", "records_to_csv", "sweeps.encode", after=_count_bytes),
    Patch("islocc.cli", "records_to_json", "sweeps.encode", after=_count_bytes),
    Patch("islocc.cli", "main", "cli.main"),
)

#: Per-layer metric name -> unit, in the order they are reported.
METRICS = {
    "states.inner.calls": "count",
    "states.inner.self_s": "s",
    "amplitudes.amplitude.calls": "count",
    "amplitudes.amplitude.self_s": "s",
    "amplitudes.amplitude.calls_per_point": "count",
    "amplitudes.overlap_matrix.self_s": "s",
    "ensembles.state_overlap.calls": "count",
    "ensembles.state_overlap.self_s": "s",
    "ensembles.mixed_trace.calls": "count",
    "ensembles.mixed_trace.self_s": "s",
    "ensembles.mixed_trace.share_of_project": "ratio",
    "slocc.project.calls": "count",
    "slocc.project.self_s": "s",
    "slocc.project.undefined": "count",
    "werner.werner_direct.calls": "count",
    "werner.werner_direct.self_s": "s",
    "werner.project_werner.calls": "count",
    "sweeps.find_threshold.pipeline_evals": "count",
    "indistinguishability.degree_two.calls": "count",
    "indistinguishability.degree_two.self_s": "s",
    "indistinguishability.degree_n.self_s": "s",
    "entanglement.analyze.calls": "count",
    "entanglement.analyze.self_s": "s",
    "entanglement.bell_horodecki.calls": "count",
    "sweeps.parallel_map.wall_s": "s",
    "sweeps.parallel_map.busy_s": "s",
    "sweeps.encode.self_s": "s",
    "sweeps.encode.bytes": "bytes",
    "sweeps.flagged_rows": "count",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
    "src.lines": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict[str, LayerTotals], counters: dict, passes: int) -> dict:
    """Per-pass values of every per-layer metric except ``trace.overhead`` and
    ``src.lines``; a layer no call reached reads 0."""
    empty = LayerTotals(0, 0.0, 0.0)

    def get(name: str) -> LayerTotals:
        return totals.get(name, empty)

    values = {}
    for metric in METRICS:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = get(layer).calls / passes
        elif field == "self_s":
            values[metric] = get(layer).self_s / passes
    values["amplitudes.amplitude.calls_per_point"] = _ratio(
        get("amplitudes.amplitude").calls, get("werner.project_werner").calls)
    values["ensembles.mixed_trace.share_of_project"] = _ratio(
        get("ensembles.mixed_trace").total_s, get("slocc.project").total_s)
    values["sweeps.find_threshold.pipeline_evals"] = _ratio(
        get("werner.project_werner").calls, get("sweeps.find_threshold").calls)
    values["sweeps.parallel_map.wall_s"] = get("sweeps.parallel_map").total_s / passes
    values["sweeps.parallel_map.busy_s"] = get("sweeps.parallel_map.task").total_s / passes
    for counter in ("slocc.project.undefined", "sweeps.encode.bytes", "sweeps.flagged_rows"):
        values[counter] = counters.get(counter, 0) / passes
    return values
