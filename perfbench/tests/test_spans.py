"""Span recording and self-time subtraction, on synthetic spans and a synthetic module."""

import gzip
import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perfbench.spans import Patch, Spans, Tracer, layer_totals, self_times, write_trace


def _spans(rows, names=("a",)):
    name, parent, start, end, thread = (np.array(col, dtype=np.int64) for col in zip(*rows))
    return Spans(tuple(names), name, parent, start, end, thread)


def test_self_time_subtracts_nested_children():
    #           name parent start end thread
    spans = _spans([(0, -1, 0, 10, 0),    # outer
                    (0, 0, 2, 8, 0),      # child
                    (0, 1, 3, 4, 0),      # grandchild
                    (0, 0, 8, 9, 0)])     # second child
    assert self_times(spans).tolist() == [3, 5, 1, 1]


def test_self_time_takes_union_of_children_on_two_threads():
    spans = _spans([(0, -1, 0, 10, 0),    # mapper on the main thread
                    (0, 0, 1, 6, 1),      # task on thread 1
                    (0, 0, 4, 9, 2),      # overlapping task on thread 2
                    (0, 1, 2, 3, 1)])     # call inside the first task
    # the tasks cover [1, 9]: 8 units, not 5 + 5
    assert self_times(spans).tolist() == [2, 4, 5, 1]


def test_self_time_clips_children_on_other_threads_to_the_parent():
    spans = _spans([(0, -1, 0, 10, 0), (0, 0, 8, 12, 1)])
    assert self_times(spans).tolist() == [8, 4]


def test_layer_totals_group_by_name():
    spans = _spans([(0, -1, 0, 4_000_000_000, 0),
                    (1, 0, 1_000_000_000, 2_000_000_000, 0),
                    (1, 0, 2_000_000_000, 3_000_000_000, 0)], names=("outer", "leaf"))
    totals = layer_totals(spans)
    assert totals["outer"].calls == 1
    assert totals["outer"].self_s == pytest.approx(2.0)
    assert totals["leaf"].calls == 2
    assert totals["leaf"].total_s == pytest.approx(2.0)


@pytest.fixture
def fake_layer():
    module = types.ModuleType("perfbench_fake_layer")

    def leaf(x):
        if x < 0:
            raise KeyError(x)
        return x + 1

    def task(x):
        return module.leaf(x) + module.leaf(x)

    def mapper(fn, items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, items))

    def top(items):
        return module.mapper(task, items)

    module.leaf, module.mapper, module.top = leaf, mapper, top
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_tracer_links_pool_tasks_to_the_mapper_and_restores(fake_layer):
    original = fake_layer.leaf
    tracer = Tracer()
    tracer.install((
        Patch(fake_layer.__name__, "leaf", "leaf", errors=(("KeyError", "leaf.errors"),)),
        Patch(fake_layer.__name__, "mapper", "mapper", task_span="task",
              after=lambda t, result: t.count("mapped", len(result))),
        Patch(fake_layer.__name__, "top", "top"),
        Patch(fake_layer.__name__, "missing", "missing"),
    ))
    try:
        assert fake_layer.top(list(range(8))) == [2 * x + 2 for x in range(8)]
        with pytest.raises(KeyError):
            fake_layer.leaf(-1)
    finally:
        tracer.uninstall()
    assert fake_layer.leaf is original
    assert not hasattr(fake_layer, "missing")

    spans = tracer.spans()
    names = [spans.names[i] for i in spans.name]
    assert names.count("top") == 1 and names.count("mapper") == 1
    assert names.count("task") == 8 and names.count("leaf") == 17
    mapper = names.index("mapper")
    assert spans.parent[mapper] == names.index("top")
    for i, name in enumerate(names):
        if name == "task":
            assert spans.parent[i] == mapper
            assert spans.start[mapper] <= spans.start[i] <= spans.end[i] <= spans.end[mapper]
        elif name == "leaf" and spans.parent[i] >= 0:
            assert names[spans.parent[i]] == "task"
    assert tracer.counters == {"mapped": 8, "leaf.errors": 1}
    assert (self_times(spans) >= 0).all()


def test_paused_tracer_records_nothing_and_resumes(fake_layer):
    tracer = Tracer()
    tracer.install((Patch(fake_layer.__name__, "leaf", "leaf"),))
    try:
        with tracer.paused():
            fake_layer.leaf(1)
        fake_layer.leaf(2)
    finally:
        tracer.uninstall()
    assert len(tracer.spans()) == 1


def test_tracer_counts_from_threads_without_losing_updates():
    tracer = Tracer()

    def bump():
        for _ in range(2000):
            tracer.count("n")

    threads = [threading.Thread(target=bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert tracer.counters["n"] == 8000


def test_write_trace_round_trips(tmp_path):
    spans = _spans([(0, -1, 100, 200, 0), (1, 0, 120, 150, 1)], names=("a", "b"))
    path = tmp_path / "trace.json.gz"
    write_trace(path, spans, {"c": 3}, {"workload": "w"})
    with gzip.open(path, "rt", encoding="utf-8") as f:
        data = json.load(f)
    assert data["meta"] == {"workload": "w"}
    assert data["counters"] == {"c": 3}
    assert data["names"] == ["a", "b"]
    assert data["spans"] == {"name": [0, 1], "parent": [-1, 0], "thread": [0, 1],
                             "start_ns": [0, 20], "end_ns": [100, 50]}


def test_empty_tracer_gives_empty_spans():
    spans = Tracer().spans()
    assert len(spans) == 0
    assert layer_totals(spans) == {}
