"""Span recording around the program's layer boundaries, from outside the program.

A :class:`Tracer` replaces module attributes that the program looks up at
call time (``islocc.amplitudes.inner``, ``islocc.slocc.mixed_trace``, ...)
with wrappers.  Each call records one span: name, start, end and the span
that was open on the same thread when it began.  Spans live in per-thread
arrays until the run ends, so recording takes no lock; the program's thread
pool runs families on two threads, and a task span started on a worker
thread names the submitting span as its parent explicitly.

A span's self time is its duration minus the part of its interval covered
by its children.  Children on one thread never overlap, but children on
different threads can, so there coverage is the length of the union of
their intervals, not the sum.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: A span id packs the recording thread's slot above this many bits.
_SLOT_SHIFT = 40

#: Spans converted to text at a time when writing a trace.
_CHUNK = 1 << 16


class _Buffer:
    """Spans recorded by one thread, in the order they were opened."""

    __slots__ = ("base", "name", "parent", "start", "end", "stack")

    def __init__(self, slot: int):
        self.base = slot << _SLOT_SHIFT
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []


@dataclass(frozen=True)
class Spans:
    """All recorded spans as columns; ``parent`` is a row index or -1."""

    names: tuple[str, ...]
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    thread: np.ndarray

    def __len__(self) -> int:
        return len(self.name)


@dataclass(frozen=True)
class Patch:
    """One module attribute to wrap, the span name it records under, and
    optional hooks: ``after(tracer, result)`` on return, ``errors`` mapping an
    exception class name to the counter bumped when the call raises it."""

    module: str
    attr: str
    span: str
    after: Callable | None = None
    errors: tuple[tuple[str, str], ...] = ()
    task_span: str | None = None


class Tracer:
    """Records spans and counters while installed; restores the program on exit."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: tuple[Patch, ...] = ()
        self._saved: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def count(self, counter: str, amount: int | float = 1) -> None:
        with self._lock:
            self.counters[counter] += amount

    def current_span(self) -> int:
        """Id of the innermost open span on this thread, or -1."""
        stack = self._buffer().stack
        return stack[-1] if stack else -1

    def wrap(self, name: str, fn: Callable, parent: int | None = None) -> Callable:
        """Return ``fn`` recording one span per call.  ``parent`` fixes the
        parent of spans opened with nothing else open on their thread."""
        nid = self._intern(name)
        local = self._local
        new_buffer = self._buffer
        clock = time.perf_counter_ns
        root = -1 if parent is None else parent

        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or new_buffer()
            stack = buf.stack
            i = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else root)
            buf.end.append(0)
            stack.append(buf.base + i)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[i] = clock()
                stack.pop()

        return traced

    # -- installing into the program ----------------------------------------

    def _hooked(self, patch: Patch, fn: Callable) -> Callable:
        body = fn
        if patch.task_span is not None:
            body = self._tracing_tasks(patch.task_span, body)
        if patch.after is not None or patch.errors:
            body = self._counting(patch.after, dict(patch.errors), body)
        return self.wrap(patch.span, body)

    def _tracing_tasks(self, task_span: str, mapper: Callable) -> Callable:
        """Wrap the task a mapper is given, so that each task records a span
        whose parent is the mapper's span even on a pool thread."""
        def mapped(task, *args, **kwargs):
            return mapper(self.wrap(task_span, task, parent=self.current_span()),
                          *args, **kwargs)
        return mapped

    def _counting(self, after: Callable | None, errors: dict[str, str],
                  fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counter = errors.get(type(exc).__name__)
                if counter is not None:
                    self.count(counter)
                raise
            if after is not None:
                after(self, result)
            return result
        return counted

    def install(self, patches: tuple[Patch, ...]) -> None:
        """Wrap every patch target that exists; targets a refactor removed are
        skipped, and their metrics then read 0."""
        self._patches = tuple(patches)
        for patch in patches:
            module = importlib.import_module(patch.module)
            original = getattr(module, patch.attr, None)
            if original is None:
                continue
            self._saved.append((module, patch.attr, original))
            setattr(module, patch.attr, self._hooked(patch, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the body with the program unwrapped, then wrap it again."""
        patches = self._patches
        self.uninstall()
        try:
            yield
        finally:
            self.install(patches)

    # -- results -------------------------------------------------------------

    def spans(self) -> Spans:
        """Hand over every thread's spans as one set of columns, mapping parent
        ids to row indices, and forget them here.  Call after :meth:`uninstall`."""
        with self._lock:
            buffers, self._buffers = self._buffers, []
        self._local = threading.local()
        sizes = [len(b.start) for b in buffers]
        offsets = np.cumsum([0] + sizes)

        def column(key: str, dtype) -> np.ndarray:
            joined = np.concatenate([np.frombuffer(getattr(b, key), dtype=dtype)
                                     for b in buffers] or [np.empty(0, dtype)])
            for b in buffers:  # free each array as soon as it is copied
                setattr(b, key, array(getattr(b, key).typecode))
            return joined

        name, parent = column("name", np.uint16), column("parent", np.int64)
        start, end = column("start", np.int64), column("end", np.int64)
        has = parent >= 0
        parent[has] = offsets[parent[has] >> _SLOT_SHIFT] + (parent[has] & ((1 << _SLOT_SHIFT) - 1))
        thread = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
        return Spans(tuple(self._names), name, parent, start, end, thread)


def _union_cover(start, end, parent, children, n: int) -> np.ndarray:
    """Per parent, the length of the union of the given children's intervals,
    each clipped to the parent's interval."""
    order = np.lexsort((start[children], parent[children]))
    c = children[order]
    p = parent[c]
    cs = np.maximum(start[c], start[p])
    ce = np.maximum(np.minimum(end[c], end[p]), cs)
    # Shift each parent's children into a disjoint time band so that one
    # running maximum over all rows is a per-parent running maximum.
    origin = int(cs.min())
    band = int(ce.max()) - origin + 1
    group = np.cumsum(np.r_[True, p[1:] != p[:-1]])
    cs = cs - origin + group * band
    ce = ce - origin + group * band
    before = np.r_[np.iinfo(np.int64).min, np.maximum.accumulate(ce)[:-1]]
    return np.bincount(p, weights=np.maximum(ce - np.maximum(cs, before), 0), minlength=n)


def self_times(spans: Spans) -> np.ndarray:
    """Duration of each span minus the time its children cover, in ns.

    Children on the parent's own thread nest inside it one after another, so
    they cover the sum of their durations.  A parent with children on other
    threads is covered by the union of all its children's intervals, each
    clipped to the parent's."""
    n = len(spans)
    duration = spans.end - spans.start
    has = spans.parent >= 0
    parent = np.where(has, spans.parent, 0)
    crossing = np.zeros(n, dtype=bool)
    crossing[parent[has & (spans.thread != spans.thread[parent])]] = True
    to_union = has & crossing[parent]
    covered = np.bincount(parent, weights=np.where(has & ~to_union, duration, 0), minlength=n)
    if to_union.any():
        covered += _union_cover(spans.start, spans.end, spans.parent,
                                np.flatnonzero(to_union), n)
    return duration - covered


@dataclass(frozen=True)
class LayerTotals:
    calls: int
    total_s: float
    self_s: float


def layer_totals(spans: Spans) -> dict[str, LayerTotals]:
    """Calls, inclusive time and self time per span name, in seconds."""
    own = self_times(spans)
    n = len(spans.names)
    calls = np.bincount(spans.name, minlength=n)
    total = np.bincount(spans.name, weights=spans.end - spans.start, minlength=n)
    self_ns = np.bincount(spans.name, weights=own, minlength=n)
    return {name: LayerTotals(int(calls[i]), total[i] / 1e9, self_ns[i] / 1e9)
            for i, name in enumerate(spans.names)}


def write_trace(path, spans: Spans, counters: dict, meta: dict) -> None:
    """Write spans (columns, times in ns from the first span) and counters as
    gzip-compressed JSON."""
    origin = int(spans.start.min()) if len(spans) else 0

    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write('{"meta":' + json.dumps(meta))
        out.write(',"counters":' + json.dumps(dict(counters)))
        out.write(',"names":' + json.dumps(list(spans.names)))
        columns = (("name", spans.name), ("parent", spans.parent),
                   ("thread", spans.thread), ("start_ns", spans.start - origin),
                   ("end_ns", spans.end - origin))
        for k, (key, values) in enumerate(columns):
            out.write((',"spans":{' if k == 0 else ",") + json.dumps(key) + ":[")
            for lo in range(0, len(values), _CHUNK):
                out.write(("," if lo else "")
                          + ",".join(map(str, values[lo:lo + _CHUNK].tolist())))
            out.write("]")
        out.write("}}\n")
