"""In-memory span recording and the arithmetic the benchmark reports.

Spans are recorded only by the benchmark's own proxies (``proxies.py``),
never inside the program.  Each thread appends to its own column buffers,
so recording needs no lock and costs two clock reads and a few array
appends; the parent of a span is whatever span was open on the same
thread when it began.  Everything is kept in memory and written once,
after the measured phase ends (:meth:`SpanRecorder.dump`).

A span's *self time* is its duration minus the part of its interval that
its child spans cover (children may overlap each other or spill past
their parent; only the covered part of the parent's interval counts).
"""

from __future__ import annotations

import gzip
import json
import threading
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    """One closed span, as handed to the analysis functions."""

    span_id: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float


class _ThreadBuffer:
    __slots__ = ("name", "parent", "start", "end", "stack", "attrs", "thread")

    def __init__(self, thread: str) -> None:
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.attrs: dict[int, object] = {}
        self.thread = thread


class SpanRecorder:
    """Per-thread span buffers plus named counters."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self.counts: Counter = Counter()
        self.t0 = perf_counter()

    def name_id(self, name: str) -> int:
        """Intern a span name (done once per proxied method, not per call)."""
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self._names)
                self._names.append(name)
            return nid

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def open(self, nid: int) -> int:
        """Begin a span on this thread; returns its per-thread index."""
        buf = self._buffer()
        index = len(buf.start)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.end.append(0.0)
        buf.stack.append(index)
        buf.start.append(perf_counter())
        return index

    def close(self, index: int, attr: object = None) -> None:
        """End the span ``index`` opened on this thread."""
        now = perf_counter()
        buf = self._local.buf
        buf.end[index] = now
        buf.stack.pop()
        if attr is not None:
            buf.attrs[index] = attr

    def call(self, nid: int, fn, *args, **kwargs):
        """Run ``fn`` inside a span named by ``nid``."""
        index = self.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    @contextmanager
    def muted(self):
        """Drop the spans this thread records inside the block (the
        benchmark's own checks call into the program too)."""
        saved = self._buffer()
        self._local.buf = _ThreadBuffer(saved.thread)
        try:
            yield
        finally:
            self._local.buf = saved

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def spans(self) -> list[tuple[str, list[Span], dict[int, object]]]:
        """All closed spans, per thread: (thread name, spans, attributes)."""
        out = []
        for buf in self._buffers:
            spans = [
                Span(i, buf.parent[i], self._names[buf.name[i]], buf.start[i], buf.end[i])
                for i in range(len(buf.start))
                if buf.end[i] > 0.0
            ]
            out.append((buf.thread, spans, dict(buf.attrs)))
        return out

    def columns(self):
        """Per thread: (name ids, parents, starts, ends, attrs), in start order."""
        for buf in self._buffers:
            yield buf.name, buf.parent, buf.start, buf.end, buf.attrs

    @property
    def names(self) -> list[str]:
        return self._names

    def dump(self, path) -> int:
        """Write every span once, gzip-compressed JSON; returns the span count.

        Times are integer nanoseconds since the recorder was created.
        """
        threads = []
        total = 0
        for buf in self._buffers:
            total += len(buf.start)
            threads.append(
                {
                    "thread": buf.thread,
                    "name": buf.name.tolist(),
                    "parent": buf.parent.tolist(),
                    "start_ns": [int((t - self.t0) * 1e9) for t in buf.start],
                    "end_ns": [int((t - self.t0) * 1e9) for t in buf.end],
                    "attrs": {str(k): v for k, v in buf.attrs.items()},
                }
            )
        doc = {"names": self._names, "threads": threads, "counts": dict(self.counts)}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return total


def covered_length(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if e > start and s < end
    )
    covered = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        elif e > run_end:
            run_end = e
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_times_sorted(parent, start, end) -> list[float]:
    """Self times of spans given as columns sorted by start time.

    ``parent[i]`` is the position of span *i*'s parent (or -1).  One
    sweep in start order keeps, per parent, the covered length and the
    end of the current run of overlapping children, so the union of a
    parent's children is measured without building interval lists.
    """
    n = len(start)
    covered = [0.0] * n
    run_end = [float("-inf")] * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        s, e = start[i], end[i]
        ps, pe = start[p], end[p]
        if s < ps:
            s = ps
        if e > pe:
            e = pe
        if e <= s:
            continue
        r = run_end[p]
        if s >= r:
            covered[p] += e - s
            run_end[p] = e
        elif e > r:
            covered[p] += e - r
            run_end[p] = e
    return [end[i] - start[i] - covered[i] for i in range(n)]


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span (same order as ``spans``)."""
    order = sorted(range(len(spans)), key=lambda i: spans[i].start)
    position = {spans[i].span_id: k for k, i in enumerate(order)}
    parent = [position.get(spans[i].parent, -1) for i in order]
    own = self_times_sorted(
        parent, [spans[i].start for i in order], [spans[i].end for i in order]
    )
    out = [0.0] * len(spans)
    for k, i in enumerate(order):
        out[i] = own[k]
    return out


def layer_of(name: str) -> str:
    """Span names are ``<layer>.<what>``; the layer is the first part."""
    return name.split(".", 1)[0]


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile leaving at least ten samples beyond it.

    With nearest-rank percentiles the p-th percentile of ``count``
    sorted samples is the sample at rank ``ceil(p * count / 100)``; the
    samples beyond it number ``count`` minus that rank.  None when fewer
    than eleven samples exist (no percentile leaves ten beyond it).
    """
    if count < 11:
        return None
    p = (100 * (count - 10)) // count
    return p if p >= 1 else None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-int(round(p * 1000)) * len(ordered) // 100_000))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values) -> tuple[float, int]:
    """(tail value, percentile) of ``values`` per :func:`tail_percentile`.

    With fewer than eleven samples no percentile leaves ten beyond it;
    the maximum is reported as the 100th percentile.
    """
    if not values:
        raise ValueError("tail of no samples")
    p = tail_percentile(len(values))
    if p is None:
        return max(values), 100
    return percentile(values, p), p
