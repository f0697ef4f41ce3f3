"""Spans recorded by the benchmark itself, and self-time computed from them.

A :class:`Recorder` keeps every finished span in memory: name, layer,
start, end, parent and query id.  Spans nest through a per-thread stack;
a span opened on a thread with an empty stack (a scheduler dispatch
thread, a node fan-out worker) finds its parent through an object the
two sides share, registered with :meth:`Recorder.bind` -- the SQL string
object for the query root, the per-query options object for node work.

Self-time is derived here, never from the program's own tracer:
:func:`self_times` splits every instant of a query's wall time equally
among the innermost spans open at that instant.  For spans on one thread
this is the usual "duration minus the part its children cover"; where
sibling spans overlap (the per-node fan-out runs on parallel threads)
each gets an equal share of the overlap, so the self-times of one query
add up to its wall time instead of exceeding it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    qid: Optional[int]
    parent: Optional[int]
    thread: int
    start: int
    end: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Recorder:
    """In-memory span store; all times are ``perf_counter_ns`` values."""

    def __init__(self) -> None:
        #: Wrappers record only while this is set.
        self.active = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bound: Dict[int, Span] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(
        self,
        name: str,
        layer: str,
        parent: Optional[Span] = None,
        qid: Optional[int] = None,
    ) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            sid=next(self._ids),
            name=name,
            layer=layer,
            qid=parent.qid if parent is not None else qid,
            parent=parent.sid if parent is not None else None,
            thread=threading.get_ident(),
            start=time.perf_counter_ns(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        # Wrappers close spans in try/finally, so ends come in LIFO order.
        self._stack().pop()
        self.spans.append(span)

    def bind(self, obj: object, span: Span) -> None:
        """Make ``span`` the parent for work handed ``obj`` on other threads."""
        self._bound[id(obj)] = span

    def unbind(self, obj: object) -> None:
        self._bound.pop(id(obj), None)

    def bound(self, obj: object) -> Optional[Span]:
        return self._bound.get(id(obj))

    def by_query(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.qid is not None:
                out[span.qid].append(span)
        return dict(out)

    def orphans(self) -> int:
        """Spans that could not be tied to a query."""
        return sum(1 for span in self.spans if span.qid is None)

    def write_chrome_trace(self, path: str) -> None:
        """All spans as a Chrome-trace (``chrome://tracing``) JSON file."""
        origin = min((s.start for s in self.spans), default=0)
        threads: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(span.thread, len(threads))
            args = {"qid": span.qid, "sid": span.sid, "parent": span.parent}
            args.update(span.attrs)
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start - origin) / 1e3,
                    "dur": span.duration / 1e3,
                    "pid": 0,
                    "tid": tid,
                    "args": args,
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Wall-attributed self-time (ns) of every span of one query tree.

    Each child is clipped to its parent's interval.  The query's wall
    time is swept once; every elementary interval is split equally among
    the spans open in it that have no open child.
    """
    spans = list(spans)
    by_id = {span.sid: span for span in spans}
    depth: Dict[int, int] = {}

    def depth_of(sid: int) -> int:
        if sid not in depth:
            parent = by_id[sid].parent
            depth[sid] = 0 if parent not in by_id else depth_of(parent) + 1
        return depth[sid]

    bounds: Dict[int, tuple] = {}
    for span in sorted(spans, key=lambda s: depth_of(s.sid)):
        start, end = span.start, span.end
        if span.parent in bounds:
            p_start, p_end = bounds[span.parent]
            start, end = max(start, p_start), min(end, p_end)
        bounds[span.sid] = (start, max(start, end))

    events = []
    for sid, (start, end) in bounds.items():
        if end > start:
            # Ends sort before starts at one instant; parents open before
            # and close after their children.
            events.append((start, 1, depth_of(sid), sid))
            events.append((end, 0, -depth_of(sid), sid))
    events.sort()

    out = {sid: 0.0 for sid in by_id}
    open_children: Dict[int, int] = defaultdict(int)
    active = set()
    leaves = set()
    prev = None
    for instant, kind, _, sid in events:
        if prev is not None and leaves and instant > prev:
            share = (instant - prev) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        prev = instant
        parent = by_id[sid].parent
        if kind == 1:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out
