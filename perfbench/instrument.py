"""Wrap each layer's public functions in benchmark-recorded spans.

Nothing under ``src/repro`` is changed: :func:`installed` replaces class
methods and module attributes with thin wrappers for the duration of a
``with`` block and restores the originals afterwards.  A wrapper calls
straight through while the recorder is inactive.  Layer names are the
module names of the code each wrapped function belongs to.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, List, Optional

from repro.cache import layer as cache_layer
import repro.cache
from repro.core import aggregate, planner
from repro.core.extractor import Extractor
from repro.net import wire
from repro.net.client import TcpTransport
from repro.storm import data_source, query_service
from repro.storm.filtering import FilteringService
from repro.storm.mover import DataMoverService
from repro.storm.query_service import QueryService
from repro.storm.transport import LocalTransport

from .spans import Recorder, Span

#: Name of the root span the benchmark opens around ``Client.submit``.
ROOT = "query"


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _wrap(
    rec: Recorder,
    fn: Callable,
    name: str,
    layer: str,
    parent_key: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    """``fn`` inside a span; ``parent_key(args, kwargs)`` names the bound
    object that parents spans opened on a thread with no open span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        parent = None
        if parent_key is not None and rec.current() is None:
            parent = rec.bound(parent_key(args, kwargs))
        span = rec.begin(name, layer, parent)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    return wrapper


def _wrap_submit(rec: Recorder, fn: Callable) -> Callable:
    """``QueryService.submit``: parented by the root bound to the SQL
    object; binds its options object for the node fan-out threads."""

    @functools.wraps(fn)
    def wrapper(self, sql, options=None, *args, **kwargs):
        if not rec.active:
            return fn(self, sql, options, *args, **kwargs)
        parent = rec.current() or rec.bound(sql)
        span = rec.begin("coord.submit", "storm.query_service", parent)
        if options is not None:
            rec.bind(options, span)
        try:
            return fn(self, sql, options, *args, **kwargs)
        finally:
            if options is not None:
                rec.unbind(options)
            rec.end(span)

    return wrapper


def _node_options(args, kwargs):
    # execute_node(self, node, plan, afcs, stats, tracer, options)
    return _arg(args, kwargs, 6, "options")


@contextlib.contextmanager
def installed(rec: Recorder, on_rpc: Optional[Callable] = None):
    """Install every wrapper; ``on_rpc(span, node, plan, afcs, options,
    partial)`` sees each finished ``TcpTransport.execute_node`` call."""

    def rpc_done(span: Span, args, kwargs, result) -> None:
        if on_rpc is not None:
            _, node, plan, afcs = args[:4]
            on_rpc(span, node, plan, afcs, _node_options(args, kwargs), result)

    def decoded(span: Span, args, kwargs, result) -> None:
        span.attrs["bytes"] = len(_arg(args, kwargs, 0, "payload"))

    def planned(span: Span, args, kwargs, result) -> None:
        span.attrs["afcs"] = len(result.afcs)

    patches = [
        (QueryService, "submit", lambda fn: _wrap_submit(rec, fn)),
        (planner.CompiledDataset, "resolve_query",
         lambda fn: _wrap(rec, fn, "sql.resolve", "sql")),
        (planner, "rewrite_query",
         lambda fn: _wrap(rec, fn, "sql.rewrite", "sql")),
        (planner.CompiledDataset, "plan",
         lambda fn: _wrap(rec, fn, "planner.plan", "core.planner",
                          after=planned)),
        (LocalTransport, "execute_node",
         lambda fn: _wrap(rec, fn, "node.exec", "storm.data_source",
                          parent_key=_node_options)),
        (TcpTransport, "execute_node",
         lambda fn: _wrap(rec, fn, "net.rpc", "net",
                          parent_key=_node_options, after=rpc_done)),
        (wire, "decode_table",
         lambda fn: _wrap(rec, fn, "wire.decode", "net.wire", after=decoded)),
        (Extractor, "extract_afc",
         lambda fn: _wrap(rec, fn, "extractor.extract_afc", "core.extractor")),
        (FilteringService, "apply",
         lambda fn: _wrap(rec, fn, "filter.apply", "storm.filtering")),
        (FilteringService, "refilter",
         lambda fn: _wrap(rec, fn, "filter.refilter", "storm.filtering")),
        (DataMoverService, "move",
         lambda fn: _wrap(rec, fn, "mover.move", "storm.mover")),
        (query_service, "concat_tables",
         lambda fn: _wrap(rec, fn, "coord.merge", "storm.query_service")),
        (repro.cache, "project",
         lambda fn: _wrap(rec, fn, "coord.merge", "storm.query_service")),
        (aggregate, "merge_partials",
         lambda fn: _wrap(rec, fn, "agg.merge", "core.aggregate")),
        (aggregate, "finalize",
         lambda fn: _wrap(rec, fn, "agg.merge", "core.aggregate")),
        (data_source, "partial_aggregate",
         lambda fn: _wrap(rec, fn, "agg.fold", "core.aggregate")),
    ]
    for method in ("key_and_needed", "serve", "plan_for", "store"):
        patches.append(
            (cache_layer.QueryCache, method,
             lambda fn, m=method: _wrap(rec, fn, f"cache.{m}", "cache"))
        )

    saved: List[tuple] = []
    try:
        for owner, attr, make in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
