"""High-level automatic data virtualization API.

:class:`Virtualizer` is the user-facing entry point of the library: give
it a meta-data descriptor and a mount (where the dataset's nodes live on
disk), and it answers SQL queries with relational tables::

    from repro import Virtualizer, local_mount

    v = Virtualizer(descriptor_text, local_mount("/data/cluster"))
    table = v.query("SELECT X, Y, SOIL FROM IparsData WHERE TIME > 100")

By default the index function is *generated* (compiled Python specialised
to the descriptor, as in the paper); pass ``use_codegen=False`` to run the
interpreted reference planner instead.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Dict, Optional, Union

from ..errors import ExtractionError
from ..metadata.descriptor import Descriptor, parse_descriptor
from ..metadata.schema import Schema
from ..obs.tracer import NULL_TRACER, Tracer
from ..sql.ast import Query
from ..sql.functions import DEFAULT_REGISTRY, FunctionRegistry
from .afc import ExtractionPlan
from .analysis import ChunkSummaries
from .codegen import GeneratedDataset
from .extractor import Extractor, Mount, local_mount
from .options import DEFAULT_OPTIONS, ExecOptions
from .planner import CompiledDataset
from .stats import IOStats
from .table import VirtualTable


class Virtualizer:
    """SQL over flat-file scientific datasets, from a meta-data descriptor."""

    def __init__(
        self,
        descriptor: Union[Descriptor, str],
        mount: Mount,
        functions: Optional[FunctionRegistry] = None,
        use_codegen: bool = True,
        summaries: Optional[ChunkSummaries] = None,
        codegen_path: Optional[Union[str, "os.PathLike"]] = None,
        segment_cache_bytes: int = 32 * 1024 * 1024,
        chunk_row_cap: Optional[int] = None,
    ):
        if isinstance(descriptor, str):
            descriptor = parse_descriptor(descriptor)
        if codegen_path is not None:
            codegen_path = os.fspath(codegen_path)
        if use_codegen:
            self.dataset: CompiledDataset = GeneratedDataset(
                descriptor,
                summaries,
                source_path=codegen_path,
                chunk_row_cap=chunk_row_cap,
            )
        else:
            self.dataset = CompiledDataset(descriptor, summaries, chunk_row_cap)
        self.functions = functions or DEFAULT_REGISTRY
        self.extractor = Extractor(
            mount, self.functions, segment_cache_bytes=segment_cache_bytes
        )
        self.stats = IOStats()
        #: Result/plan caches, created lazily by the first query whose
        #: options enable caching and shared by every later query.
        self._query_cache = None
        self._cache_lock = threading.Lock()
        self._filtering = None

    # -- caching --------------------------------------------------------------

    def _cache_for(self, options: Optional[ExecOptions]):
        """The shared QueryCache, or None when this query runs uncached."""
        if options is None or options.cache_mode == "off":
            return None
        with self._cache_lock:
            if self._query_cache is None:
                from ..cache import QueryCache

                self._query_cache = QueryCache.for_dataset(
                    self.dataset,
                    options.result_cache_bytes,
                    options.plan_cache_entries,
                )
            elif self._query_cache is not None:
                self._query_cache.configure(
                    options.result_cache_bytes, options.plan_cache_entries
                )
            return self._query_cache

    def _filtering_service(self):
        """Lazy FilteringService for serving subsumption hits (the storm
        import stays out of core's module graph; see docs layering)."""
        if self._filtering is None:
            from ..storm.filtering import FilteringService

            self._filtering = FilteringService(self.functions)
        return self._filtering

    def drop_caches(self) -> None:
        """Cold-run mode: forget cached results, plans, and segments."""
        with self._cache_lock:
            cache = self._query_cache
        if cache is not None:
            cache.drop()
        self.extractor.drop_caches()

    def cache_stats(self) -> Optional[Dict[str, Dict[str, int]]]:
        """Result/plan cache counters, or None before any cached query."""
        with self._cache_lock:
            cache = self._query_cache
        return cache.stats() if cache is not None else None

    # -- querying -------------------------------------------------------------

    def plan(
        self, sql: Union[Query, str], options: Optional[ExecOptions] = None
    ) -> ExtractionPlan:
        """Plan a query without executing it."""
        tracer = options.tracer() if options is not None else NULL_TRACER
        query = self.dataset.resolve_query(sql)
        self._run_diagnostics(query, options, tracer)
        cache = self._cache_for(options)
        if cache is not None:
            key, _, _ = cache.key_and_needed(query)
            return cache.plan_for(query, key, tracer)
        return self.dataset.plan(query, tracer=tracer)

    def _run_diagnostics(
        self,
        sql: Union[Query, str],
        options: Optional[ExecOptions],
        tracer: "Tracer",
    ) -> None:
        """Same strict/observability contract as ``QueryService.submit``:
        findings flow to the tracer (``diag`` events, ``diag.warnings``
        counter); strict mode refuses queries with errors or warnings."""
        strict = options is not None and options.strict
        if not (strict or tracer.enabled):
            return
        from ..diag.options import analyze_options
        from ..diag.query import analyze_query
        from ..errors import QueryValidationError

        findings = list(self.dataset.diagnostics)
        findings.extend(
            analyze_query(self.dataset.descriptor, sql, self.functions)
        )
        if options is not None:
            findings.extend(analyze_options(options))
        if tracer.enabled:
            for diag in findings:
                tracer.event(
                    "diag",
                    code=diag.code,
                    severity=str(diag.severity),
                    message=diag.message,
                )
                if str(diag.severity) == "warning":
                    tracer.metrics.record("diag.warnings")
        if strict:
            blocking = [
                d for d in findings if str(d.severity) in ("error", "warning")
            ]
            if blocking:
                details = "; ".join(d.format(show_source=False) for d in blocking)
                raise QueryValidationError(
                    f"strict mode: {len(blocking)} static-analysis finding(s) "
                    f"block execution: {details}"
                )

    def query(
        self,
        sql: Union[Query, str],
        stats: Optional[IOStats] = None,
        options: Optional[ExecOptions] = None,
    ) -> VirtualTable:
        """Execute a query and return the virtual table.

        ``options`` carries the unified execution knobs (only
        ``batch_rows``, ``trace``, and the ``cache_*`` fields apply to
        this local path; transport options belong to
        ``QueryService.submit``).
        """
        tracer = options.tracer() if options is not None else NULL_TRACER
        query = self.dataset.resolve_query(sql)
        self._run_diagnostics(query, options, tracer)
        target = stats if stats is not None else self.stats
        cache = self._cache_for(options)
        vectorize = _vectorize_on(options)
        with tracer.span("query", sql=_sql_tag(query)):
            if cache is None:
                plan = self.dataset.plan(query, tracer=tracer)
                if plan.aggregate is not None:
                    return self._execute_aggregate(
                        plan, target, tracer, vectorize
                    )
                return self.extractor.execute(
                    plan, target, tracer, vectorize=vectorize
                )
            key, needed, canonical = cache.key_and_needed(query)
            run = IOStats()
            served = cache.serve(
                key, canonical, needed, self._filtering_service(), run,
                tracer, options.cache_mode, vectorize=vectorize,
            )
            if served is not None:
                target.merge(run)
                return served.table
            from ..cache import project, widen_plan

            plan = cache.plan_for(query, key, tracer)
            if plan.aggregate is not None:
                # Aggregates cache the final labelled table verbatim
                # (exact hits only; no widening, nothing to project).
                table = self._execute_aggregate(plan, run, tracer, vectorize)
                target.merge(run)
                cache.store(key, table, run.bytes_read, len(plan.afcs), tracer)
                return table
            # Execute with every needed column emitted (same reads, same
            # filtering) so the cached table can answer later narrower
            # queries filtering on WHERE-only attributes.
            full = self.extractor.execute(
                widen_plan(plan), run, tracer, vectorize=vectorize
            )
            target.merge(run)
            cache.store(key, full, run.bytes_read, len(plan.afcs), tracer)
            return project(full, plan.output)

    def _execute_aggregate(
        self,
        plan: ExtractionPlan,
        stats: IOStats,
        tracer: "Tracer",
        vectorize: bool = True,
    ) -> VirtualTable:
        """Run an aggregate plan on the local (single-process) path.

        Tries the summary fast path first — a predicate-free ungrouped
        COUNT/MIN/MAX fully covered by plan metadata and chunk summaries
        is answered with zero data-chunk reads; otherwise extracts the
        base rows and folds them through the aggregation kernel.
        """
        from . import aggregate as agg

        spec = plan.aggregate
        answer = agg.summary_answer(
            plan, getattr(self.dataset, "summaries", None)
        )
        if answer is not None:
            stats.afcs_pruned += len(plan.afcs)
            stats.groups_emitted += answer.num_rows
            if tracer.enabled:
                tracer.metrics.record("agg.summary_answers")
                tracer.event("summary_answer", afcs=len(plan.afcs))
            return answer
        # A pure COUNT(*) plan materialises no columns, so the row count
        # comes from the filter's rows_output (exact on this single-pass
        # local path), counted in an isolated stats object.
        local = IOStats()
        rows = self.extractor.execute(plan, local, tracer, vectorize=vectorize)
        num_rows = local.rows_output
        local.rows_aggregated += num_rows
        table = agg.aggregate_rows(spec, rows, plan.dtypes, num_rows=num_rows)
        local.groups_emitted += table.num_rows
        stats.merge(local)
        return table

    def query_iter(
        self,
        sql: Union[Query, str],
        batch_rows: Optional[int] = None,
        stats: Optional[IOStats] = None,
        options: Optional[ExecOptions] = None,
    ):
        """Stream query results as VirtualTable batches (bounded memory).

        The batch size comes from ``options.batch_rows``; the positional
        ``batch_rows`` argument is deprecated.  Cache hits (when the
        options enable caching) are served as batch-sized slices of the
        cached table; streaming executions never *populate* the result
        cache — that would require buffering the whole result, defeating
        the bounded-memory contract.
        """
        if batch_rows is not None:
            warnings.warn(
                "Virtualizer.query_iter(batch_rows=...) is deprecated; "
                "pass options=ExecOptions(batch_rows=...)",
                DeprecationWarning,
                stacklevel=2,
            )
            options = (options or ExecOptions()).replace(batch_rows=batch_rows)
        opts = options or ExecOptions()
        tracer = opts.tracer()
        query = self.dataset.resolve_query(sql)
        self._run_diagnostics(query, opts, tracer)
        target = stats if stats is not None else self.stats
        cache = self._cache_for(opts)

        vectorize = _vectorize_on(opts)

        def iterate():
            # The span wraps planning AND iteration: an iterator query's
            # trace was previously invisible (query() got a span, this
            # path none), and spanning only the eager prefix would stop
            # the clock before any extraction happened.
            with tracer.span("query", sql=_sql_tag(query), streaming=True):
                if cache is not None:
                    key, needed, canonical = cache.key_and_needed(query)
                    run = IOStats()
                    served = cache.serve(
                        key, canonical, needed, self._filtering_service(), run,
                        tracer, opts.cache_mode, vectorize=vectorize,
                    )
                    if served is not None:
                        target.merge(run)
                        yield from _batched(served.table, opts.batch_rows)
                        return
                    plan = cache.plan_for(query, key, tracer)
                else:
                    plan = self.dataset.plan(query, tracer=tracer)
                if plan.aggregate is not None:
                    # Aggregate results are group-count sized, so the
                    # bounded-memory concern streaming exists for does
                    # not apply: materialise, then slice into batches.
                    table = self._execute_aggregate(
                        plan, target, tracer, vectorize
                    )
                    yield from _batched(table, opts.batch_rows)
                    return
                yield from self.extractor.execute_iter(
                    plan, opts.batch_rows, target, tracer,
                    vectorize=vectorize,
                )

        return iterate()

    def explain(self, sql: Union[Query, str]) -> str:
        return self.dataset.explain(sql)

    # -- introspection -----------------------------------------------------------

    @property
    def schema(self) -> "Schema":
        return self.dataset.schema

    @property
    def generated_source(self) -> Optional[str]:
        """Source of the generated index module (None when interpreted)."""
        return getattr(self.dataset, "source", None)

    def close(self) -> None:
        self.extractor.close()

    def __enter__(self) -> "Virtualizer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _sql_tag(sql: Union[Query, str]) -> str:
    """A bounded string form of the query for span tags."""
    return str(sql)[:200]


def _vectorize_on(options: Optional[ExecOptions]) -> bool:
    """Resolve the ``vectorize`` knob; kernels are the default path."""
    opts = options if options is not None else DEFAULT_OPTIONS
    return opts.vectorize == "on"


def _batched(table: VirtualTable, batch_rows: int):
    """Slice a materialised table into batch_rows-sized views.

    Matches ``Extractor.execute_iter``'s contract on the cache-hit path
    (same validation error, nothing yielded for empty results).  The
    slices are zero-copy views of the cached frozen arrays, hence
    read-only like an exact full-table hit.
    """
    if batch_rows < 1:
        raise ExtractionError("batch_rows must be positive")
    names = list(table.column_names)
    for start in range(0, table.num_rows, batch_rows):
        yield VirtualTable(
            {n: table.column(n)[start:start + batch_rows] for n in names},
            order=names,
        )


def open_dataset(
    descriptor: Union[Descriptor, str],
    root: Union[str, "os.PathLike"],
    **kwargs,
) -> Virtualizer:
    """Convenience constructor: mount a virtual cluster rooted at ``root``.

    Node ``osu0``'s directories are expected under ``root/osu0/...``;
    ``root`` may be a ``str`` or a ``pathlib.Path``.
    """
    return Virtualizer(descriptor, local_mount(root), **kwargs)
