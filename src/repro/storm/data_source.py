"""Data source service: per-node chunk extraction.

STORM's data source service "provides a view of a dataset to other
services ... an extraction function returns an ordered list of attribute
values for a tuple in the dataset, thus effectively creating a virtual
table" (paper Section 2.3).  One service instance runs per node, owns that
node's file handles and caches, and materialises the rows of the AFCs
assigned to it.

Per-AFC residuals: each AFC's implicit constants decide the WHERE
conjuncts that reference only them (:mod:`repro.core.residual`).  An
AFC whose residual is FALSE is skipped before any read; one whose
residual is TRUE emits its rows without passing through the filtering
service; any other AFC is filtered with its residual only.

A node's row result is not joined here: it stays a list of per-AFC
pieces (views of cached payloads for TRUE AFCs, gathered copies for the
rest) that the coordinator splices into the query's single copy.

Concurrency: the extractor's handle/segment caches are internally locked
and all chunk I/O is positional, so there is no coarse per-node lock —
concurrent queries share one service, and within one query
``ExecOptions.intra_node_workers`` threads extract a node's AFCs in
parallel.  Output row order is always the AFC order of the plan,
regardless of worker count, and per-worker stats are merged
deterministically in that same order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Set

import numpy as np

from ..core.afc import AlignedFileChunkSet, ExtractionPlan
from ..core.aggregate import partial_aggregate
from ..core.extractor import CoalescePlan, Extractor, Mount
from ..core.kernels import KERNEL_BLOCK_ROWS, BlockPipeline
from ..core.options import DEFAULT_OPTIONS, ExecOptions
from ..core.residual import AfcResiduals, Residual
from ..core.stats import IOStats
from ..core.table import VirtualTable
from ..obs.tracer import NULL_TRACER
from .filtering import FilteringService


class DataSourceService:
    """Extraction executor for one node of the virtual cluster."""

    def __init__(
        self,
        node: str,
        mount: Mount,
        filtering: FilteringService,
        segment_cache_bytes: int = 32 * 1024 * 1024,
        handle_cache: int = 64,
    ):
        self.node = node
        self.extractor = Extractor(
            mount,
            filtering.functions,
            segment_cache_bytes=segment_cache_bytes,
            handle_cache=handle_cache,
        )
        self.filtering = filtering
        self.stats = IOStats()

    def drop_caches(self) -> None:
        """Cold-cache mode for benchmarks: forget handles and segments.

        Safe during in-flight queries: handles pinned by a concurrent
        read are closed by their last unpin, never mid-read.
        """
        self.extractor.drop_caches()

    def execute(
        self,
        plan: ExtractionPlan,
        afcs: List[AlignedFileChunkSet],
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
        options: Optional[ExecOptions] = None,
    ) -> VirtualTable:
        """Extract + filter the given AFCs; returns this node's partial table.

        The partial keeps its selected rows as per-AFC pieces
        (:meth:`VirtualTable.from_pieces`): views of cached chunk
        payloads for AFCs whose residual is TRUE, gathered copies for
        the rest.  It knows ``num_rows`` without joining; joining — by
        the coordinator's ``concat_tables`` or a first column read —
        copies each value once.

        ``options`` supplies the I/O shape: ``coalesce_gap_bytes`` merges
        nearby chunk reads across all of this node's AFCs into wide
        reads, and ``intra_node_workers`` extracts AFCs concurrently.
        """
        stats = stats if stats is not None else self.stats
        opts = options if options is not None else DEFAULT_OPTIONS
        coalesce = self.extractor.coalesce_for(
            afcs, plan.needed, opts.coalesce_gap_bytes
        )
        residuals = AfcResiduals(
            plan.where, plan.dtypes, self.filtering.functions
        )
        if plan.aggregate is not None:
            return self._execute_aggregate(
                plan, afcs, residuals, stats, tracer, opts, coalesce
            )
        needed_set = set(plan.needed)
        run_state = opts.run_state
        vectorize = opts.vectorize == "on"
        pieces: Dict[str, List[np.ndarray]] = {name: [] for name in plan.output}
        workers = min(max(1, opts.intra_node_workers), len(afcs) or 1)
        if workers > 1:

            def job(afc: AlignedFileChunkSet):
                local = IOStats()
                selected = self._extract_one(
                    plan, afc, residuals(afc), needed_set, local, tracer,
                    coalesce, run_state, vectorize,
                )
                return selected, local

            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"intra-{self.node}"
            ) as pool:
                outcomes = list(pool.map(job, afcs))
            # Merge in AFC order: row order and stats totals are identical
            # to a serial run whatever the thread interleaving was.
            for selected, local in outcomes:
                stats.merge(local)
                if selected is None:
                    continue
                for name in plan.output:
                    pieces[name].append(selected[name])
        elif vectorize and plan.where is not None and run_state is None:
            # Serial, unmetered path: fuse small AFCs into shared kernel
            # evaluation blocks.  Skipped under a run_state because the
            # scheduler charges quotas at per-AFC boundaries — batching
            # across AFCs would widen the documented overshoot bound.
            pieces = self._execute_vectorized(
                plan, afcs, residuals, needed_set, stats, tracer, coalesce
            )
        else:
            for afc in afcs:
                selected = self._extract_one(
                    plan, afc, residuals(afc), needed_set, stats, tracer,
                    coalesce, run_state, vectorize,
                )
                if selected is None:
                    continue
                for name in plan.output:
                    pieces[name].append(selected[name])
        # No join here: the coordinator's concat_tables splices every
        # node's pieces into one copy (reading a column joins it too).
        return VirtualTable.from_pieces(pieces, plan.output, plan.dtypes)

    def _execute_vectorized(
        self,
        plan: ExtractionPlan,
        afcs: List[AlignedFileChunkSet],
        residuals: AfcResiduals,
        needed_set: Set[str],
        stats: IOStats,
        tracer,
        coalesce: Optional[CoalescePlan],
    ) -> Dict[str, List[np.ndarray]]:
        """Batched kernel filtering: per-AFC extraction, per-block WHERE.

        Emits the same rows in the same serial AFC order as the per-AFC
        path; only the number of predicate evaluations (and the Python
        overhead per chunk set) changes.  AFCs whose residual is FALSE
        are skipped unread; every other AFC keeps the full WHERE, which
        is correct for all of them and keeps blocks fusable.
        """
        kernel = self.filtering.kernel_for(plan.where, tracer)
        pipeline = BlockPipeline(
            kernel, plan.needed, plan.output, KERNEL_BLOCK_ROWS, stats, tracer
        )
        for afc in afcs:
            if residuals(afc) is False:
                stats.afcs_pruned += 1
                continue
            columns = self._extract_columns(
                plan, afc, needed_set, stats, tracer, coalesce
            )
            pipeline.add(columns, afc.num_rows)
        pipeline.finish()
        return pipeline.pieces

    def _execute_aggregate(
        self,
        plan: ExtractionPlan,
        afcs: List[AlignedFileChunkSet],
        residuals: AfcResiduals,
        stats: IOStats,
        tracer,
        opts: ExecOptions,
        coalesce: Optional[CoalescePlan],
    ) -> VirtualTable:
        """Aggregate pushdown: fold this node's AFCs into one state frame.

        Each AFC is extracted and filtered exactly as in the row path,
        then reduced immediately via
        :func:`repro.core.aggregate.partial_aggregate`; per-AFC frames
        merge into a single per-node frame.  Extracted row blocks die
        here — only (group key, state) rows leave the node.
        """
        from ..core.aggregate import merge_partials

        spec = plan.aggregate
        needed_set = set(plan.needed)
        run_state = opts.run_state
        vectorize = opts.vectorize == "on"

        def one(afc: AlignedFileChunkSet, st: IOStats):
            # _extract_one adds the selected row count to rows_output;
            # the delta recovers it even when the base plan materialises
            # no columns at all (pure COUNT(*)).  Safe: ``st`` is either
            # a per-job local or used strictly sequentially.
            before = st.rows_output
            selected = self._extract_one(
                plan, afc, residuals(afc), needed_set, st, tracer, coalesce,
                run_state, vectorize,
            )
            if selected is None:
                return None
            num_rows = st.rows_output - before
            st.rows_aggregated += num_rows
            return partial_aggregate(spec, selected, num_rows, plan.dtypes)

        workers = min(max(1, opts.intra_node_workers), len(afcs) or 1)
        partials: List[VirtualTable] = []
        if workers > 1:

            def job(afc: AlignedFileChunkSet):
                local = IOStats()
                return one(afc, local), local

            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"intra-{self.node}"
            ) as pool:
                outcomes = list(pool.map(job, afcs))
            for frame, local in outcomes:
                stats.merge(local)
                if frame is not None:
                    partials.append(frame)
        else:
            for afc in afcs:
                frame = one(afc, stats)
                if frame is not None:
                    partials.append(frame)
        merged = merge_partials(spec, partials, plan.dtypes)
        stats.groups_emitted += merged.num_rows
        return merged

    def _extract_columns(
        self,
        plan: ExtractionPlan,
        afc: AlignedFileChunkSet,
        needed_set: Set[str],
        stats: IOStats,
        tracer,
        coalesce: Optional[CoalescePlan],
    ) -> Dict[str, np.ndarray]:
        """Extract one AFC's needed columns with full per-AFC accounting
        (chunk counts, remote bytes, extraction span) but no filtering."""
        stats.afcs_processed += 1
        for chunk in afc.chunks:
            if chunk.node != self.node and needed_set.intersection(
                chunk.strip.attrs
            ):
                stats.remote_bytes_read += chunk.total_bytes(afc.num_rows)
        if tracer.enabled:
            with tracer.span("extract_afc", node=self.node, rows=afc.num_rows):
                columns = self.extractor.extract_afc(
                    afc, plan.needed, stats, plan.dtypes, tracer, coalesce
                )
        else:
            columns = self.extractor.extract_afc(
                afc, plan.needed, stats, plan.dtypes, coalesce=coalesce
            )
        stats.rows_extracted += afc.num_rows
        return columns

    def _extract_one(
        self,
        plan: ExtractionPlan,
        afc: AlignedFileChunkSet,
        residual: Residual,
        needed_set: Set[str],
        stats: IOStats,
        tracer,
        coalesce: Optional[CoalescePlan],
        run_state=None,
        vectorize: bool = False,
    ) -> Optional[Dict[str, np.ndarray]]:
        """Extract + filter one AFC; returns its selected columns or None.

        ``residual`` is the AFC's residual WHERE
        (:class:`~repro.core.residual.AfcResiduals`): ``False`` skips the
        AFC before any read, ``True`` selects every row without a filter
        pass, and a predicate is applied through the filtering service.
        The returned columns may be views of cached chunk payloads; the
        row path keeps them as pieces of the node's partial table, whose
        one join copies them, and the aggregate path folds them.

        ``run_state`` is the scheduler's cooperative cancel/quota state
        (``ExecOptions.run_state``): checked before the read and charged
        with this AFC's row/byte deltas after the filter, so each AFC is
        one cooperative boundary — a trip raises here and the query
        overshoots its quota by at most one AFC.  The deltas are safe
        because ``stats`` is always owned by a single thread (a per-job
        local under ``intra_node_workers``, the per-attempt stats
        otherwise).  ``vectorize`` applies the residual through the
        filtering service's compiled kernel (still one evaluation per
        AFC on this path — the per-AFC quota/parallelism boundaries stay
        exactly where they were).
        """
        if run_state is not None:
            run_state.checkpoint()
        if residual is False:
            stats.afcs_pruned += 1
            return None
        before_rows = stats.rows_output
        before_bytes = stats.bytes_read
        columns = self._extract_columns(
            plan, afc, needed_set, stats, tracer, coalesce
        )
        if residual is True:
            selected = {name: columns[name] for name in plan.output}
            stats.rows_output += afc.num_rows
        else:
            selected = self.filtering.apply(
                residual, columns, plan.output, afc.num_rows, stats, tracer,
                vectorize=vectorize,
            )
        if run_state is not None:
            run_state.charge(
                rows=stats.rows_output - before_rows,
                nbytes=stats.bytes_read - before_bytes,
            )
        return selected

    def close(self) -> None:
        self.extractor.close()
