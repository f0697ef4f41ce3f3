"""Filtering service: vectorised residual predicate evaluation.

STORM's filtering service "is responsible for execution of user-defined
filters" (paper Section 2.3).  Chunk- and file-level pruning uses only the
*necessary* range conditions, so pruning can never change results.  The
data source service hands each aligned file chunk set its *residual*
WHERE (:mod:`repro.core.residual`): the conjuncts its implicit constants
already decide are dropped, AFCs decided TRUE bypass this service
entirely, and every other extracted row passes through the residual
here, including user-defined filter functions.

Two evaluation paths produce bit-identical masks (see
docs/architecture.md, "Vectorized execution"):

* ``vectorize=True`` compiles the WHERE once per distinct predicate into
  a fused numpy batch kernel (:mod:`repro.core.kernels`, cached per
  service) — the default through ``ExecOptions.vectorize="on"``;
* ``vectorize=False`` walks the AST per block, the interpreted oracle
  retained for the ablation knob and the equivalence tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.kernels import KernelCache, MaskLike, select_rows
from ..core.stats import IOStats
from ..core.table import VirtualTable, own_column
from ..obs.tracer import NULL_TRACER
from ..sql.ast import Node
from ..sql.functions import DEFAULT_REGISTRY, FunctionRegistry


class FilteringService:
    """Applies a query's residual predicate to extracted column blocks."""

    def __init__(self, functions: Optional[FunctionRegistry] = None):
        self.functions = functions or DEFAULT_REGISTRY
        self._kernels = KernelCache(self.functions)

    def kernel_for(self, where: Node, tracer=NULL_TRACER):
        """The compiled kernel for a WHERE node (cached per predicate)."""
        return self._kernels.get(where, tracer)

    def apply(
        self,
        where: Optional[Node],
        columns: Dict[str, np.ndarray],
        output: List[str],
        num_rows: int,
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
        vectorize: bool = False,
    ) -> Optional[Dict[str, np.ndarray]]:
        """Filter one block; returns projected columns or None if empty.

        ``columns`` may contain WHERE-only attributes beyond ``output``;
        the result contains exactly ``output``, each column writable and
        owned.  Surviving rows are gathered through one index vector
        (:func:`~repro.core.kernels.select_rows`), which already copies;
        only a block whose rows all survive is copied by ``own_column``.
        """
        if tracer.enabled and where is not None:
            with tracer.span(
                "filter", rows=num_rows, vectorized=vectorize
            ) as span:
                selected = self._apply(
                    where, columns, output, num_rows, stats, tracer, vectorize
                )
                if selected is None:
                    span.tag(out=0)
                elif output:
                    span.tag(out=int(len(selected[output[0]])))
            return selected
        return self._apply(
            where, columns, output, num_rows, stats, tracer, vectorize
        )

    def refilter(
        self,
        where: Optional[Node],
        table: VirtualTable,
        output: List[str],
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
        vectorize: bool = False,
    ) -> VirtualTable:
        """Re-run a full WHERE over a cached superset table (subsumption).

        The cached table stores every column the original query needed,
        so the predicate has all its inputs; the result carries exactly
        ``output`` in order.  ``own_column`` inside :meth:`apply` copies
        the frozen cached arrays, so callers get writable columns and
        can never mutate the cache through the result.
        """
        columns = {name: table.column(name) for name in table.column_names}
        selected = self.apply(
            where, columns, output, table.num_rows, stats, tracer, vectorize
        )
        if selected is None:
            # Even the empty projection must go through own_column: a bare
            # ``columns[name][:0]`` is a zero-length *view* of the frozen
            # cached array, and callers are promised writable columns that
            # never alias the cache.
            return VirtualTable(
                {name: own_column(columns[name][:0]) for name in output},
                order=output,
            )
        return VirtualTable(selected, order=output)

    def _apply(
        self,
        where: Optional[Node],
        columns: Dict[str, np.ndarray],
        output: List[str],
        num_rows: int,
        stats: Optional[IOStats] = None,
        tracer=NULL_TRACER,
        vectorize: bool = False,
    ) -> Optional[Dict[str, np.ndarray]]:
        mask: MaskLike = True
        if where is not None:
            if stats is not None:
                stats.rows_filtered += num_rows
            if vectorize:
                kernel = self._kernels.get(where, tracer)
                mask = kernel.evaluate(columns, num_rows, tracer=tracer)
                if stats is not None:
                    stats.rows_vectorized += num_rows
            else:
                mask = where.evaluate(columns, self.functions)
        selected, count = select_rows(columns, output, mask, num_rows)
        if stats is not None:
            stats.rows_output += count
        if selected is None:
            return None
        # own_column: when every row survives, select_rows hands back the
        # extracted columns themselves, which can be read-only zero-copy
        # views over segment-cache payloads; never emit those to callers.
        # Gathered columns are fresh and pass through uncopied.
        return {name: own_column(col) for name, col in selected.items()}
