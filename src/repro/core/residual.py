"""Per-AFC residual predicates: decide implicit-attribute conjuncts once.

An aligned file chunk set carries its implicit attributes — binding and
chunk loop variables such as ``REL`` and ``TIME`` — as constants the
index function computed at compile time (paper Section 4,
``Process_File_Groups``).  A top-level conjunct of the WHERE that
references only those constants has the same value on every row of the
AFC, so it can be decided once per AFC instead of once per row:

* a conjunct proven TRUE is dropped from that AFC's residual;
* a conjunct proven FALSE makes the whole AFC FALSE — it yields no rows
  and need not be read at all;
* every other conjunct is kept unchanged.

A conjunct is decided by evaluating it with the interpreted evaluator
on a one-row block whose columns come from
:meth:`~repro.core.afc.AlignedFileChunkSet.implicit_columns` with the
plan's dtypes — the very code extraction materialises the rows with.
Every row of the AFC holds that same value, so the decision agrees with
filtering the rows bit for bit by construction.  Conjuncts calling a
function are never decided (UDFs run on rows only), and neither is a
conjunct whose value is not a boolean mask.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

import numpy as np

from ..sql.ast import And, FunctionCall, Node, walk
from ..sql.functions import DEFAULT_REGISTRY, FunctionRegistry
from .afc import AlignedFileChunkSet

#: A residual: the predicate still to apply to the AFC's rows, or
#: ``True`` (every row qualifies) / ``False`` (no row does).
Residual = Union[Node, bool]

Signature = Tuple[Tuple[str, int], ...]


def implicit_constants(
    afc: AlignedFileChunkSet, names: Optional[FrozenSet[str]] = None
) -> Signature:
    """The AFC's constants that reach row values, optionally restricted
    to ``names``.  A stored column of the same name wins during
    extraction, so such a constant is left out."""
    pairs = [
        (name, value)
        for name, value in afc.constants
        if names is None or name in names
    ]
    if not pairs:
        return ()
    stored = {a for chunk in afc.chunks for a in chunk.strip.attrs}
    return tuple(pair for pair in pairs if pair[0] not in stored)


def _decide(
    term: Node,
    constants: Mapping[str, int],
    dtypes: Mapping[str, np.dtype],
    functions: FunctionRegistry,
) -> Optional[bool]:
    """The conjunct's value on every row, or None when undecidable."""
    names = term.referenced_columns()
    if not names or any(name not in constants for name in names):
        return None
    if any(isinstance(node, FunctionCall) for node in walk(term)):
        return None
    one_row = AlignedFileChunkSet(1, (), tuple(constants.items()))
    block = one_row.implicit_columns(sorted(set(names)), dtypes)
    mask = np.asarray(term.evaluate(block, functions))
    if mask.dtype != np.bool_ or mask.shape != (1,):
        return None
    return bool(mask[0])


def residual_where(
    where: Optional[Node],
    constants: Mapping[str, int],
    dtypes: Mapping[str, np.dtype],
    functions: FunctionRegistry = DEFAULT_REGISTRY,
) -> Residual:
    """The part of ``where`` left to apply to rows whose implicit
    attributes hold ``constants`` (see the module docstring)."""
    if where is None:
        return True
    terms = where.terms if isinstance(where, And) else (where,)
    kept = []
    for term in terms:
        decided = _decide(term, constants, dtypes, functions)
        if decided is False:
            return False
        if decided is None:
            kept.append(term)
    if not kept:
        return True
    if len(kept) == len(terms):
        return where
    return kept[0] if len(kept) == 1 else And(tuple(kept))


class AfcResiduals:
    """:func:`residual_where` for one plan's AFCs, memoised per constant
    signature (AFCs agreeing on the WHERE's implicit attributes share one
    residual object, hence one compiled kernel).  Safe to share between
    threads: a racing duplicate computation stores an equal value."""

    def __init__(
        self,
        where: Optional[Node],
        dtypes: Mapping[str, np.dtype],
        functions: FunctionRegistry = DEFAULT_REGISTRY,
    ):
        self.where = where
        self.dtypes = dtypes
        self.functions = functions
        self._names = frozenset(
            where.referenced_columns() if where is not None else ()
        )
        self._memo: Dict[Signature, Residual] = {}

    def __call__(self, afc: AlignedFileChunkSet) -> Residual:
        if self.where is None:
            return True
        key = implicit_constants(afc, self._names)
        residual = self._memo.get(key)
        if residual is None:
            residual = residual_where(
                self.where, dict(key), self.dtypes, self.functions
            )
            self._memo[key] = residual
        return residual
