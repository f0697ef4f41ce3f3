"""The virtual relational table produced by a query.

A :class:`VirtualTable` is a thin, immutable wrapper around a dict of
column-name -> numpy array (or, for a node's partial result, a list of
row-ordered pieces per column, joined once).  It is the "relational
table view" the paper's data virtualization exposes; all columns have
equal length and rows are materialised lazily only when callers iterate.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError


class VirtualTable:
    """Columnar query result.

    A table built with :meth:`from_pieces` holds each column as a list
    of pieces and joins it on first access; every other table holds
    joined columns from the start.
    """

    def __init__(self, columns: Mapping[str, np.ndarray], order: Optional[Sequence[str]] = None):
        names = list(order) if order is not None else list(columns)
        self._columns: Dict[str, np.ndarray] = {}
        self._pieces: Dict[str, List[np.ndarray]] = {}
        length = None
        for name in names:
            col = np.asarray(columns[name])
            if length is None:
                length = len(col)
            elif len(col) != length:
                raise ReproError(
                    f"column {name!r} has {len(col)} values, expected {length}"
                )
            self._columns[name] = col
        self._names: Tuple[str, ...] = tuple(self._columns)
        self._length = length or 0

    @classmethod
    def from_pieces(
        cls,
        pieces: Mapping[str, Sequence[np.ndarray]],
        order: Sequence[str],
        dtypes: Mapping[str, np.dtype],
    ) -> "VirtualTable":
        """A table whose columns are still lists of row-ordered pieces.

        ``num_rows`` is known without joining; a column's pieces are
        joined by one ``np.concatenate`` on first access, and
        :func:`concat_tables` splices them straight into its own join,
        so pieces that are read-only views of cached chunk payloads are
        copied exactly once either way.  A column without pieces holds
        one empty piece of its ``dtypes`` type (float64 if absent).
        """
        table = cls.__new__(cls)
        table._columns = {}
        table._pieces = {}
        length = None
        for name in order:
            parts = list(pieces.get(name, ()))
            if not parts:
                parts = [np.empty(0, dtype=dtypes.get(name, np.float64))]
            rows = sum(len(part) for part in parts)
            if length is None:
                length = rows
            elif rows != length:
                raise ReproError(
                    f"column {name!r} has {rows} values, expected {length}"
                )
            table._pieces[name] = parts
        table._names = tuple(table._pieces)
        table._length = length or 0
        return table

    # -- shape -----------------------------------------------------------------

    @property
    def column_names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def num_rows(self) -> int:
        return self._length

    @property
    def nbytes(self) -> int:
        """Total payload bytes across columns (the result-cache charge)."""
        return sum(col.nbytes for col in self._joined().values())

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    # -- access ------------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        col = self._columns.get(name)
        if col is not None:
            return col
        parts = self._pieces.get(name)
        if parts is None:
            # Another thread may have joined it between the two lookups.
            col = self._columns.get(name)
            if col is None:
                raise ReproError(
                    f"no column {name!r}; have {list(self._names)}"
                )
            return col
        col = self._columns.setdefault(name, np.concatenate(parts))
        self._pieces.pop(name, None)
        return col

    def _pieces_of(self, name: str) -> List[np.ndarray]:
        """The column as row-ordered pieces, without joining it."""
        parts = self._pieces.get(name)
        return [self.column(name)] if parts is None else parts

    def _joined(self) -> Dict[str, np.ndarray]:
        return {name: self.column(name) for name in self._names}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def rows(self) -> Iterator[tuple]:
        """Iterate rows as tuples in column order."""
        cols = list(self._joined().values())
        for i in range(self._length):
            yield tuple(col[i] for col in cols)

    def to_structured(self) -> np.ndarray:
        """Convert to a numpy structured array (copies)."""
        columns = self._joined()
        dtype = np.dtype([(name, col.dtype) for name, col in columns.items()])
        out = np.empty(self._length, dtype=dtype)
        for name, col in columns.items():
            out[name] = col
        return out

    def sort_key(self) -> np.ndarray:
        """Row indices of the lexicographic sort over all columns.

        Used by tests to compare results as multisets regardless of the
        producing implementation's row order.
        """
        keys = [self.column(name) for name in reversed(self._names)]
        return np.lexsort(keys) if keys else np.arange(0)

    def canonical(self) -> "VirtualTable":
        """Rows sorted lexicographically — canonical form for comparisons."""
        idx = self.sort_key()
        return VirtualTable(
            {name: col[idx] for name, col in self._joined().items()},
            order=list(self._names),
        )

    def head(self, n: int = 10) -> List[tuple]:
        return [row for _, row in zip(range(n), self.rows())]

    # -- export -------------------------------------------------------------------

    def to_csv(self, stream, header: bool = True, limit: Optional[int] = None) -> int:
        """Write rows as CSV to a text stream; returns rows written."""
        if header:
            stream.write(",".join(self._names) + "\n")
        count = 0
        for row in self.rows():
            if limit is not None and count >= limit:
                break
            stream.write(",".join(_csv_cell(v) for v in row) + "\n")
            count += 1
        return count

    def save_npz(self, path: str) -> None:
        """Persist to a compressed .npz archive (column order preserved)."""
        np.savez_compressed(
            path, __order__=np.array(list(self._names)), **self._joined()
        )

    @classmethod
    def load_npz(cls, path: str) -> "VirtualTable":
        data = np.load(path, allow_pickle=False)
        order = [str(n) for n in data["__order__"]]
        return cls({n: data[n] for n in order}, order=order)

    def __repr__(self) -> str:
        return (
            f"<VirtualTable {self._length} rows x "
            f"{len(self._names)} cols {list(self._names)}>"
        )


def _csv_cell(value) -> str:
    if isinstance(value, (bytes, np.bytes_)):
        return value.decode("latin1")
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def own_column(arr: np.ndarray) -> np.ndarray:
    """A contiguous column that is safe to hand to callers.

    ``np.frombuffer`` decodes over cached chunk payloads are read-only,
    and for single-attribute strips ``np.ascontiguousarray`` passes such
    views through unchanged — emitting them would hand out immutable
    aliases of segment-cache memory.  This copies exactly when that
    happens (the array is still read-only after the contiguity pass) and
    is otherwise as cheap as ``np.ascontiguousarray``.
    """
    out = np.ascontiguousarray(arr)
    if not out.flags.writeable:
        out = out.copy()
    return out


def concat_tables(tables: Sequence[VirtualTable]) -> VirtualTable:
    """Concatenate tables with identical column sets, preserving order.

    Every table's pieces (see :meth:`VirtualTable.from_pieces`) go into
    one ``np.concatenate`` per column, so the result owns fresh,
    writable memory and each value is copied once, even for a single
    table.
    """
    tables = [t for t in tables if t is not None]
    if not tables:
        return VirtualTable({})
    names = tables[0].column_names
    for t in tables[1:]:
        if t.column_names != names:
            raise ReproError(
                f"cannot concatenate tables with columns {t.column_names} "
                f"and {names}"
            )
    return VirtualTable(
        {
            n: np.concatenate([part for t in tables for part in t._pieces_of(n)])
            for n in names
        },
        order=list(names),
    )


def empty_table(names: Sequence[str], dtypes: Mapping[str, np.dtype]) -> VirtualTable:
    return VirtualTable(
        {n: np.empty(0, dtype=dtypes[n]) for n in names}, order=list(names)
    )
