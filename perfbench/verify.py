"""The correctness gate: every answer against a reference built at set-up.

References come from paths independent of the engine under test.  Row
queries run through the hand-written index functions of
``repro.baselines`` and the plain serial :class:`~repro.core.Extractor`
(interpreted filter, no coalescing, no caches, no services).  Aggregates
are computed with numpy over the full table, itself extracted by the
hand-written IPARS planner.

Two order-insensitive fingerprints are compared.  :func:`checksum` (row
count, column names and a per-column sum of the value bits; one pass per
column) is checked on every answer.  :func:`digest` mixes each row's
values into one hash and sums the hashes, so it also catches values
moved between rows; it is checked on the first answer to each distinct
query in a run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.baselines import HandwrittenIparsL0, HandwrittenTitan
from repro.core import Extractor

from .workloads import AggSpec, Fixture, Tenant, Workload

_UINT = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
_MASK = (1 << 64) - 1
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def checksum(table) -> tuple:
    """(rows, column names, per-column sum of the value bits)."""
    sums = []
    for name in table.column_names:
        col = np.asarray(table.column(name))
        if col.dtype.kind in "iub":
            total = np.add.reduce(col, dtype=np.int64)
        else:
            total = np.add.reduce(
                col.view(_UINT[col.dtype.itemsize]), dtype=np.uint64
            )
        sums.append(int(total) & _MASK)
    return (table.num_rows, tuple(table.column_names), tuple(sums))


def digest(table) -> tuple:
    """(rows, column names, sum and xor of per-row hashes)."""
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for i, name in enumerate(table.column_names):
        col = np.asarray(table.column(name))
        wide = np.float64 if col.dtype.kind == "f" else np.int64
        bits = col.astype(wide).view(np.uint64)
        salt = np.uint64(((i + 1) * 0x9E3779B97F4A7C15) & _MASK)
        h ^= bits + salt
        h *= np.uint64(_MIX[0])
        h ^= h >> np.uint64(31)
    h *= np.uint64(_MIX[1])
    h ^= h >> np.uint64(29)
    xor = int(np.bitwise_xor.reduce(h)) if len(h) else 0
    return (
        table.num_rows,
        tuple(table.column_names),
        int(np.add.reduce(h, dtype=np.uint64)),
        xor,
    )


@dataclass
class RowReference:
    checksum: tuple
    digest: tuple
    nbytes: int

    @property
    def rows(self) -> int:
        return self.checksum[0]

    def check(self, table, full: bool) -> Optional[str]:
        got = checksum(table)
        if got[:2] != self.checksum[:2]:
            return f"shape {got[:2]} != reference {self.checksum[:2]}"
        if got != self.checksum:
            return "column checksums differ from the reference"
        if full and digest(table) != self.digest:
            return "row digest differs from the reference"
        return None


@dataclass
class AggReference:
    """Expected group-by-REL result columns, sorted by REL."""

    columns: List[np.ndarray]
    #: Index of the AVG column, compared with a relative tolerance: the
    #: engine sums partial states in another order than numpy.
    avg_index: int
    nbytes: int

    @property
    def rows(self) -> int:
        return len(self.columns[0])

    def check(self, table, full: bool) -> Optional[str]:
        names = table.column_names
        if len(names) != len(self.columns) or table.num_rows != self.rows:
            return (
                f"shape ({table.num_rows}, {len(names)} columns) != "
                f"reference ({self.rows}, {len(self.columns)} columns)"
            )
        order = np.argsort(np.asarray(table.column(names[0])), kind="stable")
        for i, (name, want) in enumerate(zip(names, self.columns)):
            got = np.asarray(table.column(name))[order].astype(np.float64)
            if i == self.avg_index:
                same = np.allclose(got, want, rtol=1e-9, atol=0.0)
            else:
                same = np.array_equal(got, want.astype(np.float64))
            if not same:
                return f"aggregate column {name!r} differs from the reference"
        return None


def _agg_reference(full: Dict[str, np.ndarray], spec: AggSpec) -> AggReference:
    mask = (full["TIME"] >= spec.t_lo) & (full["TIME"] <= spec.t_hi)
    rel = full["REL"][mask]
    avg_col = full[spec.avg][mask].astype(np.float64)
    max_col = full[spec.max][mask]
    keys = np.unique(rel)
    counts, avgs, maxes = [], [], []
    for key in keys:
        sel = rel == key
        counts.append(np.count_nonzero(sel))
        avgs.append(avg_col[sel].sum() / counts[-1])
        maxes.append(max_col[sel].max())
    columns = [
        keys.astype(np.float64),
        np.asarray(counts, dtype=np.float64),
        np.asarray(avgs, dtype=np.float64),
        np.asarray(maxes, dtype=np.float64),
    ]
    return AggReference(columns, 2, sum(c.nbytes for c in columns))


def build_references(
    workload: Workload,
    fixture: Fixture,
    tenants: List[Tenant],
    mount,
    summaries=None,
) -> Dict[str, object]:
    """Reference answer of every distinct query the tenants can send."""
    if workload.family == "ipars":
        hand = HandwrittenIparsL0(fixture.config)
    else:
        hand = HandwrittenTitan(fixture.config, summaries)
    refs: Dict[str, object] = {}
    specs: Dict[str, AggSpec] = {}
    for tenant in tenants:
        specs.update(tenant.agg_specs)
    with Extractor(mount) as extractor:
        full = None
        if specs:
            wanted = sorted(
                {"REL", "TIME"}
                | {s.avg for s in specs.values()}
                | {s.max for s in specs.values()}
            )
            table = extractor.execute(
                hand.plan(f"SELECT {', '.join(wanted)} FROM IparsData")
            )
            full = {name: np.asarray(table.column(name)) for name in wanted}
        for tenant in tenants:
            for sql in tenant.distinct:
                if sql in refs:
                    continue
                if sql in specs:
                    refs[sql] = _agg_reference(full, specs[sql])
                    continue
                table = extractor.execute(hand.plan(sql))
                refs[sql] = RowReference(
                    checksum(table), digest(table), table.nbytes
                )
    return refs


class Checker:
    """Checks answers against references; thread-safe."""

    def __init__(self, refs: Dict[str, object]):
        self.refs = refs
        self._seen = set()
        self._lock = threading.Lock()

    def check(self, sql: str, table) -> Optional[str]:
        ref = self.refs.get(sql)
        if ref is None:
            return "no reference for this query"
        with self._lock:
            full = sql not in self._seen
            self._seen.add(sql)
        return ref.check(table, full)

    def largest(self) -> str:
        """The query with the largest reference answer."""
        return max(sorted(self.refs), key=lambda sql: self.refs[sql].nbytes)
