"""Each answer value is copied once on the local path.

* ``select_rows`` gathers through one index vector and must produce the
  same bits as boolean-mask indexing for every dtype the schemas
  produce, including big-endian and strided multi-attribute strip views.
* Chunk decoding reuses each strip's memoised record dtype: a repeated
  query builds none, and projection order never changes the decode.
* A two-node ``SELECT *`` peaks (tracemalloc) below a bound stated in
  result bytes plus segment-cache capacity, which holds only when node
  partials are not joined before the coordinator's single join.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import CompiledDataset, ExecOptions, Extractor
from repro.core.kernels import select_rows
from repro.core.strips import Strip
from repro.datasets import IparsConfig, ipars
from repro.storm import QueryService, VirtualCluster

N = 257

# A packed three-attribute record: fields at odd offsets, so the column
# views below are strided and (for B, C) unaligned — as a multi-attribute
# strip's np.frombuffer decode yields them.
RECORD = np.dtype(
    {
        "names": ["A", "B", "C"],
        "formats": ["<f4", ">i2", ">f8"],
        "offsets": [0, 4, 6],
        "itemsize": 14,
    }
)


def record_views():
    rng = np.random.default_rng(3)
    raw = rng.integers(0, 256, size=N * RECORD.itemsize, dtype=np.uint8)
    records = np.frombuffer(raw.tobytes(), dtype=RECORD)
    return {name: records[name] for name in RECORD.names}


def plain_columns():
    rng = np.random.default_rng(5)
    floats = rng.standard_normal(N)
    floats[::7] = np.nan
    return {
        "i16": rng.integers(-3000, 3000, N).astype(np.int16),
        "i32": rng.integers(-(2**31), 2**31 - 1, N).astype(np.int32),
        "i64": rng.integers(-(2**62), 2**62, N).astype(np.int64),
        "f32": floats.astype(np.float32),
        "f64": floats,
        "bool": rng.random(N) < 0.5,
        "be_i32": rng.integers(-1000, 1000, N).astype(">i4"),
        "be_f64": floats.astype(">f8"),
    }


COLUMNS = {**plain_columns(), **record_views()}


def masks():
    rng = np.random.default_rng(11)
    return {
        "empty": np.zeros(N, dtype=bool),
        "full": np.ones(N, dtype=bool),
        "partial": rng.random(N) < 0.3,
        "one": np.arange(N) == N - 1,
        "dense": rng.random(N) < 0.95,
    }


class TestSelectRows:
    @pytest.mark.parametrize("kind", list(masks()))
    def test_index_gather_bit_identical_to_boolean_mask(self, kind):
        mask = masks()[kind]
        names = list(COLUMNS)
        selected, count = select_rows(COLUMNS, names, mask, N)
        assert count == int(mask.sum())
        if count == 0:
            assert selected is None
            return
        assert list(selected) == names
        for name in names:
            want = COLUMNS[name][mask]
            got = selected[name]
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            # tobytes compares bits: NaN payloads and byte order included.
            assert got.tobytes() == want.tobytes(), name

    def test_partial_gather_copies_into_fresh_writable_columns(self):
        mask = masks()["partial"]
        selected, _ = select_rows(COLUMNS, list(COLUMNS), mask, N)
        for name, column in selected.items():
            assert column.flags.writeable, name
            assert column.flags.c_contiguous, name
            assert not np.shares_memory(column, COLUMNS[name]), name

    def test_mask_keeping_every_row_returns_the_columns_uncopied(self):
        selected, count = select_rows(
            COLUMNS, ["A", "f64"], masks()["full"], N
        )
        assert count == N
        assert selected["A"] is COLUMNS["A"]
        assert selected["f64"] is COLUMNS["f64"]

    @pytest.mark.parametrize("mask", [True, np.bool_(True), np.array(True)])
    def test_scalar_true_keeps_all_rows(self, mask):
        selected, count = select_rows(COLUMNS, ["i16"], mask, N)
        assert count == N
        assert selected["i16"] is COLUMNS["i16"]

    @pytest.mark.parametrize("mask", [False, np.bool_(False), np.array(False)])
    def test_scalar_false_keeps_none(self, mask):
        assert select_rows(COLUMNS, ["i16"], mask, N) == (None, 0)

    def test_zero_length_block(self):
        empty = {"x": np.empty(0, dtype=">f4")}
        assert select_rows(empty, ["x"], np.zeros(0, dtype=bool), 0) == (
            None,
            0,
        )


class TestDecoderMemo:
    def test_repeated_query_builds_no_record_dtype(
        self, paper_dataset, monkeypatch
    ):
        text, mount = paper_dataset
        dataset = CompiledDataset(text)
        plan = dataset.plan("SELECT X, SOIL, SGAS FROM IparsData WHERE TIME > 3")
        built = []
        original = Strip.record_dtype

        def counting(self, needed=None):
            built.append(self)
            return original(self, needed)

        monkeypatch.setattr(Strip, "record_dtype", counting)
        with Extractor(mount) as extractor:
            first = extractor.execute(plan)
            chunks_read = sum(len(afc.chunks) for afc in plan.afcs)
            # At most one dtype per strip, never one per chunk read.
            strips = {id(c.strip) for afc in plan.afcs for c in afc.chunks}
            assert 0 < len(built) <= len(strips) < chunks_read
            built.clear()
            second = extractor.execute(plan)
        assert built == []
        for name in first.column_names:
            assert first[name].tobytes() == second[name].tobytes()

    def test_projection_order_does_not_change_the_decode(self, paper_dataset):
        text, mount = paper_dataset
        dataset = CompiledDataset(text)
        with Extractor(mount) as extractor:
            forward = extractor.execute(
                dataset.plan("SELECT SOIL, SGAS, X FROM IparsData")
            )
            backward = extractor.execute(
                dataset.plan("SELECT X, SGAS, SOIL FROM IparsData")
            )
            full = extractor.execute(dataset.plan("SELECT * FROM IparsData"))
        assert forward.column_names == ("SOIL", "SGAS", "X")
        assert backward.column_names == ("X", "SGAS", "SOIL")
        for name in ("SOIL", "SGAS", "X"):
            assert forward[name].dtype == backward[name].dtype == full[name].dtype
            assert forward[name].tobytes() == backward[name].tobytes()
            assert forward[name].tobytes() == full[name].tobytes()

    def test_needed_sets_in_any_order_share_one_decoder(self, paper_dataset):
        text, _ = paper_dataset
        plan = CompiledDataset(text).plan("SELECT SOIL, SGAS FROM IparsData")
        strip = next(
            c.strip
            for c in plan.afcs[0].chunks
            if {"SOIL", "SGAS"} <= set(c.strip.attrs)
        )
        one = strip.decoder(frozenset(["SGAS", "SOIL", "X"]))
        other = strip.decoder(frozenset(["X", "SOIL", "SGAS"]))
        assert one is other
        wanted, dtype = one
        assert wanted == tuple(a for a in strip.attrs if a in {"SOIL", "SGAS"})
        assert dtype == strip.record_dtype(list(wanted))
        assert dtype.itemsize == strip.record_size
        assert strip.decoder(frozenset(["X"])) == ((), None)


class TestPeakMemory:
    #: Peak traced bytes of one cold two-node SELECT * may not exceed
    #: this multiple of the result's bytes, plus the segment cache.  A
    #: node that joins its pieces before the coordinator joins again
    #: peaks at ~2.17x; splicing the pieces into one join, ~1.9x.
    RESULT_MULTIPLE = 2.05
    CACHE_BYTES = 1 << 20

    def test_two_node_scan_copies_each_value_once(self, tmp_path):
        config = IparsConfig(
            num_rels=2, num_times=20, cells_per_node=1500, num_nodes=2
        )
        cluster = VirtualCluster.create(str(tmp_path), config.num_nodes)
        text, _ = ipars.generate(config, "L0", cluster.mount())
        with QueryService(
            CompiledDataset(text), cluster, segment_cache_bytes=self.CACHE_BYTES
        ) as service:
            service.drop_caches()
            tracemalloc.start()
            try:
                result = service.submit("SELECT * FROM IparsData", ExecOptions())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        table = result.table
        assert table.num_rows == config.total_rows
        bound = self.RESULT_MULTIPLE * table.nbytes + self.CACHE_BYTES
        assert peak < bound, (peak / table.nbytes, peak, bound)


class TestSingleNodeOwnership:
    @pytest.mark.parametrize(
        "where", ["", " WHERE TIME > 2", " WHERE TIME > 2 AND SOIL > 0.5"],
        ids=["scan", "true", "partial"],
    )
    def test_single_node_result_is_an_owned_copy(self, tmp_path, where):
        config = IparsConfig(
            num_rels=2, num_times=6, cells_per_node=40, num_nodes=1
        )
        cluster = VirtualCluster.create(str(tmp_path), config.num_nodes)
        text, _ = ipars.generate(config, "L0", cluster.mount())
        with QueryService(CompiledDataset(text), cluster) as service:
            result = service.submit(f"SELECT X, SOIL FROM IparsData{where}")
            segments = [
                np.frombuffer(payload, dtype=np.uint8)
                for source in service.sources.values()
                for payload in source.extractor._segments._segments.values()
            ]
        assert segments and result.num_rows > 0
        for name in result.table.column_names:
            column = result.table.column(name)
            assert column.flags.writeable, name
            assert not any(np.shares_memory(column, s) for s in segments), name
