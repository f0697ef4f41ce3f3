"""Per-AFC residual predicates (``repro.core.residual``).

Part 1 unit-tests :func:`residual_where`: conjuncts over an AFC's
implicit constants are decided TRUE/FALSE once, everything else is kept
unchanged.  Part 2 checks that EXPLAIN reports the decision.  Part 3 is
a seeded differential test: random WHERE trees mixing implicit
constants, an inner loop variable and NaN-bearing stored columns run
through ``repro.connect()`` on the per-AFC path (default options), the
fused path (``scheduler="off"``) and the interpreter
(``vectorize="off"``), and must return exactly the rows a numpy filter
of the fully materialised table keeps.  Part 4 checks result ownership
and the data mover's identity fast path.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core import CompiledDataset, ExecOptions, Extractor, local_mount
from repro.core.residual import AfcResiduals, implicit_constants, residual_where
from repro.core.stats import IOStats
from repro.core.table import VirtualTable
from repro.datasets import IparsConfig, ipars
from repro.datasets.writers import write_dataset
from repro.errors import InjectedFault
from repro.faults import FaultInjector, FaultRule
from repro.obs.tracer import Tracer
from repro.sql import DEFAULT_REGISTRY, parse_where
from repro.sql.ast import (
    And,
    Between,
    Column,
    Comparison,
    FunctionCall,
    InList,
    Literal,
    Not,
    Or,
)
from repro.storm.cost import STORM_COST
from repro.storm.mover import MESSAGE_OVERHEAD, DataMoverService
from repro.storm.partition import RoundRobinPartitioner
from tests.conftest import assert_tables_equal

DTYPES = {"REL": np.dtype(np.int16), "TIME": np.dtype(np.int32)}


# ---------------------------------------------------------------------------
# Part 1: residual_where
# ---------------------------------------------------------------------------


class TestResidualWhere:
    def test_window_on_constants_is_true(self):
        where = parse_where("TIME > 3 AND TIME < 9")
        assert residual_where(where, {"TIME": 5, "REL": 0}, DTYPES) is True

    def test_one_false_conjunct_makes_the_afc_false(self):
        where = parse_where("TIME > 3 AND SOIL > 0.5")
        assert residual_where(where, {"TIME": 2}, DTYPES) is False

    def test_undecided_conjuncts_are_kept_unchanged(self):
        where = parse_where("TIME > 3 AND SOIL > 0.5 AND REL IN (0, 1)")
        residual = residual_where(where, {"TIME": 5, "REL": 1}, DTYPES)
        assert residual == parse_where("SOIL > 0.5")
        both = residual_where(where, {"TIME": 5}, DTYPES)
        assert both == And(where.terms[1:])

    def test_nothing_decided_returns_the_same_node(self):
        where = parse_where("SOIL > 0.5 AND TIME > 3")
        assert residual_where(where, {"REL": 0}, DTYPES) is where

    def test_no_where_is_true(self):
        assert residual_where(None, {"TIME": 1}, DTYPES) is True

    def test_function_calls_are_never_decided(self):
        where = parse_where("SPEED(TIME, TIME, TIME) < 100")
        assert residual_where(where, {"TIME": 1}, DTYPES) is where

    def test_or_not_between_on_constants(self):
        where = parse_where(
            "(TIME = 4 OR REL != 0) AND NOT (TIME BETWEEN 6 AND 8)"
        )
        assert residual_where(where, {"TIME": 4, "REL": 0}, DTYPES) is True
        assert residual_where(where, {"TIME": 7, "REL": 1}, DTYPES) is False
        assert residual_where(where, {"TIME": 5, "REL": 0}, DTYPES) is False

    def test_non_boolean_terms_are_kept(self):
        where = Column("TIME")
        assert residual_where(where, {"TIME": 3}, DTYPES) is where

    def test_decision_uses_the_extracted_dtype(self):
        # Extraction narrows a constant to the schema dtype (int16 wraps
        # 70000 to 4464); the decision sees exactly that value.
        constants = {"REL": 70000}
        assert residual_where(parse_where("REL = 4464"), constants, DTYPES) is True
        assert residual_where(parse_where("REL = 70000"), constants, DTYPES) is False

    def test_stored_columns_shadow_constants(self, ipars_l0):
        _, text, _ = ipars_l0
        afc = CompiledDataset(text).plan("SELECT X FROM IparsData").afcs[0]
        # X is stored in the COORDS chunk: extraction reads it from disk,
        # so a constant of that name must never decide a conjunct.
        shadowed = dataclasses.replace(afc, constants=afc.constants + (("X", 1),))
        names = dict(implicit_constants(shadowed))
        assert "X" not in names and "TIME" in names
        residuals = AfcResiduals(parse_where("X = 1"), DTYPES)
        assert residuals(shadowed) == parse_where("X = 1")

    def test_memo_shares_one_residual_per_signature(self, ipars_l0):
        _, text, _ = ipars_l0
        plan = CompiledDataset(text).plan(
            "SELECT SOIL FROM IparsData WHERE TIME > 3 AND SOIL > 0.5"
        )
        residuals = AfcResiduals(plan.where, plan.dtypes)
        decided = [residuals(afc) for afc in plan.afcs]
        assert len({id(r) for r in decided}) == 1
        assert decided[0] == parse_where("SOIL > 0.5")


# ---------------------------------------------------------------------------
# Part 2: EXPLAIN
# ---------------------------------------------------------------------------


class TestExplainResiduals:
    def test_time_window_resolves_every_afc_true(self, ipars_l0):
        _, text, _ = ipars_l0
        dataset = CompiledDataset(text)
        sql = "SELECT * FROM IparsData WHERE TIME > 3 AND TIME < 9"
        planned = len(dataset.plan(sql).afcs)
        out = dataset.explain(sql)
        assert f"AFC residuals: {planned} TRUE, 0 FALSE, 0 partial" in out
        assert "residual WHERE:" not in out

    def test_window_plus_stored_filter_keeps_only_the_stored_part(
        self, ipars_l0
    ):
        _, text, _ = ipars_l0
        dataset = CompiledDataset(text)
        sql = "SELECT X FROM IparsData WHERE TIME > 3 AND TIME < 9 AND SOIL > 0.5"
        planned = len(dataset.plan(sql).afcs)
        lines = dataset.explain(sql).splitlines()
        assert f"AFC residuals: 0 TRUE, 0 FALSE, {planned} partial" in lines
        residual_lines = [l for l in lines if "residual WHERE:" in l]
        assert residual_lines == ["  residual WHERE: SOIL > 0.5"]

    def test_cli_prints_counts(self, capsys, ipars_l0, tmp_path):
        _, text, _ = ipars_l0
        desc = tmp_path / "ipars.desc"
        desc.write_text(text)
        code = main(
            ["explain", str(desc),
             "SELECT X FROM IparsData WHERE TIME = 4 OR REL = 1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        # An OR across two attributes prunes nothing at planning; the
        # REL = 0 AFCs at the 11 other TIMEs (on 2 nodes) resolve FALSE.
        assert "AFCs planned: 48" in out
        assert "AFC residuals: 26 TRUE, 22 FALSE, 0 partial" in out


# ---------------------------------------------------------------------------
# Part 3: seeded differential test against a numpy reference
# ---------------------------------------------------------------------------

SMALL = IparsConfig(num_rels=2, num_times=12, cells_per_node=40, num_nodes=2)
SELECT = ["REL", "TIME", "X", "SOIL", "SGAS"]


def nan_value_fn(config):
    """IPARS values with about 15% NaN SOIL readings."""
    base = ipars.make_value_fn(config)

    def value_fn(attr, env, coords):
        values = base(attr, env, coords)
        if attr == "SOIL":
            values = np.where(values < 0.15, np.nan, values)
        return values

    return value_fn


def layout_descriptor(layout):
    text = ipars.descriptor_text(SMALL, layout)
    if layout == "I":
        # Without TIME in the DATAINDEX, layout I aligns whole files and
        # TIME becomes an inner loop variable instead of a constant.
        text = text.replace("DATAINDEX { REL TIME }", "DATAINDEX { REL }")
    return text


@pytest.fixture(scope="module", params=["L0", "I"])
def nan_ipars(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(f"nan_ipars_{request.param}")
    text = layout_descriptor(request.param)
    dataset = CompiledDataset(text)
    write_dataset(dataset, local_mount(str(root)), nan_value_fn(SMALL))
    with Extractor(local_mount(str(root))) as extractor:
        full = extractor.execute(
            dataset.plan(f"SELECT {', '.join(SELECT)} FROM IparsData")
        )
    return request.param, text, root, full


VALUES = {
    "REL": [-1, 0, 1, 2],
    "TIME": [0, 1, 3, 4, 5.5, 8, 12, 13],
    "SOIL": [0.1, 0.3, 0.5, 0.9],
    "SGAS": [0.2, 0.5, 0.8],
}


IMPLICIT = ["REL", "TIME"]
ALL_NAMES = ["REL", "TIME", "TIME", "SOIL", "SGAS"]


def rand_atom(rng, names):
    name = rng.choice(names)
    values = VALUES[name]
    kind = rng.choice(["cmp", "cmp", "ne", "in", "between", "udf"])
    if kind == "udf":
        args = tuple(Column(rng.choice(names)) for _ in range(3))
        return Comparison(
            rng.choice(["<", ">="]),
            FunctionCall("SPEED", args),
            Literal(rng.choice([0.5, 1.0, 5.0, 10.0])),
        )
    if kind == "in":
        return InList(
            Column(name),
            tuple(sorted({rng.choice(values) for _ in range(rng.randrange(1, 4))})),
        )
    if kind == "between":
        lo, hi = sorted(rng.sample(values, 2))
        return Between(Column(name), lo, hi)
    op = "!=" if kind == "ne" else rng.choice(["<", "<=", ">", ">=", "="])
    return Comparison(op, Column(name), Literal(rng.choice(values)))


def rand_term(rng, depth, names):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return rand_atom(rng, names)
    if roll < 0.7:
        return Not(rand_term(rng, depth - 1, names))
    terms = tuple(
        rand_term(rng, depth - 1, names) for _ in range(rng.randrange(2, 4))
    )
    return Or(terms) if roll < 0.9 else And(terms)


def rand_where(rng):
    """A conjunction whose terms each use only implicit attributes (so
    the AFC decides them) or any attribute (so rows decide them)."""
    terms = tuple(
        rand_term(rng, 2, IMPLICIT if rng.random() < 0.5 else ALL_NAMES)
        for _ in range(rng.randrange(1, 5))
    )
    return terms[0] if len(terms) == 1 else And(terms)


def reference(full, where):
    columns = {name: full.column(name) for name in SELECT}
    mask = np.broadcast_to(
        np.asarray(where.evaluate(columns, DEFAULT_REGISTRY), dtype=bool),
        (full.num_rows,),
    )
    return VirtualTable(
        {name: columns[name][mask] for name in SELECT}, order=SELECT
    )


MODES = {
    "per-afc": ExecOptions(),
    "fused": ExecOptions(scheduler="off"),
    "interpreted": ExecOptions(vectorize="off"),
}

N_TREES = 40


class TestDifferential:
    def test_random_wheres_match_numpy_reference(self, nan_ipars):
        layout, text, root, full = nan_ipars
        rng = random.Random(20260412 + len(layout))
        outcomes = set()
        dataset = CompiledDataset(text)
        with repro.connect(f"local://{root}", descriptor=text) as db:
            for i in range(N_TREES):
                where = rand_where(rng)
                sql = f"SELECT {', '.join(SELECT)} FROM IparsData WHERE {where}"
                expected = reference(full, where)
                plan = dataset.plan(sql)
                residuals = AfcResiduals(plan.where, plan.dtypes)
                for afc in plan.afcs:
                    r = residuals(afc)
                    outcomes.add(r if isinstance(r, bool) else "partial")
                for mode, opts in MODES.items():
                    got = db.submit(sql, opts).table
                    try:
                        assert_tables_equal(got, expected)
                    except AssertionError as exc:
                        raise AssertionError(
                            f"{layout} {mode} case {i}: {sql}"
                        ) from exc
        # The generator must exercise every outcome to be meaningful.
        assert outcomes == {True, False, "partial"}, outcomes


# ---------------------------------------------------------------------------
# Part 4: result ownership, cost model and the mover fast path
# ---------------------------------------------------------------------------


def segment_buffers(db):
    return [
        np.frombuffer(payload, dtype=np.uint8)
        for source in db.service.sources.values()
        for payload in source.extractor._segments._segments.values()
    ]


class TestOwnership:
    @pytest.mark.parametrize(
        "where",
        ["TIME > 3 AND TIME < 9", "TIME > 3 AND TIME < 9 AND SOIL > 0.5"],
        ids=["true", "partial"],
    )
    def test_columns_writable_and_never_alias_the_segment_cache(
        self, ipars_l0, where
    ):
        config, text, mount = ipars_l0
        root = mount("", "").rstrip("/")
        sql = f"SELECT X, SOIL FROM IparsData WHERE {where}"
        with repro.connect(f"local://{root}", descriptor=text) as db:
            result = db.submit(sql)
            segments = segment_buffers(db)
            assert segments
            assert result.num_rows > 0
            (delivery,) = result.deliveries
            for table in (result.table, delivery.table):
                for name in table.column_names:
                    column = table.column(name)
                    assert column.flags.writeable, name
                    for segment in segments:
                        assert not np.shares_memory(column, segment), name


class TestCostModel:
    def test_whereless_plan_pays_no_filter_cpu(self, ipars_l0):
        config, text, mount = ipars_l0
        root = mount("", "").rstrip("/")
        with repro.connect(f"local://{root}", descriptor=text) as db:
            result = db.submit("SELECT X, SOIL FROM IparsData")
        total = result.total_stats
        assert total.rows_extracted > 0
        assert total.rows_filtered == 0 and total.rows_vectorized == 0
        free = dataclasses.replace(STORM_COST, filter_cpu=0.0, vector_filter_cpu=0.0)
        assert STORM_COST.makespan(result.per_node_stats) == pytest.approx(
            free.makespan(result.per_node_stats)
        )

    def test_window_query_gets_cheaper_once_its_afcs_resolve_true(
        self, ipars_l0
    ):
        config, text, mount = ipars_l0
        root = mount("", "").rstrip("/")
        sql = "SELECT X, SOIL FROM IparsData WHERE TIME > 3 AND TIME < 9"
        with repro.connect(f"local://{root}", descriptor=text) as db:
            db.drop_caches()
            per_afc = db.submit(sql)  # residuals: every AFC TRUE
            db.drop_caches()
            fused = db.submit(sql, ExecOptions(scheduler="off"))  # full WHERE
        assert per_afc.total_stats.bytes_read == fused.total_stats.bytes_read
        assert per_afc.total_stats.rows_filtered == 0
        assert fused.total_stats.rows_filtered == fused.total_stats.rows_extracted
        assert per_afc.total_stats.rows_extracted == fused.total_stats.rows_extracted
        assert per_afc.simulated_seconds < fused.simulated_seconds

    def test_rows_filtered_crosses_the_wire(self):
        from repro.net.wire import decode_stats, encode_stats

        stats = IOStats(rows_filtered=7, rows_vectorized=5)
        assert decode_stats(encode_stats(stats)) == stats


def make_table(n):
    return VirtualTable(
        {"A": np.arange(n, dtype=np.float32), "B": np.arange(n, dtype=np.int16)},
        order=["A", "B"],
    )


class TestMoverIdentityFastPath:
    def test_accounting_matches_the_gather_formula(self):
        mover = DataMoverService(message_bytes=100)
        stats = IOStats()
        table = make_table(1000)
        (delivery,) = mover.move(table, RoundRobinPartitioner(), 1, stats)
        # 6000 payload bytes over 100-byte messages.
        assert delivery.messages == 60
        assert delivery.bytes_sent == 6000 + 60 * MESSAGE_OVERHEAD
        assert stats.bytes_sent == delivery.bytes_sent
        for name in ("A", "B"):
            np.testing.assert_array_equal(delivery.table[name], table[name])

    def test_empty_result_sends_nothing(self):
        (delivery,) = DataMoverService().move(make_table(0), RoundRobinPartitioner(), 1)
        assert delivery.bytes_sent == 0 and delivery.messages == 0

    def test_client0_fault_still_fires_before_anything_is_sent(self):
        injector = FaultInjector([FaultRule("node-down", node="client:0", times=1)])
        mover = DataMoverService(injector=injector)
        stats = IOStats()
        with pytest.raises(InjectedFault, match="client:0"):
            mover.move(make_table(10), RoundRobinPartitioner(), 1, stats)
        assert stats.bytes_sent == 0
        (delivery,) = mover.move(make_table(10), RoundRobinPartitioner(), 1, stats)
        assert stats.bytes_sent == delivery.bytes_sent == 60 + MESSAGE_OVERHEAD

    def test_partition_and_mover_spans_remain(self):
        tracer = Tracer()
        DataMoverService().move(
            make_table(10), RoundRobinPartitioner(), 1, tracer=tracer
        )
        (partition,) = tracer.find("partition")
        (mover,) = tracer.find("mover")
        assert partition.tags["rows"] == 10
        assert mover.tags["bytes_sent"] == 60 + MESSAGE_OVERHEAD
        assert mover.tags["messages"] == 1
