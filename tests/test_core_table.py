"""Tests for the VirtualTable result abstraction."""

import numpy as np
import pytest

from repro.core.table import VirtualTable, concat_tables, empty_table
from repro.errors import ReproError


@pytest.fixture
def table():
    return VirtualTable(
        {
            "A": np.array([3, 1, 2]),
            "B": np.array([30.0, 10.0, 20.0]),
        },
        order=["A", "B"],
    )


class TestBasics:
    def test_shape(self, table):
        assert table.num_rows == 3
        assert len(table) == 3
        assert table.column_names == ("A", "B")
        assert bool(table)

    def test_column_access(self, table):
        np.testing.assert_array_equal(table["A"], [3, 1, 2])
        with pytest.raises(ReproError, match="no column"):
            table.column("C")

    def test_rows_iteration(self, table):
        assert list(table.rows()) == [(3, 30.0), (1, 10.0), (2, 20.0)]

    def test_head(self, table):
        assert table.head(2) == [(3, 30.0), (1, 10.0)]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ReproError, match="expected"):
            VirtualTable({"A": np.arange(3), "B": np.arange(4)})

    def test_empty(self):
        t = VirtualTable({})
        assert t.num_rows == 0
        assert not t

    def test_order_selects_and_orders_columns(self):
        t = VirtualTable(
            {"A": np.arange(2), "B": np.arange(2), "C": np.arange(2)},
            order=["C", "A"],
        )
        assert t.column_names == ("C", "A")


class TestCanonical:
    def test_canonical_sorts_rows(self, table):
        c = table.canonical()
        np.testing.assert_array_equal(c["A"], [1, 2, 3])
        np.testing.assert_array_equal(c["B"], [10.0, 20.0, 30.0])

    def test_canonical_ties_break_on_later_columns(self):
        t = VirtualTable(
            {"A": np.array([1, 1, 0]), "B": np.array([5.0, 2.0, 9.0])},
            order=["A", "B"],
        )
        c = t.canonical()
        assert list(c["A"]) == [0, 1, 1]
        assert list(c["B"]) == [9.0, 2.0, 5.0]


class TestStructured:
    def test_to_structured(self, table):
        s = table.to_structured()
        assert s.dtype.names == ("A", "B")
        assert s["A"][0] == 3

    def test_roundtrip(self, table):
        s = table.to_structured()
        t2 = VirtualTable({n: s[n] for n in s.dtype.names})
        np.testing.assert_array_equal(t2["B"], table["B"])


class TestConcat:
    def test_concat(self, table):
        joined = concat_tables([table, table])
        assert joined.num_rows == 6
        assert joined.column_names == ("A", "B")

    def test_concat_empty_list(self):
        assert concat_tables([]).num_rows == 0

    def test_concat_mismatched_columns(self, table):
        other = VirtualTable({"A": np.arange(1)})
        with pytest.raises(ReproError, match="cannot concatenate"):
            concat_tables([table, other])

    def test_empty_table_helper(self):
        t = empty_table(["X"], {"X": np.dtype("<f4")})
        assert t.num_rows == 0
        assert t["X"].dtype == np.dtype("<f4")


def frozen(values, dtype):
    """A read-only view, like an np.frombuffer decode of a cached chunk."""
    return np.frombuffer(np.asarray(values, dtype=dtype).tobytes(), dtype=dtype)


class TestFromPieces:
    def test_row_count_known_without_joining(self):
        t = VirtualTable.from_pieces(
            {"A": [frozen([1, 2], "<i4"), frozen([3], "<i4")]},
            ["A"],
            {"A": np.dtype("<i4")},
        )
        assert t.num_rows == 3
        assert t._pieces["A"]  # still unjoined
        assert t.column_names == ("A",)

    def test_first_read_joins_into_an_owned_copy(self):
        piece = frozen([1.5, 2.5], "<f8")
        t = VirtualTable.from_pieces({"B": [piece]}, ["B"], {})
        col = t["B"]
        assert col.flags.writeable
        assert not np.shares_memory(col, piece)
        assert t["B"] is col  # joined once
        np.testing.assert_array_equal(col, [1.5, 2.5])

    def test_concat_splices_pieces_into_one_copy(self):
        pieces = [frozen([1, 2], ">i2"), frozen([3], ">i2")]
        part = VirtualTable.from_pieces({"A": pieces}, ["A"], {})
        joined = concat_tables([part])  # a single node's partial
        col = joined["A"]
        assert col.dtype == np.dtype(np.int16)  # np.concatenate's native order
        assert col.flags.writeable
        assert not any(np.shares_memory(col, p) for p in pieces)
        np.testing.assert_array_equal(col, [1, 2, 3])
        assert part._pieces["A"]  # the partial itself was not joined

    def test_columns_without_pieces_are_typed_and_promote_like_a_join(self):
        dtypes = {"A": np.dtype("<f4")}
        empty = VirtualTable.from_pieces({}, ["A"], dtypes)
        assert empty.num_rows == 0
        assert empty["A"].dtype == np.dtype("<f4")
        def partials():
            ints = {"A": [np.array([1, 2], dtype="<i2")]}
            return [
                VirtualTable.from_pieces(ints, ["A"], dtypes),
                VirtualTable.from_pieces({}, ["A"], dtypes),
            ]

        # Same dtype as joining each partial first, then concatenating.
        want = concat_tables(
            [VirtualTable({"A": p["A"]}) for p in partials()]
        )
        got = concat_tables(partials())
        assert got["A"].dtype == want["A"].dtype == np.dtype("<f4")
        np.testing.assert_array_equal(got["A"], want["A"])

    def test_mismatched_piece_lengths_rejected(self):
        with pytest.raises(ReproError, match="expected"):
            VirtualTable.from_pieces(
                {"A": [np.arange(2)], "B": [np.arange(3)]}, ["A", "B"], {}
            )

    def test_table_methods_see_joined_columns(self):
        t = VirtualTable.from_pieces(
            {"A": [np.array([3, 1]), np.array([2])],
             "B": [np.array([30.0]), np.array([10.0, 20.0])]},
            ["A", "B"],
            {},
        )
        assert t.head(3) == [(3, 30.0), (1, 10.0), (2, 20.0)]
        assert t.nbytes == 3 * 8 * 2
        assert list(t.canonical()["A"]) == [1, 2, 3]
