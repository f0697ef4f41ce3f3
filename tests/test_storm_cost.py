"""Tests for the deterministic cost model."""

import pytest

from repro.core.stats import IOStats
from repro.storm.cost import CostModel, POSTGRES_COST, STORM_COST


def stats_with(**kwargs):
    stats = IOStats()
    for name, value in kwargs.items():
        setattr(stats, name, value)
    return stats


class TestNodeTime:
    def test_bandwidth_term(self):
        model = CostModel(disk_bandwidth=100e6, seek_time=0, open_time=0,
                          tuple_cpu=0, filter_cpu=0)
        stats = stats_with(bytes_read=200_000_000)
        assert model.node_time(stats) == pytest.approx(2.0)

    def test_seek_and_open_terms(self):
        model = CostModel(seek_time=0.01, open_time=0.002, tuple_cpu=0,
                          filter_cpu=0)
        stats = stats_with(seeks=10, files_opened=5)
        assert model.node_time(stats) == pytest.approx(0.11)

    def test_cpu_terms(self):
        model = CostModel(tuple_cpu=1e-6, filter_cpu=1e-6, seek_time=0,
                          open_time=0)
        # Every extracted row was also filtered: decode + filter CPU.
        stats = stats_with(rows_extracted=1_000_000, rows_filtered=1_000_000)
        assert model.node_time(stats) == pytest.approx(2.0)

    def test_unfiltered_rows_pay_no_filter_cpu(self):
        model = CostModel(tuple_cpu=1e-6, filter_cpu=1e-6, seek_time=0,
                          open_time=0)
        stats = stats_with(rows_extracted=1_000_000)
        assert model.node_time(stats) == pytest.approx(1.0)

    def test_monotone_in_bytes(self):
        small = STORM_COST.node_time(stats_with(bytes_read=1_000_000))
        large = STORM_COST.node_time(stats_with(bytes_read=100_000_000))
        assert large > small


class TestMakespan:
    def test_parallel_nodes_take_the_max(self):
        model = CostModel(query_overhead=0, network_latency=0)
        fast = stats_with(bytes_read=1_000_000)
        slow = stats_with(bytes_read=25_000_000)
        combined = model.makespan({"a": fast, "b": slow})
        assert combined == pytest.approx(model.node_time(slow))

    def test_network_adds(self):
        model = CostModel(query_overhead=0, network_bandwidth=10e6,
                          network_latency=0.001)
        t = model.makespan({}, bytes_sent=10_000_000, messages=10)
        assert t == pytest.approx(1.0 + 0.01)

    def test_query_overhead_floor(self):
        assert STORM_COST.makespan({}) == pytest.approx(
            STORM_COST.query_overhead
        )

    def test_scaling_shape(self):
        """Halving per-node bytes roughly halves the makespan: the
        mechanism behind Figure 10's near-linear scaling."""
        model = CostModel(query_overhead=0)
        one_node = model.makespan({"a": stats_with(bytes_read=100_000_000)})
        two_nodes = model.makespan(
            {
                "a": stats_with(bytes_read=50_000_000),
                "b": stats_with(bytes_read=50_000_000),
            }
        )
        assert two_nodes == pytest.approx(one_node / 2)


class TestCalibration:
    def test_postgres_costs_more_per_tuple(self):
        stats = stats_with(rows_extracted=1_000_000)
        assert POSTGRES_COST.node_time(stats) > STORM_COST.node_time(stats)

    def test_models_are_frozen(self):
        with pytest.raises(Exception):
            STORM_COST.disk_bandwidth = 1.0
