"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Smoke runs use ``--scale tiny`` datasets, so the whole file takes under
a minute on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.spans import Span, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counts that must repeat exactly for one seed.
DETERMINISTIC_PREFIXES = ("extractor.", "cache.", "cost.sim_s", "planner.afc",
                          "agg.rows", "agg.groups", "mover.bytes")


def run_bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: result_of(run_bench(w, 3, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    result = result_of(run_bench(workload, 3, 0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_with_units(workload, traced):
    result = traced[workload]
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert result["metrics"]["trace.orphan_spans"]["value"] == 0
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1.0 + 1e-9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(workload, traced):
    again = result_of(run_bench(workload, 3, 1))["metrics"]
    first = traced[workload]["metrics"]
    names = [n for n in first
             if n.startswith(DETERMINISTIC_PREFIXES) and first[n]["unit"] != "ms"]
    assert "cost.sim_s" in names and "extractor.bytes_read" in names
    assert {n: first[n]["value"] for n in names} == {
        n: again[n]["value"] for n in names
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", ".out",
                                                  "__pycache__"))
    proc = run_bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def span(sid, parent, start, end, qid=1, name="x"):
    return Span(sid, name, name, qid, parent, 0, start, end)


def test_self_time_nested_on_one_thread():
    # root [0,100] > a [10,60] > b [20,30];  root > c [70,90]
    spans = [span(1, None, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30),
             span(4, 1, 70, 90)]
    assert self_times(spans) == {1: 30.0, 2: 40.0, 3: 10.0, 4: 20.0}


def test_self_time_splits_parallel_siblings():
    # Two node spans overlap on [20,40]: each gets half of the overlap,
    # and the query's self-times still add up to its wall time.
    spans = [span(1, None, 0, 100), span(2, 1, 10, 40), span(3, 1, 20, 60),
             span(4, 3, 50, 60)]
    got = self_times(spans)
    assert got == {1: 50.0, 2: 20.0, 3: 20.0, 4: 10.0}
    assert sum(got.values()) == 100.0


def test_self_time_clips_children_to_parent():
    spans = [span(1, None, 0, 10), span(2, 1, 5, 30)]
    assert self_times(spans) == {1: 5.0, 2: 5.0}
