"""Closed query loops, CPU accounting, the memory pass, and the
per-layer ledger.

A closed loop sends a tenant's next query only after the previous one
has returned; each tenant is one client thread.  The timed loop runs for
``--seconds`` and also until at least :data:`MIN_SAMPLES` queries have
completed, so at least ten samples lie beyond the 90th percentile.

The gated timings are CPU seconds of this process and its node servers
(see :mod:`perfbench.cpu`); wall-time latencies and throughput are
measured and printed beside them.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core import IOStats
from repro.net.wire import encode_table
from repro.obs.tracer import NULL_TRACER

from .cpu import cpu_seconds
from .instrument import ROOT
from .spans import Recorder, self_times
from .verify import Checker
from .workloads import Tenant

#: The timed loop continues past ``--seconds`` until this many queries
#: completed (ten beyond p90), but never past this many times ``--seconds``.
MIN_SAMPLES = 100
MAX_STRETCH = 3.0

@dataclass
class Sample:
    """One query: its wall time and what the answer cost and contained."""

    tenant: str
    index: int
    sql: str
    wall: float
    qid: Optional[int] = None
    error: Optional[str] = None
    problem: Optional[str] = None
    simulated: float = 0.0
    afcs: int = 0
    #: Counters summed over every entry of ``per_node_stats``.
    stats: IOStats = field(default_factory=IOStats)
    #: The same over the storage nodes only, without the pseudo-nodes
    #: (``_cache``, ``_transfer``, ...) the coordinator accounts under.
    node_stats: IOStats = field(default_factory=IOStats)
    result_bytes: int = 0
    transfer_bytes: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and self.problem is None


@dataclass
class Pass:
    samples: List[Sample]
    wall: float
    #: CPU seconds per query of each round (see :func:`closed_loop`).
    round_cpu: List[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


def run_query(
    client,
    tenant: Tenant,
    index: int,
    sql: str,
    checker: Checker,
    rec: Optional[Recorder] = None,
    qid: Optional[int] = None,
) -> Sample:
    """``Client.submit`` one query, timed, with its answer checked."""
    root = None
    if rec is not None and rec.active:
        # A fresh string object: its identity ties the spans opened on
        # the scheduler's dispatch thread to this query's root span.
        sql = sql.encode().decode()
        root = rec.begin(ROOT, "client", qid=qid)
        rec.bind(sql, root)
    start = time.perf_counter()
    try:
        result = client.submit(sql, tenant.options)
    except Exception as exc:  # a failed query is a sample, not a crash
        return Sample(tenant.name, index, sql, time.perf_counter() - start,
                      qid, error=f"{type(exc).__name__}: {exc}")
    finally:
        if root is not None:
            rec.unbind(sql)
            rec.end(root)
    wall = time.perf_counter() - start
    if root is not None:
        wall = root.duration / 1e9
    transfer = result.per_node_stats.get("_transfer")
    nodes = IOStats()
    for node, stats in result.per_node_stats.items():
        if not node.startswith("_"):
            nodes.merge(stats)
    return Sample(
        tenant.name, index, sql, wall, qid,
        problem=checker.check(sql, result.table),
        simulated=result.simulated_seconds,
        afcs=result.afc_count,
        stats=result.total_stats,
        node_stats=nodes,
        result_bytes=result.table.nbytes,
        transfer_bytes=transfer.bytes_sent if transfer is not None else 0,
    )


def closed_loop(
    client,
    tenants: List[Tenant],
    seed: int,
    checker: Checker,
    *,
    seconds: Optional[float] = None,
    rounds: Optional[int] = None,
    count: Optional[int] = None,
    pids: Sequence[int] = (),
    between_rounds: Optional[Callable[[float], None]] = None,
    rec: Optional[Recorder] = None,
    after: Optional[Callable[[Sample], None]] = None,
) -> Pass:
    """One pass of closed-loop rounds, or ``count`` queries per tenant
    one at a time.

    A round gives every tenant the next :attr:`Tenant.per_round` queries
    of its stream; the tenants run them at once, one client thread each
    (a single tenant runs on this thread), and the round ends when all
    have finished, so every round carries the same mix.  Rounds repeat
    for ``seconds`` (and on to :data:`MIN_SAMPLES`, within
    :data:`MAX_STRETCH`) or ``rounds`` times.  The CPU time of this
    process and of ``pids`` is taken around each round.
    ``between_rounds(elapsed)`` runs after each round; its own time is
    left out of the loop's elapsed and wall time.

    ``count`` runs the tenants' first ``count`` queries one at a time,
    interleaved, on this thread -- the deterministic order the traced
    run takes its counts from.
    """
    qids = itertools.count(1)
    outs: Dict[str, List[Sample]] = {t.name: [] for t in tenants}

    def drive(tenant: Tenant, queries: List[str]) -> None:
        out = outs[tenant.name]
        for sql in queries:
            sample = run_query(
                client, tenant, len(out), sql, checker, rec, next(qids)
            )
            out.append(sample)
            if after is not None:
                after(sample)

    round_cpu: List[float] = []
    paused = 0.0
    start = time.perf_counter()
    if count is not None:
        lists = [t.first(seed, count) for t in tenants]
        for index in range(count):
            for tenant, queries in zip(tenants, lists):
                drive(tenant, [queries[index]])
    else:
        streams = [t.queries(seed) for t in tenants]
        while True:
            lists = [[next(stream) for _ in range(t.per_round)]
                     for t, stream in zip(tenants, streams)]
            done = sum(len(o) for o in outs.values())
            cpu = cpu_seconds(pids)
            if len(tenants) == 1:
                drive(tenants[0], lists[0])
            else:
                threads = [
                    threading.Thread(target=drive, args=(t, queries),
                                     name=f"tenant-{t.name}")
                    for t, queries in zip(tenants, lists)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            cpu = cpu_seconds(pids) - cpu
            total = sum(len(o) for o in outs.values())
            round_cpu.append(cpu / (total - done))
            elapsed = time.perf_counter() - start - paused
            if between_rounds is not None:
                pause = time.perf_counter()
                between_rounds(elapsed)
                paused += time.perf_counter() - pause
            if rounds is not None:
                if len(round_cpu) >= rounds:
                    break
            elif (elapsed >= seconds and total >= MIN_SAMPLES) or (
                elapsed >= seconds * MAX_STRETCH
            ):
                break
    wall = time.perf_counter() - start - paused
    samples = [s for out in outs.values() for s in out]
    return Pass(samples, wall, round_cpu)


def warm_up(client, tenants: List[Tenant], checker: Checker) -> Pass:
    """One query of every kind, so lazy set-up is paid before timing."""
    samples = []
    for tenant in tenants:
        for index, pool in enumerate(tenant.pools.values()):
            samples.append(run_query(client, tenant, index, pool[0], checker))
    return Pass(samples, 0.0)


def memory_pass(client, tenant: Tenant, sql: str, expected_rows: int,
                repeats: int = 3):
    """Coordinator ``tracemalloc`` peak (bytes) while draining ``sql``
    through ``Client.query_iter`` from cold caches: the highest of
    ``repeats`` drains, since parallel node work makes each drain's peak
    depend on thread timing.  None on a wrong row count."""
    peaks = []
    for _ in range(repeats):
        client.drop_caches()
        gc.collect()
        tracemalloc.start()
        try:
            rows = 0
            for batch in client.query_iter(sql, tenant.options):
                rows += batch.num_rows
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if rows != expected_rows:
            return None
    return max(peaks)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(timed: Pass, setup_cpu: List[float], peak_bytes) -> Dict:
    """The gated end-to-end metrics of one timed pass; the wall-time
    figures and sample counts are reported beside them."""
    done = [s for s in timed.samples if s.ok]
    lat = [s.wall * 1e3 for s in done]
    inter = [s.wall * 1e3 for s in done if s.tenant == "interactive"] or lat
    p90 = percentile(lat, 90) if lat else 0.0
    ip90 = percentile(inter, 90) if inter else 0.0
    return {
        "setup_s": (float(np.median(setup_cpu)), "s"),
        "cpu_ms_per_query": (float(np.median(timed.round_cpu)) * 1e3, "ms"),
        "peak_mem_mb": (
            peak_bytes / 1e6 if peak_bytes is not None else 0.0, "MB"
        ),
        "_reported": {
            "latency_p50_ms": (percentile(lat, 50) if lat else 0.0, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "throughput_qps": (len(done) / timed.wall, "queries/s"),
            "interactive_p90_ms": (ip90, "ms"),
            "error_rate": (timed.failed / max(1, len(timed.samples)),
                           "ratio"),
        },
        "_counts": {
            "attempted": len(timed.samples),
            "completed": len(done),
            "failed": timed.failed,
            "beyond_p90": sum(1 for v in lat if v > p90),
            "interactive_samples": len(inter),
            "interactive_beyond_p90": sum(1 for v in inter if v > ip90),
            "setup_runs": len(setup_cpu),
            "rounds": len(timed.round_cpu),
            "loop_s": timed.wall,
        },
    }


def wall_figures(untraced: Pass) -> Dict:
    """Wall-time latency and throughput of a fixed-length untraced pass
    of the traced run, for the per-layer ledger."""
    lat = [s.wall * 1e3 for s in untraced.samples if s.ok]
    inter = [s.wall * 1e3 for s in untraced.samples
             if s.ok and s.tenant == "interactive"] or lat
    return {
        "wall.latency_p50_ms": (percentile(lat, 50) if lat else 0.0, "ms"),
        "wall.latency_p90_ms": (percentile(lat, 90) if lat else 0.0, "ms"),
        "wall.throughput_qps": (_ratio(len(lat), untraced.wall),
                                "queries/s"),
        "wall.interactive_p90_ms": (
            percentile(inter, 90) if inter else 0.0, "ms"
        ),
    }


class RpcReplay:
    """Replays each ``net.rpc`` of a traced query outside its timing:
    encodes the returned partial, and runs the same node plan in-process
    over the same files."""

    def __init__(self, rec: Recorder, local_transport):
        self.rec = rec
        self.local = local_transport
        self.calls: Dict[int, list] = defaultdict(list)
        self.encode_s: Dict[int, float] = defaultdict(float)
        self.overhead_s: List[float] = []
        self.rpc_s: List[float] = []

    def on_rpc(self, span, node, plan, afcs, options, partial) -> None:
        self.calls[span.qid].append((span, node, plan, afcs, options, partial))

    def after(self, sample: Sample) -> None:
        calls = self.calls.pop(sample.qid, [])
        self.rec.active = False
        try:
            for span, node, plan, afcs, options, partial in calls:
                start = time.perf_counter()
                encode_table(partial)
                self.encode_s[sample.qid] += time.perf_counter() - start
                local_opts = options.replace(run_state=None)
                start = time.perf_counter()
                self.local.execute_node(
                    node, plan, afcs, IOStats(), NULL_TRACER, local_opts
                )
                local = time.perf_counter() - start
                self.rpc_s.append(span.duration / 1e9)
                self.overhead_s.append(span.duration / 1e9 - local)
        finally:
            self.rec.active = True


#: Per-query mean self-time metrics: metric -> span names.
SELF_TIME_METRICS = {
    "sql.resolve_ms": ("sql.resolve", "sql.rewrite"),
    "planner.plan_ms": ("planner.plan",),
    "node.self_ms": ("node.exec",),
    "extractor.ms": ("extractor.extract_afc",),
    "filter.ms": ("filter.apply", "filter.refilter"),
    "agg.merge_ms": ("agg.merge",),
    "agg.fold_ms": ("agg.fold",),
    "coord.ms": ("coord.submit",),
    "coord.merge_ms": ("coord.merge",),
    "mover.ms": ("mover.move",),
    "net.rpc_self_ms": ("net.rpc",),
    "wire.decode_ms": ("wire.decode",),
    "cache.ms": ("cache.key_and_needed", "cache.serve", "cache.plan_for",
                 "cache.store"),
}


def rank_agreement(samples: List[Sample]) -> float:
    """Share of query pairs that simulated and wall time order alike
    (pairs tied on either are skipped)."""
    sim = np.array([s.simulated for s in samples])
    wall = np.array([s.wall for s in samples])
    agree = total = 0
    for i in range(len(samples) - 1):
        ds = np.sign(sim[i + 1:] - sim[i])
        dw = np.sign(wall[i + 1:] - wall[i])
        both = (ds != 0) & (dw != 0)
        total += int(both.sum())
        agree += int((ds[both] == dw[both]).sum())
    return agree / total if total else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ledger(
    counted: Pass,
    untraced: Pass,
    traced: Pass,
    rec: Recorder,
    full_scan_afcs: int,
    cache_stats: Optional[dict],
    sched_stats: dict,
    replay: Optional[RpcReplay],
) -> Dict:
    """Every per-layer metric: counts from the counted pass, times from
    the traced pass's spans, overhead against the untraced pass."""
    n = max(1, len(traced.samples))
    metrics: Dict[str, tuple] = wall_figures(untraced)

    # -- span-derived times ----------------------------------------------
    by_query = rec.by_query()
    by_name: Dict[str, float] = defaultdict(float)
    sched_waits: List[float] = []
    layer_self: Dict[int, float] = {}
    node_exec: List[float] = []
    roots: Dict[int, float] = {}
    for qid, spans in by_query.items():
        own = self_times(spans)
        root = next((s for s in spans if s.name == ROOT), None)
        if root is None:
            continue
        roots[qid] = root.duration
        layer_self[qid] = sum(v for sid, v in own.items() if sid != root.sid)
        submit = min(
            (s.start for s in spans if s.name == "coord.submit"),
            default=None,
        )
        if submit is not None:
            sched_waits.append((submit - root.start) / 1e6)
        for span in spans:
            by_name[span.name] += own[span.sid]
            if span.name == "node.exec":
                node_exec.append(span.duration / 1e6)
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = (sum(by_name[x] for x in names) / 1e6 / n, "ms")
    metrics["node.exec_ms"] = (
        float(np.mean(node_exec)) if node_exec else 0.0, "ms"
    )

    paired = {(s.tenant, s.index): s for s in untraced.samples}
    unattributed, traced_wall, untraced_wall = [], 0.0, 0.0
    for s in traced.samples:
        twin = paired.get((s.tenant, s.index))
        if twin is None or s.qid not in layer_self:
            continue
        unattributed.append(twin.wall * 1e3 - layer_self[s.qid] / 1e6)
        traced_wall += s.wall
        untraced_wall += twin.wall
    metrics["coord.unattributed_ms"] = (
        float(np.mean(unattributed)) if unattributed else 0.0, "ms"
    )
    metrics["trace.coverage"] = (
        _ratio(sum(layer_self.values()), sum(roots.values())), "ratio"
    )
    metrics["trace.overhead"] = (_ratio(traced_wall, untraced_wall), "ratio")
    metrics["trace.spans"] = (len(rec.spans), "count")
    metrics["trace.orphan_spans"] = (rec.orphans(), "count")

    # -- net ----------------------------------------------------------------
    response = sum(s.attrs.get("bytes", 0) for s in rec.spans
                   if s.name == "wire.decode")
    metrics["net.response_bytes"] = (response, "bytes")
    if replay is not None and replay.rpc_s:
        metrics["net.rpc_ms"] = (float(np.mean(replay.rpc_s)) * 1e3, "ms")
        metrics["net.rpc_overhead_ms"] = (
            float(np.mean(replay.overhead_s)) * 1e3, "ms"
        )
        metrics["wire.encode_ms"] = (
            sum(replay.encode_s.values()) * 1e3 / n, "ms"
        )
    else:
        metrics["net.rpc_ms"] = (0.0, "ms")
        metrics["net.rpc_overhead_ms"] = (0.0, "ms")
        metrics["wire.encode_ms"] = (0.0, "ms")

    # -- counts from the deterministic pass ---------------------------------
    total, nodes = IOStats(), IOStats()
    for s in counted.samples:
        total.merge(s.stats)
        nodes.merge(s.node_stats)
    planned = sum(s.afcs for s in counted.samples)
    result_bytes = sum(s.result_bytes for s in counted.samples)
    metrics["planner.afcs"] = (planned, "count")
    metrics["planner.afc_keep_ratio"] = (
        _ratio(planned, len(counted.samples) * full_scan_afcs), "ratio"
    )
    for name in ("bytes_read", "readahead_waste_bytes"):
        metrics[f"extractor.{name}"] = (getattr(nodes, name), "bytes")
    for name in ("read_calls", "seeks", "files_opened", "reads_coalesced",
                 "rows_extracted", "rows_output"):
        metrics[f"extractor.{name}"] = (getattr(nodes, name), "count")
    metrics["extractor.row_yield"] = (
        _ratio(nodes.rows_output, nodes.rows_extracted), "ratio"
    )
    metrics["extractor.bytes_per_result_byte"] = (
        _ratio(nodes.bytes_read, result_bytes), "ratio"
    )
    metrics["filter.rows_vectorized"] = (total.rows_vectorized, "count")
    metrics["agg.rows_aggregated"] = (total.rows_aggregated, "count")
    metrics["agg.groups_emitted"] = (total.groups_emitted, "count")
    metrics["mover.bytes_sent"] = (
        sum(s.transfer_bytes for s in counted.samples), "bytes"
    )
    metrics["cache.rows_refiltered"] = (total.rows_refiltered, "count")

    result = (cache_stats or {}).get("result", {})
    plan = (cache_stats or {}).get("plan", {})
    hits = result.get("hits", 0)
    sub = result.get("subsumption_hits", 0)
    misses = result.get("misses", 0)
    metrics["cache.hits"] = (hits, "count")
    metrics["cache.subsumption_hits"] = (sub, "count")
    metrics["cache.misses"] = (misses, "count")
    metrics["cache.evictions"] = (result.get("evictions", 0), "count")
    metrics["cache.hit_ratio"] = (_ratio(hits + sub, hits + sub + misses),
                                  "ratio")
    plan_hits = plan.get("hits", 0)
    metrics["plan_cache.hit_ratio"] = (
        _ratio(plan_hits, plan_hits + plan.get("misses", 0)), "ratio"
    )

    metrics["sched.wait_p50_ms"] = (
        percentile(sched_waits, 50) if sched_waits else 0.0, "ms"
    )
    metrics["sched.wait_p90_ms"] = (
        percentile(sched_waits, 90) if sched_waits else 0.0, "ms"
    )
    metrics["sched.rejected"] = (
        sched_stats.get("counters", {}).get("sched.rejected", 0), "count"
    )
    metrics["cost.sim_s"] = (sum(s.simulated for s in counted.samples), "s")
    metrics["cost.rank_agreement"] = (rank_agreement(counted.samples),
                                      "ratio")
    return metrics
