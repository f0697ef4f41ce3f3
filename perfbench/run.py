"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-ipars-local --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the per-layer ledger (spans recorded by the
benchmark around each layer's public functions) and writes the spans as
a Chrome-trace file under ``perfbench/.out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The exit code is 0
only when every answer matched its reference.  Metric definitions are in
``perfbench/GLOSSARY.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is the median of their CPU time.  The
#: first deploys the system under test; the others are spread over the
#: timed loop (between its rounds, outside their timing), because this
#: machine's speed changes from one second to the next.
SETUP_RUNS = {"local": 25, "tcp": 5}


def _bootstrap() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: the repro package is not under {SRC}; run from a "
            "checkout of the repository"
        )
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or all (one after another)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="dataset sizes; tiny is for smoke tests")
    return parser.parse_args(argv)


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def run(name: str, args: argparse.Namespace) -> dict:
    """One run of one workload; returns its result object."""
    from perfbench import measure, verify
    from perfbench.workloads import WORKLOADS, mount_of

    workload = WORKLOADS[name]
    work = BENCH_DIR / ".work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    deployment = None
    try:
        fixture = workload.write_fixture(str(work / "data"), args.scale)
        deployment, cpu = _set_up(workload, fixture)
        setup_cpu = [cpu]
        client = deployment.client

        tenants = workload.tenants(fixture, args.seed)
        start = time.perf_counter()
        refs = verify.build_references(
            workload, fixture, tenants, mount_of(fixture),
            client.service.dataset.summaries,
        )
        checker = verify.Checker(refs)
        problems = []
        if workload.transport == "tcp":
            problems += _cross_check_local(workload, fixture, tenants, refs)
        warm = measure.warm_up(client, tenants, checker)
        reference_s = time.perf_counter() - start

        if args.trace:
            metrics, passes = _traced(args, workload, client, tenants,
                                      checker, fixture)
        else:
            spares = SETUP_RUNS[workload.transport] - 1

            def set_up_spares(elapsed: float) -> None:
                due = min(spares, int(spares * elapsed / args.seconds))
                while len(setup_cpu) <= due:
                    spare = None
                    try:
                        spare, cpu = _set_up(workload, fixture)
                    finally:
                        if spare is not None:
                            spare.close()
                    setup_cpu.append(cpu)

            client.drop_caches()
            timed = measure.closed_loop(
                client, tenants, args.seed, checker, seconds=args.seconds,
                pids=deployment.pids, between_rounds=set_up_spares,
            )
            set_up_spares(args.seconds)
            largest = checker.largest()
            owner = next(t for t in tenants if largest in t.distinct)
            peak = measure.memory_pass(
                client, owner, largest, refs[largest].rows
            )
            if peak is None:
                problems.append(f"query_iter row count wrong for {largest}")
            metrics = measure.end_to_end(timed, setup_cpu, peak)
            passes = [timed]
    finally:
        if deployment is not None:
            deployment.close()
        shutil.rmtree(work, ignore_errors=True)

    samples = [s for p in [warm, *passes] for s in p.samples]
    problems += [f"{s.sql}: {s.error or s.problem}"
                 for s in samples if not s.ok]
    info = {
        "fixture_s": round(fixture.seconds, 3),
        "fixture_mb": round(fixture.bytes_written / 1e6, 1),
        "reference_s": round(reference_s, 3),
        "distinct_queries": len(refs),
    }
    return {
        "correct": not problems,
        "attempted": max(1, len(samples)),
        "failed": len(problems),
        "metrics": metrics,
        "problems": problems,
        "info": info,
    }


def _set_up(workload, fixture):
    """Deploy the system under test; returns it and the CPU seconds that
    took, in this process and in the node processes it started."""
    from perfbench.cpu import cpu_seconds

    start = cpu_seconds()
    deployment = workload.deploy(fixture)
    return deployment, cpu_seconds(deployment.pids) - start


def _cross_check_local(workload, fixture, tenants, refs):
    """tcp and local must give the reference answer to every query."""
    from perfbench.verify import Checker

    checker = Checker(refs)
    local = workload.deploy(fixture, transport="local")
    problems = []
    try:
        for tenant in tenants:
            for sql in tenant.distinct:
                try:
                    table = local.client.submit(sql, tenant.options).table
                except Exception as exc:  # reported as a wrong answer
                    problem = f"{type(exc).__name__}: {exc}"
                else:
                    problem = checker.check(sql, table)
                if problem is not None:
                    problems.append(f"local:// {sql}: {problem}")
    finally:
        local.close()
    return problems


def _traced(args, workload, client, tenants, checker, fixture):
    """The per-layer ledger: counted, untraced and traced passes."""
    from perfbench import measure
    from perfbench.instrument import installed
    from perfbench.spans import Recorder
    from repro.storm import FilteringService, VirtualCluster
    from repro.storm.transport import LocalTransport

    rounds = max(1, math.ceil(workload.rate_hint * args.seconds / 2
                              / sum(t.per_round for t in tenants)))
    count = rounds * max(t.per_round for t in tenants)
    client.drop_caches()
    counted = measure.closed_loop(client, tenants, args.seed, checker,
                                  count=count)
    cache_stats = client.cache_stats()
    passes = [counted]
    if len(tenants) > 1:
        client.drop_caches()
        untraced = measure.closed_loop(client, tenants, args.seed, checker,
                                       rounds=rounds)
        passes.append(untraced)
    else:
        untraced = counted

    rec = Recorder()
    replay = None
    if workload.transport == "tcp":
        storage = client.service.dataset.descriptor.storage
        local = LocalTransport(
            VirtualCluster(fixture.root, storage.nodes), FilteringService()
        )
        replay = measure.RpcReplay(rec, local)
    try:
        with installed(rec, on_rpc=replay.on_rpc if replay else None):
            client.drop_caches()
            rec.active = True
            traced = measure.closed_loop(
                client, tenants, args.seed, checker, rounds=rounds, rec=rec,
                after=replay.after if replay else None,
            )
            rec.active = False
    finally:
        if replay is not None:
            replay.local.close()
    passes.append(traced)

    full_scan = client.service.dataset.plan(
        f"SELECT * FROM {client.service.dataset.descriptor.name}"
    )
    metrics = measure.ledger(
        counted, untraced, traced, rec, len(full_scan.afcs), cache_stats,
        client.sched_stats(), replay,
    )
    out_dir = BENCH_DIR / ".out"
    out_dir.mkdir(exist_ok=True)
    rec.write_chrome_trace(
        str(out_dir / f"trace-{workload.name}-{args.seed}.json")
    )
    return metrics, passes


def report(name: str, result: dict, args: argparse.Namespace) -> None:
    print(f"workload {name} seed {args.seed} "
          f"trace {args.trace} scale {args.scale}")
    for name, value in result["info"].items():
        print(f"  {name:<32} {value}")
    metrics = result["metrics"]
    counts = metrics.pop("_counts", {})
    reported = metrics.pop("_reported", {})
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for name, (value, unit) in reported.items():
        print(f"  {name:<32} {value:>14.6g} {unit} (not gated)")
    for name, value in counts.items():
        print(f"  {name:<32} {value:>14.6g}")
    for problem in result["problems"][:20]:
        print(f"  WRONG: {problem}")
    print(f"  correct {result['correct']}  attempted {result['attempted']}"
          f"  failed {result['failed']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    _bootstrap()
    signal.signal(signal.SIGTERM, _on_sigterm)
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)} or all"
        )
    status = 0
    for name in names:
        result = run(name, args)
        report(name, result, args)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
