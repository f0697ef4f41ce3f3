"""The benchmark's workloads: fixtures, set-up and seeded query streams.

Every dataset comes from the seeded generators in ``repro.datasets``;
``--seed`` varies only the query parameters.  A stream is built from
fixed-composition blocks (so many queries of each kind per block, in a
seeded order), each query drawn from a small seeded pool of that kind:
every run then carries the same mix, only the windows, boxes and
thresholds move, and the reference answers are computed once per
distinct query at set-up.

Why each workload exists:

* ``scan-ipars-local`` -- IPARS layout L0 (one file per variable), larger
  than the 32 MiB per-node segment cache, on two in-process nodes: node
  read, extract and filter do the work, and there is no wire.
* ``subset-titan-tcp`` -- Titan chunks with min/max summaries, on two
  ``repro serve`` processes: planning, index pruning and the wire
  (encode, rpc, decode) do the work.  Sensor and ``DISTANCE()`` filters
  cannot be proven from chunk bounds, so they bypass index pruning.
* ``mixed-ipars-cached`` -- IPARS small enough for the 64 MiB result
  cache, two tenants on two client threads with ``cache_mode="subsume"``:
  the sql front-end, plan and result caches, the scheduler and
  ``core.aggregate`` do the work; extraction does little.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import repro
from repro.bench.workloads import ipars_workload, titan_workload
from repro.core import ExecOptions
from repro.datasets import IparsConfig, TitanConfig, ipars, titan
from repro.index.summaries import build_summaries
from repro.net.procs import ProcessCluster
from repro.storm import VirtualCluster

from .cpu import child_pids

#: Dataset sizes.  ``full`` is what BENCHMARK.json runs; ``tiny`` is for
#: the benchmark's own smoke tests.
SCAN_IPARS = {
    "full": IparsConfig(num_rels=3, num_times=100, cells_per_node=2500,
                        num_nodes=2),
    "tiny": IparsConfig(num_rels=2, num_times=12, cells_per_node=40,
                        num_nodes=2),
}
TITAN = {
    "full": TitanConfig(chunks_x=8, chunks_y=8, chunks_z=4, chunks_t=4,
                        elems_per_chunk=1000, num_nodes=2),
    "tiny": TitanConfig(chunks_x=2, chunks_y=2, chunks_z=2, chunks_t=2,
                        elems_per_chunk=40, num_nodes=2),
}
MIXED_IPARS = {
    "full": IparsConfig(num_rels=4, num_times=50, cells_per_node=1000,
                        num_nodes=2),
    "tiny": IparsConfig(num_rels=2, num_times=10, cells_per_node=40,
                        num_nodes=2),
}

#: Distinct queries per kind in a pool.
POOL_PER_KIND = 8

#: Point lookups of the ``interactive`` tenant per round: about as many
#: as it completes while the ``bulk`` tenant runs its block of 25, so
#: both client threads stay busy for most of a round.
INTERACTIVE_PER_ROUND = 120


@dataclass
class AggSpec:
    """``SELECT REL, COUNT(*), AVG(avg), MAX(max) ... GROUP BY REL``."""

    t_lo: int
    t_hi: int
    avg: str
    max: str

    @property
    def sql(self) -> str:
        return (
            f"SELECT REL, COUNT(*), AVG({self.avg}), MAX({self.max}) "
            f"FROM IparsData WHERE TIME >= {self.t_lo} AND "
            f"TIME <= {self.t_hi} GROUP BY REL"
        )


@dataclass
class Tenant:
    """One closed-loop client: its options and its seeded query stream."""

    name: str
    options: ExecOptions
    #: kind -> distinct queries of that kind.
    pools: Dict[str, List[str]]
    #: kind -> queries of that kind per block.
    block: Dict[str, int]
    #: Aggregate queries of the pools, by SQL text.
    agg_specs: Dict[str, AggSpec] = field(default_factory=dict)

    def queries(self, seed: int) -> Iterator[str]:
        rng = random.Random(f"{seed}:{self.name}:stream")
        kinds = [kind for kind, n in self.block.items() for _ in range(n)]
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                yield rng.choice(self.pools[kind])

    @property
    def per_round(self) -> int:
        """Queries per round of the timed loop: one block."""
        return sum(self.block.values())

    def first(self, seed: int, n: int) -> List[str]:
        stream = self.queries(seed)
        return [next(stream) for _ in range(n)]

    @property
    def distinct(self) -> List[str]:
        return sorted({q for pool in self.pools.values() for q in pool})


@dataclass
class Fixture:
    """The files of one workload, written under ``root``."""

    root: str
    descriptor: str
    config: object
    bytes_written: int
    seconds: float


@dataclass
class Deployment:
    """One set-up: a connected client, and the node processes for tcp."""

    client: object
    cluster: Optional[ProcessCluster] = None
    #: The node server processes, whose CPU time counts as the system's.
    pids: List[int] = field(default_factory=list)

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            if self.cluster is not None:
                self.cluster.terminate()


@dataclass
class Workload:
    name: str
    family: str  # "ipars" or "titan"
    transport: str  # "local" or "tcp"
    configs: Dict[str, object]
    #: Queries per second assumed when sizing the traced run's fixed
    #: number of rounds from ``--seconds``.
    rate_hint: float
    #: (dataset config, seeded rng) -> the workload's tenants.
    make_tenants: Callable[[object, random.Random], List[Tenant]]

    # -- fixture ------------------------------------------------------------

    def write_fixture(self, root: str, scale: str) -> Fixture:
        config = self.configs[scale]
        start = time.perf_counter()
        cluster = VirtualCluster.create(root, config.num_nodes)
        if self.family == "ipars":
            text, written = ipars.generate(config, "L0", cluster.mount())
        else:
            text, written = titan.generate(config, cluster.mount())
        return Fixture(
            root, text, config, written, time.perf_counter() - start
        )

    # -- set-up -------------------------------------------------------------

    def deploy(self, fixture: Fixture, transport: Optional[str] = None):
        """Everything between nothing and the first answerable query."""
        transport = transport or self.transport
        cluster = None
        pids: List[int] = []
        if transport == "tcp":
            others = set(child_pids())
            cluster = ProcessCluster(fixture.descriptor, fixture.root)
            cluster.launch()
            try:
                client = repro.connect(cluster)
            except BaseException:
                cluster.terminate()
                raise
            pids = sorted(set(child_pids()) - others)
        else:
            client = repro.connect(
                "local://" + fixture.root, descriptor=fixture.descriptor
            )
        deployment = Deployment(client, cluster, pids)
        if self.family == "titan":
            try:
                client.service.dataset.summaries = build_summaries(
                    client.service.dataset, mount_of(fixture)
                )
            except BaseException:
                deployment.close()
                raise
        return deployment

    # -- query streams ------------------------------------------------------

    def tenants(self, fixture: Fixture, seed: int) -> List[Tenant]:
        rng = random.Random(f"{seed}:{self.name}:pools")
        return self.make_tenants(fixture.config, rng)


def _scan_tenants(config: IparsConfig, rng: random.Random) -> List[Tenant]:
    return [Tenant("default", ExecOptions(), _fig8_pools(config, rng),
                   {"scan": 1, "window": 5, "soil": 5, "speed": 5,
                    "narrow": 4})]


def _titan_tenants(config: TitanConfig, rng: random.Random) -> List[Tenant]:
    pools = _classified(
        titan_workload(config, 400, seed=rng.randrange(1 << 30)), _titan_kind
    )
    return [Tenant("default", ExecOptions(), pools,
                   {"box": 7, "spacetime": 5, "sensor": 4, "distance": 3,
                    "scan": 1})]


def _mixed_tenants(config: IparsConfig, rng: random.Random) -> List[Tenant]:
    cache = ExecOptions(cache_mode="subsume")
    points = sorted(
        {(rng.randint(1, config.num_times), rng.randrange(config.num_rels))
         for _ in range(64)}
    )
    interactive = Tenant(
        "interactive",
        cache.replace(tenant="interactive", priority=1),
        {"point": [
            f"SELECT X, Y, Z, SOIL FROM IparsData "
            f"WHERE TIME = {t} AND REL = {r}" for t, r in points
        ]},
        {"point": INTERACTIVE_PER_ROUND},
    )
    pools = _classified(
        ipars_workload(config, 400, seed=rng.randrange(1 << 30)), _ipars_kind
    )
    specs = []
    for _ in range(POOL_PER_KIND):
        t_lo = rng.randint(1, config.num_times)
        t_hi = min(config.num_times,
                   t_lo + rng.randint(0, config.num_times // 4))
        specs.append(AggSpec(t_lo, t_hi,
                             rng.choice(("SOIL", "SGAS", "SWAT")),
                             rng.choice(("SOIL", "SGAS", "OILVX"))))
    pools["agg"] = list(dict.fromkeys(spec.sql for spec in specs))
    bulk = Tenant(
        "bulk",
        cache.replace(tenant="bulk"),
        pools,
        {"window": 6, "rel": 3, "filter": 3, "udf": 2, "scan": 1, "agg": 5},
        {spec.sql: spec for spec in specs},
    )
    return [interactive, bulk]


def mount_of(fixture: Fixture):
    return VirtualCluster(
        fixture.root, [f"osu{i}" for i in range(fixture.config.num_nodes)]
    ).mount()


def _fig8_pools(config: IparsConfig, rng: random.Random) -> Dict[str, List[str]]:
    """The Fig. 8 query types with seeded windows and thresholds.

    Positions and thresholds are stratified (one seeded draw in each
    eighth of the range), so every seed covers the range evenly.
    """
    times = config.num_times
    wide = max(3, times // 10)
    narrow = max(2, times // 20)

    def strata(lo: float, hi: float) -> List[float]:
        values = [lo + (hi - lo) * (i + rng.random()) / POOL_PER_KIND
                  for i in range(POOL_PER_KIND)]
        rng.shuffle(values)
        return values

    def windows(width: int) -> List[str]:
        return [
            f"SELECT * FROM IparsData WHERE TIME>{int(lo)} AND "
            f"TIME<{int(lo) + width}"
            for lo in strata(0, times - width + 1)
        ]

    pools: Dict[str, List[str]] = {"scan": ["SELECT * FROM IparsData"]}
    pools["window"] = windows(wide)
    pools["soil"] = [
        f"{sql} AND SOIL>{limit:.2f}"
        for sql, limit in zip(windows(wide), strata(0.5, 0.9))
    ]
    pools["speed"] = [
        f"{sql} AND SPEED(OILVX, OILVY, OILVZ)<{limit:.1f}"
        for sql, limit in zip(windows(wide), strata(10.0, 30.0))
    ]
    pools["narrow"] = windows(narrow)
    return {kind: list(dict.fromkeys(qs)) for kind, qs in pools.items()}


def _classified(queries: List[str], kind_of) -> Dict[str, List[str]]:
    """``POOL_PER_KIND`` distinct queries of each kind, taken at evenly
    spaced quantiles of their size so every seed spans the same range."""
    by_kind: Dict[str, List[str]] = {}
    for sql in dict.fromkeys(queries):
        by_kind.setdefault(kind_of(sql), []).append(sql)
    pools = {}
    for kind, candidates in by_kind.items():
        candidates.sort(key=_size)
        n = len(candidates)
        picks = {int((i + 0.5) * n / POOL_PER_KIND)
                 for i in range(min(n, POOL_PER_KIND))}
        pools[kind] = [candidates[i] for i in sorted(picks)]
    return pools


def _size(sql: str) -> float:
    """How much of the data a generated query selects, up to scale: the
    product of its range widths, else its last literal."""
    where = sql.partition(" WHERE ")[2]
    nums = [float(x) for x in re.findall(r"(?<![A-Z\d.])\d+(?:\.\d+)?",
                                         where)]
    if not nums:
        return 0.0
    if len(nums) % 2:
        return nums[-1]
    size = 1.0
    for lo, hi in zip(nums[::2], nums[1::2]):
        size *= abs(hi - lo) + 1.0
    return size


def _titan_kind(sql: str) -> str:
    if " WHERE " not in sql:
        return "scan"
    if "DISTANCE(" in sql:
        return "distance"
    if "TIME >=" in sql:
        return "spacetime"
    if re.search(r"WHERE S\d <", sql):
        return "sensor"
    return "box"


def _ipars_kind(sql: str) -> str:
    if " WHERE " not in sql:
        return "scan"
    if "REL IN" in sql:
        return "rel"
    if "SPEED(" in sql:
        return "udf"
    if re.search(r"AND (SOIL|SGAS|SWAT) >", sql):
        return "filter"
    return "window"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("scan-ipars-local", "ipars", "local", SCAN_IPARS,
                 rate_hint=10.0, make_tenants=_scan_tenants),
        Workload("subset-titan-tcp", "titan", "tcp", TITAN,
                 rate_hint=20.0, make_tenants=_titan_tenants),
        Workload("mixed-ipars-cached", "ipars", "local", MIXED_IPARS,
                 rate_hint=150.0, make_tenants=_mixed_tenants),
    )
}
