"""Serving-throughput bench: the cached front end vs serial serving.

The first *throughput* baseline of the repo: how many global queries per
second the :class:`~repro.serving.frontend.ServingFrontEnd` sustains on
a repeated-class workload, against the serial reference (no plan cache,
probe-per-optimization).

Levels share one trained universe: models are derived once, exported
through the registry payload, and imported into a *fresh* identically
seeded pair of sites per level — every level therefore serves the same
queries against the same data from the same initial state, and differs
only in serving configuration:

* ``serial`` — workers=1, plan cache off, probe TTL 0: byte-identical
  to calling ``MDBSServer.execute`` in a loop (the pre-serving repo);
* ``pool-N`` — N simulated service slots, plan cache on, probes cached:
  repeats are served from the plan cache, skipping the optimizer and
  the probing queries entirely.

Requests always execute one at a time, so the cached levels' win over
``serial`` is the work the cache *removes* — per-request optimization
and probing — and ``pool-N`` levels differ only in simulated queueing
(their latency percentiles).  The bench reports both the throughput
ratio and the probe/optimizer work avoided, so the mechanism is visible
in the output.

Determinism note: rendered output contains only deterministic facts
(request counts, cache hit rates, join-site choices, probes executed).
QPS is a wall-clock measurement and latency percentiles are simulated
seconds; both are returned in the result/JSON payload and printed to
stderr by ``__main__`` — stdout stays byte-identical across runs, which
the CI pool smoke relies on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.builder import CostModelBuilder
from ..core.classification import G1, G3
from ..engine.predicate import Comparison
from ..engine.profiles import DB2_LIKE, ORACLE_LIKE
from ..mdbs.agent import MDBSAgent
from ..mdbs.gquery import GlobalJoinQuery
from ..mdbs.server import MDBSServer
from ..serving import ServingConfig, ServingFrontEnd
from ..workload.scenarios import make_two_site_universe
from .config import ExperimentConfig
from .report import format_table

#: Effectively-infinite probe TTL for cached levels: one probing query
#: per site per level, shared by every request (simulated seconds).
PINNED_PROBE_TTL = 1e9

TABLES = ["R1", "R2", "R3", "R4"]


@dataclass(frozen=True)
class ServingLevel:
    """One rung of the concurrency ladder."""

    name: str
    workers: int
    plan_cache: bool
    probe_ttl: float


#: The ladder: the serial reference, then cached pools of 1/2/4/8.
LEVELS: tuple[ServingLevel, ...] = (
    ServingLevel("serial", 1, False, 0.0),
    ServingLevel("pool-1", 1, True, PINNED_PROBE_TTL),
    ServingLevel("pool-2", 2, True, PINNED_PROBE_TTL),
    ServingLevel("pool-4", 4, True, PINNED_PROBE_TTL),
    ServingLevel("pool-8", 8, True, PINNED_PROBE_TTL),
)


@dataclass
class LevelResult:
    """Outcome of one level's run over the shared workload."""

    level: ServingLevel
    requests: int
    completed: int
    dropped: int
    plan_cache_hits: int
    plan_cache_misses: int
    probes_executed: int
    #: join_site ("left"/"right") -> times chosen over the timed stream.
    join_sites: dict[str, int]
    wall_seconds: float
    qps: float
    #: Simulated seconds from arrival to completion.
    latency_p50: float
    latency_p95: float
    latency_p99: float

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0


@dataclass
class ServingThroughputResult:
    requests: int
    distinct_queries: int
    levels: list[LevelResult] = field(default_factory=list)

    def level(self, name: str) -> LevelResult:
        for result in self.levels:
            if result.level.name == name:
                return result
        raise KeyError(name)

    @property
    def baseline_qps(self) -> float:
        return self.level("serial").qps

    def speedup(self, name: str) -> float:
        base = self.baseline_qps
        return self.level(name).qps / base if base > 0 else 0.0


def _make_workload(config: ExperimentConfig, distinct: int) -> list[GlobalJoinQuery]:
    """*distinct* structurally different cross-site joins, seeded."""
    rng = np.random.default_rng(config.seed + 55)
    queries = []
    for i in range(distinct):
        left_table = TABLES[i % len(TABLES)]
        remaining = [t for t in TABLES if t != left_table]
        right_table = remaining[int(rng.integers(0, len(remaining)))]
        sides = (("site_a", left_table), ("site_b", right_table))
        if i % 2:
            sides = (sides[1], sides[0])
        (left_site, left_table), (right_site, right_table) = sides
        queries.append(
            GlobalJoinQuery(
                left_site,
                left_table,
                right_site,
                right_table,
                "a4",
                "a4",
                (f"{left_table}.a1", f"{right_table}.a2"),
                left_predicate=Comparison("a3", "<", int(rng.integers(300, 900))),
                right_predicate=Comparison("a7", "<", int(rng.integers(20000, 45000))),
            )
        )
    return queries


def _train_models(config: ExperimentConfig) -> dict:
    """Derive G1/G3 models at both sites once; return a registry payload."""
    server = MDBSServer()
    for site in _make_sites(config):
        server.register_agent(MDBSAgent(site.database))
        builder = CostModelBuilder(site.database, config=config.builder)
        for query_class, count in ((G1, config.unary_train), (G3, config.unary_train)):
            queries = site.generator.queries_for(query_class, count, tables=TABLES)
            outcome = builder.build(query_class, queries, algorithm="iupma")
            server.store_cost_model(site.name, outcome.model)
    return server.catalog.export_models()


def _make_sites(config: ExperimentConfig):
    """A fresh, identically seeded pair of sites (one per call site)."""
    return make_two_site_universe(
        names=("site_a", "site_b"),
        profiles=(ORACLE_LIKE, DB2_LIKE),
        seeds=(config.seed + 81, config.seed + 82),
        scale=config.scale,
    )


def _run_level(
    level: ServingLevel,
    config: ExperimentConfig,
    payload: dict,
    workload: list[GlobalJoinQuery],
    requests: int,
) -> LevelResult:
    """Run one level in a fresh universe seeded like every other level."""
    server = MDBSServer(probe_ttl=level.probe_ttl)
    for site in _make_sites(config):
        server.register_agent(MDBSAgent(site.database))
    server.catalog.import_models(payload)

    serving_config = ServingConfig(
        workers=level.workers,
        queue_depth=max(64, requests),
        admission_policy="block",
        plan_cache=level.plan_cache,
    )
    stream = [workload[i % len(workload)] for i in range(requests)]
    with ServingFrontEnd(server, serving_config) as frontend:
        # Untimed warm-up: serve each distinct query once, so the timed
        # stream below runs all plan-cache hits on cached levels.
        frontend.serve(workload)
        warm = frontend.stats()
        started = time.perf_counter()
        tickets = frontend.serve(stream)
        wall = time.perf_counter() - started
        stats = frontend.stats()

    completed = stats.completed - warm.completed
    latencies = sorted(
        t.latency_seconds for t in tickets if t.latency_seconds is not None
    )
    join_sites: dict[str, int] = {}
    for ticket in tickets:
        if ticket.execution is not None:
            site = ticket.execution.plan.join_site
            join_sites[site] = join_sites.get(site, 0) + 1

    def pct(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return LevelResult(
        level=level,
        requests=requests,
        completed=completed,
        dropped=stats.dropped,
        plan_cache_hits=stats.plan_cache_hits,
        plan_cache_misses=stats.plan_cache_misses,
        probes_executed=sum(server.probing.probes_executed.values()),
        join_sites=join_sites,
        wall_seconds=wall,
        qps=completed / wall if wall > 0 else 0.0,
        latency_p50=pct(0.50),
        latency_p95=pct(0.95),
        latency_p99=pct(0.99),
    )


def run_serving_throughput(
    config: ExperimentConfig | None = None,
    requests: int = 192,
    distinct: int = 6,
    levels: tuple[ServingLevel, ...] = LEVELS,
) -> ServingThroughputResult:
    """Train once, then run every level over the identical workload."""
    config = config or ExperimentConfig()
    payload = _train_models(config)
    workload = _make_workload(config, distinct)
    result = ServingThroughputResult(requests=requests, distinct_queries=distinct)
    for level in levels:
        result.levels.append(
            _run_level(level, config, payload, workload, requests)
        )
    return result


def render_serving_throughput(result: ServingThroughputResult) -> str:
    """Deterministic table: counts and rates only (no seconds).

    QPS is a wall-clock measurement and varies run to run; it and the
    simulated latency percentiles live in
    :func:`serving_throughput_payload` and stderr.
    """
    headers = [
        "level",
        "workers",
        "plan cache",
        "completed",
        "dropped",
        "cache hit rate",
        "probes executed",
        "join sites",
    ]
    rows = []
    for level_result in result.levels:
        level = level_result.level
        sites = ", ".join(
            f"{site}:{count}"
            for site, count in sorted(level_result.join_sites.items())
        )
        rows.append(
            (
                level.name,
                level.workers,
                "on" if level.plan_cache else "off",
                level_result.completed,
                level_result.dropped,
                level_result.plan_cache_hit_rate,
                level_result.probes_executed,
                sites,
            )
        )
    return format_table(
        headers,
        rows,
        title=(
            f"Serving throughput ladder: {result.requests} requests over "
            f"{result.distinct_queries} repeated global joins"
        ),
    )


def render_serving_timings(result: ServingThroughputResult) -> str:
    """QPS (wall clock; NOT byte-stable across runs) and simulated
    latency percentiles."""
    lines = [
        f"{r.level.name}: {r.qps:.1f} qps  wall {r.wall_seconds:.2f}s  "
        f"simulated p50 {r.latency_p50:.2f}s  p95 {r.latency_p95:.2f}s  "
        f"p99 {r.latency_p99:.2f}s"
        for r in result.levels
    ]
    lines.append(
        f"speedup pool-8 vs serial: {result.speedup('pool-8'):.2f}x"
    )
    return "\n".join(lines)


def serving_throughput_payload(result: ServingThroughputResult) -> dict:
    """The ``BENCH_serving_throughput.json`` payload (see EXPERIMENTS.md)."""
    return {
        "bench": "serving_throughput",
        "schema_version": 1,
        "requests": result.requests,
        "distinct_queries": result.distinct_queries,
        "baseline_qps": result.baseline_qps,
        "levels": [
            {
                "name": r.level.name,
                "workers": r.level.workers,
                "plan_cache": r.level.plan_cache,
                "probe_ttl": r.level.probe_ttl,
                "requests": r.requests,
                "completed": r.completed,
                "dropped": r.dropped,
                "qps": r.qps,
                "wall_seconds": r.wall_seconds,
                "latency_p50_seconds": r.latency_p50,
                "latency_p95_seconds": r.latency_p95,
                "latency_p99_seconds": r.latency_p99,
                "plan_cache_hit_rate": r.plan_cache_hit_rate,
                "plan_cache_hits": r.plan_cache_hits,
                "plan_cache_misses": r.plan_cache_misses,
                "probes_executed": r.probes_executed,
                "speedup_vs_serial": result.speedup(r.level.name),
            }
            for r in result.levels
        ],
    }
