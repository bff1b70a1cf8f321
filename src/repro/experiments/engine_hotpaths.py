"""Raw-speed bench for the engine's hot paths: scalar vs vectorized,
cold vs warm buffer pool.

The repo's first *microbenchmark* baseline.  Every case runs the same
operation two ways over identical inputs: through the engine's
row-at-a-time functions (``filter_rows``, ``_match_pairs_scalar`` with
``_project_join``'s list-pairs branch, ``EquiDepthHistogram._build_scalar``
— the code the engine falls back to when numpy cannot decide) and
through the engine's own entry point, which takes the numpy-batched
path on these inputs.  The ``temp_table_load`` case compares the
temp-table materialization the engine used to run (``validate_row`` on
every row, then a per-value statistics loop) with ``Table.bulk_load``
plus ``Table.analyze`` on engine-produced rows.  The
``sample_collection`` case times :func:`collect_observations` on the
preset's G1 and G3 training samples against the same loop reading every
executed result's rows, as sampling did before results built their
tuples on first read.  The outputs are asserted equal before any timing
is taken.  A second set of cases replays access paths through a
:class:`~repro.engine.buffer.BufferPool` and reports how physical I/O
collapses between a cold and a warm cache.

Determinism note: like the serving bench, the rendered table contains
only scheduling-independent facts (row counts, result cardinalities,
page ledgers, hit rates).  Wall-clock timings and speedups go to the
JSON payload (``BENCH_engine_hotpaths.json``) and stderr.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ..core.classification import G1, G3
from ..core.probing import default_probing_query
from ..core.sampling import collect_observations
from ..engine.access import filter_rows, seq_scan
from ..engine.buffer import BufferPool
from ..engine.histogram import EquiDepthHistogram
from ..engine.joins import (
    _match_pairs_scalar,
    _project_join,
    hash_join,
    sort_merge_join,
)
from ..engine.predicate import And, Comparison
from ..engine.profiles import ORACLE_LIKE
from ..engine.query import JoinQuery, SelectQuery
from ..engine.schema import Column, TableSchema
from ..engine.table import Table
from ..engine.types import DataType
from ..workload.scenarios import make_site
from .config import ExperimentConfig
from .report import format_table

#: Timing repetitions per path; the minimum is reported (classic
#: best-of-k, robust against scheduler noise).
REPEATS = 3

#: Histogram buckets for the build microbenchmark.
HISTOGRAM_BUCKETS = 32

#: Smallest table scale the sample-collection case runs at (the quick
#: preset's), as the scan and join cases floor their row counts.
SAMPLE_SCALE = 0.02


@dataclass
class HotpathCase:
    """One scalar-vs-vectorized microbenchmark."""

    name: str
    rows: int
    output_cardinality: int
    scalar_seconds: float
    vectorized_seconds: float
    repeats: int = REPEATS

    @property
    def speedup(self) -> float:
        if self.vectorized_seconds <= 0.0:
            return 0.0
        return self.scalar_seconds / self.vectorized_seconds


@dataclass
class BufferCase:
    """One cold-vs-warm buffer-pool replay of an access path."""

    name: str
    logical_reads: int
    cold_physical_reads: int
    warm_physical_reads: int
    warm_hit_rate: float
    hit_state: str


@dataclass
class EngineHotpathsResult:
    scan_rows: int
    join_rows: int
    cases: list[HotpathCase] = field(default_factory=list)
    buffer_cases: list[BufferCase] = field(default_factory=list)

    def case(self, name: str) -> HotpathCase:
        for case in self.cases:
            if case.name == name:
                return case
        raise KeyError(name)

    def buffer_case(self, name: str) -> BufferCase:
        for case in self.buffer_cases:
            if case.name == name:
                return case
        raise KeyError(name)


def _scan_table(rows: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    table = Table(
        TableSchema(
            "H",
            [
                Column("a", DataType.INT),
                Column("b", DataType.INT),
                Column("c", DataType.FLOAT),
            ],
        )
    )
    table.bulk_load(
        zip(
            (int(v) for v in rng.integers(0, 10_000, rows)),
            (int(v) for v in rng.integers(0, 100, rows)),
            (float(v) for v in rng.random(rows)),
        )
    )
    table.analyze()
    return table


def _join_table(name: str, rows: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    table = Table(
        TableSchema(
            name, [Column("k", DataType.INT), Column("v", DataType.INT)]
        )
    )
    # ~4 matches per key on average keeps the pair count linear in rows.
    table.bulk_load(
        zip(
            (int(v) for v in rng.integers(0, max(1, rows // 2), rows)),
            (int(v) for v in rng.integers(0, 1_000_000, rows)),
        )
    )
    table.analyze()
    return table


def _equal(scalar_out, vector_out) -> bool:
    return vector_out == scalar_out


def _time_paths(scalar, vectorized, same) -> tuple[float, float, object]:
    """Best-of-:data:`REPEATS` seconds for (scalar, vectorized) runs,
    plus the vectorized result.

    One untimed run of each comes first, and ``same(scalar_out,
    vectorized_out)`` must hold before either path is timed.
    """
    vector_result = vectorized()
    if not same(scalar(), vector_result):
        raise AssertionError("scalar and vectorized outputs differ")

    def best(operation) -> float:
        seconds = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            operation()
            seconds = min(seconds, time.perf_counter() - started)
        return seconds

    return best(scalar), best(vectorized), vector_result


def _project_all(table: Table, query: SelectQuery, rows: list) -> list:
    """The scan's projection over every row of *rows* (the reference
    side's :func:`filter_rows` matches), built at once with one
    ``itemgetter`` call per row, as the engine's scans projected their
    matches before results built their tuples on first read."""
    positions = [table.schema.position(c) for c in query.output_columns(table.schema)]
    if len(positions) == 1:
        return [(v,) for v in map(itemgetter(positions[0]), rows)]
    return list(map(itemgetter(*positions), rows))


def _scalar_join(left: Table, right: Table, query: JoinQuery) -> list:
    """The engine's row-at-a-time join: hash-bucket matching and the
    list-pairs projection.  The bench query has no local selections, so
    both operands enter matching whole, as ``_reduce_operand`` passes
    them."""
    pairs = _match_pairs_scalar(
        left.rows(),
        right.rows(),
        left.schema.position(query.left_column),
        right.schema.position(query.right_column),
    )
    return _project_join(left, right, query, pairs).rows


def _collect_reading_rows(database, queries, probe) -> list:
    """:func:`collect_observations` with every executed result's rows
    read (the probe's too), as sampling ran when the engine built each
    result's tuples in ``execute``."""
    execute = database.execute

    def execute_and_read(query):
        executed = execute(query)
        executed.result.rows
        return executed

    database.execute = execute_and_read
    try:
        return collect_observations(database, queries, probe)
    finally:
        del database.execute


def _loop_statistics(values) -> tuple:
    """Column statistics by the per-value loop ``ColumnStatistics``
    ran before it used the ``min``/``max``/``set`` builtins."""
    minimum = None
    maximum = None
    distinct = set()
    for v in values:
        if minimum is None or v < minimum:
            minimum = v
        if maximum is None or v > maximum:
            maximum = v
        distinct.add(v)
    return minimum, maximum, len(distinct)


def _row_by_row_materialize(schema: TableSchema, rows) -> tuple[list, dict]:
    """Temp-table materialization as it ran before column-wise type
    checks: ``validate_row`` on every row, then the per-value loop."""
    loaded = [schema.validate_row(row) for row in rows]
    stats = {
        col.name: _loop_statistics(r[i] for r in loaded)
        for i, col in enumerate(schema.columns)
    }
    return loaded, stats


def _column_wise_materialize(schema: TableSchema, rows) -> tuple[list, dict]:
    """Temp-table materialization through the engine: ``bulk_load``
    then ``analyze``."""
    table = Table(schema)
    table.bulk_load(rows)
    stats = {
        name: (cs.minimum, cs.maximum, cs.distinct_count)
        for name, cs in table.analyze().columns.items()
    }
    return table.rows(), stats


def run_engine_hotpaths(
    config: ExperimentConfig | None = None,
    scan_rows: int | None = None,
    join_rows: int | None = None,
) -> EngineHotpathsResult:
    """Run every microbenchmark; sizes scale with the preset unless given."""
    config = config or ExperimentConfig()
    if scan_rows is None:
        scan_rows = max(2_000, int(6_000_000 * config.scale))
    if join_rows is None:
        join_rows = max(1_000, int(1_200_000 * config.scale))
    result = EngineHotpathsResult(scan_rows=scan_rows, join_rows=join_rows)

    # -- seq scan: predicate evaluation over every row -------------------
    scan_table = _scan_table(scan_rows, seed=config.seed + 11)
    scan_query = SelectQuery(
        "H",
        ("a", "b"),
        And(Comparison("a", "<", 5_000), Comparison("b", ">=", 10)),
    )
    # Both paths read the result's rows, so the timing covers the
    # projection as well as the predicate.
    s, v, scan_out = _time_paths(
        lambda: _project_all(
            scan_table, scan_query, filter_rows(scan_table, scan_query.predicate)
        ),
        lambda: seq_scan(scan_table, scan_query).result.rows,
        _equal,
    )
    result.cases.append(HotpathCase("seq_scan", scan_rows, len(scan_out), s, v))

    # -- joins: operand reduction + equi-key matching --------------------
    left = _join_table("L", join_rows, seed=config.seed + 21)
    right = _join_table("R", join_rows, seed=config.seed + 22)
    join_query = JoinQuery("L", "R", "k", "k", ("L.v", "R.v"))
    for name, method in (("hash_join", hash_join), ("sort_merge_join", sort_merge_join)):
        s, v, join_out = _time_paths(
            lambda: _scalar_join(left, right, join_query),
            lambda method=method: method(left, right, join_query).result.rows,
            _equal,
        )
        result.cases.append(HotpathCase(name, 2 * join_rows, len(join_out), s, v))

    # -- histogram build: duplicate-run scanning -------------------------
    values = scan_table.column_values("a")
    s, v, histogram = _time_paths(
        lambda: EquiDepthHistogram._build_scalar(values, HISTOGRAM_BUCKETS),
        lambda: EquiDepthHistogram.build(values, HISTOGRAM_BUCKETS),
        _equal,
    )
    result.cases.append(
        HotpathCase("histogram_build", scan_rows, histogram.num_buckets, s, v)
    )

    # -- temp-table load: engine-produced rows into a fresh table --------
    produced = seq_scan(
        scan_table, SelectQuery("H", ("a", "b", "c"), scan_query.predicate)
    ).result.rows
    temp_schema = TableSchema("T", scan_table.schema.columns)
    s, v, (loaded, _) = _time_paths(
        lambda: _row_by_row_materialize(temp_schema, produced),
        lambda: _column_wise_materialize(temp_schema, produced),
        _equal,
    )
    result.cases.append(
        HotpathCase("temp_table_load", len(produced), len(loaded), s, v)
    )

    # -- sample collection: sampled queries paired with probes ----------
    site = make_site(
        "S",
        profile=ORACLE_LIKE,
        scale=max(SAMPLE_SCALE, config.scale),
        seed=config.seed + 31,
    )
    database = site.database
    samples = site.generator.queries_for(
        G1, config.train_count("unary")
    ) + site.generator.queries_for(
        G3, config.train_count("join"), tables=config.join_tables
    )
    probe = default_probing_query(database)
    start = database.save_state()

    def from_start(collect):
        # Every run replays the same simulated clock and noise draws.
        database.restore_state(start)
        return collect(database, samples, probe)

    s, v, observations = _time_paths(
        lambda: from_start(_collect_reading_rows),
        lambda: from_start(collect_observations),
        _equal,
    )
    result.cases.append(
        HotpathCase("sample_collection", len(samples), len(observations), s, v)
    )

    # -- buffer pool: physical I/O cold vs warm --------------------------
    pool = BufferPool(capacity_pages=max(64, 2 * scan_table.num_pages))
    cold = seq_scan(scan_table, scan_query, pool)
    warm = seq_scan(scan_table, scan_query, pool)
    assert warm.result.rows == cold.result.rows
    result.buffer_cases.append(
        BufferCase(
            "seq_scan",
            logical_reads=warm.metrics.logical_page_reads,
            cold_physical_reads=cold.metrics.total_page_reads,
            warm_physical_reads=warm.metrics.total_page_reads,
            warm_hit_rate=warm.metrics.buffer_hit_rate,
            hit_state=pool.hit_state(),
        )
    )
    join_pool = BufferPool(
        capacity_pages=max(64, 2 * (left.num_pages + right.num_pages))
    )
    cold_join = hash_join(left, right, join_query, join_pool)
    warm_join = hash_join(left, right, join_query, join_pool)
    result.buffer_cases.append(
        BufferCase(
            "hash_join",
            logical_reads=warm_join.metrics.logical_page_reads,
            cold_physical_reads=cold_join.metrics.total_page_reads,
            warm_physical_reads=warm_join.metrics.total_page_reads,
            warm_hit_rate=warm_join.metrics.buffer_hit_rate,
            hit_state=join_pool.hit_state(),
        )
    )
    return result


def render_engine_hotpaths(result: EngineHotpathsResult) -> str:
    """Byte-stable tables: input/output sizes and the page ledgers."""
    case_rows = [
        (case.name, case.rows, case.output_cardinality) for case in result.cases
    ]
    lines = [
        format_table(
            ["case", "input rows", "output"],
            case_rows,
            title=(
                "Engine hot paths: scalar and vectorized produce identical "
                "results on every case"
            ),
        ),
        "",
        format_table(
            ["access path", "logical reads", "cold physical", "warm physical",
             "warm hit rate", "state"],
            [
                (
                    case.name,
                    case.logical_reads,
                    case.cold_physical_reads,
                    case.warm_physical_reads,
                    case.warm_hit_rate,
                    case.hit_state,
                )
                for case in result.buffer_cases
            ],
            title="Buffer pool: physical I/O, cold vs warm",
        ),
    ]
    return "\n".join(lines)


def render_engine_timings(result: EngineHotpathsResult) -> str:
    """The wall-clock side (diagnostics; NOT byte-stable across runs)."""
    lines = [
        f"{case.name}: scalar {case.scalar_seconds * 1e3:.1f}ms  "
        f"vectorized {case.vectorized_seconds * 1e3:.1f}ms  "
        f"speedup {case.speedup:.2f}x"
        for case in result.cases
    ]
    return "\n".join(lines)


def engine_hotpaths_payload(result: EngineHotpathsResult) -> dict:
    """The ``BENCH_engine_hotpaths.json`` payload (see EXPERIMENTS.md)."""
    return {
        "bench": "engine_hotpaths",
        "schema_version": 1,
        "scan_rows": result.scan_rows,
        "join_rows": result.join_rows,
        "repeats": REPEATS,
        "cases": [
            {
                "name": case.name,
                "rows": case.rows,
                "output_cardinality": case.output_cardinality,
                "scalar_seconds": case.scalar_seconds,
                "vectorized_seconds": case.vectorized_seconds,
                "speedup": case.speedup,
            }
            for case in result.cases
        ],
        "buffer": [
            {
                "name": case.name,
                "logical_reads": case.logical_reads,
                "cold_physical_reads": case.cold_physical_reads,
                "warm_physical_reads": case.warm_physical_reads,
                "warm_hit_rate": case.warm_hit_rate,
                "hit_state": case.hit_state,
            }
            for case in result.buffer_cases
        ],
    }
