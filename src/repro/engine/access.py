"""Unary access methods: sequential scan and index scans.

Each access method returns the result (its row tuples built on first
read, see :meth:`ResultTable.deferred`) *and* the physical work it
performed, plus an :class:`~repro.engine.metrics.AccessInfo`
describing the globally observable facts (operand / intermediate sizes)
that the paper's cost-model variables are built from.

The three methods mirror the access paths behind the paper's unary query
classes: sequential scan (class :math:`G_1`), clustered-index scan, and
non-clustered index scan (:math:`G_2`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .buffer import (
    BufferPool,
    charge_random_pages,
    charge_sequential_pages,
    data_page_of,
)
from .errors import ExecutionError
from .index import Index, IndexKind
from .metrics import AccessInfo, ExecutionMetrics, sort_comparisons_for
from .predicate import KeyRange, Predicate, extract_key_range
from .query import SelectQuery
from .table import ResultTable, Table


@dataclass
class UnaryExecution:
    """Outcome of one unary access method."""

    result: ResultTable
    metrics: ExecutionMetrics
    info: AccessInfo


def _project(table: Table, query: SelectQuery, rows, ids: np.ndarray) -> ResultTable:
    """Apply the query's projection to the matching rows: the entries of
    *rows* at the positions *ids* (a numpy integer array), in that order.

    The result's cardinality is known at once; the projected tuples are
    built on its first :attr:`~ResultTable.rows` read.
    """
    out_cols = query.output_columns(table.schema)
    positions = [table.schema.position(c) for c in out_cols]
    tuple_length = table.schema.projected_tuple_length(out_cols)

    def build() -> list:
        picked = map(rows.__getitem__, ids.tolist())
        # One C-level itemgetter call per row; a single column still
        # yields 1-tuples.
        if len(positions) == 1:
            return [(v,) for v in map(itemgetter(positions[0]), picked)]
        return list(map(itemgetter(*positions), picked))

    return ResultTable.deferred(out_cols, tuple_length, len(ids), build)


def _finalize(
    table: Table, query: SelectQuery, rows, ids: np.ndarray, metrics: ExecutionMetrics
) -> ResultTable:
    """ORDER BY, LIMIT, and projection over the matching rows (the
    entries of *rows* at *ids*, see :func:`_project`).

    Sorting reorders *ids* here and is charged as n·log2(n) comparisons
    on the *matching* set (sorting precedes LIMIT, as in SQL semantics);
    the limit then caps the output-tuple count.
    """
    if query.order_by:
        metrics.sort_comparisons += sort_comparisons_for(len(ids))
        order = ids.tolist()
        for column, ascending in reversed(query.order_by):
            pos = table.schema.position(column)
            order.sort(key=lambda i: rows[i][pos], reverse=not ascending)
        ids = np.array(order, dtype=np.intp)
    if query.limit is not None:
        ids = ids[: query.limit]
    result = _project(table, query, rows, ids)
    metrics.tuples_output = result.cardinality
    return result


def _filter_table(
    table: Table, predicate: Predicate, metrics: ExecutionMetrics
) -> tuple[list, np.ndarray]:
    """Predicate over every row, as ``(rows, ids)`` for :func:`_finalize`:
    the table's row list and the positions of its matches, from a batch
    mask when the predicate has one, a row loop otherwise.

    Charges one predicate evaluation per row either way — the batched
    path does the same logical work, just without the interpreter loop.
    """
    metrics.tuples_evaluated += table.cardinality
    rows = table.rows()
    mask = predicate.evaluate_batch(table)
    if mask is None:
        schema = table.schema
        keep = [i for i, row in enumerate(rows) if predicate.evaluate(row, schema)]
        return rows, np.array(keep, dtype=np.intp)
    return rows, np.flatnonzero(mask)


def seq_scan(
    table: Table, query: SelectQuery, pool: BufferPool | None = None
) -> UnaryExecution:
    """Full sequential scan: read every page, evaluate the full predicate."""
    query.validate(table.schema)
    metrics = ExecutionMetrics()
    charge_sequential_pages(metrics, pool, table.name, table.num_pages)
    metrics.tuples_read = table.cardinality

    rows, ids = _filter_table(table, query.predicate, metrics)
    result = _finalize(table, query, rows, ids, metrics)
    info = AccessInfo(
        method="seq_scan",
        operand_cardinality=table.cardinality,
        # A sequential scan has no sargable reduction: the "intermediate
        # table" equals the operand, per the static method's convention.
        intermediate_cardinality=table.cardinality,
        operand_tuple_length=table.tuple_length,
    )
    return UnaryExecution(result, metrics, info)


def _filter_row_ids(
    table: Table, row_ids: list[int], residual: Predicate, metrics: ExecutionMetrics
) -> tuple[list, np.ndarray]:
    """Residual predicate over the indexed row ids, batched when possible;
    returns ``(rows, ids)`` as :func:`_filter_table` does.

    The batched path evaluates the residual over the *whole* table once
    (columnar views are already materialized) and intersects with the
    fetched ids — per-row work identical, charged per fetched id.
    """
    metrics.tuples_evaluated += len(row_ids)
    rows = table.rows()
    if row_ids:
        mask = residual.evaluate_batch(table)
        if mask is not None:
            ids = np.asarray(row_ids, dtype=np.intp)
            return rows, ids[mask[ids]]
    schema = table.schema
    keep = [rid for rid in row_ids if residual.evaluate(rows[rid], schema)]
    return rows, np.array(keep, dtype=np.intp)


def clustered_index_scan(
    table: Table, index: Index, query: SelectQuery, pool: BufferPool | None = None
) -> UnaryExecution:
    """Range scan through a clustered index.

    Traverses the B+-tree (``height`` random reads), then reads the
    physically contiguous run of qualifying pages sequentially.
    """
    query.validate(table.schema)
    if index.kind is not IndexKind.CLUSTERED:
        raise ExecutionError("clustered_index_scan requires a clustered index")
    key_range, residual = extract_key_range(query.predicate, index.column_name)
    if key_range is None:
        key_range = KeyRange()  # full-range scan via the index
        residual = query.predicate

    row_ids = index.range_lookup(
        key_range.low, key_range.high, key_range.low_inclusive, key_range.high_inclusive
    )
    metrics = ExecutionMetrics()
    if pool is None:
        charge_random_pages(metrics, None, count=index.height)
        fraction = len(row_ids) / table.cardinality if table.cardinality else 0.0
        charge_sequential_pages(
            metrics,
            None,
            table.name,
            table.layout.pages_for_fraction(
                table.cardinality, table.tuple_length, fraction
            ),
        )
    else:
        charge_random_pages(
            metrics, pool, keys=index.traversal_page_keys(key_range.low)
        )
        if row_ids:
            # Clustered rows are physically contiguous: the qualifying
            # pages are exactly the run from the first id's page to the
            # last id's page.
            rows_per_page = table.layout.rows_per_page(table.tuple_length)
            first = data_page_of(row_ids[0], rows_per_page)
            last = data_page_of(row_ids[-1], rows_per_page)
            charge_sequential_pages(
                metrics, pool, table.name, last - first + 1, start_page=first
            )
    metrics.tuples_read = len(row_ids)

    rows, ids = _filter_row_ids(table, row_ids, residual, metrics)
    result = _finalize(table, query, rows, ids, metrics)
    info = AccessInfo(
        method="clustered_index_scan",
        operand_cardinality=table.cardinality,
        intermediate_cardinality=len(row_ids),
        operand_tuple_length=table.tuple_length,
    )
    return UnaryExecution(result, metrics, info)


def nonclustered_index_scan(
    table: Table, index: Index, query: SelectQuery, pool: BufferPool | None = None
) -> UnaryExecution:
    """Index scan through a non-clustered index.

    Each qualifying tuple costs (up to) one random page read; runs of
    index-adjacent tuples that share a page — measured by the clustering
    ratio — amortize their reads.  With a buffer pool the amortization is
    played out concretely: each fetched tuple touches its actual data
    page, and repeat touches hit the cache.
    """
    query.validate(table.schema)
    if index.kind is not IndexKind.NONCLUSTERED:
        raise ExecutionError("nonclustered_index_scan requires a non-clustered index")
    key_range, residual = extract_key_range(query.predicate, index.column_name)
    if key_range is None or not key_range.is_bounded:
        raise ExecutionError(
            "nonclustered_index_scan needs a bounded sargable range on "
            f"{index.column_name}"
        )

    row_ids = index.range_lookup(
        key_range.low, key_range.high, key_range.low_inclusive, key_range.high_inclusive
    )
    metrics = ExecutionMetrics()
    k = len(row_ids)
    rows_per_page = table.layout.rows_per_page(table.tuple_length)
    if pool is None:
        ratio = index.clustering_ratio()
        # Unclustered fraction pays a random read per tuple; clustered runs
        # amortize over rows_per_page.
        tuple_fetch_ios = math.ceil(k * (1.0 - ratio) + k * ratio / rows_per_page)
        charge_random_pages(metrics, None, count=index.height + tuple_fetch_ios)
    else:
        charge_random_pages(
            metrics, pool, keys=index.traversal_page_keys(key_range.low)
        )
        charge_random_pages(
            metrics,
            pool,
            keys=(
                ("T", table.name, data_page_of(rid, rows_per_page))
                for rid in row_ids
            ),
        )
    metrics.tuples_read = k

    rows, ids = _filter_row_ids(table, row_ids, residual, metrics)
    result = _finalize(table, query, rows, ids, metrics)
    info = AccessInfo(
        method="nonclustered_index_scan",
        operand_cardinality=table.cardinality,
        intermediate_cardinality=k,
        operand_tuple_length=table.tuple_length,
    )
    return UnaryExecution(result, metrics, info)


def filter_rows(table: Table, predicate: Predicate) -> list:
    """Row-at-a-time full filter: the fallback for join operands whose
    predicate has no batch mask, and the reference the scans are tested
    against."""
    return [row for row in table if predicate.evaluate(row, table.schema)]
