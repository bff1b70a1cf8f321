"""Join methods: block nested-loop, index nested-loop, sort-merge, hash.

Every method produces the identical (bag-equivalent) result; they differ
in the physical work they report, which is what drives the simulated
elapsed times the cost models are trained on.  To keep large joins fast
in pure Python, the actual matching always uses a hash table internally —
the *metrics* are what model each algorithm, and correctness tests verify
all methods agree with a naive reference join.

Per the paper's Table 3, each operand's *intermediate table* is the
operand reduced by its local selection; join variables include both
intermediate cardinalities and the size of their Cartesian product.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

import numpy as np

from .access import filter_rows
from .buffer import (
    BufferPool,
    charge_random_pages,
    charge_sequential_pages,
    data_page_of,
)
from .errors import ExecutionError
from .index import Index, IndexKind
from .metrics import AccessInfo, ExecutionMetrics, sort_comparisons_for
from .predicate import TRUE
from .query import JoinQuery
from .table import ResultTable, Table

#: Buffer pages available to a block nested-loop join.
NLJ_BUFFER_PAGES = 64


@dataclass
class JoinExecution:
    """Outcome of one join method."""

    result: ResultTable
    metrics: ExecutionMetrics
    left_info: AccessInfo
    right_info: AccessInfo
    method: str


_sort_comparisons = sort_comparisons_for


def _reduce_operand(
    table: Table,
    predicate,
    metrics: ExecutionMetrics,
    pool: BufferPool | None = None,
) -> list:
    """Apply a local selection by scanning the operand, charging the work."""
    charge_sequential_pages(metrics, pool, table.name, table.num_pages)
    metrics.tuples_read += table.cardinality
    metrics.tuples_evaluated += table.cardinality
    if predicate is TRUE:
        # No local selection: the intermediate IS the operand.  Return
        # the table's own row list so downstream projection can detect
        # the identity and gather straight from cached column arrays.
        reduced = table.rows()
    else:
        mask = predicate.evaluate_batch(table)
        if mask is None:
            reduced = filter_rows(table, predicate)
        else:
            reduced = list(compress(table.rows(), mask.tolist()))
    metrics.intermediate_tuples += len(reduced)
    return reduced


def _match_pairs_scalar(left_rows, right_rows, lpos: int, rpos: int):
    """Row-at-a-time pair matching: hash buckets over the right rows."""
    buckets: dict = defaultdict(list)
    for row in right_rows:
        buckets[row[rpos]].append(row)
    pairs = []
    for lrow in left_rows:
        for rrow in buckets.get(lrow[lpos], ()):
            pairs.append((lrow, rrow))
    return pairs


class _MatchedPairs:
    """Join matches kept as parallel index lists (the columnar fast path).

    Quacks like the scalar matcher's list of ``(left_row, right_row)``
    pairs — same length, order, iteration, and equality — while letting
    :func:`_project_join` gather output columns by numpy fancy index
    (or C-level ``map``) instead of one generator-driven ``tuple()``
    call per pair.  Index arrays stay numpy; the Python-list mirrors
    materialize lazily for iteration.
    """

    __slots__ = (
        "left_rows",
        "right_rows",
        "left_idx_array",
        "right_idx_array",
        "_left_idx",
        "_right_idx",
    )

    def __init__(self, left_rows, right_rows, left_idx_array, right_idx_array):
        self.left_rows = left_rows
        self.right_rows = right_rows
        self.left_idx_array = left_idx_array
        self.right_idx_array = right_idx_array
        self._left_idx = None
        self._right_idx = None

    @property
    def left_idx(self) -> list:
        if self._left_idx is None:
            self._left_idx = self.left_idx_array.tolist()
        return self._left_idx

    @property
    def right_idx(self) -> list:
        if self._right_idx is None:
            self._right_idx = self.right_idx_array.tolist()
        return self._right_idx

    def __len__(self) -> int:
        return len(self.left_idx_array)

    def __iter__(self):
        lrows, rrows = self.left_rows, self.right_rows
        return (
            (lrows[i], rrows[j]) for i, j in zip(self.left_idx, self.right_idx)
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, _MatchedPairs)):
            return list(self) == list(other)
        return NotImplemented


#: Python type every key must have for a float or string key array to
#: compare exactly as Python does: ``np.array`` silently widens ints
#: mixed into floats (exact only below 2**53) and stringifies numbers
#: mixed into strings.  Int arrays hold only ints (and bools), so they
#: need no scan.
_EXACT_KEY_TYPE = {"f": float, "U": str}


def _key_array(rows, pos: int):
    """Join keys as a numpy array, or None when numpy equality on it
    could differ from Python's ``==`` (and hashing) on the keys."""
    keys = [r[pos] for r in rows]
    try:
        array = np.array(keys)
    except (OverflowError, ValueError):
        # e.g. integers beyond int64 — scalar hashing handles those.
        return None
    kind = array.dtype.kind
    if kind in "iu":
        return array
    exact = _EXACT_KEY_TYPE.get(kind)
    if exact is None or set(map(type, keys)) != {exact}:
        return None
    if kind == "f" and np.isnan(array).any():
        # Python matches a NaN key only to the very same object; numpy's
        # sorted search would match every NaN to every NaN.
        return None
    return array


def _match_pairs_vectorized(left_rows, right_rows, lpos: int, rpos: int):
    """numpy pair matching, or None when the keys don't allow it.

    Both sides must give a key array of the same kind — int keys against
    float keys would compare in float64, which merges ints above 2**53
    that Python keeps apart.  A stable argsort of the right keys plus
    two ``searchsorted`` calls yields, for every left row, the right
    matches in right-scan order — the exact pair order
    :func:`_match_pairs_scalar` produces (left-row major, right-scan
    order within a key).
    """
    lkeys = _key_array(left_rows, lpos)
    if lkeys is None:
        return None
    rkeys = _key_array(right_rows, rpos)
    if rkeys is None or rkeys.dtype.kind != lkeys.dtype.kind:
        return None
    order = np.argsort(rkeys, kind="stable")
    rsorted = rkeys[order]
    starts = np.searchsorted(rsorted, lkeys, side="left")
    ends = np.searchsorted(rsorted, lkeys, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return _MatchedPairs(left_rows, right_rows, empty, empty)
    left_idx = np.repeat(np.arange(len(left_rows)), counts)
    # Concatenated ranges starts[i]..ends[i]: position within each
    # segment plus the segment's start.
    segment_firsts = np.cumsum(counts) - counts
    offsets = np.arange(total) - np.repeat(segment_firsts, counts)
    right_idx = order[np.repeat(starts, counts) + offsets]
    return _MatchedPairs(left_rows, right_rows, left_idx, right_idx)


def _match_pairs(left_rows, right_rows, lpos: int, rpos: int):
    """All (left, right) pairs with equal join keys.

    Uses the numpy matcher when both sides have rows and their keys
    compare under numpy exactly as under Python, and
    :func:`_match_pairs_scalar` otherwise; the two produce pairs in the
    same order.
    """
    if left_rows and right_rows:
        pairs = _match_pairs_vectorized(left_rows, right_rows, lpos, rpos)
        if pairs is not None:
            return pairs
    return _match_pairs_scalar(left_rows, right_rows, lpos, rpos)


def _project_join(
    left: Table, right: Table, query: JoinQuery, pairs
) -> ResultTable:
    """Project matched row pairs onto the query's qualified output columns.

    The result's cardinality is ``len(pairs)``; its tuples are built on
    the first :attr:`~ResultTable.rows` read, from the pairs and from
    the column arrays chosen here.
    """
    out_cols = query.output_columns(left.schema, right.schema)
    extractors = []
    tuple_length = 0
    for qualified in out_cols:
        tname, _, cname = qualified.partition(".")
        if tname == query.left:
            pos = left.schema.position(cname)
            extractors.append(("l", pos, cname))
            tuple_length += left.schema.column(cname).width
        else:
            pos = right.schema.position(cname)
            extractors.append(("r", pos, cname))
            tuple_length += right.schema.column(cname).width
    if isinstance(pairs, _MatchedPairs) and len(pairs):
        # Columnar projection: build one output column at a time and let
        # zip assemble the row tuples.  When a side's matched rows ARE
        # the table's own rows (no local selection reduced them), gather
        # the column by numpy fancy index from the table's column array
        # if it is already cached, or if the projection takes at least
        # as many values as the table has rows (building the array is
        # one pass over the table, then cached for later joins).
        # Otherwise — e.g. a fresh temp table projecting a few matches —
        # use a fused C-level map over the index list, which shares the
        # row's value objects.  Both produce equal Python values
        # (int64/float64/unicode round-trip exactly).  The arrays are
        # chosen now, so later changes to the tables cannot reach the
        # result.
        sources = []
        for side, pos, cname in extractors:
            table_, rows_, idx_array = (
                (left, pairs.left_rows, pairs.left_idx_array)
                if side == "l"
                else (right, pairs.right_rows, pairs.right_idx_array)
            )
            array = None
            if rows_ is table_.rows():
                array = table_.cached_column_array(cname)
                if array is None and len(idx_array) >= len(rows_):
                    array = table_.column_array(cname)
                if array is not None and array.dtype.kind not in "iufU":
                    array = None
            sources.append((side, pos, array))

        def build() -> list:
            columns = []
            for side, pos, array in sources:
                if side == "l":
                    rows_, idx_array = pairs.left_rows, pairs.left_idx_array
                else:
                    rows_, idx_array = pairs.right_rows, pairs.right_idx_array
                if array is not None:
                    columns.append(array[idx_array].tolist())
                    continue
                idx = pairs.left_idx if side == "l" else pairs.right_idx
                columns.append(
                    list(map(itemgetter(pos), map(rows_.__getitem__, idx)))
                )
            return list(zip(*columns))

    else:

        def build() -> list:
            return [
                tuple(lrow[p] if side == "l" else rrow[p] for side, p, _ in extractors)
                for lrow, rrow in pairs
            ]

    return ResultTable.deferred(out_cols, tuple_length, len(pairs), build)


def _operand_info(
    table: Table, intermediate: int, method: str
) -> AccessInfo:
    return AccessInfo(
        method=method,
        operand_cardinality=table.cardinality,
        intermediate_cardinality=intermediate,
        operand_tuple_length=table.tuple_length,
    )


def nested_loop_join(
    left: Table,
    right: Table,
    query: JoinQuery,
    pool: BufferPool | None = None,
) -> JoinExecution:
    """Block nested-loop join over the reduced operands.

    The smaller intermediate is the outer; the inner is rescanned once per
    outer block of :data:`NLJ_BUFFER_PAGES` pages.  Every pair of
    intermediate tuples is charged a predicate evaluation.  With a buffer
    pool, the inner rescans replay the inner table's pages through the
    cache, so an inner relation that fits in the pool is read from disk
    only once.
    """
    query.validate(left.schema, right.schema)
    metrics = ExecutionMetrics()
    li = _reduce_operand(left, query.left_predicate, metrics, pool)
    ri = _reduce_operand(right, query.right_predicate, metrics, pool)

    # Work accounting: rescan the inner once per outer block.
    outer_rows, inner_table = (li, right) if len(li) <= len(ri) else (ri, left)
    outer_table = left if inner_table is right else right
    outer_pages = outer_table.layout.pages_for(len(outer_rows), outer_table.tuple_length)
    blocks = max(1, math.ceil(outer_pages / NLJ_BUFFER_PAGES))
    for _ in range(blocks - 1):
        charge_sequential_pages(metrics, pool, inner_table.name, inner_table.num_pages)
    metrics.tuples_read += (blocks - 1) * inner_table.cardinality
    metrics.tuples_evaluated += len(li) * len(ri)

    lpos = left.schema.position(query.left_column)
    rpos = right.schema.position(query.right_column)
    pairs = _match_pairs(li, ri, lpos, rpos)
    result = _project_join(left, right, query, pairs)
    metrics.tuples_output = result.cardinality
    return JoinExecution(
        result,
        metrics,
        _operand_info(left, len(li), "nested_loop_join"),
        _operand_info(right, len(ri), "nested_loop_join"),
        "nested_loop_join",
    )


def index_nested_loop_join(
    left: Table,
    right: Table,
    query: JoinQuery,
    inner_index: Index,
    pool: BufferPool | None = None,
) -> JoinExecution:
    """Index nested-loop join probing *inner_index* on the right operand.

    The right operand is never pre-scanned: each outer tuple traverses the
    index (height random reads) and fetches its matches, with the right
    local selection applied as a residual.  With a buffer pool the upper
    index levels stay resident across probes, so repeated traversals cost
    little — the classic INLJ win the amortized formulas only approximate.
    """
    query.validate(left.schema, right.schema)
    if inner_index.table is not right:
        raise ExecutionError("inner_index must index the right operand")
    if inner_index.column_name != query.right_column:
        raise ExecutionError(
            f"inner_index is on {inner_index.column_name!r}, join needs "
            f"{query.right_column!r}"
        )
    metrics = ExecutionMetrics()
    li = _reduce_operand(left, query.left_predicate, metrics, pool)

    lpos = left.schema.position(query.left_column)
    ratio = inner_index.clustering_ratio()
    rows_per_page = right.layout.rows_per_page(right.tuple_length)
    kind_is_clustered = inner_index.kind is IndexKind.CLUSTERED

    pairs = []
    matched_inner_ids: set[int] = set()
    for lrow in li:
        key = lrow[lpos]
        row_ids = inner_index.lookup(key)
        k = len(row_ids)
        if pool is None:
            charge_random_pages(metrics, None, count=inner_index.height)
            if kind_is_clustered:
                metrics.sequential_page_reads += (
                    math.ceil(k / rows_per_page) if k else 0
                )
                metrics.logical_page_reads += math.ceil(k / rows_per_page) if k else 0
            else:
                fetch = math.ceil(k * (1.0 - ratio) + k * ratio / rows_per_page)
                charge_random_pages(metrics, None, count=fetch)
        else:
            charge_random_pages(
                metrics, pool, keys=inner_index.traversal_page_keys(key)
            )
            charge_random_pages(
                metrics,
                pool,
                keys=(
                    ("T", right.name, data_page_of(rid, rows_per_page))
                    for rid in row_ids
                ),
            )
        metrics.tuples_read += k
        for rid in row_ids:
            rrow = right.row(rid)
            metrics.tuples_evaluated += 1
            if query.right_predicate.evaluate(rrow, right.schema):
                pairs.append((lrow, rrow))
                matched_inner_ids.add(rid)
    metrics.intermediate_tuples += len(matched_inner_ids)

    result = _project_join(left, right, query, pairs)
    metrics.tuples_output = result.cardinality
    return JoinExecution(
        result,
        metrics,
        _operand_info(left, len(li), "index_nested_loop_join"),
        _operand_info(right, len(matched_inner_ids), "index_nested_loop_join"),
        "index_nested_loop_join",
    )


def sort_merge_join(
    left: Table,
    right: Table,
    query: JoinQuery,
    pool: BufferPool | None = None,
) -> JoinExecution:
    """Sort-merge join: sort both intermediates on the join key, then merge."""
    query.validate(left.schema, right.schema)
    metrics = ExecutionMetrics()
    li = _reduce_operand(left, query.left_predicate, metrics, pool)
    ri = _reduce_operand(right, query.right_predicate, metrics, pool)

    metrics.sort_comparisons += _sort_comparisons(len(li)) + _sort_comparisons(len(ri))
    # Merge pass touches each intermediate tuple once (plus duplicate-key
    # rescans, charged through the pair evaluations below).
    lpos = left.schema.position(query.left_column)
    rpos = right.schema.position(query.right_column)
    pairs = _match_pairs(li, ri, lpos, rpos)
    metrics.tuples_evaluated += len(li) + len(ri) + len(pairs)

    result = _project_join(left, right, query, pairs)
    metrics.tuples_output = result.cardinality
    return JoinExecution(
        result,
        metrics,
        _operand_info(left, len(li), "sort_merge_join"),
        _operand_info(right, len(ri), "sort_merge_join"),
        "sort_merge_join",
    )


def hash_join(
    left: Table,
    right: Table,
    query: JoinQuery,
    pool: BufferPool | None = None,
) -> JoinExecution:
    """Classic hash join: build on the smaller intermediate, probe the other."""
    query.validate(left.schema, right.schema)
    metrics = ExecutionMetrics()
    li = _reduce_operand(left, query.left_predicate, metrics, pool)
    ri = _reduce_operand(right, query.right_predicate, metrics, pool)

    build, probe = (li, ri) if len(li) <= len(ri) else (ri, li)
    metrics.hash_operations += len(build) + len(probe)

    lpos = left.schema.position(query.left_column)
    rpos = right.schema.position(query.right_column)
    pairs = _match_pairs(li, ri, lpos, rpos)
    metrics.tuples_evaluated += len(pairs)

    result = _project_join(left, right, query, pairs)
    metrics.tuples_output = result.cardinality
    return JoinExecution(
        result,
        metrics,
        _operand_info(left, len(li), "hash_join"),
        _operand_info(right, len(ri), "hash_join"),
        "hash_join",
    )


def naive_join(
    left: Table,
    right: Table,
    query: JoinQuery,
    pool: BufferPool | None = None,
) -> JoinExecution:
    """Reference tuple-at-a-time nested-loops join.

    Scans the left operand once and rescans the right operand for every
    qualifying left tuple — the textbook worst case.  It reports through
    the same :class:`ExecutionMetrics` page accounting as the other join
    methods (and replays its rescans through the buffer pool when one is
    supplied), so tests can pin all five methods to identical result
    sets *and* comparable physical-work ledgers.
    """
    query.validate(left.schema, right.schema)
    lpos = left.schema.position(query.left_column)
    rpos = right.schema.position(query.right_column)
    metrics = ExecutionMetrics()
    charge_sequential_pages(metrics, pool, left.name, left.num_pages)
    metrics.tuples_read += left.cardinality

    pairs = []
    left_qualifying = 0
    right_qualifying = 0
    first_rescan = True
    for lrow in left:
        metrics.tuples_evaluated += 1
        if not query.left_predicate.evaluate(lrow, left.schema):
            continue
        left_qualifying += 1
        charge_sequential_pages(metrics, pool, right.name, right.num_pages)
        metrics.tuples_read += right.cardinality
        for rrow in right:
            metrics.tuples_evaluated += 1
            if not query.right_predicate.evaluate(rrow, right.schema):
                continue
            if first_rescan:
                right_qualifying += 1
            if lrow[lpos] == rrow[rpos]:
                pairs.append((lrow, rrow))
        first_rescan = False
    metrics.intermediate_tuples += left_qualifying + right_qualifying

    result = _project_join(left, right, query, pairs)
    metrics.tuples_output = result.cardinality
    return JoinExecution(
        result,
        metrics,
        _operand_info(left, left_qualifying, "naive_join"),
        _operand_info(right, right_qualifying, "naive_join"),
        "naive_join",
    )
