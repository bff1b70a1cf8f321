"""Property tests: the numpy hot paths are byte-identical to the
row-at-a-time functions the engine falls back to.

Each operator runs once through its engine entry point (numpy whenever
the input allows it) and is compared against its row-at-a-time
reference — ``filter_rows``, ``_match_pairs_scalar``, ``_project_join``
over list pairs, ``EquiDepthHistogram._build_scalar`` — asserting exact
equality of rows, pair order, histogram boundaries, counts, everything,
including empty tables, single-row tables, all-duplicate key columns,
and keys numpy cannot compare the way Python does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.access import (
    _project,
    clustered_index_scan,
    filter_rows,
    nonclustered_index_scan,
    seq_scan,
)
from repro.engine.histogram import EquiDepthHistogram
from repro.engine.index import Index, IndexKind
from repro.engine.joins import (
    _match_pairs,
    _match_pairs_scalar,
    _match_pairs_vectorized,
    _project_join,
    hash_join,
    naive_join,
)
from repro.engine.optimizer import choose_join_plan
from repro.engine.predicate import And, Comparison, Not, Or, TruePredicate
from repro.engine.query import JoinQuery, SelectQuery
from repro.engine.schema import Column, TableSchema
from repro.engine.table import Table
from repro.engine.types import DataType


def make_table(name, rows, with_str=False):
    columns = [Column("a", DataType.INT), Column("b", DataType.INT)]
    if with_str:
        columns.append(Column("s", DataType.STR, 8))
    table = Table(TableSchema(name, columns))
    table.bulk_load(rows)
    table.analyze()
    return table


int_rows = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(0, 5)), max_size=60
)

comparison = st.builds(
    Comparison,
    column=st.sampled_from(["a", "b"]),
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    value=st.integers(-60, 60),
)
predicate = st.recursive(
    comparison,
    lambda sub: st.one_of(
        st.builds(And, sub, sub), st.builds(Or, sub, sub), st.builds(Not, sub)
    ),
    max_leaves=5,
)


class TestPredicateBatches:
    @settings(max_examples=120, deadline=None)
    @given(rows=int_rows, pred=predicate)
    def test_batch_mask_equals_row_at_a_time(self, rows, pred):
        table = make_table("t", rows)
        mask = pred.evaluate_batch(table)
        assert mask is not None
        expected = [pred.evaluate(r, table.schema) for r in table]
        assert mask.dtype == np.bool_
        assert mask.tolist() == expected

    def test_true_predicate_and_empty_table(self):
        table = make_table("t", [])
        assert TruePredicate().evaluate_batch(table).tolist() == []
        assert Comparison("a", "<", 3).evaluate_batch(table).tolist() == []

    def test_incompatible_types_fall_back_to_scalar(self):
        table = make_table("t", [(1, 2)])
        # String literal against an int column: no batch path, and the
        # scalar path is the one that decides the semantics.
        assert Comparison("a", "=", "x").evaluate_batch(table) is None

    def test_huge_integers_fall_back_to_scalar(self):
        table = make_table("t", [(1, 2), (3, 4)])
        assert Comparison("a", "<", 2**80).evaluate_batch(table) is None
        assert Comparison("a", "<", 2**40).evaluate_batch(table) is not None


class TestScanEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=int_rows,
        pred=predicate,
        order_by=st.sampled_from([(), (("b", True),), (("b", False), ("a", True))]),
        limit=st.one_of(st.none(), st.integers(0, 20)),
    )
    def test_seq_scan_rows_identical(self, rows, pred, order_by, limit):
        table = make_table("t", rows)
        query = SelectQuery("t", ("a", "b"), pred, order_by=order_by, limit=limit)
        scan = seq_scan(table, query)
        matched = filter_rows(table, pred)
        for column, ascending in reversed(order_by):
            pos = table.schema.position(column)
            matched = sorted(matched, key=lambda r: r[pos], reverse=not ascending)
        matched = matched[:limit]
        reference = _project(table, query, matched, np.arange(len(matched)))
        assert scan.result.rows == reference.rows
        assert scan.metrics.tuples_evaluated == table.cardinality
        assert scan.metrics.tuples_output == len(reference.rows)

    @settings(max_examples=120, deadline=None)
    @given(
        rows=int_rows,
        pred=predicate,
        method=st.sampled_from(["seq", "clustered", "nonclustered"]),
        order_by=st.sampled_from([(), (("b", True),), (("b", False), ("a", True))]),
        limit=st.one_of(st.none(), st.integers(0, 20)),
        low=st.integers(-60, 60),
        width=st.integers(0, 120),
    )
    def test_row_loop_scans_equal_batched_scans(
        self, rows, pred, method, order_by, limit, low, width
    ):
        """Each scan method runs twice: once with a conjunct numpy
        compares exactly, once with one it cannot (``b < 2**80``), which
        sends the scan through its row-at-a-time filter.  Both conjuncts
        hold for every row, so rows, their order and metrics must agree."""
        table = make_table("t", rows)
        if method == "clustered":
            table.cluster_on("a")
            table.analyze()

        def run(bound):
            # A bounded range on ``a`` for the index scans to serve.
            key_range = And(Comparison("a", ">=", low), Comparison("a", "<=", low + width))
            predicate = And(key_range, And(pred, Comparison("b", "<", bound)))
            query = SelectQuery("t", ("b", "a"), predicate, order_by=order_by, limit=limit)
            if method == "seq":
                return seq_scan(table, query)
            if method == "clustered":
                index = Index("ix", table, "a", IndexKind.CLUSTERED)
                return clustered_index_scan(table, index, query)
            index = Index("ix", table, "a", IndexKind.NONCLUSTERED)
            return nonclustered_index_scan(table, index, query)

        if table.cardinality:
            assert Comparison("b", "<", 2**80).evaluate_batch(table) is None
        batched, looped = run(100), run(2**80)
        assert looped.result.rows == batched.result.rows
        assert looped.metrics == batched.metrics
        assert looped.info == batched.info


join_keys = st.lists(st.integers(0, 6), max_size=40)

#: Keys numpy would compare differently from Python if the matcher let
#: it: an int above 2**53 next to the float it rounds to, small ints
#: next to equal floats, and NaN (Python matches only the same object).
mixed_keys = st.lists(
    st.sampled_from([2**53 + 1, float(2**53), 2, 2.0, 3.5, float("nan")]),
    max_size=12,
)


class TestJoinEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.one_of(
            st.tuples(join_keys, join_keys), st.tuples(mixed_keys, mixed_keys)
        )
    )
    def test_match_pairs_identical_order(self, keys):
        left_keys, right_keys = keys
        left_rows = [(k, i) for i, k in enumerate(left_keys)]
        right_rows = [(k, 100 + i) for i, k in enumerate(right_keys)]
        assert _match_pairs(left_rows, right_rows, 0, 0) == _match_pairs_scalar(
            left_rows, right_rows, 0, 0
        )

    def test_match_pairs_edge_shapes(self):
        for left, right in [
            ([], []),
            ([(1, 0)], []),
            ([], [(1, 0)]),
            ([(7, 0)], [(7, 1)]),  # single row each
            ([(3, i) for i in range(5)], [(3, j) for j in range(4)]),  # all dups
            # float64 rounds 2**53 + 1 to 2**53; Python's == does not —
            # across the two sides, and within one side.
            ([(2**53 + 1, 0)], [(float(2**53), 1)]),
            ([(2**53 + 1, 0), (0.5, 2)], [(float(2**53), 1)]),
            # Distinct NaN objects never match in Python.
            ([(float("nan"), 0)], [(float("nan"), 1)]),
            # np.array stringifies a number mixed into strings.
            ([("1", 0), (1, 1)], [("1", 2)]),
        ]:
            assert _match_pairs(left, right, 0, 0) == _match_pairs_scalar(
                left, right, 0, 0
            )

    def test_string_keys_match(self):
        left = [("x", 1), ("y", 2), ("x", 3)]
        right = [("x", 9), ("z", 8)]
        assert _match_pairs_vectorized(left, right, 0, 0) is not None
        assert _match_pairs(left, right, 0, 0) == _match_pairs_scalar(
            left, right, 0, 0
        )

    @settings(max_examples=40, deadline=None)
    @given(left_rows=int_rows, right_rows=int_rows)
    def test_planned_join_rows_identical(self, left_rows, right_rows):
        query = JoinQuery("l", "r", "b", "b")
        left = make_table("l", left_rows)
        right = make_table("r", right_rows)
        plan = choose_join_plan(left, right, [], [], query)
        planned = plan.execute(left, right, query)
        pairs = _match_pairs_scalar(left.rows(), right.rows(), 1, 1)
        reference = _project_join(left, right, query, pairs)
        assert planned.result.rows == reference.rows

    @settings(max_examples=30, deadline=None)
    @given(left_rows=int_rows, right_rows=int_rows, pred=predicate)
    def test_naive_join_rows_identical(self, left_rows, right_rows, pred):
        query = JoinQuery("l", "r", "b", "b", left_predicate=pred)
        left = make_table("l", left_rows)
        right = make_table("r", right_rows)
        naive = naive_join(left, right, query)
        hashed = hash_join(left, right, query)
        assert hashed.result.rows == naive.result.rows
        assert hashed.left_info.intermediate_cardinality == (
            naive.left_info.intermediate_cardinality
        )


hist_values = st.lists(
    st.integers(-1000, 1000).map(float) | st.integers(-1000, 1000), min_size=1, max_size=200
)


class TestHistogramEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(values=hist_values, num_buckets=st.integers(1, 12))
    def test_build_identical(self, values, num_buckets):
        assert EquiDepthHistogram.build(
            values, num_buckets
        ) == EquiDepthHistogram._build_scalar(values, num_buckets)

    def test_edge_shapes_identical(self):
        for values in [[5], [3.0] * 50, list(range(7)), [1, 1, 2, 2, 2, 9]]:
            assert EquiDepthHistogram.build(
                values, 4
            ) == EquiDepthHistogram._build_scalar(values, 4)

    @settings(max_examples=60, deadline=None)
    @given(values=hist_values, probe=st.integers(-1100, 1100))
    def test_estimates_identical(self, values, probe):
        built = EquiDepthHistogram.build(values, 8)
        reference = EquiDepthHistogram._build_scalar(values, 8)
        assert built.estimate_le(probe) == reference.estimate_le(probe)
        assert built.estimate_eq(probe) == reference.estimate_eq(probe)
