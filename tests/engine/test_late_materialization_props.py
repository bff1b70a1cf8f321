"""Property tests: results that build their tuples on first read.

A query result knows its cardinality when the access or join method
returns; its row tuples are built the first time ``ResultTable.rows`` is
read.  Every method runs twice over twin tables and twin buffer pools:
the eager run reads its rows at once, the deferred run reads them only
after its source tables have changed (rows inserted or bulk-loaded, the
table re-clustered, the table dropped).  Rows, metrics ledgers and
access facts must be identical, and reading only the global facts must
never build the tuples.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probing import default_probing_query
from repro.core.sampling import collect_observations
from repro.engine.access import (
    clustered_index_scan,
    nonclustered_index_scan,
    seq_scan,
)
from repro.engine.buffer import BufferPool
from repro.engine.database import LocalDatabase
from repro.engine.index import Index, IndexKind
from repro.engine.joins import (
    hash_join,
    index_nested_loop_join,
    naive_join,
    nested_loop_join,
    sort_merge_join,
)
from repro.engine.predicate import TRUE, And, Comparison
from repro.engine.query import JoinQuery, SelectQuery
from repro.engine.schema import Column, TableSchema
from repro.engine.table import ResultTable, Table
from repro.engine.types import DataType

SCANS = ("seq_scan", "clustered_index_scan", "nonclustered_index_scan")
JOINS = (
    "nested_loop_join",
    "index_nested_loop_join",
    "sort_merge_join",
    "hash_join",
    "naive_join",
)
MUTATIONS = ("none", "insert", "bulk_load", "cluster_on")


def make_table(name, rows, cluster_on=None):
    table = Table(
        TableSchema(name, [Column("k", DataType.INT), Column("v", DataType.INT)])
    )
    table.bulk_load(rows)
    if cluster_on is not None:
        table.cluster_on(cluster_on)
    table.analyze()
    return table


def mutate(table, how):
    """Change *table* the ways a site's tables change between a query
    and the read of its result."""
    if how == "insert":
        table.insert((-1, 999))
    elif how == "bulk_load":
        table.bulk_load([(k, 500 + k) for k in range(-3, 3)])
    elif how == "cluster_on":
        table.cluster_on("v")


def unbuilt(result):
    return result._rows is None


def scan(method, table, query, pool):
    if method == "seq_scan":
        return seq_scan(table, query, pool)
    if method == "clustered_index_scan":
        index = Index("ix", table, "k", IndexKind.CLUSTERED)
        return clustered_index_scan(table, index, query, pool)
    index = Index("ix", table, "k", IndexKind.NONCLUSTERED)
    return nonclustered_index_scan(table, index, query, pool)


def join(method, left, right, query, pool):
    if method == "index_nested_loop_join":
        index = Index("ix", right, "k", IndexKind.NONCLUSTERED)
        return index_nested_loop_join(left, right, query, index, pool)
    function = {
        "nested_loop_join": nested_loop_join,
        "sort_merge_join": sort_merge_join,
        "hash_join": hash_join,
        "naive_join": naive_join,
    }[method]
    return function(left, right, query, pool)


rows = st.lists(st.tuples(st.integers(-8, 8), st.integers(0, 6)), max_size=40)


@st.composite
def select_queries(draw):
    low = draw(st.integers(-10, 10))
    predicate = And(
        Comparison("k", ">=", low),
        Comparison("k", "<=", low + draw(st.integers(-2, 12))),
    )
    if draw(st.booleans()):
        predicate = And(predicate, Comparison("v", "<", draw(st.integers(0, 7))))
    if draw(st.booleans()):
        # True for every row, but numpy cannot compare it exactly: the
        # scan takes its row-at-a-time filter.
        predicate = And(predicate, Comparison("v", "<", 2**80))
    order_by = draw(
        st.sampled_from([(), (("v", True),), (("v", False), ("k", True))])
    )
    return SelectQuery(
        "T",
        draw(st.sampled_from([("k", "v"), ("v",), ()])),
        predicate,
        order_by=order_by,
        limit=draw(st.one_of(st.none(), st.integers(0, 12))),
    )


local_predicate = st.one_of(
    st.just(TRUE), st.builds(Comparison, st.just("v"), st.just("<"), st.integers(0, 7))
)


@st.composite
def join_queries(draw):
    return JoinQuery(
        "L",
        "R",
        "k",
        "k",
        draw(st.sampled_from([("L.v", "R.v"), ("R.k",), ("L.k", "L.v", "R.v")])),
        left_predicate=draw(local_predicate),
        right_predicate=draw(local_predicate),
    )


def pool_for(pooled):
    return BufferPool(capacity_pages=4) if pooled else None


class TestScans:
    @settings(max_examples=150, deadline=None)
    @given(
        data=rows,
        query=select_queries(),
        method=st.sampled_from(SCANS),
        pooled=st.booleans(),
        how=st.sampled_from(MUTATIONS),
    )
    def test_deferred_rows_equal_eager_rows(self, data, query, method, pooled, how):
        cluster = "k" if method == "clustered_index_scan" else None
        eager_table = make_table("T", data, cluster)
        deferred_table = make_table("T", data, cluster)
        eager = scan(method, eager_table, query, pool_for(pooled))
        eager_rows = eager.result.rows
        deferred = scan(method, deferred_table, query, pool_for(pooled))
        assert unbuilt(deferred.result)
        mutate(deferred_table, how)
        assert deferred.result.cardinality == len(eager_rows)
        assert unbuilt(deferred.result)
        assert deferred.result.rows == eager_rows
        assert deferred.metrics == eager.metrics
        assert deferred.metrics.tuples_output == len(eager_rows)
        assert deferred.info == eager.info

    def test_empty_result_and_limit_zero(self):
        table = make_table("T", [(1, 1), (2, 2)])
        for query in (
            SelectQuery("T", ("k",), Comparison("k", ">", 5)),
            SelectQuery("T", ("k",), limit=0),
        ):
            result = seq_scan(table, query).result
            assert len(result) == result.cardinality == result.table_length == 0
            assert result.rows == []


class TestJoins:
    @settings(max_examples=150, deadline=None)
    @given(
        left_rows=rows,
        right_rows=rows,
        query=join_queries(),
        method=st.sampled_from(JOINS),
        pooled=st.booleans(),
        cached=st.booleans(),
        how=st.sampled_from(MUTATIONS),
    )
    def test_deferred_rows_equal_eager_rows(
        self, left_rows, right_rows, query, method, pooled, cached, how
    ):
        twins = []
        for _ in range(2):
            left, right = make_table("L", left_rows), make_table("R", right_rows)
            if cached:
                # A cached column array is what the projection gathers from.
                left.column_array("v")
                right.column_array("v")
            twins.append((left, right))
        (eager_left, eager_right), (left, right) = twins
        eager = join(method, eager_left, eager_right, query, pool_for(pooled))
        eager_rows = eager.result.rows
        deferred = join(method, left, right, query, pool_for(pooled))
        assert unbuilt(deferred.result)
        mutate(left, how)
        mutate(right, how)
        assert deferred.result.cardinality == len(eager_rows)
        assert deferred.result.rows == eager_rows
        assert deferred.metrics == eager.metrics
        assert deferred.metrics.tuples_output == len(eager_rows)
        assert (deferred.left_info, deferred.right_info) == (
            eager.left_info,
            eager.right_info,
        )


def make_database():
    db = LocalDatabase("lazy", noise_sigma=0.0, seed=1)
    columns = [Column("k", DataType.INT), Column("v", DataType.INT)]
    db.create_table("A", columns, [(i % 17, i % 5) for i in range(300)])
    db.create_table("B", columns, [(i % 13, i % 7) for i in range(200)])
    db.create_index("a_k", "A", "k")
    db.analyze()
    return db


class TestDatabase:
    QUERIES = (
        "select k, v from A where k < 9",
        "select v from A where k > 3 and k < 6",
        "select A.v, B.v from A join B on A.k = B.k where A.v < 3",
    )

    @pytest.mark.parametrize("sql", QUERIES)
    def test_rows_survive_a_dropped_table(self, sql):
        eager = make_database().execute(sql).result.rows
        db = make_database()
        result = db.execute(sql).result
        for name in ("A", "B"):
            db.catalog.drop_table(name)
        assert result.rows == eager

    @pytest.mark.parametrize("sql", QUERIES)
    def test_rows_is_built_once(self, sql):
        result = make_database().execute(sql).result
        first = result.rows
        assert result.rows is first
        assert list(result) == first
        assert result.rows is first

    @pytest.mark.parametrize("sql", QUERIES)
    def test_global_facts_never_build_rows(self, sql):
        executed = make_database().execute(sql)
        result = executed.result
        facts = (
            executed.cardinality,
            result.cardinality,
            len(result),
            result.table_length,
            result.tuple_length,
        )
        assert unbuilt(result)
        assert facts[0] == len(result.rows) and facts[3] == facts[0] * facts[4]

    def test_sampling_never_builds_rows(self, monkeypatch):
        db = make_database()
        built = []
        deferred = ResultTable.deferred.__func__

        def tracking(cls, column_names, tuple_length, cardinality, build):
            result = deferred(cls, column_names, tuple_length, cardinality, build)
            built.append(result)
            return result

        monkeypatch.setattr(ResultTable, "deferred", classmethod(tracking))
        observations = collect_observations(
            db, [db.parse(sql) for sql in self.QUERIES], default_probing_query(db)
        )
        assert len(observations) == len(self.QUERIES)
        # One result per sample query and one per probe, none built.
        assert len(built) == 2 * len(self.QUERIES)
        assert all(unbuilt(result) for result in built)

    @pytest.mark.parametrize("sql", QUERIES)
    def test_pickle_and_copy_carry_built_rows(self, sql):
        eager = make_database().execute(sql).result.rows
        for clone in (
            pickle.loads(pickle.dumps(make_database().execute(sql).result)),
            copy.copy(make_database().execute(sql).result),
            copy.deepcopy(make_database().execute(sql).result),
        ):
            assert not unbuilt(clone) and clone._build is None
            assert clone.rows == eager
            assert clone.cardinality == len(eager)


class TestTableOrder:
    def test_cluster_on_rebinds_the_row_list(self):
        table = make_table("T", [(3, 0), (1, 1), (2, 2)])
        before = table.rows()
        table.cluster_on("k")
        assert before == [(3, 0), (1, 1), (2, 2)]
        assert table.rows() == [(1, 1), (2, 2), (3, 0)]
        assert table.rows() is not before
