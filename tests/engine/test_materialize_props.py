"""Property tests: cheap temp-table materialization changes no result.

``Table.bulk_load`` checks types a column at a time and adopts
canonical tuples as they are; it must store exactly what a per-row
``TableSchema.validate_row`` loop stores, and fail with the same error
after loading the same rows.  ``ColumnStatistics.from_values`` uses the
builtins ``min``/``max``/``set``; it must keep the very objects the
per-value loop it replaced kept.  ``_project_join`` gathers from a
column array only when building one pays off; the rows must not depend
on whether the array was cached.
"""

import enum
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.errors import TypeError_
from repro.engine.joins import hash_join, nested_loop_join, sort_merge_join
from repro.engine.query import JoinQuery
from repro.engine.schema import Column, ColumnStatistics, TableSchema
from repro.engine.table import Table
from repro.engine.types import DataType


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Tag(str):
    """A str subclass: valid for STR columns, but not the canonical type."""


CANONICAL = {
    DataType.INT: st.integers(-(2**70), 2**70),
    DataType.FLOAT: st.floats(allow_nan=True, allow_infinity=True),
    DataType.STR: st.text(max_size=4),
}

#: Values that are wrong, or right only after coercion, for some type.
ODD = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(list(Level)),
    st.builds(Tag, st.text(max_size=3)),
    st.integers(-5, 5),
    st.floats(-5, 5),
    st.text(max_size=2),
)


@st.composite
def load_cases(draw):
    """(schema, rows, as_generator): clean tuples or a mix of odd
    values, lists, and rows of the wrong width."""
    dtypes = draw(st.lists(st.sampled_from(list(DataType)), min_size=1, max_size=3))
    schema = TableSchema(
        "t", [Column(f"c{i}", dtype) for i, dtype in enumerate(dtypes)]
    )
    clean = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if clean:
            rows.append(tuple(draw(CANONICAL[d]) for d in dtypes))
            continue
        values = [draw(st.one_of(CANONICAL[d], ODD)) for d in dtypes]
        shape = draw(st.sampled_from(["tuple", "tuple", "list", "short", "long"]))
        if shape == "list":
            rows.append(values)
        elif shape == "short":
            rows.append(tuple(values[:-1]))
        elif shape == "long":
            rows.append(tuple(values) + (0,))
        else:
            rows.append(tuple(values))
    return schema, rows, draw(st.booleans())


def row_by_row(schema, rows):
    """The reference: validate and append one row at a time."""
    loaded = []
    try:
        for row in rows:
            loaded.append(schema.validate_row(row))
    except Exception as exc:
        return loaded, exc
    return loaded, None


def types_of(rows):
    return [[type(v) for v in row] for row in rows]


class TestBulkLoad:
    @settings(max_examples=300, deadline=None)
    @given(case=load_cases())
    def test_matches_row_by_row_validation(self, case):
        schema, rows, as_generator = case

        def feed():
            return (row for row in rows) if as_generator else rows

        expected, expected_error = row_by_row(schema, feed())
        table = Table(schema)
        error = None
        try:
            count = table.bulk_load(feed())
        except Exception as exc:
            error = exc
        assert type(error) is type(expected_error)
        assert str(error) == str(expected_error)
        if error is None:
            assert count == len(expected)
        stored = list(table.rows())
        assert table.cardinality == len(expected)
        assert all(type(row) is tuple for row in stored)
        # Float values come through as the same objects (NaN included),
        # so plain equality is exact here.
        assert stored == expected
        assert types_of(stored) == types_of(expected)

    def test_canonical_tuples_are_adopted_without_copying(self):
        schema = TableSchema(
            "t",
            [
                Column("a", DataType.INT),
                Column("b", DataType.FLOAT),
                Column("c", DataType.STR),
            ],
        )
        rows = [(1, 2.5, "x"), (3, -0.0, "y")]
        table = Table(schema)
        assert table.bulk_load(rows) == 2
        assert all(s is r for s, r in zip(table.rows(), rows))

    def test_bad_row_keeps_the_rows_before_it(self):
        table = Table(TableSchema("t", [Column("a", DataType.INT)]))
        table.bulk_load([(0,)])
        with pytest.raises(TypeError_, match="expected int, got bool"):
            table.bulk_load([(1,), (2,), (True,), (4,)])
        assert table.rows() == [(0,), (1,), (2,)]


def loop_statistics(values):
    """The per-value loop ``ColumnStatistics.from_values`` used to run."""
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


SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0]
)
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), SPECIAL_FLOATS)
STAT_VALUES = st.one_of(
    st.lists(st.integers(-(2**70), 2**70), max_size=30),
    st.lists(FLOATS, max_size=30),
    st.lists(st.one_of(st.integers(-3, 3), FLOATS), max_size=30),
    st.lists(st.text(max_size=3), max_size=30),
)


def assert_same_statistics(stats, values):
    minimum, maximum, distinct = loop_statistics(values)
    assert stats.minimum is minimum
    assert stats.maximum is maximum
    assert type(stats.minimum) is type(minimum)
    assert type(stats.maximum) is type(maximum)
    assert stats.distinct_count == distinct


class TestStatistics:
    @settings(max_examples=300, deadline=None)
    @given(values=STAT_VALUES)
    def test_from_values_matches_the_loop(self, values):
        assert_same_statistics(ColumnStatistics.from_values(values), values)
        # Any iterable, not only lists.
        assert_same_statistics(ColumnStatistics.from_values(iter(values)), values)

    @settings(max_examples=150, deadline=None)
    @given(
        dtype=st.sampled_from(list(DataType)),
        data=st.data(),
    )
    def test_analyze_matches_the_loop(self, dtype, data):
        values = data.draw(
            st.lists(FLOATS if dtype is DataType.FLOAT else CANONICAL[dtype], max_size=30)
        )
        table = Table(TableSchema("t", [Column("v", dtype)]))
        table.bulk_load([(v,) for v in values])
        assert_same_statistics(table.analyze().column("v"), values)


int_rows = st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 50)), max_size=40)
JOIN_METHODS = [hash_join, sort_merge_join, nested_loop_join]


def temp_table(name, rows):
    table = Table(
        TableSchema(name, [Column("k", DataType.INT), Column("v", DataType.INT)])
    )
    table.bulk_load(rows)
    table.analyze()
    return table


class TestProjectionCache:
    @settings(max_examples=150, deadline=None)
    @given(
        left_rows=int_rows,
        right_rows=int_rows,
        method=st.sampled_from(JOIN_METHODS),
    )
    def test_uncached_projection_equals_cached(self, left_rows, right_rows, method):
        query = JoinQuery("L", "R", "k", "k", ("L.v", "R.k", "R.v", "L.k"))
        left, right = temp_table("L", left_rows), temp_table("R", right_rows)
        fresh = method(left, right, query).result.rows
        for table in (left, right):
            for name in table.schema.column_names:
                table.column_array(name)
        cached = method(left, right, query).result.rows
        assert fresh == cached
        assert types_of(fresh) == types_of(cached)

    def test_small_projection_builds_no_array(self):
        left = temp_table("L", [(k, 100 + k) for k in range(20)])
        right = temp_table("R", [(k, 200 + k) for k in range(0, 40, 7)])
        query = JoinQuery("L", "R", "k", "k", ("L.v", "R.v"))
        rows = hash_join(left, right, query).result.rows
        assert rows == [(100 + k, 200 + k) for k in (0, 7, 14)]
        assert left.cached_column_array("v") is None
        assert right.cached_column_array("v") is None
        # The projected values are the source rows' own objects.
        by_key = {r[0]: r for r in left.rows()}
        assert all(row[0] is by_key[row[0] - 100][1] for row in rows)
