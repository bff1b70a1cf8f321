"""Unit tests for multi-way global queries."""

import pytest

from repro.engine.errors import QueryError
from repro.engine.predicate import Comparison, TRUE
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.multiway import (
    JoinLink,
    MultiJoinQuery,
    MultiwayExecutor,
    MultiwayOptimizer,
    Operand,
)


def make_query(columns=("R1.a1", "R2.a2", "R4.a5")):
    return MultiJoinQuery(
        operands=(
            Operand("oracle_site", "R1", Comparison("a3", "<", 700)),
            Operand("db2_site", "R2", TRUE),
            Operand("oracle_site", "R4", Comparison("a7", ">", 10000)),
        ),
        links=(
            JoinLink("R1", "a4", "R2", "a4"),
            JoinLink("R2", "a4", "R4", "a4"),
        ),
        columns=columns,
    )


class TestValidation:
    def test_operand_link_count_mismatch(self):
        with pytest.raises(QueryError):
            MultiJoinQuery(
                operands=(Operand("s", "A"), Operand("s", "B")),
                links=(),
            )

    def test_duplicate_tables_rejected(self):
        with pytest.raises(QueryError):
            MultiJoinQuery(
                operands=(Operand("s", "A"), Operand("t", "A")),
                links=(JoinLink("A", "x", "A", "x"),),
            )

    def test_link_must_introduce_next_operand(self):
        with pytest.raises(QueryError):
            MultiJoinQuery(
                operands=(Operand("s", "A"), Operand("s", "B"), Operand("s", "C")),
                links=(
                    JoinLink("A", "x", "C", "x"),  # skips B
                    JoinLink("A", "x", "B", "x"),
                ),
            )

    def test_link_cannot_reference_future_table(self):
        with pytest.raises(QueryError):
            MultiJoinQuery(
                operands=(Operand("s", "A"), Operand("s", "B"), Operand("s", "C")),
                links=(
                    JoinLink("C", "x", "B", "x"),  # C not joined yet
                    JoinLink("B", "x", "C", "x"),
                ),
            )

    def test_unqualified_output_column_rejected(self):
        with pytest.raises(QueryError):
            make_query(columns=("a1",))

    def test_two_operands_minimum(self):
        with pytest.raises(QueryError):
            MultiJoinQuery(operands=(Operand("s", "A"),), links=())

    def test_needed_columns_include_join_keys(self):
        query = make_query()
        needed = query.needed_columns("R2", ("a1", "a2", "a4"))
        assert "a2" in needed  # requested output
        assert "a4" in needed  # join key for both links


class TestPlanning:
    def test_plan_structure(self, mini_mdbs):
        server, _ = mini_mdbs
        plan = MultiwayOptimizer(server).plan(make_query())
        assert len(plan.select_estimates) == 3
        assert len(plan.steps) == 2
        assert plan.steps[0].introduces == "R2"
        assert plan.steps[1].introduces == "R4"
        assert plan.estimated_seconds > 0
        assert "multi-way plan" in plan.describe()

    def test_join_sites_are_registered_sites(self, mini_mdbs):
        server, _ = mini_mdbs
        plan = MultiwayOptimizer(server).plan(make_query())
        for step in plan.steps:
            assert step.join_site in server.catalog.sites


class TestExecution:
    def reference_rows(self, sites, query):
        """Naive chain join over the raw tables."""
        tables = {}
        for operand in query.operands:
            table = sites[operand.site].database.catalog.table(operand.table)
            rows = [
                r for r in table if operand.predicate.evaluate(r, table.schema)
            ]
            tables[operand.table] = (table.schema, rows)

        first = query.operands[0].table
        schema, rows = tables[first]
        acc = [
            {f"{first}.{c}": r[schema.position(c)] for c in schema.column_names}
            for r in rows
        ]
        for link in query.links:
            schema, rows = tables[link.right_table]
            joined = []
            for item in acc:
                for r in rows:
                    if item[f"{link.left_table}.{link.left_column}"] == r[
                        schema.position(link.right_column)
                    ]:
                        merged = dict(item)
                        merged.update(
                            {
                                f"{link.right_table}.{c}": r[schema.position(c)]
                                for c in schema.column_names
                            }
                        )
                        joined.append(merged)
            acc = joined
        return sorted(tuple(item[c] for c in query.columns) for item in acc)

    def test_result_matches_naive_chain_join(self, mini_mdbs):
        server, sites = mini_mdbs
        query = make_query()
        execution = MultiwayExecutor(server).execute(query)
        assert sorted(execution.rows) == self.reference_rows(sites, query)
        assert execution.column_names == query.columns

    def test_steps_cover_all_work(self, mini_mdbs):
        server, _ = mini_mdbs
        execution = MultiwayExecutor(server).execute(make_query())
        text = " | ".join(s.description for s in execution.steps)
        assert text.count("select") == 3
        assert text.count("ship") == 2
        assert text.count("join") == 2
        assert execution.observed_seconds > 0

    def test_estimate_within_order_of_magnitude(self, mini_mdbs):
        server, _ = mini_mdbs
        execution = MultiwayExecutor(server).execute(make_query())
        ratio = max(
            execution.observed_seconds / max(execution.estimated_seconds, 1e-9),
            execution.estimated_seconds / max(execution.observed_seconds, 1e-9),
        )
        assert ratio < 10.0

    def test_temp_tables_cleaned_up(self, mini_mdbs):
        server, sites = mini_mdbs
        MultiwayExecutor(server).execute(make_query())
        for site in sites.values():
            assert not site.database.catalog.has_table("_m_acc")
            assert not site.database.catalog.has_table("_m_next")

    def test_failed_create_leaves_no_temp_tables(self, mini_mdbs, monkeypatch):
        server, sites = mini_mdbs
        original = MDBSAgent.create_temp_table
        calls = []

        def create(self, name, *args):
            calls.append(name)
            if name == "_m_next":
                raise RuntimeError("cannot materialize _m_next")
            return original(self, name, *args)

        monkeypatch.setattr(MDBSAgent, "create_temp_table", create)
        with pytest.raises(RuntimeError, match="cannot materialize"):
            MultiwayExecutor(server).execute(make_query())
        assert calls == ["_m_acc", "_m_next"]
        for site in sites.values():
            assert not site.database.catalog.has_table("_m_acc")
            assert not site.database.catalog.has_table("_m_next")

    def test_star_projection(self, mini_mdbs):
        server, _ = mini_mdbs
        query = MultiJoinQuery(
            operands=(
                Operand("oracle_site", "R1", Comparison("a3", "<", 300)),
                Operand("db2_site", "R2", Comparison("a7", ">", 30000)),
            ),
            links=(JoinLink("R1", "a4", "R2", "a4"),),
        )
        execution = MultiwayExecutor(server).execute(query)
        # All carried columns of both operands appear, qualified.
        assert all("." in c for c in execution.column_names)
        assert any(c.startswith("R1.") for c in execution.column_names)
        assert any(c.startswith("R2.") for c in execution.column_names)
