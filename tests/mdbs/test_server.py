"""Unit tests for global execution via the MDBS server."""

import pytest

from repro.engine.predicate import Comparison
from repro.mdbs.gquery import GlobalJoinQuery


@pytest.fixture
def globalq():
    return GlobalJoinQuery(
        "oracle_site",
        "R1",
        "db2_site",
        "R2",
        "a4",
        "a4",
        ("R1.a1", "R1.a5", "R2.a2"),
        left_predicate=Comparison("a3", "<", 600),
        right_predicate=Comparison("a7", ">", 10000),
    )


def cross_site_reference(sites, query):
    """Naive cross-site join computed directly over the raw tables."""
    left = sites[query.left_site].database.catalog.table(query.left_table)
    right = sites[query.right_site].database.catalog.table(query.right_table)
    lpos = left.schema.position(query.left_join_column)
    rpos = right.schema.position(query.right_join_column)
    out = []
    for lrow in left:
        if not query.left_predicate.evaluate(lrow, left.schema):
            continue
        for rrow in right:
            if not query.right_predicate.evaluate(rrow, right.schema):
                continue
            if lrow[lpos] == rrow[rpos]:
                values = {}
                for c in left.schema.column_names:
                    values[f"{query.left_table}.{c}"] = lrow[left.schema.position(c)]
                for c in right.schema.column_names:
                    values[f"{query.right_table}.{c}"] = rrow[right.schema.position(c)]
                out.append(tuple(values[c] for c in query.columns))
    return out


class TestRegistration:
    def test_sites_registered(self, mini_mdbs):
        server, _ = mini_mdbs
        assert set(server.catalog.sites) == {"oracle_site", "db2_site"}

    def test_facts_imported(self, mini_mdbs):
        server, sites = mini_mdbs
        facts = server.catalog.table("oracle_site", "R1")
        assert facts.cardinality == sites[
            "oracle_site"
        ].database.catalog.table("R1").cardinality


class TestExecution:
    def test_result_matches_cross_site_reference(self, mini_mdbs, globalq):
        server, sites = mini_mdbs
        execution = server.execute(globalq)
        assert sorted(execution.rows) == sorted(cross_site_reference(sites, globalq))
        assert execution.column_names == globalq.columns

    def test_steps_cover_selects_ship_join(self, mini_mdbs, globalq):
        server, _ = mini_mdbs
        execution = server.execute(globalq)
        descriptions = " | ".join(s.description for s in execution.steps)
        assert "select R1" in descriptions
        assert "select R2" in descriptions
        assert "ship" in descriptions
        assert "join at" in descriptions
        assert execution.observed_seconds > 0

    def test_estimate_same_order_of_magnitude(self, mini_mdbs, globalq):
        server, _ = mini_mdbs
        execution = server.execute(globalq)
        ratio = max(
            execution.observed_seconds / execution.estimated_seconds,
            execution.estimated_seconds / execution.observed_seconds,
        )
        assert ratio < 10.0

    def test_temp_tables_cleaned_up(self, mini_mdbs, globalq):
        server, sites = mini_mdbs
        server.execute(globalq)
        for site in sites.values():
            assert not site.database.catalog.has_table("_g_left")
            assert not site.database.catalog.has_table("_g_right")

    def test_forced_join_site_still_correct(self, mini_mdbs, globalq):
        server, sites = mini_mdbs
        expected = sorted(cross_site_reference(sites, globalq))
        for plan in server.optimizer().plans(globalq):
            execution = server.execute(globalq, plan)
            assert sorted(execution.rows) == expected

    def test_refresh_site_facts(self, mini_mdbs):
        server, sites = mini_mdbs
        server.refresh_site_facts("oracle_site")
        facts = server.catalog.table("oracle_site", "R1")
        assert facts.cardinality > 0


class TestObservability:
    """A global execution produces a well-formed nested trace."""

    def run_traced(self, server, globalq):
        from repro import obs

        with obs.recording() as tracer:
            execution = server.execute(globalq)
        return execution, tracer.finished()

    def test_nested_span_tree(self, mini_mdbs, globalq):
        server, _ = mini_mdbs
        execution, spans = self.run_traced(server, globalq)
        by_id = {s.span_id: s for s in spans}

        (root,) = [s for s in spans if s.name == "mdbs.execute"]
        assert root.parent_id is None
        assert root.attributes["join_site"] == execution.plan.join_site
        assert root.attributes["observed_seconds"] == pytest.approx(
            execution.observed_seconds
        )
        assert root.attributes["estimated_seconds"] == pytest.approx(
            execution.estimated_seconds
        )

        # Optimization happened inside the execute span.
        (optimize,) = [s for s in spans if s.name == "mdbs.optimize"]
        assert by_id[optimize.parent_id] is root

        # One span per plan step, all children of the root, mirroring
        # the StepTiming list exactly (same simulated seconds); temp-table
        # materialization is a span of its own with no simulated cost.
        steps = sorted(
            (s for s in spans if s.name.startswith("mdbs.step.")),
            key=lambda s: s.start,
        )
        assert all(by_id[s.parent_id] is root for s in steps)
        # Temp tables are built at the join site between ship and join.
        assert [s.name for s in steps[2:]] == [
            "mdbs.step.ship",
            "mdbs.step.materialize",
            "mdbs.step.join",
        ]
        materialize = steps.pop(3)
        assert materialize.attributes["site"] == steps[3].attributes["site"]
        assert materialize.attributes["rows"] > 0
        assert sorted(s.name for s in steps) == [
            "mdbs.step.join",
            "mdbs.step.select",
            "mdbs.step.select",
            "mdbs.step.ship",
        ]
        span_seconds = sorted(s.attributes["simulated_seconds"] for s in steps)
        timing_seconds = sorted(t.seconds for t in execution.steps)
        assert span_seconds == pytest.approx(timing_seconds)
        span_descriptions = {s.attributes["description"] for s in steps}
        assert span_descriptions == {t.description for t in execution.steps}

        # Agent executions nest under their step; engine under the agent.
        for agent_span in (s for s in spans if s.name == "mdbs.agent.execute"):
            assert by_id[agent_span.parent_id].name in (
                "mdbs.step.select",
                "mdbs.step.join",
            )
        for engine_span in (s for s in spans if s.name == "engine.execute"):
            # Plan-step work runs via an agent; probing runs the probe
            # query directly against the local database.
            assert by_id[engine_span.parent_id].name in (
                "mdbs.agent.execute",
                "mdbs.probe",
            )

        # Probing queries (issued during optimization) are traced too.
        probes = [s for s in spans if s.name == "mdbs.probe"]
        assert probes
        assert all(s.attributes["mode"] == "observed" for s in probes)

        # Well-formed: every span closed, children inside their parents.
        for span in spans:
            assert span.end is not None
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert parent.start <= span.start <= span.end <= parent.end

    def test_trace_exports_as_jsonl(self, mini_mdbs, globalq, tmp_path):
        import json

        from repro import obs

        server, _ = mini_mdbs
        _, spans = self.run_traced(server, globalq)
        path = tmp_path / "mdbs_trace.jsonl"
        count = obs.write_jsonl(spans, path)
        decoded = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(decoded) == count == len(spans)
        ids = {e["span_id"] for e in decoded}
        assert all(e["parent_id"] is None or e["parent_id"] in ids for e in decoded)

    def test_counters_and_gauges(self, mini_mdbs, globalq):
        from repro import obs

        server, _ = mini_mdbs
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            execution = server.execute(globalq)
        finally:
            obs.set_registry(previous)
        assert registry.counter_value("mdbs.global_queries") == 1.0
        assert registry.counter_value("mdbs.probes.observed") > 0
        snapshot = registry.snapshot()
        assert snapshot["mdbs.last_observed_seconds"]["value"] == pytest.approx(
            execution.observed_seconds
        )
        assert snapshot["mdbs.last_estimated_seconds"]["value"] == pytest.approx(
            execution.estimated_seconds
        )
        assert snapshot["mdbs.step_seconds"]["count"] == len(execution.steps)

    def test_untraced_execution_records_nothing(self, mini_mdbs, globalq):
        from repro import obs

        server, _ = mini_mdbs
        assert not obs.enabled()
        execution = server.execute(globalq)
        assert execution.cardinality >= 0
        assert obs.get_tracer().finished() == []
