"""Front-end behavior: determinism guard, plan sourcing, tracing.

The determinism guard: with the plan cache off, every slot count must
produce byte-identical plan choices (and results) to the synchronous
``MDBSServer.execute`` path in submission order.  The tracing tests pin
one *connected* span tree per request.
"""

import pytest

from repro import obs
from repro.mdbs.gquery import GlobalJoinQuery
from repro.serving import ServingConfig, ServingFrontEnd

from .conftest import query_mix


def rewound(server, sites, run):
    """``run()`` from a snapshotted state, which is restored afterwards."""
    snapshot = {n: s.database.save_state() for n, s in sites.items()}
    server.probing.invalidate()
    outcomes = run()
    for name, site in sites.items():
        site.database.restore_state(snapshot[name])
    server.probing.invalidate()
    return outcomes


def assert_serves_like_synchronous_server(server, sites, workers):
    """plan_cache=False == plain server.execute in submission order,
    byte for byte: plan text, estimates, result rows, observed timings."""
    queries = query_mix()
    reference = rewound(server, sites, lambda: [server.execute(q) for q in queries])
    config = ServingConfig(workers=workers, plan_cache=False)
    with ServingFrontEnd(server, config) as frontend:
        tickets = rewound(server, sites, lambda: frontend.serve(queries))

    assert [t.status for t in tickets] == ["completed"] * len(queries)
    for ticket, ref in zip(tickets, reference):
        assert ticket.execution.plan.describe() == ref.plan.describe()
        assert ticket.execution.plan.join_site == ref.plan.join_site
        assert ticket.execution.rows == ref.rows
        assert ticket.execution.steps == ref.steps
        assert ticket.plan_source == "optimizer"


class TestDeterminismGuard:
    def test_pool_of_one_matches_synchronous_server(self, serving_mdbs):
        server, sites = serving_mdbs
        assert_serves_like_synchronous_server(server, sites, workers=1)

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_slot_count_never_changes_plans_or_rows(self, serving_mdbs, workers):
        """Execution order is submission order at any slot count."""
        server, sites = serving_mdbs
        assert_serves_like_synchronous_server(server, sites, workers)

    def test_cache_off_config_has_no_cache(self, serving_mdbs):
        server, _ = serving_mdbs
        frontend = ServingFrontEnd(server, ServingConfig(plan_cache=False))
        assert frontend.plan_cache is None


class TestConcurrentServing:
    def test_pool_completes_a_repeated_class_workload(self, serving_mdbs):
        server, _ = serving_mdbs
        queries = query_mix() * 13  # 78 requests over 6 distinct queries
        config = ServingConfig(workers=8)
        with ServingFrontEnd(server, config) as frontend:
            tickets = frontend.serve(queries)
            stats = frontend.stats()

        assert all(t.ok for t in tickets), [t.error for t in tickets if not t.ok]
        assert stats.completed == len(queries)
        assert stats.dropped == 0
        # Repeats of a query within unchanged contention states must be
        # served from the plan cache (ISSUE acceptance: > 90%).
        assert stats.plan_cache_hit_rate > 0.9
        # A cached plan is the same decision the optimizer would make:
        # every repeat of a query picks the same join site.
        by_query = {}
        for ticket in tickets:
            key = str(ticket.query)
            site = ticket.execution.plan.join_site
            assert by_query.setdefault(key, site) == site

    def test_cache_and_optimizer_sources_are_labelled(self, serving_mdbs):
        server, _ = serving_mdbs
        queries = query_mix()
        config = ServingConfig(workers=1)
        with ServingFrontEnd(server, config) as frontend:
            first = frontend.serve(queries)
            second = frontend.serve(queries)
        assert [t.plan_source for t in first] == ["optimizer"] * len(queries)
        assert [t.plan_source for t in second] == ["cache"] * len(queries)

    def test_tickets_expose_simulated_latency(self, serving_mdbs):
        server, _ = serving_mdbs
        with ServingFrontEnd(server, ServingConfig(workers=2)) as frontend:
            [ticket] = frontend.serve(query_mix()[:1])
        assert ticket.ok
        assert ticket.wait_seconds == 0.0  # a free slot was waiting
        assert ticket.latency_seconds == ticket.execution.observed_seconds

    def test_stats_survive_an_emptied_plan_cache(self, serving_mdbs):
        """An empty PlanCache is falsy (it has __len__); its lifetime
        counters must still be reported."""
        server, _ = serving_mdbs
        with ServingFrontEnd(server, ServingConfig(workers=1)) as frontend:
            frontend.serve(query_mix())
            frontend.serve(query_mix())
            for site, label in server.catalog.registry.keys():
                frontend.plan_cache.invalidate_model(site, label)
            assert len(frontend.plan_cache) == 0
            stats = frontend.stats()
        assert stats.plan_cache_hits == len(query_mix())
        assert stats.plan_cache_misses == len(query_mix())
        assert stats.plan_cache_invalidated == len(query_mix())


class TestTracing:
    def test_each_request_yields_one_connected_tree(self, serving_mdbs):
        """Every ticket's spans form a single tree rooted at its
        ``serving.request``, which carries the simulated wait."""
        server, _ = serving_mdbs
        config = ServingConfig(workers=4, trace_id_prefix="t-")
        with obs.recording() as tracer:
            with ServingFrontEnd(server, config) as frontend:
                tickets = frontend.serve(query_mix())
        assert all(t.ok for t in tickets)
        for ticket in tickets:
            assert ticket.trace_id == f"t-q{ticket.index:06d}"
            spans = tracer.trace(ticket.trace_id)
            by_id = {s.span_id: s for s in spans}
            roots = [s for s in spans if s.parent_id is None]
            assert [r.name for r in roots] == ["serving.request"]
            for span in spans:
                # Every span's parent chain ends at the root: no orphans.
                seen = set()
                while span.parent_id is not None:
                    assert span.span_id not in seen
                    seen.add(span.span_id)
                    span = by_id[span.parent_id]
                assert span.name == "serving.request"
            names = {s.name for s in spans}
            assert {"serving.plan", "serving.execute", "mdbs.step.materialize"} <= names
            root = roots[0]
            assert root.attributes["status"] == "completed"
            assert root.attributes["wait_seconds"] == ticket.wait_seconds

    def test_plan_spans_carry_decision_provenance(self, serving_mdbs):
        server, _ = serving_mdbs
        config = ServingConfig(workers=1)
        with obs.recording() as tracer:
            with ServingFrontEnd(server, config) as frontend:
                [first] = frontend.serve(query_mix()[:1])
                [repeat] = frontend.serve(query_mix()[:1])

        def plan_span(ticket):
            return next(
                s
                for s in tracer.trace(ticket.trace_id)
                if s.name == "serving.plan"
            )

        miss, hit = plan_span(first), plan_span(repeat)
        assert miss.attributes["source"] == "optimizer"
        assert miss.attributes["cache"] != "hit"
        assert hit.attributes["source"] == "cache"
        assert hit.attributes["cache"] == "hit"
        for attrs in (miss.attributes, hit.attributes):
            assert attrs["join_site"]
            assert attrs["estimated_seconds"] > 0.0
            assert ":" in attrs["models"]  # site/class=vN:form tags
        # The execute span pairs the estimate with the observed outcome.
        exec_span = next(
            s
            for s in tracer.trace(first.trace_id)
            if s.name == "serving.execute"
        )
        assert "estimated_seconds" in exec_span.attributes
        assert "observed_seconds" in exec_span.attributes

    def test_unsampled_requests_record_nothing(self, serving_mdbs):
        server, _ = serving_mdbs
        config = ServingConfig(workers=2, trace_sample_rate=0.0)
        with obs.recording() as tracer:
            with ServingFrontEnd(server, config) as frontend:
                tickets = frontend.serve(query_mix())
                dropped = frontend.sampler.dropped
        assert all(t.ok for t in tickets)
        assert all(t.trace_id is not None for t in tickets)
        assert not any(t.trace_sampled for t in tickets)
        assert tracer.finished() == []
        assert dropped == len(tickets)

    def test_failed_request_is_force_kept_as_a_stub(self, serving_mdbs):
        server, _ = serving_mdbs
        bad = GlobalJoinQuery("oracle_site", "R1", "db2_site", "NOPE", "a4", "a4")
        config = ServingConfig(workers=1, trace_sample_rate=0.0)
        with obs.recording() as tracer:
            with ServingFrontEnd(server, config) as frontend:
                [ticket] = frontend.serve([bad])
                forced = frontend.sampler.forced
        assert ticket.status == "failed"
        (stub,) = tracer.trace(ticket.trace_id)
        assert stub.name == "serving.request"
        assert stub.attributes["status"] == "failed"
        assert forced == 1

    def test_kept_set_is_identical_at_any_worker_count(self, serving_mdbs):
        """Deterministic sampling: same seed + same trace ids => the same
        kept subset, whatever the slot count."""
        server, _ = serving_mdbs
        queries = query_mix() * 4
        kept_sets = []
        for workers in (1, 4):
            config = ServingConfig(
                workers=workers, trace_sample_rate=0.5, trace_seed=3
            )
            with obs.recording() as tracer:
                with ServingFrontEnd(server, config) as frontend:
                    tickets = frontend.serve(queries)
            assert all(t.ok for t in tickets)
            # The hash-kept set is the deterministic contract; accuracy
            # force-keeps may differ (the shared tracker has already
            # seen the first run's samples when the second run starts).
            kept = {t.trace_id for t in tickets if t.trace_sampled}
            retained = {s.trace_id for s in tracer.finished() if s.trace_id}
            assert kept <= retained  # every kept trace still has spans
            kept_sets.append(kept)
        assert kept_sets[0] == kept_sets[1]
        assert 0 < len(kept_sets[0]) < len(queries)

    def test_drift_exemplar_resolves_to_a_full_span_tree(self, serving_mdbs):
        """Integration: the trace id a drift event embeds as an exemplar
        points at a trace the sampler kept — the postmortem handle."""
        from repro.obs.quality import DriftDetector, DriftPolicy

        server, _ = serving_mdbs
        config = ServingConfig(workers=2)
        with obs.recording() as tracer:
            with ServingFrontEnd(server, config) as frontend:
                tickets = frontend.serve(query_mix())
            # A burst of out-of-band samples against one served trace:
            # the worst-error exemplar slot now holds its trace id.
            victim = tickets[0]
            for _ in range(32):
                server.accuracy.record(
                    "oracle_site",
                    "G1",
                    0,
                    predicted=1.0,
                    actual=16.0,
                    trace_id=victim.trace_id,
                )
            detector = DriftDetector(
                DriftPolicy(min_samples=12, probe_escape_fraction=None)
            )
            events = detector.check(
                server.accuracy, "oracle_site", {"G1": 0}, now=0.0
            )
        assert events, "the bad-sample burst raised no drift event"
        exemplars = events[0].stats.get("exemplar_traces")
        assert exemplars and victim.trace_id in exemplars
        spans = tracer.trace(victim.trace_id)
        assert {s.name for s in spans} >= {
            "serving.request",
            "serving.plan",
            "serving.execute",
        }


class TestLifecycle:
    def test_submit_requires_start(self, serving_mdbs):
        server, _ = serving_mdbs
        frontend = ServingFrontEnd(server, ServingConfig(workers=1))
        with pytest.raises(RuntimeError):
            frontend.serve(query_mix()[:1])

    def test_submit_after_close_raises(self, serving_mdbs):
        server, _ = serving_mdbs
        frontend = ServingFrontEnd(server, ServingConfig(workers=1)).start()
        frontend.close()
        with pytest.raises(RuntimeError):
            frontend.serve(query_mix()[:1])

    def test_close_is_idempotent_and_start_after_close_raises(self, serving_mdbs):
        server, _ = serving_mdbs
        frontend = ServingFrontEnd(server, ServingConfig(workers=1)).start()
        frontend.close()
        frontend.close()
        with pytest.raises(RuntimeError):
            frontend.start()

    def test_failed_request_does_not_kill_its_worker(self, serving_mdbs):
        server, _ = serving_mdbs
        bad = GlobalJoinQuery("oracle_site", "R1", "db2_site", "NOPE", "a4", "a4")
        with ServingFrontEnd(server, ServingConfig(workers=1)) as frontend:
            failed = frontend.serve([bad])[0]
            ok = frontend.serve(query_mix()[:1])[0]
            stats = frontend.stats()
        assert failed.status == "failed"
        assert isinstance(failed.error, Exception)
        assert ok.ok
        assert stats.failed == 1 and stats.completed == 1
