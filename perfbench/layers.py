"""The program's layers as the traced run sees them.

:func:`install` wraps the public entry points of each layer with
:class:`~perfbench.spans.SpanRecorder` spans (or plain call counts where a span
per call would cost more than the call).  :func:`per_layer_metrics`
turns a finished recording into the named per-layer metrics listed in
``BENCHMARK.json``.

Span names and the functions they wrap:

==========================  ==============================================
``serving.request``         the client's ``ServingFrontEnd.serve`` call
``serving.plan_cache``      ``PlanCache.lookup`` / ``put`` / ``invalidate_model``
``mdbs.optimize``           ``GlobalQueryOptimizer.plans``
``mdbs.probe``              ``ProbingService.probe``
``mdbs.probe.query``        ``MDBSAgent.observed/estimated_probing_cost``
``mdbs.execute``            ``MDBSServer.execute``
``mdbs.select``             ``MDBSAgent.execute`` of a selection
``mdbs.join``               ``MDBSAgent.execute`` of a join
``mdbs.materialize``        ``MDBSAgent.create_temp_table``
``mdbs.accuracy``           ``AccuracyTracker.record``
``mdbs.online_update``      ``CostModelStrategy.update``
``mdbs.maintain``           ``MDBSServer.maintain``
``mdbs.registry.publish``   ``CostModelRegistry.publish``
``loadgen.universe``        ``repro.loadgen.worker.make_universe``
``engine.execute``          ``LocalDatabase.execute``
``engine.bulk_load``        ``Table.bulk_load``
``engine.analyze``          ``Table.analyze``
``core.sampling``           ``CostModelBuilder.collect``
``workload.querygen``       ``QueryGenerator.queries_for``
``core.derive``             ``CostModelBuilder.build_from_observations``
``core.partition``          ``determine_states_iupma`` / ``_icma``
``core.selection``          ``select_variables``
``core.validate``           ``repro.core.validation.validate_model``
==========================  ==============================================

Counted, not spanned: ``mlr.fit`` (every ``fit_ols`` / ``rls_fit`` /
``sgd_fit`` call made by the fitting and strategy layers) and
``mdbs.online_update.record`` (``CostModelRegistry.record_online_update``).
"""

from __future__ import annotations

import statistics

from perfbench.spans import SpanIndex, SpanRecorder


def install(recorder: SpanRecorder, derived: list) -> None:
    """Wrap every layer entry point listed in the module docstring.

    Each ``(model, observations)`` pair a derivation produces is appended
    to *derived* (model-sanity counting).
    """
    from repro.core import builder as core_builder
    from repro.core import fitting, strategy, validation
    from repro.core.builder import CostModelBuilder
    from repro.engine.database import LocalDatabase
    from repro.engine.query import JoinQuery
    from repro.engine.table import Table
    from repro.loadgen import worker
    from repro.mdbs.agent import MDBSAgent
    from repro.mdbs.optimizer import GlobalQueryOptimizer
    from repro.mdbs.probing_service import ProbingService
    from repro.mdbs.registry import CostModelRegistry
    from repro.mdbs.server import MDBSServer
    from repro.obs.quality import AccuracyTracker
    from repro.serving.plan_cache import PlanCache
    from repro.workload.querygen import QueryGenerator

    wrap = recorder.wrap
    wrap(
        PlanCache,
        "lookup",
        "serving.plan_cache",
        lambda args, kwargs, result: {"lookups": 1, "hits": int(result[0] is not None)},
    )
    wrap(PlanCache, "put", "serving.plan_cache")
    wrap(
        PlanCache,
        "invalidate_model",
        "serving.plan_cache",
        lambda args, kwargs, evicted: {"invalidated": evicted},
    )
    wrap(GlobalQueryOptimizer, "plans", "mdbs.optimize")
    wrap(ProbingService, "probe", "mdbs.probe")
    wrap(MDBSAgent, "observed_probing_cost", "mdbs.probe.query")
    wrap(MDBSAgent, "estimated_probing_cost", "mdbs.probe.query")
    wrap(
        MDBSServer,
        "execute",
        "mdbs.execute",
        lambda args, kwargs, execution: {
            "join_site": execution.plan.join_site,
            "ship_sim_s": execution.steps[2].seconds,
        },
    )
    wrap(
        MDBSAgent,
        "execute",
        lambda agent, query, *args, **kwargs: (
            "mdbs.join" if isinstance(query, JoinQuery) else "mdbs.select"
        ),
        lambda args, kwargs, result: {"rows": result.cardinality},
    )
    wrap(
        MDBSAgent,
        "create_temp_table",
        "mdbs.materialize",
        lambda args, kwargs, result: {"rows": len(args[4])},
    )
    wrap(AccuracyTracker, "record", "mdbs.accuracy")
    wrap(strategy.CostModelStrategy, "update", "mdbs.online_update")
    recorder.count(CostModelRegistry, "record_online_update", "mdbs.online_update.record")
    wrap(MDBSServer, "maintain", "mdbs.maintain")
    wrap(CostModelRegistry, "publish", "mdbs.registry.publish")
    wrap(worker, "make_universe", "loadgen.universe")
    wrap(LocalDatabase, "execute", "engine.execute")
    wrap(Table, "bulk_load", "engine.bulk_load")
    wrap(Table, "analyze", "engine.analyze")
    wrap(
        CostModelBuilder,
        "collect",
        "core.sampling",
        lambda args, kwargs, result: {"queries": len(result)},
    )

    wrap(QueryGenerator, "queries_for", "workload.querygen")
    wrap_derivations(recorder, derived, "core.derive")
    wrap(core_builder, "determine_states_iupma", "core.partition")
    wrap(core_builder, "determine_states_icma", "core.partition")
    wrap(core_builder, "select_variables", "core.selection")
    wrap(validation, "validate_model", "core.validate")
    recorder.count(fitting, "fit_ols", "mlr.fit")
    recorder.count(strategy, "rls_fit", "mlr.fit")
    recorder.count(strategy, "sgd_fit", "mlr.fit")


def wrap_derivations(recorder: SpanRecorder, derived: list, name: str) -> None:
    """Span each ``build_from_observations`` call as *name* and append its
    ``(model, observations)`` to *derived*."""
    from repro.core.builder import CostModelBuilder

    recorder.wrap(
        CostModelBuilder,
        "build_from_observations",
        name,
        lambda args, kwargs, outcome: derived.append((outcome.model, outcome.observations)),
    )


def _median_ms(seconds: list[float]) -> float:
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def per_layer_metrics(
    recorder: SpanRecorder,
    *,
    queue_waits: list[float],
    sanity: dict,
    overhead_pct: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of ``BENCHMARK.json``: name -> (value, unit).

    *queue_waits* holds the tickets' ``wait_seconds``, *sanity* the model
    sanity counts (:func:`checks.model_sanity`), and *overhead_pct* the
    traced phase's wall time over the untraced phases', minus one.
    """
    index = SpanIndex(recorder.spans)
    counts = recorder.counts

    def calls(name: str, under: str | None = None) -> int:
        return len(index.named(name, under))

    shipped = 0
    for span in index.named("mdbs.execute"):
        selects = [
            c for c in index.children.get(span.span_id, ()) if c.name == "mdbs.select"
        ]
        if span.attrs and len(selects) == 2:
            # Left selection first, right second; the side not at the
            # join site is the one shipped.
            side = selects[0] if span.attrs["join_site"] == "right" else selects[1]
            shipped += side.attrs["rows"]
    lookups = index.attr_sum("serving.plan_cache", "lookups")
    hits = index.attr_sum("serving.plan_cache", "hits")

    metrics = {
        "serving.queue_wait_ms_p50": (_median_ms(queue_waits), "ms"),
        "serving.request.self_s": (index.self_time("serving.request"), "s"),
        "serving.plan_cache.hit_rate": (hits / lookups if lookups else 0.0, "ratio"),
        "serving.plan_cache.hits": (hits, "count"),
        "serving.plan_cache.misses": (lookups - hits, "count"),
        "serving.plan_cache.invalidated": (
            index.attr_sum("serving.plan_cache", "invalidated"),
            "count",
        ),
        "serving.plan_cache.self_s": (index.self_time("serving.plan_cache"), "s"),
        "mdbs.optimize.calls": (calls("mdbs.optimize"), "count"),
        "mdbs.optimize.busy_s": (index.busy("mdbs.optimize"), "s"),
        "mdbs.probe.calls": (calls("mdbs.probe"), "count"),
        "mdbs.probe.executed": (calls("mdbs.probe.query"), "count"),
        "mdbs.probe.busy_s": (index.busy("mdbs.probe"), "s"),
        "mdbs.select.busy_s": (index.busy("mdbs.select"), "s"),
        "mdbs.select.rows": (index.attr_sum("mdbs.select", "rows"), "count"),
        "mdbs.join.busy_s": (index.busy("mdbs.join"), "s"),
        "mdbs.join.rows": (index.attr_sum("mdbs.join", "rows"), "count"),
        "mdbs.ship.tuples": (shipped, "count"),
        "mdbs.ship.sim_s": (index.attr_sum("mdbs.execute", "ship_sim_s"), "s"),
        "mdbs.materialize.calls": (calls("mdbs.materialize"), "count"),
        "mdbs.materialize.rows": (index.attr_sum("mdbs.materialize", "rows"), "count"),
        "mdbs.materialize.busy_s": (index.busy("mdbs.materialize"), "s"),
        "mdbs.execute.calls": (calls("mdbs.execute"), "count"),
        "mdbs.execute.self_s": (index.self_time("mdbs.execute"), "s"),
        "mdbs.accuracy.busy_s": (index.busy("mdbs.accuracy"), "s"),
        "mdbs.online_update.calls": (counts["mdbs.online_update.record"], "count"),
        "mdbs.online_update.busy_s": (index.busy("mdbs.online_update"), "s"),
        "mdbs.maintain.calls": (calls("mdbs.maintain"), "count"),
        "mdbs.maintain.busy_s": (index.busy("mdbs.maintain"), "s"),
        "mdbs.registry.publishes": (calls("mdbs.registry.publish"), "count"),
        "loadgen.universe.busy_s": (index.busy("loadgen.universe"), "s"),
        "engine.execute.calls": (calls("engine.execute"), "count"),
        "engine.execute.busy_s": (index.busy("engine.execute"), "s"),
        "engine.bulk_load.busy_s": (
            index.busy("engine.bulk_load", under="mdbs.materialize"),
            "s",
        ),
        "engine.analyze.busy_s": (
            index.busy("engine.analyze", under="mdbs.materialize"),
            "s",
        ),
        "core.sampling.busy_s": (index.busy("core.sampling"), "s"),
        "core.sampling.queries": (index.attr_sum("core.sampling", "queries"), "count"),
        "workload.querygen.busy_s": (index.busy("workload.querygen"), "s"),
        "core.derive.calls": (calls("core.derive"), "count"),
        "core.partition.busy_s": (index.busy("core.partition"), "s"),
        "core.selection.busy_s": (index.busy("core.selection"), "s"),
        "mlr.fit.calls": (counts["mlr.fit"], "count"),
        "core.validate.busy_s": (index.busy("core.validate"), "s"),
        "core.model.negative_estimates": (sanity["negative_estimates"], "count"),
        "core.model.state_inversions": (sanity["state_inversions"], "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.spans": (len(recorder.spans), "count"),
    }
    return metrics
