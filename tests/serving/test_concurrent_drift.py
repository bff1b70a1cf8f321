"""End-to-end: a batched front end riding out a regime shift.

The full adaptive loop with four service slots: the front end serves
batched global joins while the workload's contention regime shifts
underneath it; the armed drift policy turns the watched
class's collapsing accuracy window into a targeted re-derivation; the
registry publish invalidates exactly the stale cached plans; and the
rebuilt model brings accuracy back into the §5 good band *under the new
regime* — while every request keeps completing.
"""

import pytest

from repro.core.builder import CostModelBuilder
from repro.loadgen import (
    VAR_SITE,
    WATCHED_CLASS,
    loadgen_builder_config,
    loadgen_drift_policy,
    loadgen_tables,
    make_universe,
    train_models,
)
from repro.loadgen.worker import _MODEL_CLASSES, _round_query
from repro.mdbs.agent import MDBSAgent
from repro.mdbs.server import MDBSServer
from repro.obs.quality import AccuracyTracker
from repro.serving import ServingConfig, ServingFrontEnd

from ..loadgen.conftest import MICRO

GAP = 600.0
ROUNDS = 16
SHIFT_ROUND = 5
QUERIES_PER_ROUND = 4

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def payload():
    return train_models(MICRO)


def test_pool_survives_regime_shift_and_recovers(payload):
    import numpy as np

    var, steady = make_universe(MICRO)
    tables = loadgen_tables(MICRO)
    tracker = AccuracyTracker(probe_window_size=8, export=False)
    server = MDBSServer(accuracy=tracker, probe_ttl=GAP / 4.0)
    for site in (var, steady):
        server.register_agent(MDBSAgent(site.database))
    server.catalog.import_models(payload)

    agent = server.agents[var.name]
    server.configure_maintenance(
        var.name,
        builder=CostModelBuilder(
            agent.database, probe=agent.probe, config=loadgen_builder_config()
        ),
        drift=loadgen_drift_policy(GAP),
    )
    for query_class in _MODEL_CLASSES:
        server.register_model_class(
            var.name,
            query_class,
            lambda n, qc=query_class: var.generator.queries_for(
                qc, n, tables=tables
            ),
            sample_count=MICRO.train_count(query_class.family),
            build_now=False,
        )

    rng = np.random.default_rng(4242)
    serving = ServingConfig(
        workers=4,
        queue_depth=32,
        admission_policy="block",
        plan_cache=True,
    )
    detect_round = recover_round = None
    completed = failed = 0
    with ServingFrontEnd(server, serving) as frontend:
        for r in range(ROUNDS):
            var.environment.advance(GAP)
            steady.environment.advance(GAP)
            if r == SHIFT_ROUND:
                # The regime shift: contention pins near saturation.
                var.load_builder.constant(0.9)

            # The whole round is admitted as one batch over four slots.
            batch = [
                _round_query(var, steady, tables, rng)
                for _ in range(QUERIES_PER_ROUND)
            ]
            tickets = frontend.serve(batch)
            completed += sum(1 for t in tickets if t.ok)
            failed += sum(1 for t in tickets if not t.ok)

            before = len(server.drift_events)
            server.maintain()
            if detect_round is None and len(server.drift_events) > before:
                if r >= SHIFT_ROUND:
                    detect_round = r
            stats = tracker.stats(var.name, WATCHED_CLASS)
            if (
                detect_round is not None
                and recover_round is None
                and r > detect_round
                and stats.count >= 3
                and stats.pct_good >= 50.0
            ):
                recover_round = r
        front_stats = frontend.stats()

    # Nothing dropped, nothing errored.
    assert completed == ROUNDS * QUERIES_PER_ROUND
    assert failed == 0
    assert front_stats.completed == completed

    # The loop closed: shift detected, model re-derived and published,
    # post-rebuild accuracy back in the good band under the new regime.
    assert detect_round is not None, "drift never detected after the shift"
    assert detect_round - SHIFT_ROUND <= 4
    registry = server.catalog.registry
    active = registry.active_version(VAR_SITE, WATCHED_CLASS)
    assert active.version > 1
    assert active.provenance.trigger is not None
    assert recover_round is not None, "accuracy never returned to the good band"

    # The publish reached the plan cache: dependent entries were evicted
    # (the cache was warm before the shift, so invalidations are visible).
    assert front_stats.plan_cache_invalidated > 0
