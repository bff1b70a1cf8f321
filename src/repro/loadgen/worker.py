"""One load-generation shard: a self-contained MDBS universe under load.

A **shard** is the unit of determinism.  Given its :class:`ShardTask`
and the coordinator's trained-model payload, :func:`run_shard` is a pure
function: it builds a fresh two-site universe from seeds derived only
from (config seed, shard index), imports the models through the registry
payload, and serves a scripted timeline of global joins through its own
single-worker serving front end — so the report it returns is
byte-identical whether the shard runs in the coordinator's process, in a
pool worker, or alone in a test.

Per round the shard:

1. advances both sites' simulated clocks by the round gap;
2. steps its :class:`~repro.loadgen.faults.FaultInjector` (outages and
   slowdowns activate/clear on the simulated clock);
3. re-installs the scenario's contention trace at the ``regime_shift``
   boundary (unless a fault currently owns the trace);
4. serves its queries through the front end (plan cache on, so registry
   publishes from drift rebuilds invalidate exactly the stale plans);
5. runs :meth:`~repro.mdbs.server.MDBSServer.maintain`, which is where
   the armed drift policy turns bad accuracy windows into targeted
   re-derivations.

The shard's models are **imported, not trained**: classes register with
``build_now=False`` so the maintainer can rebuild them on drift without
repeating the coordinator's initial derivation in every worker.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field

import numpy as np

from .. import obs

from ..core.builder import BuilderConfig, CostModelBuilder
from ..core.classification import G1, G3
from ..core.iupma import StatesConfig
from ..core.strategy import DEFAULT_STRATEGY
from ..engine.predicate import Comparison
from ..engine.profiles import DB2_LIKE, ORACLE_LIKE
from ..env.loadbuilder import LoadBuilder
from ..experiments.config import ExperimentConfig
from ..experiments.harness import stable_rng, stable_seed
from ..mdbs.agent import MDBSAgent
from ..mdbs.catalog import GlobalCatalog
from ..mdbs.gquery import GlobalJoinQuery
from ..mdbs.server import MDBSServer
from ..obs.quality import AccuracyTracker, DriftPolicy
from ..serving.config import ServingConfig
from ..serving.frontend import ServingFrontEnd
from ..workload.scenarios import (
    SCENARIO_CALM_RANGE,
    Site,
    install_scenario_trace,
    make_two_site_universe,
    scenario_shift_round,
)
from .faults import FaultEvent, FaultInjector

#: The two sites every shard (and the coordinator's trainer) builds.
VAR_SITE = "var_site"
STEADY_SITE = "steady_site"

#: The class whose accuracy window the drift loop is measured on: the
#: variable site's local selection executes every round no matter which
#: join site the optimizer picks (same reasoning as the drift-detection
#: experiment).
WATCHED_CLASS = G1.label

_MODEL_CLASSES = (G1, G3)


def universe_seed(config: ExperimentConfig) -> int:
    """The seed the loadgen universe derives from — shared by *every*
    shard, so the coordinator-trained models import cleanly into
    byte-identical site copies."""
    return stable_seed(config.seed, "loadgen")


def loadgen_tables(config: ExperimentConfig) -> list[str]:
    return list(config.join_tables or ("R1", "R2", "R3", "R4"))


def loadgen_builder_config(strategy: str = DEFAULT_STRATEGY) -> BuilderConfig:
    """Fewer, better-identified states (the drift experiment's tuning).

    *strategy* picks the model-form strategy the shard's builds and
    drift rebuilds go through (``"mlr.ols"`` reproduces the pre-strategy
    behavior byte for byte).
    """
    return BuilderConfig(
        states=StatesConfig(max_states=4, min_obs_per_state=25),
        strategy=strategy,
    )


def loadgen_drift_policy(gap_seconds: float) -> DriftPolicy:
    """Drift thresholds tuned to ~2 accuracy samples per served round.

    The fault window is only a handful of rounds at smoke scale, so the
    accuracy rules must look at a short recent window or pre-fault good
    samples dilute the misses past the floor — but short enough windows
    misfire on a healthy model's occasional bad stretch.  At the default
    three queries (three watched-class samples) per round, a 9-sample
    window fires about two rounds into a real fault while a misfire
    needs 5+ bad estimates among the last 9 on calm load.  The bias rule
    is disabled: ``good_band`` and ``probe_escape`` are the two signals
    left armed (the fault tests assert detection, not which of the two
    fired first).
    """
    return DriftPolicy(
        recent_window=9,
        min_samples=6,
        good_band_floor_pct=50.0,
        bias_limit=None,
        probe_escape_fraction=0.5,
        probe_min_readings=4,
        # Calm contention dips near zero, and micro training runs leave
        # Cmin well above it; a wide margin keeps those dips from
        # reading as escapes while pinned faults (whose probing costs
        # inflate several-fold) still escape decisively.
        probe_margin=0.5,
        cooldown_seconds=2.0 * gap_seconds,
    )


@dataclass(frozen=True)
class ShardTask:
    """Everything one shard needs, picklable for the process pool."""

    index: int
    scenario: str
    rounds: int
    gap_seconds: float
    config: ExperimentConfig
    faults: tuple[FaultEvent, ...] = ()
    queries_per_round: int = 3
    #: Model-form strategy this shard serves and rebuilds with.
    strategy: str = DEFAULT_STRATEGY
    #: Fraction of traces kept by the shard's deterministic sampler;
    #: 0 (the default) disables tracing entirely — the pre-tracing path.
    trace_sample_rate: float = 0.0


@dataclass
class RoundRecord:
    """One served round of a shard's timeline (simulated facts only)."""

    index: int
    sim_time: float
    #: A fault is active or the regime shift is in effect.
    disturbed: bool
    #: Fault transitions this round ("outage:applied", ...).
    fault_notes: list[str] = field(default_factory=list)
    #: True only on the round the scenario's regime shift begins.
    shift_started: bool = False
    #: Drift events raised by this round's maintain() pass.
    drift_events: list[dict] = field(default_factory=list)
    #: Watched-class aggregate after this round (post-rebuild windows
    #: start fresh, so this measures the *serving* model).
    good_pct: float = 0.0
    samples: int = 0
    active_version: int = 1


@dataclass
class ShardReport:
    """What one shard hands back to the coordinator.

    Everything except ``wall_latencies`` / ``wall_seconds`` is a pure
    function of (task, payload) — the coordinator's determinism guarantee
    merges only those fields.
    """

    index: int
    scenario: str
    rounds: list[RoundRecord]
    #: Model-form strategy the shard served with (see ShardTask).
    strategy: str = DEFAULT_STRATEGY
    requests: int = 0
    completed: int = 0
    failed: int = 0
    #: Simulated seconds per completed query, submission order.
    latencies: list[float] = field(default_factory=list)
    #: Real wall-clock seconds per request (nondeterministic).
    wall_latencies: list[float] = field(default_factory=list)
    drift_events: list[dict] = field(default_factory=list)
    #: (site, class, version, trigger) of drift-published versions.
    published: list[tuple] = field(default_factory=list)
    plan_sources: dict = field(default_factory=dict)
    plan_cache: dict = field(default_factory=dict)
    probes_executed: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)
    fault_log: list[tuple] = field(default_factory=list)
    models_imported: int = 0
    wall_seconds: float = 0.0
    #: Sampled span dicts (simulated-clock, shard-local span ids) —
    #: a pure function of the task, like the rest of the report, but
    #: excluded from ``deterministic_dict`` so committed bench payloads
    #: predating tracing stay schema-identical.
    trace_spans: list[dict] = field(default_factory=list)
    trace_sampled: int = 0
    trace_dropped: int = 0

    def deterministic_dict(self) -> dict:
        """The shard's report minus every wall-clock field."""
        payload = asdict(self)
        payload.pop("wall_latencies")
        payload.pop("wall_seconds")
        payload.pop("trace_spans")
        payload.pop("trace_sampled")
        payload.pop("trace_dropped")
        return payload


# ---------------------------------------------------------------------------
# Universe construction + one-time training (coordinator side)
# ---------------------------------------------------------------------------


def make_universe(config: ExperimentConfig) -> tuple[Site, Site]:
    """The standard loadgen universe: a variable and a steady site.

    Seeded from :func:`universe_seed` only, so the coordinator (which
    trains on one copy) and every shard (which serves on its own copy)
    hold byte-identical databases and generators.
    """
    useed = universe_seed(config)
    return make_two_site_universe(
        names=(VAR_SITE, STEADY_SITE),
        profiles=(ORACLE_LIKE, DB2_LIKE),
        seeds=(useed + 81, useed + 82),
        scale=config.scale,
        calm_range=SCENARIO_CALM_RANGE,
    )


def train_models(config: ExperimentConfig) -> dict:
    """Derive G1/G3 at both sites under the calm regime; export them.

    Runs once in the coordinator; shards import the payload and register
    their classes with ``build_now=False``.
    """
    return train_model_payloads(config, (DEFAULT_STRATEGY,))[DEFAULT_STRATEGY]


def train_model_payloads(
    config: ExperimentConfig, strategies: tuple[str, ...]
) -> dict[str, dict]:
    """One registry payload per model-form strategy, trained on one pass.

    Sampling the training queries is the expensive part; the observation
    set is collected once per (site, class) and every strategy derives
    its form from the same observations — so racing forms differ only in
    how they fit, never in what they saw.
    """
    var, steady = make_universe(config)
    tables = loadgen_tables(config)
    catalogs = {name: GlobalCatalog() for name in strategies}
    for site in (var, steady):
        for catalog in catalogs.values():
            catalog.register_site(site.name)
        builder = CostModelBuilder(
            site.database, config=loadgen_builder_config()
        )
        for query_class in _MODEL_CLASSES:
            queries = site.generator.queries_for(
                query_class,
                config.train_count(query_class.family),
                tables=tables,
            )
            observations = builder.collect(queries)
            for name, catalog in catalogs.items():
                outcome = builder.build_from_observations(
                    observations, query_class, "iupma", strategy=name
                )
                catalog.store_cost_model(site.name, outcome.model)
    return {name: catalog.export_models() for name, catalog in catalogs.items()}


# ---------------------------------------------------------------------------
# The shard itself (worker side)
# ---------------------------------------------------------------------------


def _round_query(
    var: Site, steady: Site, tables: list[str], rng: np.random.Generator
) -> GlobalJoinQuery:
    """One global join with the variable site on the left, so its local
    selection feeds the watched accuracy window every round."""
    left_table = tables[int(rng.integers(0, len(tables)))]
    remaining = [t for t in tables if t != left_table]
    right_table = remaining[int(rng.integers(0, len(remaining)))]
    return GlobalJoinQuery(
        var.name,
        left_table,
        steady.name,
        right_table,
        "a4",
        "a4",
        (f"{left_table}.a1", f"{right_table}.a2"),
        left_predicate=Comparison("a3", "<", int(rng.integers(600, 950))),
        right_predicate=Comparison("a7", "<", int(rng.integers(35000, 48000))),
    )


def run_shard(task: ShardTask, payload: dict) -> ShardReport:
    """Serve one shard's full timeline; see the module docstring."""
    started = time.perf_counter()
    config = task.config
    var, steady = make_universe(config)
    tables = loadgen_tables(config)

    # A private tracker keeps pool workers hermetic and gives each shard
    # its own drift bookkeeping; export=False keeps the hot path off the
    # global metrics registry.
    tracker = AccuracyTracker(probe_window_size=8, export=False)
    # A sub-round probe TTL makes each round contribute ONE executed
    # probe (requests within the round share it), so the escape rule's
    # window spans independent contention epochs instead of filling
    # with copies of a single draw.
    server = MDBSServer(accuracy=tracker, probe_ttl=task.gap_seconds / 4.0)
    for site in (var, steady):
        server.register_agent(MDBSAgent(site.database))
    imported = server.catalog.import_models(payload)

    agent = server.agents[var.name]
    server.configure_maintenance(
        var.name,
        # The builder captures the *original* probe object, so drift
        # rebuilds keep working while an outage has swapped agent.probe.
        builder=CostModelBuilder(
            agent.database,
            probe=agent.probe,
            config=loadgen_builder_config(task.strategy),
        ),
        drift=loadgen_drift_policy(task.gap_seconds),
    )
    for query_class in _MODEL_CLASSES:
        server.register_model_class(
            var.name,
            query_class,
            lambda n, s=var, qc=query_class: s.generator.queries_for(
                qc, n, tables=tables
            ),
            sample_count=config.train_count(query_class.family),
            build_now=False,
            strategy=task.strategy,
        )

    # Per-shard variety comes from two derived streams only: the query
    # stream and the contention trace (a fresh builder with a per-shard
    # seed replaces make_site's shared-seed one).
    stream = stable_rng(config.seed, f"loadgen/shard{task.index}/stream")
    trace_builder = LoadBuilder(
        var.environment,
        seed=stable_seed(config.seed, f"loadgen/shard{task.index}/trace"),
    )
    current_round = [0]

    def restore_trace() -> None:
        install_scenario_trace(
            trace_builder, task.scenario, current_round[0], task.rounds
        )

    restore_trace()
    injector = FaultInjector(task.faults, agent, trace_builder, restore_trace)

    report = ShardReport(
        index=task.index,
        scenario=task.scenario,
        rounds=[],
        strategy=task.strategy,
        models_imported=imported,
    )
    registry = server.catalog.registry
    shift_round = scenario_shift_round(task.rounds)
    shift_seen = False

    serving = ServingConfig(
        workers=1,
        queue_depth=max(16, task.queries_per_round * 2),
        admission_policy="block",
        plan_cache=True,
        trace_sample_rate=task.trace_sample_rate,
        trace_seed=stable_seed(config.seed, "loadgen/trace"),
        trace_id_prefix=f"s{task.index:03d}-",
    )
    tracer: obs.Tracer | None = None
    scope = ExitStack()
    if task.trace_sample_rate > 0.0:
        # Spans clock on the shard's *simulated* time with shard-local
        # span ids, so the exported spans — like the rest of the report
        # — are a pure function of (task, payload), whatever process or
        # worker count runs the shard.
        tracer = scope.enter_context(
            obs.recording(clock=lambda: var.environment.now, local_ids=True)
        )
    with scope, ServingFrontEnd(server, serving) as frontend:
        for r in range(task.rounds):
            current_round[0] = r
            var.environment.advance(task.gap_seconds)
            steady.environment.advance(task.gap_seconds)
            notes = injector.step(var.environment.now)
            shift_active = (
                task.scenario == "regime_shift" and r >= shift_round
            )
            shift_started = shift_active and not shift_seen
            if shift_started:
                shift_seen = True
                if injector.active is None:
                    # The fault layer owns the trace while active; the
                    # restore callback re-applies the shift on clear.
                    restore_trace()

            for _ in range(task.queries_per_round):
                query = _round_query(var, steady, tables, stream)
                report.requests += 1
                served_at = time.perf_counter()
                ticket = frontend.serve([query])[0]
                report.wall_latencies.append(time.perf_counter() - served_at)
                if ticket.ok:
                    report.completed += 1
                    report.latencies.append(ticket.execution.observed_seconds)
                    source = ticket.plan_source or "unknown"
                    report.plan_sources[source] = (
                        report.plan_sources.get(source, 0) + 1
                    )
                else:
                    report.failed += 1

            before = len(server.drift_events)
            server.maintain()
            fresh = [e.to_dict() for e in server.drift_events[before:]]
            report.drift_events.extend(fresh)

            stats = tracker.stats(var.name, WATCHED_CLASS)
            report.rounds.append(
                RoundRecord(
                    index=r,
                    sim_time=round(var.environment.now, 6),
                    disturbed=injector.active is not None or shift_active,
                    fault_notes=notes,
                    shift_started=shift_started,
                    drift_events=fresh,
                    good_pct=stats.pct_good,
                    samples=stats.count,
                    active_version=registry.active_version(
                        var.name, WATCHED_CLASS
                    ).version,
                )
            )
        front_stats = frontend.stats()

    for site_name, label in registry.keys():
        entry = registry.active_version(site_name, label)
        if entry.provenance is not None and entry.provenance.trigger is not None:
            report.published.append(
                (site_name, label, entry.version, entry.provenance.trigger)
            )
    report.plan_cache = {
        "hits": front_stats.plan_cache_hits,
        "misses": front_stats.plan_cache_misses,
        "evictions": front_stats.plan_cache_evictions,
        "invalidated": front_stats.plan_cache_invalidated,
    }
    report.probes_executed = dict(sorted(server.probing.probes_executed.items()))
    report.accuracy = tracker.snapshot()
    if tracer is not None:
        report.trace_spans = [
            obs.span_to_dict(s)
            for s in sorted(tracer.finished(), key=lambda s: s.span_id)
            if s.trace_id is not None
        ]
        report.trace_sampled = frontend.sampler.sampled
        report.trace_dropped = frontend.sampler.dropped
    report.fault_log = [
        (round(at, 6), note) for at, note in injector.transitions
    ]
    report.wall_seconds = time.perf_counter() - started
    return report
