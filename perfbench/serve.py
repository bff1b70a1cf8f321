"""The two serving workloads: one closed-loop client, one worker.

Both drive ``ServingFrontEnd`` with ``workers=1`` from one client that
sends the next request only after the previous one completes.  The
client (:class:`Client`) sits on ``ServingFrontEnd.serve`` and times
each call from submission to ticket completion.

``serve_repeat``
    Six distinct cross-site joins, round-robin, on quick-scale tables
    with contention pinned, the plan cache on and an effectively
    infinite probe TTL: after the first six requests every plan comes
    from the cache, so selection, shipping, temp-table materialization,
    the join and accuracy recording carry the load.

``serve_dynamic``
    The load generator's shard timeline (``repro.loadgen.worker.
    run_shard``), shards run one after another in this process, over the
    calm / random_walk / clustered / regime_shift scenarios with the
    ``mixed`` fault plan and an OLS / RLS model-form mix.  Every request
    has its own predicates, so the plan cache never hits; probes,
    optimization, drift-triggered rebuilds, registry publishes and online
    RLS updates carry the load.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

from perfbench.checks import References, rows_match
from perfbench.harness import Phase, clock, serving_wall, windowed_latency
from perfbench.spans import Patcher, SpanRecorder

#: Contention level ``serve_repeat`` pins every site to while serving.
PINNED_LEVEL = 0.3
#: Probe TTL (simulated seconds) long enough that probes never expire.
PINNED_PROBE_TTL = 1e9
#: serve_repeat's join pairs over R1..R4: (left table, right table).
REPEAT_PAIRS = (
    ("R1", "R2"), ("R2", "R3"), ("R3", "R4"), ("R4", "R1"), ("R1", "R3"), ("R2", "R4"),
)


@dataclass
class Request:
    """One client call: the query, its ticket, and when it ran."""

    tag: int
    query: object
    ticket: object
    started: float
    finished: float


class Client(Patcher):
    """The closed-loop client, installed on ``ServingFrontEnd.serve``.

    Every ``serve`` call made while installed — by the bench itself or
    by ``run_shard`` — is timed and recorded under the current ``tag``.
    With a recorder, each call is also the ``serving.request`` root span.
    """

    def __init__(self, recorder: SpanRecorder | None = None) -> None:
        super().__init__()
        from repro.serving.frontend import ServingFrontEnd

        self.requests: list[Request] = []
        self.tag = 0
        original = ServingFrontEnd.serve

        def serve(frontend, queries, timeout=None):
            span = recorder.open_request() if recorder is not None else None
            started = clock()
            try:
                tickets = original(frontend, queries, timeout)
            finally:
                finished = clock()
                if span is not None:
                    recorder.close_request(span)
            for query, ticket in zip(queries, tickets):
                self.requests.append(Request(self.tag, query, ticket, started, finished))
            return tickets

        self.patch(ServingFrontEnd, "serve", serve)


def check_requests(requests: list[Request], references: References) -> int:
    """Failed, rejected, timed-out or wrong-result requests."""
    failed = 0
    for request in requests:
        ticket = request.ticket
        if not ticket.ok or not rows_match(
            ticket.execution.rows, references(request.query)
        ):
            failed += 1
    return failed


def served_quality(requests: list[Request]) -> tuple[float, float]:
    """(mean simulated seconds per completed query, % of model-backed
    per-step estimates within 2x of the observed step cost)."""
    from repro.core.validation import is_good

    sim = []
    good = total = 0
    for request in requests:
        execution = request.ticket.execution
        if execution is None:
            continue
        sim.append(execution.observed_seconds)
        for estimate, step in zip(execution.plan.estimates, execution.steps):
            if estimate.class_label is None:
                continue
            total += 1
            good += is_good(estimate.seconds, step.seconds)
    mean_sim = statistics.fmean(sim) if sim else 0.0
    return mean_sim, (100.0 * good / total if total else 0.0)


#: Consecutive requests per latency window (p95 keeps ten beyond it).
WINDOW = 200


def serve_metrics(requests: list[Request], fixed: list[Request]) -> dict:
    """End-to-end serve metrics over every request of the timed phase;
    plan quality over the *fixed* deterministic prefix."""
    completed = sum(1 for r in requests if r.ticket.ok)
    p50, p95 = windowed_latency(requests, WINDOW)
    sim_s, good_pct = served_quality(fixed)
    return {
        "qps": (completed / serving_wall(requests), "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "latency_p95_ms": (1e3 * p95, "ms"),
        "sim_s_per_query": (sim_s, "s"),
        "est_good_pct": (good_pct, "%"),
    }


# ---------------------------------------------------------------------------
# serve_repeat
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepeatSize:
    preset: str
    #: Requests the deterministic outputs (and the traced run) cover.
    fixed_requests: int


REPEAT_SIZES = {
    "paper": RepeatSize(preset="quick", fixed_requests=1200),
    "tiny": RepeatSize(preset="tiny", fixed_requests=36),
}


@dataclass
class RepeatState:
    sites: tuple
    frontend: object
    queries: list
    references: References | None = None


class ServeRepeat:
    name = "serve_repeat"

    def __init__(self, seed: int, size: str = "paper") -> None:
        from repro.experiments import config

        self.seed = seed
        self.size = REPEAT_SIZES[size]
        self.fixed_units = self.traced_units = self.size.fixed_requests
        # The universe and its models are the preset's own; the seed
        # draws the six queries' predicate constants.
        self.config = getattr(config, self.size.preset)()

    def _queries(self, rng) -> list:
        from repro.engine.predicate import Comparison
        from repro.mdbs.gquery import GlobalJoinQuery

        queries = []
        for i, (left, right) in enumerate(REPEAT_PAIRS):
            sites = ("site_a", "site_b") if i % 2 == 0 else ("site_b", "site_a")
            queries.append(
                GlobalJoinQuery(
                    sites[0],
                    left,
                    sites[1],
                    right,
                    "a4",
                    "a4",
                    (f"{left}.a1", f"{right}.a2"),
                    left_predicate=Comparison("a3", "<", int(rng.integers(550, 650))),
                    right_predicate=Comparison("a7", "<", int(rng.integers(30000, 35000))),
                )
            )
        return queries

    def setup(self) -> RepeatState:
        import numpy as np

        from repro.core.builder import CostModelBuilder
        from repro.core.classification import G1, G3
        from repro.engine.profiles import DB2_LIKE, ORACLE_LIKE
        from repro.mdbs.agent import MDBSAgent
        from repro.mdbs.server import MDBSServer
        from repro.serving import ServingConfig, ServingFrontEnd
        from repro.workload.scenarios import make_two_site_universe

        config = self.config
        sites = make_two_site_universe(
            names=("site_a", "site_b"),
            profiles=(ORACLE_LIKE, DB2_LIKE),
            seeds=(config.seed + 81, config.seed + 82),
            scale=config.scale,
        )
        server = MDBSServer(probe_ttl=PINNED_PROBE_TTL)
        for site in sites:
            server.register_agent(MDBSAgent(site.database))
            builder = CostModelBuilder(site.database, config=config.builder)
            for query_class in (G1, G3):
                queries = site.generator.queries_for(
                    query_class, config.unary_train, tables=["R1", "R2", "R3", "R4"]
                )
                outcome = builder.build(query_class, queries, algorithm="iupma")
                server.store_cost_model(site.name, outcome.model)
        for site in sites:
            site.load_builder.constant(PINNED_LEVEL)
        frontend = ServingFrontEnd(
            server,
            ServingConfig(
                workers=1, queue_depth=64, admission_policy="block", plan_cache=True
            ),
        ).start()
        queries = self._queries(np.random.default_rng(self.seed))
        return RepeatState(sites, frontend, queries)

    def close(self, state: RepeatState) -> None:
        state.frontend.close()

    def prepare_checks(self, state: RepeatState) -> None:
        state.references = References({site.name: site.database for site in state.sites})
        for query in state.queries:
            state.references(query)

    def run(self, state: RepeatState, seconds: float, units: int, recorder) -> Phase:
        queries = state.queries
        frontend = state.frontend
        with Client(recorder) as client:
            started = clock()
            deadline = started + seconds
            i = 0
            while i < units or clock() < deadline:
                frontend.serve([queries[i % len(queries)]])
                i += 1
            wall = clock() - started
        requests = client.requests
        phase = Phase(units=i, wall_s=wall, attempted=len(requests))
        phase.failed = check_requests(requests, state.references)
        phase.queue_waits = [r.ticket.wait_seconds or 0.0 for r in requests]
        phase.data["requests"] = requests
        return phase

    def end_to_end(self, state: RepeatState, phase: Phase):
        requests = phase.data["requests"]
        metrics = serve_metrics(requests, requests[: self.size.fixed_requests])
        report = [f"requests {phase.attempted} in {phase.wall_s:.3f}s"]
        return metrics, report


# ---------------------------------------------------------------------------
# serve_dynamic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicSize:
    preset: str
    #: Shards in one fleet (every scenario, fault and form once).
    shards: int
    rounds: int
    #: Shards the deterministic outputs cover; the traced run serves
    #: one fleet.
    fixed_shards: int


DYNAMIC_SIZES = {
    "paper": DynamicSize(preset="quick", shards=8, rounds=24, fixed_shards=24),
    "tiny": DynamicSize(preset="tiny", shards=2, rounds=4, fixed_shards=2),
}
#: Shard indices reserved per seed, so no two seeds share a shard.
SHARDS_PER_SEED = 10_000

#: The model-form mix the fleet races (cycled over shards).
STRATEGY_MIX = ("mlr.ols", "mlr.rls")


@dataclass
class DynamicState:
    #: The fleet's shard tasks; unit ``u`` of a run serves a copy of
    #: ``fleet[u % len(fleet)]`` under its own shard index.
    fleet: list
    payloads: dict


class ServeDynamic:
    name = "serve_dynamic"

    def __init__(self, seed: int, size: str = "paper") -> None:
        from repro.experiments import config

        self.seed = seed
        self.size = DYNAMIC_SIZES[size]
        self.fixed_units = self.size.fixed_shards
        self.traced_units = self.size.shards
        # The universe and its trained models are the preset's own; the
        # seed picks the shard indices, which seed each shard's query
        # stream and contention trace.
        self.config = getattr(config, self.size.preset)()
        # Shards generate their own queries, so references are computed
        # after the timed phase, on a separate copy of the universe, and
        # kept for every phase of the run.
        self._references: References | None = None

    def setup(self) -> DynamicState:
        from repro.loadgen.coordinator import default_loadgen_config
        from repro.loadgen.worker import train_model_payloads

        fleet = replace(
            default_loadgen_config(
                self.config, "mixed", shards=self.size.shards, rounds=self.size.rounds
            ),
            strategy_mix=STRATEGY_MIX,
        )
        payloads = train_model_payloads(self.config, fleet.strategies())
        return DynamicState(fleet.tasks(), payloads)

    def close(self, state: DynamicState) -> None:
        pass

    def prepare_checks(self, state: DynamicState) -> None:
        from repro.loadgen.worker import make_universe

        if self._references is None:
            sites = make_universe(self.config)
            self._references = References({s.name: s.database for s in sites})

    def run(self, state: DynamicState, seconds: float, units: int, recorder) -> Phase:
        from repro.loadgen.worker import run_shard

        fleet = state.fleet
        first_index = self.seed * SHARDS_PER_SEED
        reports = []
        with Client(recorder) as client:
            started = clock()
            deadline = started + seconds
            # Every shard is new, and runs end on a whole fleet, so each
            # run serves the same mix of scenarios, faults and forms.
            while (
                len(reports) < units
                or len(reports) % len(fleet)
                or clock() < deadline
            ):
                unit = len(reports)
                task = replace(fleet[unit % len(fleet)], index=first_index + unit)
                client.tag = unit
                reports.append(run_shard(task, state.payloads[task.strategy]))
            wall = clock() - started
        requests = client.requests
        phase = Phase(units=len(reports), wall_s=wall, attempted=len(requests))
        phase.failed = check_requests(requests, self._references)
        phase.queue_waits = [r.ticket.wait_seconds or 0.0 for r in requests]
        phase.data.update(requests=requests, reports=reports)
        return phase

    def end_to_end(self, state: DynamicState, phase: Phase):
        requests = phase.data["requests"]
        fixed = [r for r in requests if r.tag < self.size.fixed_shards]
        metrics = serve_metrics(requests, fixed)
        reports = phase.data["reports"]
        report = [
            f"shards {phase.units} ({len(requests)} requests) in {phase.wall_s:.3f}s, "
            f"drift events {sum(len(r.drift_events) for r in reports)}, "
            f"published {sum(len(r.published) for r in reports)}",
        ]
        return metrics, report
