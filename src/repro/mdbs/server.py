"""The MDBS global server: the CORDS-style front end of Figure 3.

Registers per-site agents, maintains the global catalog (schema facts +
a versioned cost-model registry), optimizes global queries with the
:class:`~repro.mdbs.optimizer.GlobalQueryOptimizer`, and executes the
chosen plan for real: local component selections at each site, shipping
of one intermediate over the modeled network, and the join over
materialized temporaries at the join site.

The server also owns the two serving-side lifecycle components:

* a :class:`~repro.mdbs.probing_service.ProbingService` shared by every
  optimizer it hands out (``probe_ttl`` controls the cache; 0 = always
  probe afresh, the pre-lifecycle behavior);
* per-site :class:`~repro.core.maintenance.ModelMaintainer` instances
  (:meth:`configure_maintenance` / :meth:`register_model_class`), whose
  re-derived models :meth:`maintain` publishes into the registry as new
  versions — old versions stay available for :meth:`rollback_model`.

Every execution additionally feeds the model-quality telemetry: each
plan component's (estimate, observed) pair lands in the server's
:class:`~repro.obs.quality.AccuracyTracker` keyed by (site, class,
contention state), and :meth:`configure_maintenance` accepts a
``drift=`` policy whose :class:`~repro.obs.quality.DriftDetector` can
force a targeted re-derivation when accuracy degrades or probing costs
escape a model's partitioned state range — the triggering
:class:`~repro.obs.quality.DriftEvent` is recorded in the new version's
provenance.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .. import obs
from ..core.builder import BuildOutcome, CostModelBuilder
from ..core.classification import QueryClass
from ..core.maintenance import ChangeDetector, ModelMaintainer
from ..core.model import MultiStateCostModel
from ..core.strategy import CostModelStrategy, OnlineSample, model_form, strategy_for
from ..engine.query import JoinQuery, Query
from ..obs.quality import AccuracyTracker, DriftDetector, DriftEvent, DriftPolicy
from .agent import MDBSAgent
from .catalog import GlobalCatalog
from .gquery import GlobalJoinQuery
from .network import NetworkModel
from .optimizer import CostEstimate, GlobalPlan, GlobalQueryOptimizer
from .probing_service import ProbingService
from .registry import (
    CostModelRegistryError,
    ModelProvenance,
    ModelVersion,
    config_fingerprint,
)

_TEMP_LEFT = "_g_left"
_TEMP_RIGHT = "_g_right"


def _estimate_at(plan: GlobalPlan, index: int) -> CostEstimate | None:
    """The plan component estimate a step at *index* realizes, if any."""
    estimates = plan.estimates
    return estimates[index] if index < len(estimates) else None


@dataclass
class StepTiming:
    """Observed elapsed time of one plan step."""

    description: str
    seconds: float


@dataclass
class _OnlineFormState:
    """Per-(site, class) serving-time state of an online model form."""

    version: int
    strategy: CostModelStrategy
    #: The warm-started online estimator; None when the active version's
    #: form does not update online (cached to skip re-resolution).
    updater: object | None


@dataclass
class GlobalExecution:
    """Result of executing one global query."""

    plan: GlobalPlan
    column_names: tuple[str, ...]
    rows: list[tuple]
    steps: list[StepTiming] = field(default_factory=list)

    @property
    def observed_seconds(self) -> float:
        return sum(s.seconds for s in self.steps)

    @property
    def estimated_seconds(self) -> float:
        return self.plan.estimated_seconds

    @property
    def cardinality(self) -> int:
        return len(self.rows)


class MDBSServer:
    """The global level of the multidatabase system."""

    def __init__(
        self,
        network: NetworkModel | None = None,
        probe_ttl: float = 0.0,
        accuracy: AccuracyTracker | None = None,
    ) -> None:
        self.catalog = GlobalCatalog()
        self.agents: dict[str, MDBSAgent] = {}
        self.network = network or NetworkModel()
        #: Estimate-vs-actual accuracy windows, fed by every execution
        #: (and every executed probe, via the probing service).  Defaults
        #: to the process-global tracker so obs snapshots include it.
        self.accuracy = accuracy if accuracy is not None else obs.get_tracker()
        #: One re-entrant lock per site: everything that advances a
        #: site's simulated clock or touches its engine state (plan
        #: steps, temp tables, probing queries) runs under its lock, so
        #: callers on different threads interleave safely.  Shared with
        #: the probing service, whose single-flight probes take the same
        #: locks.
        self.site_locks: dict[str, threading.RLock] = {}
        #: Shared by every optimizer this server hands out; ttl=0 keeps
        #: the pre-lifecycle always-fresh-probe behavior.
        self.probing = ProbingService(
            self.agents, ttl=probe_ttl, tracker=self.accuracy,
            locks=self.site_locks,
        )
        self.maintainers: dict[str, ModelMaintainer] = {}
        #: Drift policy per site (:meth:`configure_maintenance`'s
        #: ``drift=``); consulted by :meth:`maintain` after the §2 pass.
        self.drift_detectors: dict[str, DriftDetector] = {}
        #: Every drift event ever raised, oldest first.
        self.drift_events: list[DriftEvent] = []
        #: Triggers awaiting consumption by :meth:`_publish_outcome`,
        #: keyed (site, class_label) — how a drift-forced rebuild gets
        #: its event recorded in the published version's provenance.
        self._pending_trigger: dict[tuple[str, str], str] = {}
        #: Serving-time online-form state per (site, class): the warm
        #: estimator that folds each served estimate-vs-actual sample
        #: back into the active model when its form updates online.
        self._online: dict[tuple[str, str], _OnlineFormState] = {}

    # -- registration ----------------------------------------------------

    def register_agent(self, agent: MDBSAgent) -> None:
        """Attach a local site and import its globally visible facts."""
        self.agents[agent.site] = agent
        self.site_locks.setdefault(agent.site, threading.RLock())
        self.catalog.register_site(agent.site)
        for facts in agent.export_table_facts():
            self.catalog.register_table(facts)

    def refresh_site_facts(self, site: str) -> None:
        """Re-import a site's schema facts (occasionally-changing factors)."""
        for facts in self.agents[site].export_table_facts():
            self.catalog.register_table(facts)

    def store_cost_model(self, site: str, model: MultiStateCostModel) -> None:
        self.catalog.store_cost_model(site, model)

    # -- model lifecycle --------------------------------------------------

    def configure_maintenance(
        self,
        site: str,
        builder: CostModelBuilder | None = None,
        detector: ChangeDetector | None = None,
        rebuild_period_seconds: float | None = None,
        drift: DriftPolicy | DriftDetector | None = None,
    ) -> ModelMaintainer:
        """Attach a §2 maintenance policy to *site*.

        Every model the maintainer derives — the initial builds of
        registered classes and all later rebuilds — is published into
        the catalog's registry as a new active version, with provenance
        taken from the builder and the site's simulated clock.

        *drift* additionally arms model-quality drift detection for the
        site: each :meth:`maintain` run evaluates the policy's rules
        against the accuracy tracker, and any event raised forces a
        targeted re-derivation of the offending class, published with
        the event in its provenance.  Pass a
        :class:`~repro.obs.quality.DriftPolicy` (thresholds only) or a
        pre-built :class:`~repro.obs.quality.DriftDetector`.
        """
        agent = self.agents[site]
        builder = builder or CostModelBuilder(agent.database, probe=agent.probe)
        maintainer = ModelMaintainer(
            builder,
            detector,
            rebuild_period_seconds,
            on_rebuild=lambda label, outcome: self._publish_outcome(site, outcome),
        )
        self.maintainers[site] = maintainer
        if drift is not None:
            self.drift_detectors[site] = (
                drift if isinstance(drift, DriftDetector) else DriftDetector(drift)
            )
        return maintainer

    def register_model_class(
        self,
        site: str,
        query_class: QueryClass,
        query_source: Callable[[int], Sequence[Query]],
        sample_count: int | None = None,
        algorithm: str = "iupma",
        build_now: bool = True,
        strategy: str | None = None,
    ) -> ModelVersion:
        """Derive + publish the model for *query_class* and keep it maintained.

        ``strategy`` pins a model-form strategy (``"mlr.rls"``, ...) for
        this class's derivations and drift rebuilds; None uses the
        builder's configured default.

        ``build_now=False`` registers the class for future rebuilds
        without an initial derivation — the load-generation pattern: a
        worker imports coordinator-trained models through the registry
        payload and only needs the maintainer wired up so drift events
        can force re-derivations.  The registry must already hold an
        active version for the class (e.g. via
        :meth:`~repro.mdbs.catalog.GlobalCatalog.import_models`).
        """
        maintainer = self.maintainers.get(site) or self.configure_maintenance(site)
        maintainer.register(
            query_class,
            query_source,
            sample_count=sample_count,
            algorithm=algorithm,
            build_now=build_now,
            strategy=strategy,
        )
        return self.catalog.registry.active_version(site, query_class.label)

    def maintain(self) -> dict[str, dict[str, BuildOutcome]]:
        """Run §2 maintenance at every configured site.

        Each site's :class:`~repro.core.maintenance.ChangeDetector` is
        consulted and every due class re-derived; fresh models are
        published as new registry versions (the superseded versions stay
        available for rollback), schema facts are re-imported, and the
        site's cached probing reading is invalidated so the next
        optimization sees the post-maintenance environment.

        Sites armed with a ``drift=`` policy get a second pass: the
        :class:`~repro.obs.quality.DriftDetector` is evaluated against
        the accuracy tracker and every event raised forces a targeted
        re-derivation of the offending class (published with the event
        in its provenance), after which that class's accuracy windows
        reset so recovery is measured fresh.
        """
        results: dict[str, dict[str, BuildOutcome]] = {}
        with obs.span("mdbs.maintain") as sp:
            for site in sorted(self.maintainers):
                rebuilt = self.maintainers[site].maintain()
                results[site] = rebuilt
                if rebuilt:
                    self.refresh_site_facts(site)
                    self.probing.invalidate(site)
            for site, rebuilt in self._maintain_drift().items():
                results.setdefault(site, {}).update(rebuilt)
            if sp.recording:
                sp.set_attribute(
                    "rebuilt",
                    {site: sorted(rebuilt) for site, rebuilt in results.items()},
                )
        obs.inc("mdbs.maintenance_runs")
        return results

    def _maintain_drift(self) -> dict[str, dict[str, BuildOutcome]]:
        """Evaluate armed drift policies; rebuild every flagged class."""
        results: dict[str, dict[str, BuildOutcome]] = {}
        registry = self.catalog.registry
        for site in sorted(self.drift_detectors):
            detector = self.drift_detectors[site]
            states_by_class = {
                label: registry.active_model(s, label).states
                for (s, label) in registry.keys()
                if s == site and registry.has_model(s, label)
            }
            now = self.agents[site].database.environment.now
            events = detector.check(self.accuracy, site, states_by_class, now=now)
            if not events:
                continue
            maintainer = self.maintainers.get(site)
            rebuilt: dict[str, BuildOutcome] = {}
            for event in events:
                self.drift_events.append(event)
                self.accuracy.record_drift_event(event)
                obs.inc("mdbs.drift.events")
                obs.inc(f"mdbs.drift.rule.{event.rule}")
                label = event.class_label
                if (
                    maintainer is None
                    or label not in maintainer.registered_labels()
                ):
                    # Detected but not repairable here (class derived
                    # out-of-band); the event still lands in telemetry.
                    obs.inc("mdbs.drift.events_unhandled")
                    continue
                self._pending_trigger[(site, label)] = event.describe()
                rebuilt[label] = maintainer.rebuild(
                    label, reasons=(event.describe(),)
                )
                # Post-rebuild accuracy measures the *new* model only.
                self.accuracy.reset(site, label)
            if rebuilt:
                results[site] = rebuilt
                self.refresh_site_facts(site)
                self.probing.invalidate(site)
        return results

    def rollback_model(self, site: str, class_label: str) -> ModelVersion:
        """Serve the previously active model version again."""
        return self.catalog.rollback_cost_model(site, class_label)

    def _publish_outcome(self, site: str, outcome: BuildOutcome) -> ModelVersion:
        maintainer = self.maintainers[site]
        provenance = ModelProvenance.from_model(
            outcome.model,
            derived_at=self.agents[site].database.environment.now,
            config_hash=config_fingerprint(maintainer.builder.config),
            trigger=self._pending_trigger.pop(
                (site, outcome.model.class_label), None
            ),
        )
        return self.catalog.publish_cost_model(site, outcome.model, provenance)

    # -- optimization -----------------------------------------------------------

    def optimizer(self, prefer_estimated_probing: bool = False) -> GlobalQueryOptimizer:
        return GlobalQueryOptimizer(
            self.catalog,
            self.agents,
            self.network,
            prefer_estimated_probing=prefer_estimated_probing,
            probing=self.probing,
        )

    def optimize(self, query: GlobalJoinQuery) -> GlobalPlan:
        """Pick the cheapest join site for *query*."""
        with obs.span("mdbs.optimize") as sp:
            plan = self.optimizer().choose(query)
            if sp.recording:
                sp.set_attributes(
                    join_site=plan.join_site,
                    estimated_seconds=plan.estimated_seconds,
                )
        return plan

    # -- execution -----------------------------------------------------------------

    def execute(
        self, query: GlobalJoinQuery, plan: GlobalPlan | None = None
    ) -> GlobalExecution:
        """Execute *query* (optimizing first unless a plan is supplied)."""
        with obs.span(
            "mdbs.execute",
            left=f"{query.left_site}.{query.left_table}",
            right=f"{query.right_site}.{query.right_table}",
        ) as root:
            plan = plan or self.optimize(query)
            with self._locked_sites(query.left_site, query.right_site):
                execution = self._execute_plan(query, plan)
            self._record_accuracy(plan, execution)
            obs.inc("mdbs.global_queries")
            obs.set_gauge("mdbs.last_estimated_seconds", execution.estimated_seconds)
            obs.set_gauge("mdbs.last_observed_seconds", execution.observed_seconds)
            if root.recording:
                root.set_attributes(
                    join_site=plan.join_site,
                    estimated_seconds=execution.estimated_seconds,
                    observed_seconds=execution.observed_seconds,
                    cardinality=execution.cardinality,
                )
        return execution

    def _locked_sites(self, *sites: str) -> ExitStack:
        """Acquire the named sites' locks in sorted order (dedup'd).

        Sorted acquisition is the deadlock-freedom argument: every code
        path that takes more than one site lock (only plan execution
        does; probes take exactly one) takes them in the same global
        order, and the locks are re-entrant so a worker may probe a site
        it already holds for execution.
        """
        stack = ExitStack()
        for site in sorted(set(sites)):
            stack.enter_context(
                self.site_locks.setdefault(site, threading.RLock())
            )
        return stack

    def _record_accuracy(self, plan: GlobalPlan, execution: GlobalExecution) -> None:
        """Feed each model-backed estimate/observation pair to the tracker.

        ``plan.estimates`` and ``execution.steps`` are built in the same
        component order (left select, right select, ship, join); the
        ship component carries no cost model (``class_label is None``)
        and is skipped.  Plan-level error goes to a registry histogram —
        it aggregates several models, so it has no (site, class, state)
        window of its own.

        When the call runs under a traced request, the current trace id
        rides along: each sample lands in the tracker *linked* to its
        trace (so out-of-band samples flag the trace for keeping and the
        worst exemplars point back at it), and the plan-level error
        histogram records the trace id as its exemplar.
        """
        with obs.span("mdbs.accuracy") as sp:
            trace_id = obs.current_trace_id()
            recorded = 0
            states: list[str] = []
            if len(plan.estimates) == len(execution.steps):
                for estimate, step in zip(plan.estimates, execution.steps):
                    if estimate.class_label is None or estimate.site is None:
                        continue
                    if estimate.state is None:
                        continue
                    agent = self.agents[estimate.site]
                    state_key: int | tuple = estimate.state
                    hit_state = agent.buffer_hit_state()
                    if hit_state is not None:
                        # Sites simulating a memory hierarchy key their
                        # accuracy windows on the composite (contention,
                        # buffer-hit) state, so drift in either
                        # qualitative variable is visible.
                        state_key = (estimate.state, hit_state)
                    self.accuracy.record(
                        estimate.site,
                        estimate.class_label,
                        state_key,
                        predicted=estimate.seconds,
                        actual=step.seconds,
                        at_time=agent.database.environment.now,
                        trace_id=trace_id,
                    )
                    recorded += 1
                    if sp.recording:
                        states.append(
                            f"{estimate.site}/{estimate.class_label}={state_key}"
                        )
                    # The same (estimate, observation) pair the tracker
                    # windows is what online model forms learn from:
                    # RLS/SGD models fold it into their coefficients
                    # right here, per served query.
                    self._online_update(
                        estimate, step.seconds, at_time=agent.database.environment.now
                    )
            observed = execution.observed_seconds
            if observed > 0.0:
                obs.observe(
                    "mdbs.plan.rel_error",
                    abs(execution.estimated_seconds - observed) / observed,
                    exemplar=trace_id,
                )
            if sp.recording:
                sp.set_attributes(samples=recorded, states=",".join(states))

    def model_tag(self, site: str, class_label: str) -> tuple | None:
        """(version, model form) of the active model for (site, class).

        The plan cache folds this into its keys so plans scored by one
        model form or version are never served against another — racing
        strategy deployments cannot cross-contaminate through the cache.
        """
        try:
            entry = self.catalog.registry.active_version(site, class_label)
        except CostModelRegistryError:
            return None
        return (entry.version, model_form(entry.model))

    def _online_update(
        self, estimate: CostEstimate, actual: float, at_time: float
    ) -> None:
        """Fold one served estimate-vs-actual sample into an online form.

        No-op for the default batch-OLS form.  For ``mlr.rls`` /
        ``mlr.sgd`` models this updates the *active* model's
        coefficients in place (every optimizer sees the adapted form on
        the next estimate) and records the update in the version's
        provenance log.
        """
        site, label = estimate.site, estimate.class_label
        registry = self.catalog.registry
        if estimate.values is None or estimate.state is None:
            return
        if site is None or label is None or not registry.has_model(site, label):
            return
        entry = registry.active_version(site, label)
        key = (site, label)
        state = self._online.get(key)
        if state is None or state.version != entry.version:
            strategy = strategy_for(entry.model)
            state = _OnlineFormState(
                version=entry.version,
                strategy=strategy,
                updater=(
                    strategy.make_updater(entry.model)
                    if strategy.supports_online_update
                    else None
                ),
            )
            self._online[key] = state
        if state.updater is None:
            return
        sample = OnlineSample(
            values=estimate.values,
            state=estimate.state,
            actual=actual,
            predicted=estimate.seconds,
        )
        error = state.strategy.update(entry.model, sample, state.updater)
        if error is None:
            return
        registry.record_online_update(
            site,
            label,
            entry.version,
            {
                "at_time": float(at_time),
                "state": int(estimate.state),
                "predicted": float(estimate.seconds),
                "actual": float(actual),
                "error": float(error),
            },
        )
        obs.inc("mdbs.online.updates")

    def _execute_plan(
        self, query: GlobalJoinQuery, plan: GlobalPlan
    ) -> GlobalExecution:
        components = plan.components
        left_agent = self.agents[query.left_site]
        right_agent = self.agents[query.right_site]

        steps: list[StepTiming] = []
        with obs.span("mdbs.step.select", site=query.left_site) as sp:
            left_result = left_agent.execute(components.left)
            self._record_step(
                steps,
                sp,
                f"select {query.left_table} at {query.left_site}",
                left_result.elapsed,
                _estimate_at(plan, 0),
            )
        with obs.span("mdbs.step.select", site=query.right_site) as sp:
            right_result = right_agent.execute(components.right)
            self._record_step(
                steps,
                sp,
                f"select {query.right_table} at {query.right_site}",
                right_result.elapsed,
                _estimate_at(plan, 1),
            )

        if plan.join_site == "right":
            join_agent, shipped, local = right_agent, left_result, right_result
        else:
            join_agent, shipped, local = left_agent, right_result, left_result
        with obs.span("mdbs.step.ship", to_site=join_agent.site) as sp:
            transfer = self.network.transfer_seconds(shipped.result.table_length)
            self._record_step(
                steps,
                sp,
                f"ship {shipped.result.cardinality} tuples to {join_agent.site}",
                transfer,
                _estimate_at(plan, 2),
            )

        left_facts = self.catalog.table(query.left_site, query.left_table)
        right_facts = self.catalog.table(query.right_site, query.right_table)
        left_widths = [left_facts.column_widths[c] for c in components.left.columns]
        right_widths = [right_facts.column_widths[c] for c in components.right.columns]
        left_rows = left_result.result.rows
        right_rows = right_result.result.rows
        with obs.span(
            "mdbs.step.materialize",
            site=join_agent.site,
            rows=len(left_rows) + len(right_rows),
        ):
            join_agent.create_temp_table(
                _TEMP_LEFT, components.left.columns, left_widths, left_rows
            )
            join_agent.create_temp_table(
                _TEMP_RIGHT, components.right.columns, right_widths, right_rows
            )
        try:
            join_query = JoinQuery(
                _TEMP_LEFT,
                _TEMP_RIGHT,
                components.left.columns[components.left_join_position],
                components.right.columns[components.right_join_position],
            )
            with obs.span("mdbs.step.join", site=join_agent.site) as sp:
                join_result = join_agent.execute(join_query)
                self._record_step(
                    steps,
                    sp,
                    f"join at {join_agent.site}",
                    join_result.elapsed,
                    _estimate_at(plan, 3),
                )
            column_names, rows = self._project_output(
                query, components, join_result
            )
        finally:
            join_agent.drop_temp_table(_TEMP_LEFT)
            join_agent.drop_temp_table(_TEMP_RIGHT)

        return GlobalExecution(
            plan=plan, column_names=column_names, rows=rows, steps=steps
        )

    @staticmethod
    def _record_step(
        steps: list[StepTiming],
        span,
        description: str,
        seconds: float,
        estimate: CostEstimate | None = None,
    ) -> None:
        """One plan step: a StepTiming for callers, span attributes for
        the trace, and a histogram point for the registry.

        The span's own duration is real wall-clock work; *seconds* is the
        step's *simulated* elapsed time (what the cost models predict).
        *estimate* is the plan component the step realizes — its
        estimated seconds and contention state land on the span, so a
        trace shows estimate-vs-actual per step, not just per plan.
        """
        steps.append(StepTiming(description, seconds))
        if span.recording:
            span.set_attributes(description=description, simulated_seconds=seconds)
            if estimate is not None:
                span.set_attribute("estimated_seconds", estimate.seconds)
                if estimate.state is not None:
                    span.set_attribute("state", estimate.state)
        obs.observe("mdbs.step_seconds", seconds)

    def _project_output(self, query, components, join_result):
        """Map temp-qualified join output back to the requested columns."""
        produced = list(join_result.result.column_names)
        if query.columns:
            wanted = list(query.columns)
        else:
            wanted = [f"{query.left_table}.{c}" for c in components.left.columns] + [
                f"{query.right_table}.{c}" for c in components.right.columns
            ]
        positions = []
        for qualified in wanted:
            table, _, column = qualified.partition(".")
            temp = _TEMP_LEFT if table == query.left_table else _TEMP_RIGHT
            positions.append(produced.index(f"{temp}.{column}"))
        rows = [tuple(row[p] for p in positions) for row in join_result.result.rows]
        return tuple(wanted), rows
