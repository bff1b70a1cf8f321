"""The serving front end: admission → plan cache → server, on simulated time.

:class:`ServingFrontEnd` sits in front of an
:class:`~repro.mdbs.server.MDBSServer` and serves batches of
:class:`~repro.mdbs.gquery.GlobalJoinQuery` requests:

1. **admission** — each :meth:`~ServingFrontEnd.serve` batch arrives at
   once at the front end's simulated clock, in front of ``workers``
   service slots and a ``queue_depth``-long queue; with the ``"reject"``
   policy requests beyond ``workers + queue_depth`` are shed, with
   ``"block"`` none are (:mod:`.config`);
2. **plan cache** — repeated optimizations within the same contention
   states are served from :class:`~repro.serving.plan_cache.PlanCache`
   without re-running the optimizer; registry events (publish /
   activate / rollback) evict exactly the dependent entries;
3. **probe sharing** — state resolution and optimizer probing both go
   through the server's shared
   :class:`~repro.mdbs.probing_service.ProbingService`, so requests
   within one TTL window share a single probing query per site;
4. **execution** — every admitted request runs to completion on the
   caller's thread, in submission order.

Queueing is simulated, like the rest of the MDBS's time: a request
takes the earliest free slot and holds it for its
``execution.observed_seconds``; the clock then advances to the batch's
last finish.  ``ticket.wait_seconds`` / ``latency_seconds`` and the
``serving.{wait,latency}_seconds`` histograms are therefore simulated
seconds, and rejections are an exact function of the query stream.
Because execution order is submission order for every ``workers``
value, plan choices and result rows never depend on scheduling.

Determinism guard: with ``plan_cache=False`` each request calls
``server.execute(query)`` with no plan argument — the exact synchronous
path, byte-identical plan choices included
(tests/serving/test_frontend.py pins this).

Every stage is observable through the global metrics registry:
``serving.{submitted,admitted,rejected,completed,failed}`` counters,
``serving.plan_cache.*`` counters, and ``serving.{wait,latency}_seconds``
histograms — all of which surface in the existing Prometheus/JSON
exposition (:mod:`repro.obs.expose`).

With a real tracer installed (``obs.enable`` / ``obs.set_tracer``),
every ticket additionally carries a **trace id** and a
``serving.request`` root span (its simulated wait as the ``wait_seconds``
attribute) over ``serving.plan`` / ``serving.execute``; the nested
``mdbs.*`` spans carry decision provenance — plan-cache hit/miss reason
(eviction cause included), active model ``version:form`` tags, estimate
vs actual seconds.  A deterministic
:class:`~repro.obs.tracing.TraceSampler` (``trace_sample_rate`` /
``trace_seed``) makes the head decision per request: unsampled requests
run with all spans suppressed and record nothing, so sampling saves
recording cost rather than discarding recorded spans.  Failed and
rejected requests and requests flagged by the accuracy tracker are
always kept — fully when sampled; as a 1-span root stub otherwise.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .. import obs
from ..mdbs.gquery import GlobalJoinQuery
from ..mdbs.optimizer import GlobalPlan
from ..mdbs.registry import CostModelRegistryError
from ..mdbs.server import GlobalExecution, MDBSServer
from .config import ServingConfig
from .plan_cache import PlanCache

#: Ticket outcomes (every ticket :meth:`ServingFrontEnd.serve` returns
#: has finished with one of these).
TICKET_STATUSES = ("completed", "rejected", "failed")


def _trace_query_label(query: GlobalJoinQuery) -> str:
    """A compact, deterministic query identity for span attributes."""
    return (
        f"{query.left_site}.{query.left_table}"
        f"*{query.right_site}.{query.right_table}"
    )


@dataclass(slots=True)
class ServingTicket:
    """One served request and its outcome.

    Timestamps are the front end's *simulated* seconds — the same clock
    as the ``observed_seconds`` inside ``execution``.
    """

    query: GlobalJoinQuery
    index: int
    status: str = "completed"
    execution: GlobalExecution | None = None
    error: BaseException | None = None
    #: "cache" | "optimizer" | None (not executed).
    plan_source: str | None = None
    #: The request's trace id (None when tracing was off).
    trace_id: str | None = None
    #: Head-sampling verdict: True = record the full span tree, False =
    #: record nothing while running (a 1-span root stub materializes at
    #: finish if the request fails or gets flagged).
    trace_sampled: bool = True
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "completed"

    @property
    def wait_seconds(self) -> float | None:
        """Simulated seconds queued for a service slot (None if rejected)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def latency_seconds(self) -> float | None:
        """Simulated seconds from arrival to completion (any outcome)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


@dataclass(frozen=True)
class ServingStats:
    """A snapshot of one front end's lifetime counts."""

    submitted: int
    admitted: int
    rejected: int
    completed: int
    failed: int
    plan_cache_hits: int
    plan_cache_misses: int
    plan_cache_evictions: int
    plan_cache_invalidated: int

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0

    @property
    def dropped(self) -> int:
        """Requests that never executed."""
        return self.rejected


class ServingFrontEnd:
    """Admits and executes global queries over simulated service slots."""

    def __init__(
        self,
        server: MDBSServer,
        config: ServingConfig | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.server = server
        self.config = config or ServingConfig()
        if plan_cache is not None:
            self.plan_cache: PlanCache | None = plan_cache
        elif self.config.plan_cache:
            # Keys carry the active (version, form) per dependency so a
            # racing strategy deployment never serves a plan scored by a
            # different model form (see PlanCache's model_tag doc).
            self.plan_cache = PlanCache(
                server.catalog.registry,
                capacity=self.config.plan_cache_capacity,
                model_tag=server.model_tag,
            )
        else:
            self.plan_cache = None
        self._counts = dict.fromkeys(
            ("submitted", "admitted", "rejected", "completed", "failed"), 0
        )
        #: Simulated seconds: where the next batch arrives.
        self._clock = 0.0
        self._next_index = 0
        self._started = False
        self._closed = False
        #: Deterministic head sampler resolving keep/drop per finished
        #: trace; failures and flagged requests bypass it (always kept).
        self.sampler = obs.TraceSampler(
            rate=self.config.trace_sample_rate, seed=self.config.trace_seed
        )

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "ServingFrontEnd":
        """Open the front end for requests (idempotent)."""
        if self._closed:
            raise RuntimeError("front end already closed")
        if not self._started:
            self._started = True
            obs.set_gauge("serving.workers", self.config.workers)
        return self

    def close(self) -> None:
        """Stop accepting requests and detach the plan cache (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.plan_cache is not None:
            self.plan_cache.close()

    def __enter__(self) -> "ServingFrontEnd":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving -----------------------------------------------------------

    def serve(
        self, queries: list[GlobalJoinQuery], timeout: float | None = None
    ) -> list[ServingTicket]:
        """Admit and run *queries* as one batch; returns their tickets.

        The batch arrives at once at the front end's simulated clock.
        Admitted requests run here, in submission order, each taking the
        earliest free of the ``workers`` slots; under ``"reject"`` the
        requests beyond ``workers + queue_depth`` are rejected without
        executing.  *timeout* is accepted for API compatibility and
        ignored: every returned ticket has already finished.
        """
        if not self._started or self._closed:
            raise RuntimeError("front end is not running (use start() / `with`)")
        arrival = self._clock
        slots = [arrival] * self.config.workers  # a heap of free-at times
        capacity = self.config.workers + self.config.queue_depth
        shed = self.config.admission_policy == "reject"
        tracer = obs.get_tracer()
        tickets = []
        admitted = 0
        for query in queries:
            ticket = ServingTicket(
                query=query, index=self._next_index, submitted_at=arrival
            )
            self._next_index += 1
            self._count("submitted")
            if tracer.enabled:
                ticket.trace_id = f"{self.config.trace_id_prefix}q{ticket.index:06d}"
                # The head decision happens before the request runs: an
                # unsampled request records nothing at all (children
                # suppressed, root stub only if force-kept), so sampling
                # saves the recording cost instead of discarding spans
                # already paid for (BENCH_trace_overhead's <5% guard).
                ticket.trace_sampled = self.sampler.keep(ticket.trace_id)
            if shed and admitted >= capacity:
                self._reject(ticket, tracer)
            else:
                admitted += 1
                self._count("admitted")
                ticket.started_at = heapq.heappop(slots)
                self._process(ticket, tracer)
                heapq.heappush(slots, ticket.finished_at)
            tickets.append(ticket)
        self._clock = max(slots)
        return tickets

    def _reject(self, ticket: ServingTicket, tracer) -> None:
        ticket.status = "rejected"
        ticket.finished_at = ticket.submitted_at
        self._count("rejected")
        if ticket.trace_id is not None:
            with self._root_span(ticket, tracer, status=ticket.status):
                pass
            self.sampler.resolve(tracer, ticket.trace_id, force=True)

    def _root_span(self, ticket: ServingTicket, tracer, **attributes):
        """The ``serving.request`` span that roots the ticket's trace."""
        return tracer.span(
            "serving.request",
            trace_id=ticket.trace_id,
            index=ticket.index,
            query=_trace_query_label(ticket.query),
            admission_policy=self.config.admission_policy,
            **attributes,
        )

    def _process(self, ticket: ServingTicket, tracer) -> None:
        """Run one admitted request to completion and time it."""
        traced = ticket.trace_id is not None
        # Plain begin/end suppression (not a context manager): this is
        # the per-request fast path the sampled-overhead guard budgets.
        suppressing = traced and not ticket.trace_sampled
        token = tracer.suppress_begin(ticket.trace_id) if suppressing else None
        try:
            root = (
                self._root_span(ticket, tracer, wait_seconds=ticket.wait_seconds)
                if traced and ticket.trace_sampled
                else obs.NOOP_SPAN
            )
            with root:
                try:
                    with obs.span("serving.plan") as plan_span:
                        plan, source = self._plan_for(ticket.query, span=plan_span)
                    with obs.span("serving.execute") as exec_span:
                        execution = self.server.execute(ticket.query, plan)
                        if exec_span.recording:
                            exec_span.set_attributes(
                                estimated_seconds=execution.estimated_seconds,
                                observed_seconds=execution.observed_seconds,
                                models=self._model_attr(execution.plan),
                            )
                    ticket.execution = execution
                    ticket.plan_source = source
                    self._count("completed")
                except Exception as exc:  # a failed request must not end the batch
                    ticket.error = exc
                    ticket.status = "failed"
                    root.set_attribute("error", type(exc).__name__)
                    self._count("failed")
                root.set_attribute("status", ticket.status)
        finally:
            if suppressing:
                tracer.suppress_end(token)
        held = ticket.execution.observed_seconds if ticket.ok else 0.0
        ticket.finished_at = ticket.started_at + held
        obs.observe("serving.wait_seconds", ticket.wait_seconds)
        obs.observe(
            "serving.latency_seconds", ticket.latency_seconds, exemplar=ticket.trace_id
        )
        if traced:
            force = not ticket.ok or self.server.accuracy.is_flagged(ticket.trace_id)
            if force and suppressing:
                # An unsampled request that must be kept (failed or
                # flagged by the accuracy tracker) materializes its
                # 1-span stub only now — the common path records nothing.
                with self._root_span(ticket, tracer, status=ticket.status):
                    pass
            self.sampler.resolve(tracer, ticket.trace_id, force=force)

    # -- planning ----------------------------------------------------------

    def _plan_for(
        self, query: GlobalJoinQuery, span: "obs.Span | None" = None
    ) -> tuple[GlobalPlan | None, str]:
        """(plan, source) — None defers to ``server.execute``'s own
        optimize call, keeping the cache-off path byte-identical to the
        synchronous server.  *span* (the enclosing ``serving.plan``
        span, when recording) receives the decision provenance: cache
        hit or the concrete miss reason, the chosen join site, the
        estimate, and the model version/form tags behind it."""
        span = span if span is not None else obs.NOOP_SPAN
        if self.plan_cache is None:
            return None, "optimizer"
        cached, reason = self.plan_cache.lookup(query, self._resolve_state)
        if cached is not None:
            if span.recording:
                span.set_attributes(
                    source="cache",
                    cache="hit",
                    join_site=cached.join_site,
                    estimated_seconds=cached.estimated_seconds,
                    models=self._model_attr(cached),
                )
            return cached, "cache"
        with obs.span("mdbs.optimize") as opt_span:
            candidates = self.server.optimizer().plans(query)
            chosen = min(candidates, key=lambda p: p.estimated_seconds)
            if opt_span.recording:
                opt_span.set_attribute("candidates", len(candidates))
        self.plan_cache.put(query, candidates, chosen)
        if span.recording:
            span.set_attributes(
                source="optimizer",
                cache=reason,
                join_site=chosen.join_site,
                estimated_seconds=chosen.estimated_seconds,
                models=self._model_attr(chosen),
            )
        return chosen, "optimizer"

    def _model_attr(self, plan: GlobalPlan | None) -> str:
        """The plan's model dependencies as ``site/class=vN:form`` tags."""
        if plan is None:
            return ""
        tags: list[str] = []
        seen: set[tuple[str, str]] = set()
        for estimate in plan.estimates:
            if estimate.site is None or estimate.class_label is None:
                continue
            key = (estimate.site, estimate.class_label)
            if key in seen:
                continue
            seen.add(key)
            tag = self.server.model_tag(estimate.site, estimate.class_label)
            if tag is not None:
                version, form = tag[0], tag[1]
                tags.append(f"{key[0]}/{key[1]}=v{version}:{form}")
        return ",".join(sorted(tags))

    def _resolve_state(self, site: str, class_label: str) -> int | None:
        """The contention state the active model resolves to right now.

        Mirrors the optimizer's ``_resolve``: probing cost through the
        shared service (cached within its TTL), middle state when
        probing degraded to ``None``.
        """
        try:
            model = self.server.catalog.registry.active_model(site, class_label)
        except CostModelRegistryError:
            return None
        cost = self.server.probing.probing_cost(site)
        if cost is None:
            return model.num_states // 2
        return model.state_for(cost)

    # -- stats -------------------------------------------------------------

    def stats(self) -> ServingStats:
        cache = self.plan_cache
        counts = self._counts
        # ``is not None``: an empty PlanCache is falsy (it has __len__),
        # yet its lifetime counters still hold.
        return ServingStats(
            submitted=counts["submitted"],
            admitted=counts["admitted"],
            rejected=counts["rejected"],
            completed=counts["completed"],
            failed=counts["failed"],
            plan_cache_hits=cache.hits if cache is not None else 0,
            plan_cache_misses=cache.misses if cache is not None else 0,
            plan_cache_evictions=cache.evictions if cache is not None else 0,
            plan_cache_invalidated=cache.invalidated if cache is not None else 0,
        )

    def _count(self, name: str) -> None:
        self._counts[name] += 1
        obs.inc(f"serving.{name}")
