"""Trace-overhead bench: what does request tracing cost the front end?

Observability that slows serving down gets turned off; this bench pins
the cost.  Three modes serve the identical repeated-join workload
(cache warmed, probes pinned) and differ only in tracing:

* ``off`` — no tracer installed: the no-op default every span call
  sites hits when tracing is disabled (the production baseline);
* ``sampled`` — a real tracer with deterministic head sampling at
  :data:`SAMPLED_RATE`: unsampled requests suppress span recording up
  front and keep nothing (a root stub materializes only for force-kept
  requests), the kept ones survive in full;
* ``full`` — every trace kept (``rate=1.0``): the debugging posture.

The guard the CI smoke asserts: **sampled tracing costs < 5 % QPS
versus tracing-off** (:data:`MAX_SAMPLED_OVERHEAD_PCT`).  Wall-clock
noise on a shared machine is several times larger than the effect being
measured, so the measurement interleaves at fine grain: each mode keeps
a **persistent warmed universe** (its own server + front end, and its
own tracer for the traced modes), and the bench cycles through the
modes serving small batches (:data:`BATCH` requests, order alternating
every cycle).  One *round* of cycles yields a per-mode estimate as the
**ratio of median batch times** (median over the mode's batches vs
median over the off batches): the median discards the batches a
scheduler stall corrupted, and comparing medians — rather than taking
the median of per-cycle ratios — avoids the upward bias a noisy
denominator puts on ratio medians.  The whole measurement then repeats
for several rounds and the reported overhead is the **minimum across
rounds**, for the same reason ``timeit`` reports the min: machine
noise only ever *inflates* an interleaved overhead estimate, so the
calmest round is the closest to the truth, while a genuine code
regression raises every round and still trips the guard.  GC stays
disabled across the measured cycles so collection pauses don't land on
an arbitrary mode's batch.

Determinism note: rendered stdout carries only scheduling-independent
facts (completions, kept/dropped trace counts — sampling hashes trace
ids, so the kept set is a pure function of seed and request count).
QPS, wall seconds, and overhead percentages are real measurements; they
go to the JSON payload and stderr.
"""

from __future__ import annotations

import gc
import statistics
import time

from .. import obs
from ..mdbs.agent import MDBSAgent
from ..mdbs.server import MDBSServer
from ..obs.quality import AccuracyTracker
from ..serving import ServingConfig, ServingFrontEnd
from .config import ExperimentConfig
from .report import format_table
from .serving_throughput import (
    PINNED_PROBE_TTL,
    _make_sites,
    _make_workload,
    _train_models,
)

from dataclasses import dataclass, field

#: Head-sampling rate of the ``sampled`` mode (1 in 16 — the order of
#: magnitude a production head sampler actually runs at).
SAMPLED_RATE = 0.0625

#: The guard: sampled tracing may cost at most this much QPS vs off.
MAX_SAMPLED_OVERHEAD_PCT = 5.0

#: (mode name, sample rate); None = no tracer installed at all.
TRACE_MODES: tuple[tuple[str, float | None], ...] = (
    ("off", None),
    ("sampled", SAMPLED_RATE),
    ("full", 1.0),
)

#: Requests served per mode per cycle.  Small enough that machine-load
#: drift within one cycle is negligible, large enough that a batch's
#: wall time (~tens of ms) is well above timer resolution.
BATCH = 16


@dataclass
class TraceModeResult:
    """One tracing mode's outcome over the shared workload."""

    name: str
    sample_rate: float | None
    requests: int
    completed: int
    traces_kept: int
    traces_dropped: int
    spans: int
    wall_seconds: float
    qps: float


@dataclass
class TraceOverheadResult:
    requests: int
    distinct_queries: int
    batch: int
    cycles: int
    rounds: int
    modes: list[TraceModeResult] = field(default_factory=list)
    #: Per mode: raw wall seconds of each measured batch, cycle order,
    #: rounds concatenated.
    batch_seconds: dict[str, list[float]] = field(default_factory=dict)
    #: Per mode: one ratio-of-median-batch-times overhead % per round.
    round_overheads: dict[str, list[float]] = field(default_factory=dict)
    #: Per mode: one paired (off vs mode, same cycle) overhead % per
    #: cycle — diagnostic detail for the payload, not the headline.
    cycle_overheads: dict[str, list[float]] = field(default_factory=dict)

    def mode(self, name: str) -> TraceModeResult:
        for result in self.modes:
            if result.name == name:
                return result
        raise KeyError(name)

    def overhead_pct(self, name: str) -> float:
        """QPS lost to tracing mode *name*, as a % of tracing-off QPS.

        Minimum across rounds of the ratio of median batch times (mode
        median vs off median, within one round).  The median throws
        away stall-corrupted batches; the min across rounds throws
        away noise-contaminated rounds (see the module docstring for
        why contamination is one-sided).
        """
        rounds = self.round_overheads.get(name)
        if rounds:
            return min(rounds)
        base = self.mode("off").qps
        if base <= 0:
            return 0.0
        return (base - self.mode(name).qps) / base * 100.0

    @property
    def sampled_within_guard(self) -> bool:
        return self.overhead_pct("sampled") < MAX_SAMPLED_OVERHEAD_PCT


class _ModeUniverse:
    """One mode's persistent serving stack (and tracer, when traced).

    The front end, its plan cache, and the sampler's counters live for
    the whole bench; the tracer is installed only while this mode's
    batch is being served, so the other modes' batches — and the
    ``off`` baseline in particular — run exactly the production no-op
    path.
    """

    def __init__(
        self,
        name: str,
        rate: float | None,
        config: ExperimentConfig,
        payload: dict,
        workload,
    ) -> None:
        self.name = name
        self.rate = rate
        # A private tracker keeps the force-keep (flagged-trace)
        # decisions a pure function of this universe's own serving
        # history, not of whatever another mode served.
        server = MDBSServer(
            probe_ttl=PINNED_PROBE_TTL,
            accuracy=AccuracyTracker(export=False),
        )
        for site in _make_sites(config):
            server.register_agent(MDBSAgent(site.database))
        server.catalog.import_models(payload)
        serving_config = ServingConfig(
            workers=1,
            queue_depth=max(64, BATCH),
            admission_policy="block",
            plan_cache=True,
            trace_sample_rate=rate if rate is not None else 1.0,
            trace_seed=config.seed,
        )
        self.frontend = ServingFrontEnd(server, serving_config).start()
        # Warm untraced: cache priming is setup, not measured serving.
        self.frontend.serve(workload)
        self.tracer: obs.Tracer | None = (
            obs.Tracer() if rate is not None else None
        )
        self.completed = 0
        self.wall_seconds = 0.0
        self._base_sampled = 0
        self._base_dropped = 0
        self._base_spans = 0

    def serve_batch(self, batch, measured: bool) -> float:
        """Serve one batch with this mode's tracer installed; returns
        the batch's wall seconds (also accumulated when *measured*)."""
        previous = (
            obs.set_tracer(self.tracer) if self.tracer is not None else None
        )
        try:
            started = time.perf_counter()
            tickets = self.frontend.serve(batch)
            wall = time.perf_counter() - started
        finally:
            if previous is not None:
                obs.set_tracer(previous)
        if measured:
            self.wall_seconds += wall
            self.completed += sum(1 for t in tickets if t.ok)
        return wall

    def mark_measurement_start(self) -> None:
        """Snapshot counters so warmup batches don't pollute results."""
        self._base_sampled = self.frontend.sampler.sampled
        self._base_dropped = self.frontend.sampler.dropped
        self._base_spans = self._retained_spans()

    def _retained_spans(self) -> int:
        if self.tracer is None:
            return 0
        return sum(1 for s in self.tracer.finished() if s.trace_id is not None)

    def result(self, requests: int) -> TraceModeResult:
        traced = self.rate is not None
        return TraceModeResult(
            name=self.name,
            sample_rate=self.rate,
            requests=requests,
            completed=self.completed,
            traces_kept=(
                self.frontend.sampler.sampled - self._base_sampled
                if traced
                else 0
            ),
            traces_dropped=(
                self.frontend.sampler.dropped - self._base_dropped
                if traced
                else 0
            ),
            spans=self._retained_spans() - self._base_spans,
            wall_seconds=self.wall_seconds,
            qps=(
                self.completed / self.wall_seconds
                if self.wall_seconds > 0
                else 0.0
            ),
        )

    def close(self) -> None:
        self.frontend.close()


def run_trace_overhead(
    config: ExperimentConfig | None = None,
    requests: int = 256,
    distinct: int = 6,
    batch: int = BATCH,
    rounds: int = 3,
) -> TraceOverheadResult:
    """Train once, then measure every tracing mode over interleaved
    :data:`BATCH`-sized batches, *requests* per mode per round;
    overheads compare per-round median batch times and keep the
    calmest round (see :meth:`TraceOverheadResult.overhead_pct`)."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    cycles = max(1, requests // batch)
    requests = cycles * batch
    config = config or ExperimentConfig()
    payload = _train_models(config)
    workload = _make_workload(config, distinct)
    result = TraceOverheadResult(
        requests=requests * rounds,
        distinct_queries=distinct,
        batch=batch,
        cycles=cycles,
        rounds=rounds,
    )
    universes = [
        _ModeUniverse(name, rate, config, payload, workload)
        for name, rate in TRACE_MODES
    ]
    times: dict[str, list[float]] = {u.name: [] for u in universes}
    round_overheads: dict[str, list[float]] = {
        name: [] for name, _ in TRACE_MODES if name != "off"
    }
    try:
        # One untimed warmup cycle per mode: first-batch costs (branch
        # caches, lazily bound metric handles) land nowhere.
        for universe in universes:
            universe.serve_batch(
                [workload[i % len(workload)] for i in range(batch)],
                measured=False,
            )
            universe.mark_measurement_start()
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for round_index in range(rounds):
                round_times: dict[str, list[float]] = {
                    u.name: [] for u in universes
                }
                for cycle in range(cycles):
                    ordered = (
                        universes
                        if cycle % 2 == 0
                        else list(reversed(universes))
                    )
                    stream = [
                        workload[(cycle * batch + i) % len(workload)]
                        for i in range(batch)
                    ]
                    for universe in ordered:
                        round_times[universe.name].append(
                            universe.serve_batch(list(stream), measured=True)
                        )
                off_median = statistics.median(round_times["off"])
                for name in round_overheads:
                    mode_median = statistics.median(round_times[name])
                    round_overheads[name].append(
                        (mode_median - off_median) / off_median * 100.0
                        if off_median > 0
                        else 0.0
                    )
                for name, walls in round_times.items():
                    times[name].extend(walls)
        finally:
            if gc_was_enabled:
                gc.enable()
    finally:
        for universe in universes:
            universe.close()
    result.modes = [u.result(requests * rounds) for u in universes]
    result.batch_seconds = times
    result.round_overheads = round_overheads
    result.cycle_overheads = {
        name: [
            (mode_wall - off_wall) / off_wall * 100.0 if off_wall > 0 else 0.0
            for mode_wall, off_wall in zip(times[name], times["off"])
        ]
        for name, _ in TRACE_MODES
    }
    return result


def render_trace_overhead(result: TraceOverheadResult) -> str:
    """Scheduling-independent table (counts only; timings go to stderr)."""
    headers = [
        "mode",
        "sample rate",
        "completed",
        "traces kept",
        "traces dropped",
    ]
    rows = [
        (
            mode.name,
            "-" if mode.sample_rate is None else f"{mode.sample_rate:g}",
            mode.completed,
            mode.traces_kept,
            mode.traces_dropped,
        )
        for mode in result.modes
    ]
    return format_table(
        headers,
        rows,
        title=(
            f"Trace overhead: {result.rounds} rounds of "
            f"{result.cycles}x{result.batch} interleaved batches per mode"
        ),
    )


def render_trace_overhead_timings(result: TraceOverheadResult) -> str:
    """The wall-clock side (diagnostics; NOT byte-stable across runs)."""
    lines = [
        f"{mode.name}: {mode.qps:.1f} qps  wall {mode.wall_seconds:.2f}s  "
        f"spans {mode.spans}  overhead {result.overhead_pct(mode.name):+.2f}%"
        for mode in result.modes
    ]
    for name, _ in TRACE_MODES[1:]:
        rounds = result.round_overheads.get(name, [])
        if rounds:
            lines.append(
                f"rounds({name}): "
                + "  ".join(f"{pct:+.2f}%" for pct in rounds)
                + f"  -> min {min(rounds):+.2f}%"
            )
    lines.append(
        f"guard: sampled overhead {result.overhead_pct('sampled'):.2f}% "
        f"< {MAX_SAMPLED_OVERHEAD_PCT:.0f}% -> "
        f"{'ok' if result.sampled_within_guard else 'FAIL'}"
    )
    return "\n".join(lines)


def trace_overhead_payload(result: TraceOverheadResult) -> dict:
    """The ``BENCH_trace_overhead.json`` payload (see EXPERIMENTS.md)."""
    return {
        "bench": "trace_overhead",
        "schema_version": 1,
        "requests": result.requests,
        "distinct_queries": result.distinct_queries,
        "batch": result.batch,
        "cycles": result.cycles,
        "rounds": result.rounds,
        "modes": [
            {
                "name": mode.name,
                "sample_rate": mode.sample_rate,
                "requests": mode.requests,
                "completed": mode.completed,
                "traces_kept": mode.traces_kept,
                "traces_dropped": mode.traces_dropped,
                "spans": mode.spans,
                "qps": mode.qps,
                "wall_seconds": mode.wall_seconds,
                "overhead_pct_vs_off": result.overhead_pct(mode.name),
            }
            for mode in result.modes
        ],
        "round_overheads_pct": result.round_overheads,
        "cycle_overheads_pct": {
            name: cycles
            for name, cycles in result.cycle_overheads.items()
            if name != "off"
        },
        "sampled_overhead_pct": result.overhead_pct("sampled"),
        "guard": {
            "max_sampled_overhead_pct": MAX_SAMPLED_OVERHEAD_PCT,
            "ok": result.sampled_within_guard,
        },
    }
