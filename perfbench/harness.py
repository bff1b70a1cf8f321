"""The protocol every workload runs under.

Untraced run (``--trace 0``), which gives the end-to-end metrics:

1. set the workload up :data:`SETUP_REPEATS` times, timing each, and
   keep the last one (``setup_s`` is the median);
2. prepare the output checks (references), untimed;
3. freeze the garbage collector's view of the set-up objects, then run
   the timed phase: work units one after another until ``--seconds``
   have passed, and at least the workload's fixed unit count (the
   deterministic outputs are read from those first units);
4. check every output, untimed, and count failures.

Traced run (``--trace 1``), which gives the per-layer metrics: the
workload's traced unit count runs three times from identical fresh
set-ups: untraced, with every layer wrapped (:mod:`perfbench.layers`),
and untraced again.  The
per-layer counts are therefore deterministic for a seed, and the traced
phase's wall time over the mean of the untraced ones is the tracing
overhead.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import layers
from perfbench.checks import model_sanity
from perfbench.spans import SpanIndex, SpanRecorder, write_jsonl

SETUP_REPEATS = 3

clock = time.perf_counter


@dataclass
class Phase:
    """What one run of work units left behind, for checks and metrics."""

    units: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Per-ticket queue waits (serve workloads).
    queue_waits: list[float] = field(default_factory=list)
    #: Workload-specific results the checks and metrics read.
    data: dict = field(default_factory=dict)


@dataclass
class Result:
    attempted: int
    failed: int
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]]
    #: Human-readable lines printed above the JSON result.
    report: list[str] = field(default_factory=list)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (*q* in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def serving_wall(requests: list) -> float:
    """Wall seconds from each work unit's first submission to its last
    completion, summed: gaps between units (a shard building its
    universe) are excluded, pauses between a unit's requests are not.
    Requests carry ``tag`` (the work unit), ``started`` and ``finished``."""
    spans: dict = {}
    for r in requests:
        span = spans.setdefault(r.tag, [r.started, r.finished])
        span[1] = r.finished
    return sum(end - start for start, end in spans.values())


def windowed_latency(requests: list, size: int) -> tuple[float, float]:
    """(p50, p95) request latency: the median, across consecutive windows
    of *size* requests, of each window's percentile.  A burst of machine
    noise then moves a few windows rather than the whole figure."""
    windows = [requests[i : i + size] for i in range(0, len(requests), size)]
    if len(windows) > 1 and len(windows[-1]) < size:
        windows.pop()
    latencies = [[r.finished - r.started for r in window] for window in windows]
    return (
        statistics.median(percentile(w, 0.50) for w in latencies),
        statistics.median(percentile(w, 0.95) for w in latencies),
    )


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(workload):
    started = clock()
    state = workload.setup()
    return state, clock() - started


def _run(
    workload, state, seconds: float, units: int, recorder: SpanRecorder | None
) -> Phase:
    gc.collect()
    gc.freeze()
    try:
        return workload.run(state, seconds, units, recorder)
    finally:
        gc.unfreeze()


def run_untraced(workload, seconds: float) -> Result:
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        state, elapsed = _timed_setup(workload)
        setup_times.append(elapsed)
    try:
        workload.prepare_checks(state)
        phase = _run(workload, state, seconds, workload.fixed_units, None)
        metrics, report = workload.end_to_end(state, phase)
    finally:
        workload.close(state)
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    report.append(f"setup_s per repeat: {', '.join(f'{t:.3f}' for t in setup_times)}")
    return Result(phase.attempted, phase.failed, metrics, report)


def run_traced(workload, out_dir: Path, tag: str) -> Result:
    derived: list[tuple] = []
    recorder = SpanRecorder()

    def fixed_phase(traced: bool) -> Phase:
        # Models the set-up derives count toward the sanity totals too.
        with SpanRecorder() as capture:
            if traced:
                layers.wrap_derivations(capture, derived, "setup.derive")
            state, _ = _timed_setup(workload)
        try:
            workload.prepare_checks(state)
            if traced:
                layers.install(recorder, derived)
            return _run(
                workload, state, 0.0, workload.traced_units, recorder if traced else None
            )
        finally:
            recorder.restore()
            workload.close(state)

    # Untraced, traced, untraced: the overhead compares the traced
    # phase with the mean of the two around it, which cancels drift.
    phases = [fixed_phase(False), fixed_phase(True), fixed_phase(False)]
    traced = phases[1]
    plain_s = statistics.fmean((phases[0].wall_s, phases[2].wall_s))
    overhead = 100.0 * (traced.wall_s / plain_s - 1.0)
    metrics = layers.per_layer_metrics(
        recorder,
        queue_waits=traced.queue_waits,
        sanity=model_sanity(derived),
        overhead_pct=overhead,
    )
    spans_path = out_dir / f"{tag}.spans.jsonl"
    write_jsonl(recorder.spans, spans_path)
    report = [
        f"traced {traced.units} units: {traced.wall_s:.3f}s traced vs "
        f"{phases[0].wall_s:.3f}s / {phases[2].wall_s:.3f}s untraced "
        f"({overhead:+.1f}%), {len(recorder.spans)} spans -> {spans_path}",
        *_layer_table(recorder, traced.wall_s),
    ]
    return Result(
        sum(p.attempted for p in phases),
        sum(p.failed for p in phases),
        metrics,
        report,
    )


def _layer_table(recorder: SpanRecorder, wall_s: float) -> list[str]:
    """Spans ranked by self time, with their share of the traced wall."""
    lines = [f"{'span':<26}{'calls':>8}{'busy_s':>10}{'self_s':>10}{'self%':>8}"]
    for name, calls, busy, own in SpanIndex(recorder.spans).self_table():
        share = 100.0 * own / wall_s if wall_s else 0.0
        lines.append(f"{name:<26}{calls:>8}{busy:>10.3f}{own:>10.3f}{share:>7.1f}%")
    return lines
