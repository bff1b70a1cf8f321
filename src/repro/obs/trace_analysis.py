"""Cross-process trace analytics over merged JSONL trace files.

The loadgen coordinator (and any single-process run) dumps spans as
JSON lines; this module answers the three questions a trace file
exists for:

* *what happened to one request?* — :func:`trace_tree_lines` renders a
  single trace's span tree with durations and provenance attributes;
* *which requests were slow?* — :func:`slowest_table` ranks traces by
  their root span's duration;
* *where does latency come from overall?* — :func:`stage_breakdown`
  attributes every request's span time to pipeline stages (plan vs
  probe vs probe-wait vs execute vs other), splitting probe time out of
  the stage it ran under so a single-flight wait is visible as waiting,
  not planning.

Everything operates on plain span dicts (the :func:`~repro.obs.export.
span_to_dict` shape), so a file merged from many worker processes needs
no reconstruction beyond ``json.loads`` per line.  All renderings sort
deterministically (duration desc, then trace id) for golden tests.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

#: The stages a request's span time is attributed to, in pipeline order.
#: Queueing is not one of them: the front end's queue waits are
#: simulated seconds (the root's ``wait_seconds`` attribute), and this
#: breakdown covers only the spans' own clock.
STAGES = ("plan", "probe", "probe_wait", "execute", "other")

#: The span name a request's root carries (the frontend's ticket span).
ROOT_SPAN_NAME = "serving.request"


def load_trace_file(path: str | Path) -> list[dict[str, Any]]:
    """Span dicts from a JSONL trace file (blank lines skipped)."""
    spans = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            spans.append(json.loads(line))
    return spans


def group_traces(
    spans: Iterable[dict[str, Any]],
) -> dict[str, list[dict[str, Any]]]:
    """Spans grouped by trace id (spans without one are left out)."""
    groups: dict[str, list[dict[str, Any]]] = {}
    for span in spans:
        trace_id = span.get("trace_id")
        if trace_id is not None:
            groups.setdefault(trace_id, []).append(span)
    return groups


def trace_root(spans: Sequence[dict[str, Any]]) -> dict[str, Any] | None:
    """The root span of one trace's spans.

    Prefers a span named :data:`ROOT_SPAN_NAME`; otherwise the earliest
    span whose parent is absent from the trace.
    """
    if not spans:
        return None
    ids = {span["span_id"] for span in spans}
    roots = [
        span
        for span in spans
        if span.get("parent_id") is None or span["parent_id"] not in ids
    ]
    if not roots:
        return None
    named = [span for span in roots if span["name"] == ROOT_SPAN_NAME]
    pool = named or roots
    return min(pool, key=lambda span: (span.get("start", 0.0), span["span_id"]))


def _duration(span: dict[str, Any]) -> float:
    duration = span.get("duration")
    if duration is not None:
        return float(duration)
    start, end = span.get("start", 0.0), span.get("end")
    return 0.0 if end is None else float(end) - float(start)


def _is_probe(name: str) -> bool:
    """Probe spans: the service-level acquisition (``mdbs.probe.service``,
    whose duration includes any single-flight wait) and the agent-level
    probe executions (``mdbs.probe``) nested inside it."""
    return name.startswith("mdbs.probe")


def _probe_context(
    span: dict[str, Any], by_id: dict[int, dict[str, Any]]
) -> tuple[str | None, bool]:
    """(enclosing serving stage, is-nested-in-another-probe) for a probe
    span — only the outermost probe span in a chain is attributed, and
    its time is subtracted from whichever stage it ran under."""
    stage: str | None = None
    nested = False
    seen: set[int] = set()
    parent_id = span.get("parent_id")
    while parent_id is not None and parent_id in by_id and parent_id not in seen:
        seen.add(parent_id)
        parent = by_id[parent_id]
        if _is_probe(parent["name"]):
            nested = True
        if stage is None and parent["name"] in ("serving.plan", "serving.execute"):
            stage = parent["name"]
        parent_id = parent.get("parent_id")
    return stage, nested


def trace_stage_seconds(spans: Sequence[dict[str, Any]]) -> dict[str, float]:
    """One trace's span time attributed to :data:`STAGES`.

    ``probe``/``probe_wait`` are probe executions vs single-flight waits
    (``outcome`` attribute), subtracted from whichever of plan/execute
    they ran under; ``other`` is the root's time not covered by any
    stage span.
    """
    by_id = {span["span_id"]: span for span in spans}
    root = trace_root(spans)
    totals = dict.fromkeys(STAGES, 0.0)
    raw_plan = raw_execute = 0.0
    for span in spans:
        name = span["name"]
        duration = _duration(span)
        if name == "serving.plan":
            totals["plan"] += duration
            raw_plan += duration
        elif name == "serving.execute":
            totals["execute"] += duration
            raw_execute += duration
        elif _is_probe(name):
            enclosing, nested = _probe_context(span, by_id)
            if nested:
                continue  # only the outermost probe span is attributed
            attrs = span.get("attributes", {})
            stage = (
                "probe_wait"
                if attrs.get("outcome") == "coalesced"
                else "probe"
            )
            totals[stage] += duration
            if enclosing == "serving.plan":
                totals["plan"] -= duration
            elif enclosing == "serving.execute":
                totals["execute"] -= duration
    if root is not None:
        totals["other"] = max(0.0, _duration(root) - raw_plan - raw_execute)
    return totals


def stage_breakdown(
    groups: dict[str, list[dict[str, Any]]],
) -> dict[str, float]:
    """Stage totals summed over every trace in *groups*."""
    totals = dict.fromkeys(STAGES, 0.0)
    for spans in groups.values():
        for stage, seconds in trace_stage_seconds(spans).items():
            totals[stage] += seconds
    return totals


def render_stage_breakdown(groups: dict[str, list[dict[str, Any]]]) -> str:
    """The critical-path table: seconds and share per stage."""
    totals = stage_breakdown(groups)
    grand = sum(totals.values())
    header = f"{'stage':<12}  {'seconds':>12}  {'share':>7}"
    lines = [header, "-" * len(header)]
    for stage in STAGES:
        seconds = totals[stage]
        share = (seconds / grand * 100.0) if grand > 0 else 0.0
        lines.append(f"{stage:<12}  {seconds:>12.6f}  {share:>6.1f}%")
    lines.append(
        f"{'total':<12}  {grand:>12.6f}  {'100.0%' if grand > 0 else '  0.0%':>7}"
    )
    return "\n".join(lines)


def slowest_traces(
    groups: dict[str, list[dict[str, Any]]], n: int = 5
) -> list[tuple[str, dict[str, Any]]]:
    """The *n* traces with the longest root spans, slowest first
    (ties break on trace id, so the ranking is deterministic)."""
    ranked = []
    for trace_id, spans in groups.items():
        root = trace_root(spans)
        if root is not None:
            ranked.append((trace_id, root))
    ranked.sort(key=lambda pair: (-_duration(pair[1]), pair[0]))
    return ranked[:n]


def render_slowest_table(
    groups: dict[str, list[dict[str, Any]]], n: int = 5
) -> str:
    """The slowest-N table: trace id, duration, span count, status."""
    rows = []
    for trace_id, root in slowest_traces(groups, n):
        attrs = root.get("attributes", {})
        rows.append(
            (
                trace_id,
                _duration(root),
                len(groups[trace_id]),
                str(attrs.get("status", "?")),
                str(attrs.get("query", "")),
            )
        )
    if not rows:
        return "(no traces)"
    id_width = max(len("trace"), *(len(r[0]) for r in rows))
    header = (
        f"{'trace':<{id_width}}  {'seconds':>12}  {'spans':>5}  "
        f"{'status':<9}  query"
    )
    lines = [header, "-" * len(header)]
    for trace_id, seconds, span_count, status, query in rows:
        lines.append(
            f"{trace_id:<{id_width}}  {seconds:>12.6f}  {span_count:>5}  "
            f"{status:<9}  {query}"
        )
    return "\n".join(lines)


def _attr_suffix(span: dict[str, Any]) -> str:
    attrs = span.get("attributes", {})
    if not attrs:
        return ""
    parts = [f"{key}={attrs[key]}" for key in sorted(attrs)]
    return "  [" + " ".join(parts) + "]"


def trace_tree_lines(spans: Sequence[dict[str, Any]]) -> list[str]:
    """One trace rendered as an indented tree with attributes."""
    ids = {span["span_id"] for span in spans}
    children: dict[int | None, list[dict[str, Any]]] = {}
    ordered = sorted(spans, key=lambda s: (s.get("start", 0.0), s["span_id"]))
    for span in ordered:
        children.setdefault(span.get("parent_id"), []).append(span)
    lines: list[str] = []

    def emit(span: dict[str, Any], depth: int) -> None:
        lines.append(
            f"{'  ' * depth}{span['name']}  "
            f"{_duration(span):.6f}s{_attr_suffix(span)}"
        )
        for child in children.get(span["span_id"], []):
            emit(child, depth + 1)

    for span in ordered:
        parent_id = span.get("parent_id")
        if parent_id is None or parent_id not in ids:
            emit(span, 0)
    return lines


def render_trace_tree(
    groups: dict[str, list[dict[str, Any]]], trace_id: str
) -> str:
    """The span tree of one trace, by id."""
    spans = groups.get(trace_id)
    if not spans:
        return f"(trace {trace_id!r} not found)"
    return "\n".join([f"trace {trace_id}"] + trace_tree_lines(spans))


def render_trace_report(
    spans: Iterable[dict[str, Any]],
    slowest: int = 5,
    tree: str | None = None,
) -> str:
    """The full CLI report: stage breakdown, slowest-N, one span tree.

    *tree* picks the trace to expand; default is the slowest trace.
    """
    groups = group_traces(spans)
    sections = [
        f"traces: {len(groups)}",
        "",
        "Per-stage latency attribution (critical path)",
        render_stage_breakdown(groups),
        "",
        f"Slowest {slowest} traces",
        render_slowest_table(groups, slowest),
    ]
    if tree is None:
        ranked = slowest_traces(groups, 1)
        tree = ranked[0][0] if ranked else None
    if tree is not None:
        sections += ["", render_trace_tree(groups, tree)]
    return "\n".join(sections)
