"""Exposition surface: Prometheus-style text, snapshots, dashboards.

Three consumers:

* a scrape-shaped reader — :func:`render_text` turns a metrics registry
  (or a saved snapshot of one) into the Prometheus text exposition
  format, with histograms rendered as summaries (``_count`` / ``_sum``
  plus ``quantile`` labels);
* offline tooling — :func:`write_snapshot` persists metrics + accuracy
  windows + model-registry state as one JSON document that
  ``python -m repro.obs`` renders back (``--watch`` re-reads it live);
* humans — :func:`render_dashboard` lays the same payload out as a
  one-screen text dashboard: serving totals, the accuracy table, model
  versions, and recent drift events.

Drift events additionally export as JSONL (:func:`write_drift_jsonl`),
one event per line, alongside the span export from :mod:`.export`.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable

from .metrics import MetricsRegistry, get_registry
from .quality import AccuracyTracker, DriftEvent, accuracy_table, get_tracker

__all__ = [
    "drift_events_to_jsonl",
    "read_snapshot",
    "render_dashboard",
    "render_text",
    "snapshot_payload",
    "write_drift_jsonl",
    "write_snapshot",
]

#: Version stamp of the snapshot payload this module writes.
SNAPSHOT_VERSION = 1

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str = "repro_") -> str:
    """A metric name sanitized to the Prometheus grammar."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return prefix + sanitized


def _prom_value(value: float | None) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def render_text(source: MetricsRegistry | dict | None = None) -> str:
    """The registry as Prometheus text exposition format.

    Accepts a live :class:`MetricsRegistry`, a
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict (as stored
    in a snapshot file), or ``None`` for the global registry.  Counters
    and gauges map directly; histograms render as summaries with exact
    ``_count``/``_sum`` and reservoir-sampled quantiles.
    """
    if source is None:
        source = get_registry()
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["kind"]
        prom = _prom_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {_prom_value(entry['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_value(entry['value'])}")
        else:
            lines.append(f"# TYPE {prom} summary")
            for q_key, q_label in (("p50", "0.5"), ("p95", "0.95")):
                if q_key in entry:
                    lines.append(
                        f'{prom}{{quantile="{q_label}"}} '
                        f"{_prom_value(entry[q_key])}"
                    )
            lines.append(f"{prom}_count {int(entry['count'])}")
            lines.append(f"{prom}_sum {_prom_value(entry['sum'])}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Snapshots: one JSON document carrying the whole obs state
# ---------------------------------------------------------------------------


def _model_rows(model_registry) -> list[dict]:
    """Per-(site, class) active-version summaries for the dashboard."""
    rows = []
    for site, label in model_registry.keys():
        entry = model_registry.active_version(site, label)
        rows.append(
            {
                "site": site,
                "class": label,
                "active": entry.version,
                "versions": len(model_registry.history(site, label)),
                "algorithm": entry.provenance.algorithm,
                "r_squared": entry.provenance.r_squared,
                "trigger": entry.provenance.trigger,
            }
        )
    return rows


def snapshot_payload(
    registry: MetricsRegistry | None = None,
    accuracy: AccuracyTracker | None = None,
    model_registry=None,
) -> dict:
    """The combined obs state as a JSON-serializable document.

    ``None`` arguments default to the process-global registry/tracker;
    *model_registry* (a :class:`~repro.mdbs.registry.CostModelRegistry`)
    is optional — experiments that never build an MDBS have none.
    """
    registry = registry if registry is not None else get_registry()
    accuracy = accuracy if accuracy is not None else get_tracker()
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "metrics": registry.snapshot(),
        "accuracy": accuracy.snapshot(),
        "models": _model_rows(model_registry) if model_registry is not None else [],
    }


def write_snapshot(
    path: str | Path,
    registry: MetricsRegistry | None = None,
    accuracy: AccuracyTracker | None = None,
    model_registry=None,
) -> dict:
    """Persist :func:`snapshot_payload` as JSON; returns the payload."""
    payload = snapshot_payload(registry, accuracy, model_registry)
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return payload


def read_snapshot(path: str | Path) -> dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("snapshot_version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported obs snapshot version {version!r} "
            f"(this build reads {SNAPSHOT_VERSION})"
        )
    return payload


# ---------------------------------------------------------------------------
# The one-screen dashboard
# ---------------------------------------------------------------------------

_DASH_COUNTERS = (
    ("mdbs.global_queries", "global queries"),
    ("serving.completed", "served requests"),
    ("serving.rejected", "rejected"),
    ("serving.plan_cache.hits", "plan-cache hits"),
    ("mdbs.probing.coalesced", "probes coalesced"),
    ("mdbs.optimizer.negative_clamped", "negative estimates clamped"),
    ("mdbs.accuracy.samples", "accuracy samples"),
    ("mdbs.maintenance_runs", "maintenance runs"),
    ("maintenance.rebuilds", "model rebuilds"),
    ("mdbs.drift.events", "drift events"),
    ("mdbs.registry.published", "versions published"),
    ("obs.trace.sampled", "traces sampled"),
    ("obs.trace.dropped", "traces dropped"),
)


def _rule(title: str, width: int = 72) -> str:
    return f"--- {title} " + "-" * max(0, width - len(title) - 5)


def render_dashboard(payload: dict) -> str:
    """Lay a snapshot payload out as a one-screen text dashboard."""
    metrics = payload.get("metrics", {})
    lines: list[str] = ["repro.obs dashboard"]

    totals = []
    for name, label in _DASH_COUNTERS:
        entry = metrics.get(name)
        if entry is not None and entry.get("value"):
            totals.append(f"{label}={int(entry['value'])}")
    lines.append("  ".join(totals) if totals else "(no serving activity recorded)")

    spans_entry = metrics.get("obs.trace.spans")
    if spans_entry and spans_entry.get("count"):
        mean = spans_entry.get("mean") or 0.0
        p95 = spans_entry.get("p95")
        p95_text = f"  p95={p95:.0f}" if p95 is not None else ""
        lines.append(
            f"spans/trace: mean={mean:.1f}{p95_text}  "
            f"(over {int(spans_entry['count'])} sampled traces)"
        )

    lines.append("")
    lines.append(_rule("estimate accuracy (rolling windows)"))
    lines.append(accuracy_table(payload.get("accuracy", {})))

    models = payload.get("models", [])
    lines.append("")
    lines.append(_rule("active model versions"))
    if models:
        for row in models:
            trigger = f"  trigger: {row['trigger']}" if row.get("trigger") else ""
            lines.append(
                f"{row['site']}/{row['class']:<4} v{row['active']} "
                f"of {row['versions']}  {row['algorithm']:<8} "
                f"R²={row['r_squared']:.4f}{trigger}"
            )
    else:
        lines.append("(no model registry in snapshot)")

    events = payload.get("accuracy", {}).get("drift_events", [])
    lines.append("")
    lines.append(_rule(f"drift events ({len(events)})"))
    if events:
        for event in events[-8:]:
            lines.append(DriftEvent.from_dict(event).describe())
    else:
        lines.append("(none)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Drift-event JSONL export (alongside the span export)
# ---------------------------------------------------------------------------


def drift_events_to_jsonl(events: Iterable[DriftEvent]) -> str:
    """Drift events as JSON-lines text (one event per line)."""
    return "".join(json.dumps(event.to_dict()) + "\n" for event in events)


def write_drift_jsonl(
    events: Iterable[DriftEvent] | AccuracyTracker, path: str | Path
) -> int:
    """Dump drift events to *path*; returns the number written."""
    if isinstance(events, AccuracyTracker):
        events = events.drift_events
    events = list(events)
    Path(path).write_text(drift_events_to_jsonl(events), encoding="utf-8")
    return len(events)
