"""Cross-process trace analytics: stage attribution, rankings, CLI.

All inputs are hand-built span dicts in the ``span_to_dict`` shape, so
every expected number is exact — no real serving run, no wall clock.
"""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.trace_analysis import (
    STAGES,
    group_traces,
    load_trace_file,
    render_slowest_table,
    render_stage_breakdown,
    render_trace_report,
    render_trace_tree,
    slowest_traces,
    trace_root,
    trace_stage_seconds,
    trace_tree_lines,
)


def _span(
    name,
    span_id,
    parent_id=None,
    trace_id="t-1",
    start=0.0,
    duration=1.0,
    **attributes,
):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "trace_id": trace_id,
        "start": start,
        "end": start + duration,
        "duration": duration,
        "thread": "main",
        "attributes": attributes,
    }


def request_trace(trace_id="t-1", base_id=0, root_duration=10.0, slow=0.0):
    """One request's spans: root > plan/execute, probes nested.

    The plan stage hides a coalesced probe wait, the execute stage a real
    probe execution — exactly the attribution subtlety the breakdown has
    to get right.
    """
    b = base_id
    return [
        _span(
            "serving.request",
            b + 1,
            trace_id=trace_id,
            duration=root_duration + slow,
            status="completed",
            query="q",
            wait_seconds=2.0,
        ),
        _span(
            "serving.plan",
            b + 3,
            b + 1,
            trace_id,
            start=2.0,
            duration=3.0 + slow,
        ),
        _span(
            "mdbs.probe.service",
            b + 4,
            b + 3,
            trace_id,
            start=2.5,
            duration=1.0,
            outcome="coalesced",
        ),
        _span("serving.execute", b + 5, b + 1, trace_id, start=5.0, duration=4.0),
        _span(
            "mdbs.probe.service",
            b + 6,
            b + 5,
            trace_id,
            start=5.5,
            duration=0.5,
            outcome="executed",
        ),
        # Nested under the outer probe span: must NOT be double-counted.
        _span(
            "mdbs.probe",
            b + 7,
            b + 6,
            trace_id,
            start=5.6,
            duration=0.4,
            outcome="executed",
        ),
    ]


class TestStageAttribution:
    def test_probe_time_moves_out_of_its_enclosing_stage(self):
        totals = trace_stage_seconds(request_trace())
        # plan held a 1.0s coalesced wait: 3.0 raw - 1.0 probe_wait.
        assert totals["plan"] == pytest.approx(2.0)
        assert totals["probe_wait"] == pytest.approx(1.0)
        # execute held a 0.5s probe execution (outermost span only).
        assert totals["execute"] == pytest.approx(3.5)
        assert totals["probe"] == pytest.approx(0.5)
        # root 10.0 - (raw plan 3.0 + raw execute 4.0).
        assert totals["other"] == pytest.approx(3.0)
        assert sum(totals.values()) == pytest.approx(10.0)

    def test_nested_probe_spans_count_once(self):
        totals = trace_stage_seconds(request_trace())
        # The inner mdbs.probe (0.4s) is swallowed by its parent span.
        assert totals["probe"] == pytest.approx(0.5)

    def test_breakdown_sums_over_traces(self):
        groups = group_traces(
            request_trace("t-1", 0) + request_trace("t-2", 100)
        )
        rendered = render_stage_breakdown(groups)
        assert set(STAGES) <= {
            line.split()[0] for line in rendered.splitlines()[2:]
        }
        plan_row = next(
            line for line in rendered.splitlines() if line.startswith("plan")
        )
        assert "4.000000" in plan_row  # 2.0s per trace, two traces


class TestSlowest:
    def test_ranked_by_root_duration_then_trace_id(self):
        spans = (
            request_trace("t-b", 0, root_duration=10.0)
            + request_trace("t-a", 100, root_duration=10.0)
            + request_trace("t-slow", 200, root_duration=10.0, slow=5.0)
        )
        ranked = slowest_traces(group_traces(spans), n=3)
        # Slowest first; equal durations break ties on trace id.
        assert [trace_id for trace_id, _ in ranked] == ["t-slow", "t-a", "t-b"]

    def test_table_carries_spans_status_query(self):
        table = render_slowest_table(group_traces(request_trace()), n=5)
        row = table.splitlines()[2]
        assert row.startswith("t-1")
        assert " 6 " in row  # span count
        assert "completed" in row

    def test_empty_input(self):
        assert render_slowest_table({}, n=5) == "(no traces)"


class TestTreeRendering:
    def test_indentation_follows_parentage(self):
        lines = trace_tree_lines(request_trace())
        assert lines[0].startswith("serving.request")
        assert lines[1].startswith("  serving.plan")
        probe_lines = [l for l in lines if "mdbs.probe.service" in l]
        assert all(l.startswith("    mdbs.probe.service") for l in probe_lines)
        assert any(l.startswith("      mdbs.probe ") for l in lines)

    def test_attributes_render_sorted(self):
        (line,) = trace_tree_lines(
            [_span("s", 1, zebra=1, alpha=2, duration=0.5)]
        )
        assert "[alpha=2 zebra=1]" in line

    def test_missing_trace(self):
        assert "not found" in render_trace_tree({}, "t-missing")

    def test_root_prefers_the_named_request_span(self):
        spans = request_trace()
        assert trace_root(spans)["name"] == "serving.request"
        # Without the named root, the earliest orphan wins.
        headless = [s for s in spans if s["name"] != "serving.request"]
        assert trace_root(headless)["name"] == "serving.plan"


class TestCli:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "merged.jsonl"
        spans = request_trace("t-1", 0) + request_trace(
            "t-2", 100, slow=3.0
        )
        path.write_text(
            "".join(json.dumps(span) + "\n" for span in spans),
            encoding="utf-8",
        )
        return path

    def test_load_skips_blank_lines(self, trace_file):
        raw = trace_file.read_text()
        trace_file.write_text("\n" + raw + "\n\n")
        assert len(load_trace_file(trace_file)) == 12

    def test_report_contains_all_sections(self, trace_file):
        report = render_trace_report(load_trace_file(trace_file), slowest=5)
        assert "traces: 2" in report
        assert "critical path" in report
        assert "Slowest 5 traces" in report
        # Default tree expansion: the slowest trace.
        assert "trace t-2" in report

    def test_trace_subcommand_end_to_end(self, trace_file, capsys):
        assert obs_main(["trace", str(trace_file), "--slowest", "2"]) == 0
        out = capsys.readouterr().out
        assert "Slowest 2 traces" in out
        assert "serving.request" in out

    def test_tree_flag_picks_the_trace(self, trace_file, capsys):
        assert obs_main(["trace", str(trace_file), "--tree", "t-1"]) == 0
        assert "trace t-1" in capsys.readouterr().out

    def test_bad_slowest_rejected(self, trace_file):
        with pytest.raises(SystemExit):
            obs_main(["trace", str(trace_file), "--slowest", "0"])
