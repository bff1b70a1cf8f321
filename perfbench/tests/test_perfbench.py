"""Tests for the benchmark itself, at tiny input sizes.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.checks import References, model_sanity, rows_match
from perfbench.run import WORKLOADS, run_workload
from perfbench.serve import ServeRepeat, check_requests
from perfbench.spans import SpanIndex, SpanRecorder

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture(scope="module")
def runs():
    """Each workload, untraced and traced, twice with one seed."""
    cache: dict = {}

    def get(workload: str, trace: bool, attempt: int):
        key = (workload, trace, attempt)
        if key not in cache:
            cache[key] = run_workload(workload, SEED, 0.0, trace, size="tiny")
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True], ids=["trace0", "trace1"])
def test_emits_every_metric_with_its_unit(runs, workload, trace):
    result = runs(workload, trace, 0)
    expected = _units("per_layer" if trace else "end_to_end")
    assert {name: unit for name, (_, unit) in result.metrics.items()} == expected
    assert result.attempted >= 1
    assert result.failed == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_outputs_repeat_for_a_seed(runs, workload):
    first, second = runs(workload, False, 0), runs(workload, False, 1)
    for name in ("sim_s_per_query", "est_good_pct"):
        assert first.metrics[name] == second.metrics[name], name
    traced = [runs(workload, True, attempt).metrics for attempt in (0, 1)]
    counts = [name for name, unit in _units("per_layer").items() if unit == "count"]
    assert {n: traced[0][n] for n in counts} == {n: traced[1][n] for n in counts}


def test_derive_holdout_is_deterministic(runs):
    lines = [
        [line for line in runs("derive", False, attempt).report if "holdout" in line]
        for attempt in (0, 1)
    ]
    assert lines[0] == lines[1] and lines[0]


def test_a_dropped_row_is_caught():
    workload = ServeRepeat(SEED, size="tiny")
    state = workload.setup()
    try:
        workload.prepare_checks(state)
        phase = workload.run(state, 0.0, workload.fixed_units, None)
    finally:
        workload.close(state)
    requests = phase.data["requests"]
    assert check_requests(requests, state.references) == 0
    victim = next(r for r in requests if r.ticket.execution.rows)
    victim.ticket.execution.rows = victim.ticket.execution.rows[1:]
    assert check_requests(requests, state.references) == 1


def test_references_equal_the_naive_join_of_each_query():
    from repro.engine.joins import naive_join
    from repro.engine.query import JoinQuery

    workload = ServeRepeat(SEED, size="tiny")
    state = workload.setup()
    workload.close(state)
    databases = {site.name: site.database for site in state.sites}
    references = References(databases)
    for query in state.queries:
        join = JoinQuery(
            query.left_table,
            query.right_table,
            query.left_join_column,
            query.right_join_column,
            columns=query.columns,
            left_predicate=query.left_predicate,
            right_predicate=query.right_predicate,
        )
        direct = naive_join(
            databases[query.left_site].catalog.table(query.left_table),
            databases[query.right_site].catalog.table(query.right_table),
            join,
        )
        rows = direct.result.rows
        assert rows and rows_match(rows, references(query))
        assert not rows_match(rows + rows[:1], references(query))


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    root = recorder.open("root")
    child = recorder.open("child")
    recorder.close(child)  # 1.0 -> 3.0
    other = recorder.open("child")
    recorder.close(other)  # 4.0 -> 4.5
    recorder.close(root)  # 0.0 -> 10.0
    index = SpanIndex(recorder.spans)
    assert index.self_time("root") == pytest.approx(7.5)
    assert index.busy("child") == pytest.approx(2.5)
    assert child.parent_id == root.span_id


def test_wrapped_attributes_are_restored():
    class Target:
        def work(self, x):
            return x + 1

    original = Target.__dict__["work"]
    with SpanRecorder() as recorder:
        recorder.wrap(Target, "work", "target.work", lambda a, k, r: {"out": r})
        assert Target().work(1) == 2
    assert Target.__dict__["work"] is original
    assert [(s.name, s.attrs) for s in recorder.spans] == [("target.work", {"out": 2})]


class _FakeModel:
    num_states = 3

    def __init__(self, table):
        self.table = table

    def predict_in_state(self, values, state):
        return self.table[values["q"]][state]


class _Point:
    def __init__(self, q):
        self.values = {"q": q}


def test_model_sanity_counts_negatives_and_inversions():
    model = _FakeModel({0: [1.0, 2.0, 3.0], 1: [-1.0, 2.0, 1.5], 2: [-2.0, -1.0, 0.0]})
    counts = model_sanity([(model, [_Point(0), _Point(1), _Point(2)])])
    assert counts == {"negative_estimates": 3, "state_inversions": 1}


def test_cli_prints_result_as_last_line():
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_repeat",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert "fail_frac" in child.stdout and "fingerprint" in child.stdout


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_repeat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 0.5) == 50.0
    assert harness.percentile(values, 0.95) == 95.0


def test_result_json_shape():
    from perfbench.run import result_json

    result = harness.Result(4, 1, {"qps": (2.5, "1/s")})
    assert result_json(result) == {
        "correct": False,
        "attempted": 4,
        "failed": 1,
        "metrics": {"qps": {"value": 2.5, "unit": "1/s"}},
    }
