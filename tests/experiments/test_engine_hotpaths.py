"""The engine-hotpaths microbenchmark runner at deliberately tiny sizes.

The benchmark in ``benchmarks/test_bench_engine_hotpaths.py`` asserts the
speedup acceptance at quick-preset sizes; here we only check structure:
the runner times every case over identical inputs, the byte-stable
render excludes wall clock, and the JSON payload matches the schema
documented in EXPERIMENTS.md.
"""

import json

from repro.experiments.config import tiny
from repro.experiments.engine_hotpaths import (
    REPEATS,
    engine_hotpaths_payload,
    render_engine_hotpaths,
    render_engine_timings,
    run_engine_hotpaths,
)

TINY = tiny(seed=13)


class TestRunner:
    def test_cases_and_sizes(self):
        result = run_engine_hotpaths(TINY, scan_rows=3_000, join_rows=1_500)
        assert [c.name for c in result.cases] == [
            "seq_scan", "hash_join", "sort_merge_join", "histogram_build",
            "temp_table_load", "sample_collection",
        ]
        assert result.scan_rows == 3_000 and result.join_rows == 1_500
        for case in result.cases:
            assert case.scalar_seconds > 0.0
            assert case.vectorized_seconds > 0.0
            assert case.repeats == REPEATS
        # The scan reduced the operand; the joins matched every key.
        assert 0 < result.case("seq_scan").output_cardinality < 3_000
        assert result.case("hash_join").output_cardinality > 0
        # The temp table holds every row the scan selected.
        load = result.case("temp_table_load")
        assert load.rows == load.output_cardinality
        assert load.rows == result.case("seq_scan").output_cardinality
        # One observation per sampled G1 and G3 query.
        sampled = result.case("sample_collection")
        expected = TINY.train_count("unary") + TINY.train_count("join")
        assert sampled.rows == sampled.output_cardinality == expected

    def test_buffer_cases_warm_to_full_hits(self):
        result = run_engine_hotpaths(TINY, scan_rows=3_000, join_rows=1_500)
        assert [c.name for c in result.buffer_cases] == ["seq_scan", "hash_join"]
        for case in result.buffer_cases:
            assert case.cold_physical_reads == case.logical_reads > 0
            assert case.warm_physical_reads == 0
            assert case.warm_hit_rate == 1.0
            assert case.hit_state in ("cold", "warm", "hot")

    def test_unknown_case_raises(self):
        result = run_engine_hotpaths(TINY, scan_rows=2_000, join_rows=1_000)
        try:
            result.case("merge_scan")
        except KeyError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected KeyError")


class TestRendering:
    def test_stable_render_has_no_wall_clock(self):
        result = run_engine_hotpaths(TINY, scan_rows=2_000, join_rows=1_000)
        rendered = render_engine_hotpaths(result)
        assert "seq_scan" in rendered and "hash_join" in rendered
        assert "ms" not in rendered and "speedup" not in rendered

    def test_timings_render_is_diagnostic(self):
        result = run_engine_hotpaths(TINY, scan_rows=2_000, join_rows=1_000)
        timings = render_engine_timings(result)
        assert "speedup" in timings and "vectorized" in timings


class TestPayload:
    def test_schema_round_trips_through_json(self):
        result = run_engine_hotpaths(TINY, scan_rows=2_000, join_rows=1_000)
        payload = json.loads(json.dumps(engine_hotpaths_payload(result)))
        assert payload["bench"] == "engine_hotpaths"
        assert payload["schema_version"] == 1
        assert payload["repeats"] == REPEATS
        assert {c["name"] for c in payload["cases"]} == {
            "seq_scan", "hash_join", "sort_merge_join", "histogram_build",
            "temp_table_load", "sample_collection",
        }
        for case in payload["cases"]:
            assert case["speedup"] > 0.0
        assert [b["name"] for b in payload["buffer"]] == ["seq_scan", "hash_join"]
        for buffer_case in payload["buffer"]:
            assert buffer_case["warm_physical_reads"] == 0
