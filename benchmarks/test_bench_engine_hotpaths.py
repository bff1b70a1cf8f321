"""Engine hot paths: the raw-speed microbenchmark baseline.

Runs the scalar-vs-vectorized ladder of
:mod:`repro.experiments.engine_hotpaths` once under pytest-benchmark,
asserts the ISSUE acceptance criteria (>= 2x on the scan and join
microbenchmarks, warm buffer reads collapse to zero), and records the
timings to ``BENCH_engine_hotpaths.json`` at the repo root (the CI
``engine-bench-smoke`` job uploads it as an artifact; EXPERIMENTS.md
documents the schema).
"""

import json
import os
from pathlib import Path

from repro.experiments.engine_hotpaths import (
    engine_hotpaths_payload,
    render_engine_hotpaths,
    render_engine_timings,
    run_engine_hotpaths,
)

from .conftest import run_once

#: Override the payload destination (CI writes into the workspace root).
_OUT_ENV = "BENCH_ENGINE_OUT"

#: The acceptance floor for the scan/join microbenchmarks.
MIN_SPEEDUP = 2.0


def _payload_path() -> Path:
    override = os.environ.get(_OUT_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent / "BENCH_engine_hotpaths.json"


def test_bench_engine_hotpaths(benchmark, config):
    result = run_once(benchmark, run_engine_hotpaths, config)

    # Every case timed both paths over identical inputs (the runner
    # asserts output equality before timing either path).
    for case in result.cases:
        assert case.scalar_seconds > 0.0 and case.vectorized_seconds > 0.0
        assert case.output_cardinality >= 0

    # Acceptance: >= 2x on the scan and join microbenchmarks.
    for name in ("seq_scan", "hash_join", "sort_merge_join"):
        case = result.case(name)
        assert case.speedup >= MIN_SPEEDUP, (
            f"{name}: {case.speedup:.2f}x < {MIN_SPEEDUP}x "
            f"(scalar {case.scalar_seconds:.4f}s, "
            f"vectorized {case.vectorized_seconds:.4f}s)"
        )

    # The warm buffer pass reads nothing from disk: both access paths
    # fit the pool, so every warm touch is a hit.
    for buffer_case in result.buffer_cases:
        assert buffer_case.cold_physical_reads > 0
        assert buffer_case.warm_physical_reads == 0
        assert buffer_case.warm_hit_rate == 1.0
        assert buffer_case.logical_reads == buffer_case.cold_physical_reads

    payload = engine_hotpaths_payload(result)
    path = _payload_path()
    path.write_text(json.dumps(payload, indent=2) + "\n")

    print(render_engine_hotpaths(result))
    print(render_engine_timings(result))
    print(f"payload -> {path}")
