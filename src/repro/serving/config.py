"""Serving-front-end configuration: service slots, admission, caching.

One frozen dataclass carries every serving knob so experiment code can
sweep configurations declaratively (the throughput bench builds its
concurrency ladder from ``replace(config, workers=n)``).

Admission is evaluated against a *simulated* queue: each ``serve``
batch arrives at once in front of ``workers`` service slots, and

* ``queue_depth`` — how many admitted requests may *wait* for a slot;
* ``admission_policy`` — what happens beyond ``workers + queue_depth``:
  ``"block"`` applies backpressure to the submitter (no request is ever
  dropped; the later requests simply wait longer in simulated time),
  ``"reject"`` fails the request immediately with a ``rejected`` ticket
  (load-shedding; the caller sees the drop and can retry).

Requests always execute one at a time on the caller's thread, so
``workers`` changes only simulated waits, never plans or results.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Valid ``admission_policy`` values.
ADMISSION_POLICIES = ("block", "reject")


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of one :class:`~repro.serving.frontend.ServingFrontEnd`."""

    #: Simulated service slots; a request holds one for its simulated
    #: execution time.
    workers: int = 4
    #: Admitted requests allowed to wait for a slot.
    queue_depth: int = 128
    #: "block" (backpressure) or "reject" (shed load at the bound).
    admission_policy: str = "block"
    #: Serve repeated optimizations from the plan cache.
    plan_cache: bool = True
    #: Cached plans kept before LRU eviction.
    plan_cache_capacity: int = 1024
    #: Fraction of traces kept by deterministic head sampling (hash of
    #: the trace id); failed/rejected requests and worst-band
    #: accuracy exemplars are always kept regardless.  Only consulted
    #: when a real tracer is installed (``obs.enable``/``set_tracer``).
    trace_sample_rate: float = 1.0
    #: Seed salting the trace-id hash, so reruns keep the same set.
    trace_seed: int = 0
    #: Prefix for generated trace ids (loadgen shards use ``s{index}-``
    #: so coordinator-merged traces stay globally unique).
    trace_id_prefix: str = ""

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.admission_policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"admission_policy must be one of {ADMISSION_POLICIES}, "
                f"not {self.admission_policy!r}"
            )
        if self.plan_cache_capacity < 1:
            raise ValueError("plan_cache_capacity must be >= 1")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be within [0, 1]")
