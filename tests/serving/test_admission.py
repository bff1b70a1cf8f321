"""Admission control on the simulated queue: bounds, policies, validation.

Each ``serve`` batch arrives at once in front of ``workers`` slots and a
``queue_depth``-long queue, so every admission outcome is an exact
function of the batch — no threads to hold, no sleeps.
"""

import pytest

from repro.serving import ADMISSION_POLICIES, ServingConfig, ServingFrontEnd

from .conftest import query_mix


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = ServingConfig()
        assert config.workers >= 1
        assert config.admission_policy in ADMISSION_POLICIES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"queue_depth": 0},
            {"queue_depth": -1},
            {"admission_policy": "drop"},
            {"trace_sample_rate": 1.5},
            {"trace_sample_rate": -0.1},
            {"plan_cache_capacity": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


class TestRejectPolicy:
    def test_full_queue_rejects_instead_of_blocking(self, serving_mdbs):
        server, _ = serving_mdbs
        query = query_mix()[0]
        config = ServingConfig(
            workers=1, queue_depth=1, admission_policy="reject", plan_cache=False
        )
        with ServingFrontEnd(server, config) as frontend:
            # One request takes the slot, one fills the depth-1 queue,
            # the third has nowhere to go.
            running, queued, rejected = frontend.serve([query] * 3)
            stats = frontend.stats()
        assert running.ok and queued.ok
        assert rejected.status == "rejected"
        assert not rejected.ok
        assert rejected.execution is None
        assert rejected.wait_seconds is None
        assert rejected.latency_seconds == 0.0
        assert stats.submitted == 3
        assert stats.admitted == 2
        assert stats.rejected == 1
        assert stats.dropped == 1

    @pytest.mark.parametrize(
        "n, workers, depth", [(6, 1, 1), (12, 2, 3), (6, 4, 1), (6, 2, 8)]
    )
    def test_rejects_exactly_beyond_slots_plus_queue(
        self, serving_mdbs, n, workers, depth
    ):
        server, _ = serving_mdbs
        queries = (query_mix() * 2)[:n]
        config = ServingConfig(
            workers=workers, queue_depth=depth, admission_policy="reject"
        )
        expected = max(0, n - workers - depth)
        with ServingFrontEnd(server, config) as frontend:
            batches = [frontend.serve(queries) for _ in range(2)]
            stats = frontend.stats()
        for tickets in batches:
            # The clock advances past each batch, so every batch meets
            # empty slots: the same count is shed each time, and it is
            # always the tail of the batch in submission order.
            statuses = [t.status for t in tickets]
            assert statuses == ["completed"] * (n - expected) + ["rejected"] * expected
        assert stats.rejected == stats.dropped == 2 * expected
        assert stats.admitted == 2 * (n - expected)


class TestBlockPolicy:
    def test_backpressure_never_drops(self, serving_mdbs):
        server, _ = serving_mdbs
        queries = query_mix() * 4
        config = ServingConfig(workers=2, queue_depth=2, admission_policy="block")
        with ServingFrontEnd(server, config) as frontend:
            tickets = frontend.serve(queries)
            stats = frontend.stats()
        assert all(t.ok for t in tickets)
        assert stats.dropped == 0
        assert stats.admitted == stats.submitted == len(queries)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_simulated_waits_never_decrease(self, serving_mdbs, workers):
        server, _ = serving_mdbs
        queries = query_mix() * 2
        config = ServingConfig(workers=workers, queue_depth=1, admission_policy="block")
        with ServingFrontEnd(server, config) as frontend:
            first = frontend.serve(queries)
            second = frontend.serve(queries)
        for tickets in (first, second):
            assert all(t.ok for t in tickets)
            waits = [t.wait_seconds for t in tickets]
            assert waits == sorted(waits)
            # The first `workers` requests find a free slot.
            assert waits[:workers] == [0.0] * workers
            assert waits[workers] > 0.0
            for ticket in tickets:
                held = ticket.finished_at - ticket.started_at
                assert held == pytest.approx(ticket.execution.observed_seconds)
        # The second batch arrives when the first has fully drained.
        assert {t.submitted_at for t in second} == {max(t.finished_at for t in first)}
