"""repro.serving — the serving front end of the MDBS.

Puts admission control, a model-version-aware plan cache, and
cross-request probe sharing in front of the synchronous
:class:`~repro.mdbs.server.MDBSServer`:

    requests → admission (simulated slots + bounded queue, block/reject)
             → plan cache (keyed on query + contention states,
                           invalidated on registry events)
             → global optimizer (shared, TTL-cached probing through
                                 the ProbingService)
             → execution on the MDBS server, one request at a time on
               the caller's thread, in submission order

Serving latency is simulated: a request holds one of ``workers`` slots
for its simulated execution time, so queue waits and latencies are
simulated seconds, like the cost models' predictions.

See DESIGN.md ("Serving") for the architecture diagram and
``benchmarks/test_bench_serving_throughput.py`` for the recorded
QPS / latency baseline (``BENCH_serving_throughput.json``).
"""

from .config import ADMISSION_POLICIES, ServingConfig
from .frontend import ServingFrontEnd, ServingStats, ServingTicket, TICKET_STATUSES
from .plan_cache import PlanCache, query_key

__all__ = [
    "ADMISSION_POLICIES",
    "PlanCache",
    "ServingConfig",
    "ServingFrontEnd",
    "ServingStats",
    "ServingTicket",
    "TICKET_STATUSES",
    "query_key",
]
