"""The ``derive`` workload: the paper's offline pipeline at paper size.

Two sites at scale 0.1: IUPMA on a uniform-contention Oracle-like site
and ICMA on a clustered-contention DB2-like site.  One *derivation set*
derives the G1, G2 and G3 models at both sites from eq. (4)-sized
samples (370 unary, 550 join observations), then validates each model on
held-out queries.  The local engine's execution of sample queries does
the work; the serving layers do none.

Sets run one after another on the same sites (their generators and
simulated clocks move on) until ``--seconds`` have passed.  Outputs that
must be deterministic for a seed come from the first two sets.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from perfbench.checks import model_sanity, model_well_formed
from perfbench.harness import Phase, clock, percentile


@dataclass(frozen=True)
class DeriveSize:
    preset: str
    #: Derivation sets the deterministic outputs (and the traced run) cover.
    fixed_sets: int


DERIVE_SIZES = {"paper": DeriveSize("full", 2), "tiny": DeriveSize("tiny", 1)}


@dataclass
class DeriveState:
    sites: tuple


class Derive:
    name = "derive"

    def __init__(self, seed: int, size: str = "paper") -> None:
        from repro.experiments import config

        self.seed = seed
        self.size = DERIVE_SIZES[size]
        self.fixed_units = self.traced_units = self.size.fixed_sets
        self.config = getattr(config, self.size.preset)(seed)

    def setup(self) -> DeriveState:
        from repro.engine.profiles import DB2_LIKE, ORACLE_LIKE
        from repro.workload.scenarios import make_site

        oracle = make_site(
            "oracle_site",
            profile=ORACLE_LIKE,
            environment_kind="uniform",
            scale=self.config.scale,
            seed=self.seed,
        )
        db2 = make_site(
            "db2_site",
            profile=DB2_LIKE,
            environment_kind="clustered",
            scale=self.config.scale,
            seed=self.seed + 100,
        )
        return DeriveState((oracle, db2))

    def close(self, state: DeriveState) -> None:
        pass

    def prepare_checks(self, state: DeriveState) -> None:
        pass

    def _derivation_set(self, state: DeriveState) -> dict:
        """Sample, partition, select, fit and validate the six models."""
        from repro.core import validation
        from repro.core.builder import CostModelBuilder
        from repro.core.classification import G1, G2, G3

        config = self.config
        outcome = {"models": [], "reports": [], "costs": [], "latencies": [], "failed": 0}
        latencies = outcome["latencies"]
        for site, algorithm in zip(state.sites, ("iupma", "icma")):
            builder = CostModelBuilder(site.database, config=config.builder)
            for query_class in (G1, G2, G3):
                tables = config.join_tables if query_class.family == "join" else None
                try:
                    samples = []
                    for count in (config.train_count(query_class.family), config.test_count):
                        observations = []
                        for query in site.generator.queries_for(
                            query_class, count, tables=tables
                        ):
                            started = clock()
                            observations.extend(builder.collect([query]))
                            latencies.append(clock() - started)
                        samples.append(observations)
                    train, test = samples
                    model = builder.build_from_observations(
                        train, query_class, algorithm
                    ).model
                    report = validation.validate_model(model, test)
                except Exception:  # one failed derivation must not end the run
                    outcome["failed"] += 1
                    continue
                if not model_well_formed(model):
                    outcome["failed"] += 1
                outcome["models"].append((model, train))
                outcome["reports"].append(report)
                outcome["costs"].extend(o.cost for o in train + test)
        return outcome

    def run(self, state: DeriveState, seconds: float, units: int, recorder) -> Phase:
        phase = Phase()
        sets = []
        started = clock()
        deadline = started + seconds
        while len(sets) < units or clock() < deadline:
            set_started = clock()
            sets.append(self._derivation_set(state))
            sets[-1]["wall_s"] = clock() - set_started
        phase.wall_s = clock() - started
        phase.units = len(sets)
        phase.attempted = 6 * len(sets)
        phase.failed = sum(s["failed"] for s in sets)
        phase.data["sets"] = sets
        return phase

    def end_to_end(self, state: DeriveState, phase: Phase):
        sets = phase.data["sets"]
        fixed = sets[: self.size.fixed_sets]
        set_times = [s["wall_s"] for s in sets]
        reports = [r for s in fixed for r in s["reports"]]
        tested = sum(r.n_queries for r in reports)
        good = sum(r.pct_good * r.n_queries for r in reports)
        holdout = statistics.fmean(r.pct_good for r in reports) if reports else 0.0
        sampled = sum(len(s["latencies"]) for s in sets)

        def per_set(value) -> float:
            return statistics.median(value(s) for s in sets)

        # Rates and latency percentiles per derivation set, median across sets.
        metrics = {
            "qps": (per_set(lambda s: len(s["latencies"]) / s["wall_s"]), "1/s"),
            "latency_p50_ms": (1e3 * per_set(lambda s: percentile(s["latencies"], 0.50)), "ms"),
            "latency_p95_ms": (1e3 * per_set(lambda s: percentile(s["latencies"], 0.95)), "ms"),
            "sim_s_per_query": (statistics.fmean(c for s in fixed for c in s["costs"]), "s"),
            "est_good_pct": (good / tested if tested else 0.0, "%"),
        }
        sanity = model_sanity(m for s in fixed for m in s["models"])
        report = [
            f"derive_s {statistics.median(set_times):.6f} s (median over sets)",
            f"derivation sets {phase.units} in {phase.wall_s:.3f}s "
            f"({', '.join(f'{t:.3f}' for t in set_times)}), "
            f"{sampled} sampled queries",
            f"holdout_good_pct {holdout:.4f} % (mean over models), "
            "per model: " + ", ".join(f"{r.pct_good:.1f}" for r in reports),
            f"model sanity over training points: {sanity}",
        ]
        return metrics, report
