"""Output checks and model-sanity counts, run outside the timed phase.

* Served rows: every served global join is compared, as a row multiset,
  with a tuple-at-a-time ``repro.engine.joins.naive_join`` over the two
  base tables (:class:`References`).
* Derived models: a model must be well formed (finite coefficients and
  fit statistics, at least one state).  Negative estimates and
  contention-state inversions are *counted*, not gated: they are known
  defects of the OLS form the benchmark reports rather than hides.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

import numpy as np


class References:
    """Naive reference answers to global joins, as row multisets.

    Each (left table, right table, join columns) pair is joined once by
    ``naive_join`` over the two base tables with no selection; a query's
    reference keeps the joined rows whose two halves satisfy its
    per-operand predicates and projects its output columns.  Selections
    on one operand commute with the join, so this equals the naive join
    of the query itself, at one nested-loops pass per table pair.

    *databases* maps site name to ``LocalDatabase``.
    """

    def __init__(self, databases: dict) -> None:
        self.databases = databases
        self._joined: dict[tuple, tuple] = {}
        self._answers: dict = {}

    def __call__(self, query) -> Counter:
        answer = self._answers.get(query)
        if answer is None:
            answer = self._answers[query] = self._answer(query)
        return answer

    def _answer(self, query) -> Counter:
        left, right, rows = self._pair(query)
        split = len(left.schema.columns)
        names = [f"{left.name}.{c.name}" for c in left.schema.columns] + [
            f"{right.name}.{c.name}" for c in right.schema.columns
        ]
        wanted = [names.index(c) for c in query.columns] if query.columns else None
        answer: Counter = Counter()
        for row in rows:
            if query.left_predicate.evaluate(
                row[:split], left.schema
            ) and query.right_predicate.evaluate(row[split:], right.schema):
                answer[tuple(row[i] for i in wanted) if wanted else tuple(row)] += 1
        return answer

    def _pair(self, query) -> tuple:
        from repro.engine.joins import naive_join
        from repro.engine.query import JoinQuery

        key = (
            query.left_site,
            query.left_table,
            query.right_site,
            query.right_table,
            query.left_join_column,
            query.right_join_column,
        )
        pair = self._joined.get(key)
        if pair is None:
            left = self.databases[query.left_site].catalog.table(query.left_table)
            right = self.databases[query.right_site].catalog.table(query.right_table)
            join = JoinQuery(
                query.left_table,
                query.right_table,
                query.left_join_column,
                query.right_join_column,
            )
            rows = naive_join(left, right, join).result.rows
            pair = self._joined[key] = (left, right, rows)
        return pair


def rows_match(rows: Iterable[Sequence], expected: Counter) -> bool:
    return Counter(map(tuple, rows)) == expected


def model_well_formed(model) -> bool:
    """Finite coefficients and fit statistics, at least one state."""
    return (
        model.num_states >= 1
        and bool(np.all(np.isfinite(model.coefficients)))
        and math.isfinite(model.r_squared)
        and math.isfinite(model.standard_error)
    )


def model_sanity(derived: Iterable[tuple]) -> dict[str, int]:
    """Sign and state-monotonicity counts over training points.

    *derived* yields ``(model, observations)`` pairs.  Each training
    point is estimated in every contention state of its model:
    ``negative_estimates`` counts (point, state) estimates below zero,
    and ``state_inversions`` counts points whose estimate falls
    somewhere as the state rises (the paper orders states by probing
    cost, so a costlier state should never predict a cheaper query).
    """
    negative = inversions = 0
    for model, observations in derived:
        for observation in observations:
            estimates = [
                model.predict_in_state(observation.values, state)
                for state in range(model.num_states)
            ]
            negative += sum(1 for e in estimates if e < 0.0)
            if any(b < a for a, b in zip(estimates, estimates[1:])):
                inversions += 1
    return {"negative_estimates": negative, "state_inversions": inversions}
