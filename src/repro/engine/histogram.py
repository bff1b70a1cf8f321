"""Equi-depth histograms for selectivity estimation.

The min/max/distinct statistics in :mod:`repro.engine.schema` assume
uniform value distributions.  Real catalogs keep histograms; so do we:
an equi-depth (equi-height) histogram stores bucket boundaries such that
every bucket holds (approximately) the same number of rows, which keeps
relative estimation error bounded even for skewed columns.

When a histogram is attached to a column's statistics, range and
equality selectivities interpolate within buckets instead of across the
whole [min, max] span.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equi-depth histogram over one numeric column.

    ``boundaries`` has ``num_buckets + 1`` entries: bucket i covers
    [boundaries[i], boundaries[i+1]) except the last, which is closed.
    ``counts[i]`` is the number of rows in bucket i; ``distinct[i]`` the
    number of distinct values in it (for equality estimates).
    """

    boundaries: tuple[float, ...]
    counts: tuple[int, ...]
    distinct: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.boundaries) != len(self.counts) + 1:
            raise ValueError("boundaries must have one more entry than counts")
        if len(self.counts) != len(self.distinct):
            raise ValueError("counts and distinct must align")
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError("boundaries must be non-decreasing")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        # Exclusive prefix sums of `counts`, so estimate_le is O(log B)
        # instead of O(B) per call.  Not a dataclass field (the frozen
        # eq/repr/hash contract stays on the three logical fields), so it
        # is installed around the freeze.
        prefix = [0]
        for c in self.counts:
            prefix.append(prefix[-1] + c)
        object.__setattr__(self, "_rows_before", tuple(prefix))

    @property
    def num_buckets(self) -> int:
        return len(self.counts)

    @property
    def total_rows(self) -> int:
        return self._rows_before[-1]

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, values: Sequence, num_buckets: int = 16) -> "EquiDepthHistogram":
        """Build from a column's values (numeric), with numpy.

        The sort and the per-bucket distinct counts run in numpy; the
        duplicate-run extension is a ``searchsorted`` for the end of the
        run instead of a value-at-a-time walk.  The result is identical
        (same boundaries, counts, and distinct tuples — pure Python
        floats/ints) to :meth:`_build_scalar`, the row-at-a-time
        reference that tests and the engine bench compare against.
        """
        if num_buckets < 1:
            raise ValueError("num_buckets must be at least 1")
        data = np.sort(np.fromiter((float(v) for v in values), dtype=np.float64))
        if data.size == 0:
            raise ValueError("cannot build a histogram from no values")
        n = int(data.size)
        num_buckets = min(num_buckets, n)
        boundaries = [float(data[0])]
        counts: list[int] = []
        distinct: list[int] = []
        start = 0
        for b in range(num_buckets):
            end = round((b + 1) * n / num_buckets)
            end = max(end, start + 1)
            if end < n and data[end] == data[end - 1]:
                # Never split a run of duplicates across buckets: jump
                # past the whole run in one shot.
                end = int(np.searchsorted(data, data[end - 1], side="right"))
            bucket = data[start:end]
            counts.append(int(bucket.size))
            distinct.append(1 + int(np.count_nonzero(bucket[1:] != bucket[:-1])))
            boundaries.append(float(bucket[-1] if end >= n else data[end]))
            start = end
            if start >= n:
                break
        boundaries[-1] = float(data[-1])
        return cls(tuple(boundaries), tuple(counts), tuple(distinct))

    @classmethod
    def _build_scalar(cls, values: Sequence, num_buckets: int) -> "EquiDepthHistogram":
        """Row-at-a-time reference for :meth:`build` (tests and the
        engine bench only)."""
        data = sorted(float(v) for v in values)
        if not data:
            raise ValueError("cannot build a histogram from no values")
        n = len(data)
        num_buckets = min(num_buckets, n)
        boundaries = [data[0]]
        counts = []
        distinct = []
        start = 0
        for b in range(num_buckets):
            end = round((b + 1) * n / num_buckets)
            end = max(end, start + 1)
            # Never split a run of duplicates across buckets: extend the
            # bucket to cover the whole run so boundaries stay honest.
            while end < n and data[end] == data[end - 1]:
                end += 1
            bucket = data[start:end]
            counts.append(len(bucket))
            distinct.append(len(set(bucket)))
            boundaries.append(bucket[-1] if end >= n else data[end])
            start = end
            if start >= n:
                break
        boundaries[-1] = data[-1]
        return cls(tuple(boundaries), tuple(counts), tuple(distinct))

    # -- estimation -------------------------------------------------------------

    def _bucket_of(self, value: float) -> int:
        """Bucket index containing *value*, clamped to [0, num_buckets-1]."""
        idx = bisect.bisect_right(self.boundaries, value) - 1
        return min(max(idx, 0), self.num_buckets - 1)

    def estimate_le(self, value: float) -> float:
        """Estimated fraction of rows with column <= value.

        Linear interpolation within the bucket, floored by the bucket's
        per-distinct-value mass so that an atom (a duplicate run) sitting
        at the bucket's left edge is never undercounted.
        """
        total = self.total_rows
        if total == 0:
            return 0.0
        if value < self.boundaries[0]:
            return 0.0
        if value >= self.boundaries[-1]:
            return 1.0
        idx = self._bucket_of(value)
        rows_before = self._rows_before[idx]
        lo = self.boundaries[idx]
        hi = self.boundaries[idx + 1]
        if hi > lo:
            within = (value - lo) / (hi - lo)
        else:
            within = 1.0
        in_bucket = within * self.counts[idx]
        atom = self.counts[idx] / max(1, self.distinct[idx])
        return (rows_before + max(in_bucket, atom)) / total

    def estimate_range(
        self,
        low: float | None,
        high: float | None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of rows in the interval.

        Open/closed bounds are treated identically — continuous
        interpolation cannot distinguish them, and the error is at most
        one value's frequency.
        """
        hi_frac = 1.0 if high is None else self.estimate_le(high)
        lo_frac = 0.0 if low is None else self.estimate_le(low)
        if low is not None and low_inclusive:
            # Re-include the rows exactly at `low` (approximately).
            lo_frac = max(0.0, lo_frac - self.estimate_eq(low))
        return min(1.0, max(0.0, hi_frac - lo_frac))

    def estimate_eq(self, value: float) -> float:
        """Estimated fraction of rows equal to *value*."""
        total = self.total_rows
        if total == 0 or value < self.boundaries[0] or value > self.boundaries[-1]:
            return 0.0
        idx = self._bucket_of(value)
        d = max(1, self.distinct[idx])
        return (self.counts[idx] / d) / total
