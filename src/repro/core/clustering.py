"""Agglomerative hierarchical clustering of probing costs (for ICMA).

§3.3: "An agglomerative hierarchical algorithm is often used for data
clustering.  The main idea [...] is to place each data object in its own
cluster initially and then gradually merge clusters into larger and
larger clusters until a desired number of clusters have been found.  The
criterion used to merge two clusters is to make their distance minimized
[... using] the distance between the centroids."

Probing costs are one-dimensional, which lets us exploit a classical
fact: under centroid-distance linkage on the line, the globally closest
pair of clusters is always adjacent in sorted order, so only neighbour
merges need to be considered; keeping the neighbour gaps in a heap makes
the whole agglomeration O(n log n).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Cluster:
    """A contiguous cluster of one-dimensional values."""

    count: int
    total: float
    minimum: float
    maximum: float

    @property
    def centroid(self) -> float:
        return self.total / self.count

    def merged_with(self, other: "Cluster") -> "Cluster":
        return Cluster(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    @property
    def extent(self) -> tuple[float, float]:
        return self.minimum, self.maximum


def agglomerate(values: Sequence[float], num_clusters: int) -> list[Cluster]:
    """Cluster *values* into *num_clusters* groups by centroid linkage.

    Returns clusters sorted by centroid (ascending).  Duplicate values
    start in one singleton each, exactly as the textbook algorithm says;
    ties in merge distance break toward the leftmost pair so the result
    is deterministic.
    """
    if num_clusters < 1:
        raise ValueError("num_clusters must be at least 1")
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cannot cluster an empty sample")
    clusters = [Cluster(1, v, v, v) for v in data]
    n = len(clusters)
    if num_clusters >= n:
        return clusters

    # Neighbour-only merging is exact for 1-D centroid linkage.  Live
    # clusters are linked by the sorted position of their first member;
    # a merge keeps the left one's position.  The heap holds every
    # adjacent gap keyed (gap, left position), so ties break toward the
    # leftmost pair; an entry is stale once either side has merged
    # since it was pushed (its version moved on) and is skipped.
    following = list(range(1, n + 1))  # n marks the last cluster
    preceding = list(range(-1, n - 1))  # -1 marks the first
    version = [0] * n
    heap = [
        (clusters[i + 1].centroid - clusters[i].centroid, i, i + 1, 0, 0)
        for i in range(n - 1)
    ]
    heapq.heapify(heap)
    live = n
    while live > num_clusters:
        _, i, j, vi, vj = heapq.heappop(heap)
        if version[i] != vi or version[j] != vj:
            continue
        clusters[i] = clusters[i].merged_with(clusters[j])
        version[i] += 1
        version[j] += 1
        live -= 1
        k = following[j]
        following[i] = k
        if k < n:
            preceding[k] = i
            gap = clusters[k].centroid - clusters[i].centroid
            heapq.heappush(heap, (gap, i, k, version[i], version[k]))
        h = preceding[i]
        if h >= 0:
            gap = clusters[i].centroid - clusters[h].centroid
            heapq.heappush(heap, (gap, h, i, version[h], version[i]))
    merged = []
    i = 0
    while i < n:
        merged.append(clusters[i])
        i = following[i]
    return merged


def merge_small_clusters(clusters: list[Cluster], min_count: int) -> list[Cluster]:
    """Merge clusters with fewer than *min_count* members into their
    nearest (by centroid) neighbour.

    The paper prefers drawing *additional sample queries* to fill a thin
    cluster (§3.3) — the builder does that when it can; this function is
    the terminal fallback when resampling is exhausted, so that no data
    point is discarded as an outlier (also per §3.3: "no useful contention
    level points are ignored").
    """
    if min_count <= 1 or len(clusters) <= 1:
        return list(clusters)
    result = list(clusters)
    while len(result) > 1:
        small = [i for i, c in enumerate(result) if c.count < min_count]
        if not small:
            break
        i = small[0]
        if i == 0:
            j = 1
        elif i == len(result) - 1:
            j = i - 1
        else:
            left_gap = result[i].centroid - result[i - 1].centroid
            right_gap = result[i + 1].centroid - result[i].centroid
            j = i - 1 if left_gap <= right_gap else i + 1
        lo, hi = min(i, j), max(i, j)
        merged = result[lo].merged_with(result[hi])
        result[lo : hi + 1] = [merged]
    return result


def cluster_extents(clusters: Sequence[Cluster]) -> list[tuple[float, float]]:
    """[min, max] intervals of the clusters, in centroid order."""
    return [c.extent for c in clusters]
