"""Diversity graph over scored shapelets and greedy top-k extraction.

Two same-class shapelets are "similar" when their mutual distance is at
most the smaller of their two split thresholds; similar pairs become
undirected edges. The diversified top-k is the greedy independent set taken
in score order, so every selection is the best-scored candidate compatible
with the ones already kept.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .distance import DEFAULT_CONFIG, DistanceConfig, shapelet_dist
from .mining import Shapelet


def similar(
    si: Shapelet,
    sj: Shapelet,
    cfg: DistanceConfig = DEFAULT_CONFIG,
    same_class_only: bool = True,
) -> bool:
    """Similarity predicate: same class (optionally) and distance within
    min(split thresholds)."""
    if same_class_only and si.class_label != sj.class_label:
        return False
    return shapelet_dist(si, sj, cfg) <= min(si.split_threshold, sj.split_threshold)


@dataclass
class DiversityGraph:
    """Score-ordered shapelet vertices with "similar" edges.

    adjacency is either materialized (eager build) or None, in which case
    edges are evaluated on demand from the predicate; both modes answer
    is_edge identically. Vertex order must be the mining output order.
    """

    vertices: Sequence[Shapelet]
    cfg: DistanceConfig = field(default_factory=DistanceConfig)
    same_class_only: bool = True
    adjacency: list[set[int]] | None = None
    _cache: dict[tuple[int, int], bool] = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def is_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        if self.adjacency is not None:
            return j in self.adjacency[i]
        key = (i, j) if i < j else (j, i)
        hit = self._cache.get(key)
        if hit is None:
            hit = similar(self.vertices[i], self.vertices[j], self.cfg, self.same_class_only)
            self._cache[key] = hit
        return hit

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) with i < j, materializing lazily if needed."""
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n) if self.is_edge(i, j)]


def build_graph(
    all_shapelets: Sequence[Shapelet],
    cfg: DistanceConfig = DEFAULT_CONFIG,
    *,
    same_class_only: bool = True,
    lazy: bool = False,
) -> DiversityGraph:
    """Build the diversity graph over a score-sorted shapelet list.

    The eager build runs the O(n^2) pair scan and stores symmetric
    adjacency sets. The lazy build defers edge evaluation to queries, which
    keeps huge candidate lists tractable; query results are identical. The
    graph reads the given sequence by index and does not copy it.
    """
    g = DiversityGraph(vertices=all_shapelets, cfg=cfg, same_class_only=same_class_only)
    if lazy:
        return g
    n = g.n
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if similar(g.vertices[i], g.vertices[j], cfg, same_class_only):
                adjacency[i].add(j)
                adjacency[j].add(i)
    g.adjacency = adjacency
    return g


def div_topk(g: DiversityGraph, k: int) -> list[Shapelet]:
    """Greedy diversified top-k: scan vertices in score order, keeping any
    vertex with no already-kept neighbor, until k are kept.

    May return fewer than k shapelets when the greedy maximal independent
    set is smaller than k; callers treat a short result as final.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    selected: list[int] = []
    for i in range(g.n):
        if any(g.is_edge(i, j) for j in selected):
            continue
        selected.append(i)
        if len(selected) == k:
            break
    return [g.vertices[i] for i in selected]


def graph_dump_rows(g: DiversityGraph) -> tuple[list[dict], list[tuple[int, int]]]:
    """Vertex table and edge list for CSV export / external visualization."""
    vertices = [
        {
            "index": i,
            "gain": v.gain,
            "threshold": v.split_threshold,
            "class": v.class_label,
            "source_series": v.source_series,
            "start": v.start,
            "length": v.length,
        }
        for i, v in enumerate(g.vertices)
    ]
    return vertices, g.edges()


def independence_violations(
    shapelets: list[Shapelet],
    cfg: DistanceConfig = DEFAULT_CONFIG,
    same_class_only: bool = True,
) -> list[tuple[int, int]]:
    """Pairs in a selection that violate the dissimilarity condition."""
    bad = []
    for i in range(len(shapelets)):
        for j in range(i + 1, len(shapelets)):
            if similar(shapelets[i], shapelets[j], cfg, same_class_only):
                bad.append((i, j))
    return bad
