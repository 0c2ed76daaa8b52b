"""Diversity graph over scored shapelets and greedy top-k extraction.

Two same-class shapelets are "similar" when their mutual distance is at
most the smaller of their two split thresholds; similar pairs become
undirected edges. The diversified top-k is the greedy independent set taken
in score order, so every selection is the best-scored candidate compatible
with the ones already kept. The graph is an immutable record of vertices
and distance settings; it stores no edges and asks similar for each pair a
query needs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .distance import DEFAULT_CONFIG, DistanceConfig, shapelet_dist
from .errors import require_int
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


@dataclass(frozen=True)
class DiversityGraph:
    """Score-ordered shapelet vertices whose edges are the "similar" predicate.

    The graph stores no edges: div_topk and edges ask similar once for each
    pair they need, so building one costs nothing. Vertex order must be the
    mining output order; the graph reads the given sequence by index and
    does not copy it.
    """

    vertices: Sequence[Shapelet]
    cfg: DistanceConfig = DEFAULT_CONFIG
    same_class_only: bool = True

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) with i < j, from n(n-1)/2 calls of similar."""
        v = self.vertices
        return [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if similar(v[i], v[j], self.cfg, self.same_class_only)
        ]


def build_graph(
    all_shapelets: Sequence[Shapelet],
    cfg: DistanceConfig = DEFAULT_CONFIG,
    *,
    same_class_only: bool = True,
    lazy: bool = True,
) -> DiversityGraph:
    """The diversity graph over a score-sorted shapelet list.

    lazy is accepted and ignored: every graph evaluates its edges on demand.
    """
    return DiversityGraph(all_shapelets, cfg, same_class_only)


def div_topk(g: DiversityGraph, k: int) -> list[Shapelet]:
    """Greedy diversified top-k: scan vertices in score order, keeping any
    vertex with no already-kept neighbor, until k are kept.

    Each scanned vertex is compared with the kept ones in keep order, until
    the first edge; the greedy decides each pair once, so nothing is cached.
    A kept set stays whole when the graph is rebuilt on it alone. May return
    fewer than k shapelets when the greedy maximal independent set is
    smaller than k; callers treat a short result as final. A k that is not
    an integer of at least 1 raises InvalidConfigError.
    """
    require_int("k", k, 1)
    kept: list[Shapelet] = []
    for v in g.vertices:
        if any(similar(v, u, g.cfg, g.same_class_only) for u in kept):
            continue
        kept.append(v)
        if len(kept) == k:
            break
    return kept


def independence_violations(
    shapelets: list[Shapelet],
    cfg: DistanceConfig = DEFAULT_CONFIG,
    same_class_only: bool = True,
) -> list[tuple[int, int]]:
    """Pairs in a selection that violate the dissimilarity condition: the
    edges of the selection's own graph."""
    return DiversityGraph(shapelets, cfg, same_class_only).edges()
