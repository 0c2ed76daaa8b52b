"""Diversity graph over scored shapelets and greedy top-k extraction.

Two same-class shapelets are "similar" when their mutual distance is at
most the smaller of their two split thresholds; similar pairs become
undirected edges. The diversified top-k is the greedy independent set taken
in score order, so every selection is the best-scored candidate compatible
with the ones already kept. The graph is an immutable record of vertices
and distance settings; it stores no edges.

fit runs batch_div_topk and DiversityGraph.edges lists the edges; both ask
one predicate, _similar, which measures many pairs at once
(distance.pair_dists) and handles class labels itself. div_topk, similar
and independence_violations are their scalar references: one
shapelet_dist per pair, and the same selection and edges.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .distance import DEFAULT_CONFIG, DistanceConfig, pair_dists, shapelet_dist
from .errors import require_int
from .mining import CandidateTable, Shapelet

# batch_div_topk reads blocks as long as the rows before them, from
# BLOCK_ROWS[0] to BLOCK_ROWS[1] rows: a scan that stops early reads few rows
# past its stop, and a long one few blocks. pair_dists takes one group per
# length in a block, so blocks of long series hold many groups: on fit-long
# draws (m = 160, one CPU), fixed 64-row blocks made the scan about twice as
# slow.
BLOCK_ROWS = (32, 512)


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

    The graph stores no edges, so building one costs nothing: the scan fit
    runs, batch_div_topk, measures the pairs it needs in batches, edges
    measures every pair at once, and the scalar reference div_topk asks
    similar once for each pair it needs.
    Vertex order must be the mining output order; the graph reads the given
    sequence by index and does not copy it.
    """

    vertices: Sequence[Shapelet]
    cfg: DistanceConfig = DEFAULT_CONFIG
    same_class_only: bool = True

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) with i < j, in order, from one _similar call
        on whole rows (_rows; CandidateTable.peek may stop early)."""
        rows = _rows(self.vertices)
        i, j = np.nonzero(np.triu(_similar(rows, rows, self.cfg, self.same_class_only), 1))
        return list(zip(i.tolist(), j.tolist()))


def build_graph(
    all_shapelets: Sequence[Shapelet],
    cfg: DistanceConfig = DEFAULT_CONFIG,
    *,
    same_class_only: bool = True,
    lazy: bool = True,
) -> DiversityGraph:
    """The diversity graph over a score-sorted shapelet list.

    lazy is accepted and ignored: every graph evaluates its edges on demand.
    It stays only because benchmark/traced.py passes it.
    """
    return DiversityGraph(all_shapelets, cfg, same_class_only)


def div_topk(g: DiversityGraph, k: int) -> list[Shapelet]:
    """Greedy diversified top-k: scan vertices in score order, keeping any
    vertex with no already-kept neighbor, until k are kept.

    The scalar reference of batch_div_topk, which fit runs: each scanned
    vertex is compared with the kept ones in keep order, one similar call a
    pair, until the first edge. A kept set stays whole when the graph is
    rebuilt on it alone. May return fewer than k shapelets when the greedy
    maximal independent set is smaller than k; callers treat a short result
    as final. A k that is not an integer of at least 1 raises
    InvalidConfigError.
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


def batch_div_topk(g: DiversityGraph, k: int) -> list[Shapelet]:
    """div_topk's selection, the same objects, from batched pair checks.

    The vertices are read in blocks, in order (BLOCK_ROWS). The shapelets
    kept before a block meet all its rows at once (_similar), and a row
    similar to one of them is closed. The open rows are then kept in order,
    and each row kept meets the open rows after it in its block (_similar
    again) before the next is taken. A row is thus kept exactly when
    div_topk keeps it: it is similar to no shapelet kept before it, by
    bit-identical distances against the same thresholds.

    A block's rows are read as arrays (_peek), and only a kept row's
    Shapelet is built. On a pruned CandidateTable a block scores as far as
    div_topk's read of its first row does and ends at the rows scored then,
    so the scan scores the same candidates as div_topk. A k that is not an
    integer of at least 1 raises InvalidConfigError.
    """
    require_int("k", k, 1)
    vertices, kept = g.vertices, []
    # the kept rows as the scan reads them: values, class labels, thresholds
    seen: tuple[list, list, list] = ([], [], [])
    i = 0
    while i < g.n and len(kept) < k:
        values, label, threshold = _peek(vertices, i, i + min(max(i, BLOCK_ROWS[0]), BLOCK_ROWS[1]))
        open_ = ~_similar(seen, (values, label, threshold), g.cfg, g.same_class_only).any(axis=0)
        for r in range(len(values)):
            if open_[r]:
                kept.append(vertices[i + r])
                for column, x in zip(seen, (values[r], label[r], threshold[r])):
                    column.append(x)
                if len(kept) == k:
                    break
                rest = np.flatnonzero(open_[r + 1 :]) + r + 1
                after = ([values[j] for j in rest], label[rest], threshold[rest])
                near = _similar(([values[r]], label[[r]], threshold[[r]]), after, g.cfg, g.same_class_only)[0]
                open_[rest[near]] = False
        i += len(values)
    return kept


def _peek(vertices: Sequence[Shapelet], lo: int, hi: int) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """(values, class labels, split thresholds) of rows lo to hi - 1; a
    CandidateTable gives them without building Shapelets, and may stop
    early (CandidateTable.peek)."""
    if isinstance(vertices, CandidateTable):
        return vertices.peek(lo, hi)
    return _rows(vertices[lo:hi])


def _rows(shapelets: Sequence[Shapelet]) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """(values, class labels, split thresholds) of every shapelet given."""
    label = np.array([s.class_label for s in shapelets], dtype=np.int64)
    return [s.values for s in shapelets], label, np.array([s.split_threshold for s in shapelets])


def _similar(us: tuple, vs: tuple, cfg: DistanceConfig, same_class_only: bool) -> np.ndarray:
    """similar(v, u, cfg, same_class_only) for every row u of us and v of
    vs, each (values, class labels, split thresholds), from one pair_dists
    call per class the two share, or one call with same_class_only off."""
    (uv, ul, ut), (vv, vl, vt) = us, vs
    ul, ut = np.asarray(ul, dtype=np.int64), np.asarray(ut, dtype=np.float64)
    if not same_class_only:
        ul, vl = np.zeros_like(ul), np.zeros_like(vl)
    near = np.zeros((len(uv), len(vv)), dtype=bool)
    for c in np.intersect1d(ul, vl).tolist():
        a, b = np.flatnonzero(ul == c), np.flatnonzero(vl == c)
        dist = pair_dists([uv[j] for j in a], [vv[j] for j in b], cfg)
        near[np.ix_(a, b)] = dist <= np.minimum.outer(ut[a], vt[b])
    return near


def independence_violations(
    shapelets: list[Shapelet],
    cfg: DistanceConfig = DEFAULT_CONFIG,
    same_class_only: bool = True,
) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, of a selection that violate the dissimilarity
    condition: the edges of the selection's own graph, from one similar call
    per pair, the scalar reference that checks what either scan selects."""
    pairs = itertools.combinations(range(len(shapelets)), 2)
    return [(i, j) for i, j in pairs if similar(shapelets[i], shapelets[j], cfg, same_class_only)]
