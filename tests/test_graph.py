import itertools
import tracemalloc

import numpy as np
import pytest

import divshap.graph as graph_mod
from divshap.distance import DistanceConfig
from divshap.errors import InvalidConfigError
from divshap import mining
from divshap.dataset import SQUARE_CHUNK, Dataset
from divshap.graph import (
    DiversityGraph,
    batch_div_topk,
    build_graph,
    div_topk,
    independence_violations,
    similar,
)
from divshap.mining import MiningConfig, Shapelet, mine_shapelets
from divshap.pipeline import PipelineConfig, fit, select_k

from conftest import REPO_ROOT, bump_dataset, xor_dataset

RAW = DistanceConfig(normalize_windows=False, length_normalize=False)


def shapelet_at(x: float, threshold: float, label: int = 0, idx: int = 0) -> Shapelet:
    """1-sample shapelet whose raw distance to another is (x1 - x2)^2."""
    return Shapelet(
        values=np.array([x]),
        source_series=idx,
        start=0,
        length=1,
        class_label=label,
        split_threshold=threshold,
    )


def test_similar_definition_examples():
    # dist 0.4 <= min(0.5, 0.8)
    a = shapelet_at(0.0, 0.5)
    b = shapelet_at(np.sqrt(0.4), 0.8)
    assert similar(a, b, RAW)
    # dist 0.6 > min(0.5, 0.8)
    c = shapelet_at(np.sqrt(0.6), 0.8)
    assert not similar(a, c, RAW)


def test_similar_identical_shapelets():
    a = shapelet_at(1.0, 0.3)
    b = shapelet_at(1.0, 0.7, idx=1)
    assert similar(a, b, RAW)


def test_similar_cross_class_blocked_by_default():
    a = shapelet_at(1.0, 5.0, label=0)
    b = shapelet_at(1.0, 5.0, label=1, idx=1)
    assert not similar(a, b, RAW)
    assert similar(a, b, RAW, same_class_only=False)


def test_build_graph_single_vertex():
    g = build_graph([shapelet_at(0.0, 1.0)], RAW)
    assert g.n == 1
    assert g.edges() == []


def test_build_graph_triangle():
    verts = [shapelet_at(1.0, 0.5, idx=i) for i in range(3)]
    g = build_graph(verts, RAW)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_build_graph_symmetry_and_oracle(toy_train):
    mined = mine_shapelets(toy_train, MiningConfig(min_len=4, max_len=6))[:10]
    g = build_graph(mined, same_class_only=True)
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    # edge set equals pairwise recomputation of the predicate, which does
    # not depend on argument order
    want = {(i, j) for i, j in pairs if similar(mined[i], mined[j], same_class_only=True)}
    assert want == {(i, j) for i, j in pairs if similar(mined[j], mined[i], same_class_only=True)}
    assert set(g.edges()) == want


def greedy_over_similar(shapelets, k):
    """The greedy diversified top-k from scratch: the full pairwise edge set
    first, then the first k indices in order with no earlier kept neighbor."""
    n = len(shapelets)
    edges = {(i, j) for j in range(n) for i in range(j) if similar(shapelets[j], shapelets[i])}
    kept = []
    for j in range(n):
        if len(kept) < k and not any((i, j) in edges for i in kept):
            kept.append(j)
    return [shapelets[j] for j in kept]


def test_div_topk_equals_greedy_over_similar(toy_train):
    mined = mine_shapelets(toy_train, MiningConfig(min_len=4, max_len=6))
    top = mined[:60]  # the greedy keeps 12 within the first 46
    for k in (1, 3, 12):
        got = div_topk(build_graph(mined), k)
        assert got == greedy_over_similar(top, k) and len(got) == k
        assert independence_violations(got) == []


def test_div_topk_asks_similar_once_per_scanned_and_kept_pair(toy_train, monkeypatch):
    """graph.pair_checks counts these calls: each scanned candidate against
    the kept ones in keep order, up to its first similar one."""
    mined = mine_shapelets(toy_train, MiningConfig(min_len=4, max_len=6))
    calls = []

    def counted(a, b, *args):
        calls.append((a.id, b.id))
        return similar(a, b, *args)

    monkeypatch.setattr(graph_mod, "similar", counted)
    kept = div_topk(build_graph(mined), 9)
    want, so_far = [], []
    for s in mined[: mined.index(kept[-1]) + 1]:
        for t in so_far:
            want.append((s.id, t.id))
            if similar(s, t):
                break
        else:
            so_far.append(s)
    assert so_far == kept
    assert calls == want and len(set(calls)) == len(calls)


@pytest.fixture
def manual_graph(monkeypatch):
    """Graphs whose similar answers from a given edge list: vertex i is the
    shapelet of source series i. Each graph replaces the previous one's
    edges."""
    edge_set = set()

    def listed(a, b, *args):
        return frozenset((a.source_series, b.source_series)) in edge_set

    monkeypatch.setattr(graph_mod, "similar", listed)

    def make(n: int, edges: list[tuple[int, int]]) -> DiversityGraph:
        edge_set.clear()
        edge_set.update(frozenset(e) for e in edges)
        return DiversityGraph(vertices=[shapelet_at(float(i), 1.0, idx=i) for i in range(n)])

    return make


def all_independent_sets(n, edges, size):
    edge_set = {frozenset(e) for e in edges}
    for combo in itertools.combinations(range(n), size):
        if not any(frozenset(p) in edge_set for p in itertools.combinations(combo, 2)):
            yield list(combo)


def test_div_topk_two_component_example(manual_graph):
    g = manual_graph(4, [(0, 1), (2, 3)])
    got = [g.vertices.index(v) for v in div_topk(g, 2)]
    assert got == [0, 2]
    # the greedy pick is the lexicographically first independent pair
    assert got == min(all_independent_sets(4, [(0, 1), (2, 3)], 2))


def test_div_topk_edgeless(manual_graph):
    g = manual_graph(5, [])
    assert [g.vertices.index(v) for v in div_topk(g, 3)] == [0, 1, 2]


def test_div_topk_clique_short_result(manual_graph):
    g = manual_graph(5, list(itertools.combinations(range(5), 2)))
    got = div_topk(g, 3)
    assert [g.vertices.index(v) for v in got] == [0]


def test_div_topk_monotone_prefix_random(manual_graph):
    rng = np.random.default_rng(33)
    for trial in range(25):
        n = int(rng.integers(2, 12))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.uniform() < 0.3
        ]
        g = manual_graph(n, edges)
        prev = None
        for k in range(1, n + 1):
            cur = div_topk(g, k)
            if prev is not None:
                assert cur[: len(prev)] == prev
            prev = cur
        # selection is an independent set
        idxs = [g.vertices.index(v) for v in prev]
        for a, b in itertools.combinations(idxs, 2):
            assert (a, b) not in edges


def test_div_topk_greedy_prefix_optimal(manual_graph):
    # swapping any higher-scored unselected vertex into the result breaks
    # independence
    rng = np.random.default_rng(44)
    for trial in range(25):
        n = int(rng.integers(3, 12))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.uniform() < 0.4
        ]
        g = manual_graph(n, edges)
        k = int(rng.integers(1, n + 1))
        selected = [g.vertices.index(v) for v in div_topk(g, k)]
        sel_set = set(selected)
        for u in range(n):
            if u in sel_set or u > max(selected):
                continue
            for v in selected:
                if u < v:
                    swapped = (sel_set - {v}) | {u}
                    conflict = any(
                        (a, b) in edges for a, b in itertools.combinations(sorted(swapped), 2)
                    )
                    assert conflict, f"swap {u} for {v} kept independence"


def test_div_topk_k_validation(manual_graph):
    g = manual_graph(2, [])
    for k in (0, 2.5, True):
        with pytest.raises(InvalidConfigError):
            div_topk(g, k)


def test_independence_violations_reports_pairs():
    a = shapelet_at(0.0, 1.0)
    b = shapelet_at(0.1, 1.0, idx=1)
    c = shapelet_at(9.0, 1.0, idx=2)
    assert independence_violations([a, b, c], RAW) == [(0, 1)]


def test_graph_dump_rows(toy_train):
    """graph-dump writes top.vertices and top.edges() as they stand: one row
    per vertex with the fields of the vertex file, and every edge (i, j) with
    i < j, both ends in range, and the pair similar."""
    mined = mine_shapelets(toy_train, MiningConfig(min_len=4, max_len=6))[:8]
    g = build_graph(mined)
    assert g.n == len(g.vertices) == 8
    fields = ("gain", "split_threshold", "class_label", "source_series", "start", "length")
    assert all(hasattr(v, f) for v in g.vertices for f in fields)
    edges = g.edges()
    assert all(0 <= i < j < g.n for i, j in edges)
    assert all(similar(g.vertices[i], g.vertices[j], g.cfg) for i, j in edges)


def three_class_dataset(seed=5, per_class=10, m=24):
    """Three classes, each with its own motif at a random offset."""
    rng = np.random.default_rng(seed)
    bump = np.array([0.0, 1.5, 2.5, 1.5, 0.0])
    motifs = (bump, -bump, np.array([0.0, 2.0, 0.0, -2.0, 0.0]))
    y = np.repeat(np.arange(3), per_class)
    X = rng.normal(0.0, 0.2, (len(y), m))
    for row, label in zip(X, y):
        off = rng.integers(2, m - 7)
        row[off : off + 5] += motifs[label]
    return Dataset(X=X, y=y)


SCAN_SETS = {
    "bump": lambda: bump_dataset(seed=4, per_class=12, m=24),
    "xor": lambda: xor_dataset(seed=4, per_cell=6, m=24),
    "three-class": three_class_dataset,
}


@pytest.mark.parametrize("same_class_only", [True, False], ids=["same-class", "any-class"])
@pytest.mark.parametrize("kind", list(SCAN_SETS))
def test_batch_div_topk_returns_the_objects_div_topk_returns(kind, same_class_only, monkeypatch):
    """For k = 1..kappa: on a plain list, and on a fresh pruned table (a
    first pass over a quarter of each class), which each scan reads first
    in turn."""
    monkeypatch.setattr(mining, "STAGE_MIN", 2)
    d = SCAN_SETS[kind]()
    cfg = MiningConfig(min_len=3, max_len=9)
    listed = list(mine_shapelets(d, cfg)[:400])
    for k in range(1, 10):
        g = build_graph(listed, same_class_only=same_class_only)
        want = div_topk(g, k)
        got = batch_div_topk(g, k)
        assert len(got) == len(want) == k and all(a is b for a, b in zip(got, want))
        for first, second in ((batch_div_topk, div_topk), (div_topk, batch_div_topk)):
            table = mine_shapelets(d, cfg)
            assert table._pending is not None and table._pending.first is not None
            g = build_graph(table, same_class_only=same_class_only)
            a, b = first(g, k), second(g, k)
            assert len(a) == k and all(x is y for x, y in zip(a, b)) and len(a) == len(b)


@pytest.mark.parametrize("same_class_only", [True, False], ids=["same-class", "any-class"])
def test_batch_div_topk_keeps_fewer_than_k_as_div_topk_does(same_class_only, monkeypatch):
    """A greedy that keeps fewer than k reads every row, of a list and of a
    pruned table alike."""
    monkeypatch.setattr(mining, "STAGE_MIN", 2)
    d = bump_dataset(seed=4, per_class=12, m=24)
    table = mine_shapelets(d, MiningConfig(min_len=6, max_len=7))
    g = build_graph(table, same_class_only=same_class_only)
    got = batch_div_topk(g, len(table))
    assert table._pending is None and 0 < len(got) < len(table)
    assert all(a is b for a, b in zip(got, div_topk(g, len(table))))
    listed = build_graph(list(table), same_class_only=same_class_only)
    assert all(a is b for a, b in zip(batch_div_topk(listed, len(table)), got))
    clique = [shapelet_at(0.0, 1.0, idx=i) for i in range(5)]
    assert batch_div_topk(build_graph(clique, RAW), 3) == [clique[0]]
    assert batch_div_topk(build_graph([], RAW), 3) == []


def test_batch_div_topk_links_pairs_at_exactly_the_threshold():
    """Distance 1 against thresholds of 1 is an edge, inside the first block
    (rows 1-31, after row 0 is kept) and in the next (rows 32-39)."""
    verts = [shapelet_at(0.0, 1.0)] + [shapelet_at(1.0, 1.0, idx=i) for i in range(1, 40)]
    g = build_graph(verts, RAW)
    assert div_topk(g, 2) == batch_div_topk(g, 2) == [verts[0]]


def test_batch_div_topk_k_validation():
    g = build_graph([shapelet_at(0.0, 1.0)], RAW)
    for k in (0, 2.5, True):
        with pytest.raises(InvalidConfigError):
            batch_div_topk(g, k)


def seed_0_draw(workload, draw, monkeypatch):
    """The training set of the benchmark's seed-0 draw of workload."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import WORKLOADS

    return WORKLOADS[workload].make(0, draw)[0]


def test_fit_on_fit_wide_draw_0_makes_no_scalar_pair_check(monkeypatch):
    train = seed_0_draw("fit-wide", 0, monkeypatch)
    calls = []
    monkeypatch.setattr(graph_mod, "similar", lambda *args: calls.append(args))
    fit(train, PipelineConfig())
    assert calls == []


def test_select_k_completes_the_rows_div_topk_completes(monkeypatch):
    """On a fresh table of fit-wide draw 0, the batched scan of select_k
    scores in full exactly the candidates div_topk scores, counted as the
    rows of every best split that completion takes."""
    train = seed_0_draw("fit-wide", 0, monkeypatch)
    cfg = PipelineConfig()
    completed = []
    split = mining._batch_best_split
    monkeypatch.setattr(
        mining, "_batch_best_split", lambda dist, counts: completed.append(len(dist)) or split(dist, counts)
    )
    mining_cfg = MiningConfig(normalize=cfg.distance)
    select_k(build_graph(mine_shapelets(train, mining_cfg), cfg.distance), train, cfg)
    batched = sum(completed)
    completed.clear()
    div_topk(build_graph(mine_shapelets(train, mining_cfg), cfg.distance), cfg.kappa)
    assert 0 < batched == sum(completed) < 44100 / 2


def test_batch_div_topk_peak_memory_on_fit_long_draw_1(monkeypatch):
    """Past the read of row 0, which certifies the table for div_topk too,
    the scan holds at most two SQUARE_CHUNKs: a batch of windows and one of
    their differences, on top of rows read as views of the series."""
    train = seed_0_draw("fit-long", 1, monkeypatch)
    cfg = PipelineConfig()
    table = mine_shapelets(train, MiningConfig(normalize=cfg.distance))
    table[0]
    g = build_graph(table, cfg.distance)
    tracemalloc.start()
    try:
        pool = batch_div_topk(g, cfg.kappa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pool) == cfg.kappa and peak <= 2 * SQUARE_CHUNK
