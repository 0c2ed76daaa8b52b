"""Show why diversified selection matters: neighboring candidates are
near-duplicates, and the diversity graph prunes them.

The top of a mined candidate list is dominated by shifted copies of the
same pattern. Two same-class candidates are "similar" when their mutual
distance falls within the smaller of their split thresholds; the greedy
top-k walks the scored list and keeps only candidates with no kept
neighbor.

Run: python demos/02_diversity_graph.py
"""

import numpy as np

from divshap import Dataset, MiningConfig, build_graph, div_topk, mine_shapelets

rng = np.random.default_rng(1)

n_per_class, m = 6, 36
X = rng.normal(0.0, 0.2, (2 * n_per_class, m))
y = np.array([1] * n_per_class + [2] * n_per_class)
motif_a = np.array([0.0, 1.5, 3.0, 1.5, 0.0, -1.5])
motif_b = np.array([2.0, -2.0, 2.0, -2.0, 2.0, -2.0])
for i in range(len(X)):
    off = rng.integers(2, m - 8)
    X[i, off : off + 6] += motif_a if y[i] == 1 else motif_b
train = Dataset(X=X, y=y, name="motifs")

shapelets = mine_shapelets(train, MiningConfig(min_len=5, max_len=7))
top = shapelets[:20]

print("top 20 candidates (note the near-duplicate provenance):")
for i, s in enumerate(top):
    print(
        f"  v{i:<2d} series {s.source_series} @ {s.start:2d} len {s.length} "
        f"class {s.class_label}  gain {s.gain:.3f}"
    )

g = build_graph(top)
edges = g.edges()
print(f"\ndiversity graph: {g.n} vertices, {len(edges)} edges")
print(f"{len({v for e in edges for v in e})} vertices have at least one 'similar' neighbor")

for k in (1, 2, 3, 5):
    picked = div_topk(g, k)
    desc = ", ".join(f"s{s.source_series}@{s.start}" for s in picked)
    print(f"  div_topk(k={k}): {len(picked)} kept -> {desc}")

print("\nplain top-k would return shifted copies of one pattern; the")
print("diversified top-k spreads across genuinely different patterns.")
print("a k larger than the greedy independent set returns a short result.")
