"""scripts/work_counts.py at the smoke test's sizes.

The script counts the work of one fit per training set from wrapped
kernels. Its counts are checked against the test's own wrappers, on a set
given a first pass, so that keys, completion rounds and certification all
count, and its printed lines against the counts of the same fits in this
process.
"""

import importlib.util
import subprocess
import sys

from conftest import REPO_ROOT

from divshap import graph, mining, pipeline

spec = importlib.util.spec_from_file_location("work_counts", REPO_ROOT / "scripts" / "work_counts.py")
work_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(work_counts)


def tiny_sets(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    monkeypatch.syspath_prepend(str(REPO_ROOT / "scripts"))
    from mined_hashes import training_sets
    from workloads import TINY

    return training_sets(TINY)


def test_counts_equal_those_of_independent_wrappers(monkeypatch):
    """With STAGE_MIN 2, the tiny fit-wide draw 0 (two classes of 8) has a
    first pass over 2 + 2 series, so every count is at work."""
    monkeypatch.setattr(mining, "STAGE_MIN", 2)
    train = tiny_sets(monkeypatch)[6][1]
    cells = {"nearest_window_scores": 0, "nearest_window_dists": 0}
    for name in cells:
        kernel = getattr(mining, name)

        def counted(q, windows, *cfg, kernel=kernel, name=name):
            cells[name] += q.shape[0] * windows.shape[0]
            return kernel(q, windows, *cfg)

        monkeypatch.setattr(mining, name, counted)
    split_rows, pairs, certified, rounds, in_certify = [], [], [], [], []
    split, pair_dists = mining._batch_best_split, graph.pair_dists
    monkeypatch.setattr(mining, "_batch_best_split", lambda d, c: split_rows.append(d.shape[0]) or split(d, c))
    monkeypatch.setattr(
        graph, "pair_dists", lambda us, vs, *c: pairs.append(len(us) * len(vs)) or pair_dists(us, vs, *c)
    )
    certify, advance = mining._PrunedScoring.certify, mining._PrunedScoring.advance

    def counted_certify(self, *args):
        in_certify.append(True)
        try:
            out = certify(self, *args)
        finally:
            in_certify.pop()
        certified.append(len(out))
        return out

    def counted_advance(self, *args, **kwargs):
        rounds.extend(in_certify[:1])
        return advance(self, *args, **kwargs)

    monkeypatch.setattr(mining._PrunedScoring, "certify", counted_certify)
    monkeypatch.setattr(mining._PrunedScoring, "advance", counted_advance)
    tables, mine = [], pipeline.mine_shapelets
    monkeypatch.setattr(pipeline, "mine_shapelets", lambda *a, **k: tables.append(mine(*a, **k)) or tables[-1])
    got = work_counts.counted_fit(train)
    assert list(got) == list(work_counts.COUNTS)
    want = {
        "first": len(tables[0]._pending.first),
        "scored": cells["nearest_window_scores"],
        "measured": cells["nearest_window_dists"],
        "split": sum(split_rows),
        "rounds": len(rounds),
        "certified": max(certified),
        "pairs": sum(pairs),
    }
    assert got == want
    assert want["first"] == 4 and min(want.values()) > 0 and want["split"] < len(mining.generate_candidates(train, mining.MiningConfig()))
    # counted_fit puts back what it wrapped
    assert mining._PrunedScoring.advance is counted_advance and mining._PrunedScoring.certify is counted_certify


def test_one_line_per_training_set_with_the_counts_of_its_fit(monkeypatch):
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "work_counts.py"), str(REPO_ROOT), "--tiny"],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    lines = done.stdout.splitlines()
    sets = tiny_sets(monkeypatch)
    assert [line.split()[0] for line in lines] == [name for name, _, _ in sets]
    for line in (lines[0], lines[6], lines[-1]):
        name = line.split()[0]
        train = next(t for n, t, _ in sets if n == name)
        counts = work_counts.counted_fit(train)
        assert line == " ".join([name] + [f"{k}={v}" for k, v in counts.items()])
    # classes of 3 take no first pass; of 8 (fit-wide, and predict-batch's
    # xor of 4 a cell), too few for a quarter, every series
    assert [line.split()[1] for line in (lines[0], lines[6], lines[-1])] == ["first=none", "first=all", "first=all"]
