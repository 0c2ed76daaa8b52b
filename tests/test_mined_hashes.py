"""scripts/mined_hashes.py at the smoke test's sizes.

The script is the check behind every claim that a change leaves mined
tables (whole, and the first rows a reader gets before the whole table is
scored) and transform features (of z-normalized and of raw windows),
selections, saved models, graph-dump's edges and the benchmark's orderline
oracle bit-identical, so it must cover the 15 training sets, hash what
mining, transform, the graph and orderline return, and print the same lines
whatever the number of BLAS threads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

SCRIPT = REPO_ROOT / "scripts" / "mined_hashes.py"


@pytest.fixture(scope="module")
def lines_by_blas_threads():
    """{OPENBLAS_NUM_THREADS: printed lines}, each in its own interpreter."""
    runs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, str(SCRIPT), str(REPO_ROOT), "--tiny"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        runs[threads] = done.stdout.splitlines()
    return runs


def line_fields(line):
    """{hash name: value} of one printed line."""
    return dict(f.split("=") for f in line.split()[1:])


def test_one_line_per_training_set_with_four_hashes(lines_by_blas_threads):
    lines = lines_by_blas_threads["1"]
    names = [line.split()[0] for line in lines]
    draws = [f"{w}/draw{j}" for w in ("fit-long", "fit-wide") for j in range(6)]
    assert names == draws + ["fit-long/model", "fit-wide/model", "predict-batch/model"]
    for name, line in zip(names, lines):
        fields = line_fields(line)
        served = ["features", "raw_features", "raw_mined"] if name.endswith("/model") else []
        assert list(fields) == ["mined", "selected", "pool", "model", "prefix", "edges", "oracle"] + served
        assert all(len(v) == 64 and int(v, 16) >= 0 for v in fields.values())
    assert len({line.split()[1] for line in lines}) == len(lines)


def test_mined_hash_is_of_the_table_mine_shapelets_returns(lines_by_blas_threads, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import TINY

    from divshap import MiningConfig, PipelineConfig, mine_shapelets

    cfg = PipelineConfig()
    table = mine_shapelets(TINY["fit-wide"].make(0, 3)[0], MiningConfig(normalize=cfg.distance))
    want = hashlib.sha256(b"".join(c.tobytes() for c in table.columns)).hexdigest()
    assert lines_by_blas_threads["1"][9].split()[1] == f"mined={want}"


def test_prefix_hash_is_of_the_first_rows_of_a_fresh_table(lines_by_blas_threads, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import TINY

    from divshap import MiningConfig, PipelineConfig, mine_shapelets

    cfg = PipelineConfig()
    table = mine_shapelets(TINY["fit-wide"].make(0, 3)[0], MiningConfig(normalize=cfg.distance))
    assert len(table) > 2000
    rows = [table[i] for i in range(2000)]
    text = "\n".join(f"{s.id} {s.split_threshold.hex()} {s.gain.hex()} {s.gap.hex()}" for s in rows)
    want = hashlib.sha256(text.encode()).hexdigest()
    assert line_fields(lines_by_blas_threads["1"][9])["prefix"] == want


def test_features_hash_is_of_what_transform_and_predict_return(lines_by_blas_threads, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import TINY

    from divshap import PipelineConfig, fit, predict_pipeline
    from divshap.transform import transform

    wl = TINY["predict-batch"]
    model = fit(wl.model_data()[0], PipelineConfig())
    parts = []
    for j in range(wl.draws):
        batch = wl.batch(0, j)
        parts += [transform(batch, model.shapelets).X, predict_pipeline(model, batch)[0]]
    want = hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()
    assert line_fields(lines_by_blas_threads["1"][-1])["features"] == want


def test_raw_features_hash_is_of_what_transform_returns_for_raw_windows(lines_by_blas_threads, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import TINY

    from divshap import DistanceConfig, PipelineConfig, fit
    from divshap.transform import transform

    wl = TINY["fit-long"]
    model = fit(wl.model_data()[0], PipelineConfig())
    raw = DistanceConfig(normalize_windows=False)
    parts = [transform(wl.batch(0, j), model.shapelets, raw).X for j in range(wl.draws)]
    want = hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()
    assert line_fields(lines_by_blas_threads["1"][-3])["raw_features"] == want


def test_raw_mined_hash_is_of_the_table_mine_shapelets_returns_for_raw_windows(lines_by_blas_threads, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import TINY

    from divshap import DistanceConfig, MiningConfig, PipelineConfig, mine_shapelets
    from divshap.pipeline import prepare_series

    train = prepare_series(TINY["fit-wide"].model_data()[0], PipelineConfig())
    table = mine_shapelets(train, MiningConfig(normalize=DistanceConfig(normalize_windows=False)))
    want = hashlib.sha256(b"".join(c.tobytes() for c in table.columns)).hexdigest()
    fields = line_fields(lines_by_blas_threads["1"][-2])
    assert fields["raw_mined"] == want != fields["mined"]


def test_pool_hash_is_of_the_kappa_pool_select_k_sweeps(lines_by_blas_threads, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import TINY

    from divshap import PipelineConfig, build_graph, div_topk, mine_shapelets
    from divshap.mining import MiningConfig

    cfg = PipelineConfig()
    table = mine_shapelets(TINY["fit-long"].make(0, 2)[0], MiningConfig(normalize=cfg.distance))
    pool = div_topk(build_graph(table, cfg.distance), cfg.kappa)
    want = hashlib.sha256("\n".join(s.id for s in pool).encode()).hexdigest()
    fields = line_fields(lines_by_blas_threads["1"][2])
    assert len(pool) == cfg.kappa and fields["pool"] == want != fields["selected"]


def test_edges_hash_is_of_the_graph_graph_dump_writes(lines_by_blas_threads, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import TINY

    from divshap import PipelineConfig
    from divshap.pipeline import mine_graph

    graph = mine_graph(TINY["fit-wide"].make(0, 3)[0], PipelineConfig())[1]
    edges = dataclasses.replace(graph, vertices=graph.vertices[:200]).edges()
    assert edges
    want = hashlib.sha256(str(edges).encode()).hexdigest()
    assert line_fields(lines_by_blas_threads["1"][9])["edges"] == want


def test_oracle_hash_is_of_the_orderlines_of_the_selection(lines_by_blas_threads, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmark"))
    from workloads import TINY

    from divshap import PipelineConfig, fit, orderline

    train = TINY["fit-long"].make(0, 2)[0]
    model = fit(train, PipelineConfig())
    lines = []
    for s in model.shapelets:
        ol = orderline(s, train, model.config.distance)
        assert len(ol) == train.n
        lines.append(" ".join([s.id] + [f"{d.hex()},{y}" for d, y in ol]))
    want = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert line_fields(lines_by_blas_threads["1"][2])["oracle"] == want


def test_lines_independent_of_blas_threads(lines_by_blas_threads):
    assert lines_by_blas_threads["1"] == lines_by_blas_threads["2"]
