"""Byte checks of every CSV writer and of the model file.

Each writer goes through dataset.csv_line. The reference functions below
keep the formatting each writer had before that merge, field by field, so a
change to csv_line that alters one byte of any file fails here. The inputs
hold floats that need 17 digits, -0.0, None, numpy float64 and int64
values, and text labels.
"""

from __future__ import annotations

import dataclasses
import io
from types import SimpleNamespace

import numpy as np
import pytest

from divshap.bench import ExperimentReport, sweep_csv
from divshap.cli import build_pipeline_config, main
from divshap.dataset import Dataset, csv_line, parse_ucr, read_ucr, write_ucr
from divshap.elm import ELMConfig
from divshap.mining import MiningConfig
from divshap.pipeline import (
    EvalConfig,
    PipelineConfig,
    fit,
    load_pipeline,
    mine_graph,
    predict_pipeline,
    save_pipeline,
)

from conftest import bump_dataset

FAST_ARGS = ["--min-len", "4", "--max-len", "6", "--eval-repeats", "2"]
FAST_OPTS = {"min_len": 4, "max_len": 6, "eval_repeats": 2}
NAMES = {1: "walk", 2: "run"}


def ref_write_ucr(d):
    out = []
    for row, label in zip(d.X, d.y):
        tok = d.label_names.get(int(label), str(int(label)))
        out.append(",".join([tok] + [format(v, ".17g") for v in row]) + "\n")
    return "".join(out)


def ref_accuracy_csv(r):
    keys = sorted(r.accuracies)
    head = ",".join(["dataset"] + keys + ["selected_k"])
    vals = [r.dataset] + [
        "" if r.accuracies[k] is None else format(r.accuracies[k], ".17g") for k in keys
    ] + ["" if r.selected_k is None else str(r.selected_k)]
    return head + "\n" + ",".join(vals) + "\n"


def ref_sweep_csv(model):
    lines = ["k,mean_accuracy,n_shapelets"]
    for row in model.k_sweep_report:
        lines.append(f"{row['k']},{format(row['mean_accuracy'], '.17g')},{row['n_shapelets']}")
    return "\n".join(lines) + "\n"


def ref_predict_csv(model, test, pred):
    lines = ["index,predicted,label"]
    for i, p in enumerate(pred):
        name = model.label_names.get(int(p), str(int(p)))
        lines.append(f"{i},{name},{test.label_names.get(int(test.y[i]), test.y[i])}")
    return "\n".join(lines) + "\n"


def ref_mine_dump(shapelets):
    out = ["source_series,start,length,gain,threshold,values\n"]
    for s in shapelets:
        vals = " ".join(format(v, ".17g") for v in s.values)
        out.append(
            f"{s.source_series},{s.start},{s.length},"
            f"{format(s.gain, '.17g')},{format(s.split_threshold, '.17g')},{vals}\n"
        )
    return "".join(out)


def ref_graph_dump(top):
    vertices = ["index,gain,threshold,class,source_series,start,length\n"]
    for i, v in enumerate(top.vertices):
        vertices.append(
            f"{i},{format(v.gain, '.17g')},{format(v.split_threshold, '.17g')},"
            f"{v.class_label},{v.source_series},{v.start},{v.length}\n"
        )
    edges = ["i,j\n"] + [f"{i},{j}\n" for i, j in top.edges()]
    return "".join(vertices), "".join(edges)


def awkward(seed: int, label_names=NAMES) -> Dataset:
    """A bump set whose first rows need 17 digits, hold -0.0 and span many
    orders of magnitude."""
    d = bump_dataset(seed=seed, per_class=4)
    X = d.X.copy()
    X[0, :4] = [0.1 + 0.2, -0.0, 1 / 3, 1e-300]
    X[1, :2] = [1.2345678901234567e150, -2.5e-7]
    return Dataset(X=X, y=d.y, label_names=label_names)


@pytest.fixture
def text_files(tmp_path):
    paths = []
    for seed, name in ((0, "train.txt"), (1, "test.txt")):
        paths.append(tmp_path / name)
        with open(paths[-1], "w") as fh:
            write_ucr(awkward(seed), fh)
    return paths


def test_csv_line_fields():
    fields = [0.1 + 0.2, -0.0, None, np.float64(1 / 3), np.int64(7), 3, "walk", np.float64(2.0)]
    assert csv_line(fields) == "0.30000000000000004,-0,,0.33333333333333331,7,3,walk,2\n"
    assert csv_line([]) == "\n"


@pytest.mark.parametrize("label_names", [NAMES, {1: "1", 2: "2"}])
def test_write_ucr_bytes_and_exact_read_back(label_names):
    d = awkward(0, label_names)
    buf = io.StringIO()
    write_ucr(d, buf)
    assert buf.getvalue() == ref_write_ucr(d)
    back = parse_ucr(buf.getvalue())
    assert np.array_equal(back.X, d.X)
    assert [back.label_names[c] for c in back.y] == [label_names[c] for c in d.y]
    assert np.signbit(back.X[0, 1])


@pytest.mark.parametrize("selected_k", [np.int64(3), 2, None])
def test_accuracy_csv_bytes(selected_k):
    report = ExperimentReport(
        dataset="walk_TRAIN",
        accuracies={
            "divshap_elm": 0.1 + 0.2,
            "raw_elm": None,
            "raw_1nn": np.float64(-0.0),
            "transformed_1nn": np.float64(1 / 3),
        },
        selected_k=selected_k,
    )
    assert report.accuracy_csv() == ref_accuracy_csv(report)


def test_sweep_csv_bytes():
    rows = [
        {"k": np.int64(1), "mean_accuracy": np.float64(2 / 3), "n_shapelets": np.int64(1)},
        {"k": 2, "mean_accuracy": -0.0, "n_shapelets": 2},
        {"k": 3, "mean_accuracy": 0.1 + 0.2, "n_shapelets": 3},
    ]
    model = SimpleNamespace(k_sweep_report=rows)
    assert sweep_csv(model) == ref_sweep_csv(model)


def test_cli_predict_bytes(text_files, tmp_path, capsys):
    train, test = text_files
    model_path, out = tmp_path / "model.json", tmp_path / "pred.csv"
    assert main(["fit", "--train", str(train), "--model-out", str(model_path), *FAST_ARGS]) == 0
    capsys.readouterr()
    with open(model_path) as fh:
        model = load_pipeline(fh)
    test_set = read_ucr(test)
    pred, acc = predict_pipeline(model, test_set)
    expected = ref_predict_csv(model, test_set, pred)
    assert "walk" in expected

    assert main(["predict", "--model", str(model_path), "--test", str(test), "--out", str(out)]) == 0
    assert out.read_text() == expected
    assert capsys.readouterr().out == f"accuracy: {acc:.17g}\n"
    assert main(["predict", "--model", str(model_path), "--test", str(test)]) == 0
    assert capsys.readouterr().out == expected + f"accuracy: {acc:.17g}\n"


def test_cli_mine_and_graph_dump_bytes(text_files, tmp_path):
    train, _ = text_files
    mined = mine_graph(read_ucr(train), build_pipeline_config(FAST_OPTS))[1]
    mine_out, v_out, e_out = tmp_path / "mine.csv", tmp_path / "v.csv", tmp_path / "e.csv"
    assert main(["mine-dump", "--train", str(train), "--out", str(mine_out), *FAST_ARGS]) == 0
    assert mine_out.read_text() == ref_mine_dump(mined.vertices)
    assert "-0 " in mine_out.read_text() or " -0\n" in mine_out.read_text()

    argv = ["graph-dump", "--train", str(train), "--vertices-out", str(v_out), "--edges-out", str(e_out)]
    assert main([*argv, "--top", "40", *FAST_ARGS]) == 0
    vertices, edges = ref_graph_dump(dataclasses.replace(mined, vertices=mined.vertices[:40]))
    assert v_out.read_text() == vertices
    assert e_out.read_text() == edges
    assert edges.count("\n") > 1


def test_model_save_load_save_bytes():
    cfg = PipelineConfig(
        kappa=4,
        mining=MiningConfig(min_len=4, max_len=7, length_stride=2),
        elm=ELMConfig(n_hidden=7, activation="tanh", seed=3, ridge=1e-3),
        evaluation=EvalConfig(folds=3, repeats=2, seed=5),
        same_class_only=False,
        znormalize_series=True,
    )
    first = io.StringIO()
    save_pipeline(fit(awkward(0), cfg), first)
    second = io.StringIO()
    save_pipeline(load_pipeline(io.StringIO(first.getvalue())), second)
    assert second.getvalue() == first.getvalue()
    assert '"walk"' in first.getvalue()
