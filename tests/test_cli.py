import dataclasses
import io
import json

import numpy as np
import pytest

from divshap import pipeline
from divshap.cli import OPTIONS, _collect_opts, _parse_bool, build_parser, build_pipeline_config, main, parse_config_file
from divshap.bench import sweep_csv
from divshap.dataset import Dataset, read_ucr, write_ucr
from divshap.pipeline import PipelineConfig, fit, mine_graph

from conftest import bump_dataset


@pytest.fixture
def data_files(tmp_path):
    train = bump_dataset(seed=0)
    test = bump_dataset(seed=1)
    train_path = tmp_path / "toy_TRAIN.txt"
    test_path = tmp_path / "toy_TEST.txt"
    for d, p in ((train, train_path), (test, test_path)):
        with open(p, "w") as fh:
            write_ucr(d, fh)
    return train_path, test_path


FAST_ARGS = ["--min-len", "4", "--max-len", "6", "--eval-repeats", "2"]
FAST_OPTS = {"min_len": 4, "max_len": 6, "eval_repeats": 2}


def test_cli_fit_and_predict(data_files, tmp_path, capsys):
    train, test = data_files
    model_path = tmp_path / "model.json"
    assert main(["fit", "--train", str(train), "--model-out", str(model_path), *FAST_ARGS]) == 0
    out = capsys.readouterr().out
    assert "selected_k:" in out
    assert model_path.is_file()

    pred_path = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_path), "--test", str(test), "--out", str(pred_path)]) == 0
    lines = pred_path.read_text().strip().splitlines()
    assert lines[0] == "index,predicted,label"
    assert len(lines) == 13  # header + 12 series


def test_cli_sweep(data_files, tmp_path):
    train, _ = data_files
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--train", str(train), "--out", str(out), *FAST_ARGS]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,mean_accuracy,n_shapelets"
    assert len(lines) >= 2
    assert out.read_text() == sweep_csv(fit(read_ucr(train), build_pipeline_config(FAST_OPTS)))


def test_cli_compare_reports(data_files, tmp_path, capsys):
    train, test = data_files
    prefix = tmp_path / "report"
    assert main(
        ["compare", "--train", str(train), "--test", str(test), "--out-prefix", str(prefix), *FAST_ARGS]
    ) == 0
    table = capsys.readouterr().out
    assert "divshap_elm" in table
    blob = json.loads((tmp_path / "report.json").read_text())
    assert set(blob["accuracies"]) == {"divshap_elm", "raw_elm", "raw_1nn", "transformed_1nn"}
    csv = (tmp_path / "report.csv").read_text()
    assert csv.startswith("dataset,")


def test_cli_compare_deterministic(data_files, tmp_path):
    train, test = data_files
    outs = []
    for run in range(2):
        prefix = tmp_path / f"run{run}"
        assert main(
            ["compare", "--train", str(train), "--test", str(test), "--out-prefix", str(prefix), *FAST_ARGS]
        ) == 0
        blob = json.loads((tmp_path / f"run{run}.json").read_text())
        outs.append((blob["accuracies"], blob["selected_k"]))
    assert outs[0] == outs[1]


def test_cli_mine_dump(data_files, tmp_path):
    train, _ = data_files
    out = tmp_path / "cands.csv"
    assert main(["mine-dump", "--train", str(train), "--out", str(out), "--top", "25", *FAST_ARGS]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "source_series,start,length,gain,threshold,values"
    assert len(lines) == 26


def test_cli_graph_dump(data_files, tmp_path):
    train, _ = data_files
    v_out = tmp_path / "vertices.csv"
    e_out = tmp_path / "edges.csv"
    assert main(
        [
            "graph-dump",
            "--train",
            str(train),
            "--vertices-out",
            str(v_out),
            "--edges-out",
            str(e_out),
            "--top",
            "15",
            *FAST_ARGS,
        ]
    ) == 0
    vertices = v_out.read_text().splitlines()
    assert vertices[0] == "index,gain,threshold,class,source_series,start,length"
    assert [int(row.split(",")[0]) for row in vertices[1:]] == list(range(15))
    mined = mine_graph(read_ucr(train), build_pipeline_config(FAST_OPTS))[1]
    top = dataclasses.replace(mined, vertices=mined.vertices[:15])
    header, *rows = e_out.read_text().splitlines()
    edges = [tuple(map(int, row.split(","))) for row in rows]
    assert header == "i,j"
    assert edges == top.edges() and all(i < j for i, j in edges)


def test_cli_dumps_mine_as_fit_does(tmp_path):
    """mine-dump and graph-dump write the candidates of fit's own mining, so
    whole-series z-normalization reaches them as well."""
    d = bump_dataset(seed=0)
    rng = np.random.default_rng(5)
    X = d.X * rng.uniform(0.5, 4.0, (d.n, 1)) + rng.uniform(-5.0, 5.0, (d.n, 1))
    path = tmp_path / "shifted_TRAIN.txt"
    with open(path, "w") as fh:
        write_ucr(Dataset(X=X, y=d.y), fh)
    flags = ["--train", str(path), *FAST_ARGS, "--znormalize-series", "--no-normalize-windows"]
    cands, v_out, e_out = tmp_path / "cands.csv", tmp_path / "v.csv", tmp_path / "e.csv"
    assert main(["mine-dump", "--out", str(cands), *flags]) == 0
    assert main(["graph-dump", "--vertices-out", str(v_out), "--edges-out", str(e_out), "--top", "20", *flags]) == 0

    cfg = build_pipeline_config({**FAST_OPTS, "znormalize_series": True, "normalize_windows": False})
    mined = mine_graph(read_ucr(path), cfg)[1].vertices
    rows = [line.split(",") for line in cands.read_text().splitlines()[1:]]
    assert [f"s{r[0]}_{r[1]}_{r[2]}" for r in rows] == [s.id for s in mined]
    assert [float(r[4]) for r in rows] == [s.split_threshold for s in mined]
    for r, s in zip(rows, mined):
        assert np.array_equal(np.array(r[5].split(), dtype=float), s.values)
    rows = [line.split(",") for line in v_out.read_text().splitlines()[1:]]
    assert [f"s{r[4]}_{r[5]}_{r[6]}" for r in rows] == [s.id for s in mined[:20]]
    assert [float(r[2]) for r in rows] == [s.split_threshold for s in mined[:20]]


def test_cli_config_file(data_files, tmp_path):
    train, _ = data_files
    cfg = tmp_path / "divshap.cfg"
    cfg.write_text(
        "# sweep settings\n"
        "kappa = 4\n"
        "min_len = 4\n"
        "max_len = 6\n"
        "eval_repeats = 2\n"
        "normalize_windows = true\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--train", str(train), "--out", str(out), "--config", str(cfg)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) - 1 <= 4


def test_cli_flag_overrides_config(data_files, tmp_path):
    train, _ = data_files
    cfg = tmp_path / "divshap.cfg"
    cfg.write_text("kappa = 9\nmin_len = 4\nmax_len = 6\neval_repeats = 2\n")
    out = tmp_path / "sweep.csv"
    assert main(
        ["sweep", "--train", str(train), "--out", str(out), "--config", str(cfg), "--kappa", "2"]
    ) == 0
    assert len(out.read_text().strip().splitlines()) - 1 <= 2


def test_parse_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(ValueError):
        parse_config_file(cfg)


def test_parse_config_rejects_bad_boolean(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("normalize_windows = maybe\n")
    with pytest.raises(ValueError):
        parse_config_file(cfg)


def test_cli_missing_file_errors(tmp_path, capsys):
    rc = main(["fit", "--train", str(tmp_path / "nope.txt"), "--model-out", str(tmp_path / "m.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_workers_env(data_files, tmp_path, monkeypatch):
    train, _ = data_files
    monkeypatch.setenv("DIVSHAP_WORKERS", "2")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--train", str(train), "--out", str(out), *FAST_ARGS]) == 0
    assert out.is_file()


# One value per option, as it would be written in a config file; every value
# differs from the PipelineConfig default so each option visibly sets its
# fields.
OPTION_SAMPLES = {
    "seed": "7",
    "kappa": "3",
    "workers": "2",
    "eval_mode": "train",
    "eval_folds": "3",
    "eval_repeats": "2",
    "min_len": "4",
    "max_len": "6",
    "length_stride": "2",
    "position_stride": "2",
    "normalize_windows": "false",
    "length_normalize": "false",
    "same_class_only": "false",
    "znormalize_series": "true",
    "elm_hidden": "12",
    "elm_ridge": "0.5",
    "elm_activation": "tanh",
}
FIT_ARGS = ["fit", "--train", "t.txt", "--model-out", "m.json"]


def _flag_args(opt, text):
    flag = opt.key.replace("_", "-")
    if opt.parse is _parse_bool:
        return ["--" + flag] if text == "true" else ["--no-" + flag]
    return ["--" + flag, text]


def test_every_option_same_from_flag_and_file(tmp_path):
    assert set(OPTION_SAMPLES) == {o.key for o in OPTIONS}
    for opt in OPTIONS:
        text = OPTION_SAMPLES[opt.key]
        cfg_file = tmp_path / f"{opt.key}.cfg"
        cfg_file.write_text(f"{opt.key} = {text}\n")
        from_file = _collect_opts(build_parser().parse_args([*FIT_ARGS, "--config", str(cfg_file)]))
        from_flag = _collect_opts(build_parser().parse_args([*FIT_ARGS, *_flag_args(opt, text)]))
        assert from_file == from_flag == {opt.key: from_flag[opt.key]}
        cfg = build_pipeline_config(from_flag)
        assert cfg == build_pipeline_config(from_file)
        assert (cfg != PipelineConfig()) == bool(opt.fields), opt.key


def test_no_options_give_default_config():
    assert build_pipeline_config({}) == PipelineConfig()
    assert build_pipeline_config(_collect_opts(build_parser().parse_args(FIT_ARGS))) == PipelineConfig()


def test_seed_sets_elm_and_evaluation_seeds():
    cfg = build_pipeline_config({"seed": 7})
    assert cfg.elm.seed == cfg.evaluation.seed == 7


def test_parse_config_rejects_value_outside_choices(tmp_path, data_files, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("eval_mode = bogus\n")
    with pytest.raises(ValueError, match="eval_mode"):
        parse_config_file(cfg)
    train, _ = data_files
    rc = main(["sweep", "--train", str(train), "--out", str(tmp_path / "s.csv"), "--config", str(cfg)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_integer_options_below_minimum_rejected(tmp_path, data_files, capsys):
    """A flag or file value below an option's minimum is refused by name; a
    stride of 0 used to end in range()'s own error, and a ridge of -1 or nan
    silently chose the unregularized solve."""
    train, _ = data_files
    base = ["mine-dump", "--train", str(train), "--out", str(tmp_path / "c.csv")]
    bounded = {o.key: o.minimum for o in OPTIONS if o.minimum is not None}
    assert bounded == {
        "seed": 0,
        "kappa": 1,
        "workers": 1,
        "eval_folds": 2,
        "eval_repeats": 1,
        "min_len": 2,
        "max_len": 2,
        "length_stride": 1,
        "position_stride": 1,
        "elm_hidden": 1,
        "elm_ridge": 0,
    }
    with pytest.raises(SystemExit) as exc:
        main([*base, "--elm-ridge", "nan"])
    assert exc.value.code == 2
    assert "--elm-ridge: invalid value 'nan': not a finite number" in capsys.readouterr().err
    for key, minimum in bounded.items():
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main([*base, flag, str(minimum - 1)])
        assert exc.value.code == 2
        assert f"{flag}: must be at least {minimum}" in capsys.readouterr().err

        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"# low\n{key} = {minimum - 1}\n")
        assert main([*base, "--config", str(cfg)]) == 1
        assert f"error: {cfg}:2: {key}: must be at least {minimum}" in capsys.readouterr().err


def test_cli_top_must_be_positive(data_files, tmp_path, capsys):
    train, _ = data_files
    out = tmp_path / "c.csv"
    mine = ["mine-dump", "--train", str(train), "--out", str(out), *FAST_ARGS]
    graph = [
        "graph-dump",
        "--train",
        str(train),
        "--vertices-out",
        str(tmp_path / "v.csv"),
        "--edges-out",
        str(tmp_path / "e.csv"),
        *FAST_ARGS,
    ]
    for args in (mine, graph):
        for top in ("0", "-5"):
            with pytest.raises(SystemExit) as exc:
                main([*args, "--top", top])
            assert exc.value.code == 2
            assert "--top: must be at least 1" in capsys.readouterr().err
    assert main([*mine, "--top", "1"]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_cli_workers_precedence(data_files, tmp_path, monkeypatch, capsys):
    """--workers beats the config file, which beats DIVSHAP_WORKERS, then 1."""
    train, _ = data_files
    seen = []

    def record(train, cfg, *, workers):
        seen.append(workers)
        return []

    monkeypatch.setattr(pipeline, "mine_shapelets", record)
    cfg = tmp_path / "w.cfg"
    cfg.write_text("workers = 2\n")
    base = ["mine-dump", "--train", str(train), "--out", str(tmp_path / "c.csv")]
    monkeypatch.delenv("DIVSHAP_WORKERS", raising=False)
    assert main(base) == 0
    monkeypatch.setenv("DIVSHAP_WORKERS", "3")
    assert main(base) == 0
    assert main([*base, "--config", str(cfg)]) == 0
    assert main([*base, "--config", str(cfg), "--workers", "4"]) == 0
    assert seen == [1, 3, 2, 4]
    monkeypatch.setenv("DIVSHAP_WORKERS", "0")
    assert main(base) == 1
    assert "error: DIVSHAP_WORKERS: must be at least 1" in capsys.readouterr().err


def _write_labelled(path, labels, seed):
    """Series whose text label picks an upward bump (a), a downward bump (b)
    or none (c)."""
    rng = np.random.default_rng(seed)
    bump = np.array([0.0, 1.5, 2.5, 1.5, 0.0])
    shapes = {"a": bump, "b": -bump, "c": 0.0 * bump}
    with open(path, "w") as fh:
        for label in labels:
            row = rng.normal(0.0, 0.2, 24)
            off = rng.integers(2, 17)
            row[off : off + 5] += shapes[label]
            fh.write(",".join([label] + [format(v, ".17g") for v in row]) + "\n")


def test_cli_text_labels_coded_against_training(tmp_path, capsys):
    """A test file holding a subset of the training labels is scored by label
    name, not by the codes its own label set would get."""
    train, test, model = tmp_path / "train.txt", tmp_path / "test.txt", tmp_path / "m.json"
    _write_labelled(train, ["a", "b", "c"] * 6, seed=0)
    _write_labelled(test, ["b", "c"] * 6, seed=1)
    assert main(["fit", "--train", str(train), "--model-out", str(model), *FAST_ARGS]) == 0
    capsys.readouterr()

    pred_csv = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model), "--test", str(test), "--out", str(pred_csv)]) == 0
    reported = float(capsys.readouterr().out.split("accuracy:")[1])
    rows = [line.split(",") for line in pred_csv.read_text().splitlines()[1:]]
    assert {r[2] for r in rows} == {"b", "c"}
    true_acc = sum(r[1] == r[2] for r in rows) / len(rows)
    assert reported == true_acc

    prefix = tmp_path / "cmp"
    assert main(
        ["compare", "--train", str(train), "--test", str(test), "--out-prefix", str(prefix), *FAST_ARGS]
    ) == 0
    assert json.loads((tmp_path / "cmp.json").read_text())["accuracies"]["divshap_elm"] == true_acc


def test_cli_unseen_test_label_errors(tmp_path, capsys):
    train, test, model = tmp_path / "train.txt", tmp_path / "test.txt", tmp_path / "m.json"
    _write_labelled(train, ["a", "b"] * 6, seed=0)
    _write_labelled(test, ["a", "c"] * 3, seed=1)
    assert main(["fit", "--train", str(train), "--model-out", str(model), *FAST_ARGS]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--test", str(test)]) == 1
    assert "'c'" in capsys.readouterr().err
    assert main(["compare", "--train", str(train), "--test", str(test), *FAST_ARGS]) == 1
    assert "'c'" in capsys.readouterr().err


def test_cli_predict_malformed_model_errors(data_files, tmp_path, capsys):
    _, test = data_files
    model = tmp_path / "m.json"
    model.write_text('{"format": "divshap-pipeline", "version": 1}')
    assert main(["predict", "--model", str(model), "--test", str(test)]) == 1
    assert "error: malformed model file" in capsys.readouterr().err
