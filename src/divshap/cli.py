"""Command-line front end.

Subcommands: fit, predict, sweep, compare, mine-dump, graph-dump. Each
entry of OPTIONS is one setting. It generates one flag (--min-len; booleans
as --x/--no-x) and one key of the key=value config file (min_len), and it
names the PipelineConfig fields it sets. Flags win over the file, and unset
options keep the PipelineConfig defaults. The worker count comes from
--workers, then the file's workers key, then the DIVSHAP_WORKERS
environment variable, then 1.

Workers pay only when BLAS runs one thread: on 2 vCPUs, 2 workers cut
mining of the benchmark's seed-0 fit-long and fit-wide draws from 0.57 to
0.34 s and 0.73 to 0.40 s with OPENBLAS_NUM_THREADS=1, but raised it from
0.49 to 0.67 s and 0.69 to 0.83 s with 2 BLAS threads (medians of 5 runs).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import bench, elm
from .dataset import csv_field, csv_line, read_ucr
from .errors import DivshapError
from .pipeline import (
    EVAL_MODES,
    PipelineConfig,
    fit,
    load_pipeline,
    mine_graph,
    predict_pipeline,
    save_pipeline,
)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError(f"bad boolean {text!r}")
    return low in ("true", "1", "yes")


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


@dataclass(frozen=True)
class Option:
    """One setting: its config-file key, the parser for its value, the
    allowed values or the smallest one, and the dotted PipelineConfig fields
    it sets. workers sets none; it goes to the run instead."""

    key: str
    parse: Callable[[str], object]
    fields: tuple[str, ...]
    choices: tuple[str, ...] | None = None
    minimum: int | None = None
    help: str | None = None

    def __call__(self, text: str):
        """Parse a flag or file value; a malformed value, or one outside choices
        or below minimum, raises argparse.ArgumentTypeError (argparse's type)."""
        try:
            value = self.parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None
        if self.choices is not None and value not in self.choices:
            raise argparse.ArgumentTypeError(f"must be one of {', '.join(self.choices)}")
        if self.minimum is not None and value < self.minimum:
            raise argparse.ArgumentTypeError(f"must be at least {self.minimum}")
        return value


WORKERS = Option(
    "workers", int, (), minimum=1,
    help="parallel scoring workers (default: DIVSHAP_WORKERS, then 1); >1 pays only with OPENBLAS_NUM_THREADS=1",
)
OPTIONS = (
    Option("seed", int, ("elm.seed", "evaluation.seed"), minimum=0),
    Option("kappa", int, ("kappa",), minimum=1, help="largest shapelet count the k sweep tries"),
    WORKERS,
    Option("eval_mode", str, ("evaluation.mode",), choices=EVAL_MODES),
    Option("eval_folds", int, ("evaluation.folds",), minimum=2),
    Option("eval_repeats", int, ("evaluation.repeats",), minimum=1),
    Option("min_len", int, ("mining.min_len",), minimum=2),
    Option("max_len", int, ("mining.max_len",), minimum=2),
    Option("length_stride", int, ("mining.length_stride",), minimum=1),
    Option("position_stride", int, ("mining.position_stride",), minimum=1),
    Option(
        "normalize_windows",
        _parse_bool,
        ("distance.normalize_windows", "mining.normalize.normalize_windows"),
        help="z-normalize the query and every window before comparing",
    ),
    Option(
        "length_normalize",
        _parse_bool,
        ("distance.length_normalize", "mining.normalize.length_normalize"),
        help="divide window distances by the compared length",
    ),
    Option(
        "same_class_only",
        _parse_bool,
        ("same_class_only",),
        help="link only same-class shapelets in the diversity graph",
    ),
    Option(
        "znormalize_series",
        _parse_bool,
        ("znormalize_series",),
        help="z-normalize whole series before mining",
    ),
    Option("elm_hidden", int, ("elm.n_hidden",), minimum=1),
    Option("elm_ridge", _parse_finite, ("elm.ridge",), minimum=0),
    Option("elm_activation", str, ("elm.activation",), choices=tuple(elm.ACTIVATIONS)),
)
_BY_KEY = {opt.key: opt for opt in OPTIONS}
# --top of mine-dump and graph-dump: a flag only, with no config-file key
TOP = Option("top", int, (), minimum=1)


def parse_config_file(path: str | Path) -> dict:
    """Parse the simple key=value config format ('#' starts a comment)."""
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, val = (p.strip() for p in line.split("=", 1))
        opt = _BY_KEY.get(key)
        if opt is None:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = opt(val)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def _replace_field(obj, path: list[str], value):
    head, *rest = path
    if rest:
        value = _replace_field(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


def build_pipeline_config(opts: dict) -> PipelineConfig:
    """PipelineConfig() with the fields of every option in opts set."""
    cfg = PipelineConfig()
    for key, value in opts.items():
        for path in _BY_KEY[key].fields:
            cfg = _replace_field(cfg, path.split("."), value)
    return cfg


def _collect_opts(args: argparse.Namespace) -> dict:
    opts = parse_config_file(args.config) if args.config else {}
    for opt in OPTIONS:
        value = getattr(args, opt.key)
        if value is not None:
            opts[opt.key] = value
    return opts


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    for opt in OPTIONS:
        flag = "--" + opt.key.replace("_", "-")
        if opt.parse is _parse_bool:
            p.add_argument(flag, dest=opt.key, action=argparse.BooleanOptionalAction, help=opt.help)
        else:
            p.add_argument(flag, dest=opt.key, type=opt, choices=opt.choices, help=opt.help)


def _workers(opts: dict) -> int:
    if WORKERS.key in opts:
        return opts[WORKERS.key]
    try:
        return WORKERS(os.environ.get("DIVSHAP_WORKERS", "1"))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"DIVSHAP_WORKERS: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="divshap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a pipeline model on a training file")
    p.add_argument("--train", required=True)
    p.add_argument("--model-out", required=True)
    _add_common(p)

    p = sub.add_parser("predict", help="classify a test file with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", help="write predictions CSV here")

    p = sub.add_parser("sweep", help="emit the per-k accuracy curve as CSV")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("compare", help="pipeline vs raw ELM and 1NN baselines")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out-prefix", help="write <prefix>.json and <prefix>.csv reports")
    _add_common(p)

    p = sub.add_parser("mine-dump", help="dump scored candidates as CSV")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top", type=TOP, help="keep only the best N candidates")
    _add_common(p)

    p = sub.add_parser("graph-dump", help="dump diversity-graph vertices and edges")
    p.add_argument("--train", required=True)
    p.add_argument("--vertices-out", required=True)
    p.add_argument("--edges-out", required=True)
    p.add_argument("--top", type=TOP, default=200, help="graph over the best N candidates")
    _add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (DivshapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _write_csv(path: str | None, header: list[str], rows) -> None:
    """Stream the header and then each row, one csv_line each, to path, or
    to standard output when path is None."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(csv_line(header))
        fh.writelines(map(csv_line, rows))


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "predict":
        with open(args.model) as fh:
            model = load_pipeline(fh)
        test = read_ucr(args.test)
        pred, acc = predict_pipeline(model, test)
        rows = (
            [i, model.label_names.get(int(p), int(p)), test.label_names.get(int(y), y)]
            for i, (p, y) in enumerate(zip(pred, test.y))
        )
        _write_csv(args.out, ["index", "predicted", "label"], rows)
        if acc is not None:
            print(f"accuracy: {acc:.17g}")
        return 0

    opts = _collect_opts(args)
    cfg = build_pipeline_config(opts)
    workers = _workers(opts)
    train = read_ucr(args.train)

    if args.command == "fit":
        model = fit(train, cfg, workers=workers)
        with open(args.model_out, "w") as fh:
            save_pipeline(model, fh)
        print(f"selected_k: {model.selected_k}")
        print(f"model written to {args.model_out}")
        return 0

    if args.command == "sweep":
        model = fit(train, cfg, workers=workers)
        Path(args.out).write_text(bench.sweep_csv(model))
        print(f"selected_k: {model.selected_k}")
        print(f"sweep written to {args.out}")
        return 0

    if args.command == "compare":
        test = read_ucr(args.test)
        report, model = bench.run_experiment(train, test, cfg, workers=workers)
        print(report.table())
        if args.out_prefix:
            Path(args.out_prefix + ".json").write_text(report.to_json())
            Path(args.out_prefix + ".csv").write_text(report.accuracy_csv())
        return 0

    if args.command == "mine-dump":
        shapelets = mine_graph(train, cfg, workers=workers)[1].vertices[: args.top]
        rows = (
            [s.source_series, s.start, s.length, s.gain, s.split_threshold, " ".join(map(csv_field, s.values))]
            for s in shapelets
        )
        _write_csv(args.out, ["source_series", "start", "length", "gain", "threshold", "values"], rows)
        print(f"{len(shapelets)} candidates written to {args.out}")
        return 0

    if args.command == "graph-dump":
        graph = mine_graph(train, cfg, workers=workers)[1]
        top = dataclasses.replace(graph, vertices=graph.vertices[: args.top])
        edges = top.edges()
        rows = (
            [i, v.gain, v.split_threshold, v.class_label, v.source_series, v.start, v.length]
            for i, v in enumerate(top.vertices)
        )
        _write_csv(args.vertices_out, ["index", "gain", "threshold", "class", "source_series", "start", "length"], rows)
        _write_csv(args.edges_out, ["i", "j"], edges)
        print(f"{top.n} vertices, {len(edges)} edges written")
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
