"""Alternating parent/change pairs of the benchmark, from two checkouts.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload fit-long --seed 0 --pairs 10

Each pair runs the command of CHANGE's BENCHMARK.json (``benchmark/run.py``)
with its ``run_seconds`` and ``--trace 0`` once in each checkout, one run at a
time; odd pairs run PARENT first and even pairs CHANGE first. Each run's line
is printed as it ends. Then, per end-to-end metric: each side's median and
quartiles, the change's wins (a tie counts for neither side) and the
relative move of the median. A gain is claimed only when the change wins at
least nine pairs in ten and its median beats the parent's by more than the
parent's interquartile range. The same summary follows for each draw's
median fit time and each batch's median predict time, from ``fit_times_s``
and ``predict_times_s`` of the run's ``.bench_out/BENCH_<workload>.json``,
over the pairs in which neither run failed an operation: ``fit_s`` and
``predict_p50_s`` are medians over all draws and can hide a move of some of
them. Nothing is written under either checkout's
``benchmark/``; ``benchmark/run.py`` writes its own reports to the
git-ignored ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, bench: dict, workload: str, seed: int) -> tuple[dict, dict]:
    """The JSON result line of one benchmark run in checkout, and its
    report."""
    cmd = [sys.executable if c in ("python", "python3") else c for c in bench["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: exit {done.returncode}\n{done.stderr[-2000:]}")
    report = json.loads((checkout / ".bench_out" / f"BENCH_{workload}.json").read_text())
    return json.loads(lines[-1]), report


# The per-draw times of a report, with the title of each summary and the
# name of its draws.
PER_DRAW = {"fit_times_s": ("fit time per draw", "draw"), "predict_times_s": ("predict time per batch", "batch")}


def draw_medians(report: dict, times: str = "fit_times_s") -> list[float] | None:
    """The median of each draw's times in a run's report, where time i of
    report[times] (fit_times_s or predict_times_s) is of draw i mod
    sizes.draws (a predict's draw is its batch); None if the run failed an
    operation, as a failed operation leaves no time and would shift the
    draws of the later ones."""
    if report["failed"]:
        return None
    draws, values = report["sizes"]["draws"], report[times]
    return [statistics.median(values[d::draws]) for d in range(draws)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles, wins and the gain rule for one metric; parent[i]
    and change[i] are the two runs of pair i."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return {
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "wins": wins,
        "move": (cm - pm) / pm if pm else 0.0,
        "gain": wins >= 0.9 * len(parent) and sign * (pm - cm) > p3 - p1,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    reports: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result, report = run_once(sides[side], bench, args.workload, args.seed)
            runs[side].append(result)
            reports[side].append(report)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"pair {i + 1} {side}: correct={result['correct']} failed={result['failed']} {values}", flush=True)

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs: median [q1, q3]")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        s = summarize(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
            metric["better"],
        )
        pm, p1, p3 = s["parent"]
        cm, c1, c3 = s["change"]
        print(
            f"{name:<15} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}] "
            f"{metric['unit']}  wins {s['wins']}/{args.pairs}  move {s['move']:+.1%} (bound {metric['bound']:.0%})"
            f"{'  GAIN' if s['gain'] else ''}"
        )
    for times, (title, draw) in PER_DRAW.items():
        medians = {side: [draw_medians(r, times) for r in reports[side]] for side in sides}
        pairs = [(p, c) for p, c in zip(medians["parent"], medians["change"]) if p is not None and c is not None]
        print(f"\n{title}, {len(pairs)} pairs with no failed operation: median [q1, q3]")
        for d in range(len(pairs[0][0]) if pairs else 0):
            s = summarize([p[d] for p, _ in pairs], [c[d] for _, c in pairs], "lower")
            pm, p1, p3 = s["parent"]
            cm, c1, c3 = s["change"]
            print(
                f"{f'{draw} {d}':<15} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}] "
                f"s  wins {s['wins']}/{len(pairs)}  move {s['move']:+.1%}"
            )
    correct = all(r["correct"] for side in runs.values() for r in side)
    print(f"every run correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
