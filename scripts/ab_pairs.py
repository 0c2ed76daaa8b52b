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
median fit time, from ``fit_times_s`` of the run's
``.bench_out/BENCH_<workload>.json``, over the pairs in which neither run
failed an operation: ``fit_s`` is a median over all draws and can hide a
move of some of them. Nothing is written under either checkout's
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


def run_once(checkout: Path, bench: dict, workload: str, seed: int) -> tuple[dict, list[float] | None]:
    """The JSON result line of one benchmark run in checkout, and its
    draw_medians."""
    cmd = [sys.executable if c in ("python", "python3") else c for c in bench["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: exit {done.returncode}\n{done.stderr[-2000:]}")
    report = json.loads((checkout / ".bench_out" / f"BENCH_{workload}.json").read_text())
    return json.loads(lines[-1]), draw_medians(report)


def draw_medians(report: dict) -> list[float] | None:
    """The median fit time of each draw in a run's report, where fit i is of
    draw i mod sizes.draws; None if the run failed an operation, as a failed
    fit leaves no time and would shift the draws of the later ones."""
    if report["failed"]:
        return None
    draws, times = report["sizes"]["draws"], report["fit_times_s"]
    return [statistics.median(times[d::draws]) for d in range(draws)]


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
    draws: dict[str, list[list[float] | None]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result, medians = run_once(sides[side], bench, args.workload, args.seed)
            runs[side].append(result)
            draws[side].append(medians)
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
    pairs = [(p, c) for p, c in zip(draws["parent"], draws["change"]) if p is not None and c is not None]
    print(f"\nfit time per draw, {len(pairs)} pairs with no failed operation: median [q1, q3]")
    for d in range(len(pairs[0][0]) if pairs else 0):
        s = summarize([p[d] for p, _ in pairs], [c[d] for _, c in pairs], "lower")
        pm, p1, p3 = s["parent"]
        cm, c1, c3 = s["change"]
        print(
            f"draw {d:<10} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}] "
            f"s  wins {s['wins']}/{len(pairs)}  move {s['move']:+.1%}"
        )
    correct = all(r["correct"] for side in runs.values() for r in side)
    print(f"every run correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
