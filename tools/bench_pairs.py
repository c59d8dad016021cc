"""Run the benchmark in alternating pairs: a base revision against the
working tree.

    python3 tools/bench_pairs.py 10 --workload sim-sweep --seconds 20

Checks out REV (default HEAD) in a `git worktree` under a temporary
directory, removed when done. For each workload, runs
`benchmarks/run.py --seed 1 --trace 0` N times in that checkout and N
times in the working tree, one pair at a time, alternating which side
runs first. Then prints, per end-to-end metric of BENCHMARK.json, both
sides' medians, the base side's interquartile range, how many pairs the
working tree won (a win is a strictly better value in the direction of
the metric's `better`), and how much worse the working tree's median is
than the base's, relative to it: positive is worse, and a flag marks a
metric worse by more than its `bound`. Last come each side's failed
operations. It records the figures and asserts nothing; a run that
cannot run at all stops it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True, text=True).stdout.strip()


def run_once(checkout: Path, workload: str, seconds: int) -> dict:
    """One untraced `benchmarks/run.py` run in `checkout`: its last
    stdout line, {"correct", "attempted", "failed", "metrics"}, with each
    metric reduced to its value."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        timeout=60 + 20 * seconds)
    # exit status 1 means a failed operation, which the summary counts
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{workload} in {checkout}: benchmarks/run.py "
                         f"exited with {proc.returncode}\n{proc.stderr}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["metrics"] = {name: metric["value"]
                      for name, metric in doc["metrics"].items()}
    return doc


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list, end_to_end: list) -> dict:
    """The figures of one workload's `pairs`, each a (base, change) pair of
    `run_once` records, for the metrics of `end_to_end`, BENCHMARK.json's
    list of {"name", "better": "higher" or "lower", "bound"}.
    """
    metrics = {}
    for metric in end_to_end:
        name = metric["name"]
        base = [b["metrics"][name] for b, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        sign = 1 if metric["better"] == "higher" else -1
        base_median = statistics.median(base)
        change_median = statistics.median(change)
        worse = (sign * (base_median - change_median) / base_median
                 if base_median else math.nan)
        metrics[name] = {
            "base_median": base_median,
            "change_median": change_median,
            "base_iqr": iqr(base),
            "change_won": sum(sign * (c - b) > 0
                              for b, c in zip(base, change)),
            "change_worse": worse,
            "beyond_bound": worse > metric["bound"]}
    sides = {side: {key: sum(pair[i][key] for pair in pairs)
                    for key in ("failed", "attempted")}
             for i, side in enumerate(("base", "change"))}
    return {"pairs": len(pairs), "metrics": metrics, **sides}


def report(workload: str, summary: dict) -> str:
    n = summary["pairs"]
    lines = [f"== {workload}: {n} pairs",
             f"{'metric':<14}{'base':>12}{'change':>12}{'base IQR':>18}"
             f"{'change won':>12}{'worse by':>10}"]
    for name, m in summary["metrics"].items():
        base = m["base_median"]
        share = f"({m['base_iqr'] / base:.0%})" if base else ""
        lines.append(f"{name:<14}{base:>12.4g}{m['change_median']:>12.4g}"
                     f"{m['base_iqr']:>11.3g} {share:>6}"
                     f"{m['change_won']:>9}/{n}{m['change_worse']:>+10.1%}"
                     + ("  beyond bound" if m["beyond_bound"] else ""))
    lines.append("failed operations: " + ", ".join(
        f"{side} {summary[side]['failed']} of {summary[side]['attempted']}"
        for side in ("base", "change")))
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("n", type=int, help="runs per side and workload")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]],
                   help="repeatable; default every workload")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--base", default="HEAD", help="revision to compare with")
    args = p.parse_args(argv)
    if args.n < 1 or args.seconds < 1:
        p.error("N and --seconds must be positive")
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    print(f"base {git('rev-parse', '--short', args.base)} ({args.base}) "
          f"against the working tree of {ROOT}, {args.seconds} s per run")

    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base_tree), args.base)
        try:
            for workload in workloads:
                pairs = []
                for i in range(args.n):
                    order = ((base_tree, ROOT) if i % 2 == 0
                             else (ROOT, base_tree))
                    runs = {tree: run_once(tree, workload, args.seconds)
                            for tree in order}
                    pairs.append((runs[base_tree], runs[ROOT]))
                print(report(workload, summarize(pairs, bench["end_to_end"])),
                      flush=True)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(base_tree)], cwd=ROOT, check=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
