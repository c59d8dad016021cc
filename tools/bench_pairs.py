"""Run the benchmark in alternating pairs: a base revision against the
working tree.

    python3 tools/bench_pairs.py 10 --workload sim-sweep --seconds 20

Checks out REV (default HEAD) in a `git worktree` under a temporary
directory, removed when done. For each workload, runs `benchmarks/run.py
--seed S --trace 0` (`--seed`, default 1) N times in that checkout and N
times in the working tree, one pair at a time, alternating which side
runs first. Then prints, per end-to-end metric of BENCHMARK.json, both
sides' medians, the base side's interquartile range, how many pairs the
working tree won (a win is a strictly better value in the direction of
the metric's `better`), and how much worse the working tree's median is
than the base's, relative to it: positive is worse, and a flag marks a
metric worse by more than its `bound`. Another flag marks a metric the
pairs cannot resolve: its base IQR is larger than `bound` times the base
median, and not every run of the working tree beats every base run. Last
come each side's failed operations. It records the figures and asserts
nothing; a run that cannot run at all stops it. Before it makes the
worktree, it refuses a REV that git cannot resolve to a commit and a
seed outside 0 to 2**63 - 1, which the simulator would refuse in every
run.

With `--record PR` it then writes `BENCH_<PR>.json` at the root: the
settings (the seed among them), the base commit and the working tree's
source (read before the first run), per workload the summary and each
pair's two run records, each with its `env` block, and `memory_report`'s
figures for the working tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def commit(rev: str) -> str:
    return git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def source() -> dict:
    """The working tree the change side measures. `env.commit` names only
    HEAD, so an uncommitted change shows here as `dirty` and by its diff's
    hash."""
    return {"commit": commit("HEAD"),
            "dirty": bool(git("status", "--porcelain")),
            "diff_sha256": hashlib.sha256(git("diff", "HEAD")).hexdigest()}


def parse_run(stdout: str) -> dict:
    """One `benchmarks/run.py` run's record, read from its stdout: the
    last line, {"correct", "attempted", "failed", "metrics"}, with each
    metric reduced to its value, and the block of the `env` line."""
    lines = stdout.splitlines()
    doc = json.loads(lines[-1])
    doc["metrics"] = {name: metric["value"]
                      for name, metric in doc["metrics"].items()}
    env = next(line for line in lines if line.startswith("env "))
    doc["env"] = json.loads(env.removeprefix("env "))
    return doc


def run_once(checkout: Path, workload: str, seconds: int, seed: int) -> dict:
    """One untraced `benchmarks/run.py` run in `checkout`; its
    `parse_run` record."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        timeout=60 + 20 * seconds)
    # exit status 1 means a failed operation, which the summary counts
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{workload} in {checkout}: benchmarks/run.py "
                         f"exited with {proc.returncode}\n{proc.stderr}")
    return parse_run(proc.stdout)


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
        spread = iqr(base)
        # a spread wider than the bound hides a change of the bound's size,
        # unless the two sides do not overlap at all
        separated = (min(sign * c for c in change)
                     > max(sign * b for b in base))
        metrics[name] = {
            "base_median": base_median,
            "change_median": change_median,
            "base_iqr": spread,
            "change_won": sum(sign * (c - b) > 0
                              for b, c in zip(base, change)),
            "change_worse": worse,
            "beyond_bound": worse > metric["bound"],
            "unresolved": (spread > metric["bound"] * abs(base_median)
                           and not separated)}
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
                     + ("  beyond bound" if m["beyond_bound"] else "")
                     + ("  unresolved" if m["unresolved"] else ""))
    lines.append("failed operations: " + ", ".join(
        f"{side} {summary[side]['failed']} of {summary[side]['attempted']}"
        for side in ("base", "change")))
    return "\n".join(lines)


def memory() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import memory_report
    whole, in_control, in_steering = memory_report.measure(
        memory_report.SUBSCRIBERS, memory_report.FLOWS)
    return {"subscribers": memory_report.SUBSCRIBERS,
            "flows": memory_report.FLOWS,
            "bytes_per_subscriber": round(whole),
            "control_py_bytes": round(in_control),
            "steering_py_bytes": round(in_steering)}


def parse_args(argv, bench: dict) -> argparse.Namespace:
    """The command line, checked against `bench`, BENCHMARK.json's
    document."""
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("n", type=int, help="runs per side and workload")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]],
                   help="repeatable; default every workload")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--base", default="HEAD", help="revision to compare with")
    p.add_argument("--seed", type=int, default=1,
                   help="the workloads' seed, on both sides")
    p.add_argument("--record", type=int, metavar="PR",
                   help="write BENCH_<PR>.json")
    args = p.parse_args(argv)
    if args.n < 1 or args.seconds < 1:
        p.error("N and --seconds must be positive")
    if not 0 <= args.seed < 1 << 63:    # the range SimConfig accepts
        p.error("--seed must be from 0 to 2**63 - 1")
    try:
        args.base_commit = commit(args.base)
    except subprocess.CalledProcessError:
        p.error(f"--base {args.base!r} is no commit git can resolve")
    return args


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, bench)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    base = {"rev": args.base, "commit": args.base_commit}
    change = source()
    print(f"base {base['commit'][:7]} ({args.base}) "
          f"against the working tree of {ROOT}, {args.seconds} s per run, "
          f"seed {args.seed}")

    recorded = {}
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base_tree), args.base)
        try:
            for workload in workloads:
                pairs = []
                for i in range(args.n):
                    order = ((base_tree, ROOT) if i % 2 == 0
                             else (ROOT, base_tree))
                    runs = {tree: run_once(tree, workload, args.seconds,
                                           args.seed)
                            for tree in order}
                    pairs.append((runs[base_tree], runs[ROOT]))
                summary = summarize(pairs, bench["end_to_end"])
                print(report(workload, summary), flush=True)
                recorded[workload] = {
                    "summary": summary,
                    "runs": [{"base": b, "change": c} for b, c in pairs]}
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(base_tree)], cwd=ROOT, check=False)
    if args.record is not None:
        doc = {"pr": args.record, "seed": args.seed, "seconds": args.seconds,
               "pairs": args.n, "base": base, "change": change,
               "workloads": recorded, "memory": memory()}
        out = ROOT / f"BENCH_{args.record}.json"
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
