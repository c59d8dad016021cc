"""megw benchmark: run one workload for one seed and report its metrics.

    python3 benchmarks/run.py --workload dataplane --seed 1 --seconds 15 \
        --trace 0

Prints the environment record, every metric by name with its unit, and
as its last line one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
metrics of BENCHMARK.json, with `--trace 1` its per-layer metrics. Exits
1 if any operation failed its check, 2 if the program cannot be run.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from worker import percentile, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("dataplane", "mobility", "sim-sweep")
DEADLINE_S = 175.0

# Fixed work per second of --seconds, sized so that the timed phase of a
# run of the commit that added this benchmark takes about --seconds on a
# 2-core Xeon virtual machine. The work does not shrink or grow with the
# program's speed, so table sizes, memory and per-layer counts describe
# the same operations on every commit.
FRAMES_PER_S = 15_000
CYCLES_PER_S = 200
SWEEP_SECONDS = 3.0
# dataplane and mobility run as REPEATS processes with the same seed, so
# each sets up and then performs the same sequence of operations; the
# run's percentiles are over the operations of all of them
REPEATS = 4
TRACED_SHARE = 10        # a traced run does 1/10 of the work, twice
TRACED_SWEEPS = 2

# the gated metrics, reported on every workload; README.md maps them to
# each workload's own figures
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
UNITS = {"pps": "packets/s", "pkt_p50_us": "us", "pkt_p90_us": "us",
         "pkt_p99_us": "us", "handovers_per_s": "1/s",
         "handover_p50_ms": "ms", "handover_p90_ms": "ms",
         "handover_p99_ms": "ms", "edge_rtt_p50_us": "us",
         "edge_rtt_p99_us": "us", "sweep_s": "s"}


def hash_seed(seed: int) -> int:
    """PYTHONHASHSEED of the workload processes, derived from --seed."""
    digest = hashlib.blake2b(b"megw-bench:%d" % seed, digest_size=4).digest()
    return int.from_bytes(digest, "big")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"commit": git_commit(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "python": platform.python_version(),
            "numpy": numpy_version, "seed": seed,
            "pythonhashseed": hash_seed(seed),
            "loadavg_before": list(os.getloadavg())}


class Runner:
    """Starts worker processes one at a time and collects their reports."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED=str(hash_seed(seed)))
        self.reports: list[dict] = []

    def worker(self, mode: str, ops: int = 0, index: int = 0) -> dict:
        left = DEADLINE_S - (time.monotonic() - self.started)
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", self.workload, "--mode", mode,
               "--seed", str(self.seed), "--ops", str(ops),
               "--index", str(index), "--out", str(OUT)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=self.env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, left), cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
        report = json.loads(lines[-1])
        self.reports.append(report)
        return report


def run_untraced(r: Runner, seconds: int) -> tuple[dict, dict]:
    """Returns (named figures for the log, end-to-end metrics)."""
    if r.workload == "sim-sweep":
        sweeps = max(3, round(seconds / SWEEP_SECONDS))
        for i in range(sweeps):
            r.worker("run", index=i)
        # each sweep is one operation, in its own process
        times = sorted(rep["e2e"]["sweep_s"] for rep in r.reports)
        named = {"sweep_s": statistics.median(times)}
        e2e = {"ops_per_s": len(times) / sum(times),
               "op_p50_ms": named["sweep_s"] * 1e3,
               "op_p90_ms": percentile(times, 90) * 1e3}
    else:
        per_s = FRAMES_PER_S if r.workload == "dataplane" else CYCLES_PER_S
        for _ in range(REPEATS):
            r.worker("run", ops=per_s * seconds // REPEATS)
        raws = [rep.pop("raw") for rep in r.reports]
        named = summarize(r.workload, {
            key: [t for raw in raws for t in raw[key]] for key in raws[0]})
        if r.workload == "dataplane":
            e2e = {"ops_per_s": named["pps"],
                   "op_p50_ms": named["pkt_p50_us"] / 1e3,
                   "op_p90_ms": named["pkt_p90_us"] / 1e3}
        else:
            e2e = {"ops_per_s": named["handovers_per_s"],
                   "op_p50_ms": named["handover_p50_ms"],
                   "op_p90_ms": named["handover_p90_ms"]}
    e2e["setup_s"] = statistics.median(rep["setup_s"] for rep in r.reports)
    e2e["peak_rss_mb"] = statistics.median(
        rep["peak_rss_mb"] for rep in r.reports)
    return named, e2e


def run_traced(r: Runner, seconds: int) -> dict:
    """Per-layer metrics, with trace.overhead from an untraced twin."""
    if r.workload == "sim-sweep":
        plain = [r.worker("run", index=i)["e2e"]["sweep_s"]
                 for i in range(TRACED_SWEEPS)]
        traced = [r.worker("trace", index=i) for i in range(TRACED_SWEEPS)]
        out = {name: statistics.median(rep["layers"][name] for rep in traced)
               for name, _ in layers.PER_LAYER}
        traced_s = statistics.median(rep["e2e"]["sweep_s"] for rep in traced)
        out["trace.overhead"] = traced_s / statistics.median(plain)
        return out
    per_s = FRAMES_PER_S if r.workload == "dataplane" else CYCLES_PER_S
    ops = max(1, per_s * seconds // TRACED_SHARE)
    return r.worker("trace", ops=ops)["layers"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "megw" / "__init__.py").is_file():
        print(f"error: no megw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)

    env = environment(args.seed)
    r = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics = run_traced(r, args.seconds)
        else:
            named, metrics = run_untraced(r, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError,
            ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2
    env["loadavg_after"] = list(os.getloadavg())
    attempted = sum(rep["attempted"] for rep in r.reports)
    failed = sum(rep["failed"] for rep in r.reports)
    errors = [e for rep in r.reports for e in rep["errors"]][:10]

    print("env " + json.dumps(env, sort_keys=True))
    w = args.workload
    if args.trace:
        units = dict(layers.PER_LAYER)
        for name, value in metrics.items():
            label = (f"trace.overhead.{w}" if name == "trace.overhead"
                     else f"{w} {name}")
            print(f"{label} = {value:.6g} {units[name]}")
    else:
        units = dict(END_TO_END)
        for name, value in named.items():
            print(f"{w} {name} = {value:.6g} {UNITS[name]}")
        print(f"{w} setup_s = {metrics['setup_s']:.6g} s")
        wall = statistics.median(rep["setup_wall_s"] for rep in r.reports)
        print(f"{w} setup_wall_s = {wall:.6g} s (not scaled to the "
              f"reference speed)")
        print(f"{w} peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB")
    print(f"{w} fail_ratio = {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted} operations)")
    for e in errors:
        print(f"{w} failure: {e}", file=sys.stderr)

    doc = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {name: {"value": metrics[name], "unit": units[name]}
                       for name in units}}
    (OUT / f"last-{w}.json").write_text(
        json.dumps({"env": env, "reports": r.reports, "result": doc},
                   indent=1, default=str))
    print(json.dumps(doc))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
