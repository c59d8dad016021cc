"""One workload process: set up, run the timed phase, report one JSON line.

Started by `run.py`, never by hand; see README.md. `--t0` is the parent's
`time.monotonic()` just before it started this interpreter, so `setup_s`
runs from interpreter start to the first timed operation. Every time is
scaled to the reference speed of `speed.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402

WORKLOADS = ("dataplane", "mobility", "sim-sweep")
# operations between two reference slices of the timed phase, about 20 ms
CHUNK = {"dataplane": 256, "mobility": 4}


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list, 0 < q <= 100."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def summarize(workload: str, stats: dict) -> dict:
    """The workload's end-to-end figures from its raw latencies."""
    if workload == "dataplane":
        lat = sorted(stats["latencies"])
        return {"pps": len(lat) / sum(lat) if lat else 0.0,
                "pkt_p50_us": percentile(lat, 50) * 1e6,
                "pkt_p90_us": percentile(lat, 90) * 1e6,
                "pkt_p99_us": percentile(lat, 99) * 1e6}
    ho = sorted(stats["handovers"])
    edges = sorted(stats["edges"])
    busy = sum(ho) + sum(edges)
    return {"handovers_per_s": len(ho) / busy if busy else 0.0,
            "handover_p50_ms": percentile(ho, 50) * 1e3,
            "handover_p90_ms": percentile(ho, 90) * 1e3,
            "handover_p99_ms": percentile(ho, 99) * 1e3,
            "edge_rtt_p50_us": percentile(edges, 50) * 1e6,
            "edge_rtt_p99_us": percentile(edges, 99) * 1e6}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(wl, count: int, chunk: int, request=None) -> dict:
    """`wl.run` for `count` operations, with latencies scaled to the
    reference speed: a reference slice runs between chunks of operations,
    and each chunk is scaled by the slices before and after it."""
    before = speed.slice_s()
    out: dict = {}
    done = 0
    while done < count:
        n = min(chunk, count - done)
        raw = wl.run(n, request)
        after = speed.slice_s()
        f = speed.factor((before, after))
        for key, values in raw.items():
            out.setdefault(key, []).extend(v * f for v in values)
        before = after
        done += n
    return out


def run_fabric(args, out_dir: Path, sampler: speed.Sampler) -> dict:
    """dataplane or mobility, in mode run or trace."""
    import layers
    from spans import Tracer

    wl = importlib.import_module(args.workload).Workload(args.seed)
    chunk = CHUNK[args.workload]
    result: dict = {}
    if args.mode == "run":
        wl.setup()
        t1 = time.monotonic()
        sampler.stop()
        result["setup_s"] = sampler.scaled(args.t0, t1)
        result["setup_wall_s"] = t1 - args.t0
        result["raw"] = timed(wl, args.ops, chunk)
    else:
        sampler.stop()
        tracer = Tracer()
        layers.install(tracer)
        try:
            wl.setup(tracer.request)
        finally:
            tracer.uninstall()
        plain = summarize(args.workload, timed(wl, args.ops, chunk))
        layers.install(tracer)
        try:
            traced = summarize(args.workload,
                               timed(wl, args.ops, chunk, tracer.request))
        finally:
            tracer.uninstall()
        rate = "pps" if args.workload == "dataplane" else "handovers_per_s"
        overhead = plain[rate] / traced[rate] if traced[rate] else 0.0
        result["layers"] = layers.compute(tracer, wl.table_sizes(), overhead)
        tracer.write_tsv(out_dir / f"spans-{args.workload}.tsv")
    result.update(attempted=wl.attempted, failed=len(wl.errors),
                  errors=wl.errors[:5], peak_rss_mb=peak_rss_mb())
    return result


def run_sweep(args, out_dir: Path, sampler: speed.Sampler) -> dict:
    """One `megw sim-sweep` through `cli.main`, in mode run or trace."""
    import layers
    import simsweep
    from megw import cli
    from spans import Tracer

    work = out_dir / f"sweep-{args.seed}-{args.index}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        config, out = work / "sweep.json", work / "sweep.csv"
        simsweep.write_config(config, args.seed)
        argv = simsweep.argv(config, out, args.seed)
        tracer = Tracer()
        if args.mode == "trace":
            layers.install(tracer)
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stdout):
                t0 = time.monotonic()
                if args.mode == "trace":
                    with tracer.request("run.sweep"):
                        code = cli.main(argv)
                else:
                    code = cli.main(argv)
                t1 = time.monotonic()
        finally:
            tracer.uninstall()
            sampler.stop()
        result = {"setup_s": sampler.scaled(args.t0, t0),
                  "setup_wall_s": t0 - args.t0,
                  "e2e": {"sweep_s": sampler.scaled(t0, t1),
                          "sweep_wall_s": t1 - t0}}
        errors = ([f"megw sim-sweep exited with {code}"] if code != 0
                  else simsweep.csv_problems(out))
        if args.mode == "trace":
            result["layers"] = layers.compute(tracer, {}, 0.0)
            tracer.write_tsv(out_dir / f"spans-sim-sweep-{args.index}.tsv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(attempted=1, failed=1 if errors else 0, errors=errors[:5],
                  peak_rss_mb=peak_rss_mb())
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--mode", choices=("run", "trace"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True, help="directory for spans/scratch")
    args = p.parse_args(argv)
    sampler = speed.Sampler().start()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == "sim-sweep":
        result = run_sweep(args, out_dir, sampler)
    else:
        result = run_fabric(args, out_dir, sampler)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
