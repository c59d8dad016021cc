"""Record one commit's benchmark figures in `BENCH_<PR>.json`.

Runs `benchmarks/run.py --trace 0` for each workload, one after another,
with the seed and seconds below, then `memory_report.measure`. Writes
`BENCH_<PR>.json` at the root of the checkout this file is in: per
workload the run's `env` block, the tree it ran on (`source`: the
commit, whether the tree differs from it, and the sha256 of `git diff
HEAD`), its end-to-end metrics and `correct`/`attempted`/`failed`, and
beside them the bytes per subscriber.
It records the figures and sets them no bound. A speed claim compares two
such files taken on the same machine, the parent's and the change's.

    python3 tools/bench_record.py 22
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dataplane", "mobility", "sim-sweep")
SEED, SECONDS = 1, 20   # BENCHMARK.json's run_seconds


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def source() -> dict:
    """The tree a run measures. `env.commit` names only HEAD, so an
    uncommitted change shows here as `dirty` and by its diff's hash."""
    return {"commit": git("rev-parse", "HEAD").decode().strip(),
            "dirty": bool(git("status", "--porcelain")),
            "diff_sha256": hashlib.sha256(git("diff", "HEAD")).hexdigest()}


def run_workload(workload: str) -> dict:
    """One `benchmarks/run.py` run; its record, read from the file the run
    leaves in `.bench_out`."""
    tree = source()
    code = subprocess.run([sys.executable, "benchmarks/run.py",
                           "--workload", workload, "--seed", str(SEED),
                           "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=20 * SECONDS).returncode
    # exit status 1 means a failed operation, which the record counts
    if code not in (0, 1):
        raise SystemExit(f"{workload}: benchmarks/run.py exited with {code}")
    last = json.loads((ROOT / ".bench_out" / f"last-{workload}.json")
                      .read_text())
    result = last["result"]
    return {"env": last["env"], "source": tree, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()}}


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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("pr", type=int, help="number in the file name")
    args = p.parse_args(argv)
    doc = {"pr": args.pr, "seed": SEED, "seconds": SECONDS,
           "workloads": {w: run_workload(w) for w in WORKLOADS},
           "memory": memory()}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
