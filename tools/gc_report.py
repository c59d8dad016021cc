"""Where the cyclic garbage collector runs in the mobility workload.

Builds `benchmarks/mobility.py`'s workload (seed 1, its default sizes),
runs its setup, then 500 handover cycles through `benchmarks/worker.py`'s
`timed`, in its chunks of 4 with a reference slice between chunks, as one
benchmark worker runs them. Prints, for the setup and for the timed
window apart, the collections of each generation and the milliseconds
they took (timed by a `gc.callbacks` hook), and the objects the
collector tracks after setup, by type, the most numerous first. Appends
the report to `$GITHUB_STEP_SUMMARY` when that is set. It asserts
nothing: where the process's first full collection falls moves with any
change in allocation counts, and this shows where it fell.

    PYTHONPATH=src python tools/gc_report.py [--cycles N] [--subscribers N]
"""

from __future__ import annotations

import argparse
import collections
import gc
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import mobility  # noqa: E402
import worker  # noqa: E402

PHASES = ("setup", "window")
SEED = 1


def measure(seed: int = SEED, cycles: int = 500,
            sizes: mobility.Sizes = mobility.Sizes()) -> dict:
    """Per phase, the collections and milliseconds of each generation, and
    the window's operations; the tracked objects after setup by type."""
    gens = range(len(gc.get_count()))
    out = {phase: {"collections": [0 for _ in gens],
                   "ms": [0.0 for _ in gens]} for phase in PHASES}
    phase, started = "setup", 0.0

    def hook(event, info):
        nonlocal started
        if event == "start":
            started = time.perf_counter()
            return
        stats = out[phase]
        stats["collections"][info["generation"]] += 1
        stats["ms"][info["generation"]] += (time.perf_counter()
                                            - started) * 1e3

    gc.callbacks.append(hook)
    try:
        wl = mobility.Workload(seed, sizes)
        wl.setup()
        tracked = collections.Counter(type(o).__name__
                                      for o in gc.get_objects())
        phase = "window"
        attempted, failed = wl.attempted, len(wl.errors)
        t0 = time.perf_counter()
        worker.timed(wl, cycles, worker.CHUNK["mobility"])
        out["window"]["wall_ms"] = (time.perf_counter() - t0) * 1e3
    finally:
        gc.callbacks.remove(hook)
    out["window"].update(attempted=wl.attempted - attempted,
                         failed=len(wl.errors) - failed)
    out["tracked"] = dict(tracked.most_common())
    return out


def report(stats: dict, seed: int, cycles: int, sizes: mobility.Sizes,
           top: int = 8) -> str:
    lines = [f"GC in the mobility workload: seed {seed}, "
             f"{sizes.subscribers} subscribers, setup then {cycles} cycles "
             f"in chunks of {worker.CHUNK['mobility']}"]
    for phase in PHASES:
        s = stats[phase]
        lines.append(f"{phase:<7}" + "".join(
            f"  gen{g} {n:>4} in {ms:7.2f} ms"
            for g, (n, ms) in enumerate(zip(s["collections"], s["ms"]))))
    w = stats["window"]
    lines.append(f"window: {w['wall_ms']:.0f} ms wall, {w['attempted']} "
                 f"operations attempted, {w['failed']} failed")
    tracked = stats["tracked"]
    lines.append(f"tracked after setup: {sum(tracked.values())} objects; "
                 + ", ".join(f"{name} {n}" for name, n in
                             list(tracked.items())[:top]))
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--cycles", type=int, default=500)
    p.add_argument("--subscribers", type=int,
                   default=mobility.Sizes().subscribers)
    args = p.parse_args(argv)
    if args.cycles < 1 or args.subscribers < 1:
        p.error("--cycles and --subscribers must be positive")
    sizes = mobility.Sizes(subscribers=args.subscribers)
    text = report(measure(SEED, args.cycles, sizes), SEED, args.cycles,
                  sizes)
    print(text)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as out:
            out.write("```\n" + text + "\n```\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
