"""A known flow's uplink frame through the packet path, by table size.

At each size, one gateway (mgw-a, in a region of three peers weighted
1/1/2, as in the dataplane benchmark) holds one ruled flow for each of N
subscribers. One warm pass sends each subscriber's uplink G-PDU through
`steering.process_packet` once, so every pin and every stage I pick that
the path keeps is made. Then SAMPLES frames of subscribers drawn
uniformly, with replacement, are timed one call each with
`time.perf_counter_ns`; the figure is their median, the timer's own cost
included. Three quarters of the subscribers are handed off by stage I,
so the median frame is a stage I hand-off, as in the dataplane mix.

Each size runs in a process of its own, one at a time, so one size's
tables neither warm nor crowd another's. Prints one line per
size with the median ns and its ratio to the first size's, and appends
the table to `$GITHUB_STEP_SUMMARY` when that is set. Aim 3 says the
figure should not depend on table size; this records the ratio and
asserts nothing.

    PYTHONPATH=src python tools/uplink_scaling.py [--sizes 1000 10000 100000]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

from megw.gtp import (Direction, FiveTuple, GtpMessageType, build_ipv4,
                      build_tcpish, encode_gtpu, ip_int)
from megw.steering import (DipAffinityTable, Emit, FlowRule, RuleStore,
                           SteeringConfig, process_packet)

PEERS = (("mgw-a", "10.50.0.1", 1.0), ("mgw-b", "10.50.0.2", 1.0),
         ("mgw-c", "10.50.0.3", 2.0))
DIPS = (("10.200.0.1", 1.0), ("10.200.0.2", 1.0))
VIP, ENB, SGW = "10.100.1.1", "10.1.0.1", "10.2.0.1"
UE_BASE = ip_int("172.16.0.0")
SIZES = (1000, 10_000, 100_000)
SAMPLES = 200_000
SEED = 1


def measure(subscribers: int, samples: int = SAMPLES) -> dict:
    """The median ns of a known flow's uplink frame at this many
    subscribers, and what the frames were answered."""
    cfg = SteeringConfig(megw_id="mgw-a", vips=frozenset({VIP}),
                         region_peers=PEERS, dips=DIPS, local_sgw=SGW)
    rules, affinity = RuleStore(), DipAffinityTable()
    vip, enb, sgw = ip_int(VIP), ip_int(ENB), ip_int(SGW)
    frames = []
    for n in range(subscribers):
        ue = UE_BASE + 2 + n
        rules.install(FlowRule(FiveTuple(ue, vip, 6, 40000, 80),
                               0x200000 + n, enb, sgw))
        inner = build_ipv4(ue, vip, 6, build_tcpish(6, 40000, 80, b"req"))
        frames.append(encode_gtpu(enb, sgw, 0x1000 + n, GtpMessageType.GPDU,
                                  inner))
    ran = Direction.FROM_RAN
    for frame in frames:
        process_packet(frame, ran, cfg, rules, affinity)
    draw = random.Random(SEED)
    order = [frames[draw.randrange(subscribers)] for _ in range(samples)]
    clock = time.perf_counter_ns
    times, notes = [], {}
    for frame in order:
        start = clock()
        act = process_packet(frame, ran, cfg, rules, affinity)
        times.append(clock() - start)
        note = act.note if type(act) is Emit else type(act).__name__
        notes[note] = notes.get(note, 0) + 1
    return {"subscribers": subscribers, "samples": samples,
            "p50_ns": statistics.median(times), "notes": notes}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=list(SIZES),
                    help="subscriber counts, each run in a process of its "
                         "own (default: %(default)s)")
    ap.add_argument("--samples", type=int, default=SAMPLES,
                    help="timed frames per size (default: %(default)s)")
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if min(args.sizes) < 1 or args.samples < 1:
        ap.error("--sizes and --samples must be positive")
    if args.one is not None:    # a child: one size, its result as JSON
        print(json.dumps(measure(args.one, args.samples)))
        return 0
    results = []
    for size in args.sizes:
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(size),
             "--samples", str(args.samples)],
            check=True, capture_output=True, text=True).stdout
        results.append(json.loads(out.splitlines()[-1]))
    base = results[0]["p50_ns"]
    lines = [f"Known-flow uplink frame through process_packet, median of "
             f"{args.samples} uniform draws per size (ns, timer included)"]
    for r in results:
        lines.append(f"{r['subscribers']:>9} subscribers: {r['p50_ns']:7.0f}"
                     f" ns, x{r['p50_ns'] / base:.2f} of "
                     f"{results[0]['subscribers']}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as out:
            out.write("```\n" + text + "```\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
