"""Command-line front end: codec inspection, fabric scenarios, simulations.

Exit codes: 0 success, 1 usage error, 2 runtime error. Diagnostics go to
stderr; data goes to files or stdout. Seeds are always explicit flags and
are echoed into output metadata, so every run is reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import control, gtp, harness, sim
from .gtp import GtpMessageType, ip_int, ip_str
from .shape import check


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="megw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    codec = sub.add_parser("codec", help="encode/decode tunnel packets")
    codec_sub = codec.add_subparsers(dest="codec_command", required=True)
    dec = codec_sub.add_parser("decode", help="decode a hex frame")
    dec.add_argument("hex", help="hex bytes of an outer IPv4/UDP/GTP frame")
    dec.set_defaults(run=_cmd_codec_decode)
    enc = codec_sub.add_parser("encode", help="encode a JSON packet to hex")
    enc.add_argument("packet", help="JSON object or @file with packet fields")
    enc.set_defaults(run=_cmd_codec_encode)

    har = sub.add_parser("harness", help="run a named fabric scenario")
    har.add_argument("--scenario", required=True,
                     help=f"one of: {', '.join(harness.SCENARIOS)}")
    har.add_argument("--topology", help="topology JSON (default built-in)")
    har.add_argument("--trace", help="write trace JSONL here (default stdout)")
    har.add_argument("--seed", type=int, default=0)
    har.set_defaults(run=_cmd_harness)

    sim_one = sub.add_parser("sim", help="run one mobility simulation")
    sim_one.add_argument("--config", required=True, help="SimConfig JSON")
    sim_one.add_argument("--out", required=True, help="CSV output path")
    sim_one.add_argument("--seed", type=int, help="override config seed")
    sim_one.set_defaults(run=_cmd_sim)

    sweep = sub.add_parser("sim-sweep",
                           help="sweep migration rates under both policies")
    sweep.add_argument("--config", required=True, help="base SimConfig JSON")
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.add_argument("--rates", type=float, nargs="+",
                       help="population fractions moved per minute")
    sweep.add_argument("--replications", type=int)
    sweep.add_argument("--steps", type=int)
    sweep.add_argument("--seed", type=int, help="override config seed")
    sweep.set_defaults(run=_cmd_sim_sweep)
    return parser


def _load_json(arg: str):
    if arg.startswith("@"):
        return json.loads(Path(arg[1:]).read_text())
    return json.loads(arg)


def _cmd_codec_decode(args) -> int:
    try:
        data = bytes.fromhex(args.hex.replace(" ", "").replace(":", ""))
    except ValueError as exc:
        raise gtp.DecodeError(f"bad hex input: {exc}") from None
    pkt = gtp.decode_gtpu(data)
    name = ("EndMarker" if pkt.message_type is GtpMessageType.END_MARKER
            else "GPdu")
    print(f"message_type={name}")
    print(f"teid={pkt.teid:#010x}")
    print(f"outer_src={ip_str(pkt.outer_src)}")
    print(f"outer_dst={ip_str(pkt.outer_dst)}")
    print(f"inner_len={len(pkt.inner)}")
    if pkt.message_type is GtpMessageType.GPDU and pkt.inner:
        try:
            ft = gtp.inner_five_tuple(pkt.inner)
        except gtp.DecodeError:
            pass
        else:
            print(f"inner_flow={ip_str(ft.src_ip)}:{ft.src_port} -> "
                  f"{ip_str(ft.dst_ip)}:{ft.dst_port} proto={ft.proto}")
    return 0


_MESSAGE_TYPES = {"gpdu": GtpMessageType.GPDU,
                  "end-marker": GtpMessageType.END_MARKER}
_PACKET = {"message_type": str, "outer_src": str, "outer_dst": str,
           "teid": (int, str), "inner_hex?": str}


def _cmd_codec_encode(args) -> int:
    doc = _load_json(args.packet)
    check(doc, _PACKET, gtp.EncodeError, "packet")
    teid = doc["teid"]
    if doc["message_type"] not in _MESSAGE_TYPES:
        raise gtp.EncodeError(f"message_type must be one of "
                              f"{', '.join(_MESSAGE_TYPES)}, not "
                              f"{doc['message_type']!r}")
    wire = gtp.encode_gtpu(
        outer_src=ip_int(doc["outer_src"]), outer_dst=ip_int(doc["outer_dst"]),
        teid=int(teid, 0) if isinstance(teid, str) else teid,
        message_type=_MESSAGE_TYPES[doc["message_type"]],
        inner=bytes.fromhex(doc.get("inner_hex", "")))
    print(wire.hex())
    return 0


def _cmd_harness(args) -> int:
    config = None
    if args.topology:
        config = json.loads(Path(args.topology).read_text())
    h = harness.run_scenario(args.scenario, config=config, seed=args.seed)
    out = control.jsonl(h.trace) + "\n"
    if args.trace:
        Path(args.trace).write_text(out)
        print(f"wrote {len(h.trace)} trace events to {args.trace}",
              file=sys.stderr)
    else:
        sys.stdout.write(out)
    return 0


def _sidecar(out_path: str) -> Path:
    return Path(out_path).with_suffix(".meta.json")


def _sim_config(args) -> dict:
    """The config file's JSON object, its seed overridden by --seed."""
    doc = json.loads(Path(args.config).read_text())
    check(doc, {}, sim.ConfigError, "config")
    if args.seed is not None:
        doc["seed"] = args.seed
    return doc


def _cmd_sim(args) -> int:
    cfg = sim.SimConfig.from_dict(_sim_config(args))
    series = sim.replay(cfg, np.random.default_rng([cfg.seed, 0x515]))[
        cfg.policy]
    rate = cfg.migration_rate / cfg.population
    rows = sim.csv_rows(cfg.policy, rate, 0, series)
    sim.write_rows_csv(args.out, rows)
    meta = {**vars(cfg), "policy": cfg.policy.value,
            "capacities": list(cfg.capacities), "population": cfg.population,
            "grid_cells": len(sim.build_grid(cfg).cells)}
    sim.write_metadata(_sidecar(args.out), meta)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def _cmd_sim_sweep(args) -> int:
    doc = _sim_config(args)

    def pick(key, flag, default=None):
        value = doc.pop(key, default)  # leaves the config even when flagged
        return value if flag is None else flag

    rates = pick("rates", args.rates, [0.01, 0.02, 0.05, 0.10, 0.20])
    replications = pick("replications", args.replications, 20)
    steps = pick("steps", args.steps)
    doc["migration_rate"] = 0  # the rate axis drives movement in a sweep
    base = sim.SimConfig.from_dict(doc)
    result = sim.run_experiment(base, rates, replications=replications,
                                steps=steps)
    sim.write_rows_csv(args.out, result.rows)
    sim.write_metadata(_sidecar(args.out), result.metadata)
    print(f"wrote {len(result.rows)} rows to {args.out}", file=sys.stderr)
    for rate in rates:
        w = result.mean_cumulative(sim.Policy.WITH_REGIONS, rate)
        wo = result.mean_cumulative(sim.Policy.WITHOUT_REGIONS, rate)
        ratio = w / wo if wo else float("nan")
        print(f"rate={rate:g} mean_cumulative_with={w:.1f} "
              f"mean_cumulative_without={wo:.1f} ratio={ratio:.3f}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.run(args)
    except (OSError, KeyError, ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
