"""Per-subscriber memory of one gateway, measured with tracemalloc.

Attaches SUBSCRIBERS subscribers (one bearer each) through a
`Gateway`'s processor, then opens FLOWS edge connections per subscriber
through `Gateway.handle`, which hands each flow miss to the processor
and installs its rule, as in the fabric. Every subscriber is served
locally, so each new flow is also pinned in the affinity table.
Prints the memory still allocated per subscriber: the whole, the
processor's part (allocated in `megw/control.py`) and the data plane's
(in `megw/steering.py`: the rule store and the affinity table), and
appends it to `$GITHUB_STEP_SUMMARY` when that is set. It records
the figures and sets them no bound.

    PYTHONPATH=src python tools/memory_report.py
"""

from __future__ import annotations

import gc
import os
import tracemalloc

from megw.control import TopologyView
from megw.gateway import Gateway
from megw.gtp import (Direction, GtpMessageType, build_ipv4, build_tcpish,
                      encode_gtpu, ip_int)
from megw.s1ap import BearerItem, MessageKind, S1apLiteMessage
from megw.steering import SteeringConfig

ENB, SGW, VIP = "10.1.0.1", "10.2.0.1", "10.100.1.1"
UE_BASE = ip_int("172.16.0.0")
SUBSCRIBERS, FLOWS = 10_000, 4
# where a NamedTuple's constructors run
_GENERATED = ("<string>", os.path.join("collections", "__init__.py"))


def _discard(*_) -> None:
    """A fabric's `send` and `record` that keep nothing."""


def measure(subscribers: int, flows: int) -> tuple[float, float, float]:
    """(bytes per subscriber in all, of which in the processor, of which in
    the data plane's tables)."""
    cfg = SteeringConfig(megw_id="mgw-a", vips=frozenset({VIP}),
                         region_peers=(("mgw-a", "10.50.0.1", 1.0),),
                         dips=(("10.200.0.5", 1.0), ("10.200.0.6", 1.0)),
                         local_sgw=SGW)
    enb, sgw, vip = ip_int(ENB), ip_int(SGW), ip_int(VIP)
    # two frames, so a NamedTuple counts where its module builds it
    tracemalloc.start(2)
    gw = Gateway(cfg, TopologyView({ENB: "mgw-a"}, {"mgw-a": "r1"}))
    for n in range(subscribers):
        ue = UE_BASE + 2 + n
        up, down = 0x1000 + n, 0x200000 + n
        for kind, item in (
                (MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
                 BearerItem(5, upstream_teid=up, transport_addr=sgw)),
                (MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE,
                 BearerItem(5, downstream_teid=down, transport_addr=enb))):
            gw.processor.on_control_message(S1apLiteMessage(
                kind=kind, mme_ue_id=n, enb_ue_id=n, ue_ip=ue, enb_addr=enb,
                sgw_addr=sgw, bearers=(item,)))
        for port in range(40000, 40000 + flows):
            inner = build_ipv4(ue, vip, 6, build_tcpish(6, port, 80, b"req"))
            gw.handle(encode_gtpu(enb, sgw, up, GtpMessageType.GPDU, inner),
                      Direction.FROM_RAN, _discard, _discard)
    gc.collect()
    whole = tracemalloc.get_traced_memory()[0]
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    # each module's part: what it allocated and kept, a record built by a
    # NamedTuple's generated code counted in the module that called it
    by_file: dict[str, int] = {}
    for stat in snapshot.statistics("traceback"):
        frames = [f.filename for f in reversed(stat.traceback)]
        owner = next((name for name in frames
                      if not name.endswith(_GENERATED)), frames[0])
        by_file[owner] = by_file.get(owner, 0) + stat.size

    def part(module: str) -> int:
        suffix = os.path.join("megw", module)
        return sum(size for name, size in by_file.items()
                   if name.endswith(suffix))

    if not (len(gw.processor.contexts) == subscribers
            and len(gw.rules) == len(gw.affinity) == subscribers * flows):
        raise RuntimeError("the setup left other than one context per "
                           "subscriber and one rule and pin per flow")
    return (whole / subscribers, part("control.py") / subscribers,
            part("steering.py") / subscribers)


def main() -> None:
    whole, in_control, in_steering = measure(SUBSCRIBERS, FLOWS)
    line = (f"Per-subscriber memory ({SUBSCRIBERS} subscribers x "
            f"{FLOWS} flows, tracemalloc): {whole:.0f} B in all, "
            f"{in_control:.0f} B allocated in megw/control.py, "
            f"{in_steering:.0f} B in megw/steering.py")
    print(line)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as out:
            out.write(line + "\n")


if __name__ == "__main__":
    main()
