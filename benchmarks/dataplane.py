"""`dataplane` workload: one gateway's packet path at a fixed traffic mix.

One gateway (mgw-a) in a region of three peers weighted 1/1/2, with four
weighted DIPs behind two VIPs. Subscribers attach during setup with real
S1AP-lite frames through `process_packet` and each opens several flows.
The timed phase is a closed loop with one caller: each frame goes through
`steering.process_packet`, and the local controller's effects for that
frame are applied before the next frame starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

import wire
from megw import control, s1ap, steering
from megw.gtp import Direction
from megw.steering import (CloneToController, DipAffinityTable, Drop, Emit,
                           FlowMiss, Multiple, RuleStore, S1apClone,
                           SteeringConfig)

GATEWAY = "mgw-a"
PEERS = (("mgw-a", "10.50.0.1", 1.0), ("mgw-b", "10.50.0.2", 1.0),
         ("mgw-c", "10.50.0.3", 2.0))
DIPS = (("10.200.0.1", 1.0), ("10.200.0.2", 1.0), ("10.200.0.3", 2.0),
        ("10.200.0.4", 4.0))
VIPS = ("10.100.1.1", "10.100.1.2")
SGW = "10.2.0.1"
ENBS = tuple(f"10.1.0.{i}" for i in range(1, 9))
# inner IPv4 packet sizes of a simple IMIX, 7:4:1
IMIX = (64,) * 7 + (576,) * 4 + (1400,)
# frame kinds of the timed phase and their weights (percent)
MIX = (("upstream", 60), ("return", 20), ("handoff", 8), ("non-vip", 10),
       ("new-flow", 2))
ICS_REQUEST, ICS_RESPONSE = 1, 2
BODIES = {size: bytes(range(256)) * (size // 256) + bytes(size % 256)
          for size in {n - 24 for n in IMIX} | {40}}


@dataclass(frozen=True)
class Sizes:
    subscribers: int = 2000
    flows_per_ue: int = 8
    remote_flows: int = 2000


@dataclass
class Ue:
    ip: str
    enb: str
    bearers: list            # (bearer_id, upstream_teid, downstream_teid)
    next_port: int = 50000


@dataclass(frozen=True)
class Flow:
    """An inner connection, upstream-oriented; `bearer` indexes Ue.bearers."""

    ue: int
    src: str
    vip: str
    proto: int
    sport: int
    dport: int
    bearer: int


class WorkloadError(RuntimeError):
    """The controller produced an effect this workload never expects."""


class Gateway:
    """process_packet plus its local controller, as one unit of work."""

    def __init__(self):
        self.cfg = SteeringConfig(megw_id=GATEWAY, vips=frozenset(VIPS),
                                  region_peers=PEERS, dips=DIPS,
                                  local_sgw=SGW)
        self.rules = RuleStore()
        self.affinity = DipAffinityTable()
        topo = control.TopologyView(
            enb_to_megw={e: GATEWAY for e in ENBS},
            megw_to_region={p[0]: "r1" for p in PEERS})
        self.processor = control.S1apProcessor(GATEWAY, topo)

    def handle(self, frame: bytes, ingress: Direction) -> list:
        """Forwarding actions for one frame, flattened, after the
        controller has applied whatever the frame's clones caused."""
        action = steering.process_packet(frame, ingress, self.cfg,
                                         self.rules, self.affinity)
        out: list = []
        self._apply(action, out)
        return out

    def _apply(self, action, out: list) -> None:
        if isinstance(action, Multiple):
            for sub in action.actions:
                self._apply(sub, out)
            return
        out.append(action)
        if isinstance(action, CloneToController):
            event = action.event
            if isinstance(event, S1apClone):
                msg = s1ap.decode_message(event.payload)
                effects = self.processor.on_control_message(msg)
            elif isinstance(event, FlowMiss):
                effects = self.processor.on_flow_miss(event.five_tuple,
                                                      event.upstream_teid)
            else:
                raise WorkloadError(f"unexpected controller event {event}")
            for eff in effects:
                if not isinstance(eff, control.InstallRule):
                    raise WorkloadError(f"unexpected effect {eff}")
                self.rules.install(eff.rule)

    def table_sizes(self) -> dict:
        return {"rules": len(self.rules), "affinity": len(self.affinity),
                "contexts": len(self.processor.contexts),
                "log": len(self.processor.log), "trace_events": 0}


@dataclass
class Check:
    """What the oracle needs to know about one frame it did not see built."""

    kind: str
    flow: Flow | None = None
    frame: bytes = b""
    inner: bytes = b""


@dataclass
class Oracle:
    """Checks forwarding actions against the frames' intent.

    It never recomputes a hash: a flow's first destination is recorded
    and every later frame of the flow must go to the same place, which
    must be one of this gateway's DIPs or a region peer's address.
    """

    subscribers: list
    first_dst: dict = field(default_factory=dict)
    pool: frozenset = frozenset(d for d, _ in DIPS)
    peers: frozenset = frozenset(a for g, a, _ in PEERS if g != GATEWAY)

    def check(self, c: Check, out: list) -> str | None:
        emits = [a for a in out if isinstance(a, Emit)]
        clones = [a for a in out if isinstance(a, CloneToController)]
        drops = [a for a in out if isinstance(a, Drop)]
        if drops or len(emits) != 1:
            return f"{c.kind}: expected one emit, got {out}"
        emit = emits[0]
        want_clones = 1 if c.kind in ("attach", "new-flow") else 0
        if len(clones) != want_clones:
            return f"{c.kind}: {len(clones)} controller clones"
        if c.kind in ("attach", "non-vip"):
            dst = wire.dotted(c.frame[16:20])
            if emit.dst != dst or emit.data != c.frame:
                return f"{c.kind}: not routed unchanged toward {dst}"
            return None
        if c.kind == "return":
            return self._check_return(c.flow, emit, c.inner)
        # a hand-off arrival was already steered by stage I at its peer
        return self._check_steered(c.flow, emit, c.inner,
                                   may_hand_off=c.kind != "handoff")

    def _check_steered(self, flow: Flow, emit: Emit, inner: bytes,
                       may_hand_off: bool):
        key = (flow.src, flow.vip, flow.proto, flow.sport, flow.dport)
        first = self.first_dst.setdefault(key, emit.dst)
        if emit.dst != first:
            return f"flow {key} moved from {first} to {emit.dst}"
        if may_hand_off and emit.dst in self.peers:
            if emit.data != inner:
                return f"hand-off of {key} altered the packet"
            return None
        if emit.dst not in self.pool:
            return f"flow {key} sent to {emit.dst}, outside pool and peers"
        try:
            got = wire.parse_inner(emit.data)
        except wire.WireError as exc:
            return f"rewritten packet of {key}: {exc}"
        if (got.dst, got.src, got.sport, got.dport) != (
                emit.dst, flow.src, flow.sport, flow.dport) \
                or emit.data[20:] != inner[20:]:
            return f"flow {key} not rewritten to {emit.dst}"
        return None

    def _check_return(self, flow: Flow, emit: Emit, inner: bytes):
        ue = self.subscribers[flow.ue]
        _, _, down = ue.bearers[flow.bearer]
        if emit.dst != ue.enb:
            return f"return for {flow.src} sent to {emit.dst}, not {ue.enb}"
        try:
            tun = wire.parse_gtpu(emit.data)
            got = wire.parse_inner(tun.inner)
        except wire.WireError as exc:
            return f"return for {flow.src}: {exc}"
        if tun.teid != down:
            return f"return TEID {tun.teid:#x}, bearer has {down:#x}"
        if tun.outer_dst != ue.enb or tun.msg_type != wire.GPDU:
            return f"return tunnel to {tun.outer_dst}, not {ue.enb}"
        if (got.src, got.dst, got.sport, got.dport) != (
                flow.vip, flow.src, flow.dport, flow.sport) \
                or got.body != inner[24:]:
            return f"return for {flow.src} not restored to {flow.vip}"
        return None

    def local_flows(self, flows) -> list[tuple[Flow, str]]:
        """Flows this gateway serves itself, with their pinned DIP."""
        out = []
        for f in flows:
            dst = self.first_dst.get(
                (f.src, f.vip, f.proto, f.sport, f.dport))
            if dst in self.pool:
                out.append((f, dst))
        return out


def _ue_ip(i: int) -> str:
    return f"172.16.{i // 250}.{i % 250 + 2}"


class Workload:
    """Setup and timed phase of `dataplane`; see the module docstring."""

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        self.rng = random.Random(seed)
        self.sizes = sizes
        self.gw = Gateway()
        self.subscribers: list[Ue] = []
        self.flows: list[Flow] = []
        self.remote: list[Flow] = []
        self.oracle = Oracle(self.subscribers)
        self.attempted = 0
        self.errors: list[str] = []
        self._kinds = [k for k, _ in MIX]
        self._weights = [w for _, w in MIX]
        self._returns: list[tuple[Flow, str]] = []

    # -- frames -------------------------------------------------------------

    def _upstream(self, flow: Flow, size: int) -> tuple:
        ue = self.subscribers[flow.ue]
        inner = wire.ipv4(flow.src, flow.vip, flow.proto,
                          wire.transport(flow.sport, flow.dport,
                                         BODIES[size - 24]))
        _, up, _ = ue.bearers[flow.bearer]
        return wire.gtpu(ue.enb, SGW, up, inner), inner

    def _frame(self, kind: str) -> tuple:
        rng = self.rng
        size = rng.choice(IMIX)
        if kind == "upstream" or kind == "new-flow":
            if kind == "upstream":
                flow = rng.choice(self.flows)
            else:
                flow = self._new_flow(rng.randrange(len(self.subscribers)))
            frame, inner = self._upstream(flow, size)
            return frame, Direction.FROM_RAN, Check(kind, flow, frame, inner)
        if kind == "return":
            flow, dip = rng.choice(self._returns)
            inner = wire.ipv4(dip, flow.src, flow.proto,
                              wire.transport(flow.dport, flow.sport,
                                             BODIES[size - 24]))
            return inner, Direction.FROM_CLUSTER, Check(kind, flow,
                                                        inner, inner)
        if kind == "handoff":
            flow = rng.choice(self.remote)
            inner = wire.ipv4(flow.src, flow.vip, flow.proto,
                              wire.transport(flow.sport, flow.dport,
                                             BODIES[size - 24]))
            return inner, Direction.FROM_CLUSTER, Check(kind, flow,
                                                        inner, inner)
        # non-VIP traffic from an attached subscriber: plain-routed
        ue = rng.choice(self.subscribers)
        dst = f"198.51.100.{rng.randrange(1, 255)}"
        inner = wire.ipv4(ue.ip, dst, wire.PROTO_TCP,
                          wire.transport(ue.next_port, 443,
                                         BODIES[size - 24]))
        frame = wire.gtpu(ue.enb, SGW, ue.bearers[0][1], inner)
        return frame, Direction.FROM_RAN, Check(kind, None, frame, inner)

    def _new_flow(self, u: int) -> Flow:
        ue = self.subscribers[u]
        rng = self.rng
        flow = Flow(u, ue.ip, rng.choice(VIPS),
                    rng.choice((wire.PROTO_TCP, wire.PROTO_UDP)),
                    ue.next_port, rng.choice((80, 443, 8080)),
                    rng.randrange(len(ue.bearers)))
        ue.next_port += 1
        return flow

    def _attach_frames(self, i: int, ue: Ue) -> list:
        req = [(b, up, 0, SGW) for b, up, _ in ue.bearers]
        resp = [(b, 0, down, ue.enb) for b, _, down in ue.bearers]
        return [
            wire.s1ap_frame(SGW, ue.enb, ICS_REQUEST, i + 1, ue.ip, ue.enb,
                            SGW, req),
            wire.s1ap_frame(ue.enb, SGW, ICS_RESPONSE, i + 1, ue.ip, ue.enb,
                            SGW, resp)]

    # -- running ------------------------------------------------------------

    def _one(self, frame: bytes, ingress: Direction, check: Check,
             request, name: str) -> float:
        """Run and check one frame; returns its latency in seconds."""
        self.attempted += 1
        try:
            if request is None:
                t0 = perf_counter()
                out = self.gw.handle(frame, ingress)
                t1 = perf_counter()
            else:
                with request(name):
                    t0 = perf_counter()
                    out = self.gw.handle(frame, ingress)
                    t1 = perf_counter()
        except Exception as exc:  # counted as a failed operation
            self.errors.append(f"{check.kind}: {type(exc).__name__}: {exc}")
            return -1.0
        problem = self.oracle.check(check, out)
        if problem is not None:
            self.errors.append(problem)
        return t1 - t0

    def setup(self, request=None) -> None:
        rng = self.rng
        for i in range(self.sizes.subscribers):
            nb = rng.choice((1, 1, 2))
            ue = Ue(_ue_ip(i), rng.choice(ENBS),
                    [(5 + b, 0x100000 + 4 * i + b, 0x200000 + 4 * i + b)
                     for b in range(nb)])
            self.subscribers.append(ue)
            req, resp = self._attach_frames(i, ue)
            self._one(req, Direction.FROM_CORE, Check("attach", frame=req),
                      request, "setup.frame")
            self._one(resp, Direction.FROM_RAN, Check("attach", frame=resp),
                      request, "setup.frame")
        for u in range(self.sizes.subscribers):
            for _ in range(self.sizes.flows_per_ue):
                flow = self._new_flow(u)
                self.flows.append(flow)
                frame, inner = self._upstream(flow, 64)
                self._one(frame, Direction.FROM_RAN,
                          Check("new-flow", flow, frame, inner),
                          request, "setup.frame")
        for r in range(self.sizes.remote_flows):
            flow = Flow(-1, f"172.20.{r // 250}.{r % 250 + 2}",
                        rng.choice(VIPS), wire.PROTO_TCP, 40000 + r % 7,
                        rng.choice((80, 443)), 0)
            self.remote.append(flow)
            inner = wire.ipv4(flow.src, flow.vip, flow.proto,
                              wire.transport(flow.sport, flow.dport,
                                             BODIES[40]))
            self._one(inner, Direction.FROM_CLUSTER,
                      Check("handoff", flow, inner, inner),
                      request, "setup.frame")
        self._returns = self.oracle.local_flows(self.flows)
        if not self._returns:
            raise WorkloadError("no flow is served by this gateway")

    def run(self, count: int, request=None) -> dict:
        """`count` frames of the mix; per-frame latencies in seconds."""
        lat: list[float] = []
        done = 0
        while done < count:
            n = min(4096, count - done)
            kinds = self.rng.choices(self._kinds, self._weights, k=n)
            batch = [self._frame(k) for k in kinds]
            for frame, ingress, check in batch:
                t = self._one(frame, ingress, check, request, "run.frame")
                if t >= 0:
                    lat.append(t)
            done += n
        return {"latencies": lat}

    def table_sizes(self) -> dict:
        return self.gw.table_sizes()
