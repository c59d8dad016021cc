"""In-process virtual fabric for end-to-end gateway scenarios.

Builds a topology of simulated nodes (subscribers, base stations, an
EPC stub, gateways, echo servers) connected by zero-loss in-order links,
and replays attach, edge-request, and X2 handover sequences over it.
Frames are real wire bytes; every gateway hop runs the actual steering
pipeline and control-plane processor, so traces reflect exactly what the
data plane would do.

A single-threaded loop delivers frames one at a time, in the order they
were sent: deterministic given (config, script, seed). Routing and the
trace use dotted addresses; frames and signalling use each node's
integer `ip`.

`build_topology` works out each topology fact once: every next hop, by
one breadth-first search per source (shortest path, ties to the first
neighbour in sorted order), and the `TopologyView` all controllers share.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, field, asdict

from . import control, gtp, s1ap, steering
from .control import (InstallRule, MigrationNotice, ReactivateUe,
                      ReleaseUeRules, S1apProcessor, SilenceUe, TopologyView)
from .gtp import Direction, GtpMessageType, ip_int, ip_str
from .s1ap import BearerItem, MessageKind, S1apLiteMessage
from .steering import (CloneToController, DipAffinityTable, Drop, Emit,
                       EndMarkerSeen, FlowMiss, Multiple, RuleStore,
                       S1apClone, SteeringConfig)


class ConfigError(ValueError):
    """Topology document fails referential integrity checks."""


class StateError(RuntimeError):
    """A scripted operation was attempted from the wrong state."""


# trace actions
SENT = "Sent"
RECEIVED = "Received"
DROPPED = "Dropped"
CLONED = "Cloned"
RULE_INSTALLED = "RuleInstalled"
SILENCED = "Silenced"
REACTIVATED = "Reactivated"
MIGRATION_NOTIFIED = "MigrationNotified"

TRACE_LIMIT = 4096  # trace events kept from before the running operation

# a gateway's view of a frame's direction, by the kind of node that sent it;
# any other sender is in the cluster
_INGRESS = {"enb": Direction.FROM_RAN, "sgw_mme": Direction.FROM_CORE}


@dataclass(frozen=True)
class TraceEvent:
    step: int
    node: str
    action: str
    detail: dict


@dataclass
class NodeSpec:
    kind: str
    addr: str
    megw: str | None = None     # for DIPs: host gateway
    weight: float = 1.0
    ip: int = field(init=False, repr=False)

    def __post_init__(self):
        self.ip = ip_int(self.addr)


@dataclass
class Topology:
    nodes: dict
    enb_to_megw: dict
    view: TopologyView               # the controllers' maps, shared by all
    vips: list
    steering_configs: dict           # megw_id -> SteeringConfig
    addr_to_node: dict
    next_hop: dict                   # (src, dst) -> neighbor


def _check_shape(config) -> None:
    """Raise ConfigError unless the document has the shape read below:
    objects and lists where they belong, names and addresses strings."""
    def need(ok, what):
        if not ok:
            raise ConfigError(f"topology: {what}")

    def strings(doc, keys):
        return isinstance(doc, dict) and all(
            isinstance(doc.get(k), str) for k in keys)

    need(isinstance(config, dict), "the document must be a JSON object")
    for key in ("enb_to_megw", "megw_to_region"):
        doc = config.get(key, {})
        need(strings(doc, doc), f"{key!r} must be an object of names")
    vips = config.get("vips", [])
    need(isinstance(vips, list) and all(isinstance(v, str) for v in vips),
         "'vips' must be a list of addresses")
    nodes = config.get("nodes", {})
    need(isinstance(nodes, dict), "'nodes' must be an object")
    for node_id, doc in nodes.items():
        need(strings(doc, ("kind", "addr"))
             and isinstance(doc.get("megw", ""), str)
             and isinstance(doc.get("weight", 1.0), (int, float)),
             f"node {node_id!r} must be an object with string 'kind' and "
             f"'addr', and a string 'megw' and a numeric 'weight' if any")
    links = config.get("links", [])
    need(isinstance(links, list), "'links' must be a list")
    for doc in links:
        need(strings(doc, ("a", "b")),
             f"link {doc!r} must be an object with string 'a' and 'b'")


def build_topology(config: dict) -> Topology:
    """Validate a topology document and work out each routing fact once."""
    _check_shape(config)
    nodes: dict[str, NodeSpec] = {}
    addrs: dict[str, str] = {}
    for node_id, doc in config.get("nodes", {}).items():
        spec = nodes[node_id] = NodeSpec(
            kind=doc["kind"], addr=doc["addr"], megw=doc.get("megw"),
            weight=float(doc.get("weight", 1.0)))
        if spec.addr in addrs:
            raise ConfigError(
                f"address {spec.addr} reused by {node_id!r} and "
                f"{addrs[spec.addr]!r}")
        addrs[spec.addr] = node_id

    def require(node_id, kinds, context):
        if node_id not in nodes:
            raise ConfigError(f"{context}: unknown node {node_id!r}")
        if kinds is not None and nodes[node_id].kind not in kinds:
            raise ConfigError(
                f"{context}: {node_id!r} is a {nodes[node_id].kind}, "
                f"expected one of {kinds}")

    enb_to_megw = dict(config.get("enb_to_megw", {}))
    megw_to_region = dict(config.get("megw_to_region", {}))
    vips = list(config.get("vips", []))
    if not vips:
        raise ConfigError("at least one VIP is required")

    megws = [n for n, s in nodes.items() if s.kind == "megw"]
    for enb, megw in enb_to_megw.items():
        require(enb, {"enb"}, "enb_to_megw")
        require(megw, {"megw"}, "enb_to_megw")
    # one pass in id order: each region's gateways and each gateway's DIPs
    regions: dict[str, list] = {}
    dips: dict[str, list] = {m: [] for m in megws}
    for node_id, spec in sorted(nodes.items()):
        if spec.kind == "enb" and node_id not in enb_to_megw:
            raise ConfigError(f"eNB {node_id!r} has no gateway mapping")
        if spec.kind == "megw":
            if node_id not in megw_to_region:
                raise ConfigError(f"gateway {node_id!r} has no region")
            regions.setdefault(megw_to_region[node_id], []).append(node_id)
        if spec.kind == "dip":
            if spec.megw is None:
                raise ConfigError(f"DIP {node_id!r} has no host gateway")
            require(spec.megw, {"megw"}, f"DIP {node_id!r}")
            dips[spec.megw].append((spec.addr, spec.weight))
    for megw in megw_to_region:
        require(megw, {"megw"}, "megw_to_region")

    neighbors: dict[str, list] = {n: [] for n in nodes}
    for doc in config.get("links", []):
        a, b = doc["a"], doc["b"]
        require(a, None, "link")
        require(b, None, "link")
        if "latency" in doc:
            raise ConfigError(f"link {a!r}-{b!r}: links carry no latency")
        neighbors[a].append(b)
        neighbors[b].append(a)
    neighbors = {n: sorted(set(peers)) for n, peers in neighbors.items()}

    sgws = [n for n, s in nodes.items() if s.kind == "sgw_mme"]
    if len(sgws) != 1:
        raise ConfigError(f"exactly one EPC stub required, found {sgws}")
    local_sgw = nodes[sgws[0]].addr

    # per-gateway steering view: region peers share a region, DIPs are local
    steering_configs = {}
    for megw in megws:
        peers = tuple((m, nodes[m].addr, nodes[m].weight)
                      for m in regions[megw_to_region[megw]])
        steering_configs[megw] = SteeringConfig(
            megw_id=megw, vips=frozenset(vips), region_peers=peers,
            dips=tuple(dips[megw]), local_sgw=local_sgw)

    # shortest-path next hops, ties broken by sorted neighbor order: one BFS
    # per source carries each node's first hop forward from its parent
    next_hop = {}
    for src in nodes:
        first = {src: None}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in neighbors[u]:
                    if v not in first:
                        first[v] = v if u == src else first[u]
                        nxt.append(v)
            frontier = nxt
        next_hop.update(((src, d), h) for d, h in first.items() if d != src)

    view = TopologyView(enb_to_megw={nodes[e].addr: m
                                     for e, m in enb_to_megw.items()},
                        megw_to_region=megw_to_region)
    return Topology(nodes=nodes, enb_to_megw=enb_to_megw, view=view,
                    vips=vips, steering_configs=steering_configs,
                    addr_to_node=addrs, next_hop=next_hop)


@dataclass
class Bearer:
    bearer_id: int
    upstream_teid: int = 0
    downstream_teid: int = 0


@dataclass
class UeRecord:
    node_id: str
    addr: str
    ip: int
    radio_enb: str | None = None    # where the radio currently is
    route_enb: str | None = None    # where the fabric still routes to
    bearers: dict = field(default_factory=dict)
    next_port: int = 40000
    last_flow: tuple | None = None  # (FiveTuple, bearer_id)


@dataclass
class MegwState:
    config: SteeringConfig
    rules: RuleStore
    affinity: DipAffinityTable
    processor: S1apProcessor


class Harness:
    """Event-driven fabric; the public run_* methods script the timelines."""

    MAX_EVENTS = 200_000

    def __init__(self, topology: Topology, seed: int = 0):
        self.topology = topology
        self.seed = seed
        # the latest events: TRACE_LIMIT older ones plus the running operation
        self.trace: list[TraceEvent] = []
        self._step = itertools.count()
        self._queue: deque = deque()    # frames in flight, in send order
        base = (seed & 0xFF) << 16
        self._up_teids = itertools.count(0x1000 + base)
        self._down_teids = itertools.count(0x2000 + base)
        self._ue_ids = itertools.count(1 + (seed & 0xFF))
        self.megws = {
            m: MegwState(config=cfg, rules=RuleStore(),
                         affinity=DipAffinityTable(),
                         processor=S1apProcessor(m, topology.view))
            for m, cfg in topology.steering_configs.items()}
        self.ues = {n: UeRecord(node_id=n, addr=s.addr, ip=s.ip)
                    for n, s in topology.nodes.items() if s.kind == "ue"}
        # downstream TEID -> the subscriber and bearer a radio delivers to
        self._downlink: dict[int, tuple[UeRecord, Bearer]] = {}
        self._sgw_node = next(n for n, s in topology.nodes.items()
                              if s.kind == "sgw_mme")
        self._sgw = topology.nodes[self._sgw_node]

    # -- plumbing ------------------------------------------------------------

    def _record(self, node: str, action: str, detail: dict) -> None:
        self.trace.append(TraceEvent(step=next(self._step), node=node,
                                     action=action, detail=detail))

    def _begin(self) -> int:
        """Start a scripted operation: drop the oldest trace events beyond
        TRACE_LIMIT and return where this operation's events begin. Only
        the outermost operations call it, so no returned slice is cut."""
        del self.trace[:-TRACE_LIMIT]
        return len(self.trace)

    def trace_jsonl(self, events=None) -> str:
        events = self.trace if events is None else events
        return "\n".join(
            json.dumps(asdict(e), sort_keys=True, default=control._json_default)
            for e in events)

    def _resolve(self, addr: str) -> str | None:
        node = self.topology.addr_to_node.get(addr)
        ue = self.ues.get(node)
        return node if ue is None else ue.route_enb

    def _send(self, from_node: str, dst_addr: str, data: bytes,
              note: str = "") -> None:
        target = self._resolve(dst_addr)
        if target is None or target == from_node:
            self._record(from_node, DROPPED,
                         {"reason": "no-route", "dst": dst_addr})
            return
        hop = self.topology.next_hop.get((from_node, target))
        if hop is None:
            self._record(from_node, DROPPED,
                         {"reason": "unreachable", "dst": dst_addr})
            return
        self._record(from_node, SENT,
                     {"dst": dst_addr, "via": hop, "note": note,
                      "bytes": len(data)})
        self._queue.append((hop, from_node, data, dst_addr))

    def run_until_idle(self) -> None:
        events = 0
        while self._queue:
            events += 1
            if events > self.MAX_EVENTS:
                raise RuntimeError("event budget exhausted: routing loop?")
            self._deliver(*self._queue.popleft())

    def _deliver(self, node: str, sender: str, data: bytes,
                 dst_addr: str) -> None:
        kind = self.topology.nodes[node].kind
        if kind == "megw":
            self._megw_frame(node, sender, data)
        elif kind == "enb":
            self._enb_frame(node, data)
        elif kind == "dip":
            self._dip_frame(node, data)
        elif kind == "sgw_mme":
            self._sgw_frame(node, data, dst_addr)
        else:
            self._record(node, DROPPED, {"reason": "not-a-forwarder"})

    # -- gateway -------------------------------------------------------------

    def _megw_frame(self, megw: str, sender: str, data: bytes) -> None:
        state = self.megws[megw]
        ingress = _INGRESS.get(self.topology.nodes[sender].kind,
                               Direction.FROM_CLUSTER)
        self._apply_action(megw, state, steering.process_packet(
            data, ingress, state.config, state.rules, state.affinity))

    def _apply_action(self, megw: str, state: MegwState, action) -> None:
        if isinstance(action, Multiple):
            for sub in action.actions:
                self._apply_action(megw, state, sub)
        elif isinstance(action, Emit):
            self._send(megw, action.dst, action.data, note=action.note)
        elif isinstance(action, Drop):
            self._record(megw, DROPPED, {"reason": action.reason})
        elif isinstance(action, CloneToController):
            self._handle_clone(megw, state, action.event)

    def _handle_clone(self, megw: str, state: MegwState, event) -> None:
        # the controller is local: its effects land before the next frame
        if isinstance(event, S1apClone):
            try:
                msg = s1ap.decode_message(event.payload)
            except s1ap.S1apDecodeError as exc:
                self._record(megw, CLONED, {"kind": "s1ap",
                                            "error": str(exc)})
                return
            self._record(megw, CLONED, {"kind": "s1ap",
                                        "message": msg.kind.name,
                                        "ue_ip": ip_str(msg.ue_ip)})
            effects = state.processor.on_control_message(msg)
        elif isinstance(event, EndMarkerSeen):
            self._record(megw, CLONED, {"kind": "end-marker",
                                        "teid": event.teid})
            effects = state.processor.on_end_marker(event.enb_addr,
                                                    event.teid)
        elif isinstance(event, FlowMiss):
            self._record(megw, CLONED, {
                "kind": "flow-miss", "ue_ip": ip_str(event.five_tuple.src_ip),
                "upstream_teid": event.upstream_teid})
            effects = state.processor.on_flow_miss(event.five_tuple,
                                                   event.upstream_teid)
        else:
            return
        self._apply_effects(megw, state, effects)

    def _apply_effects(self, megw: str, state: MegwState, effects) -> None:
        for eff in effects:
            if isinstance(eff, InstallRule):
                state.rules.install(eff.rule)
                flow = control.dotted(eff.rule.key)
                self._record(megw, RULE_INSTALLED, {
                    "ue_ip": flow["src_ip"], "flow": flow,
                    "downstream_teid": eff.rule.downstream_teid})
            elif isinstance(eff, SilenceUe):
                n = state.rules.set_ue_silent(eff.ue_ip)
                self._record(megw, SILENCED,
                             {"ue_ip": ip_str(eff.ue_ip), "rules": n})
            elif isinstance(eff, ReactivateUe):
                n = state.rules.reactivate_ue(eff.ue_ip, dict(eff.teid_remap),
                                              eff.new_enb_addr)
                self._record(megw, REACTIVATED,
                             {"ue_ip": ip_str(eff.ue_ip), "rules": n,
                              "new_enb": ip_str(eff.new_enb_addr)})
            elif isinstance(eff, MigrationNotice):
                self._record(megw, MIGRATION_NOTIFIED,
                             {"ue_ip": ip_str(eff.ue_ip),
                              "old_mec": eff.old_mec,
                              "new_mec": eff.new_mec})
            elif isinstance(eff, ReleaseUeRules):
                # tunnel state leaves with the subscriber; the processor log
                # keeps the record, the trace vocabulary has no event for it
                state.rules.release_ue(eff.ue_ip)
            # ScenarioDetected / Orphan / NoContext stay in the processor log

    # -- other nodes ----------------------------------------------------------

    def _enb_frame(self, enb: str, data: bytes) -> None:
        try:
            ihl, total, proto, _, dst = gtp.read_ipv4(data)
        except gtp.DecodeError:
            self._record(enb, DROPPED, {"reason": "unparseable"})
            return
        if dst != self.topology.nodes[enb].ip:
            self._record(enb, DROPPED, {"reason": "not-addressed-here",
                                        "dst": ip_str(dst)})
            return
        if proto == gtp.PROTO_SCTP:
            self._record(enb, RECEIVED, {"kind": "control",
                                         "bytes": total - ihl})
            return
        tunnel = gtp.read_tunnel(data, proto, ihl, total)
        if isinstance(tunnel, gtp.DecodeError):
            self._record(enb, DROPPED, {"reason": "untunneled"})
            return
        msg_type, teid, at = tunnel
        if msg_type == gtp.MSG_TYPE_END_MARKER:
            self._record(enb, RECEIVED, {"kind": "end-marker", "teid": teid})
            return
        self._radio_deliver(enb, teid, data[at:total])

    def _radio_deliver(self, enb: str, teid: int, inner: bytes) -> None:
        hit = self._downlink.get(teid)
        if hit is None:
            self._record(enb, DROPPED, {"reason": "unknown-teid",
                                        "teid": teid})
            return
        ue, bearer = hit
        detail = {"teid": teid, "bearer_id": bearer.bearer_id}
        try:
            ihl, total, proto, src, _ = gtp.read_ipv4(inner)
            # the payload starts past TCP's and UDP's port words
            at = ihl + 4 if proto in (gtp.PROTO_TCP, gtp.PROTO_UDP) else ihl
            detail["flow_src"] = ip_str(src)
            detail["payload"] = inner[at:total].hex()
        except gtp.DecodeError:
            detail["payload"] = inner.hex()
        if ue.radio_enb != enb:
            # forwarding phase: relay over X2 to the new radio
            self._record(enb, SENT, {"via": "x2-forwarding",
                                     "to": ue.radio_enb, "teid": teid})
            detail["via"] = "x2-forwarding"
        self._record(ue.node_id, RECEIVED, detail)

    def _dip_frame(self, dip: str, data: bytes) -> None:
        spec = self.topology.nodes[dip]
        try:
            ihl, total, proto, src, dst = gtp.read_ipv4(data)
            sport, dport = gtp.read_ports(data, ihl, total - ihl, proto)
        except gtp.DecodeError:
            self._record(dip, DROPPED, {"reason": "unparseable"})
            return
        if dst != spec.ip:
            self._record(dip, DROPPED, {"reason": "not-addressed-here"})
            return
        client = ip_str(src)
        self._record(dip, RECEIVED, {"from": client, "dst_port": dport})
        at = ihl + 4 if proto in (gtp.PROTO_TCP, gtp.PROTO_UDP) else ihl
        reply = gtp.build_ipv4(spec.ip, src, proto, gtp.build_tcpish(
            proto, dport, sport, data[at:total]))
        self._send(dip, client, reply, note="echo")

    def _sgw_frame(self, sgw: str, data: bytes, dst_addr: str) -> None:
        try:
            _, _, proto, src, dst = gtp.read_ipv4(data)
        except gtp.DecodeError:
            self._record(sgw, DROPPED, {"reason": "unparseable"})
            return
        if dst == self.topology.nodes[sgw].ip:
            kind = "control" if proto == gtp.PROTO_SCTP else "data"
            self._record(sgw, RECEIVED, {"kind": kind, "src": ip_str(src)})
            return
        # plain router behaviour for transit frames
        self._send(sgw, dst_addr, data, note="epc-transit")

    # -- scripted operations ---------------------------------------------------

    def _ue(self, ue_id: str) -> UeRecord:
        if ue_id not in self.ues:
            raise StateError(f"unknown subscriber {ue_id!r}")
        return self.ues[ue_id]

    def _signal(self, kind: MessageKind, ue: UeRecord, ue_num: int,
                enb: NodeSpec, bearers, sender: str, src: NodeSpec,
                dst: NodeSpec, note: str) -> None:
        """Send S1AP-lite `kind` about `ue` at `enb`, then run until idle."""
        msg = S1apLiteMessage(kind=kind, mme_ue_id=ue_num, enb_ue_id=ue_num,
                              ue_ip=ue.ip, enb_addr=enb.ip,
                              sgw_addr=self._sgw.ip, bearers=tuple(bearers))
        self._send(sender, dst.addr, gtp.build_ipv4(
            src.ip, dst.ip, gtp.PROTO_SCTP, s1ap.encode_message(msg)),
            note=note)
        self.run_until_idle()

    def _megw_of_enb(self, enb: str) -> str:
        if enb not in self.topology.enb_to_megw:
            raise StateError(f"unknown base station {enb!r}")
        return self.topology.enb_to_megw[enb]

    def run_attach(self, ue_id: str, enb: str, bearers: int = 1) -> list:
        """Initial context setup through the gateway on the S1 path."""
        ue = self._ue(ue_id)
        self._megw_of_enb(enb)
        mark = self._begin()
        enb_spec, sgw = self.topology.nodes[enb], self._sgw
        ue_num = next(self._ue_ids)

        if not ue.bearers:
            for i in range(bearers):
                bid = 5 + i
                ue.bearers[bid] = Bearer(bearer_id=bid,
                                         upstream_teid=next(self._up_teids))
        self._signal(MessageKind.INITIAL_CONTEXT_SETUP_REQUEST, ue, ue_num,
                     enb_spec, (BearerItem(b.bearer_id,
                                           upstream_teid=b.upstream_teid,
                                           transport_addr=sgw.ip)
                                for b in ue.bearers.values()),
                     self._sgw_node, sgw, enb_spec, "ics-request")

        for b in ue.bearers.values():
            if not b.downstream_teid:
                b.downstream_teid = next(self._down_teids)
                self._downlink[b.downstream_teid] = (ue, b)
        self._signal(MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE, ue, ue_num,
                     enb_spec, (BearerItem(b.bearer_id,
                                           downstream_teid=b.downstream_teid,
                                           transport_addr=enb_spec.ip)
                                for b in ue.bearers.values()),
                     enb, enb_spec, sgw, "ics-response")

        ue.radio_enb = enb
        ue.route_enb = enb
        return self.trace[mark:]

    def run_edge_request(self, ue_id: str, vip: str | None = None,
                         payload: bytes = b"edge-request",
                         bearer_id: int | None = None,
                         dst_port: int = 80,
                         reuse_flow: bool = False) -> list:
        """One upstream request to a VIP and whatever comes back.

        reuse_flow continues the previous connection (same source port)
        instead of opening a new one: how a connection survives handover.
        """
        ue = self._ue(ue_id)
        if ue.radio_enb is None:
            raise StateError(f"{ue_id!r} is not attached")
        vip = vip or self.topology.vips[0]
        mark = self._begin()
        if reuse_flow:
            if ue.last_flow is None:
                raise StateError(f"{ue_id!r} has no flow to continue")
            prev, prev_bearer = ue.last_flow
            sport, dst_port, vip = (prev.src_port, prev.dst_port,
                                    ip_str(prev.dst_ip))
            if bearer_id is None:
                bearer_id = prev_bearer
        else:
            sport = ue.next_port
            ue.next_port += 1
        bearer = (ue.bearers[bearer_id] if bearer_id is not None
                  else next(iter(ue.bearers.values())))
        inner = gtp.build_ipv4(ue.ip, ip_int(vip), 6,
                               gtp.build_tcpish(6, sport, dst_port, payload))
        flow = gtp.inner_five_tuple(inner)
        ue.last_flow = (flow, bearer.bearer_id)
        enb = ue.radio_enb
        frame = gtp.encode_gtpu(
            self.topology.nodes[enb].ip, self._sgw.ip, bearer.upstream_teid,
            GtpMessageType.GPDU, inner)
        self._record(ue.node_id, SENT, {"vip": vip, "sport": sport,
                                        "bearer_id": bearer.bearer_id})
        self._send(enb, self._sgw.addr, frame, note="uplink")
        self.run_until_idle()
        return self.trace[mark:]

    def inject_downstream(self, ue_id: str, payload: bytes = b"push") -> list:
        """Replay a server-to-subscriber packet for the last flow."""
        ue = self._ue(ue_id)
        if ue.last_flow is None:
            raise StateError(f"{ue_id!r} has no established flow")
        mark = self._begin()
        self._inject_downstream(ue, payload)
        return self.trace[mark:]

    def _inject_downstream(self, ue: UeRecord, payload: bytes) -> None:
        """The downstream replay, inside whichever operation runs it."""
        flow, _ = ue.last_flow
        serving = self._serving_megw(ue)
        state = self.megws[serving]
        dip = state.affinity.get(flow)
        src = dip if dip is not None else flow.dst_ip
        data = gtp.build_ipv4(src, ue.ip, flow.proto,
                              gtp.build_tcpish(flow.proto, flow.dst_port,
                                               flow.src_port, payload))
        src = ip_str(src)
        dip_node = self.topology.addr_to_node.get(src)
        if dip_node is None:
            raise StateError(f"no server node owns {src}")
        self._send(dip_node, ue.addr, data, note="downstream-inject")
        self.run_until_idle()

    def _serving_megw(self, ue: UeRecord) -> str:
        source = self.topology.enb_to_megw[ue.route_enb]
        return steering.stage1_select(ue.ip,
                                      self.topology.steering_configs[source])

    def run_x2_handover(self, ue_id: str, old_enb: str, new_enb: str) -> list:
        """The eight-step X2 timeline, with the path-switch request cloned
        at the old gateway and the acknowledgement at the new one."""
        ue = self._ue(ue_id)
        self._megw_of_enb(old_enb)
        self._megw_of_enb(new_enb)
        if ue.radio_enb != old_enb:
            raise StateError(
                f"{ue_id!r} is attached to {ue.radio_enb!r}, not {old_enb!r}")
        mark = self._begin()
        nodes, sgw = self.topology.nodes, self._sgw
        old_spec, new_spec = nodes[old_enb], nodes[new_enb]

        # steps 1-2: radio-side request/ack over X2, invisible to the EPC
        self._record(old_enb, SENT, {"kind": "x2-handover-request",
                                     "to": new_enb})
        self._record(new_enb, SENT, {"kind": "x2-handover-ack",
                                     "to": old_enb})
        ue.radio_enb = new_enb

        # step 3: path switch request, observed by the old-side gateway
        ue_num = next(self._ue_ids)
        self._signal(MessageKind.PATH_SWITCH_REQUEST, ue, ue_num, new_spec,
                     (BearerItem(b.bearer_id, upstream_teid=b.upstream_teid)
                      for b in ue.bearers.values()),
                     old_enb, new_spec, sgw, "path-switch-request")

        # steps 5-6: end markers close the old tunnels and start the silence
        for b in ue.bearers.values():
            marker = gtp.encode_gtpu(
                sgw.ip, old_spec.ip, b.downstream_teid,
                GtpMessageType.END_MARKER)
            self._send(self._sgw_node, old_spec.addr, marker,
                       note="end-marker")
        self.run_until_idle()

        if ue.last_flow is not None:
            self._inject_downstream(ue, b"during-silence")

        # step 8: acknowledgement with the new tunnel pairs, via the new side
        for b in ue.bearers.values():
            del self._downlink[b.downstream_teid]
            b.downstream_teid = next(self._down_teids)
            self._downlink[b.downstream_teid] = (ue, b)
        self._signal(MessageKind.PATH_SWITCH_ACKNOWLEDGE, ue, ue_num, new_spec,
                     (BearerItem(b.bearer_id, upstream_teid=b.upstream_teid,
                                 downstream_teid=b.downstream_teid,
                                 transport_addr=new_spec.ip)
                      for b in ue.bearers.values()),
                     self._sgw_node, sgw, new_spec, "path-switch-ack")
        ue.route_enb = new_enb
        return self.trace[mark:]


# -- default topology and named scenarios -------------------------------------

def default_topology_config() -> dict:
    """Two-region map: r1 = {mgw-a, mgw-b}, r2 = {mgw-c}; covers all three
    handover geometries."""
    return {
        "vips": ["10.100.1.1"],
        "nodes": {
            "sgw": {"kind": "sgw_mme", "addr": "10.2.0.1"},
            "mgw-a": {"kind": "megw", "addr": "10.50.0.1"},
            "mgw-b": {"kind": "megw", "addr": "10.50.0.2"},
            "mgw-c": {"kind": "megw", "addr": "10.50.0.3"},
            "enb1": {"kind": "enb", "addr": "10.1.0.1"},
            "enb2": {"kind": "enb", "addr": "10.1.0.2"},
            "enb3": {"kind": "enb", "addr": "10.1.0.3"},
            "enb4": {"kind": "enb", "addr": "10.1.0.4"},
            "dip-a1": {"kind": "dip", "addr": "10.200.0.5", "megw": "mgw-a"},
            "dip-a2": {"kind": "dip", "addr": "10.200.0.6", "megw": "mgw-a"},
            "dip-b1": {"kind": "dip", "addr": "10.200.0.7", "megw": "mgw-b"},
            "dip-c1": {"kind": "dip", "addr": "10.200.0.8", "megw": "mgw-c"},
            "ue1": {"kind": "ue", "addr": "172.16.0.2"},
            "ue2": {"kind": "ue", "addr": "172.16.0.3"},
        },
        "enb_to_megw": {"enb1": "mgw-a", "enb2": "mgw-a",
                        "enb3": "mgw-b", "enb4": "mgw-c"},
        "megw_to_region": {"mgw-a": "r1", "mgw-b": "r1", "mgw-c": "r2"},
        "links": [
            {"a": "enb1", "b": "mgw-a"}, {"a": "enb2", "b": "mgw-a"},
            {"a": "enb3", "b": "mgw-b"}, {"a": "enb4", "b": "mgw-c"},
            {"a": "mgw-a", "b": "sgw"}, {"a": "mgw-b", "b": "sgw"},
            {"a": "mgw-c", "b": "sgw"},
            {"a": "mgw-a", "b": "mgw-b"},
            {"a": "dip-a1", "b": "mgw-a"}, {"a": "dip-a2", "b": "mgw-a"},
            {"a": "dip-b1", "b": "mgw-b"}, {"a": "dip-c1", "b": "mgw-c"},
        ],
    }


SCENARIOS = ("attach", "edge-request", "two-bearers",
             "x2-same-megw", "x2-same-region", "x2-cross-region")


def run_scenario(name: str, config: dict | None = None,
                 seed: int = 0) -> Harness:
    """Drive one named end-to-end scenario; the full trace is on the result."""
    if config is None:
        config = default_topology_config()
    h = Harness(build_topology(config), seed=seed)
    if name == "attach":
        h.run_attach("ue1", "enb1")
    elif name == "edge-request":
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
    elif name == "two-bearers":
        h.run_attach("ue1", "enb1", bearers=2)
        h.run_edge_request("ue1", bearer_id=5)
        h.run_edge_request("ue1", bearer_id=6)
    elif name == "x2-same-megw":
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        h.run_x2_handover("ue1", "enb1", "enb2")
        h.inject_downstream("ue1", payload=b"after-step-8")
    elif name == "x2-same-region":
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        h.run_x2_handover("ue1", "enb1", "enb3")
        h.run_edge_request("ue1", reuse_flow=True)
        h.inject_downstream("ue1", payload=b"after-step-8")
    elif name == "x2-cross-region":
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        h.run_x2_handover("ue1", "enb1", "enb4")
        # after migration the application answers the resumed connection
        # from the new region
        h.run_edge_request("ue1", reuse_flow=True)
    else:
        raise StateError(f"unknown scenario {name!r}; pick from {SCENARIOS}")
    return h
