"""In-process virtual fabric for end-to-end gateway scenarios.

Builds a topology of simulated nodes (subscribers, base stations, an
EPC stub, gateways, echo servers) connected by zero-loss in-order links,
and replays attach, edge-request, and X2 handover sequences over it.
Frames are real wire bytes; every gateway hop runs the actual steering
pipeline and control-plane processor, so traces reflect exactly what the
data plane would do. The four S1AP messages are built from one table,
`_SIGNALS`: each one's trace note, sender, bearer TEIDs and tunnel end.

A single-threaded loop delivers frames one at a time, in the order they
were sent: deterministic given (config, script, seed). A frame in flight
is its next hop, its sender and its bytes. `_deliver` is the one place a
frame arrives: a gateway's `Gateway` calls the fabric's own `_send` and
`_record` for each forward and event, in order, and any other forwarder
gets the IPv4 header read once, with an unparseable frame dropped there;
the SGW routes a transit frame by that header's `dst`. Only a stage I
hand-off goes to another address than its header's (the peer gateway,
not the VIP), and the region link rule below makes it one hop between
gateways. Routes, frames, signalling and trace details hold addresses
as ints, a `Gateway`'s forwards too, and `control.jsonl` writes them
dotted.

A frame reads no node's kind: `Harness.__init__` builds, once, a map of
each node to the direction a gateway sees its frames come from, and one
of each forwarder other than a gateway to its frame handler; a VIP's int
is read from a map built there too. The trace shows the TRACE_LIMIT
latest events before the running operation, then the operation's own;
behind it the harness cuts its one list of events only at twice that.

`build_topology` works out each topology fact once: every next hop, by
one breadth-first search per source (shortest path, ties to the first
neighbour in sorted order), and the `TopologyView` all controllers share,
whose `peers` give each gateway's `region_peers`. The gateways of one
region must share a link: a hand-off between them that went through the
EPC would reach its peer as core traffic, which is not steered.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from . import gtp, s1ap
from .control import TopologyView
from .gateway import (CLONED, DROPPED,  # noqa: F401 (re-exported)
                      MIGRATION_NOTIFIED, REACTIVATED, RULE_INSTALLED,
                      SILENCED, Gateway)
from .gtp import Direction, FiveTuple, GtpMessageType, ip_int, ip_str
from .s1ap import BearerItem, MessageKind, S1apLiteMessage
from .shape import check
from .steering import SteeringConfig


class ConfigError(ValueError):
    """Topology document fails referential integrity checks."""


class StateError(RuntimeError):
    """A scripted operation was attempted from the wrong state."""


# trace actions of the fabric's own nodes
SENT = "Sent"
RECEIVED = "Received"

TRACE_LIMIT = 4096  # trace events kept from before the running operation

# a gateway's view of a frame's direction, by the kind of node that sent it;
# any other sender is in the cluster
_INGRESS = {"enb": Direction.FROM_RAN, "sgw_mme": Direction.FROM_CORE}

# the S1AP-lite messages the fabric replays (3GPP TS 36.413): each one's
# trace note, whether the EPC stub sends it (else the eNB does), whether its
# bearer items carry the upstream and the downstream TEID, and whose address
# they give as the bearer's tunnel end: the EPC's, none, or the eNB's
_SIGNALS = {
    MessageKind.INITIAL_CONTEXT_SETUP_REQUEST: ("ics-request", True,
                                                True, False, "epc"),
    MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE: ("ics-response", False,
                                                 False, True, "enb"),
    MessageKind.PATH_SWITCH_REQUEST: ("path-switch-request", False,
                                      True, False, None),
    MessageKind.PATH_SWITCH_ACKNOWLEDGE: ("path-switch-ack", True,
                                          True, True, "enb"),
}


class TraceEvent(NamedTuple):
    step: int
    node: str
    action: str
    detail: dict


# builds a TraceEvent from its four fields without the generated __new__'s
# call: `_event(TraceEvent, (step, node, action, detail))`
_event = tuple.__new__


@dataclass
class NodeSpec:
    kind: str
    ip: int
    megw: str | None = None     # for DIPs: host gateway
    weight: float = 1.0


@dataclass
class Topology:
    nodes: dict
    view: TopologyView               # the controllers' maps, shared by all
    vips: dict                       # dotted VIP -> its int, in order
    steering_configs: dict           # megw_id -> SteeringConfig
    addr_to_node: dict               # address int -> node id
    next_hop: dict                   # (src, dst) -> neighbor
    sgw: str                         # the EPC stub's node id


# every kind of node a topology may have
_KINDS = frozenset({"sgw_mme", "megw", "enb", "dip", "ue"})

_TOPOLOGY = {"nodes?": {str: {"kind": str, "addr": str, "megw?": str,
                               "weight?": float}},
             "enb_to_megw?": {str: str}, "megw_to_region?": {str: str},
             "vips?": [str], "links?": [{"a": str, "b": str}]}


def build_topology(config: dict) -> Topology:
    """Validate a topology document and work out each routing fact once."""
    check(config, _TOPOLOGY, ConfigError, "topology")
    if not config.get("vips"):
        raise ConfigError("at least one VIP is required")
    vips = {}
    for vip in config["vips"]:
        try:
            vips[vip] = ip_int(vip)
        except gtp.EncodeError as exc:
            raise ConfigError(f"VIP {vip!r}: {exc}") from None
    nodes: dict[str, NodeSpec] = {}
    addrs: dict[int, str] = {}
    for node_id, doc in config.get("nodes", {}).items():
        if doc["kind"] not in _KINDS:
            raise ConfigError(f"node {node_id!r}: unknown kind "
                              f"{doc['kind']!r}, expected one of "
                              f"{sorted(_KINDS)}")
        try:
            ip = ip_int(doc["addr"])
        except gtp.EncodeError as exc:
            raise ConfigError(f"node {node_id!r}: {exc}") from None
        nodes[node_id] = NodeSpec(doc["kind"], ip, doc.get("megw"),
                                  float(doc.get("weight", 1.0)))
        other = (repr(addrs[ip]) if ip in addrs
                 else "a VIP" if doc["addr"] in vips else None)
        if other:
            raise ConfigError(
                f"address {doc['addr']} reused by {node_id!r} and {other}")
        addrs[ip] = node_id

    def require(node_id, kinds, context):
        if node_id not in nodes:
            raise ConfigError(f"{context}: unknown node {node_id!r}")
        if kinds is not None and nodes[node_id].kind not in kinds:
            raise ConfigError(
                f"{context}: {node_id!r} is a {nodes[node_id].kind}, "
                f"expected one of {kinds}")

    enb_to_megw = dict(config.get("enb_to_megw", {}))
    megw_to_region = dict(config.get("megw_to_region", {}))

    megws = [n for n, s in nodes.items() if s.kind == "megw"]
    for enb, megw in enb_to_megw.items():
        require(enb, {"enb"}, "enb_to_megw")
        require(megw, {"megw"}, "enb_to_megw")
    # one pass in id order: each gateway's DIPs
    dips: dict[str, list] = {m: [] for m in megws}
    for node_id, spec in sorted(nodes.items()):
        if spec.kind == "enb" and node_id not in enb_to_megw:
            raise ConfigError(f"eNB {node_id!r} has no gateway mapping")
        if spec.kind == "megw":
            if node_id not in megw_to_region:
                raise ConfigError(f"gateway {node_id!r} has no region")
        if spec.kind == "dip":
            if spec.megw is None:
                raise ConfigError(f"DIP {node_id!r} has no host gateway")
            require(spec.megw, {"megw"}, f"DIP {node_id!r}")
            dips[spec.megw].append((ip_str(spec.ip), spec.weight))
    for megw in megw_to_region:
        require(megw, {"megw"}, "megw_to_region")
    view = TopologyView({ip_str(nodes[e].ip): m
                         for e, m in enb_to_megw.items()}, megw_to_region,
                        {m: nodes[m].weight for m in megws})

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
    for region, peers in view.peers.items():
        for (a, _), (b, _) in itertools.combinations(peers, 2):
            if b not in neighbors[a]:
                raise ConfigError(f"region {region!r}: gateways {a!r} and "
                                  f"{b!r} share no link")

    sgws = [n for n, s in nodes.items() if s.kind == "sgw_mme"]
    if len(sgws) != 1:
        raise ConfigError(f"exactly one EPC stub required, found {sgws}")

    # per-gateway steering view: the view's region peers, the local DIPs
    steering_configs = {}
    for megw in megws:
        peers = tuple((m, ip_str(nodes[m].ip), w)
                      for m, w in view.peers[megw_to_region[megw]])
        try:
            steering_configs[megw] = SteeringConfig(
                megw_id=megw, vips=frozenset(vips), region_peers=peers,
                dips=tuple(dips[megw]), local_sgw=ip_str(nodes[sgws[0]].ip))
        except ValueError as exc:   # no DIP, a weight not positive
            raise ConfigError(f"gateway {megw!r}: {exc}") from None

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

    return Topology(nodes=nodes, view=view, vips=vips,
                    steering_configs=steering_configs, addr_to_node=addrs,
                    next_hop=next_hop, sgw=sgws[0])


@dataclass(slots=True)
class Bearer:
    bearer_id: int
    upstream_teid: int = 0
    downstream_teid: int = 0


@dataclass(slots=True)
class UeRecord:
    node_id: str
    ip: int
    radio_enb: str | None = None    # where the radio currently is
    route_enb: str | None = None    # where the fabric still routes to
    bearers: dict = field(default_factory=dict)
    next_port: int = 40000
    last_flow: tuple | None = None  # (FiveTuple, bearer_id)


class Harness:
    """Event-driven fabric; the public run_* methods script the timelines."""

    MAX_EVENTS = 200_000

    def __init__(self, topology: Topology, seed: int = 0):
        self.topology = topology
        # every event since the last cut; `trace` shows it from _shown on:
        # the TRACE_LIMIT events before the running operation, then its own
        self._log: list[TraceEvent] = []
        self._shown = 0
        self._step = itertools.count()
        self._queue: deque = deque()    # frames in flight, in send order
        base = (seed & 0xFF) << 16
        self._up_teids = itertools.count(0x1000 + base)
        self._down_teids = itertools.count(0x2000 + base)
        self._ue_ids = itertools.count(1 + (seed & 0xFF))
        self.megws = {m: Gateway(cfg, topology.view)
                      for m, cfg in topology.steering_configs.items()}
        self.ues = {n: UeRecord(node_id=n, ip=s.ip)
                    for n, s in topology.nodes.items() if s.kind == "ue"}
        # downstream TEID -> the subscriber and bearer a radio delivers to
        self._downlink: dict[int, tuple[UeRecord, Bearer]] = {}
        self._sgw = topology.nodes[topology.sgw]
        # per node, read once: the direction a gateway sees its frames come
        # from, and, for a forwarder other than a gateway, its frame handler
        self._ingress = {n: _INGRESS.get(s.kind, Direction.FROM_CLUSTER)
                         for n, s in topology.nodes.items()}
        self._handlers = {n: self._HANDLERS[s.kind]
                          for n, s in topology.nodes.items()
                          if s.kind in self._HANDLERS}

    # -- plumbing ------------------------------------------------------------

    @property
    def trace(self) -> list[TraceEvent]:
        """The latest events: TRACE_LIMIT from before the running operation
        (fewer if fewer happened), then the running operation's."""
        return self._log[self._shown:]

    def _record(self, node: str, action: str, detail: dict) -> None:
        self._log.append(_event(TraceEvent,
                                (next(self._step), node, action, detail)))

    def _begin(self) -> int:
        """Start a scripted operation and return where in `_log` its events
        begin. With more than twice TRACE_LIMIT events before it, all but
        the latest TRACE_LIMIT are dropped in one cut: a cut at every
        operation cost each mobility operation about 5 us. Only the
        outermost operations call it, so no operation's events are cut."""
        if len(self._log) > 2 * TRACE_LIMIT:
            del self._log[:-TRACE_LIMIT]
        start = len(self._log)
        self._shown = max(0, start - TRACE_LIMIT)
        return start

    def _send(self, from_node: str, dst_addr: int, data: bytes,
              note: str = "") -> None:
        # a subscriber's address routes to the base station it is reached by
        target = self.topology.addr_to_node.get(dst_addr)
        ue = self.ues.get(target)
        if ue is not None:
            target = ue.route_enb
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
        self._queue.append((hop, from_node, data))

    def run_until_idle(self) -> None:
        queue, deliver = self._queue, self._deliver
        popleft = queue.popleft
        events = 0
        while queue:
            events += 1
            if events > self.MAX_EVENTS:
                raise RuntimeError("event budget exhausted: routing loop?")
            node, sender, data = popleft()
            deliver(node, sender, data)

    def _deliver(self, node: str, sender: str, data: bytes) -> None:
        """The one place a frame arrives. A `Gateway` sends and records as its
        node; any other forwarder gets the IPv4 header read once."""
        gateway = self.megws.get(node)
        if gateway is not None:
            gateway.handle(data, self._ingress[sender], self._send,
                           self._record)
            return
        handler = self._handlers.get(node)
        if handler is None:
            self._record(node, DROPPED, {"reason": "not-a-forwarder"})
            return
        try:
            # a handler reads any further header before it acts
            handler(self, node, data, gtp.read_ipv4(data))
        except gtp.DecodeError:
            self._record(node, DROPPED, {"reason": "unparseable"})

    # -- other nodes ----------------------------------------------------------

    # a forwarder other than a gateway gets its frame with the IPv4 header
    # read: (node, data, (ihl, total, proto, src, dst))

    def _enb_frame(self, enb, data, header) -> None:
        ihl, total, proto, src, dst = header
        if dst != self.topology.nodes[enb].ip:
            self._record(enb, DROPPED, {"reason": "not-addressed-here",
                                        "dst": dst})
            return
        if proto == gtp.PROTO_SCTP:
            self._record(enb, RECEIVED, {"kind": "control",
                                         "bytes": total - ihl})
            return
        tunnel = gtp.read_tunnel(data, proto, ihl, total)
        if type(tunnel) is not tuple:
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
            at = gtp.tcpish_payload_at(proto, ihl)
            detail["flow_src"] = src
            detail["payload"] = inner[at:total].hex()
        except gtp.DecodeError:
            detail["payload"] = inner.hex()
        if ue.radio_enb != enb:
            # forwarding phase: relay over X2 to the new radio
            self._record(enb, SENT, {"via": "x2-forwarding",
                                     "to": ue.radio_enb, "teid": teid})
            detail["via"] = "x2-forwarding"
        self._record(ue.node_id, RECEIVED, detail)

    def _dip_frame(self, dip, data, header) -> None:
        ihl, total, proto, src, dst = header
        sport, dport = gtp.read_ports(data, ihl, total - ihl, proto)
        spec = self.topology.nodes[dip]
        if dst != spec.ip:
            self._record(dip, DROPPED, {"reason": "not-addressed-here"})
            return
        self._record(dip, RECEIVED, {"from": src, "dst_port": dport})
        at = gtp.tcpish_payload_at(proto, ihl)
        reply = gtp.build_ipv4(spec.ip, src, proto, gtp.build_tcpish(
            proto, dport, sport, data[at:total]))
        self._send(dip, src, reply, note="echo")

    def _sgw_frame(self, sgw, data, header) -> None:
        _, _, proto, src, dst = header
        if dst == self.topology.nodes[sgw].ip:
            kind = "control" if proto == gtp.PROTO_SCTP else "data"
            self._record(sgw, RECEIVED, {"kind": kind, "src": src})
            return
        # plain router behaviour for transit frames
        self._send(sgw, dst, data, note="epc-transit")

    _HANDLERS = {"enb": _enb_frame, "dip": _dip_frame, "sgw_mme": _sgw_frame}

    # -- scripted operations ---------------------------------------------------

    def _ue(self, ue_id: str) -> UeRecord:
        if ue_id not in self.ues:
            raise StateError(f"unknown subscriber {ue_id!r}")
        return self.ues[ue_id]

    def _enb(self, enb: str) -> NodeSpec:
        spec = self.topology.nodes.get(enb)
        if spec is None or spec.kind != "enb":
            raise StateError(f"unknown base station {enb!r}")
        return spec

    def _signal(self, kind: MessageKind, ue: UeRecord, ue_num: int,
                enb: str, sender: str | None = None) -> None:
        """Send S1AP-lite `kind` about `ue` at `enb`, between `enb` and the
        EPC stub, from `sender` if given; then run until idle."""
        note, from_epc, up, down, end = _SIGNALS[kind]
        spec, sgw = self.topology.nodes[enb], self._sgw
        transport = (sgw.ip if end == "epc" else spec.ip if end == "enb"
                     else 0)
        msg = S1apLiteMessage(
            kind=kind, mme_ue_id=ue_num, enb_ue_id=ue_num, ue_ip=ue.ip,
            enb_addr=spec.ip, sgw_addr=sgw.ip, bearers=tuple(
                BearerItem(b.bearer_id, b.upstream_teid if up else 0,
                           b.downstream_teid if down else 0, transport)
                for b in ue.bearers.values()))
        src, dst = (sgw, spec) if from_epc else (spec, sgw)
        self._send(sender or (self.topology.sgw if from_epc else enb), dst.ip,
                   gtp.build_ipv4(src.ip, dst.ip, gtp.PROTO_SCTP,
                                  s1ap.encode_message(msg)), note=note)
        self.run_until_idle()

    def _new_downlink(self, ue: UeRecord, bearer: Bearer) -> None:
        """Give `bearer` a fresh downstream TEID, the key radios deliver by."""
        self._downlink.pop(bearer.downstream_teid, None)
        bearer.downstream_teid = next(self._down_teids)
        self._downlink[bearer.downstream_teid] = (ue, bearer)

    def run_attach(self, ue_id: str, enb: str,
                   bearers: int | None = None) -> list:
        """Initial context setup through the gateway on the S1 path.
        Bearers are numbered from 5, so a subscriber has 1 to 11, the EPS
        bearer identities 5 to 15. `bearers` defaults to 1 on a first
        attach and to the subscriber's own bearers on a re-attach, which
        refuses any other count."""
        ue = self._ue(ue_id)
        self._enb(enb)
        if bearers is not None:
            if not 1 <= bearers <= 11:
                raise StateError(
                    f"{bearers} bearers: a subscriber has 1 to 11")
            if ue.bearers and bearers != len(ue.bearers):
                raise StateError(f"{ue_id!r} has {len(ue.bearers)} "
                                 f"bearers, not {bearers}")
        mark = self._begin()
        ue_num = next(self._ue_ids)

        if not ue.bearers:
            for i in range(1 if bearers is None else bearers):
                bid = 5 + i
                ue.bearers[bid] = Bearer(bearer_id=bid,
                                         upstream_teid=next(self._up_teids))
        self._signal(MessageKind.INITIAL_CONTEXT_SETUP_REQUEST, ue, ue_num, enb)

        for b in ue.bearers.values():
            if not b.downstream_teid:
                self._new_downlink(ue, b)
        self._signal(MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE, ue, ue_num,
                     enb)

        ue.radio_enb = enb
        ue.route_enb = enb
        return self._log[mark:]

    def run_edge_request(self, ue_id: str, vip: str | None = None,
                         payload: bytes = b"edge-request",
                         bearer_id: int | None = None,
                         dst_port: int | None = None,
                         reuse_flow: bool = False) -> list:
        """One upstream request to a VIP and whatever comes back.

        reuse_flow continues the previous connection (same source port)
        instead of opening a new one: how a connection survives handover.
        It refuses a `vip`, `bearer_id` or `dst_port` other than that
        connection's; a new one goes to `dst_port`, or 80. Nothing changes
        before the frame is built, so a refused request, the codec's
        `EncodeError` among them, leaves the subscriber as it was.
        """
        ue = self._ue(ue_id)
        vips = self.topology.vips
        vip_ip = vips.get(next(iter(vips)) if vip is None else vip)
        if vip_ip is None:
            raise StateError(f"{vip!r} is not a VIP")
        if dst_port is not None and not 0 <= dst_port <= 0xFFFF:
            raise StateError(f"dst_port {dst_port}: a port is 0 to 65535")
        if ue.radio_enb is None:
            raise StateError(f"{ue_id!r} is not attached")
        if reuse_flow and ue.last_flow is None:
            raise StateError(f"{ue_id!r} has no flow to continue")
        if bearer_id is None:
            bearer_id = (ue.last_flow[1] if reuse_flow
                         else next(iter(ue.bearers), None))
        bearer = ue.bearers.get(bearer_id)
        if bearer is None:
            raise StateError(f"{ue_id!r} has no bearer {bearer_id}")
        if reuse_flow:
            flow, flow_bearer = ue.last_flow
            if bearer_id != flow_bearer:
                raise StateError(f"{ue_id!r} continues its flow on bearer "
                                 f"{flow_bearer}, not {bearer_id}")
            if vip is not None and vip_ip != flow.dst_ip:
                raise StateError(f"{ue_id!r} continues its flow to "
                                 f"{ip_str(flow.dst_ip)}, not {vip}")
            if dst_port is not None and dst_port != flow.dst_port:
                raise StateError(f"{ue_id!r} continues its flow to port "
                                 f"{flow.dst_port}, not {dst_port}")
        elif ue.next_port > 0xFFFF:
            # no wrap: a reused 5-tuple would hit a live affinity pin
            raise StateError(f"{ue_id!r} has used every source port")
        else:
            flow = FiveTuple(ue.ip, vip_ip, 6, ue.next_port,
                             80 if dst_port is None else dst_port)
        inner = gtp.build_ipv4(ue.ip, flow.dst_ip, 6, gtp.build_tcpish(
            6, flow.src_port, flow.dst_port, payload))
        frame = gtp.encode_gtpu(
            self.topology.nodes[ue.radio_enb].ip, self._sgw.ip,
            bearer.upstream_teid, GtpMessageType.GPDU, inner)
        mark = self._begin()
        if not reuse_flow:
            ue.next_port += 1
        ue.last_flow = (flow, bearer.bearer_id)
        self._record(ue.node_id, SENT, {"vip": flow.dst_ip,
                                        "sport": flow.src_port,
                                        "bearer_id": bearer.bearer_id})
        self._send(ue.radio_enb, self._sgw.ip, frame, note="uplink")
        self.run_until_idle()
        return self._log[mark:]

    def inject_downstream(self, ue_id: str, payload: bytes = b"push") -> list:
        """Replay a server-to-subscriber packet for the last flow."""
        ue = self._ue(ue_id)
        if ue.last_flow is None:
            raise StateError(f"{ue_id!r} has no established flow")
        if self._pin(ue) is None:   # only the VIP could answer; no node has it
            raise StateError(
                f"no server node owns {ip_str(ue.last_flow[0].dst_ip)}")
        mark = self._begin()
        self._inject_downstream(ue, payload)
        return self._log[mark:]

    def _pin(self, ue: UeRecord) -> int | None:
        """The DIP pinned for the last flow in the route eNB's region, which
        only the stage I gateway there makes, or None."""
        flow, _ = ue.last_flow
        view = self.topology.view
        megw = view.megw_of(self.topology.nodes[ue.route_enb].ip)
        return next((dip for m, _ in view.peers[view.region_of(megw)]
                     if (dip := self.megws[m].affinity.get(flow)) is not None),
                    None)

    def _inject_downstream(self, ue: UeRecord, payload: bytes) -> None:
        """The downstream replay, inside whichever operation runs it: from
        the flow's pin, `_pin`, with no VIP fallback; its caller checks
        that there is one."""
        flow, _ = ue.last_flow
        src = self._pin(ue)
        data = gtp.build_ipv4(src, ue.ip, flow.proto,
                              gtp.build_tcpish(flow.proto, flow.dst_port,
                                               flow.src_port, payload))
        self._send(self.topology.addr_to_node[src], ue.ip, data,
                   note="downstream-inject")
        self.run_until_idle()

    def run_x2_handover(self, ue_id: str, old_enb: str, new_enb: str) -> list:
        """The eight-step X2 timeline, with the path-switch request cloned
        at the old gateway and the acknowledgement at the new one."""
        ue = self._ue(ue_id)
        old_spec = self._enb(old_enb)
        self._enb(new_enb)
        if ue.radio_enb != old_enb:
            raise StateError(
                f"{ue_id!r} is attached to {ue.radio_enb!r}, not {old_enb!r}")
        mark = self._begin()

        # steps 1-2: radio-side request/ack over X2, invisible to the EPC
        self._record(old_enb, SENT, {"kind": "x2-handover-request",
                                     "to": new_enb})
        self._record(new_enb, SENT, {"kind": "x2-handover-ack",
                                     "to": old_enb})
        ue.radio_enb = new_enb

        # step 3: path switch request, observed by the old-side gateway
        ue_num = next(self._ue_ids)
        self._signal(MessageKind.PATH_SWITCH_REQUEST, ue, ue_num, new_enb,
                     sender=old_enb)

        # steps 5-6: end markers close the old tunnels and start the silence
        for b in ue.bearers.values():
            self._send(self.topology.sgw, old_spec.ip, gtp.encode_gtpu(
                self._sgw.ip, old_spec.ip, b.downstream_teid,
                GtpMessageType.END_MARKER), note="end-marker")
        self.run_until_idle()

        # a probe of the silence, where the route eNB's region pinned the
        # last flow; a flow pinned only in another region has no pin here
        if ue.last_flow is not None and self._pin(ue) is not None:
            self._inject_downstream(ue, b"during-silence")

        # step 8: acknowledgement with the new tunnel pairs, via the new side
        for b in ue.bearers.values():
            self._new_downlink(ue, b)
        self._signal(MessageKind.PATH_SWITCH_ACKNOWLEDGE, ue, ue_num, new_enb)
        ue.route_enb = new_enb
        return self._log[mark:]


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
