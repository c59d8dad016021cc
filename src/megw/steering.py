"""Two-stage consistent-hash traffic steering data plane.

Stage I maps a subscriber to the gateway serving it within the region,
using weighted rendezvous (highest-random-weight) hashing, the kernel in
`megw.hrw`, so every gateway computes the same answer statelessly.
Stage II maps each edge connection to a concrete service instance (VIP
to DIP rewrite) with an affinity table that pins the choice for the life
of the connection.

The flow-rule store carries the per-connection GTP context installed by
the control plane: which downstream tunnel carries a flow's return
traffic. A subscriber in a handover silent period has its edge traffic
held in both directions, new connections included: every lookup of its
flows answers SILENT, so an upstream packet goes to the controller alone,
unsteered and unpinned, and a downstream one is dropped. The store is
grouped by subscriber, so silencing, reactivating (by a map of old to new
downstream TEIDs) or releasing one subscriber never scans others. It
holds each fact once: a tunnel is one `Tunnel` value that all flows on it
share, and a subscriber's record keeps its silence, the address int that
its new flows' keys reuse, and its stage I pick.

Neither stage hashes on the packet path once a subscriber and its flows
are known. A known flow's uplink frame reads its flow, its silence and
its serving gateway off the one record it fetches: the record keeps the
pick once the packet path first needs it, and a reactivation carries it
to the new record: like a stage II pin, it is table state, so a store is
read under one config. A subscriber's first frame here, with no record
yet, computes it with `stage1_select`, which keeps no memo. Stage II
keeps one table, each pinned flow's DIP. Return traffic from a DIP,
reversed, is a pinned flow with the DIP in the VIP's place, so it finds
its VIP by probing that table for every VIP of the config, highest
first: if two flows that differ only in the VIP land on one DIP, the
lowest VIP wins, whatever the pin, set or hash order. Tables are keyed
by integer addresses; dotted quads are only `SteeringConfig` input,
stage II's HRW candidate ids (the DIPs) and `Emit.dst`. Table probes
take any 5-tuple, so the packet path probes with plain tuples. A new
flow gets one `FiveTuple`, which its `FlowMiss` (and so its rule and the
controller's log) and its affinity pin share; it holds the rule store's
int for the subscriber and the config's for the VIP, and the pin holds
the config's for the DIP.

A frame's headers are read once: with one unpack for the common shape,
by the general readers for every other frame. Both reads lead to one
copy of each decision. Return traffic gets its VIP back in the pass that
encapsulates it.

Packet-path reads take no lock; each table's writers serialize on its
lock and publish read-copy-update style, so that a reader sees a state
before a write or after it. The precondition: a read is single dict
operations on ints or tuples of ints, whose hashing and comparison run no
Python code, and attribute reads, each atomic under the GIL. Every write
reaches readers in one step: one dict store, pop or delete, or one
attribute write. The packet path's one write to the rule store, a kept
stage I pick, is one slot store of the only value the slot can hold. The
affinity table pins a flow only after looking again under its lock.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Reversible

# classify, decode_gtpu and inner_five_tuple are unused here; they stay
# importable because benchmarks/layers.py wraps the codec under these names.
from .gtp import (GPDU_INNER_AT, MSG_TYPE_END_MARKER, PROTO_SCTP,
                  DecodeError, Direction, FiveTuple, GtpMessageType, classify,
                  decode_gtpu, encode_gtpu, inner_five_tuple, ip_int, ip_str,
                  read_gpdu, read_ipv4, read_plain, read_ports, read_tunnel,
                  rewrite_ipv4)
from .hrw import rendezvous_select, stage1_key


class ConflictError(ValueError):
    """A rule install contradicts an existing rule for the same flow."""


@dataclass(frozen=True)
class SteeringConfig:
    """One gateway's steering view.

    region_peers lists every gateway in the region (self included) with its
    fabric address and capacity weight; vips the service addresses and dips
    the local service instances behind them, all by dotted address (a DIP's
    is its stage II candidate id), each checked when the config is built.
    `vip_ints`, the packet path's VIPs in ascending order, maps each to the
    config's own int, which the keys of new flows all hold; `peer_ints`
    maps each peer's id to its address int, and `dip_ints` each DIP to the
    int its affinity pins hold; `stage1_peers` is the region's (id,
    weight) candidates, stage I's input.
    """

    megw_id: str
    vips: frozenset     # dotted strings
    region_peers: tuple[tuple[str, str, float], ...]  # (id, address, weight)
    dips: tuple[tuple[str, float], ...]               # (address, weight)
    local_sgw: str

    def __post_init__(self):
        object.__setattr__(self, "vip_ints", {
            v: v for v in sorted(ip_int(v) for v in self.vips)})
        object.__setattr__(self, "stage1_peers", tuple(
            (pid, w) for pid, _, w in self.region_peers))
        ids = [p[0] for p in self.region_peers]
        if ids.count(self.megw_id) != 1:
            raise ValueError(
                f"{self.megw_id!r} must appear exactly once in region_peers")
        if not all(0 < w < math.inf for _, _, w in self.region_peers):
            raise ValueError("region peer weights must be positive and finite")
        if not self.dips:   # stage II would have no DIP to pick
            raise ValueError("the DIP pool is empty")
        if not all(0 < w < math.inf for _, w in self.dips):
            raise ValueError("DIP weights must be positive and finite")
        object.__setattr__(self, "peer_ints", {
            pid: ip_int(addr) for pid, addr, _ in self.region_peers})
        object.__setattr__(self, "dip_ints", {
            addr: ip_int(addr) for addr, _ in self.dips})


def stage1_select(ue_ip: int, peers: tuple[tuple[str, float], ...]) -> str:
    """Serving gateway for a subscriber: HRW over the region's (id, weight)
    candidates, `SteeringConfig.stage1_peers` or `TopologyView.peers`.

    Keyed by the subscriber address alone so every gateway in the region
    agrees, and so all of one subscriber's edge state lands in one place.
    No memo: a rule record keeps its subscriber's pick (`_Subscriber.serving`).
    """
    return rendezvous_select(stage1_key(ue_ip), peers)


class FlowRule(NamedTuple):
    """Per-flow GTP context: key is the upstream-oriented 5-tuple. What
    the controller installs; the rule store keeps its tunnel part as a
    `Tunnel` shared by the flows on it."""

    key: FiveTuple
    downstream_teid: int
    enb_addr: int
    sgw_addr: int


class Tunnel(NamedTuple):
    """A bearer's downstream tunnel, where its flows' return traffic goes:
    what `RuleStore.lookup` answers for a ruled flow."""

    downstream_teid: int
    enb_addr: int
    sgw_addr: int


class _Subscriber(dict):
    """One subscriber's flows, {5-tuple: Tunnel}, its address int, `ip`,
    its silence, `silent`, and its stage I pick, `serving`: None until the
    packet path first needs it, then the gateway id that `stage1_select`
    answers under the config the store is read under. Each tunnel is
    one value that all flows on it share, which `add` alone chooses."""

    __slots__ = ("ip", "silent", "serving")

    def __init__(self, ip: int, serving: str | None = None):
        self.ip = ip
        self.silent = False
        self.serving = serving

    def add(self, key: tuple, bound: tuple) -> None:
        """Put the flow `key` on the tunnel `bound`, (TEID, eNB, SGW): the
        value of the first flow on an equal tunnel, or else a new one."""
        for tunnel in self.values():
            if tunnel == bound:
                break
        else:
            tunnel = Tunnel._make(bound)
        self[key] = tunnel


# what RuleStore.lookup answers for every flow of a silenced subscriber,
# ruled or not
SILENT = object()


class RuleStore:
    """Flow-rule table keyed ue_ip -> {5-tuple: tunnel}; each subscriber's
    record also holds its handover silence and its stage I pick.

    Packet readers (`lookup`, and `_uplink`, which reads a record as
    `lookup` does) take no lock. Writers serialize on `_lock`, and each
    reaches readers in one step, so that a reader sees the state before it
    or after it: `install` stores a flow, `set_ue_silent` sets the flag,
    `reactivate_ue` stores or deletes the record and `release_ue` pops it.
    `rules_for_ue` and `__len__` iterate records and so lock too; the
    records are the only count of rules.

    A store is read under one config: a kept stage I pick is table state,
    like an affinity pin, made by the packet path once, carried by
    `reactivate_ue` and dropped with its record, and a frame of another
    config would read it as its own.
    """

    def __init__(self):
        self._by_ue: dict[int, _Subscriber] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return sum(map(len, self._by_ue.values()))

    def lookup(self, key: tuple) -> Tunnel | object | None:
        """SILENT for every flow of a subscriber in its silent period, with
        a rule or not; otherwise the flow's tunnel or None. `key` is any
        5-tuple of ints: a plain one finds the `FiveTuple` it equals. No
        lock: it reads the record once, the flow before the flag. While a
        record is the subscriber's, its flows and flag are only added or
        set, and after, never written, so the answer is one it held."""
        flows = self._by_ue.get(key[0])
        if flows is None:
            return None
        tunnel = flows.get(key)
        return SILENT if flows.silent else tunnel

    def install(self, rule: FlowRule) -> None:
        """Install a rule; identical re-install is a no-op.

        A different tunnel binding for an existing key is a control-plane
        bug and raises ConflictError; legitimate tunnel changes go through
        reactivate_ue. A rule on a tunnel the subscriber already has shares
        that tunnel's value.
        """
        key = rule.key
        bound = rule[1:]
        with self._lock:
            flows = self._by_ue.get(key.src_ip)
            if flows is None:
                flows = self._by_ue[key.src_ip] = _Subscriber(key.src_ip)
            existing = flows.get(key)
            if existing is not None:
                if existing != bound:
                    raise ConflictError(
                        f"rule for {key} already bound to TEID "
                        f"{existing.downstream_teid:#x}")
                return
            flows.add(key, bound)

    def set_ue_silent(self, ue_ip: int) -> int:
        """Start a subscriber's silent period; returns its rule count. A
        subscriber with no rule first gets an empty record to hold it."""
        with self._lock:
            flows = self._by_ue.get(ue_ip)
            if flows is None:
                flows = self._by_ue[ue_ip] = _Subscriber(ue_ip)
            flows.silent = True
            return len(flows)

    def reactivate_ue(self, ue_ip: int, teid_remap: Mapping[int, int],
                      new_enb_addr: int) -> int:
        """End a subscriber's silent period on its new tunnels.

        teid_remap maps each flow's old downstream TEID to its new one; a
        flow whose TEID it lacks is deleted, since its bearer did not
        survive the handover. A new record gets each kept flow by `add`,
        as `install` does. Returns rules kept. One store of the new
        record, not silent, or one delete of the old when nothing is kept,
        moves the flows and ends the silence: a reader of a kept flow sees
        SILENT or its new tunnel. The new record keeps the old one's stage
        I pick.
        """
        with self._lock:
            flows = self._by_ue.get(ue_ip)
            if flows is None:
                return 0
            kept = _Subscriber(flows.ip, flows.serving)
            for key, old in flows.items():
                if old.downstream_teid in teid_remap:
                    kept.add(key, (teid_remap[old.downstream_teid],
                                   new_enb_addr, old.sgw_addr))
            if kept:
                self._by_ue[ue_ip] = kept
            else:
                del self._by_ue[ue_ip]
            return len(kept)

    def release_ue(self, ue_ip: int) -> int:
        """Drop a subscriber's rules, its address int and its silence;
        returns rules removed.

        Used when a subscriber hands over to a different gateway, whose
        old tunnel state would swallow its traffic transiting here later,
        and when a context setup ends a subscriber's tunnels or silence.
        One pop drops the flows and the silence together, so a reader of a
        silenced subscriber sees SILENT or None, never its old tunnel.
        """
        with self._lock:
            return len(self._by_ue.pop(ue_ip, ()))

    def rules_for_ue(self, ue_ip: int) -> list[FlowRule]:
        with self._lock:
            return [FlowRule(key, *tunnel) for key, tunnel
                    in self._by_ue.get(ue_ip, {}).items()]


class DipAffinityTable:
    """Connection-to-DIP mapping that never changes while the flow lives;
    stage II's one table, which the return path reads too.

    Readers (`get`, `vip_for` and a hit of `get_or_assign`) take no lock:
    each probe is one dict read keyed by a tuple of ints, atomic under the
    GIL. Pins are only added, and `get_or_assign` checks again under
    `_lock` before it pins, so each flow gets one pin. The table is the
    flat {flow: DIP} map itself; a pin holds the config's int for its DIP.
    """

    def __init__(self):
        self._table: dict[FiveTuple, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._table)

    def get(self, flow: FiveTuple) -> int | None:
        return self._table.get(flow)

    def get_or_assign(self, flow: tuple, cfg: SteeringConfig) -> int:
        """Return the pinned DIP (an integer), choosing one of `cfg.dips`
        by HRW on first sight and pinning the config's int for it,
        `cfg.dip_ints`. The pin survives any later change to the DIP pool.
        `flow` is any 5-tuple; a miss stores a `FiveTuple` as it is given,
        and any other as a new `FiveTuple`. A hit takes no lock; a miss
        looks again under it before it pins."""
        dip = self._table.get(flow)
        if dip is not None:
            return dip
        with self._lock:
            dip = self._table.get(flow)
            if dip is not None:
                return dip
            if type(flow) is not FiveTuple:
                flow = FiveTuple(*flow)
            dip = self._table[flow] = cfg.dip_ints[
                rendezvous_select(flow.key_bytes(), cfg.dips)]
            return dip

    def vip_for(self, dip_flow: tuple, vips: Reversible[int]) -> int | None:
        """The first of `vips` whose flow, `dip_flow` (any tuple) with the
        VIP in the DIP's place, is pinned to that DIP; or None. No lock:
        it probes every VIP, the last first. Pins are never removed, so
        the VIP it answers was pinned, and each earlier one was not, when
        that VIP was probed."""
        ue, dip, proto, ue_port, port = dip_flow
        found = None
        for vip in reversed(vips):
            if self._table.get((ue, vip, proto, ue_port, port)) == dip:
                found = vip
        return found


# --- forwarding actions ---------------------------------------------------
# Slotted, not frozen: a frozen dataclass sets each field through
# object.__setattr__, and every frame builds at least one of these. Not
# tuples either, whose equality ignores the type.

@dataclass(slots=True)
class Emit:
    """Send these bytes toward this address (fabric resolves the peer)."""

    dst: str
    data: bytes
    note: str = ""


@dataclass(slots=True)
class CloneToController:
    event: "ControllerEvent"


@dataclass(slots=True)
class Drop:
    reason: str = ""


@dataclass(slots=True)
class Multiple:
    actions: tuple


ForwardAction = Emit | CloneToController | Drop | Multiple


@dataclass(slots=True)
class S1apClone:
    """Cloned control-plane frame; payload is the signalling bytes."""

    payload: bytes


@dataclass(slots=True)
class EndMarkerSeen:
    """An end marker for tunnel `teid` of the eNB at `enb_addr`."""

    enb_addr: int
    teid: int


@dataclass(slots=True)
class FlowMiss:
    five_tuple: FiveTuple
    upstream_teid: int


ControllerEvent = S1apClone | EndMarkerSeen | FlowMiss

# the enum members the packet path compares with or passes, read once: an
# Enum member read through its class costs several times a global's read
_FROM_RAN, _FROM_CLUSTER = Direction.FROM_RAN, Direction.FROM_CLUSTER
_GPDU_TYPE = GtpMessageType.GPDU


def process_packet(data: bytes, ingress: Direction, cfg: SteeringConfig,
                   rules: RuleStore, affinity: DipAffinityTable) -> ForwardAction:
    """One frame through the service offloader and both load balancers.

    Pure in (data, ingress, config, table snapshots), given that the rule
    store is read under this one config, so that a stage I pick kept on a
    rule record is `stage1_select`'s answer under `cfg.stage1_peers`.
    Malformed traffic degrades to plain routing or Drop, never an exception.
    A frame of the common shape is read with one unpack (`read_gpdu` from
    the RAN, `read_plain` from the cluster), any other by the general
    readers, in place; both reach one copy of each decision (`_uplink`,
    `_handoff`, `_downstream_edge`). Only emitted bytes are made. Tables are
    probed with plain tuples; a new flow's one `FiveTuple` goes in its
    `FlowMiss` and is the key the affinity table stores."""
    if ingress is _FROM_RAN:
        gpdu = read_gpdu(data)
        if gpdu is not None:
            total, dst, teid, flow = gpdu
            return _uplink(data, GPDU_INNER_AT, total, dst, teid, flow, cfg,
                           rules, affinity)
    elif ingress is _FROM_CLUSTER:
        flow = read_plain(data)
        if flow is not None:
            if flow[1] in cfg.vip_ints:
                return _handoff(data, flow, cfg, affinity)
            return _downstream_edge(data, flow, cfg.vip_ints, rules, affinity)

    try:
        ihl, total, proto, src, dst = read_ipv4(data)
    except DecodeError:
        return Drop("unparseable frame")

    if proto == PROTO_SCTP:
        return Multiple((Emit(ip_str(dst), data, "control-passthrough"),
                         CloneToController(S1apClone(data[ihl:total]))))

    tunnel = read_tunnel(data, proto, ihl, total)
    if type(tunnel) is tuple and tunnel[0] == MSG_TYPE_END_MARKER:
        return Multiple((Emit(ip_str(dst), data, "end-marker-passthrough"),
                         CloneToController(EndMarkerSeen(dst, tunnel[1]))))

    if type(tunnel) is tuple and ingress is _FROM_RAN:
        _, teid, at = tunnel
        try:
            hl, size, proto, src, vip = read_ipv4(data, at, total)
            sport, dport = read_ports(data, at + hl, size - hl, proto)
        except DecodeError:
            return Emit(ip_str(dst), data, "ip-route")
        return _uplink(data, at, total, dst, teid,
                       (src, vip, proto, sport, dport), cfg, rules, affinity)

    # plain IP, and a G-PDU from the core or the cluster
    if dst in cfg.vip_ints:
        try:
            sport, dport = read_ports(data, ihl, total - ihl, proto)
        except DecodeError:
            return Drop("malformed VIP-bound packet")
        return _handoff(data, (src, dst, proto, sport, dport), cfg, affinity)

    if ingress is _FROM_CLUSTER:
        try:
            sport, dport = read_ports(data, ihl, total - ihl, proto)
        except DecodeError:
            return Emit(ip_str(dst), data, "ip-route")
        return _downstream_edge(data, (src, dst, proto, sport, dport),
                                cfg.vip_ints, rules, affinity)

    return Emit(ip_str(dst), data, "ip-route")


def _uplink(data: bytes, at: int, total: int, dst: int, teid: int,
            flow: tuple, cfg: SteeringConfig, rules: RuleStore,
            affinity: DipAffinityTable) -> ForwardAction:
    """An uplink G-PDU to `dst` on tunnel `teid`, whose inner packet,
    data[at:total], has the 5-tuple `flow`: steered if it is VIP-bound,
    else routed by the outer header."""
    src, vip, proto, sport, dport = flow
    if vip not in cfg.vip_ints:
        return Emit(ip_str(dst), data, "ip-route")
    # the subscriber's record, read once as `RuleStore.lookup` reads it:
    # the flow before the flag
    record = rules._by_ue.get(src)
    if record is None:
        rule = None
        serving = stage1_select(src, cfg.stage1_peers)
    else:
        rule = record.get(flow)
        if record.silent:
            # silent period: hold edge traffic, keep the controller informed
            return CloneToController(FlowMiss(FiveTuple(*flow), teid))
        serving = record.serving
        if serving is None:
            # kept in one slot store: any racing store, or one to a record
            # already replaced, writes the same answer
            serving = record.serving = stage1_select(src, cfg.stage1_peers)
    if rule is None:
        # a new flow: one key for its miss (so its rule and the log)
        # and its pin, holding the subscriber's and the VIP's kept ints
        flow = FiveTuple(src if record is None else record.ip,
                         cfg.vip_ints[vip], proto, sport, dport)
    if serving != cfg.megw_id:
        act = Emit(ip_str(cfg.peer_ints[serving]), data[at:total],
                   "stage1-handoff")
    else:
        dip = affinity.get_or_assign(flow, cfg)
        act = Emit(ip_str(dip), rewrite_ipv4(data, dst=dip, at=at,
                                             end=total), "dip-rewrite")
    if rule is None:
        return Multiple((CloneToController(FlowMiss(flow, teid)), act))
    return act


def _handoff(data: bytes, flow: tuple, cfg: SteeringConfig,
             affinity: DipAffinityTable) -> ForwardAction:
    """A plain packet to a VIP, a stage I hand-off from a source gateway,
    with the 5-tuple `flow`: to the flow's pinned DIP."""
    src, vip, proto, sport, dport = flow
    dip = affinity.get_or_assign(
        (src, cfg.vip_ints[vip], proto, sport, dport), cfg)
    return Emit(ip_str(dip), rewrite_ipv4(data, dst=dip), "dip-rewrite")


def _downstream_edge(data: bytes, flow: tuple, vips: Reversible[int],
                     rules: RuleStore,
                     affinity: DipAffinityTable) -> ForwardAction:
    """Cluster-side return traffic with the 5-tuple `flow`: undo the DIP
    rewrite if this gateway made it, then re-encapsulate into the flow's
    downstream tunnel, restoring the VIP in the same pass."""
    src, dst, proto, sport, dport = flow
    # If the source address is a DIP this gateway pinned the reversed flow
    # to, restore the VIP so the subscriber sees the service address.
    vip = affinity.vip_for((dst, src, proto, dport, sport), vips)
    rule = rules.lookup((dst, src if vip is None else vip, proto, dport,
                         sport))
    if rule is None:
        if vip is not None:
            data = rewrite_ipv4(data, src=vip)
        return Emit(ip_str(dst), data, "ip-route")
    if rule is SILENT:
        return Drop("silent-period")
    tunneled = encode_gtpu(rule.sgw_addr, rule.enb_addr, rule.downstream_teid,
                           _GPDU_TYPE, data, inner_src=vip)
    return Emit(ip_str(rule.enb_addr), tunneled, "gtp-encap")
