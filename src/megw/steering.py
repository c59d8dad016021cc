"""Two-stage consistent-hash traffic steering data plane.

Stage I maps a subscriber to the gateway serving it within the region,
using weighted rendezvous (highest-random-weight) hashing so every
gateway computes the same answer statelessly. Stage II maps each edge
connection to a concrete service instance (VIP to DIP rewrite) with an
affinity table that pins the choice for the life of the connection.

The flow-rule store carries the per-connection GTP context installed by
the control plane: which downstream tunnel carries a flow's return
traffic; beside it, a set of the subscribers in a handover silent period.
A silenced subscriber's edge traffic is held in both directions, new
connections included: every lookup of its flows answers SILENT, so an
upstream packet goes to the controller alone, unsteered and unpinned,
and a downstream one is dropped. The store is grouped by subscriber, so
silencing, reactivating (by a map of old to new downstream TEIDs) or
releasing one subscriber never scans others.

Neither stage hashes on the packet path once a subscriber and its flows
are known. Stage I is memoized per (subscriber, config) in a bounded
cache: the answer depends on nothing else, and a config is frozen, so a
new config gets fresh answers. When the affinity table pins a flow it
also records the reverse entry: the plain 5-tuple (subscriber, DIP,
protocol, subscriber port, service port) -> VIP. Return traffic from a
DIP, reversed, is that 5-tuple, so it finds its VIP in one lookup. Two
flows of one subscriber that differ only in the VIP and land on the same
DIP share a reverse key; the VIP pinned first keeps it, so the restore
never depends on set or hash order. Tables are keyed by integer
addresses; only `SteeringConfig` input and `Emit.dst` are dotted quads.
Table probes take any 5-tuple, so the packet path probes with plain
tuples and builds a `FiveTuple` only for a `FlowMiss` and for a key the
affinity table stores.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
import threading
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

# classify, decode_gtpu and inner_five_tuple are unused here; they stay
# importable because benchmarks/layers.py wraps the codec under these names.
from .gtp import (MSG_TYPE_END_MARKER, PROTO_SCTP, DecodeError, Direction,
                  FiveTuple, GtpMessageType, classify, decode_gtpu,
                  encode_gtpu, inner_five_tuple, ip_int, ip_str, read_ipv4,
                  read_ports, read_tunnel, rewrite_ipv4)


class SelectError(ValueError):
    """No candidates to select from."""


class ConflictError(ValueError):
    """A rule install contradicts an existing rule for the same flow."""


def rendezvous_pick(keys: Sequence[bytes],
                    candidates: Sequence[tuple[str, float]]) -> list[int]:
    """Index of the highest-scoring candidate for each key, in key order.

    Weighted HRW: a candidate's score is -weight / ln(u), u drawn from the
    blake2b hash of its length-prefixed id and the key, mapped into the
    open interval (0, 1). So every score is a positive finite float and a
    candidate wins with probability proportional to its weight. The first
    candidate wins a tie. Each key extends a copy of the id's hash state.
    """
    unpack = struct.Struct(f">{len(keys)}Q").unpack
    log = math.log
    rows = []
    for weight, fresh in _prefixes(tuple(candidates)):
        digests = []
        for key in keys:
            h = fresh()
            h.update(key)
            digests.append(h.digest())
        rows.append([-weight / log((x + 0.5) / 2.0 ** 64)
                     for x in unpack(b"".join(digests))])
    return [scores.index(max(scores)) for scores in zip(*rows)]


@functools.lru_cache(maxsize=256)
def _prefixes(candidates: tuple[tuple[str, float], ...]) -> tuple:
    """(weight, copy of the hashed length-prefixed id) per candidate;
    validates on every call, since a raised SelectError is not cached."""
    if not candidates:
        raise SelectError("empty candidate list")
    out = []
    for cand_id, weight in candidates:
        if not 0 < weight < math.inf:
            raise SelectError(f"weight for {cand_id!r} must be in (0, inf)")
        ident = cand_id.encode()
        out.append((weight, hashlib.blake2b(
            struct.pack("!I", len(ident)) + ident, digest_size=8).copy))
    return tuple(out)


def rendezvous_select(key: bytes,
                      candidates: Sequence[tuple[str, float]]) -> str:
    """Pick the highest-scoring candidate for this key.

    Deterministic in (key, candidate ids, weights); removing a losing
    candidate never changes the winner for a key.
    """
    return candidates[rendezvous_pick((key,), candidates)[0]][0]


@dataclass(frozen=True)
class SteeringConfig:
    """One gateway's steering view.

    region_peers lists every gateway in the region (self included) with
    its fabric address and capacity weight; dips lists the local service
    instances behind the VIPs, all by dotted address (a DIP's is its stage
    II candidate id). The VIPs become integers when the config is built,
    every other address is checked then, and the config is hashed once:
    the stage I memo hashes it for every uplink G-PDU bound for a VIP.
    """

    megw_id: str
    vips: frozenset     # dotted strings when built, integers after
    region_peers: tuple[tuple[str, str, float], ...]  # (id, address, weight)
    dips: tuple[tuple[str, float], ...]               # (address, weight)
    local_sgw: str

    def __post_init__(self):
        # integers stay, so that dataclasses.replace works
        object.__setattr__(self, "vips", frozenset(
            v if isinstance(v, int) else ip_int(v) for v in self.vips))
        object.__setattr__(self, "_hash", hash((
            self.megw_id, self.vips, self.region_peers, self.dips,
            self.local_sgw)))
        ids = [p[0] for p in self.region_peers]
        if ids.count(self.megw_id) != 1:
            raise ValueError(
                f"{self.megw_id!r} must appear exactly once in region_peers")
        if not all(0 < w < math.inf for _, _, w in self.region_peers):
            raise ValueError("region peer weights must be positive and finite")
        if not all(0 < w < math.inf for _, w in self.dips):
            raise ValueError("DIP weights must be positive and finite")
        for _, addr, _ in self.region_peers:
            ip_int(addr)    # an EncodeError, a ValueError, if malformed
        for addr, _ in self.dips:
            ip_int(addr)

    def __hash__(self) -> int:
        return self._hash

    def peer_address(self, megw_id: str) -> str:
        for pid, addr, _ in self.region_peers:
            if pid == megw_id:
                return addr
        raise KeyError(megw_id)


@functools.lru_cache(maxsize=1 << 16)
def stage1_select(ue_ip: int, cfg: SteeringConfig) -> str:
    """Serving gateway for a subscriber: HRW over the region peers.

    Keyed by the subscriber address alone so every gateway in the region
    agrees, and so all of one subscriber's edge state lands in one place.
    Memoized per (ue_ip, cfg): SteeringConfig is frozen and hashes once,
    so a changed config is a different key and never sees a stale answer.
    """
    return rendezvous_select(ue_ip.to_bytes(4, "big"),
                             [(pid, w) for pid, _, w in cfg.region_peers])


class FlowRule(NamedTuple):
    """Per-flow GTP context: key is the upstream-oriented 5-tuple."""

    key: FiveTuple
    downstream_teid: int
    enb_addr: int
    sgw_addr: int


# what RuleStore.lookup answers for a ruled flow of a silenced subscriber
SILENT = object()


class RuleStore:
    """Flow-rule table keyed ue_ip -> {5-tuple: rule}, and the subscribers
    in a handover silent period. Single control-plane writer, many packet
    readers."""

    def __init__(self):
        self._by_ue: dict[int, dict[FiveTuple, FlowRule]] = {}
        self._silent: set[int] = set()
        self._count = 0     # rules in all of _by_ue, kept by the writers
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._count

    def lookup(self, key: tuple) -> FlowRule | object | None:
        """SILENT for every flow of a subscriber in its silent period, with
        a rule or not; otherwise the flow's rule or None. `key` is any
        5-tuple: a plain one finds the `FiveTuple` it equals."""
        with self._lock:
            if key[0] in self._silent:
                return SILENT
            return self._by_ue.get(key[0], {}).get(key)

    def install(self, rule: FlowRule) -> None:
        """Install a rule; identical re-install is a no-op.

        A different tunnel binding for an existing key is a control-plane
        bug and raises ConflictError; legitimate tunnel changes go through
        reactivate_ue.
        """
        with self._lock:
            flows = self._by_ue.setdefault(rule.key.src_ip, {})
            existing = flows.get(rule.key)
            if existing is not None:
                if (existing.downstream_teid, existing.enb_addr,
                        existing.sgw_addr) != (rule.downstream_teid,
                                               rule.enb_addr, rule.sgw_addr):
                    raise ConflictError(
                        f"rule for {rule.key} already bound to TEID "
                        f"{existing.downstream_teid:#x}")
                return
            flows[rule.key] = rule
            self._count += 1

    def set_ue_silent(self, ue_ip: int) -> int:
        """Start a subscriber's silent period; returns its rule count."""
        with self._lock:
            self._silent.add(ue_ip)
            return len(self._by_ue.get(ue_ip, ()))

    def reactivate_ue(self, ue_ip: int, teid_remap: Mapping[int, int],
                      new_enb_addr: int) -> int:
        """End a subscriber's silent period on its new tunnels.

        teid_remap maps each flow's old downstream TEID to its new one; a
        flow whose TEID it lacks is deleted, since its bearer did not
        survive the handover. Returns rules kept.
        """
        with self._lock:
            self._silent.discard(ue_ip)
            flows = self._by_ue.pop(ue_ip, {})
            kept = {key: rule._replace(downstream_teid=teid_remap[teid],
                                       enb_addr=new_enb_addr)
                    for key, rule in flows.items()
                    if (teid := rule.downstream_teid) in teid_remap}
            if kept:
                self._by_ue[ue_ip] = kept
            self._count -= len(flows) - len(kept)
            return len(kept)

    def release_ue(self, ue_ip: int) -> int:
        """Drop a subscriber's rules and its silence; returns rules removed.

        Used when a subscriber hands over to a different gateway, whose
        old tunnel state would swallow its traffic transiting here later,
        and when a context setup ends a subscriber's tunnels or silence.
        """
        with self._lock:
            self._silent.discard(ue_ip)
            released = len(self._by_ue.pop(ue_ip, ()))
            self._count -= released
            return released

    def rules_for_ue(self, ue_ip: int) -> list[FlowRule]:
        with self._lock:
            return list(self._by_ue.get(ue_ip, {}).values())


class DipAffinityTable:
    """Connection-to-DIP mapping that never changes while the flow lives,
    with the reverse DIP-side entry that return traffic looks up."""

    def __init__(self):
        self._table: dict[FiveTuple, int] = {}
        # (ue, dip, proto, ue_port, port) -> VIP of the first flow pinned
        self._reverse: dict[tuple, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._table)

    def get(self, flow: FiveTuple) -> int | None:
        with self._lock:
            return self._table.get(flow)

    def get_or_assign(self, flow: tuple,
                      dips: Sequence[tuple[str, float]]) -> int:
        """Return the pinned DIP (an integer), choosing and pinning one of
        the dotted `dips` by HRW on first sight. The pin survives any later
        change to the DIP pool. `flow` is any 5-tuple; a miss stores it as
        a `FiveTuple`."""
        with self._lock:
            dip = self._table.get(flow)
            if dip is not None:
                return dip
            if not dips:
                raise SelectError("empty DIP pool")
            flow = FiveTuple(*flow)
            dip = ip_int(rendezvous_select(flow.key_bytes(), dips))
            self._table[flow] = dip
            self._reverse.setdefault((flow.src_ip, dip, flow.proto,
                                      flow.src_port, flow.dst_port),
                                     flow.dst_ip)
            return dip

    def vip_for(self, dip_flow: tuple) -> int | None:
        """VIP of the pinned flow that this gateway rewrote to `dip_flow`,
        the upstream-oriented 5-tuple (any tuple) with the DIP as dst."""
        with self._lock:
            return self._reverse.get(dip_flow)


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


def process_packet(data: bytes, ingress: Direction, cfg: SteeringConfig,
                   rules: RuleStore, affinity: DipAffinityTable) -> ForwardAction:
    """One frame through the service offloader and both load balancers.

    Pure in (data, ingress, config, table snapshots); malformed traffic
    degrades to plain routing or Drop, never an exception. Headers are read
    once, in place; only emitted bytes are made. Tables are probed with
    plain tuples, and a `FiveTuple` is built only for a `FlowMiss` and for
    a key the affinity table stores."""
    try:
        ihl, total, proto, src, dst = read_ipv4(data)
    except DecodeError:
        return Drop("unparseable frame")

    if proto == PROTO_SCTP:
        return Multiple((Emit(ip_str(dst), data, note="control-passthrough"),
                         CloneToController(S1apClone(data[ihl:total]))))

    tunnel = read_tunnel(data, proto, ihl, total)
    if isinstance(tunnel, tuple) and tunnel[0] == MSG_TYPE_END_MARKER:
        return Multiple((Emit(ip_str(dst), data,
                              note="end-marker-passthrough"),
                         CloneToController(EndMarkerSeen(dst, tunnel[1]))))

    if isinstance(tunnel, tuple) and ingress is Direction.FROM_RAN:
        # uplink G-PDU: steer the inner packet, data[at:total], if VIP-bound
        _, teid, at = tunnel
        try:
            hl, size, proto, src, vip = read_ipv4(data, at, total)
            sport, dport = read_ports(data, at + hl, size - hl, proto)
        except DecodeError:
            return Emit(ip_str(dst), data, note="ip-route")
        if vip not in cfg.vips:
            return Emit(ip_str(dst), data, note="ip-route")
        flow = (src, vip, proto, sport, dport)
        rule = rules.lookup(flow)
        if rule is SILENT:
            # silent period: hold edge traffic, keep the controller informed
            return CloneToController(FlowMiss(FiveTuple(*flow), teid))
        serving = stage1_select(src, cfg)
        if serving != cfg.megw_id:
            act = Emit(cfg.peer_address(serving), data[at:total],
                       note="stage1-handoff")
        else:
            dip = affinity.get_or_assign(flow, cfg.dips)
            act = Emit(ip_str(dip), note="dip-rewrite",
                       data=rewrite_ipv4(data, dst=dip, at=at, end=total))
        if rule is None:
            miss = CloneToController(FlowMiss(FiveTuple(*flow), teid))
            return Multiple((miss, act))
        return act

    # plain IP, and a G-PDU from the core or the cluster
    if dst in cfg.vips:
        # stage-I hand-off from a source gateway: not GTP, addressed to a VIP
        try:
            sport, dport = read_ports(data, ihl, total - ihl, proto)
        except DecodeError:
            return Drop("malformed VIP-bound packet")
        dip = affinity.get_or_assign((src, dst, proto, sport, dport),
                                     cfg.dips)
        return Emit(ip_str(dip), rewrite_ipv4(data, dst=dip),
                    note="dip-rewrite")

    if ingress is Direction.FROM_CLUSTER:
        return _downstream_edge(data, ihl, total, proto, src, dst, rules,
                                affinity)

    return Emit(ip_str(dst), data, note="ip-route")


def _downstream_edge(data: bytes, ihl: int, total: int, proto: int, src: int,
                     dst: int, rules: RuleStore,
                     affinity: DipAffinityTable) -> ForwardAction:
    """Cluster-side return traffic: undo the DIP rewrite if this gateway
    made it, then re-encapsulate into the flow's downstream tunnel."""
    try:
        sport, dport = read_ports(data, ihl, total - ihl, proto)
    except DecodeError:
        return Emit(ip_str(dst), data, note="ip-route")

    # If the source address is a DIP this gateway assigned to the reversed
    # flow, restore the VIP so the subscriber sees the service address.
    vip = affinity.vip_for((dst, src, proto, dport, sport))
    if vip is not None:
        data = rewrite_ipv4(data, src=vip)
        src = vip

    rule = rules.lookup((dst, src, proto, dport, sport))
    if rule is None:
        return Emit(ip_str(dst), data, note="ip-route")
    if rule is SILENT:
        return Drop("silent-period")
    tunneled = encode_gtpu(rule.sgw_addr, rule.enb_addr, rule.downstream_teid,
                           GtpMessageType.GPDU, data)
    return Emit(ip_str(rule.enb_addr), tunneled, note="gtp-encap")
