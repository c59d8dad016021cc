"""Two-stage consistent-hash traffic steering data plane.

Stage I maps a subscriber to the gateway serving it within the region,
using weighted rendezvous (highest-random-weight) hashing so every
gateway computes the same answer statelessly. Stage II maps each edge
connection to a concrete service instance (VIP to DIP rewrite) with an
affinity table that pins the choice for the life of the connection.

The flow-rule store carries the per-connection GTP context installed by
the control plane: which downstream tunnel carries a flow's return
traffic, and whether the subscriber is inside a handover silent period.
It is grouped by subscriber, so silencing, reactivating (by a map of old
to new downstream TEIDs) or releasing one subscriber never scans others.

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
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
import struct
import threading
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from . import gtp
# classify, decode_gtpu and inner_five_tuple are unused here; they stay
# importable because benchmarks/layers.py wraps the codec under these names.
from .gtp import (Direction, FiveTuple, GtpMessageType, PacketClass,
                  classify, decode_gtpu, encode_gtpu, inner_five_tuple,
                  ip_int, ip_str, rewrite_ipv4)


class SelectError(ValueError):
    """No candidates to select from."""


class ConflictError(ValueError):
    """A rule install contradicts an existing rule for the same flow."""


def _score(candidate_id: str, weight: float, key: bytes) -> float:
    """Weighted HRW score: -weight / ln(u), u drawn from the keyed hash.

    u is mapped into the open interval (0, 1), so the score is always a
    positive finite float and a candidate wins with probability
    proportional to its weight.
    """
    ident = candidate_id.encode()
    h = hashlib.blake2b(struct.pack("!I", len(ident)) + ident + key,
                        digest_size=8).digest()
    u = (int.from_bytes(h, "big") + 0.5) / 2.0 ** 64
    return -weight / math.log(u)


def rendezvous_scores(keys: Sequence[bytes], candidate_id: str,
                      weight: float) -> list[float]:
    """`_score` of one candidate for each key, in key order.

    The batch form for callers that score many keys: the candidate's
    length-prefixed id is hashed once and each key extends a copy of that
    state, and the digests are unpacked in one call. The formula is the
    scalar one, so every score equals `_score`'s bit for bit.
    """
    if weight <= 0:
        raise SelectError(f"non-positive weight for {candidate_id!r}")
    ident = candidate_id.encode()
    fresh = hashlib.blake2b(struct.pack("!I", len(ident)) + ident,
                            digest_size=8).copy
    digests = []
    for key in keys:
        h = fresh()
        h.update(key)
        digests.append(h.digest())
    log = math.log
    return [-weight / log((x + 0.5) / 2.0 ** 64)
            for x in struct.unpack(f">{len(digests)}Q", b"".join(digests))]


def rendezvous_select(key: bytes,
                      candidates: Sequence[tuple[str, float]]) -> str:
    """Pick the highest-scoring candidate for this key.

    Deterministic in (key, candidate ids, weights); removing a losing
    candidate never changes the winner for a key.
    """
    if not candidates:
        raise SelectError("empty candidate list")
    best_id = None
    best_score = -1.0
    for cand_id, weight in candidates:
        if weight <= 0:
            raise SelectError(f"non-positive weight for {cand_id!r}")
        s = _score(cand_id, weight, key)
        if s > best_score:
            best_score = s
            best_id = cand_id
    return best_id


@dataclass(frozen=True)
class SteeringConfig:
    """One gateway's steering view.

    region_peers lists every gateway in the region (self included) with
    its fabric address and capacity weight; dips lists the local service
    instances behind the VIPs, all by dotted address (a DIP's is its stage
    II candidate id). The VIPs become integers when the config is built.
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
        ids = [p[0] for p in self.region_peers]
        if ids.count(self.megw_id) != 1:
            raise ValueError(
                f"{self.megw_id!r} must appear exactly once in region_peers")
        if any(w <= 0 for _, _, w in self.region_peers):
            raise ValueError("region peer weights must be positive")
        if any(w <= 0 for _, w in self.dips):
            raise ValueError("DIP weights must be positive")

    def peer_address(self, megw_id: str) -> str:
        for pid, addr, _ in self.region_peers:
            if pid == megw_id:
                return addr
        raise KeyError(megw_id)

    @staticmethod
    def from_dict(doc: dict) -> "SteeringConfig":
        return SteeringConfig(
            megw_id=doc["megw_id"],
            vips=frozenset(doc["vips"]),
            region_peers=tuple((p["megw_id"], p["address"], float(p.get("weight", 1)))
                               for p in doc["region_peers"]),
            dips=tuple((d["address"], float(d.get("weight", 1)))
                       for d in doc["dips"]),
            local_sgw=doc["local_sgw"],
        )


@functools.lru_cache(maxsize=1 << 16)
def stage1_select(ue_ip: int, cfg: SteeringConfig) -> str:
    """Serving gateway for a subscriber: HRW over the region peers.

    Keyed by the subscriber address alone so every gateway in the region
    agrees, and so all of one subscriber's edge state lands in one place.
    Memoized per (ue_ip, cfg): SteeringConfig is frozen and hashable, so
    a changed config is a different key and never sees a stale answer.
    """
    return rendezvous_select(ue_ip.to_bytes(4, "big"),
                             [(pid, w) for pid, _, w in cfg.region_peers])


class RuleState(enum.Enum):
    ACTIVE = "active"
    SILENT = "silent"


class FlowRule(NamedTuple):
    """Per-flow GTP context: key is the upstream-oriented 5-tuple."""

    key: FiveTuple
    downstream_teid: int
    enb_addr: int
    sgw_addr: int
    state: RuleState = RuleState.ACTIVE


class RuleStore:
    """Flow-rule table keyed ue_ip -> {5-tuple: rule}. Single control-plane
    writer, many packet readers."""

    def __init__(self):
        self._by_ue: dict[int, dict[FiveTuple, FlowRule]] = {}
        self._count = 0     # rules in all of _by_ue, kept by the writers
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._count

    def lookup(self, key: FiveTuple) -> FlowRule | None:
        with self._lock:
            return self._by_ue.get(key.src_ip, {}).get(key)

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
        """Silence every flow of a subscriber; returns rules touched."""
        with self._lock:
            flows = self._by_ue.get(ue_ip, {})
            touched = 0
            for key, rule in flows.items():
                if rule.state is not RuleState.SILENT:
                    flows[key] = rule._replace(state=RuleState.SILENT)
                    touched += 1
            return touched

    def reactivate_ue(self, ue_ip: int, teid_remap: Mapping[int, int],
                      new_enb_addr: int) -> int:
        """Bring a subscriber's flows back to active with new tunnel fields.

        teid_remap maps each flow's old downstream TEID to its new one; a
        flow whose TEID it lacks stays as it is, since its bearer did not
        survive the handover. Returns rules touched.
        """
        with self._lock:
            flows = self._by_ue.get(ue_ip, {})
            touched = 0
            for key, rule in flows.items():
                if rule.downstream_teid in teid_remap:
                    flows[key] = rule._replace(
                        downstream_teid=teid_remap[rule.downstream_teid],
                        enb_addr=new_enb_addr, state=RuleState.ACTIVE)
                    touched += 1
            return touched

    def release_ue(self, ue_ip: int) -> int:
        """Remove every rule of a subscriber; returns rules removed.

        Used when a subscriber hands over to a different gateway: the old
        gateway's tunnel state must not outlive the handover, or it would
        swallow this subscriber's traffic transiting here later.
        """
        with self._lock:
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

    def get_or_assign(self, flow: FiveTuple,
                      dips: Sequence[tuple[str, float]]) -> int:
        """Return the pinned DIP (an integer), choosing and pinning one of
        the dotted `dips` on first sight."""
        with self._lock:
            dip = self._table.get(flow)
            if dip is not None:
                return dip
            if not dips:
                raise SelectError("empty DIP pool")
            dip = ip_int(rendezvous_select(flow.key_bytes(), dips))
            self._table[flow] = dip
            self._reverse.setdefault((flow.src_ip, dip, flow.proto,
                                      flow.src_port, flow.dst_port),
                                     flow.dst_ip)
            return dip

    def vip_for(self, dip_flow: FiveTuple) -> int | None:
        """VIP of the pinned flow that this gateway rewrote to `dip_flow`,
        the upstream-oriented 5-tuple with the DIP as destination."""
        with self._lock:
            return self._reverse.get(dip_flow)


def stage2_select(flow: FiveTuple, table: DipAffinityTable,
                  cfg: SteeringConfig) -> int:
    """DIP for a connection: sticky once assigned, HRW for new flows.

    Existing entries survive any later change to the DIP pool.
    """
    return table.get_or_assign(flow, cfg.dips)


# --- forwarding actions ---------------------------------------------------

@dataclass(frozen=True)
class Emit:
    """Send these bytes toward this address (fabric resolves the peer)."""

    dst: str
    data: bytes
    note: str = ""


@dataclass(frozen=True)
class CloneToController:
    event: "ControllerEvent"


@dataclass(frozen=True)
class Drop:
    reason: str = ""


@dataclass(frozen=True)
class Multiple:
    actions: tuple


ForwardAction = Emit | CloneToController | Drop | Multiple


@dataclass(frozen=True)
class S1apClone:
    """Cloned control-plane frame; payload is the signalling bytes."""

    outer_src: int
    outer_dst: int
    payload: bytes


@dataclass(frozen=True)
class EndMarkerSeen:
    """An end marker for tunnel `teid` of the eNB at `enb_addr`."""

    enb_addr: int
    teid: int


@dataclass(frozen=True)
class FlowMiss:
    five_tuple: FiveTuple
    upstream_teid: int


ControllerEvent = S1apClone | EndMarkerSeen | FlowMiss


def _steer_to_service(inner: gtp.Ipv4View, flow: FiveTuple,
                      cfg: SteeringConfig, affinity: DipAffinityTable,
                      prelude: tuple = ()) -> ForwardAction:
    """Stage I then (locally) Stage II for a decapsulated VIP-bound packet."""
    serving = stage1_select(flow.src_ip, cfg)
    if serving != cfg.megw_id:
        act = Emit(cfg.peer_address(serving), inner.packet, note="stage1-handoff")
    else:
        dip = stage2_select(flow, affinity, cfg)
        act = Emit(ip_str(dip), rewrite_ipv4(inner, dst=dip),
                   note="dip-rewrite")
    if prelude:
        return Multiple(prelude + (act,))
    return act


def process_packet(data: bytes, ingress: Direction, cfg: SteeringConfig,
                   rules: RuleStore, affinity: DipAffinityTable) -> ForwardAction:
    """One frame through the service offloader and both load balancers.

    Pure in (data, ingress, config, table snapshots); malformed traffic
    degrades to plain routing or Drop, never an exception. The outer
    header is parsed once and the inner header at most once.
    """
    try:
        frame = gtp.parse_frame(data)
    except gtp.DecodeError:
        return Drop("unparseable frame")
    view = frame.ip
    pclass = frame.packet_class(ingress)

    if pclass is PacketClass.CONTROL_PLANE:
        clone = CloneToController(S1apClone(view.src, view.dst, view.payload))
        return Multiple((Emit(ip_str(view.dst), data,
                              note="control-passthrough"),
                         clone))

    pkt = frame.tunnel
    if pclass is PacketClass.END_MARKER:
        return Multiple((Emit(ip_str(pkt.outer_dst), data,
                              note="end-marker-passthrough"),
                         CloneToController(EndMarkerSeen(pkt.outer_dst,
                                                       pkt.teid))))

    if pclass is PacketClass.UPSTREAM_GTP:
        try:
            inner = gtp.parse_ipv4(pkt.inner)
            flow = inner.five_tuple()
        except gtp.DecodeError:
            return Emit(ip_str(view.dst), data, note="ip-route")
        if flow.dst_ip not in cfg.vips:
            return Emit(ip_str(view.dst), data, note="ip-route")
        rule = rules.lookup(flow)
        if rule is not None and rule.state is RuleState.SILENT:
            # silent period: hold edge traffic, keep the controller informed
            return CloneToController(FlowMiss(flow, pkt.teid))
        prelude = ()
        if rule is None:
            prelude = (CloneToController(FlowMiss(flow, pkt.teid)),)
        return _steer_to_service(inner, flow, cfg, affinity, prelude)

    # PLAIN_IP (and any GTP arriving on an unexpected side)
    if view.dst in cfg.vips:
        # stage-I hand-off from a source gateway: not GTP, addressed to a VIP
        try:
            flow = view.five_tuple()
        except gtp.DecodeError:
            return Drop("malformed VIP-bound packet")
        dip = stage2_select(flow, affinity, cfg)
        return Emit(ip_str(dip), rewrite_ipv4(view, dst=dip),
                    note="dip-rewrite")

    if ingress is Direction.FROM_CLUSTER:
        return _downstream_edge(data, view, rules, affinity)

    return Emit(ip_str(view.dst), data, note="ip-route")


def _downstream_edge(data: bytes, view: gtp.Ipv4View, rules: RuleStore,
                     affinity: DipAffinityTable) -> ForwardAction:
    """Cluster-side return traffic: undo the DIP rewrite if this gateway
    made it, then re-encapsulate into the flow's downstream tunnel."""
    try:
        down = view.five_tuple()
    except gtp.DecodeError:
        return Emit(ip_str(view.dst), data, note="ip-route")

    # If the source address is a DIP this gateway assigned to the reversed
    # flow, restore the VIP so the subscriber sees the service address.
    candidate = down.reversed()
    vip = affinity.vip_for(candidate)
    if vip is not None:
        data = rewrite_ipv4(view, src=vip)
        candidate = FiveTuple(candidate.src_ip, vip, candidate.proto,
                              candidate.src_port, candidate.dst_port)

    rule = rules.lookup(candidate)
    if rule is None:
        return Emit(ip_str(view.dst), data, note="ip-route")
    if rule.state is RuleState.SILENT:
        return Drop("silent-period")
    tunneled = encode_gtpu(gtp.GtpuPacket(
        rule.sgw_addr, rule.enb_addr, rule.downstream_teid,
        GtpMessageType.GPDU, data))
    return Emit(ip_str(rule.enb_addr), tunneled, note="gtp-encap")
