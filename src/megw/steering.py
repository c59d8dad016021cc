"""Two-stage consistent-hash traffic steering data plane.

Stage I maps a subscriber to the gateway serving it within the region,
using weighted rendezvous (highest-random-weight) hashing so every
gateway computes the same answer statelessly. Stage II maps each edge
connection to a concrete service instance (VIP to DIP rewrite) with an
affinity table that pins the choice for the life of the connection.

The flow-rule store carries the per-connection GTP context installed by
the control plane: which downstream tunnel carries a flow's return
traffic, and whether the subscriber is inside a handover silent period.
"""

from __future__ import annotations

import enum
import hashlib
import math
import struct
import threading
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from . import gtp
# classify, decode_gtpu and inner_five_tuple are unused here; they stay
# importable because benchmarks/layers.py wraps the codec under these names.
from .gtp import (Direction, FiveTuple, GtpMessageType, PacketClass,
                  classify, decode_gtpu, encode_gtpu, inner_five_tuple,
                  rewrite_ipv4)


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
    instances behind the VIPs.
    """

    megw_id: str
    vips: frozenset[str]
    region_peers: tuple[tuple[str, str, float], ...]  # (id, address, weight)
    dips: tuple[tuple[str, float], ...]               # (address, weight)
    local_sgw: str

    def __post_init__(self):
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


def stage1_select(ue_ip: str, cfg: SteeringConfig) -> str:
    """Serving gateway for a subscriber: HRW over the region peers.

    Keyed by the subscriber address alone so every gateway in the region
    agrees, and so all of one subscriber's edge state lands in one place.
    """
    return rendezvous_select(gtp.pack_ip(ue_ip),
                             [(pid, w) for pid, _, w in cfg.region_peers])


class RuleState(enum.Enum):
    ACTIVE = "active"
    SILENT = "silent"


@dataclass(frozen=True)
class FlowRule:
    """Per-flow GTP context: key is the upstream-oriented 5-tuple."""

    key: FiveTuple
    downstream_teid: int
    enb_addr: str
    sgw_addr: str
    state: RuleState = RuleState.ACTIVE


class RuleStore:
    """Flow-rule table. Single control-plane writer, many packet readers."""

    def __init__(self):
        self._rules: dict[FiveTuple, FlowRule] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._rules)

    def lookup(self, key: FiveTuple) -> FlowRule | None:
        with self._lock:
            return self._rules.get(key)

    def install(self, rule: FlowRule) -> None:
        """Install a rule; identical re-install is a no-op.

        A different tunnel binding for an existing key is a control-plane
        bug and raises ConflictError; legitimate tunnel changes go through
        reactivate_ue.
        """
        with self._lock:
            existing = self._rules.get(rule.key)
            if existing is not None:
                if (existing.downstream_teid, existing.enb_addr,
                        existing.sgw_addr) != (rule.downstream_teid,
                                               rule.enb_addr, rule.sgw_addr):
                    raise ConflictError(
                        f"rule for {rule.key} already bound to TEID "
                        f"{existing.downstream_teid:#x}")
                return
            self._rules[rule.key] = rule

    def set_ue_silent(self, ue_ip: str) -> int:
        """Silence every flow of a subscriber; returns rules touched."""
        with self._lock:
            touched = 0
            for key, rule in self._rules.items():
                if key.src_ip == ue_ip and rule.state is not RuleState.SILENT:
                    self._rules[key] = replace(rule, state=RuleState.SILENT)
                    touched += 1
            return touched

    def reactivate_ue(self, ue_ip: str,
                      new_downstream_teid: int | Mapping[int, int],
                      new_enb_addr: str) -> int:
        """Bring a subscriber's flows back to active with new tunnel fields.

        new_downstream_teid is either one TEID applied to every flow or a
        mapping from each flow's current (old) downstream TEID to its
        replacement; flows whose TEID is absent from the mapping stay
        silent, since their bearer did not survive the handover.
        """
        remap = (new_downstream_teid if isinstance(new_downstream_teid, Mapping)
                 else None)
        with self._lock:
            touched = 0
            for key, rule in self._rules.items():
                if key.src_ip != ue_ip:
                    continue
                if remap is None:
                    teid = new_downstream_teid
                elif rule.downstream_teid in remap:
                    teid = remap[rule.downstream_teid]
                else:
                    continue
                self._rules[key] = replace(rule, downstream_teid=teid,
                                           enb_addr=new_enb_addr,
                                           state=RuleState.ACTIVE)
                touched += 1
            return touched

    def release_ue(self, ue_ip: str) -> int:
        """Remove every rule of a subscriber; returns rules removed.

        Used when a subscriber hands over to a different gateway: the old
        gateway's tunnel state must not outlive the handover, or it would
        swallow this subscriber's traffic transiting here later.
        """
        with self._lock:
            keys = [k for k in self._rules if k.src_ip == ue_ip]
            for k in keys:
                del self._rules[k]
            return len(keys)

    def rules_for_ue(self, ue_ip: str) -> list[FlowRule]:
        with self._lock:
            return [r for k, r in self._rules.items() if k.src_ip == ue_ip]


class DipAffinityTable:
    """Connection-to-DIP mapping that never changes while the flow lives."""

    def __init__(self):
        self._table: dict[FiveTuple, str] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._table)

    def get(self, flow: FiveTuple) -> str | None:
        with self._lock:
            return self._table.get(flow)

    def get_or_assign(self, flow: FiveTuple,
                      dips: Sequence[tuple[str, float]]) -> str:
        """Return the pinned DIP, choosing and pinning one on first sight."""
        with self._lock:
            dip = self._table.get(flow)
            if dip is not None:
                return dip
            if not dips:
                raise SelectError("empty DIP pool")
            dip = rendezvous_select(flow.key_bytes(), dips)
            self._table[flow] = dip
            return dip


def stage2_select(flow: FiveTuple, table: DipAffinityTable,
                  cfg: SteeringConfig) -> str:
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

    outer_src: str
    outer_dst: str
    payload: bytes


@dataclass(frozen=True)
class EndMarkerSeen:
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
        act = Emit(dip, rewrite_ipv4(inner, dst=dip), note="dip-rewrite")
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
        return Multiple((Emit(view.dst, data, note="control-passthrough"),
                         clone))

    pkt = frame.tunnel
    if pclass is PacketClass.END_MARKER:
        return Multiple((Emit(pkt.outer_dst, data, note="end-marker-passthrough"),
                         CloneToController(EndMarkerSeen(pkt.teid))))

    if pclass is PacketClass.UPSTREAM_GTP:
        try:
            inner = gtp.parse_ipv4(pkt.inner)
            flow = inner.five_tuple()
        except gtp.DecodeError:
            return Emit(view.dst, data, note="ip-route")
        if flow.dst_ip not in cfg.vips:
            return Emit(view.dst, data, note="ip-route")
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
        return Emit(dip, rewrite_ipv4(view, dst=dip), note="dip-rewrite")

    if ingress is Direction.FROM_CLUSTER:
        return _downstream_edge(data, view, cfg, rules, affinity)

    return Emit(view.dst, data, note="ip-route")


def _downstream_edge(data: bytes, view: gtp.Ipv4View, cfg: SteeringConfig,
                     rules: RuleStore,
                     affinity: DipAffinityTable) -> ForwardAction:
    """Cluster-side return traffic: undo the DIP rewrite if this gateway
    made it, then re-encapsulate into the flow's downstream tunnel."""
    try:
        down = view.five_tuple()
    except gtp.DecodeError:
        return Emit(view.dst, data, note="ip-route")

    # If the source address is a DIP this gateway assigned to the reversed
    # flow, restore the VIP so the subscriber sees the service address.
    candidate = down.reversed()
    for vip in cfg.vips:
        with_vip = FiveTuple(candidate.src_ip, vip, candidate.proto,
                             candidate.src_port, candidate.dst_port)
        if affinity.get(with_vip) == down.src_ip:
            data = rewrite_ipv4(view, src=vip)
            candidate = with_vip
            break

    rule = rules.lookup(candidate)
    if rule is None:
        return Emit(view.dst, data, note="ip-route")
    if rule.state is RuleState.SILENT:
        return Drop("silent-period")
    tunneled = encode_gtpu(gtp.GtpuPacket(
        outer_src=rule.sgw_addr, outer_dst=rule.enb_addr,
        teid=rule.downstream_teid, message_type=GtpMessageType.GPDU,
        inner=data))
    return Emit(rule.enb_addr, tunneled, note="gtp-encap")
