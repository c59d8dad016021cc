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
releasing one subscriber never scans others. It holds each fact once: a
tunnel is one `Tunnel` value that all flows on it share, and a
subscriber's record keeps the address int that its new flows' keys reuse.

Neither stage hashes on the packet path once a subscriber and its flows
are known. Stage I is memoized, bounded, per (subscriber, the region's
(id, weight) candidates): the answer depends on nothing else, so a
region's gateways and controllers share each entry, and only a changed
weight or candidate set is a new key. Stage II keeps one table, each
pinned flow's DIP. Return traffic from a DIP, reversed, is a pinned flow
with the DIP in the VIP's place, so it finds its VIP by probing that
table for each VIP of the config, lowest first: if two flows that differ
only in the VIP land on one DIP, the lowest VIP wins, whatever the pin,
set or hash order. Tables are keyed by integer addresses; only
`SteeringConfig` input and `Emit.dst` are dotted quads. Table probes
take any 5-tuple, so the packet path probes with plain tuples. A new
flow gets one `FiveTuple`, which its `FlowMiss` (and so its rule and the
controller's log) and its affinity pin share; it holds the rule store's
int for the subscriber and the config's for the VIP, and the pin holds
the affinity table's one int for the DIP.

Packet-path reads take no lock; each table's writers serialize on its
lock and publish read-copy-update style, so that a reader sees a state
before a write or after it. The precondition: a read is single dict or
set operations on ints or tuples of ints, whose hashing and comparison
run no Python code, so each operation is atomic under the GIL. A lookup
reads the silence before the flows, so writers end a silence last: a
reactivation stores the subscriber's kept flows (or deletes its entry)
and a release pops them, each before it discards the silence. The
affinity table pins a flow only after looking again under its lock.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    digest_format = f">{len(keys)}Q"   # struct caches the compiled format
    log = math.log
    rows = []
    for weight, fresh in _prefixes(tuple(candidates)):  # a tuple: no copy
        digests = []
        for key in keys:
            h = fresh()
            h.update(key)
            digests.append(h.digest())
        rows.append([-weight / log((x + 0.5) / 2.0 ** 64)
                     for x in struct.unpack(digest_format,
                                            b"".join(digests))])
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

    region_peers lists every gateway in the region (self included) with its
    fabric address and capacity weight; vips the service addresses and dips
    the local service instances behind them, all by dotted address (a DIP's
    is its stage II candidate id), each checked when the config is built.
    `vip_ints`, the packet path's VIPs in ascending order, maps each to the
    config's own int, which the keys of new flows all hold; `peer_ints`
    maps each peer's id to its address int; `stage1_peers` is the
    region's (id, weight) candidates, stage I's memo key.
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
        for addr, _ in self.dips:
            ip_int(addr)    # an EncodeError, a ValueError, if malformed


def stage1_key(ue_ip: int) -> bytes:
    """Stage I's hash key for a subscriber: its address in network order."""
    return ue_ip.to_bytes(4, "big")


@functools.lru_cache(maxsize=1 << 16)
def stage1_select(ue_ip: int, peers: tuple[tuple[str, float], ...]) -> str:
    """Serving gateway for a subscriber: HRW over the region's (id, weight)
    candidates, `SteeringConfig.stage1_peers` or `TopologyView.peers`.

    Keyed by the subscriber address alone so every gateway in the region
    agrees, and so all of one subscriber's edge state lands in one place.
    Memoized on exactly its inputs, so the region's gateways and their
    controllers share an answer, and a changed weight or candidate set is
    a different key that never sees a stale one.
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
    """One subscriber's flows, {5-tuple: Tunnel}, with its address int,
    `ip`. Each tunnel is one value that all flows on it share. Most
    subscribers have one, which any flow holds, so `more` lists the
    tunnels only once there are two (a 1-tuple would cost 48 bytes)."""

    __slots__ = ("ip", "more")

    def __init__(self, ip: int, flows=(), more: tuple = ()):
        super().__init__(flows)
        self.ip = ip
        self.more = more

    def tunnels(self) -> tuple:
        """The distinct tunnels of its flows."""
        if self.more or not self:
            return self.more
        return (next(iter(self.values())),)


# what RuleStore.lookup answers for a ruled flow of a silenced subscriber
SILENT = object()
# the flows of a subscriber with none: one shared, never written mapping
_NO_FLOWS: Mapping = {}


class RuleStore:
    """Flow-rule table keyed ue_ip -> {5-tuple: tunnel}, and the
    subscribers in a handover silent period.

    Packet readers (`lookup`, `address`) take no lock: each is single
    dict and set operations on int and tuple-of-int keys, atomic under the
    GIL. Writers serialize on `_lock` and publish in an order in which a
    reader sees either the old state or the new one: `reactivate_ue`
    stores the kept flows, or deletes the entry, and only then discards
    the silence, so a known flow never reads None; `release_ue` pops the
    flows before it discards the silence, so a released subscriber never
    reads its old tunnel. `rules_for_ue` iterates a subscriber's flows and
    so locks too.
    """

    def __init__(self):
        self._by_ue: dict[int, _Subscriber] = {}
        self._silent: set[int] = set()
        self._count = 0     # rules in all of _by_ue, kept by the writers
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._count

    def lookup(self, key: tuple) -> Tunnel | object | None:
        """SILENT for every flow of a subscriber in its silent period, with
        a rule or not; otherwise the flow's tunnel or None. `key` is any
        5-tuple of ints: a plain one finds the `FiveTuple` it equals. No
        lock: the silence is read before the flows, the reverse of the
        order writers publish them in."""
        if key[0] in self._silent:
            return SILENT
        return self._by_ue.get(key[0], _NO_FLOWS).get(key)

    def address(self, ue_ip: int) -> int:
        """The int this store keeps for the subscriber's address, or
        `ue_ip` itself for a subscriber it holds no rule of. No lock."""
        flows = self._by_ue.get(ue_ip)
        return ue_ip if flows is None else flows.ip

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
            tunnels = flows.tunnels()
            for tunnel in tunnels:
                if tunnel == bound:
                    break
            else:
                tunnel = Tunnel._make(bound)
                if tunnels:
                    flows.more = tunnels + (tunnel,)
            flows[key] = tunnel
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
        survive the handover. One new value per remapped tunnel, shared by
        its flows (and by another old tunnel that maps to the same one).
        Returns rules kept. The kept flows replace the old in one store,
        and the silence ends after it, so a reader of a kept flow sees
        SILENT or a tunnel, never None.
        """
        with self._lock:
            flows = self._by_ue.get(ue_ip)
            if flows is None:
                self._silent.discard(ue_ip)
                return 0
            moved: dict[Tunnel, Tunnel] = {}    # old -> new
            new: dict[Tunnel, Tunnel] = {}      # each new value once
            for old in flows.tunnels():
                if old.downstream_teid in teid_remap:
                    tunnel = Tunnel(teid_remap[old.downstream_teid],
                                    new_enb_addr, old.sgw_addr)
                    moved[old] = new.setdefault(tunnel, tunnel)
            kept = _Subscriber(flows.ip, (
                (key, tunnel) for key, old in flows.items()
                if (tunnel := moved.get(old)) is not None),
                tuple(new) if len(new) > 1 else ())
            if kept:
                self._by_ue[ue_ip] = kept
            else:
                del self._by_ue[ue_ip]
            self._silent.discard(ue_ip)
            self._count -= len(flows) - len(kept)
            return len(kept)

    def release_ue(self, ue_ip: int) -> int:
        """Drop a subscriber's rules, its address int and its silence;
        returns rules removed.

        Used when a subscriber hands over to a different gateway, whose
        old tunnel state would swallow its traffic transiting here later,
        and when a context setup ends a subscriber's tunnels or silence.
        The flows go before the silence, so a reader of a silenced
        subscriber sees SILENT or None, never its old tunnel.
        """
        with self._lock:
            released = len(self._by_ue.pop(ue_ip, ()))
            self._silent.discard(ue_ip)
            self._count -= released
            return released

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
    `_lock` before it pins, so each flow gets one pin and every pin to one
    DIP holds one int.
    """

    def __init__(self):
        self._table: dict[FiveTuple, int] = {}
        # dotted DIP -> the one int every pin to it holds
        self._dips: dict[str, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._table)

    def get(self, flow: FiveTuple) -> int | None:
        return self._table.get(flow)

    def get_or_assign(self, flow: tuple,
                      dips: Sequence[tuple[str, float]]) -> int:
        """Return the pinned DIP (an integer), choosing and pinning one of
        the dotted `dips` by HRW on first sight. The pin survives any later
        change to the DIP pool. `flow` is any 5-tuple; a miss stores a
        `FiveTuple` as it is given, and any other as a new `FiveTuple`.
        Every pin to one DIP holds one int, read once per table. A hit
        takes no lock; a miss looks again under it before it pins."""
        dip = self._table.get(flow)
        if dip is not None:
            return dip
        with self._lock:
            dip = self._table.get(flow)
            if dip is not None:
                return dip
            if type(flow) is not FiveTuple:
                flow = FiveTuple(*flow)
            addr = rendezvous_select(flow.key_bytes(), dips)
            dip = self._dips.get(addr)
            if dip is None:
                dip = self._dips[addr] = ip_int(addr)
            self._table[flow] = dip
            return dip

    def vip_for(self, dip_flow: tuple, vips: Iterable[int]) -> int | None:
        """The first of `vips` whose flow, `dip_flow` (any tuple) with the
        VIP in the DIP's place, is pinned to that DIP; or None. No lock:
        each probe reads one pin. Pins are never removed, so a VIP it
        answers stays pinned, and each earlier VIP was unpinned when
        probed."""
        ue, dip, proto, ue_port, port = dip_flow
        for vip in vips:
            if self._table.get((ue, vip, proto, ue_port, port)) == dip:
                return vip
        return None


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
    plain tuples; a new flow's one `FiveTuple` goes in its `FlowMiss` and
    is the key the affinity table stores."""
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

    if type(tunnel) is tuple and ingress is Direction.FROM_RAN:
        # uplink G-PDU: steer the inner packet, data[at:total], if VIP-bound
        _, teid, at = tunnel
        try:
            hl, size, proto, src, vip = read_ipv4(data, at, total)
            sport, dport = read_ports(data, at + hl, size - hl, proto)
        except DecodeError:
            return Emit(ip_str(dst), data, "ip-route")
        if vip not in cfg.vip_ints:
            return Emit(ip_str(dst), data, "ip-route")
        flow = (src, vip, proto, sport, dport)
        rule = rules.lookup(flow)
        if rule is SILENT:
            # silent period: hold edge traffic, keep the controller informed
            return CloneToController(FlowMiss(FiveTuple(*flow), teid))
        if rule is None:
            # a new flow: one key for its miss (so its rule and the log)
            # and its pin, holding the subscriber's and the VIP's kept ints
            flow = FiveTuple(rules.address(src), cfg.vip_ints[vip], proto,
                             sport, dport)
        serving = stage1_select(src, cfg.stage1_peers)
        if serving != cfg.megw_id:
            act = Emit(ip_str(cfg.peer_ints[serving]), data[at:total],
                       "stage1-handoff")
        else:
            dip = affinity.get_or_assign(flow, cfg.dips)
            act = Emit(ip_str(dip), rewrite_ipv4(data, dst=dip, at=at,
                                                 end=total), "dip-rewrite")
        if rule is None:
            return Multiple((CloneToController(FlowMiss(flow, teid)), act))
        return act

    # plain IP, and a G-PDU from the core or the cluster
    if dst in cfg.vip_ints:
        # stage-I hand-off from a source gateway: not GTP, addressed to a VIP
        try:
            sport, dport = read_ports(data, ihl, total - ihl, proto)
        except DecodeError:
            return Drop("malformed VIP-bound packet")
        dip = affinity.get_or_assign(
            (src, cfg.vip_ints[dst], proto, sport, dport), cfg.dips)
        return Emit(ip_str(dip), rewrite_ipv4(data, dst=dip), "dip-rewrite")

    if ingress is Direction.FROM_CLUSTER:
        return _downstream_edge(data, ihl, total, proto, src, dst,
                                cfg.vip_ints, rules, affinity)

    return Emit(ip_str(dst), data, "ip-route")


def _downstream_edge(data: bytes, ihl: int, total: int, proto: int, src: int,
                     dst: int, vips: Iterable[int], rules: RuleStore,
                     affinity: DipAffinityTable) -> ForwardAction:
    """Cluster-side return traffic: undo the DIP rewrite if this gateway
    made it, then re-encapsulate into the flow's downstream tunnel."""
    try:
        sport, dport = read_ports(data, ihl, total - ihl, proto)
    except DecodeError:
        return Emit(ip_str(dst), data, "ip-route")

    # If the source address is a DIP this gateway pinned the reversed flow
    # to, restore the VIP so the subscriber sees the service address.
    vip = affinity.vip_for((dst, src, proto, dport, sport), vips)
    if vip is not None:
        data = rewrite_ipv4(data, src=vip)
        src = vip

    rule = rules.lookup((dst, src, proto, dport, sport))
    if rule is None:
        return Emit(ip_str(dst), data, "ip-route")
    if rule is SILENT:
        return Drop("silent-period")
    tunneled = encode_gtpu(rule.sgw_addr, rule.enb_addr, rule.downstream_teid,
                           GtpMessageType.GPDU, data)
    return Emit(ip_str(rule.enb_addr), tunneled, "gtp-encap")
