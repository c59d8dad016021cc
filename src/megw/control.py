"""Control-plane processor: one per gateway, no shared state.

Consumes cloned control messages, flow misses, and end-marker sightings
from the local data plane, reconstructs each subscriber's bearer-to-TEID
pairs, and emits data-plane effects as plain values. Keeping effects as
values makes the processor a deterministic, replayable state machine:
the caller applies them (or records them) in order.

Each S1AP message kind is one row of `S1apProcessor._HANDLERS`: its
handler, whether it creates a missing context (a message with none is an
`OrphanMessage`), and whether it settles the subscriber, ending any pending
handover before the handler and the silent period after it.

Handover handling follows the X2 timeline. The path-switch request
classifies the scenario (an eNB outside the view makes it an orphan) and
files each bearer as pending under (old eNB, downstream TEID), the pair
that names a tunnel (3GPP TS 29.281); a bearer still waiting for its
response has TEID 0, which names none, and is left out. An end marker is
one lookup there: it opens the silent period, triggers the migration
notice for a move across regions, and drops the context of a subscriber
who moves to another gateway. A silence ends only with an effect that ends
it in the rule store too: the acknowledgement's `ReactivateUe`, which moves
the rules to the fresh tunnels and drops the flows of bearers it does not
list, or the `ReleaseUeRules` of an initial context setup, which drops the
rules on every tunnel it does not carry over.
State and effects hold integer addresses; `dump_jsonl` writes them dotted.
The log keeps values, not dicts: each entry is a `LogEntry` of the detail
values and the effects themselves, rendered only when the log is read.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .gtp import ip_int, ip_str
from .s1ap import MessageKind, S1apLiteMessage
from .steering import FiveTuple, FlowRule, stage1_select

LOG_LIMIT = 4096    # effect-log entries a processor keeps


class TopologyError(KeyError):
    """An eNB or gateway id is missing from the topology view."""


@dataclass(frozen=True)
class TopologyView:
    """The static maps scenario classification needs (eNBs by address),
    and `peers`: each region's stage I candidates, a tuple of (id, weight)
    in id order, the weight 1.0 unless `weights` names the gateway."""

    enb_to_megw: dict
    megw_to_region: dict
    weights: dict = field(default_factory=dict)
    peers: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "enb_to_megw", {
            ip_int(enb): megw for enb, megw in self.enb_to_megw.items()})
        peers: dict[str, list] = {}
        for megw in sorted(self.megw_to_region):
            peers.setdefault(self.megw_to_region[megw], []).append(
                (megw, self.weights.get(megw, 1.0)))
        object.__setattr__(self, "peers", {
            region: tuple(cands) for region, cands in peers.items()})

    def megw_of(self, enb_addr: int) -> str:
        try:
            return self.enb_to_megw[enb_addr]
        except KeyError:
            raise TopologyError(f"unknown eNB {ip_str(enb_addr)}") from None

    def region_of(self, megw_id: str) -> str:
        try:
            return self.megw_to_region[megw_id]
        except KeyError:
            raise TopologyError(f"unknown gateway {megw_id!r}") from None

    def serving_megw(self, ue_ip: int, enb_addr: int) -> str:
        """The gateway stage I serves the subscriber from in the region of
        this eNB's gateway: the pick every gateway there makes."""
        region = self.region_of(self.megw_of(enb_addr))
        return stage1_select(ue_ip, self.peers[region])


class HandoverScenario(enum.Enum):
    SAME_MEGW = "same-megw"
    SAME_REGION_DIFFERENT_MEGW = "same-region-different-megw"
    CROSS_REGION = "cross-region"


def classify_handover(old_enb: int, new_enb: int,
                      topology: TopologyView) -> HandoverScenario:
    old_megw = topology.megw_of(old_enb)
    new_megw = topology.megw_of(new_enb)
    if old_megw == new_megw:
        return HandoverScenario.SAME_MEGW
    if topology.region_of(old_megw) == topology.region_of(new_megw):
        return HandoverScenario.SAME_REGION_DIFFERENT_MEGW
    return HandoverScenario.CROSS_REGION


@dataclass(slots=True)
class BearerContext:
    upstream_teid: int = 0       # eNB -> SGW path
    downstream_teid: int = 0     # SGW -> eNB path
    sgw_addr: int = 0

    def complete(self) -> bool:
        return self.upstream_teid != 0 and self.downstream_teid != 0


@dataclass(slots=True)
class UeContext:
    ue_ip: int
    enb_addr: int
    bearers: dict = field(default_factory=dict)  # bearer_id -> BearerContext
    silent: bool = False    # in the silent period: refuses flow misses


# --- effects ---------------------------------------------------------------
# Slotted: the log keeps every effect it is given for LOG_LIMIT entries.

@dataclass(frozen=True, slots=True)
class InstallRule:
    rule: FlowRule


@dataclass(frozen=True, slots=True)
class SilenceUe:
    ue_ip: int


@dataclass(frozen=True, slots=True)
class ReactivateUe:
    ue_ip: int
    teid_remap: tuple  # ((old_downstream, new_downstream), ...)
    new_enb_addr: int


@dataclass(frozen=True, slots=True)
class ReleaseUeRules:
    """Drop the subscriber's flow rules, and its silence with them."""

    ue_ip: int


@dataclass(frozen=True, slots=True)
class MigrationNotice:
    """Tell the application layer to move a subscriber's state.

    Emitted exactly once per cross-region handover, at silence start.
    Each MEC is the gateway stage I serves the subscriber from in the old
    and in the new region.
    """

    ue_ip: int
    old_mec: str
    new_mec: str
    issued_at: int = 0


@dataclass(frozen=True, slots=True)
class ScenarioDetected:
    ue_ip: int
    scenario: HandoverScenario
    old_enb: int
    new_enb: int


@dataclass(frozen=True, slots=True)
class OrphanMessage:
    kind: MessageKind
    ue_ip: int


@dataclass(frozen=True, slots=True)
class NoContext:
    upstream_teid: int


Effect = (InstallRule | SilenceUe | ReactivateUe | ReleaseUeRules
          | MigrationNotice | ScenarioDetected | OrphanMessage | NoContext)


# record fields that hold an IPv4 address: kept as ints, written dotted
_ADDRESS_FIELDS = frozenset({"ue_ip", "enb_addr", "sgw_addr", "new_enb_addr",
                             "old_enb", "new_enb", "enb", "src_ip", "dst_ip",
                             "dst", "src", "flow_src", "vip", "from"})


def dotted(value, name: str = ""):
    """A value as logs and traces show it: records (FlowRule, FiveTuple)
    become dicts, and integer addresses dotted strings."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {k: dotted(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [dotted(v) for v in value]
    if name in _ADDRESS_FIELDS and type(value) is int:
        return ip_str(value)
    return value


def _json_default(obj):
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def jsonl(records) -> str:
    """One JSON line per record (a dict or a NamedTuple), keys sorted and
    values as `dotted` gives them."""
    return "\n".join(json.dumps(dotted(r), sort_keys=True,
                                default=_json_default) for r in records)


# the names of a log entry's detail values, by event; an S1AP message
# names the subscriber
DETAIL_FIELDS = {"FLOW_MISS": ("five_tuple", "upstream_teid"),
                 "END_MARKER": ("enb", "teid")}


class LogEntry(NamedTuple):
    """One event in a processor's log, kept as values: the detail values
    in `DETAIL_FIELDS` order, and the very effects the handler returned.
    Dicts are built only when the log is read (`render`)."""

    seq: int
    event: str
    detail: tuple
    effects: tuple

    def render(self) -> dict:
        """The entry as `dump_jsonl` writes it, before `dotted`: each effect
        becomes its type name and fields, as `asdict` reads them (every
        effect holds immutable values)."""
        names = DETAIL_FIELDS.get(self.event, ("ue_ip",))
        return {"seq": self.seq, "event": self.event,
                "detail": dict(zip(names, self.detail)),
                "effects": [{"type": type(e).__name__,
                             **{f: getattr(e, f) for f in e.__slots__}}
                            for e in self.effects]}


class S1apProcessor:
    """Per-gateway controller over a local event loop.

    Events arrive one at a time in order; the effects of each event are
    applied to the data plane before the next event is consumed.
    """

    def __init__(self, megw_id: str, topology: TopologyView):
        self.megw_id = megw_id
        self.topology = topology
        self.contexts: dict[int, UeContext] = {}
        # (old eNB, downstream TEID) -> (context, scenario, new eNB)
        self.pending: dict[tuple[int, int], tuple] = {}
        self.clock = 0          # logical event counter
        self.log: deque[LogEntry] = deque(maxlen=LOG_LIMIT)

    # -- bookkeeping --------------------------------------------------------

    def _emit(self, event_name: str, detail: tuple, effects: list) -> list:
        self.clock += 1
        self.log.append(LogEntry(self.clock, event_name, detail,
                                 tuple(effects)))
        return effects

    def dump_jsonl(self) -> str:
        return jsonl(entry.render() for entry in self.log)

    def _pend(self, ctx: UeContext, scenario, new_enb: int) -> None:
        for bc in ctx.bearers.values():
            if bc.downstream_teid:
                self.pending[(ctx.enb_addr, bc.downstream_teid)] = (
                    ctx, scenario, new_enb)

    def _unpend(self, ctx: UeContext) -> None:
        """Drop the context's entries."""
        for bc in ctx.bearers.values():
            key = (ctx.enb_addr, bc.downstream_teid)
            if self.pending.get(key, (None,))[0] is ctx:
                del self.pending[key]

    # -- event handlers -----------------------------------------------------

    def on_control_message(self, msg: S1apLiteMessage) -> list:
        # _HANDLERS, below the handlers, raises KeyError for an unknown kind
        handler, creates, settles = self._HANDLERS[msg.kind]
        ctx = self.contexts.get(msg.ue_ip)
        if ctx is None and creates:
            ctx = self.contexts[msg.ue_ip] = UeContext(msg.ue_ip, msg.enb_addr)
        effects = None
        if ctx is not None:
            if settles:
                self._unpend(ctx)
            try:
                effects = handler(self, ctx, msg)
            except TopologyError:
                pass    # an eNB outside this gateway's view: no handover
            if settles:
                ctx.silent = False
        if effects is None:
            effects = [OrphanMessage(kind=msg.kind, ue_ip=msg.ue_ip)]
        return self._emit(msg.kind.name, (msg.ue_ip,), effects)

    def _on_ics_request(self, ctx: UeContext, msg: S1apLiteMessage) -> list:
        # a TEID names a tunnel only at the eNB that gave it: at a new eNB
        # no bearer keeps its downstream TEID until the response brings one.
        # The request names every bearer: others go
        old = ctx.bearers
        kept = old if msg.enb_addr == ctx.enb_addr else {}
        ctx.enb_addr = msg.enb_addr
        ctx.bearers = {}
        for item in msg.bearers:
            bc = ctx.bearers[item.bearer_id] = (kept.get(item.bearer_id)
                                                or BearerContext())
            bc.upstream_teid = item.upstream_teid
            bc.sgw_addr = item.transport_addr or msg.sgw_addr
        # rules on a tunnel that does not carry over would send return
        # traffic where no eNB listens, and silenced ones would hold it with
        # no acknowledgement to come: drop them
        release = ctx.silent or any(
            bc.downstream_teid and ctx.bearers.get(bid) is not bc
            for bid, bc in old.items())
        # TEID pairs are reconstructed here but no data-plane rule exists
        # until the subscriber actually opens an edge connection
        return [ReleaseUeRules(ue_ip=msg.ue_ip)] if release else []

    def _on_ics_response(self, ctx: UeContext, msg: S1apLiteMessage) -> list:
        # rules installed on a tunnel this setup replaces would send return
        # traffic where no eNB listens, and silenced rules would hold it:
        # drop them, so the next flow miss installs a rule on the new tunnel
        release = ctx.silent
        for item in msg.bearers:
            bc = ctx.bearers.setdefault(item.bearer_id, BearerContext())
            release |= bc.downstream_teid not in (0, item.downstream_teid)
            bc.downstream_teid = item.downstream_teid
        return [ReleaseUeRules(ue_ip=msg.ue_ip)] if release else []

    def _on_path_switch_request(self, ctx: UeContext,
                                msg: S1apLiteMessage) -> list:
        scenario = classify_handover(ctx.enb_addr, msg.enb_addr,
                                     self.topology)
        self._pend(ctx, scenario, msg.enb_addr)
        return [ScenarioDetected(ue_ip=msg.ue_ip, scenario=scenario,
                                 old_enb=ctx.enb_addr, new_enb=msg.enb_addr)]

    def _on_path_switch_ack(self, ctx: UeContext,
                            msg: S1apLiteMessage) -> list:
        remap = []
        new_bearers: dict[int, BearerContext] = {}
        for item in msg.bearers:
            new_bearers[item.bearer_id] = BearerContext(
                item.upstream_teid, item.downstream_teid, msg.sgw_addr)
            old = ctx.bearers.get(item.bearer_id)
            if old is not None and old.complete():
                remap.append((old.downstream_teid, item.downstream_teid))
        ctx.bearers = new_bearers
        ctx.enb_addr = msg.enb_addr
        return [ReactivateUe(ue_ip=msg.ue_ip, teid_remap=tuple(remap),
                             new_enb_addr=msg.enb_addr)]

    # each kind's (handler, creates a missing context, settles: ends any
    # pending handover and the silence); a gateway new to a subscriber sees
    # only step 8, so the acknowledgement rebuilds full tunnel state
    _HANDLERS = {
        MessageKind.INITIAL_CONTEXT_SETUP_REQUEST: (_on_ics_request,
                                                    True, True),
        MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE: (_on_ics_response,
                                                     False, True),
        MessageKind.PATH_SWITCH_REQUEST: (_on_path_switch_request,
                                          False, False),
        MessageKind.PATH_SWITCH_ACKNOWLEDGE: (_on_path_switch_ack,
                                              True, True),
    }

    def on_flow_miss(self, five_tuple: FiveTuple, upstream_teid: int) -> list:
        ctx = self.contexts.get(five_tuple.src_ip)
        bearers = () if ctx is None or ctx.silent else ctx.bearers.values()
        for bc in bearers:
            if bc.upstream_teid == upstream_teid and bc.complete():
                effects = [InstallRule(rule=FlowRule(
                    five_tuple, bc.downstream_teid, ctx.enb_addr,
                    bc.sgw_addr))]
                break
        else:
            effects = [NoContext(upstream_teid=upstream_teid)]
        return self._emit("FLOW_MISS", (five_tuple, upstream_teid), effects)

    def on_end_marker(self, enb_addr: int, teid: int) -> list:
        hit = self.pending.get((enb_addr, teid))
        effects: list = []
        if hit is not None:
            ctx, scenario, new_enb = hit
            self._unpend(ctx)
            effects.append(SilenceUe(ue_ip=ctx.ue_ip))
            if scenario is HandoverScenario.CROSS_REGION:
                effects.append(MigrationNotice(
                    ue_ip=ctx.ue_ip,
                    old_mec=self.topology.serving_megw(ctx.ue_ip, enb_addr),
                    new_mec=self.topology.serving_megw(ctx.ue_ip, new_enb),
                    issued_at=self.clock + 1))
            if scenario is HandoverScenario.SAME_MEGW:
                ctx.silent = True   # refuses flow misses
            else:
                # step 8 lands at the other gateway; rules kept here as
                # tombstones would swallow the subscriber's transit traffic
                effects.append(ReleaseUeRules(ue_ip=ctx.ue_ip))
                del self.contexts[ctx.ue_ip]
        return self._emit("END_MARKER", (enb_addr, teid), effects)
