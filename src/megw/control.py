"""Control-plane processor: one per gateway, no shared state.

Consumes cloned control messages, flow misses, and end-marker sightings
from the local data plane, reconstructs each subscriber's bearer-to-TEID
pairs, and emits data-plane effects as plain values. Keeping effects as
values makes the processor a deterministic, replayable state machine:
the caller applies them (or records them) in order.

Handover handling follows the X2 timeline. The path-switch request
classifies the scenario and files each bearer as pending under (old eNB,
downstream TEID), the pair that names a tunnel (3GPP TS 29.281); a bearer
still waiting for its response has TEID 0, which names none, and is left
out. An end marker is one lookup there: it opens the silent period,
triggers the migration notice for a move across regions, and drops the
context of a subscriber who moves to another gateway. A silence ends only
with an effect that ends it in the rule store too: the acknowledgement's
`ReactivateUe`, which moves the rules to the fresh tunnels and drops the
flows of bearers it does not list, or the `ReleaseUeRules` of an initial
context setup, which also ends any pending handover and drops the rules
on every tunnel it does not carry over. A path-switch request keeps it.
State and effects hold integer addresses; `dump_jsonl` writes them dotted.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass, field

from .gtp import ip_int, ip_str
from .s1ap import MessageKind, S1apLiteMessage
from .steering import FiveTuple, FlowRule

LOG_LIMIT = 4096    # effect-log entries a processor keeps


class TopologyError(KeyError):
    """An eNB or gateway id is missing from the topology view."""


@dataclass(frozen=True)
class TopologyView:
    """The static maps scenario classification needs (eNBs by address)."""

    enb_to_megw: dict
    megw_to_region: dict

    def __post_init__(self):
        object.__setattr__(self, "enb_to_megw", {
            ip_int(enb): megw for enb, megw in self.enb_to_megw.items()})

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


@dataclass
class BearerContext:
    upstream_teid: int = 0       # eNB -> SGW path
    downstream_teid: int = 0     # SGW -> eNB path
    sgw_addr: int = 0

    def complete(self) -> bool:
        return self.upstream_teid != 0 and self.downstream_teid != 0


@dataclass
class UeContext:
    ue_ip: int
    enb_addr: int
    bearers: dict = field(default_factory=dict)  # bearer_id -> BearerContext
    silent: bool = False    # in the silent period: refuses flow misses


# --- effects ---------------------------------------------------------------

@dataclass(frozen=True)
class InstallRule:
    rule: FlowRule


@dataclass(frozen=True)
class SilenceUe:
    ue_ip: int


@dataclass(frozen=True)
class ReactivateUe:
    ue_ip: int
    teid_remap: tuple  # ((old_downstream, new_downstream), ...)
    new_enb_addr: int


@dataclass(frozen=True)
class ReleaseUeRules:
    """Drop the subscriber's flow rules, and its silence with them."""

    ue_ip: int


@dataclass(frozen=True)
class MigrationNotice:
    """Tell the application layer to move a subscriber's state.

    Emitted exactly once per cross-region handover, at silence start.
    """

    ue_ip: int
    old_mec: str
    new_mec: str
    issued_at: int = 0


@dataclass(frozen=True)
class ScenarioDetected:
    ue_ip: int
    scenario: HandoverScenario
    old_enb: int
    new_enb: int


@dataclass(frozen=True)
class OrphanMessage:
    kind: MessageKind
    ue_ip: int


@dataclass(frozen=True)
class NoContext:
    upstream_teid: int


Effect = (InstallRule | SilenceUe | ReactivateUe | ReleaseUeRules
          | MigrationNotice | ScenarioDetected | OrphanMessage | NoContext)


# fields that hold an IPv4 address, which logs and traces write dotted
_ADDRESS_FIELDS = frozenset({"ue_ip", "enb_addr", "sgw_addr", "new_enb_addr",
                             "old_enb", "new_enb", "enb", "src_ip", "dst_ip"})


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
    if isinstance(obj, (bytes, bytearray)):
        return obj.hex()
    return str(obj)


def jsonl(records) -> str:
    """One JSON line per record (a dict or a NamedTuple), keys sorted and
    values as `dotted` gives them."""
    return "\n".join(json.dumps(dotted(r), sort_keys=True,
                                default=_json_default) for r in records)


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
        self.log: deque[dict] = deque(maxlen=LOG_LIMIT)

    # -- bookkeeping --------------------------------------------------------

    def _emit(self, event_name: str, detail: dict, effects: list) -> list:
        self.clock += 1
        # effects hold immutable values: their `vars` read as `asdict` would
        self.log.append({"seq": self.clock, "event": event_name,
                         "detail": detail, "effects": [
                             {"type": type(e).__name__, **vars(e)}
                             for e in effects]})
        return effects

    def dump_jsonl(self) -> str:
        return jsonl(self.log)

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
        effects = self._HANDLERS[msg.kind](self, msg)
        return self._emit(msg.kind.name, {"ue_ip": msg.ue_ip}, effects)

    def _on_ics_request(self, msg: S1apLiteMessage) -> list:
        ctx = self.contexts.get(msg.ue_ip)
        if ctx is None:
            ctx = UeContext(ue_ip=msg.ue_ip, enb_addr=msg.enb_addr)
            self.contexts[msg.ue_ip] = ctx
        self._unpend(ctx)           # a setup ends any pending handover
        # a TEID names a tunnel only at the eNB that gave it: at a new eNB
        # no bearer keeps its downstream TEID until the response brings one.
        # The request names every bearer: others go
        old = ctx.bearers
        kept = old if msg.enb_addr == ctx.enb_addr else {}
        ctx.enb_addr = msg.enb_addr
        ctx.bearers = {item.bearer_id: kept.get(item.bearer_id)
                       or BearerContext() for item in msg.bearers}
        for item in msg.bearers:
            bc = ctx.bearers[item.bearer_id]
            bc.upstream_teid = item.upstream_teid
            bc.sgw_addr = item.transport_addr or msg.sgw_addr
        # rules on a tunnel that does not carry over would send return
        # traffic where no eNB listens, and silenced ones would hold it with
        # no acknowledgement to come: drop them
        release = ctx.silent or any(
            bc.downstream_teid and ctx.bearers.get(bid) is not bc
            for bid, bc in old.items())
        ctx.silent = False
        # TEID pairs are reconstructed here but no data-plane rule exists
        # until the subscriber actually opens an edge connection
        return [ReleaseUeRules(ue_ip=msg.ue_ip)] if release else []

    def _on_ics_response(self, msg: S1apLiteMessage) -> list:
        ctx = self.contexts.get(msg.ue_ip)
        if ctx is None:
            return [OrphanMessage(kind=msg.kind, ue_ip=msg.ue_ip)]
        self._unpend(ctx)
        # rules installed on a tunnel this setup replaces would send return
        # traffic where no eNB listens, and silenced rules would hold it:
        # drop them, so the next flow miss installs a rule on the new tunnel
        release = ctx.silent
        for item in msg.bearers:
            bc = ctx.bearers.setdefault(item.bearer_id, BearerContext())
            release |= bc.downstream_teid not in (0, item.downstream_teid)
            bc.downstream_teid = item.downstream_teid
        ctx.silent = False
        return [ReleaseUeRules(ue_ip=msg.ue_ip)] if release else []

    def _on_path_switch_request(self, msg: S1apLiteMessage) -> list:
        ctx = self.contexts.get(msg.ue_ip)
        if ctx is None:
            return [OrphanMessage(kind=msg.kind, ue_ip=msg.ue_ip)]
        try:
            scenario = classify_handover(ctx.enb_addr, msg.enb_addr,
                                         self.topology)
        except TopologyError:
            # an eNB outside this gateway's view: nothing to hand over to
            return [OrphanMessage(kind=msg.kind, ue_ip=msg.ue_ip)]
        self._pend(ctx, scenario, msg.enb_addr)
        return [ScenarioDetected(ue_ip=msg.ue_ip, scenario=scenario,
                                 old_enb=ctx.enb_addr, new_enb=msg.enb_addr)]

    def _on_path_switch_ack(self, msg: S1apLiteMessage) -> list:
        ctx = self.contexts.get(msg.ue_ip)
        if ctx is None:
            # a gateway new to this subscriber sees nothing but step 8;
            # the acknowledgement alone must rebuild full tunnel state
            ctx = UeContext(ue_ip=msg.ue_ip, enb_addr=msg.enb_addr)
            self.contexts[msg.ue_ip] = ctx
        self._unpend(ctx)
        remap = []
        new_bearers: dict[int, BearerContext] = {}
        for item in msg.bearers:
            new_bearers[item.bearer_id] = BearerContext(
                upstream_teid=item.upstream_teid,
                downstream_teid=item.downstream_teid, sgw_addr=msg.sgw_addr)
            old = ctx.bearers.get(item.bearer_id)
            if old is not None and old.complete():
                remap.append((old.downstream_teid, item.downstream_teid))
        ctx.bearers = new_bearers
        ctx.enb_addr = msg.enb_addr
        ctx.silent = False
        return [ReactivateUe(ue_ip=msg.ue_ip, teid_remap=tuple(remap),
                             new_enb_addr=msg.enb_addr)]

    _HANDLERS = {
        MessageKind.INITIAL_CONTEXT_SETUP_REQUEST: _on_ics_request,
        MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE: _on_ics_response,
        MessageKind.PATH_SWITCH_REQUEST: _on_path_switch_request,
        MessageKind.PATH_SWITCH_ACKNOWLEDGE: _on_path_switch_ack,
    }

    def on_flow_miss(self, five_tuple: FiveTuple, upstream_teid: int) -> list:
        ctx = self.contexts.get(five_tuple.src_ip)
        effects = [NoContext(upstream_teid=upstream_teid)]
        if ctx is not None and not ctx.silent:
            for bc in ctx.bearers.values():
                if bc.upstream_teid == upstream_teid and bc.complete():
                    effects = [InstallRule(rule=FlowRule(
                        five_tuple, bc.downstream_teid, ctx.enb_addr,
                        bc.sgw_addr))]
                    break
        return self._emit("FLOW_MISS", {"five_tuple": five_tuple,
                                        "upstream_teid": upstream_teid},
                          effects)

    def on_end_marker(self, enb_addr: int, teid: int) -> list:
        hit = self.pending.get((enb_addr, teid))
        effects: list = []
        if hit is not None:
            ctx, scenario, new_enb = hit
            self._unpend(ctx)
            effects.append(SilenceUe(ue_ip=ctx.ue_ip))
            if scenario is HandoverScenario.CROSS_REGION:
                effects.append(MigrationNotice(
                    ue_ip=ctx.ue_ip, old_mec=self.topology.megw_of(enb_addr),
                    new_mec=self.topology.megw_of(new_enb),
                    issued_at=self.clock + 1))
            if scenario is HandoverScenario.SAME_MEGW:
                ctx.silent = True   # refuses flow misses
            else:
                # step 8 lands at the other gateway; rules kept here as
                # tombstones would swallow the subscriber's transit traffic
                effects.append(ReleaseUeRules(ue_ip=ctx.ue_ip))
                del self.contexts[ctx.ue_ip]
        return self._emit("END_MARKER", {"enb": enb_addr, "teid": teid},
                          effects)
