"""Control-plane processor: one per gateway, no shared state.

Consumes cloned control messages, flow misses, and end-marker sightings
from the local data plane, reconstructs each subscriber's bearer-to-TEID
pairs, and emits data-plane effects as plain values. Keeping effects as
values makes the processor a deterministic, replayable state machine:
the caller applies them (or records them) in order.

Handover handling follows the X2 timeline: the path-switch request marks
the start and classifies the scenario, the end marker on the old path
opens the silent period (and triggers the migration notice when the move
crosses a region), and the path-switch acknowledgement closes it with
fresh tunnel state.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .s1ap import MessageKind, S1apLiteMessage
from .steering import FiveTuple, FlowRule, RuleState


class TopologyError(KeyError):
    """An eNB or gateway id is missing from the topology view."""


@dataclass(frozen=True)
class TopologyView:
    """The static maps scenario classification needs."""

    enb_to_megw: dict
    megw_to_region: dict

    def megw_of(self, enb_addr: str) -> str:
        try:
            return self.enb_to_megw[enb_addr]
        except KeyError:
            raise TopologyError(f"unknown eNB {enb_addr!r}") from None

    def region_of(self, megw_id: str) -> str:
        try:
            return self.megw_to_region[megw_id]
        except KeyError:
            raise TopologyError(f"unknown gateway {megw_id!r}") from None


class HandoverScenario(enum.Enum):
    SAME_MEGW = "same-megw"
    SAME_REGION_DIFFERENT_MEGW = "same-region-different-megw"
    CROSS_REGION = "cross-region"


def classify_handover(old_enb: str, new_enb: str,
                      topology: TopologyView) -> HandoverScenario:
    old_megw = topology.megw_of(old_enb)
    new_megw = topology.megw_of(new_enb)
    if old_megw == new_megw:
        return HandoverScenario.SAME_MEGW
    if topology.region_of(old_megw) == topology.region_of(new_megw):
        return HandoverScenario.SAME_REGION_DIFFERENT_MEGW
    return HandoverScenario.CROSS_REGION


class UePhase(enum.Enum):
    ATTACHED = "attached"
    HANDOVER_IN_PROGRESS = "handover-in-progress"
    SILENT_PERIOD = "silent-period"


@dataclass
class BearerContext:
    upstream_teid: int = 0       # eNB -> SGW path
    downstream_teid: int = 0     # SGW -> eNB path
    sgw_addr: str = "0.0.0.0"

    def complete(self) -> bool:
        return self.upstream_teid != 0 and self.downstream_teid != 0


@dataclass
class UeContext:
    ue_ip: str
    enb_addr: str
    bearers: dict = field(default_factory=dict)  # bearer_id -> BearerContext
    phase: UePhase = UePhase.ATTACHED
    old_enb: str | None = None
    new_enb: str | None = None
    scenario: HandoverScenario | None = None
    # pairs released at the end marker, kept only to remap rules at step 8
    released: dict = field(default_factory=dict)


# --- effects ---------------------------------------------------------------

@dataclass(frozen=True)
class InstallRule:
    rule: FlowRule
    seq: int = 0


@dataclass(frozen=True)
class SilenceUe:
    ue_ip: str
    seq: int = 0


@dataclass(frozen=True)
class ReactivateUe:
    ue_ip: str
    teid_remap: tuple  # ((old_downstream, new_downstream), ...)
    new_enb_addr: str
    seq: int = 0


@dataclass(frozen=True)
class ReleaseUeRules:
    """Drop the subscriber's flow rules: it now belongs to another gateway."""

    ue_ip: str
    seq: int = 0


@dataclass(frozen=True)
class MigrationNotice:
    """Tell the application layer to move a subscriber's state.

    Emitted exactly once per cross-region handover, at silence start.
    """

    ue_ip: str
    old_mec: str
    new_mec: str
    issued_at: int = 0
    seq: int = 0


@dataclass(frozen=True)
class ScenarioDetected:
    ue_ip: str
    scenario: HandoverScenario
    old_enb: str
    new_enb: str
    seq: int = 0


@dataclass(frozen=True)
class OrphanMessage:
    kind: MessageKind
    ue_ip: str
    seq: int = 0


@dataclass(frozen=True)
class NoContext:
    upstream_teid: int
    seq: int = 0


Effect = (InstallRule | SilenceUe | ReactivateUe | ReleaseUeRules
          | MigrationNotice | ScenarioDetected | OrphanMessage | NoContext)


def _shallow_asdict(obj) -> dict:
    """`dataclasses.asdict` without its deep copy: nested dataclasses become
    dicts, every other value is shared. The effects hold only immutable
    values, so the log reads the same and costs a fraction of the time."""
    return {f.name: _shallow_asdict(v) if is_dataclass(v) else v
            for f in fields(obj) for v in (getattr(obj, f.name),)}


def _json_default(obj):
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (bytes, bytearray)):
        return obj.hex()
    return str(obj)


class S1apProcessor:
    """Per-gateway controller over a local event loop.

    Events arrive one at a time in order; the effects of each event are
    applied to the data plane before the next event is consumed.
    """

    def __init__(self, megw_id: str, topology: TopologyView):
        self.megw_id = megw_id
        self.topology = topology
        self.contexts: dict[str, UeContext] = {}
        self.clock = 0          # logical event counter
        self.log: list[dict] = []

    # -- bookkeeping --------------------------------------------------------

    def _emit(self, event_name: str, detail: dict, effects: list) -> list:
        self.clock += 1
        stamped = [replace(eff, seq=self.clock) for eff in effects]
        self.log.append({"seq": self.clock, "event": event_name,
                         "detail": detail, "effects": [
                             {"type": type(e).__name__, **_shallow_asdict(e)}
                             for e in stamped]})
        return stamped

    def dump_jsonl(self) -> str:
        return "\n".join(json.dumps(entry, sort_keys=True,
                                    default=_json_default)
                         for entry in self.log)

    # -- event handlers -----------------------------------------------------

    def on_control_message(self, msg: S1apLiteMessage) -> list:
        handler = {
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST: self._on_ics_request,
            MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE: self._on_ics_response,
            MessageKind.PATH_SWITCH_REQUEST: self._on_path_switch_request,
            MessageKind.PATH_SWITCH_ACKNOWLEDGE: self._on_path_switch_ack,
        }[msg.kind]
        effects = handler(msg)
        return self._emit(msg.kind.name, {"ue_ip": msg.ue_ip}, effects)

    def _on_ics_request(self, msg: S1apLiteMessage) -> list:
        ctx = self.contexts.get(msg.ue_ip)
        if ctx is None:
            ctx = UeContext(ue_ip=msg.ue_ip, enb_addr=msg.enb_addr)
            self.contexts[msg.ue_ip] = ctx
        ctx.enb_addr = msg.enb_addr
        for item in msg.bearers:
            bc = ctx.bearers.setdefault(item.bearer_id, BearerContext())
            bc.upstream_teid = item.upstream_teid
            bc.sgw_addr = (item.transport_addr if item.transport_addr != "0.0.0.0"
                           else msg.sgw_addr)
        # TEID pairs are reconstructed here but no data-plane rule exists
        # until the subscriber actually opens an edge connection
        return []

    def _on_ics_response(self, msg: S1apLiteMessage) -> list:
        ctx = self.contexts.get(msg.ue_ip)
        if ctx is None:
            return [OrphanMessage(kind=msg.kind, ue_ip=msg.ue_ip)]
        for item in msg.bearers:
            bc = ctx.bearers.setdefault(item.bearer_id, BearerContext())
            bc.downstream_teid = item.downstream_teid
        ctx.phase = UePhase.ATTACHED
        return []

    def _on_path_switch_request(self, msg: S1apLiteMessage) -> list:
        ctx = self.contexts.get(msg.ue_ip)
        if ctx is None:
            return [OrphanMessage(kind=msg.kind, ue_ip=msg.ue_ip)]
        old_enb = ctx.enb_addr
        new_enb = msg.enb_addr
        scenario = classify_handover(old_enb, new_enb, self.topology)
        ctx.phase = UePhase.HANDOVER_IN_PROGRESS
        ctx.old_enb = old_enb
        ctx.new_enb = new_enb
        ctx.scenario = scenario
        return [ScenarioDetected(ue_ip=msg.ue_ip, scenario=scenario,
                                 old_enb=old_enb, new_enb=new_enb)]

    def _on_path_switch_ack(self, msg: S1apLiteMessage) -> list:
        ctx = self.contexts.get(msg.ue_ip)
        if ctx is None:
            # a gateway new to this subscriber sees nothing but step 8;
            # the acknowledgement alone must rebuild full tunnel state
            ctx = UeContext(ue_ip=msg.ue_ip, enb_addr=msg.enb_addr)
            self.contexts[msg.ue_ip] = ctx
        old_pairs = ctx.released or {
            bid: bc for bid, bc in ctx.bearers.items() if bc.complete()}
        remap = []
        new_bearers: dict[int, BearerContext] = {}
        for item in msg.bearers:
            bc = BearerContext(upstream_teid=item.upstream_teid,
                               downstream_teid=item.downstream_teid,
                               sgw_addr=msg.sgw_addr)
            new_bearers[item.bearer_id] = bc
            old = old_pairs.get(item.bearer_id)
            if old is not None and old.downstream_teid:
                remap.append((old.downstream_teid, item.downstream_teid))
        ctx.bearers = new_bearers
        ctx.enb_addr = msg.enb_addr
        ctx.phase = UePhase.ATTACHED
        ctx.old_enb = ctx.new_enb = None
        ctx.scenario = None
        ctx.released = {}
        return [ReactivateUe(ue_ip=msg.ue_ip, teid_remap=tuple(remap),
                             new_enb_addr=msg.enb_addr)]

    def on_flow_miss(self, five_tuple: FiveTuple, upstream_teid: int) -> list:
        effects = self._flow_miss_effects(five_tuple, upstream_teid)
        return self._emit("FLOW_MISS",
                          {"five_tuple": _shallow_asdict(five_tuple),
                           "upstream_teid": upstream_teid}, effects)

    def _flow_miss_effects(self, five_tuple: FiveTuple,
                           upstream_teid: int) -> list:
        ctx = self.contexts.get(five_tuple.src_ip)
        if ctx is None or ctx.phase is UePhase.SILENT_PERIOD:
            return [NoContext(upstream_teid=upstream_teid)]
        for bc in ctx.bearers.values():
            if bc.upstream_teid == upstream_teid and bc.complete():
                rule = FlowRule(key=five_tuple,
                                downstream_teid=bc.downstream_teid,
                                enb_addr=ctx.enb_addr, sgw_addr=bc.sgw_addr,
                                state=RuleState.ACTIVE)
                return [InstallRule(rule=rule)]
        return [NoContext(upstream_teid=upstream_teid)]

    def on_end_marker(self, teid: int) -> list:
        effects = self._end_marker_effects(teid)
        return self._emit("END_MARKER", {"teid": teid}, effects)

    def _end_marker_effects(self, teid: int) -> list:
        for ctx in self.contexts.values():
            if ctx.phase is not UePhase.HANDOVER_IN_PROGRESS:
                continue
            if not any(bc.downstream_teid == teid
                       for bc in ctx.bearers.values()):
                continue
            effects: list = [SilenceUe(ue_ip=ctx.ue_ip)]
            if ctx.scenario is HandoverScenario.CROSS_REGION:
                old_megw = self.topology.megw_of(ctx.old_enb)
                new_megw = self.topology.megw_of(ctx.new_enb)
                effects.append(MigrationNotice(
                    ue_ip=ctx.ue_ip, old_mec=old_megw, new_mec=new_megw,
                    issued_at=self.clock + 1))
            if ctx.scenario is not HandoverScenario.SAME_MEGW:
                # the acknowledgement will land at the other gateway, so no
                # reactivation ever reaches these rules: remove them outright
                # rather than leave tombstones that would swallow this
                # subscriber's traffic transiting here after the handover
                effects.append(ReleaseUeRules(ue_ip=ctx.ue_ip))
            # release the old pairs: no rule may be built from them again,
            # but remember the TEIDs so step 8 can remap existing rules
            ctx.released = {bid: bc for bid, bc in ctx.bearers.items()}
            ctx.bearers = {}
            ctx.phase = UePhase.SILENT_PERIOD
            return effects
        return []
