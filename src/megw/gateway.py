"""One mobile-edge gateway: a steering pipeline with its local controller.

`Gateway.handle(frame, ingress)` runs `steering.process_packet`, hands
each clone to the processor and applies every effect to the tables, all
before it returns. It returns what the frame caused, in order, as flat
`(action, detail)` pairs in the trace vocabulary: a forward is
`(FORWARD, (dst, data, note))` with `dst` an address int, any other
event's detail the dict a trace records. Gateways share no table.
"""

from __future__ import annotations

import functools

from . import s1ap, steering
from .control import (InstallRule, MigrationNotice, ReactivateUe,
                      ReleaseUeRules, S1apProcessor, SilenceUe, TopologyView)
from .gtp import Direction, ip_int
from .steering import (DipAffinityTable, Drop, Emit, EndMarkerSeen, Multiple,
                       RuleStore, S1apClone, SteeringConfig)

FORWARD = "Forward"
DROPPED = "Dropped"
CLONED = "Cloned"
RULE_INSTALLED = "RuleInstalled"
SILENCED = "Silenced"
REACTIVATED = "Reactivated"
MIGRATION_NOTIFIED = "MigrationNotified"


class Gateway:
    """A steering pipeline with its local controller beside it."""

    def __init__(self, config: SteeringConfig, view: TopologyView):
        self.config = config
        self.rules = RuleStore()
        self.affinity = DipAffinityTable()
        self.processor = S1apProcessor(config.megw_id, view)
        # `Emit.dst` is dotted until ROADMAP item 1: read each back once
        self._ip = functools.lru_cache(maxsize=4096)(ip_int)

    def handle(self, frame: bytes, ingress: Direction) -> list:
        """The frame's forwards and events, in order; its effects applied."""
        action = steering.process_packet(frame, ingress, self.config,
                                         self.rules, self.affinity)
        out = []
        # process_packet never nests a Multiple
        for act in (action.actions if isinstance(action, Multiple)
                    else (action,)):
            if isinstance(act, Emit):
                out.append((FORWARD, (self._ip(act.dst), act.data, act.note)))
            elif isinstance(act, Drop):
                out.append((DROPPED, {"reason": act.reason}))
            else:   # a CloneToController
                self._clone(act.event, out)
        return out

    def _clone(self, event, out: list) -> None:
        proc, rules = self.processor, self.rules
        if isinstance(event, S1apClone):
            try:
                msg = s1ap.decode_message(event.payload)
            except s1ap.S1apDecodeError as exc:
                out.append((CLONED, {"kind": "s1ap", "error": str(exc)}))
                return
            out.append((CLONED, {"kind": "s1ap", "message": msg.kind.name,
                                 "ue_ip": msg.ue_ip}))
            effects = proc.on_control_message(msg)
        elif isinstance(event, EndMarkerSeen):
            out.append((CLONED, {"kind": "end-marker", "teid": event.teid}))
            effects = proc.on_end_marker(event.enb_addr, event.teid)
        else:   # a FlowMiss
            out.append((CLONED, {"kind": "flow-miss",
                                 "ue_ip": event.five_tuple.src_ip,
                                 "upstream_teid": event.upstream_teid}))
            effects = proc.on_flow_miss(event.five_tuple, event.upstream_teid)
        for eff in effects:
            if isinstance(eff, InstallRule):
                rules.install(eff.rule)
                out.append((RULE_INSTALLED, {
                    "ue_ip": eff.rule.key.src_ip, "flow": eff.rule.key,
                    "downstream_teid": eff.rule.downstream_teid}))
            elif isinstance(eff, SilenceUe):
                n = rules.set_ue_silent(eff.ue_ip)
                out.append((SILENCED, {"ue_ip": eff.ue_ip, "rules": n}))
            elif isinstance(eff, ReactivateUe):
                n = rules.reactivate_ue(eff.ue_ip, dict(eff.teid_remap),
                                        eff.new_enb_addr)
                out.append((REACTIVATED, {"ue_ip": eff.ue_ip, "rules": n,
                                          "new_enb": eff.new_enb_addr}))
            elif isinstance(eff, MigrationNotice):
                out.append((MIGRATION_NOTIFIED, {"ue_ip": eff.ue_ip,
                                                 "old_mec": eff.old_mec,
                                                 "new_mec": eff.new_mec}))
            elif isinstance(eff, ReleaseUeRules):
                rules.release_ue(eff.ue_ip)     # no trace event
            # ScenarioDetected / Orphan / NoContext stay in the processor log
