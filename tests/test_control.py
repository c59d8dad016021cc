"""Control-plane processor: TEID reconstruction, handovers, effects."""

import itertools
import json
import typing
from dataclasses import asdict

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from megw import control
from megw.gtp import ip_int, ip_str
from megw.control import (HandoverScenario, InstallRule,
                          MigrationNotice, NoContext, OrphanMessage,
                          ReactivateUe, ReleaseUeRules, S1apProcessor,
                          ScenarioDetected, SilenceUe, TopologyError,
                          TopologyView, UePhase, classify_handover)
from megw.s1ap import BearerItem, MessageKind, S1apLiteMessage
from megw.steering import FiveTuple, FlowRule, RuleState, RuleStore

UE = ip_int("172.16.0.2")
ENB1, ENB2, ENB3, ENB4 = map(ip_int, ("10.1.0.1", "10.1.0.2", "10.1.0.3",
                                      "10.1.0.4"))
SGW = ip_int("10.2.0.1")
VIP = ip_int("10.100.1.1")
OTHER_UE = ip_int("172.16.0.3")

TOPOLOGY = TopologyView(
    enb_to_megw={"10.1.0.1": "mgw-a", "10.1.0.2": "mgw-a",
                 "10.1.0.3": "mgw-b", "10.1.0.4": "mgw-c"},
    megw_to_region={"mgw-a": "r1", "mgw-b": "r1", "mgw-c": "r2"},
)


def msg(kind, bearers, ue_ip=UE, enb=ENB1):
    return S1apLiteMessage(kind=kind, mme_ue_id=1, enb_ue_id=2, ue_ip=ue_ip,
                           enb_addr=enb, sgw_addr=SGW, bearers=tuple(bearers))


def attach(proc, ue_ip=UE, enb=ENB1, pairs=((5, 100, 200),)):
    proc.on_control_message(msg(
        MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
        [BearerItem(bid, upstream_teid=up, transport_addr=SGW)
         for bid, up, _ in pairs], ue_ip=ue_ip, enb=enb))
    proc.on_control_message(msg(
        MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE,
        [BearerItem(bid, downstream_teid=down, transport_addr=enb)
         for bid, _, down in pairs], ue_ip=ue_ip, enb=enb))


class TestClassifyHandover:
    def test_same_megw(self):
        assert classify_handover(ENB1, ENB2, TOPOLOGY) \
            is HandoverScenario.SAME_MEGW

    def test_same_region_different_megw(self):
        assert classify_handover(ENB1, ENB3, TOPOLOGY) \
            is HandoverScenario.SAME_REGION_DIFFERENT_MEGW

    def test_cross_region(self):
        assert classify_handover(ENB1, ENB4, TOPOLOGY) \
            is HandoverScenario.CROSS_REGION

    def test_unknown_enb(self):
        with pytest.raises(TopologyError):
            classify_handover(ip_int("10.9.9.9"), ENB1, TOPOLOGY)


class TestAttach:
    def test_pairs_recorded_no_rules(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc, pairs=((5, 100, 200),))
        ctx = proc.contexts[UE]
        assert ctx.bearers[5].upstream_teid == 100
        assert ctx.bearers[5].downstream_teid == 200
        assert ctx.phase is UePhase.ATTACHED
        installs = [e for entry in proc.log for e in entry["effects"]
                    if e["type"] == "InstallRule"]
        assert installs == []

    def test_response_alone_is_orphan(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        effects = proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE,
            [BearerItem(5, downstream_teid=200)]))
        assert any(isinstance(e, OrphanMessage) for e in effects)
        assert UE not in proc.contexts

    def test_reattach_refreshes(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        attach(proc)
        assert len(proc.contexts) == 1

    def test_reattach_drops_unlisted_bearers(self):
        # a re-attach at another eNB that lists only bearer 5 must not keep
        # bearer 6 with the downstream TEID the first eNB gave it
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc, enb=ENB1, pairs=((5, 100, 200), (6, 101, 201)))
        attach(proc, enb=ENB2, pairs=((5, 100, 300),))
        assert set(proc.contexts[UE].bearers) == {5}
        effects = proc.on_flow_miss(FiveTuple(UE, VIP, 6, 5001, 80), 101)
        assert isinstance(effects[0], NoContext)
        rule = proc.on_flow_miss(FiveTuple(UE, VIP, 6, 5000, 80), 100)[0].rule
        assert (rule.enb_addr, rule.downstream_teid) == (ENB2, 300)


def apply(store, effects):
    """Apply the effects that touch flow rules, as a gateway does."""
    for eff in effects:
        if isinstance(eff, InstallRule):
            store.install(eff.rule)
        elif isinstance(eff, SilenceUe):
            store.set_ue_silent(eff.ue_ip)
        elif isinstance(eff, ReactivateUe):
            store.reactivate_ue(eff.ue_ip, dict(eff.teid_remap),
                                eff.new_enb_addr)
        elif isinstance(eff, ReleaseUeRules):
            store.release_ue(eff.ue_ip)
    return effects


class TestReattachInSilentPeriod:
    def test_flow_miss_installs_on_new_tunnel(self):
        # the end marker silenced the flow on TEID 200; a re-attach at
        # 10.1.0.2 before any acknowledgement must not strand it there
        proc, store = S1apProcessor("mgw-a", TOPOLOGY), RuleStore()
        attach(proc, enb=ENB1, pairs=((5, 100, 200),))
        flow = FiveTuple(UE, VIP, 6, 5000, 80)
        apply(store, proc.on_flow_miss(flow, 100))
        apply(store, proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_REQUEST,
            [BearerItem(5, upstream_teid=100)], enb=ENB2)))
        apply(store, proc.on_end_marker(ENB1, 200))
        assert store.lookup(flow).state is RuleState.SILENT
        effects = apply(store, proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
            [BearerItem(5, upstream_teid=100, transport_addr=SGW)],
            enb=ENB2)))
        assert [type(e) for e in effects] == [ReleaseUeRules]
        assert store.lookup(flow) is None
        apply(store, proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE,
            [BearerItem(5, downstream_teid=300, transport_addr=ENB2)],
            enb=ENB2)))
        apply(store, proc.on_flow_miss(flow, 100))
        rule = store.lookup(flow)
        assert (rule.downstream_teid, rule.enb_addr, rule.state) == (
            300, ENB2, RuleState.ACTIVE)

    def test_attached_reattach_releases_nothing(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        effects = proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
            [BearerItem(5, upstream_teid=100, transport_addr=SGW)]))
        assert effects == []


class TestFlowMiss:
    def test_installs_rule_with_paired_teid(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc, pairs=((5, 100, 200),))
        ft = FiveTuple(UE, VIP, 6, 5000, 80)
        effects = proc.on_flow_miss(ft, upstream_teid=100)
        assert len(effects) == 1
        rule = effects[0].rule
        assert rule.key == ft
        assert rule.downstream_teid == 200
        assert rule.enb_addr == ENB1
        assert rule.sgw_addr == SGW
        assert rule.state is RuleState.ACTIVE

    def test_two_flows_two_bearers(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc, pairs=((5, 100, 200), (6, 101, 201)))
        r1 = proc.on_flow_miss(FiveTuple(UE, VIP, 6, 5000, 80),
                               upstream_teid=100)[0].rule
        r2 = proc.on_flow_miss(FiveTuple(UE, VIP, 6, 5001, 80),
                               upstream_teid=101)[0].rule
        assert (r1.downstream_teid, r2.downstream_teid) == (200, 201)

    def test_unknown_teid_no_context(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        effects = proc.on_flow_miss(FiveTuple(UE, VIP, 6, 1, 2),
                                    upstream_teid=999)
        assert isinstance(effects[0], NoContext)

    def test_unknown_ue_no_context(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        effects = proc.on_flow_miss(
            FiveTuple(ip_int("172.16.99.99"), VIP, 6, 1, 2), 100)
        assert isinstance(effects[0], NoContext)

    def test_incomplete_pair_no_rule(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
            [BearerItem(5, upstream_teid=100)]))
        effects = proc.on_flow_miss(FiveTuple(UE, VIP, 6, 1, 2), 100)
        assert isinstance(effects[0], NoContext)


def run_handover(proc, new_enb, old_down=200, new_pair=(100, 300)):
    """Path switch request, end marker, then acknowledgement."""
    eff_req = proc.on_control_message(msg(
        MessageKind.PATH_SWITCH_REQUEST,
        [BearerItem(5, upstream_teid=new_pair[0])], enb=new_enb))
    eff_end = proc.on_end_marker(ENB1, old_down)
    eff_ack = proc.on_control_message(msg(
        MessageKind.PATH_SWITCH_ACKNOWLEDGE,
        [BearerItem(5, upstream_teid=new_pair[0],
                    downstream_teid=new_pair[1])], enb=new_enb))
    return eff_req, eff_end, eff_ack


class TestHandover:
    def test_same_megw_sequence(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        eff_req, eff_end, eff_ack = run_handover(proc, ENB2)
        assert any(isinstance(e, ScenarioDetected)
                   and e.scenario is HandoverScenario.SAME_MEGW
                   for e in eff_req)
        assert any(isinstance(e, SilenceUe) for e in eff_end)
        assert not any(isinstance(e, MigrationNotice) for e in eff_end)
        react = [e for e in eff_ack if isinstance(e, ReactivateUe)]
        assert react and react[0].teid_remap == ((200, 300),)
        assert react[0].new_enb_addr == ENB2
        assert proc.contexts[UE].phase is UePhase.ATTACHED

    def test_silent_period_blocks_new_rules(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        proc.on_control_message(msg(MessageKind.PATH_SWITCH_REQUEST,
                                    [BearerItem(5, upstream_teid=100)],
                                    enb=ENB2))
        proc.on_end_marker(ENB1, 200)
        assert proc.contexts[UE].phase is UePhase.SILENT_PERIOD
        effects = proc.on_flow_miss(FiveTuple(UE, VIP, 6, 1, 2), 100)
        assert isinstance(effects[0], NoContext)

    def test_cross_region_notice_at_silence_start(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        eff_req, eff_end, _ = run_handover(proc, ENB4)
        assert not any(isinstance(e, MigrationNotice) for e in eff_req)
        notices = [e for e in eff_end if isinstance(e, MigrationNotice)]
        assert len(notices) == 1
        assert notices[0].old_mec == "mgw-a"
        assert notices[0].new_mec == "mgw-c"
        # silence and notice share the same logical event
        silences = [e for e in eff_end if isinstance(e, SilenceUe)]
        assert silences[0].seq == notices[0].seq

    def test_same_region_no_notice(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        _, eff_end, _ = run_handover(proc, ENB3)
        assert not any(isinstance(e, MigrationNotice) for e in eff_end)

    def test_unknown_end_marker_ignored(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        assert proc.on_end_marker(ENB1, 0xDEAD) == []

    def test_end_marker_before_handover_ignored(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        # not in handover: end markers do not silence anyone
        assert proc.on_end_marker(ENB1, 200) == []

    def test_ack_constructs_context_at_new_gateway(self):
        proc = S1apProcessor("mgw-b", TOPOLOGY)
        effects = proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_ACKNOWLEDGE,
            [BearerItem(5, upstream_teid=100, downstream_teid=300)],
            enb=ENB3))
        assert any(isinstance(e, ReactivateUe) for e in effects)
        ctx = proc.contexts[UE]
        assert ctx.bearers[5].upstream_teid == 100
        assert ctx.bearers[5].downstream_teid == 300
        # traffic can now be bound to rules from the ack alone
        rule = proc.on_flow_miss(FiveTuple(UE, VIP, 6, 7, 8),
                                 100)[0].rule
        assert rule.downstream_teid == 300

    def test_multi_bearer_remap(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc, pairs=((5, 100, 200), (6, 101, 201)))
        proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_REQUEST,
            [BearerItem(5, upstream_teid=100), BearerItem(6, upstream_teid=101)],
            enb=ENB2))
        proc.on_end_marker(ENB1, 200)
        eff_ack = proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_ACKNOWLEDGE,
            [BearerItem(5, upstream_teid=100, downstream_teid=300),
             BearerItem(6, upstream_teid=101, downstream_teid=301)], enb=ENB2))
        react = [e for e in eff_ack if isinstance(e, ReactivateUe)][0]
        assert dict(react.teid_remap) == {200: 300, 201: 301}


class TestLocality:
    def test_disjoint_processors_independent(self):
        # two gateways fed disjoint event streams produce the same results
        # under any interleaving of those streams
        def feed(order):
            pa = S1apProcessor("mgw-a", TOPOLOGY)
            pb = S1apProcessor("mgw-b", TOPOLOGY)
            events = {
                "a1": lambda: attach(pa, ue_ip=UE, enb=ENB1),
                "b1": lambda: attach(pb, ue_ip=OTHER_UE, enb=ENB3),
                "a2": lambda: pa.on_flow_miss(
                    FiveTuple(UE, VIP, 6, 1, 2), 100),
                "b2": lambda: pb.on_flow_miss(
                    FiveTuple(OTHER_UE, VIP, 6, 3, 4), 100),
            }
            for name in order:
                events[name]()
            return ({u: c.bearers[5].downstream_teid
                     for u, c in pa.contexts.items()},
                    {u: c.bearers[5].downstream_teid
                     for u, c in pb.contexts.items()})

        first = feed(["a1", "a2", "b1", "b2"])
        second = feed(["b1", "a1", "b2", "a2"])
        third = feed(["b1", "b2", "a1", "a2"])
        assert first == second == third


class TestEffectLog:
    def test_jsonl_serializable_and_ordered(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        proc.on_flow_miss(FiveTuple(UE, VIP, 6, 5000, 80), 100)
        lines = proc.dump_jsonl().splitlines()
        seqs = [json.loads(line)["seq"] for line in lines]
        assert seqs == sorted(seqs)
        assert json.loads(lines[-1])["event"] == "FLOW_MISS"
        assert json.loads(lines[-1])["effects"][0]["type"] == "InstallRule"

    def test_shallow_asdict_equals_asdict(self):
        flow = FiveTuple(UE, VIP, 6, 5000, 80)
        effects = [
            InstallRule(FlowRule(flow, 200, ENB1, SGW, RuleState.SILENT), 3),
            SilenceUe(UE, 4),
            ReactivateUe(UE, ((200, 300), (201, 301)), ENB2, 5),
            ReleaseUeRules(UE, 6),
            MigrationNotice(UE, "mec-1", "mec-2", 7, 8),
            ScenarioDetected(UE, HandoverScenario.CROSS_REGION, ENB1, ENB4, 9),
            OrphanMessage(MessageKind.PATH_SWITCH_ACKNOWLEDGE, UE, 10),
            NoContext(0xBEEF, 11),
        ]
        assert ({type(e) for e in effects}
                == set(typing.get_args(control.Effect)))
        for eff in effects:
            assert control._shallow_asdict(eff) == asdict(eff)
        # the key is a NamedTuple now; the log writes it as asdict wrote
        # the former dataclass, addresses dotted
        assert control.dotted(flow) == {
            "src_ip": "172.16.0.2", "dst_ip": "10.100.1.1", "proto": 6,
            "src_port": 5000, "dst_port": 80}

    def test_jsonl_writes_addresses_dotted(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        proc.on_flow_miss(FiveTuple(UE, VIP, 6, 5000, 80), 100)
        proc.on_end_marker(ENB1, 200)
        *_, miss, marker = map(json.loads, proc.dump_jsonl().splitlines())
        flow = {"src_ip": "172.16.0.2", "dst_ip": "10.100.1.1", "proto": 6,
                "src_port": 5000, "dst_port": 80}
        assert miss == {
            "seq": 3, "event": "FLOW_MISS",
            "detail": {"five_tuple": flow, "upstream_teid": 100},
            "effects": [{"type": "InstallRule", "seq": 3, "rule": {
                "key": flow, "downstream_teid": 200, "enb_addr": "10.1.0.1",
                "sgw_addr": "10.2.0.1", "state": "active"}}]}
        assert marker == {"seq": 4, "event": "END_MARKER",
                          "detail": {"enb": "10.1.0.1", "teid": 200},
                          "effects": []}


UNMAPPED_ENB = ip_int("10.9.9.9")


class TestUnmappedEnb:
    def test_path_switch_to_unmapped_enb_is_orphan(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        proc.on_control_message(msg(MessageKind.PATH_SWITCH_REQUEST,
                                    [BearerItem(5, upstream_teid=100)],
                                    enb=ENB2))
        pending = dict(proc.pending)
        effects = proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_REQUEST,
            [BearerItem(5, upstream_teid=100)], enb=UNMAPPED_ENB))
        assert [type(e) for e in effects] == [OrphanMessage]
        assert effects[0].kind is MessageKind.PATH_SWITCH_REQUEST
        assert proc.contexts[UE].phase is UePhase.HANDOVER_IN_PROGRESS
        assert proc.pending == pending

    def test_context_at_unmapped_enb_is_orphan(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc, enb=UNMAPPED_ENB)
        effects = proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_REQUEST,
            [BearerItem(5, upstream_teid=100)], enb=ENB2))
        assert [type(e) for e in effects] == [OrphanMessage]
        assert proc.contexts[UE].phase is UePhase.ATTACHED
        assert proc.pending == {}


class TestPendingHandovers:
    """End markers are found by (eNB, TEID), and a context leaves with a
    subscriber that moves to another gateway."""

    def test_equal_teids_at_two_enbs(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        other = OTHER_UE
        attach(proc, ue_ip=UE, enb=ENB1, pairs=((5, 100, 200),))
        attach(proc, ue_ip=other, enb=ENB2, pairs=((5, 101, 200),))
        for ue_ip in (UE, other):
            proc.on_control_message(msg(MessageKind.PATH_SWITCH_REQUEST,
                                        [BearerItem(5, upstream_teid=100)],
                                        ue_ip=ue_ip, enb=ENB3))
        effects = proc.on_end_marker(ENB2, 200)
        assert [e.ue_ip for e in effects if isinstance(e, SilenceUe)] == [
            other]
        assert proc.contexts[UE].phase is UePhase.HANDOVER_IN_PROGRESS
        effects = proc.on_end_marker(ENB1, 200)
        assert [e.ue_ip for e in effects if isinstance(e, SilenceUe)] == [UE]

    @pytest.mark.parametrize("new_enb", [ENB3, ENB4], ids=ip_str)
    def test_departing_subscriber_leaves(self, new_enb):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc, pairs=((5, 100, 200), (6, 101, 201)))
        proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_REQUEST,
            [BearerItem(5, upstream_teid=100), BearerItem(6, upstream_teid=101)],
            enb=new_enb))
        assert len(proc.pending) == 2
        effects = proc.on_end_marker(ENB1, 201)
        assert any(isinstance(e, ReleaseUeRules) for e in effects)
        assert UE not in proc.contexts
        assert proc.pending == {}
        assert proc.on_end_marker(ENB1, 200) == []
        effects = proc.on_flow_miss(FiveTuple(UE, VIP, 6, 1, 2), 100)
        assert isinstance(effects[0], NoContext)

    def test_ics_response_ends_pending_handover(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        proc.on_control_message(msg(MessageKind.PATH_SWITCH_REQUEST,
                                    [BearerItem(5, upstream_teid=100)],
                                    enb=ENB2))
        proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE,
            [BearerItem(5, downstream_teid=250)]))
        assert proc.pending == {}
        assert proc.on_end_marker(ENB1, 200) == []
        assert proc.on_end_marker(ENB1, 250) == []

    def test_ics_request_refiles_pending_handover(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        proc.on_control_message(msg(MessageKind.PATH_SWITCH_REQUEST,
                                    [BearerItem(5, upstream_teid=100)],
                                    enb=ENB3))
        proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
            [BearerItem(5, upstream_teid=100, transport_addr=SGW)], enb=ENB2))
        assert proc.on_end_marker(ENB1, 200) == []
        effects = proc.on_end_marker(ENB2, 200)
        assert [e.ue_ip for e in effects if isinstance(e, SilenceUe)] == [UE]

    def test_stale_context_leaves_other_entries(self):
        # the eNB handed TEID 200 to a second subscriber after the first
        # went quiet; the first one's signalling must not drop the second
        # one's pending handover
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        other = OTHER_UE
        attach(proc, ue_ip=UE, enb=ENB1, pairs=((5, 100, 200),))
        attach(proc, ue_ip=other, enb=ENB1, pairs=((5, 101, 200),))
        proc.on_control_message(msg(MessageKind.PATH_SWITCH_REQUEST,
                                    [BearerItem(5, upstream_teid=101)],
                                    ue_ip=other, enb=ENB2))
        proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_ACKNOWLEDGE,
            [BearerItem(5, upstream_teid=100, downstream_teid=300)],
            ue_ip=UE, enb=ENB3))
        effects = proc.on_end_marker(ENB1, 200)
        assert [e.ue_ip for e in effects if isinstance(e, SilenceUe)] == [
            other]

    def test_log_keeps_latest_entries(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        for port in range(control.LOG_LIMIT + 10):
            proc.on_flow_miss(FiveTuple(UE, VIP, 6, port, 80), 100)
        assert len(proc.log) == control.LOG_LIMIT
        assert proc.log[-1]["seq"] == proc.clock
        assert proc.log[0]["seq"] == proc.clock - control.LOG_LIMIT + 1
        assert len(proc.dump_jsonl().splitlines()) == control.LOG_LIMIT


ENBS = (ENB1, ENB2, ENB3, ENB4)
MACHINE_UES = (UE, OTHER_UE)
MACHINE_BEARERS = st.sets(st.sampled_from((5, 6)), min_size=1)


class ControllerMachine(RuleBasedStateMachine):
    """S1apProcessor under any order of signalling, end markers and flow
    misses. Each end marker's subscriber is checked against a scan of every
    context: in handover, at the marker's eNB, with a bearer on its TEID.

    Downstream TEIDs come from one counter, so they are unique per eNB as
    3GPP TS 29.281 requires; TEID 0 means "not yet assigned" and names no
    tunnel, so no end marker carries it."""

    def __init__(self):
        super().__init__()
        self.proc = S1apProcessor("mgw-a", TOPOLOGY)
        self.teids = itertools.count(200)
        self.assigned = [0xDEAD]    # every TEID handed out, and a stranger

    def teid(self) -> int:
        self.assigned.append(next(self.teids))
        return self.assigned[-1]

    @rule(ue=st.sampled_from(MACHINE_UES), enb=st.sampled_from(ENBS),
          bearers=MACHINE_BEARERS)
    def ics_request(self, ue, enb, bearers):
        self.proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
            [BearerItem(b, upstream_teid=100 + b, transport_addr=SGW)
             for b in sorted(bearers)], ue_ip=ue, enb=enb))

    @rule(ue=st.sampled_from(MACHINE_UES), bearers=MACHINE_BEARERS)
    def ics_response(self, ue, bearers):
        ctx = self.proc.contexts.get(ue)
        enb = ENB1 if ctx is None else ctx.enb_addr
        self.proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE,
            [BearerItem(b, downstream_teid=self.teid(), transport_addr=enb)
             for b in sorted(bearers)], ue_ip=ue, enb=enb))

    @rule(ue=st.sampled_from(MACHINE_UES), enb=st.sampled_from(ENBS))
    def path_switch_request(self, ue, enb):
        self.proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_REQUEST,
            [BearerItem(5, upstream_teid=105)], ue_ip=ue, enb=enb))

    @rule(ue=st.sampled_from(MACHINE_UES), enb=st.sampled_from(ENBS),
          bearers=MACHINE_BEARERS)
    def path_switch_ack(self, ue, enb, bearers):
        self.proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_ACKNOWLEDGE,
            [BearerItem(b, upstream_teid=100 + b,
                        downstream_teid=self.teid(), transport_addr=enb)
             for b in sorted(bearers)], ue_ip=ue, enb=enb))

    @rule(data=st.data())
    def end_marker(self, data):
        # the tunnel of a known bearer, or any eNB with any TEID handed out
        known = [(ctx.enb_addr, bc.downstream_teid)
                 for ctx in self.proc.contexts.values()
                 for bc in ctx.bearers.values() if bc.downstream_teid]
        anywhere = st.tuples(st.sampled_from(ENBS),
                             st.sampled_from(self.assigned))
        enb, teid = data.draw(st.sampled_from(known) | anywhere
                              if known else anywhere)
        expected = [
            ctx.ue_ip for ctx in self.proc.contexts.values()
            if ctx.phase is UePhase.HANDOVER_IN_PROGRESS
            and ctx.enb_addr == enb
            and any(bc.downstream_teid == teid for bc in ctx.bearers.values())]
        assert len(expected) <= 1
        effects = self.proc.on_end_marker(enb, teid)
        assert [e.ue_ip for e in effects if isinstance(e, SilenceUe)] == expected
        for ue_ip in expected:
            if any(isinstance(e, ReleaseUeRules) for e in effects):
                assert ue_ip not in self.proc.contexts
            else:
                assert self.proc.contexts[ue_ip].phase is UePhase.SILENT_PERIOD

    @rule(ue=st.sampled_from(MACHINE_UES), bearer=st.sampled_from((5, 6)))
    def flow_miss(self, ue, bearer):
        ctx = self.proc.contexts.get(ue)
        live = ctx is not None and ctx.phase is not UePhase.SILENT_PERIOD
        match = [bc for bc in (ctx.bearers.values() if live else ())
                 if bc.upstream_teid == 100 + bearer and bc.complete()]
        effects = self.proc.on_flow_miss(
            FiveTuple(ue, VIP, 6, 40000 + bearer, 80), 100 + bearer)
        if match:
            assert effects[0].rule.downstream_teid == match[0].downstream_teid
        else:
            assert isinstance(effects[0], NoContext)

    @invariant()
    def pending_holds_only_handovers(self):
        for (enb, teid), (ctx, _, _) in self.proc.pending.items():
            assert ctx.phase is UePhase.HANDOVER_IN_PROGRESS
            assert self.proc.contexts.get(ctx.ue_ip) is ctx
            assert ctx.enb_addr == enb
            assert teid in {bc.downstream_teid for bc in ctx.bearers.values()}


TestControllerMachine = ControllerMachine.TestCase
TestControllerMachine.settings = settings(max_examples=100, deadline=None)
