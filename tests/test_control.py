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
from megw.control import (BearerContext, HandoverScenario, InstallRule,
                          MigrationNotice, NoContext, OrphanMessage,
                          ReactivateUe, ReleaseUeRules, S1apProcessor,
                          ScenarioDetected, SilenceUe, TopologyError,
                          TopologyView, UeContext, classify_handover)
from megw.s1ap import BearerItem, MessageKind, S1apLiteMessage
from megw.steering import (SILENT, FiveTuple, FlowRule, RuleStore,
                           SteeringConfig, Tunnel, stage1_select)

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

    def test_unknown_gateway(self):
        with pytest.raises(TopologyError, match="unknown gateway 'mgw-x'"):
            TOPOLOGY.region_of("mgw-x")


class TestAttach:
    def test_pairs_recorded_no_rules(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc, pairs=((5, 100, 200),))
        ctx = proc.contexts[UE]
        assert ctx.bearers[5].upstream_teid == 100
        assert ctx.bearers[5].downstream_teid == 200
        assert not ctx.silent
        installs = [e for entry in proc.log for e in entry.effects
                    if isinstance(e, InstallRule)]
        assert installs == []

    def test_response_alone_is_orphan(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        effects = proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE,
            [BearerItem(5, downstream_teid=200)]))
        assert any(isinstance(e, OrphanMessage) for e in effects)
        assert UE not in proc.contexts

    def test_unknown_kind_raises_and_logs_nothing(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        with pytest.raises(KeyError):
            proc.on_control_message(msg("not-a-kind", []))
        assert not proc.log and not proc.contexts

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
        assert store.lookup(flow) is SILENT
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
        assert store.lookup(flow) == Tunnel(300, ENB2, SGW)

    def test_attached_reattach_releases_nothing(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        effects = proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
            [BearerItem(5, upstream_teid=100, transport_addr=SGW)]))
        assert effects == []


class TestReattachWhileAttached:
    def test_flow_miss_installs_on_new_tunnel(self):
        # an open flow on TEID 200 toward 10.1.0.1; the subscriber
        # re-attaches at 10.1.0.2, which hands out TEID 300
        proc, store = S1apProcessor("mgw-a", TOPOLOGY), RuleStore()
        attach(proc, enb=ENB1, pairs=((5, 100, 200),))
        flow = FiveTuple(UE, VIP, 6, 5000, 80)
        apply(store, proc.on_flow_miss(flow, 100))
        effects = apply(store, proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
            [BearerItem(5, upstream_teid=100, transport_addr=SGW)],
            enb=ENB2)))
        assert [type(e) for e in effects] == [ReleaseUeRules]
        assert store.lookup(flow) is None
        assert apply(store, proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE,
            [BearerItem(5, downstream_teid=300, transport_addr=ENB2)],
            enb=ENB2))) == []
        apply(store, proc.on_flow_miss(flow, 100))
        assert store.lookup(flow) == Tunnel(300, ENB2, SGW)

    def test_no_rule_between_request_and_response(self):
        # 10.1.0.2 never assigned TEID 200: until its response names a
        # tunnel there, a flow miss has nothing to install
        proc, store = S1apProcessor("mgw-a", TOPOLOGY), RuleStore()
        attach(proc, enb=ENB1, pairs=((5, 100, 200),))
        flow = FiveTuple(UE, VIP, 6, 5000, 80)
        apply(store, proc.on_flow_miss(flow, 100))
        effects = apply(store, proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
            [BearerItem(5, upstream_teid=100, transport_addr=SGW)],
            enb=ENB2)))
        assert [type(e) for e in effects] == [ReleaseUeRules]
        effects = apply(store, proc.on_flow_miss(flow, 100))
        assert [type(e) for e in effects] == [NoContext]
        assert store.lookup(flow) is None
        assert proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE,
            [BearerItem(5, downstream_teid=300, transport_addr=ENB2)],
            enb=ENB2)) == []
        apply(store, proc.on_flow_miss(flow, 100))
        rule = store.lookup(flow)
        assert (rule.downstream_teid, rule.enb_addr) == (300, ENB2)

    @pytest.mark.parametrize("enb,down,released", [
        (ENB1, 200, False),     # the same tunnel again
        (ENB1, 300, True),      # a new TEID from the same eNB
        (ENB2, 200, True),      # the same TEID number from another eNB
    ], ids=["same-tunnel", "new-teid", "new-enb"])
    def test_response_releases_only_a_replaced_tunnel(self, enb, down,
                                                      released):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc, enb=ENB1, pairs=((5, 100, 200),))
        effects = []
        for kind, item in (
                (MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
                 BearerItem(5, upstream_teid=100, transport_addr=SGW)),
                (MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE,
                 BearerItem(5, downstream_teid=down, transport_addr=enb))):
            effects += proc.on_control_message(msg(kind, [item], enb=enb))
        assert [type(e) for e in effects] == (
            [ReleaseUeRules] if released else [])

    def test_request_dropping_a_bearer_releases(self):
        # a request at the same eNB that no longer lists bearer 5 ends its
        # tunnel, and the rule on it with it
        proc, store = S1apProcessor("mgw-a", TOPOLOGY), RuleStore()
        attach(proc, enb=ENB1, pairs=((5, 100, 200),))
        flow = FiveTuple(UE, VIP, 6, 5000, 80)
        apply(store, proc.on_flow_miss(flow, 100))
        effects = apply(store, proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
            [BearerItem(6, upstream_teid=101, transport_addr=SGW)])))
        assert [type(e) for e in effects] == [ReleaseUeRules]
        assert store.lookup(flow) is None

    def test_first_attach_and_new_bearer_release_nothing(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc, enb=ENB1, pairs=((5, 100, 200),))
        attach(proc, enb=ENB1, pairs=((5, 100, 200), (6, 101, 201)))
        effects = [e for entry in proc.log for e in entry.effects]
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
        assert not proc.contexts[UE].silent

    def test_silent_period_blocks_new_rules(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        proc.on_control_message(msg(MessageKind.PATH_SWITCH_REQUEST,
                                    [BearerItem(5, upstream_teid=100)],
                                    enb=ENB2))
        proc.on_end_marker(ENB1, 200)
        assert proc.contexts[UE].silent
        effects = proc.on_flow_miss(FiveTuple(UE, VIP, 6, 1, 2), 100)
        assert isinstance(effects[0], NoContext)

    def test_ack_ends_flows_of_unlisted_bearers(self):
        # the acknowledgement lists bearer 5 only: bearer 6's flow must not
        # stay silenced on the old eNB's tunnel for as long as the
        # subscriber stays
        proc, store = S1apProcessor("mgw-a", TOPOLOGY), RuleStore()
        attach(proc, pairs=((5, 100, 200), (6, 101, 201)))
        flow5, flow6 = (FiveTuple(UE, VIP, 6, port, 80)
                        for port in (5000, 5001))
        apply(store, proc.on_flow_miss(flow5, 100))
        apply(store, proc.on_flow_miss(flow6, 101))
        apply(store, proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_REQUEST,
            [BearerItem(5, upstream_teid=100), BearerItem(6, upstream_teid=101)],
            enb=ENB2)))
        apply(store, proc.on_end_marker(ENB1, 200))
        apply(store, proc.on_end_marker(ENB1, 201))
        apply(store, proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_ACKNOWLEDGE,
            [BearerItem(5, upstream_teid=100, downstream_teid=300)],
            enb=ENB2)))
        assert store.rules_for_ue(UE) == [FlowRule(flow5, 300, ENB2, SGW)]
        assert store.lookup(flow6) is None

    def test_path_switch_request_keeps_the_silence(self):
        # the acknowledgement is lost and the path switch request comes
        # again: the silence holds, and no rule goes on the old tunnel
        # beside the silenced one
        proc, store = S1apProcessor("mgw-a", TOPOLOGY), RuleStore()
        attach(proc)
        flow, other = (FiveTuple(UE, VIP, 6, port, 80)
                       for port in (5000, 5001))
        apply(store, proc.on_flow_miss(flow, 100))
        request = msg(MessageKind.PATH_SWITCH_REQUEST,
                      [BearerItem(5, upstream_teid=100)], enb=ENB2)
        apply(store, proc.on_control_message(request))
        apply(store, proc.on_end_marker(ENB1, 200))
        apply(store, proc.on_control_message(request))
        assert proc.contexts[UE].silent
        effects = apply(store, proc.on_flow_miss(other, 100))
        assert [type(e) for e in effects] == [NoContext]
        assert store.lookup(flow) is SILENT
        assert store.lookup(other) is SILENT
        assert [r.key for r in store.rules_for_ue(UE)] == [flow]
        apply(store, proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_ACKNOWLEDGE,
            [BearerItem(5, upstream_teid=100, downstream_teid=300)],
            enb=ENB2)))
        assert store.rules_for_ue(UE) == [FlowRule(flow, 300, ENB2, SGW)]

    def test_cross_region_notice_at_silence_start(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        eff_req = proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_REQUEST,
            [BearerItem(5, upstream_teid=100)], enb=ENB4))
        assert not any(isinstance(e, MigrationNotice) for e in eff_req)
        eff_end = proc.on_end_marker(ENB1, 200)
        notices = [e for e in eff_end if isinstance(e, MigrationNotice)]
        assert len(notices) == 1
        assert notices[0].old_mec == "mgw-a"
        assert notices[0].new_mec == "mgw-c"
        # silence and notice come from one end marker, whose log entry
        # carries the notice's time
        assert any(isinstance(e, SilenceUe) for e in eff_end)
        assert notices[0].issued_at == proc.log[-1].seq

    def test_notice_names_stage1_gateways(self):
        # two weighted gateways in each region, and the subscriber's eNBs
        # at the ones stage I does not pick: the notice names stage I's
        # picks, listed in region_peers (id) order whatever the map's order
        view = TopologyView(
            enb_to_megw={"10.1.0.1": "mgw-a", "10.1.0.4": "mgw-d"},
            megw_to_region={"mgw-d": "r2", "mgw-b": "r1", "mgw-a": "r1",
                            "mgw-c": "r2"},
            weights={"mgw-b": 2.0, "mgw-c": 3.0})
        regions = {"r1": (("mgw-a", "10.50.0.1", 1.0),
                          ("mgw-b", "10.50.0.2", 2.0)),
                   "r2": (("mgw-c", "10.50.0.3", 3.0),
                          ("mgw-d", "10.50.0.4", 1.0))}

        def stage1(ue_ip, region):     # as the region's gateways pick
            peers = regions[region]
            return stage1_select(ue_ip, SteeringConfig(
                megw_id=peers[0][0], vips=frozenset({"10.100.1.1"}),
                region_peers=peers, dips=(("10.200.0.5", 1.0),),
                local_sgw="10.2.0.1").stage1_peers)

        ue = next(UE + i for i in range(1000)
                  if (stage1(UE + i, "r1"), stage1(UE + i, "r2"))
                  == ("mgw-b", "mgw-c"))
        proc = S1apProcessor("mgw-a", view)
        attach(proc, ue_ip=ue)
        proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_REQUEST,
            [BearerItem(5, upstream_teid=100)], ue_ip=ue, enb=ENB4))
        (notice,) = [e for e in proc.on_end_marker(ENB1, 200)
                     if isinstance(e, MigrationNotice)]
        assert (notice.old_mec, notice.new_mec) == ("mgw-b", "mgw-c")
        assert (view.megw_of(ENB1), view.megw_of(ENB4)) == ("mgw-a",
                                                            "mgw-d")

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


def one_effect_of_each_type(flow):
    return [
        InstallRule(FlowRule(flow, 200, ENB1, SGW)),
        SilenceUe(UE),
        ReactivateUe(UE, ((200, 300), (201, 301)), ENB2),
        ReleaseUeRules(UE),
        MigrationNotice(UE, "mec-1", "mec-2", 7),
        ScenarioDetected(UE, HandoverScenario.CROSS_REGION, ENB1, ENB4),
        OrphanMessage(MessageKind.PATH_SWITCH_ACKNOWLEDGE, UE),
        NoContext(0xBEEF),
    ]


class TestEffectLog:
    def test_state_and_effects_are_slotted(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        ctx = proc.contexts[UE]
        objects = [ctx, *ctx.bearers.values(),
                   *one_effect_of_each_type(FiveTuple(UE, VIP, 6, 5000, 80))]
        assert ({type(o) for o in objects}
                == {UeContext, BearerContext,
                    *typing.get_args(control.Effect)})
        for obj in objects:
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_entries_keep_what_the_handlers_return(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        flow = FiveTuple(UE, VIP, 6, 5000, 80)
        for event in (
                lambda: proc.on_flow_miss(flow, 100),
                lambda: proc.on_control_message(msg(
                    MessageKind.PATH_SWITCH_REQUEST,
                    [BearerItem(5, upstream_teid=100)], enb=ENB4)),
                lambda: proc.on_end_marker(ENB1, 200)):
            effects = event()
            entry = proc.log[-1]
            assert entry.seq == proc.clock
            assert effects and len(entry.effects) == len(effects)
            assert all(kept is made
                       for kept, made in zip(entry.effects, effects))
        # the flow miss's key is the one the rule and the log hold
        miss = proc.log[-3]
        assert miss.event == "FLOW_MISS"
        assert miss.detail == (flow, 100) and miss.detail[0] is flow
        assert miss.effects[0].rule.key is flow

    def test_jsonl_serializable_and_ordered(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        proc.on_flow_miss(FiveTuple(UE, VIP, 6, 5000, 80), 100)
        lines = proc.dump_jsonl().splitlines()
        seqs = [json.loads(line)["seq"] for line in lines]
        assert seqs == sorted(seqs)
        assert json.loads(lines[-1])["event"] == "FLOW_MISS"
        assert json.loads(lines[-1])["effects"][0]["type"] == "InstallRule"

    def test_logged_effects_equal_asdict(self):
        flow = FiveTuple(UE, VIP, 6, 5000, 80)
        effects = one_effect_of_each_type(flow)
        assert ({type(e) for e in effects}
                == set(typing.get_args(control.Effect)))
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        proc._emit("TEST", (), effects)
        assert proc.log[-1].render()["effects"] == [
            {"type": type(e).__name__, **asdict(e)} for e in effects]
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
            "effects": [{"type": "InstallRule", "rule": {
                "key": flow, "downstream_teid": 200, "enb_addr": "10.1.0.1",
                "sgw_addr": "10.2.0.1"}}]}
        assert marker == {"seq": 4, "event": "END_MARKER",
                          "detail": {"enb": "10.1.0.1", "teid": 200},
                          "effects": []}

    def test_jsonl_refuses_a_value_without_a_json_form(self):
        # no record holds bytes; one that did is refused, not guessed at
        with pytest.raises(TypeError, match="^bytes is not JSON serializable"):
            control.jsonl([{"payload": b"\x00"}])


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
        assert list(pending) == [(ENB1, 200)]  # the first handover stays
        assert proc.pending == pending

    def test_context_at_unmapped_enb_is_orphan(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc, enb=UNMAPPED_ENB)
        effects = proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_REQUEST,
            [BearerItem(5, upstream_teid=100)], enb=ENB2))
        assert [type(e) for e in effects] == [OrphanMessage]
        assert not proc.contexts[UE].silent
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
        assert (ENB1, 200) in proc.pending
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

    def test_ics_request_ends_pending_handover(self):
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        attach(proc)
        proc.on_control_message(msg(MessageKind.PATH_SWITCH_REQUEST,
                                    [BearerItem(5, upstream_teid=100)],
                                    enb=ENB3))
        proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
            [BearerItem(5, upstream_teid=100, transport_addr=SGW)], enb=ENB2))
        assert proc.pending == {}
        assert proc.on_end_marker(ENB1, 200) == []
        assert proc.on_end_marker(ENB2, 200) == []

    def test_bearer_without_tunnel_not_pending(self):
        # between an ICS request and its response a bearer has downstream
        # TEID 0, which no end marker carries: a path switch request then
        # files nothing, and one subscriber's entry never hides another's
        proc = S1apProcessor("mgw-a", TOPOLOGY)
        for ue_ip in (UE, OTHER_UE):
            proc.on_control_message(msg(
                MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
                [BearerItem(5, upstream_teid=100, transport_addr=SGW)],
                ue_ip=ue_ip, enb=ENB2))
            effects = proc.on_control_message(msg(
                MessageKind.PATH_SWITCH_REQUEST,
                [BearerItem(5, upstream_teid=100)], ue_ip=ue_ip, enb=ENB3))
            assert [type(e) for e in effects] == [ScenarioDetected]
        assert proc.pending == {}

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
        assert proc.log[-1].seq == proc.clock
        assert proc.log[0].seq == proc.clock - control.LOG_LIMIT + 1
        assert len(proc.dump_jsonl().splitlines()) == control.LOG_LIMIT


ENBS = (ENB1, ENB2, ENB3, ENB4)
MACHINE_UES = (UE, OTHER_UE)
MACHINE_BEARERS = st.sets(st.sampled_from((5, 6)), min_size=1)


class ControllerMachine(RuleBasedStateMachine):
    """S1apProcessor under any order of signalling, end markers and flow
    misses. Each end marker's subscriber is checked against a scan of every
    context: in a handover, at the marker's eNB, with a bearer on its TEID.
    The machine keeps its own record of who is in a handover: a path switch
    request for a known subscriber starts one, and setup signalling, an
    acknowledgement or the end marker that hits ends it.

    Downstream TEIDs come from one counter, so they are unique per eNB as
    3GPP TS 29.281 requires; TEID 0 means "not yet assigned" and names no
    tunnel, so no end marker carries it. Every installed rule must send to
    a tunnel that a response or an acknowledgement handed out.

    Every effect goes to a rule store, as a gateway applies it. A
    subscriber's rules are silenced exactly when its context is, and each
    names one of the context's current tunnels."""

    def __init__(self):
        super().__init__()
        self.proc = S1apProcessor("mgw-a", TOPOLOGY)
        self.store = RuleStore()
        self.teids = itertools.count(200)
        self.assigned = [0xDEAD]    # every TEID handed out, and a stranger
        self.tunnels = set()        # every (eNB, downstream TEID) handed out
        self.in_handover = set()    # subscribers between request and end

    def teid(self, enb) -> int:
        self.assigned.append(next(self.teids))
        self.tunnels.add((enb, self.assigned[-1]))
        return self.assigned[-1]

    @rule(ue=st.sampled_from(MACHINE_UES), enb=st.sampled_from(ENBS),
          bearers=MACHINE_BEARERS)
    def ics_request(self, ue, enb, bearers):
        self.in_handover.discard(ue)
        apply(self.store, self.proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_REQUEST,
            [BearerItem(b, upstream_teid=100 + b, transport_addr=SGW)
             for b in sorted(bearers)], ue_ip=ue, enb=enb)))

    @rule(ue=st.sampled_from(MACHINE_UES), bearers=MACHINE_BEARERS)
    def ics_response(self, ue, bearers):
        ctx = self.proc.contexts.get(ue)
        enb = ENB1 if ctx is None else ctx.enb_addr
        self.in_handover.discard(ue)
        apply(self.store, self.proc.on_control_message(msg(
            MessageKind.INITIAL_CONTEXT_SETUP_RESPONSE,
            [BearerItem(b, downstream_teid=self.teid(enb), transport_addr=enb)
             for b in sorted(bearers)], ue_ip=ue, enb=enb)))

    @rule(ue=st.sampled_from(MACHINE_UES), enb=st.sampled_from(ENBS))
    def path_switch_request(self, ue, enb):
        if ue in self.proc.contexts:
            self.in_handover.add(ue)
        apply(self.store, self.proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_REQUEST,
            [BearerItem(5, upstream_teid=105)], ue_ip=ue, enb=enb)))

    @rule(ue=st.sampled_from(MACHINE_UES), enb=st.sampled_from(ENBS),
          bearers=MACHINE_BEARERS)
    def path_switch_ack(self, ue, enb, bearers):
        self.in_handover.discard(ue)
        apply(self.store, self.proc.on_control_message(msg(
            MessageKind.PATH_SWITCH_ACKNOWLEDGE,
            [BearerItem(b, upstream_teid=100 + b,
                        downstream_teid=self.teid(enb), transport_addr=enb)
             for b in sorted(bearers)], ue_ip=ue, enb=enb)))

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
            if ctx.ue_ip in self.in_handover
            and ctx.enb_addr == enb
            and any(bc.downstream_teid == teid for bc in ctx.bearers.values())]
        assert len(expected) <= 1
        effects = apply(self.store, self.proc.on_end_marker(enb, teid))
        assert [e.ue_ip for e in effects if isinstance(e, SilenceUe)] == expected
        for ue_ip in expected:
            self.in_handover.discard(ue_ip)
            if any(isinstance(e, ReleaseUeRules) for e in effects):
                assert ue_ip not in self.proc.contexts
            else:
                assert self.proc.contexts[ue_ip].silent

    @rule(ue=st.sampled_from(MACHINE_UES), bearer=st.sampled_from((5, 6)))
    def flow_miss(self, ue, bearer):
        ctx = self.proc.contexts.get(ue)
        live = ctx is not None and not ctx.silent
        match = [bc for bc in (ctx.bearers.values() if live else ())
                 if bc.upstream_teid == 100 + bearer and bc.complete()]
        effects = apply(self.store, self.proc.on_flow_miss(
            FiveTuple(ue, VIP, 6, 40000 + bearer, 80), 100 + bearer))
        if match:
            installed = effects[0].rule
            assert installed.downstream_teid == match[0].downstream_teid
            assert (installed.enb_addr,
                    installed.downstream_teid) in self.tunnels
        else:
            assert isinstance(effects[0], NoContext)

    @invariant()
    def pending_holds_only_handovers(self):
        for (enb, teid), (ctx, _, _) in self.proc.pending.items():
            assert ctx.ue_ip in self.in_handover
            assert self.proc.contexts.get(ctx.ue_ip) is ctx
            assert ctx.enb_addr == enb
            assert teid != 0
            assert teid in {bc.downstream_teid for bc in ctx.bearers.values()}

    @invariant()
    def rules_silenced_with_their_context(self):
        for ue_ip in MACHINE_UES:
            ctx = self.proc.contexts.get(ue_ip)
            silenced = {self.store.lookup(r.key) is SILENT
                        for r in self.store.rules_for_ue(ue_ip)}
            assert silenced <= {ctx is not None and ctx.silent}

    @invariant()
    def rules_name_current_tunnels(self):
        for ue_ip in MACHINE_UES:
            ctx = self.proc.contexts.get(ue_ip)
            tunnels = set() if ctx is None else {
                (ctx.enb_addr, bc.downstream_teid)
                for bc in ctx.bearers.values()}
            for r in self.store.rules_for_ue(ue_ip):
                assert (r.enb_addr, r.downstream_teid) in tunnels


TestControllerMachine = ControllerMachine.TestCase
TestControllerMachine.settings = settings(max_examples=100, deadline=None)
