"""Virtual fabric: attach, edge requests, and the three handover shapes."""

import copy
from pathlib import Path

import pytest

from megw import gtp, harness
from megw.gtp import GtpMessageType, ip_int
from megw.harness import (CLONED, DROPPED, MIGRATION_NOTIFIED, RECEIVED,
                          REACTIVATED, RULE_INSTALLED, SCENARIOS, SENT,
                          SILENCED, ConfigError, Harness, StateError,
                          build_topology, default_topology_config,
                          run_scenario)

GOLDEN = Path(__file__).parent / "golden"


def count(trace, action, **detail_filters):
    hits = []
    for ev in trace:
        if ev.action != action:
            continue
        if all(ev.detail.get(k) == v for k, v in detail_filters.items()):
            hits.append(ev)
    return hits


def make_harness(seed=0):
    return Harness(build_topology(default_topology_config()), seed=seed)


class TestBuildTopology:
    def test_minimal(self):
        topo = build_topology({
            "vips": ["10.100.1.1"],
            "nodes": {
                "sgw": {"kind": "sgw_mme", "addr": "10.2.0.1"},
                "m1": {"kind": "megw", "addr": "10.50.0.1"},
                "e1": {"kind": "enb", "addr": "10.1.0.1"},
                "d1": {"kind": "dip", "addr": "10.200.0.5", "megw": "m1"},
            },
            "enb_to_megw": {"e1": "m1"},
            "megw_to_region": {"m1": "r1"},
            "links": [{"a": "e1", "b": "m1"}, {"a": "m1", "b": "sgw"},
                      {"a": "d1", "b": "m1"}],
        })
        assert topo.steering_configs["m1"].dips == (("10.200.0.5", 1.0),)

    def test_unknown_megw_reference(self):
        cfg = default_topology_config()
        cfg["enb_to_megw"]["enb1"] = "mgw-zz"
        with pytest.raises(ConfigError):
            build_topology(cfg)

    def test_missing_region(self):
        cfg = default_topology_config()
        del cfg["megw_to_region"]["mgw-c"]
        with pytest.raises(ConfigError):
            build_topology(cfg)

    def test_duplicate_address(self):
        cfg = default_topology_config()
        cfg["nodes"]["enb2"]["addr"] = cfg["nodes"]["enb1"]["addr"]
        with pytest.raises(ConfigError):
            build_topology(cfg)

    def test_unmapped_enb(self):
        cfg = default_topology_config()
        del cfg["enb_to_megw"]["enb4"]
        with pytest.raises(ConfigError):
            build_topology(cfg)

    def test_link_latency_rejected(self):
        # frames arrive in the order sent; a latency would go unheeded
        cfg = default_topology_config()
        cfg["links"][0]["latency"] = 3
        with pytest.raises(ConfigError, match="latency"):
            build_topology(cfg)

    def test_paper_shaped_two_megw_region(self):
        # two gateways sharing a region: the within-region hand-off geometry
        topo = build_topology(default_topology_config())
        peers = topo.steering_configs["mgw-a"].region_peers
        assert {p[0] for p in peers} == {"mgw-a", "mgw-b"}


class TestAttach:
    def test_two_clones_zero_rules(self):
        h = make_harness()
        trace = h.run_attach("ue1", "enb1")
        assert len(count(trace, CLONED, kind="s1ap")) == 2
        assert count(trace, RULE_INSTALLED) == []
        ctx = h.megws["mgw-a"].processor.contexts[ip_int("172.16.0.2")]
        b = ctx.bearers[5]
        assert b.upstream_teid and b.downstream_teid

    def test_attach_twice_idempotent(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        contexts = h.megws["mgw-a"].processor.contexts
        before = copy.deepcopy(contexts[ip_int("172.16.0.2")].bearers)
        h.run_attach("ue1", "enb1")
        after = contexts[ip_int("172.16.0.2")].bearers
        assert before == after

    def test_first_request_one_miss_one_rule(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        trace = h.run_edge_request("ue1")
        assert len(count(trace, CLONED, kind="flow-miss")) == 1
        assert len(count(trace, RULE_INSTALLED)) == 1
        # second packet of the same flow: rule hit, no clone
        flow, bid = h.ues["ue1"].last_flow
        trace2 = h.run_edge_request("ue1")  # new flow: new sport
        assert len(count(trace2, CLONED, kind="flow-miss")) == 1


class TestEdgeRequest:
    def test_reaches_dip_and_echo_returns_tunneled(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        trace = h.run_edge_request("ue1", payload=b"hello-edge")
        dip_hits = [ev for ev in count(trace, RECEIVED)
                    if h.topology.nodes.get(ev.node)
                    and h.topology.nodes[ev.node].kind == "dip"]
        assert len(dip_hits) == 1
        ue_hits = count(trace, RECEIVED)
        ue_hits = [ev for ev in ue_hits if ev.node == "ue1"]
        assert len(ue_hits) == 1
        bearer = h.ues["ue1"].bearers[5]
        assert ue_hits[0].detail["teid"] == bearer.downstream_teid
        assert ue_hits[0].detail["payload"] == b"hello-edge".hex()
        # the subscriber sees the service VIP, not the chosen instance
        assert ue_hits[0].detail["flow_src"] == "10.100.1.1"

    def test_two_bearers_two_distinct_teids(self):
        h = make_harness()
        h.run_attach("ue1", "enb1", bearers=2)
        t1 = h.run_edge_request("ue1", bearer_id=5)
        t2 = h.run_edge_request("ue1", bearer_id=6)
        teid1 = [e for e in count(t1, RECEIVED) if e.node == "ue1"][0]
        teid2 = [e for e in count(t2, RECEIVED) if e.node == "ue1"][0]
        bearers = h.ues["ue1"].bearers
        assert teid1.detail["teid"] == bearers[5].downstream_teid
        assert teid2.detail["teid"] == bearers[6].downstream_teid
        assert teid1.detail["teid"] != teid2.detail["teid"]

    def test_request_requires_attachment(self):
        h = make_harness()
        with pytest.raises(StateError):
            h.run_edge_request("ue1")


def serving_dip(trace, harness):
    hits = [ev for ev in count(trace, RECEIVED)
            if harness.topology.nodes.get(ev.node)
            and harness.topology.nodes[ev.node].kind == "dip"]
    assert hits, "no DIP receipt in trace"
    return hits[0].node


class TestHandoverScenario1:
    def test_same_megw(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        trace = h.run_x2_handover("ue1", "enb1", "enb2")
        silenced = count(trace, SILENCED)
        reactivated = count(trace, REACTIVATED)
        assert silenced and reactivated
        assert trace.index(silenced[0]) < trace.index(reactivated[0])
        assert silenced[0].detail["rules"] == 1
        assert reactivated[0].detail["rules"] == 1
        assert count(trace, MIGRATION_NOTIFIED) == []
        # probe injected inside the window was dropped by the silent rule
        assert count(trace, DROPPED, reason="silent-period")
        # after step 8 the same downstream packet reaches the subscriber
        after = h.inject_downstream("ue1", payload=b"after-step-8")
        got = [e for e in count(after, RECEIVED) if e.node == "ue1"]
        assert got and got[0].detail["payload"] == b"after-step-8".hex()
        assert got[0].detail["teid"] == h.ues["ue1"].bearers[5].downstream_teid


class TestRadioDelivery:
    def sgw_downlink(self, h, enb, teid, payload):
        """A G-PDU the EPC sends to `enb` on tunnel `teid`; its trace."""
        sgw, node = h.topology.nodes["sgw"], h.topology.nodes[enb]
        inner = gtp.build_ipv4(ip_int("10.100.1.1"), h.ues["ue1"].ip, 6,
                               gtp.build_tcpish(6, 80, 40000, payload))
        frame = gtp.encode_gtpu(sgw.ip, node.ip, teid,
                                GtpMessageType.GPDU, inner)
        mark = len(h.trace)
        h._send("sgw", node.addr, frame, note="late-downlink")
        h.run_until_idle()
        return h.trace[mark:]

    def test_pre_handover_teid_unknown_after_step_8(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        old_teid = h.ues["ue1"].bearers[5].downstream_teid
        h.run_x2_handover("ue1", "enb1", "enb2")
        assert h.ues["ue1"].bearers[5].downstream_teid != old_teid
        for enb in ("enb1", "enb2"):
            trace = self.sgw_downlink(h, enb, old_teid, b"late")
            dropped = count(trace, DROPPED, reason="unknown-teid")
            assert [(e.node, e.detail["teid"]) for e in dropped] == [
                (enb, old_teid)]
            assert not [e for e in count(trace, RECEIVED) if e.node == "ue1"]

    def test_old_enb_relays_over_x2_before_step_8(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        teid = h.ues["ue1"].bearers[5].downstream_teid
        # steps 1-2 of the X2 timeline move the radio; the fabric and the
        # gateway's rules still point at the old base station
        h.ues["ue1"].radio_enb = "enb2"
        trace = h.inject_downstream("ue1", payload=b"in-flight")
        relay = count(trace, SENT, via="x2-forwarding")
        assert [(e.node, e.detail["to"], e.detail["teid"])
                for e in relay] == [("enb1", "enb2", teid)]
        got = [e for e in count(trace, RECEIVED) if e.node == "ue1"]
        assert len(got) == 1
        assert got[0].detail["via"] == "x2-forwarding"
        assert got[0].detail["teid"] == teid
        assert got[0].detail["payload"] == b"in-flight".hex()
        assert trace.index(relay[0]) < trace.index(got[0])


class TestHandoverScenario2:
    def test_same_region_preserves_serving_mec_and_dip(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        pre = h.run_edge_request("ue1")
        dip_before = serving_dip(pre, h)
        trace = h.run_x2_handover("ue1", "enb1", "enb3")
        assert count(trace, SILENCED, ue_ip="172.16.0.2")
        # the probe injected mid-window never reaches the subscriber
        assert count(trace, DROPPED)
        assert not [e for e in count(trace, RECEIVED) if e.node == "ue1"
                    and e.detail.get("payload") == b"during-silence".hex()]
        assert count(trace, MIGRATION_NOTIFIED) == []
        # the connection continues through the new gateway: same serving
        # gateway by stage-I determinism, same DIP by stage-II affinity
        post = h.run_edge_request("ue1", reuse_flow=True)
        dip_after = serving_dip(post, h)
        assert dip_after == dip_before
        # rule now lives at the new gateway with the new tunnel
        got = [e for e in count(post, RECEIVED) if e.node == "ue1"]
        assert got[0].detail["teid"] == h.ues["ue1"].bearers[5].downstream_teid

    def test_silence_ordering(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        trace = h.run_x2_handover("ue1", "enb1", "enb3")
        silenced = count(trace, SILENCED)
        reactivated = count(trace, REACTIVATED)
        assert silenced and reactivated
        assert trace.index(silenced[0]) < trace.index(reactivated[0])
        assert silenced[0].node == "mgw-a"
        assert reactivated[0].node == "mgw-b"


class TestHandoverScenario3:
    def test_cross_region_migration_notice(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        pre = h.run_edge_request("ue1")
        dip_before = serving_dip(pre, h)
        trace = h.run_x2_handover("ue1", "enb1", "enb4")
        notices = count(trace, MIGRATION_NOTIFIED)
        assert len(notices) == 1
        assert notices[0].detail["old_mec"] == "mgw-a"
        assert notices[0].detail["new_mec"] == "mgw-c"
        # the notice is issued at silence start: right after Silenced
        silenced = count(trace, SILENCED)[0]
        assert trace.index(notices[0]) == trace.index(silenced) + 1
        # service resumes in the new region once traffic flows again
        post = h.run_edge_request("ue1", reuse_flow=True)
        assert serving_dip(post, h) == "dip-c1"
        assert serving_dip(post, h) != dip_before
        got = [e for e in count(post, RECEIVED) if e.node == "ue1"]
        assert got[0].detail["teid"] == h.ues["ue1"].bearers[5].downstream_teid

    def test_exactly_one_notice_in_scenario(self):
        h = run_scenario("x2-cross-region")
        assert len(count(h.trace, MIGRATION_NOTIFIED)) == 1


class TestHandoverGuards:
    def test_not_attached(self):
        h = make_harness()
        with pytest.raises(StateError):
            h.run_x2_handover("ue1", "enb1", "enb2")

    def test_wrong_source_enb(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        with pytest.raises(StateError):
            h.run_x2_handover("ue1", "enb2", "enb3")

    def test_x2_not_via_gateway(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        before = {m: s.processor.clock for m, s in h.megws.items()}
        trace = h.run_x2_handover("ue1", "enb1", "enb2")
        x2 = count(trace, SENT, kind="x2-handover-request")
        assert x2 and x2[0].node == "enb1"


def long_run(h):
    """Edge requests between handovers around all four base stations (all
    three geometries); yields the events each scripted operation returns."""
    yield h.run_attach("ue1", "enb1")
    yield h.run_attach("ue2", "enb2", bearers=2)
    route = ("enb1", "enb2", "enb3", "enb4")
    for i in range(40):
        yield h.run_x2_handover("ue1", route[i % 4], route[(i + 1) % 4])
        for j in range(3):
            yield h.run_edge_request("ue1", reuse_flow=j > 0,
                                     payload=b"r-%d-%d" % (i, j))
            yield h.run_edge_request("ue2", bearer_id=5 + j % 2)


class TestTraceBound:
    def test_trace_bounded_and_every_slice_whole(self, monkeypatch):
        # the reference run stays under TRACE_LIMIT, so it keeps every event
        ref = make_harness()
        ref_slices = list(long_run(ref))
        assert len(ref.trace) < harness.TRACE_LIMIT
        assert [e for s in ref_slices for e in s] == ref.trace
        monkeypatch.setattr(harness, "TRACE_LIMIT", 8)
        h = make_harness()
        longest = 0
        for got, want in zip(long_run(h), ref_slices, strict=True):
            assert got == want
            longest = max(longest, len(got))
            assert len(h.trace) <= 8 + len(got)
        assert len(h.trace) < len(ref.trace)
        assert longest > 8


    def test_top_level_downstream_pushes_stay_bounded(self, monkeypatch):
        def pushes(h):
            for i in range(200):
                yield h.inject_downstream("ue1", payload=b"push-%d" % i)

        ref = run_scenario("edge-request")
        ref_slices = list(pushes(ref))
        assert len(ref.trace) < harness.TRACE_LIMIT
        monkeypatch.setattr(harness, "TRACE_LIMIT", 8)
        h = run_scenario("edge-request")
        for got, want in zip(pushes(h), ref_slices, strict=True):
            assert got == want and got
            assert len(h.trace) <= 8 + len(got)


class TestDeterminism:
    def test_identical_seed_identical_trace(self):
        h1 = run_scenario("x2-cross-region", seed=7)
        h2 = run_scenario("x2-cross-region", seed=7)
        assert h1.trace_jsonl() == h2.trace_jsonl()

    def test_trace_totally_ordered(self):
        h = run_scenario("x2-same-region")
        steps = [e.step for e in h.trace]
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)

    def test_all_scenarios_run_clean(self):
        for name in ("attach", "edge-request", "two-bearers", "x2-same-megw",
                     "x2-same-region", "x2-cross-region"):
            h = run_scenario(name)
            assert h.trace


class TestGoldenTraces:
    """Every named scenario's seed-7 trace, byte for byte. A golden file
    is `megw harness --scenario <name> --seed 7`; regenerating one is a
    deliberate change to the trace format or to gateway behaviour."""

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_trace_matches_golden(self, name):
        trace = run_scenario(name, seed=7).trace_jsonl() + "\n"
        assert trace.encode() == (GOLDEN / f"{name}.jsonl").read_bytes()
