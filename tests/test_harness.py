"""Virtual fabric: attach, edge requests, and the three handover shapes."""

import copy
import hashlib
import itertools
import json
import math
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from megw import control, gtp, harness, steering
from megw.gtp import FiveTuple, GtpMessageType, ip_int, ip_str
from megw.harness import (CLONED, DROPPED, MIGRATION_NOTIFIED, RECEIVED,
                          REACTIVATED, RULE_INSTALLED, SCENARIOS, SENT,
                          SILENCED, ConfigError, Harness, StateError,
                          build_topology, default_topology_config,
                          run_scenario)
from megw.s1ap import MessageKind

GOLDEN = Path(__file__).parent / "golden"


def count(trace, action, **detail_filters):
    hits = []
    for ev in trace:
        if ev.action != action:
            continue
        detail = control.dotted(ev.detail)
        if all(detail.get(k) == v for k, v in detail_filters.items()):
            hits.append(ev)
    return hits


def make_harness(seed=0):
    return Harness(build_topology(default_topology_config()), seed=seed)


def operation_state(h, ue_id):
    """What a refused operation must leave as it was: the subscriber's next
    source port, last flow and bearers, and the trace's length."""
    ue = h.ues[ue_id]
    return (ue.next_port, ue.last_flow, copy.deepcopy(ue.bearers),
            len(h.trace))


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

    def test_alias_of_a_used_address(self):
        # "010.1.0.1" would name enb1's address under another spelling
        cfg = default_topology_config()
        cfg["nodes"]["enb2"]["addr"] = "010.1.0.1"
        with pytest.raises(ConfigError):
            build_topology(cfg)

    @pytest.mark.parametrize("vips", [["10.100.1.1", "10.1.0.2"],
                                      ["10.1.0.2"]])
    def test_vip_at_a_node_address(self, vips):
        # 10.1.0.2 is enb2's: a gateway would take the SGW's G-PDUs to enb2
        # for edge traffic and hand them to a DIP
        cfg = default_topology_config()
        cfg["vips"] = vips
        with pytest.raises(ConfigError) as info:
            build_topology(cfg)
        assert "10.1.0.2" in str(info.value) and "'enb2'" in str(info.value)
        assert "VIP" in str(info.value)

    def test_gateway_without_dip(self):
        # stage I may hand mgw-b a subscriber; with no DIP it could not
        # steer its edge traffic anywhere
        cfg = default_topology_config()
        del cfg["nodes"]["dip-b1"]
        cfg["links"] = [link for link in cfg["links"]
                        if "dip-b1" not in link.values()]
        with pytest.raises(ConfigError,
                           match="^gateway 'mgw-b': the DIP pool is empty$"):
            build_topology(cfg)

    @pytest.mark.parametrize("stubs", [[], ["sgw", "sgw2"]],
                             ids=["none", "two"])
    def test_exactly_one_epc_stub(self, stubs):
        cfg = default_topology_config()
        del cfg["nodes"]["sgw"]
        cfg["links"] = [link for link in cfg["links"]
                        if "sgw" not in link.values()]
        for i, stub in enumerate(stubs):
            cfg["nodes"][stub] = {"kind": "sgw_mme", "addr": f"10.2.0.{i + 1}"}
        with pytest.raises(ConfigError) as info:
            build_topology(cfg)
        assert str(info.value) == (
            f"exactly one EPC stub required, found {stubs}")

    def test_unmapped_enb(self):
        cfg = default_topology_config()
        del cfg["enb_to_megw"]["enb4"]
        with pytest.raises(ConfigError):
            build_topology(cfg)

    def test_mapping_names_a_node_of_another_kind(self):
        cfg = default_topology_config()
        cfg["enb_to_megw"]["enb1"] = "dip-a1"
        with pytest.raises(ConfigError, match=re.escape(
                "enb_to_megw: 'dip-a1' is a dip, expected one of {'megw'}")):
            build_topology(cfg)

    def test_link_latency_rejected(self):
        # frames arrive in the order sent; a latency would go unheeded
        cfg = default_topology_config()
        cfg["links"][0]["latency"] = 3
        with pytest.raises(ConfigError, match="latency"):
            build_topology(cfg)

    def test_region_gateways_share_a_link(self):
        # a hand-off from mgw-a to mgw-b through the EPC would arrive as
        # core traffic, which mgw-b routes instead of steering: the DIP's
        # reply would reach enb3 untunnelled and be dropped there
        cfg = default_topology_config()
        cfg["links"].remove({"a": "mgw-a", "b": "mgw-b"})
        with pytest.raises(ConfigError, match="^region 'r1': gateways "
                           "'mgw-a' and 'mgw-b' share no link$"):
            build_topology(cfg)

    def test_paper_shaped_two_megw_region(self):
        # two gateways sharing a region: the within-region hand-off geometry
        topo = build_topology(default_topology_config())
        peers = topo.steering_configs["mgw-a"].region_peers
        assert {p[0] for p in peers} == {"mgw-a", "mgw-b"}

    def test_region_peers_are_the_views_candidates(self):
        # every gateway of a region picks from the one list the view holds:
        # ids in id order, whatever order the map names them in, each with
        # its own weight
        cfg = default_topology_config()
        cfg["megw_to_region"] = {"mgw-c": "r2", "mgw-b": "r1", "mgw-a": "r1"}
        cfg["nodes"]["mgw-a"]["weight"] = 3.0
        cfg["nodes"]["mgw-b"]["weight"] = 0.5
        topo = build_topology(cfg)
        assert topo.view.peers == {"r1": (("mgw-a", 3.0), ("mgw-b", 0.5)),
                                   "r2": (("mgw-c", 1.0),)}
        for megw, region in cfg["megw_to_region"].items():
            steer = topo.steering_configs[megw]
            assert steer.stage1_peers == topo.view.peers[region]
            assert [m for m, _, _ in steer.region_peers] == [
                m for m, _ in topo.view.peers[region]]
            assert all(addr == cfg["nodes"][m]["addr"]
                       for m, addr, _ in steer.region_peers)

    def test_region_agrees_on_stage1(self):
        # both r1 gateways steering a new subscriber's uplink G-PDU, and the
        # controllers' view naming its serving gateway, pick one gateway
        topo = build_topology(default_topology_config())
        ue, enb = ip_int("172.16.77.7"), ip_int("10.1.0.3")
        inner = gtp.build_ipv4(ue, ip_int("10.100.1.1"), 6,
                               gtp.build_tcpish(6, 5000, 80, b"req"))
        frame = gtp.encode_gtpu(enb, ip_int("10.2.0.1"), 100,
                                GtpMessageType.GPDU, inner)
        notes = [[a.note for a in steering.process_packet(
            frame, gtp.Direction.FROM_RAN, topo.steering_configs[megw],
            steering.RuleStore(), steering.DipAffinityTable()).actions
            if isinstance(a, steering.Emit)] for megw in ("mgw-a", "mgw-b")]
        serving = topo.view.serving_megw(ue, enb)
        assert notes == [["dip-rewrite" if megw == serving
                          else "stage1-handoff"]
                         for megw in ("mgw-a", "mgw-b")]


class TestTopologyShape:
    @pytest.mark.parametrize("edit", [
        lambda cfg: [1],
        lambda cfg: cfg.update(nodes=[]),
        lambda cfg: cfg["nodes"].update(enb1="enb"),
        lambda cfg: cfg["nodes"]["enb1"].pop("addr"),
        lambda cfg: cfg["nodes"]["enb1"].pop("kind"),
        lambda cfg: cfg["nodes"]["enb1"].update(addr=167837697),
        lambda cfg: cfg["nodes"]["dip-a1"].update(megw=["mgw-a"]),
        lambda cfg: cfg["nodes"]["dip-a1"].update(weight=[2]),
        lambda cfg: cfg.update(enb_to_megw=[["enb1", "mgw-a"]]),
        lambda cfg: cfg["enb_to_megw"].update(enb1=["mgw-a"]),
        lambda cfg: cfg.update(megw_to_region="r1"),
        lambda cfg: cfg["megw_to_region"].update({"mgw-a": ["r1"]}),
        lambda cfg: cfg.update(vips="10.100.1.1"),
        lambda cfg: cfg.update(vips=[174326017]),
        lambda cfg: cfg.update(links={"a": "enb1", "b": "mgw-a"}),
        lambda cfg: cfg["links"].append(["enb1", "mgw-a"]),
        lambda cfg: cfg["links"][0].pop("b"),
        lambda cfg: cfg["links"][0].update(a=["enb1"]),
    ], ids=["list-document", "node-list", "node-string", "no-addr",
            "no-kind", "int-addr", "list-megw", "list-weight",
            "enb-map-list", "enb-map-list-value", "region-map-string",
            "region-map-list-value", "vips-string", "int-vip", "links-object",
            "link-list", "link-no-b", "link-list-end"])
    def test_malformed_document(self, edit):
        # each is a ConfigError naming the topology, not a TypeError,
        # AttributeError or a bare KeyError
        cfg = default_topology_config()
        doc = edit(cfg)     # a replacement document, or None after an edit
        cfg = cfg if doc is None else doc
        with pytest.raises(ConfigError, match="^topology: "):
            build_topology(cfg)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, 10 ** 400],
                             ids=["nan", "inf", "huge-int"])
    def test_weight_must_be_finite(self, weight):
        cfg = default_topology_config()
        cfg["nodes"]["dip-a1"]["weight"] = weight
        with pytest.raises(
                ConfigError, match=r"^topology: nodes\['dip-a1'\]\.weight "):
            build_topology(cfg)

    @pytest.mark.parametrize("edit", [
        lambda cfg: cfg["nodes"]["enb1"].update(addr="10.1.0.256"),
        lambda cfg: cfg.update(vips=["10.100.1"]),
        lambda cfg: cfg["nodes"]["dip-a1"].update(weight=0),
        lambda cfg: cfg["nodes"]["mgw-a"].update(weight=-1),
        lambda cfg: cfg["nodes"]["ue1"].update(kind="UE"),
        # the EPC stub alone: no gateway's config would parse the VIP
        lambda cfg: cfg.update(nodes={"sgw": cfg["nodes"]["sgw"]},
                               enb_to_megw={}, megw_to_region={}, links=[],
                               vips=["10.100.1.01"]),
    ], ids=["bad-addr", "bad-vip", "zero-dip-weight", "negative-peer-weight",
            "unknown-kind", "bad-vip-no-gateway"])
    def test_bad_value_is_a_config_error(self, edit):
        cfg = default_topology_config()
        edit(cfg)
        with pytest.raises(ConfigError):
            build_topology(cfg)

    def test_empty_document_is_not_the_default(self):
        with pytest.raises(ConfigError):
            run_scenario("attach", config={})


def walk_back_next_hop(config):
    """Next hops as the router once found them: a BFS from each source
    records parents, then each destination walks back to the source's
    neighbor on its path. Shortest path, ties broken by sorted neighbor
    order."""
    neighbors = {n: [] for n in config["nodes"]}
    for doc in config["links"]:
        neighbors[doc["a"]].append(doc["b"])
        neighbors[doc["b"]].append(doc["a"])
    neighbors = {n: sorted(set(peers)) for n, peers in neighbors.items()}
    next_hop = {}
    for src in config["nodes"]:
        frontier = [src]
        parent = {src: None}
        while frontier:
            nxt = []
            for u in frontier:
                for v in neighbors[u]:
                    if v not in parent:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        for dst in parent:
            if dst == src:
                continue
            hop = dst
            while parent[hop] != src:
                hop = parent[hop]
            next_hop[(src, dst)] = hop
    return next_hop


@st.composite
def topologies(draw):
    """A valid topology document on a random connected graph: an EPC stub,
    gateways in one or two regions, their eNBs and DIPs (at least one per
    gateway), and subscribers, under drawn names so that sorted order is
    not insertion order."""
    n_megws = draw(st.integers(1, 4))
    counts = {"megw": n_megws, "enb": draw(st.integers(1, 4)),
              "dip": n_megws + draw(st.integers(0, 4)),
              "ue": draw(st.integers(0, 3))}
    kinds = ["sgw_mme"] + [k for k, n in counts.items() for _ in range(n)]
    ids = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3),
                        min_size=len(kinds), max_size=len(kinds),
                        unique=True))
    nodes = {i: {"kind": k, "addr": f"10.0.0.{n + 1}"}
             for n, (i, k) in enumerate(zip(ids, kinds))}
    megws = [i for i in ids if nodes[i]["kind"] == "megw"]
    dips = [i for i in ids if nodes[i]["kind"] == "dip"]
    for n, i in enumerate(dips):
        nodes[i]["megw"] = (megws[n] if n < len(megws)
                            else draw(st.sampled_from(megws)))
    # a random spanning tree, then a few extra links
    order = draw(st.permutations(ids))
    links = [{"a": v, "b": draw(st.sampled_from(order[:n]))}
             for n, v in enumerate(order) if n]
    links += [{"a": a, "b": b} for a, b in draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=8))
        if a != b]
    regions = {m: draw(st.sampled_from(["r1", "r2"])) for m in megws}
    # the gateways of one region share a link
    links += [{"a": a, "b": b} for a, b in itertools.combinations(megws, 2)
              if regions[a] == regions[b]]
    return {"vips": ["10.100.1.1"], "nodes": nodes, "links": links,
            "enb_to_megw": {i: draw(st.sampled_from(megws)) for i in ids
                            if nodes[i]["kind"] == "enb"},
            "megw_to_region": regions}


def mobility_shaped_config():
    """Four gateways in two regions, three eNBs and two weighted DIPs
    each, a link inside each region, and subscribers off the fabric."""
    regions = {"mgw-1": "r1", "mgw-2": "r1", "mgw-3": "r2", "mgw-4": "r2"}
    nodes = {"sgw": {"kind": "sgw_mme", "addr": "10.2.0.1"}}
    links, enb_to_megw = [], {}
    for g, gw in enumerate(sorted(regions), start=1):
        nodes[gw] = {"kind": "megw", "addr": f"10.50.0.{g}"}
        links.append({"a": gw, "b": "sgw"})
        for e in range(3):
            enb_to_megw[f"enb-{g}-{e}"] = gw
            nodes[f"enb-{g}-{e}"] = {"kind": "enb", "addr": f"10.1.{g}.{e}"}
            links.append({"a": f"enb-{g}-{e}", "b": gw})
        for d in (1, 2):
            nodes[f"dip-{g}-{d}"] = {"kind": "dip", "megw": gw, "weight": d,
                                     "addr": f"10.200.{g}.{d}"}
            links.append({"a": f"dip-{g}-{d}", "b": gw})
    links += [{"a": "mgw-1", "b": "mgw-2"}, {"a": "mgw-3", "b": "mgw-4"}]
    for i in range(4):
        nodes[f"ue{i}"] = {"kind": "ue", "addr": f"172.16.0.{i + 2}"}
    return {"vips": ["10.100.1.1"], "nodes": nodes, "links": links,
            "enb_to_megw": enb_to_megw, "megw_to_region": regions}


class TestRouting:
    @settings(max_examples=200, deadline=None)
    @given(config=topologies())
    def test_first_hops_equal_walk_back(self, config):
        assert build_topology(config).next_hop == walk_back_next_hop(config)

    @pytest.mark.parametrize("config", [default_topology_config(),
                                        mobility_shaped_config()])
    def test_named_shapes_equal_walk_back(self, config):
        next_hop = build_topology(config).next_hop
        assert next_hop == walk_back_next_hop(config)
        # every node the fabric forwards through reaches every other
        fabric = [n for n, d in config["nodes"].items() if d["kind"] != "ue"]
        assert all((a, b) in next_hop for a in fabric for b in fabric
                   if a != b)

    def test_ties_go_to_the_first_sorted_neighbor(self):
        diamond = default_topology_config()
        diamond["links"] += [{"a": "enb1", "b": "mgw-b"}]
        # enb1 reaches sgw through mgw-a or mgw-b, two hops each
        assert build_topology(diamond).next_hop[("enb1", "sgw")] == "mgw-a"
        diamond["nodes"]["mgw-0"] = {"kind": "megw", "addr": "10.50.0.9"}
        diamond["nodes"]["dip-01"] = {"kind": "dip", "addr": "10.200.0.9",
                                      "megw": "mgw-0"}
        diamond["megw_to_region"]["mgw-0"] = "r2"
        diamond["links"] += [{"a": "enb1", "b": "mgw-0"},
                             {"a": "mgw-0", "b": "sgw"},
                             {"a": "mgw-0", "b": "mgw-c"},
                             {"a": "dip-01", "b": "mgw-0"}]
        assert build_topology(diamond).next_hop[("enb1", "sgw")] == "mgw-0"

    def test_one_view_shared_by_every_controller(self):
        h = make_harness()
        views = {id(m.processor.topology) for m in h.megws.values()}
        assert views == {id(h.topology.view)}
        assert h.topology.view.megw_of(ip_int("10.1.0.3")) == "mgw-b"
        assert h.topology.view.region_of("mgw-c") == "r2"


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
        assert control.dotted(ue_hits[0].detail)["flow_src"] == "10.100.1.1"

    def test_subscriber_records_are_slotted(self):
        h = make_harness()
        h.run_attach("ue1", "enb1", bearers=2)
        records = [*h.ues.values(), *h.ues["ue1"].bearers.values()]
        assert {type(r) for r in records} == {harness.UeRecord,
                                              harness.Bearer}
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_new_flow_has_one_key(self):
        """The serving gateway's rule, its log and its affinity pin share
        the `FiveTuple` of the flow miss."""
        h = make_harness()
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        (gw,) = [g for g in h.megws.values() if len(g.affinity)]
        (rule,) = gw.rules.rules_for_ue(h.ues["ue1"].ip)
        (pinned,) = gw.affinity._table
        (miss,) = [e for e in gw.processor.log if e.event == "FLOW_MISS"]
        assert rule.key is pinned is miss.detail[0]

    def test_flow_facts_are_kept_once(self):
        """At the serving gateway, every key of the subscriber's flows in
        the rule store and the affinity table holds one int for its
        address and the config's int for the VIP; every pin holds the
        config's int for its DIP; flows on a bearer share one tunnel
        value, before and after a handover moves them to new tunnels."""
        h = make_harness()
        h.run_attach("ue1", "enb1", bearers=2)
        for n in range(8):
            h.run_edge_request("ue1", bearer_id=5 + n % 2)
        h.run_x2_handover("ue1", "enb1", "enb2")
        for n in range(4):
            h.run_edge_request("ue1", bearer_id=5 + n % 2)
        gw = h.megws["mgw-a"]
        rules = gw.rules.rules_for_ue(h.ues["ue1"].ip)
        ue = rules[0].key.src_ip
        pins = gw.affinity._table
        assert len(rules) == len(pins) == 12
        vips = gw.config.vip_ints
        for key in [r.key for r in rules] + list(pins):
            assert key.src_ip is ue
            assert key.dst_ip is vips[key.dst_ip]
        dips = gw.config.dip_ints
        for dip in pins.values():
            assert dip is dips[ip_str(dip)]
        assert set(pins.values()) == set(dips.values()) and len(dips) == 2
        tunnels = {}
        for r in rules:
            tunnel = gw.rules.lookup(r.key)
            assert tunnels.setdefault(r.downstream_teid, tunnel) is tunnel
        assert len(tunnels) == 2

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

    def test_source_ports_run_out(self):
        # the last port opens a connection; the next one is refused, not
        # wrapped onto a 5-tuple an affinity pin may still hold
        h = make_harness()
        h.run_attach("ue1", "enb1")
        ue = h.ues["ue1"]
        ue.next_port = 65535
        h.run_edge_request("ue1")
        assert ue.last_flow[0].src_port == 65535
        last, events = ue.last_flow, len(h.trace)
        with pytest.raises(StateError, match="'ue1'"):
            h.run_edge_request("ue1")
        assert (ue.next_port, ue.last_flow, len(h.trace)) == (65536, last,
                                                              events)
        # a continued connection needs no new port
        h.run_edge_request("ue1", reuse_flow=True)
        assert ue.last_flow == last

    @pytest.mark.parametrize("reuse_flow", [False, True])
    def test_unknown_bearer(self, reuse_flow):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        ue = h.ues["ue1"]
        port, last, events = ue.next_port, ue.last_flow, len(h.trace)
        with pytest.raises(StateError, match="'ue1' has no bearer 9"):
            h.run_edge_request("ue1", bearer_id=9, reuse_flow=reuse_flow)
        assert (ue.next_port, ue.last_flow, len(h.trace)) == (port, last,
                                                              events)

    @pytest.mark.parametrize("vip", ["10.9.9.9", "10.100.1", "not-an-ip",
                                     ""])
    @pytest.mark.parametrize("reuse_flow", [False, True])
    def test_address_not_a_vip(self, vip, reuse_flow):
        # refused before a source port or the last flow is taken, whether
        # the address is well formed or not
        h = make_harness()
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        ue = h.ues["ue1"]
        port, last, events = ue.next_port, ue.last_flow, len(h.trace)
        with pytest.raises(StateError, match=f"^{vip!r} is not a VIP$"):
            h.run_edge_request("ue1", vip=vip, reuse_flow=reuse_flow)
        assert (ue.next_port, ue.last_flow, len(h.trace)) == (port, last,
                                                              events)

    def test_every_vip_is_reachable(self):
        config = default_topology_config()
        config["vips"].append("10.100.1.2")
        h = Harness(build_topology(config))
        h.run_attach("ue1", "enb1")
        for vip in config["vips"]:
            trace = h.run_edge_request("ue1", vip=vip)
            assert h.ues["ue1"].last_flow[0].dst_ip == ip_int(vip)
            assert any(e.node == "ue1" and e.action == RECEIVED
                       for e in trace)


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
        h._send("sgw", node.ip, frame, note="late-downlink")
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


ENB1, ENB2 = ip_int("10.1.0.1"), ip_int("10.1.0.2")
SGW, DIP_A1, DIP_A2 = (ip_int("10.2.0.1"), ip_int("10.200.0.5"),
                       ip_int("10.200.0.6"))
UE1, MGW_A = ip_int("172.16.0.2"), ip_int("10.50.0.1")


def ipv4_with(src, dst, proto, payload, ihl=5, trailer=b""):
    """An IPv4 packet with IHL `ihl` (zeroed options) and `trailer` bytes
    past its total length."""
    head = struct.pack("!BBHHHBBHII", 0x40 | ihl, 0, ihl * 4 + len(payload),
                       0, 0, 64, proto, 0, src, dst) + bytes(ihl * 4 - 20)
    csum = gtp.ipv4_checksum(head).to_bytes(2, "big")
    return head[:10] + csum + head[12:] + payload + trailer


def deliver(h, node, data, sender="mgw-a"):
    """The trace events one frame from `sender` records at `node`, as
    (node, action, detail) triples."""
    mark = len(h.trace)
    h._deliver(node, sender, data)
    return [(e.node, e.action, control.dotted(e.detail))
            for e in h.trace[mark:]]


class TestNodeFrames:
    """Each branch of the eNB, DIP and SGW nodes, and each way a gateway's
    send or clone fails, on one crafted frame."""

    def test_enb_unparseable(self):
        for data in (b"", b"\x45\x00", b"\x65" + bytes(19),
                     ipv4_with(SGW, ENB1, 17, b"x")[:-1]):
            assert deliver(make_harness(), "enb1", data) == [
                ("enb1", DROPPED, {"reason": "unparseable"})]

    def test_enb_not_addressed_here(self):
        frame = gtp.encode_gtpu(SGW, ENB2, 9, GtpMessageType.GPDU, b"")
        assert deliver(make_harness(), "enb1", frame) == [
            ("enb1", DROPPED, {"reason": "not-addressed-here",
                               "dst": "10.1.0.2"})]

    def test_enb_control(self):
        # the byte count is the transport payload: no options, no trailer
        frame = ipv4_with(SGW, ENB1, gtp.PROTO_SCTP, bytes(10), ihl=7,
                          trailer=b"pad")
        assert deliver(make_harness(), "enb1", frame) == [
            ("enb1", RECEIVED, {"kind": "control", "bytes": 10})]

    def test_enb_untunneled(self):
        gpdu = bytearray(gtp.encode_gtpu(SGW, ENB1, 9, GtpMessageType.GPDU,
                                         b"x"))
        gpdu[28] = 0x32        # a sequence number flag: not read as GTP-U
        for data in (gtp.build_ipv4(SGW, ENB1, 6,
                                    gtp.build_tcpish(6, 1, 2, b"")),
                     gtp.build_ipv4(SGW, ENB1, 17,
                                    gtp.build_udp(2152, 2152, b"")),
                     bytes(gpdu)):
            assert deliver(make_harness(), "enb1", data) == [
                ("enb1", DROPPED, {"reason": "untunneled"})]

    def test_enb_end_marker(self):
        frame = gtp.encode_gtpu(SGW, ENB1, 0xC8, GtpMessageType.END_MARKER)
        assert deliver(make_harness(), "enb1", frame) == [
            ("enb1", RECEIVED, {"kind": "end-marker", "teid": 0xC8})]

    def test_enb_unknown_teid(self):
        frame = gtp.encode_gtpu(SGW, ENB1, 0xC8, GtpMessageType.GPDU, b"x")
        assert deliver(make_harness(), "enb1", frame) == [
            ("enb1", DROPPED, {"reason": "unknown-teid", "teid": 0xC8})]

    @pytest.mark.parametrize("inner, extra", [
        # TCP and UDP lose their 4 port bytes, shorter ones leave nothing
        (gtp.build_ipv4(DIP_A1, UE1, 6, gtp.build_tcpish(6, 80, 1, b"hi")),
         {"flow_src": "10.200.0.5", "payload": b"hi".hex()}),
        (ipv4_with(DIP_A1, UE1, 17, b"\x00\x50\x00\x01ok", ihl=6,
                   trailer=b"t"),
         {"flow_src": "10.200.0.5", "payload": b"ok".hex()}),
        (gtp.build_ipv4(DIP_A1, UE1, 6, b"\x00\x50"),
         {"flow_src": "10.200.0.5", "payload": ""}),
        # other protocols keep their whole payload
        (gtp.build_ipv4(DIP_A1, UE1, 1, b"\x08\x00ping"),
         {"flow_src": "10.200.0.5", "payload": b"\x08\x00ping".hex()}),
        # an inner packet that does not parse arrives as raw bytes
        (b"\x45\x00junk", {"payload": b"\x45\x00junk".hex()}),
    ])
    def test_enb_radio_delivery(self, inner, extra):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        teid = h.ues["ue1"].bearers[5].downstream_teid
        frame = gtp.encode_gtpu(SGW, ENB1, teid, GtpMessageType.GPDU, inner)
        assert deliver(h, "enb1", frame) == [
            ("ue1", RECEIVED, {"teid": teid, "bearer_id": 5, **extra})]

    def test_dip_unparseable(self):
        for data in (b"\x45\x00", b"\x65" + bytes(19),
                     # TCP and UDP need their 4 port bytes
                     gtp.build_ipv4(UE1, DIP_A1, 6, b"\x00\x01\x00"),
                     gtp.build_ipv4(UE1, DIP_A1, 17, b""),
                     # the ports are read before the address is checked
                     gtp.build_ipv4(UE1, DIP_A2, 17, b"")):
            assert deliver(make_harness(), "dip-a1", data) == [
                ("dip-a1", DROPPED, {"reason": "unparseable"})]

    def test_dip_not_addressed_here(self):
        frame = gtp.build_ipv4(UE1, DIP_A2, 6, gtp.build_tcpish(6, 1, 80, b""))
        assert deliver(make_harness(), "dip-a1", frame) == [
            ("dip-a1", DROPPED, {"reason": "not-addressed-here"})]

    @pytest.mark.parametrize("proto, transport, dport, echoed", [
        (6, b"\x9c\x40\x00\x50req", 80, b"\x00\x50\x9c\x40req"),
        (17, b"\x9c\x40\x00\x35q", 53, b"\x00\x35\x9c\x40q"),
        # a portless packet's payload comes back unchanged
        (1, b"\x08\x00ping", 0, b"\x08\x00ping"),
        (47, b"\x00\x00\x08\x00gre", 0, b"\x00\x00\x08\x00gre"),
    ])
    def test_dip_echo(self, proto, transport, dport, echoed):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        frame = ipv4_with(UE1, DIP_A1, proto, transport, ihl=6, trailer=b"t")
        events = deliver(h, "dip-a1", frame)
        reply = gtp.build_ipv4(DIP_A1, UE1, proto, echoed)
        assert events == [
            ("dip-a1", RECEIVED, {"from": "172.16.0.2", "dst_port": dport}),
            ("dip-a1", SENT, {"dst": "172.16.0.2", "via": "mgw-a",
                              "note": "echo", "bytes": len(reply)})]
        assert h._queue[-1][2] == reply

    def test_other_kinds_do_not_forward(self):
        frame = gtp.build_ipv4(SGW, UE1, 17, b"")
        for data in (frame, b""):
            assert deliver(make_harness(), "ue1", data) == [
                ("ue1", DROPPED, {"reason": "not-a-forwarder"})]

    def test_sgw_unparseable(self):
        for data in (b"", b"\x45\x00", b"\x65" + bytes(19)):
            assert deliver(make_harness(), "sgw", data) == [
                ("sgw", DROPPED, {"reason": "unparseable"})]

    @pytest.mark.parametrize("proto, kind", [(gtp.PROTO_SCTP, "control"),
                                             (17, "data"), (6, "data")])
    def test_sgw_received(self, proto, kind):
        frame = gtp.build_ipv4(ENB1, SGW, proto, b"")
        assert deliver(make_harness(), "sgw", frame) == [
            ("sgw", RECEIVED, {"kind": kind, "src": "10.1.0.1"})]

    def test_sgw_transit(self):
        # a transit frame goes where its IPv4 header says, as a router's
        frame = gtp.encode_gtpu(ENB1, ENB2, 9, GtpMessageType.GPDU, b"x")
        assert deliver(make_harness(), "sgw", frame) == [
            ("sgw", SENT, {"dst": "10.1.0.2", "via": "mgw-a",
                           "note": "epc-transit", "bytes": len(frame)})]

    def test_sgw_transit_without_route(self):
        # no node owns the address
        frame = gtp.build_ipv4(ENB1, ip_int("10.9.9.9"), 17, b"")
        assert deliver(make_harness(), "sgw", frame) == [
            ("sgw", DROPPED, {"reason": "no-route", "dst": "10.9.9.9"})]

    def test_sgw_transit_unreachable(self):
        # a node that no link joins to the fabric
        cfg = default_topology_config()
        cfg["nodes"]["dip-x"] = {"kind": "dip", "addr": "10.200.0.9",
                                 "megw": "mgw-c"}
        h = Harness(build_topology(cfg))
        frame = gtp.build_ipv4(ENB1, ip_int("10.200.0.9"), 17, b"")
        assert deliver(h, "sgw", frame) == [
            ("sgw", DROPPED, {"reason": "unreachable", "dst": "10.200.0.9"})]

    def test_gateway_routes_no_frame_to_itself(self):
        # plain IP from the core, addressed to the gateway that routes it
        frame = gtp.build_ipv4(SGW, MGW_A, 17, b"")
        assert deliver(make_harness(), "mgw-a", frame, sender="sgw") == [
            ("mgw-a", DROPPED, {"reason": "no-route", "dst": "10.50.0.1"})]

    def test_gateway_records_an_s1ap_decode_error(self):
        # the control frame passes on; its clone names why it is no S1AP
        frame = gtp.build_ipv4(ENB1, SGW, gtp.PROTO_SCTP, b"junk")
        assert deliver(make_harness(), "mgw-a", frame, sender="enb1") == [
            ("mgw-a", SENT, {"dst": "10.2.0.1", "via": "sgw",
                             "note": "control-passthrough",
                             "bytes": len(frame)}),
            ("mgw-a", CLONED, {"kind": "s1ap",
                               "error": "4 bytes is below header size"})]


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


class TestSilentPeriod:
    def test_new_connection_is_held(self):
        # a subscriber silenced mid-handover opens a connection: the flow
        # miss is refused and nothing reaches a DIP, so no reply leaves the
        # gateway untunneled for the eNB to drop
        h = make_harness()
        h.run_attach("ue1", "enb1")
        state, ue = h.megws["mgw-a"], h.ues["ue1"]
        state.rules.set_ue_silent(ue.ip)
        state.processor.contexts[ue.ip].silent = True
        trace = h.run_edge_request("ue1")
        assert [(e.node, e.action) for e in trace] == [
            ("ue1", SENT), ("enb1", SENT), ("mgw-a", CLONED)]
        assert len(state.affinity) == 0 and len(state.rules) == 0


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


class TestDownstreamReplay:
    @pytest.mark.parametrize("new_enb, pinned_after", [
        ("enb2", True), ("enb3", True), ("enb4", False)],
        ids=["same-megw", "same-region", "cross-region"])
    def test_replay_asks_no_stage1(self, monkeypatch, new_enb, pinned_after):
        # the downstream replay reads the flow's pin in the route eNB's
        # region and asks stage I nothing: it answers from the DIP pinned at
        # the region's stage I gateway, and with no pin there it is refused
        replaying = []
        pick = steering.stage1_select

        def guarded(ue_ip, peers):
            if replaying:
                raise AssertionError("the downstream replay asked stage I")
            return pick(ue_ip, peers)

        monkeypatch.setattr(steering, "stage1_select", guarded)
        monkeypatch.setattr(control, "stage1_select", guarded)
        replay = Harness._inject_downstream

        def watched(self, ue, payload):
            replaying.append(ue)
            try:
                replay(self, ue, payload)
            finally:
                replaying.pop()

        monkeypatch.setattr(Harness, "_inject_downstream", watched)
        h = make_harness()
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        ue, topo = h.ues["ue1"], h.topology
        flow, _ = ue.last_flow

        def source(enb):
            serving = topo.view.serving_megw(ue.ip, topo.nodes[enb].ip)
            dip = h.megws[serving].affinity.get(flow)
            return flow.dst_ip if dip is None else dip

        during = source("enb1")
        assert during != flow.dst_ip
        trace = h.run_x2_handover("ue1", "enb1", new_enb)
        assert [e.node for e in count(trace, SENT, note="downstream-inject")
                ] == [topo.addr_to_node[during]]
        after = source(new_enb)
        assert (after != flow.dst_ip) == pinned_after
        if pinned_after:
            trace = h.inject_downstream("ue1")
            assert [e.node for e in count(trace, SENT,
                                          note="downstream-inject")
                    ] == [topo.addr_to_node[after]]
        else:
            with pytest.raises(StateError,
                               match=r"^no server node owns 10\.100\.1\.1$"):
                h.inject_downstream("ue1")
        assert replaying == []


class TestHandoverBack:
    def test_handover_after_a_cross_region_move_completes(self):
        # the flow is pinned in r1 only, so the move back from enb4 has no
        # pin in r2 to probe from, and the handover runs without the probe
        h = make_harness(seed=7)
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        h.run_x2_handover("ue1", "enb1", "enb4")
        trace = h.run_x2_handover("ue1", "enb4", "enb1")
        assert count(trace, SENT, note="downstream-inject") == []
        ue = h.ues["ue1"]
        assert ue.radio_enb == ue.route_enb == "enb1"
        assert ue.ip in h.megws["mgw-a"].processor.contexts
        trace = h.run_edge_request("ue1", reuse_flow=True)
        assert [e.node for e in count(trace, RECEIVED)][-1] == "ue1"


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


class TestOperationErrors:
    """Each scripted operation's refusal, by its exact message."""

    def test_unknown_subscriber(self):
        with pytest.raises(StateError, match="^unknown subscriber 'ue9'$"):
            make_harness().run_attach("ue9", "enb1")

    @pytest.mark.parametrize("enb", ["enb9", "mgw-a"])
    def test_unknown_base_station(self, enb):
        with pytest.raises(StateError,
                           match=f"^unknown base station '{enb}'$"):
            make_harness().run_attach("ue1", enb)

    @pytest.mark.parametrize("bearers", [0, 12, 252])
    def test_bearer_count_out_of_range(self, bearers):
        # refused before anything changes, so the subscriber can attach
        h = make_harness()
        with pytest.raises(
                StateError,
                match=f"^{bearers} bearers: a subscriber has 1 to 11$"):
            h.run_attach("ue1", "enb1", bearers=bearers)
        assert h.ues["ue1"].bearers == {}
        h.run_attach("ue1", "enb1")
        assert list(h.ues["ue1"].bearers) == [5]

    @pytest.mark.parametrize("bearers", [None, 1, 3])
    def test_reattach_keeps_the_bearer_count(self, bearers):
        # a re-attach with another count is refused before anything
        # changes; none, or the subscriber's own, re-attaches
        h = make_harness()
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        before = operation_state(h, "ue1")
        if bearers == 3:
            with pytest.raises(StateError,
                               match="^'ue1' has 1 bearers, not 3$"):
                h.run_attach("ue1", "enb2", bearers=bearers)
            assert operation_state(h, "ue1") == before
        else:
            h.run_attach("ue1", "enb2", bearers=bearers)
            assert h.ues["ue1"].radio_enb == "enb2"
        assert list(h.ues["ue1"].bearers) == [5]

    def test_reattach_keeps_several_bearers(self):
        h = make_harness()
        h.run_attach("ue1", "enb1", bearers=2)
        h.run_attach("ue1", "enb1")
        assert list(h.ues["ue1"].bearers) == [5, 6]
        with pytest.raises(StateError, match="^'ue1' has 2 bearers, not 1$"):
            h.run_attach("ue1", "enb1", bearers=1)

    @pytest.mark.parametrize("change, message", [
        ({"bearer_id": 6}, "^'ue1' continues its flow on bearer 5, not 6$"),
        ({"vip": "10.100.1.2"}, r"^'ue1' continues its flow to "
                                r"10\.100\.1\.1, not 10\.100\.1\.2$")],
        ids=["bearer", "vip"])
    def test_continued_flow_keeps_its_bearer_and_vip(self, change, message):
        # the old 5-tuple up another bearer's tunnel would be answered on
        # the flow's own bearer, and would record the flow on the other
        config = default_topology_config()
        config["vips"].append("10.100.1.2")
        h = Harness(build_topology(config))
        h.run_attach("ue1", "enb1", bearers=2)
        h.run_edge_request("ue1", bearer_id=5)
        before = operation_state(h, "ue1")
        with pytest.raises(StateError, match=message):
            h.run_edge_request("ue1", reuse_flow=True, **change)
        assert operation_state(h, "ue1") == before
        # the flow's own bearer and VIP, named, continue it
        h.run_edge_request("ue1", reuse_flow=True, bearer_id=5,
                           vip="10.100.1.1")
        assert h.ues["ue1"].last_flow == before[1]

    @pytest.mark.parametrize("kwargs, error", [
        ({"dst_port": 70000}, StateError),
        ({"dst_port": -1}, StateError),
        ({"payload": bytes(65480)}, gtp.EncodeError),
        ({"payload": bytes(70000)}, gtp.EncodeError)],
        ids=["port-high", "port-negative", "frame-too-long",
             "packet-too-long"])
    def test_refused_request_changes_nothing(self, kwargs, error):
        # refused before a source port or the last flow is taken, so a
        # later continued request names the flow the gateway saw
        h = make_harness()
        h.run_attach("ue1", "enb1")
        h.run_edge_request("ue1")
        before = operation_state(h, "ue1")
        with pytest.raises(error) as info:
            h.run_edge_request("ue1", **kwargs)
        assert type(info.value) is error
        assert operation_state(h, "ue1") == before

    def test_no_flow_to_continue(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        with pytest.raises(StateError,
                           match="^'ue1' has no flow to continue$"):
            h.run_edge_request("ue1", reuse_flow=True)

    def test_no_flow_to_answer(self):
        h = make_harness()
        h.run_attach("ue1", "enb1")
        with pytest.raises(StateError,
                           match="^'ue1' has no established flow$"):
            h.inject_downstream("ue1")

    def test_downstream_source_no_node_owns(self):
        # a flow no gateway pinned could be answered only from its VIP,
        # which no node holds
        h = make_harness()
        h.run_attach("ue1", "enb1")
        ue = h.ues["ue1"]
        ue.last_flow = (FiveTuple(ue.ip, ip_int("10.100.1.1"), 6, 4000, 80),
                        5)
        with pytest.raises(StateError,
                           match=r"^no server node owns 10\.100\.1\.1$"):
            h.inject_downstream("ue1")

    def test_event_budget(self):
        h = make_harness()
        h.MAX_EVENTS = 1    # an attach's request alone takes two hops
        with pytest.raises(RuntimeError,
                           match=r"^event budget exhausted: routing loop\?$"):
            h.run_attach("ue1", "enb1")


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


# sha256 of `long_run(make_harness())`'s whole trace as `control.jsonl`
# writes it, and of each gateway's controller log (`dump_jsonl()`): the
# fabric's output over 40 handovers and 240 edge requests, beyond the six
# short goldens
LONG_RUN_SHA256 = {
    "trace": "b53748b2e314d94f954389015e1b5d4fa1e7224d7ea6253f2cb780b333da6617",
    "mgw-a": "eb3307bb8da3b553f92d7e255161c47ec76324ac7001754db8b5b744559f584e",
    "mgw-b": "1118e3ea48397f1bad060b3f6bcc621faaa5cffa2228aab85092d88538c98e31",
    "mgw-c": "92451e903e6889ec1c0ac42f339bf2b89b68b343df684604dd2de9168d77ccbc",
}


def test_long_run_output_is_pinned():
    h = make_harness()
    for _ in long_run(h):
        pass
    assert len(h.trace) < harness.TRACE_LIMIT   # the whole run's trace
    logs = {"trace": control.jsonl(h.trace)} | {
        m: gw.processor.dump_jsonl() for m, gw in h.megws.items()}
    assert {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in logs.items()} == LONG_RUN_SHA256


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
            # what the harness holds is bounded too: it trims in batches
            assert len(h._log) <= 2 * 8 + len(got)
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
        assert control.jsonl(h1.trace) == control.jsonl(h2.trace)

    def test_trace_totally_ordered(self):
        h = run_scenario("x2-same-region")
        steps = [e.step for e in h.trace]
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_trace_dst_is_int(self, name):
        # read raw, not through control.dotted: every record that names a
        # destination keeps it as the int routing key, as _send does
        dsts = [ev.detail["dst"] for ev in run_scenario(name, seed=7).trace
                if "dst" in ev.detail]
        assert dsts and all(type(d) is int for d in dsts)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_no_address_written_as_an_int(self, name):
        # control._ADDRESS_FIELDS names the detail keys that hold an
        # address: a key missing from it reaches the JSON as a bare int
        h = run_scenario(name, seed=7)
        addresses = ({spec.ip for spec in h.topology.nodes.values()}
                     | {ip_int(vip) for vip in h.topology.vips})

        def ints(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                return {i for item in value for i in ints(item)}
            return {value} if type(value) is int else set()

        logs = [control.jsonl(h.trace)] + [
            gw.processor.dump_jsonl() for gw in h.megws.values()]
        written = {i for log in logs for line in log.splitlines()
                   for i in ints(json.loads(line))}
        assert written and not written & addresses

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
        trace = control.jsonl(run_scenario(name, seed=7).trace) + "\n"
        assert trace.encode() == (GOLDEN / f"{name}.jsonl").read_bytes()

    @pytest.mark.parametrize("name", ("x2-same-megw", "x2-cross-region"))
    def test_controller_logs_match_golden(self, name):
        """Every gateway's `dump_jsonl()` in gateway-id order, one line
        after each (an empty log leaves an empty line): the log is stored
        compactly and rendered when read, and must read as it always has."""
        h = run_scenario(name, seed=7)
        logs = "".join(h.megws[m].processor.dump_jsonl() + "\n"
                       for m in sorted(h.megws))
        assert logs.encode() == (
            GOLDEN / f"{name}.controller.jsonl").read_bytes()


@pytest.mark.parametrize("table", [control.S1apProcessor._HANDLERS,
                                   harness._SIGNALS],
                         ids=["controller", "fabric"])
def test_every_message_kind_has_one_row(table):
    # a kind added to one table and not to the other fails here
    assert sorted(table, key=lambda kind: kind.value) == list(MessageKind)
