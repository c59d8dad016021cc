"""Steering pipeline: rendezvous hashing, both stages, packet processing."""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, precondition,
                                 rule)

from megw import gtp, steering
from megw.gtp import (Direction, FiveTuple, GtpMessageType, GtpuPacket,
                      build_ipv4, build_tcpish, encode_gtpu, decode_gtpu,
                      ip_int)
from megw.steering import (CloneToController, DipAffinityTable, Drop, Emit,
                           EndMarkerSeen, FlowMiss, FlowRule, Multiple,
                           RuleState, RuleStore, S1apClone, SelectError,
                           SteeringConfig, process_packet, rendezvous_select,
                           stage1_select, stage2_select)

VIP = "10.100.1.1"
ENB1, ENB2, SGW = ip_int("10.1.0.1"), ip_int("10.1.0.2"), ip_int("10.2.0.1")
UE = ip_int("172.16.0.2")


def ipv4(src, dst, proto, payload):
    """An IPv4 packet between two dotted-quad addresses."""
    return build_ipv4(ip_int(src), ip_int(dst), proto, payload)


def make_cfg(megw_id="mgw-a", peers=None, dips=None):
    peers = peers or [("mgw-a", "10.50.0.1", 1.0)]
    dips = dips or [("10.200.0.5", 1.0), ("10.200.0.6", 1.0)]
    return SteeringConfig(megw_id=megw_id, vips=frozenset({VIP}),
                          region_peers=tuple(peers), dips=tuple(dips),
                          local_sgw="10.2.0.1")


def upstream_frame(ue="172.16.0.2", sport=5000, teid=100,
                   enb="10.1.0.1", sgw="10.2.0.1", dst=VIP, payload=b"req"):
    inner = ipv4(ue, dst, 6, build_tcpish(6, sport, 80, payload))
    return encode_gtpu(GtpuPacket(ip_int(enb), ip_int(sgw), teid,
                                  GtpMessageType.GPDU, inner))


def flatten(action):
    return list(action.actions) if isinstance(action, Multiple) else [action]


class TestRendezvous:
    def test_single_candidate(self):
        assert rendezvous_select(b"anything", [("only", 2.5)]) == "only"

    def test_empty_candidates(self):
        with pytest.raises(SelectError):
            rendezvous_select(b"k", [])

    def test_bad_weight(self):
        with pytest.raises(SelectError):
            rendezvous_select(b"k", [("a", 0.0)])

    def test_deterministic(self):
        cands = [("a", 1.0), ("b", 2.0), ("c", 1.0)]
        for key in (b"", b"x", b"key-123"):
            assert rendezvous_select(key, cands) == rendezvous_select(key, cands)

    def test_minimal_disruption(self):
        # removing a losing candidate never remaps a key
        cands = [("a", 1.0), ("b", 1.0), ("c", 2.0), ("d", 2.0)]
        rng = random.Random(1)
        for _ in range(2000):
            key = rng.randbytes(8)
            winner = rendezvous_select(key, cands)
            loser = rng.choice([c for c, _ in cands if c != winner])
            reduced = [(c, w) for c, w in cands if c != loser]
            assert rendezvous_select(key, reduced) == winner

    def test_batch_scores_bad_weight(self):
        with pytest.raises(SelectError):
            steering.rendezvous_scores([b"k"], "a", 0.0)

    @given(keys=st.lists(st.binary(max_size=12), max_size=16),
           cand=st.text(max_size=8),
           weight=st.floats(min_value=1e-3, max_value=1e3))
    def test_batch_scores_equal_scalar(self, keys, cand, weight):
        assert steering.rendezvous_scores(keys, cand, weight) == [
            steering._score(cand, weight, key) for key in keys]

    def test_batch_form_loads_no_numpy(self):
        # gateway processes never load numpy; the batch form must not either
        script = ("import sys, megw.steering; "
                  "print('numpy' in sys.modules)")
        src_dir = os.path.dirname(os.path.dirname(steering.__file__))
        out = subprocess.run([sys.executable, "-c", script],
                             env=dict(os.environ, PYTHONPATH=src_dir),
                             capture_output=True, text=True, timeout=60,
                             check=True)
        assert out.stdout.strip() == "False"

    def test_weight_proportionality(self):
        # chi-square against weight-proportional expectation
        scipy_stats = pytest.importorskip("scipy.stats")
        cands = [("a", 1.0), ("b", 1.0), ("c", 2.0), ("d", 2.0)]
        counts = {c: 0 for c, _ in cands}
        rng = random.Random(42)
        n = 30000
        for _ in range(n):
            counts[rendezvous_select(rng.randbytes(8), cands)] += 1
        total_w = sum(w for _, w in cands)
        expected = [n * w / total_w for _, w in cands]
        observed = [counts[c] for c, _ in cands]
        _, p = scipy_stats.chisquare(observed, expected)
        assert p > 0.001


class TestStage1:
    def test_location_independent(self):
        peers = [("mgw-a", "10.50.0.1", 1.0), ("mgw-b", "10.50.0.2", 1.0),
                 ("mgw-c", "10.50.0.3", 2.0)]
        cfg_a = make_cfg("mgw-a", peers)
        cfg_b = make_cfg("mgw-b", peers)
        cfg_c = make_cfg("mgw-c", peers)
        rng = random.Random(3)
        for _ in range(200):
            ue = f"172.16.{rng.randrange(256)}.{rng.randrange(1, 255)}"
            picks = {stage1_select(ip_int(ue), c)
                     for c in (cfg_a, cfg_b, cfg_c)}
            assert len(picks) == 1

    def test_single_peer_is_self(self):
        cfg = make_cfg("mgw-a", [("mgw-a", "10.50.0.1", 1.0)])
        assert stage1_select(UE, cfg) == "mgw-a"

    def test_memo_is_bounded(self):
        assert stage1_select.cache_info().maxsize is not None

    @staticmethod
    def direct(ue, cfg):
        return rendezvous_select(gtp.pack_ip(ue),
                                 [(pid, w) for pid, _, w in cfg.region_peers])

    def test_memo_matches_direct_hrw(self):
        peers = [("mgw-a", "10.50.0.1", 1.0), ("mgw-b", "10.50.0.2", 1.0),
                 ("mgw-c", "10.50.0.3", 2.0)]
        configs = [make_cfg("mgw-a", peers), make_cfg("mgw-b", peers[:2]),
                   make_cfg("mgw-c", peers + [("mgw-d", "10.50.0.4", 3.0)])]
        rng = random.Random(11)
        for _ in range(10_000):
            ue = "172.%d.%d.%d" % (rng.randrange(16, 32), rng.randrange(256),
                                   rng.randrange(1, 255))
            for cfg in configs:
                expected = self.direct(ue, cfg)
                assert stage1_select(ip_int(ue), cfg) == expected
                assert stage1_select(ip_int(ue), cfg) == expected  # a memo hit

    @given(octets=st.tuples(*[st.integers(0, 255)] * 4),
           weights=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4))
    def test_integer_key_picks_as_dotted(self, octets, weights):
        # stage I hashes the integer address as the four bytes the dotted
        # form packs to, so every HRW choice is what it was for the string
        ue = "%d.%d.%d.%d" % octets
        peers = [(f"mgw-{i}", f"10.50.0.{i + 1}", w)
                 for i, w in enumerate(weights)]
        cfg = make_cfg("mgw-0", peers)
        assert stage1_select(ip_int(ue), cfg) == rendezvous_select(
            gtp.pack_ip(ue), [(pid, w) for pid, _, w in peers])

    def test_weight_change_is_a_new_key(self):
        light = make_cfg("mgw-a", [("mgw-a", "10.50.0.1", 1.0),
                                   ("mgw-b", "10.50.0.2", 1.0)])
        heavy = make_cfg("mgw-a", [("mgw-a", "10.50.0.1", 1.0),
                                   ("mgw-b", "10.50.0.2", 50.0)])
        ues = [f"172.16.1.{i}" for i in range(1, 200)]
        for _ in range(2):
            for ue in ues:
                assert stage1_select(ip_int(ue), light) == self.direct(ue,
                                                                       light)
                assert stage1_select(ip_int(ue), heavy) == self.direct(ue,
                                                                       heavy)
        assert any(stage1_select(ip_int(ue), light)
                   != stage1_select(ip_int(ue), heavy) for ue in ues)


class TestStage2:
    def test_affinity_sticky(self):
        cfg = make_cfg()
        table = DipAffinityTable()
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        first = stage2_select(flow, table, cfg)
        for _ in range(5):
            assert stage2_select(flow, table, cfg) == first
        assert len(table) == 1

    def test_affinity_survives_pool_growth(self):
        cfg = make_cfg(dips=[("10.200.0.5", 1.0)])
        table = DipAffinityTable()
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        assert stage2_select(flow, table, cfg) == ip_int("10.200.0.5")
        grown = make_cfg(dips=[("10.200.0.5", 1.0), ("10.200.0.6", 5.0),
                               ("10.200.0.7", 5.0)])
        assert stage2_select(flow, table, grown) == ip_int("10.200.0.5")

    def test_spread_over_dips(self):
        cfg = make_cfg(dips=[("10.200.0.5", 1.0), ("10.200.0.6", 1.0),
                             ("10.200.0.7", 1.0)])
        table = DipAffinityTable()
        hits = {ip_int(d): 0 for d, _ in cfg.dips}
        for port in range(1000):
            flow = FiveTuple.parse("172.16.0.2", VIP, 6, 1024 + port, 80)
            hits[stage2_select(flow, table, cfg)] += 1
        assert all(v > 0 for v in hits.values())

    def test_empty_pool(self):
        cfg = make_cfg(dips=None)
        cfg = SteeringConfig(megw_id="mgw-a", vips=frozenset({VIP}),
                             region_peers=(("mgw-a", "10.50.0.1", 1.0),),
                             dips=(), local_sgw="10.2.0.1")
        with pytest.raises(SelectError):
            stage2_select(FiveTuple.parse("1.2.3.4", VIP, 6, 1, 2),
                          DipAffinityTable(), cfg)


class TestRuleStore:
    def rule(self, teid=200, state=RuleState.ACTIVE):
        return FlowRule(key=FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80),
                        downstream_teid=teid, enb_addr=ENB1,
                        sgw_addr=SGW, state=state)

    def test_install_lookup(self):
        store = RuleStore()
        r = self.rule()
        store.install(r)
        assert store.lookup(r.key) == r

    def test_idempotent_reinstall(self):
        store = RuleStore()
        store.install(self.rule())
        store.install(self.rule())
        assert len(store) == 1

    def test_conflicting_teid(self):
        store = RuleStore()
        store.install(self.rule(teid=200))
        with pytest.raises(steering.ConflictError):
            store.install(self.rule(teid=201))

    def test_silence_and_reactivate_counts(self):
        store = RuleStore()
        for sport in (5000, 5001):
            store.install(FlowRule(
                key=FiveTuple.parse("172.16.0.2", VIP, 6, sport, 80),
                downstream_teid=200, enb_addr=ENB1,
                sgw_addr=SGW))
        assert store.set_ue_silent(UE) == 2
        assert all(r.state is RuleState.SILENT
                   for r in store.rules_for_ue(UE))
        assert store.set_ue_silent(ip_int("172.16.9.9")) == 0
        assert store.reactivate_ue(UE, {200: 300}, ENB2) == 2
        for r in store.rules_for_ue(UE):
            assert r.state is RuleState.ACTIVE
            assert r.downstream_teid == 300
            assert r.enb_addr == ENB2

    def test_reactivate_with_remap_per_bearer(self):
        store = RuleStore()
        store.install(FlowRule(
            key=FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80),
            downstream_teid=200, enb_addr=ENB1, sgw_addr=SGW))
        store.install(FlowRule(
            key=FiveTuple.parse("172.16.0.2", VIP, 6, 5001, 80),
            downstream_teid=201, enb_addr=ENB1, sgw_addr=SGW))
        store.set_ue_silent(UE)
        touched = store.reactivate_ue(UE, {200: 300, 201: 301}, ENB2)
        assert touched == 2
        by_port = {r.key.src_port: r for r in store.rules_for_ue(UE)}
        assert by_port[5000].downstream_teid == 300
        assert by_port[5001].downstream_teid == 301


UES = tuple(map(ip_int, ("172.16.0.2", "172.16.0.3", "172.16.0.4")))
TEIDS = (200, 201, 300, 301)
ENBS = (ENB1, ENB2)
flow_keys = st.builds(FiveTuple, st.sampled_from(UES), st.just(ip_int(VIP)),
                      st.sampled_from((6, 17)), st.sampled_from((5000, 5001)),
                      st.sampled_from((80, 443)))


class RuleStoreMachine(RuleBasedStateMachine):
    """RuleStore against a flat {5-tuple: rule} table whose per-subscriber
    operations scan every rule and filter on the subscriber address."""

    def __init__(self):
        super().__init__()
        self.store = RuleStore()
        self.model: dict[FiveTuple, FlowRule] = {}

    def flows_of(self, ue):
        return [k for k in self.model if k.src_ip == ue]

    @rule(key=flow_keys, teid=st.sampled_from(TEIDS),
          enb=st.sampled_from(ENBS), state=st.sampled_from(RuleState))
    def install(self, key, teid, enb, state):
        new = FlowRule(key, teid, enb, SGW, state)
        old = self.model.get(key)
        if old is not None and (old.downstream_teid, old.enb_addr) != (
                teid, enb):
            with pytest.raises(steering.ConflictError):
                self.store.install(new)
            return
        self.store.install(new)
        self.model.setdefault(key, new)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def reinstall_conflicting(self, data):
        old = self.model[data.draw(st.sampled_from(list(self.model)))]
        teid = data.draw(st.sampled_from(
            [t for t in TEIDS if t != old.downstream_teid]))
        with pytest.raises(steering.ConflictError):
            self.store.install(FlowRule(old.key, teid, old.enb_addr,
                                        old.sgw_addr))

    @rule(ue=st.sampled_from(UES))
    def set_ue_silent(self, ue):
        touched = 0
        for k in self.flows_of(ue):
            if self.model[k].state is not RuleState.SILENT:
                self.model[k] = FlowRule(k, self.model[k].downstream_teid,
                                         self.model[k].enb_addr,
                                         self.model[k].sgw_addr,
                                         RuleState.SILENT)
                touched += 1
        assert self.store.set_ue_silent(ue) == touched

    @rule(ue=st.sampled_from(UES),
          remap=st.dictionaries(st.sampled_from(TEIDS),
                                st.sampled_from(TEIDS), max_size=3),
          enb=st.sampled_from(ENBS))
    def reactivate_ue(self, ue, remap, enb):
        touched = 0
        for k in self.flows_of(ue):
            old = self.model[k]
            if old.downstream_teid in remap:
                self.model[k] = FlowRule(k, remap[old.downstream_teid], enb,
                                         old.sgw_addr, RuleState.ACTIVE)
                touched += 1
        assert self.store.reactivate_ue(ue, remap, enb) == touched

    @rule(ue=st.sampled_from(UES))
    def release_ue(self, ue):
        keys = self.flows_of(ue)
        for k in keys:
            del self.model[k]
        assert self.store.release_ue(ue) == len(keys)

    @rule(key=flow_keys)
    def lookup(self, key):
        assert self.store.lookup(key) == self.model.get(key)

    @invariant()
    def same_rules_per_subscriber(self):
        for ue in UES:
            assert self.store.rules_for_ue(ue) == [
                r for k, r in self.model.items() if k.src_ip == ue]

    @invariant()
    def same_size(self):
        assert len(self.store) == len(self.model)


TestRuleStoreMachine = RuleStoreMachine.TestCase
TestRuleStoreMachine.settings = settings(max_examples=50, deadline=None)


class TestConfigLoading:
    def test_from_json_document(self):
        doc = {
            "megw_id": "mgw-a",
            "vips": ["10.100.1.1"],
            "region_peers": [
                {"megw_id": "mgw-a", "address": "10.50.0.1", "weight": 2},
                {"megw_id": "mgw-b", "address": "10.50.0.2"},
            ],
            "dips": [{"address": "10.200.0.5"},
                     {"address": "10.200.0.6", "weight": 3}],
            "local_sgw": "10.2.0.1",
        }
        cfg = SteeringConfig.from_dict(doc)
        assert cfg.megw_id == "mgw-a"
        assert cfg.region_peers == (("mgw-a", "10.50.0.1", 2.0),
                                    ("mgw-b", "10.50.0.2", 1.0))
        assert cfg.dips == (("10.200.0.5", 1.0), ("10.200.0.6", 3.0))

    def test_self_must_be_a_peer(self):
        with pytest.raises(ValueError):
            SteeringConfig(megw_id="mgw-x", vips=frozenset({VIP}),
                           region_peers=(("mgw-a", "10.50.0.1", 1.0),),
                           dips=(), local_sgw="10.2.0.1")

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            SteeringConfig(megw_id="mgw-a", vips=frozenset({VIP}),
                           region_peers=(("mgw-a", "10.50.0.1", -1.0),),
                           dips=(), local_sgw="10.2.0.1")


class TestConcurrency:
    def test_many_packet_contexts(self):
        import threading

        cfg = make_cfg()
        rules = RuleStore()
        affinity = DipAffinityTable()
        frames = [upstream_frame(ue=f"172.16.1.{i}", sport=6000 + i, teid=i + 1)
                  for i in range(20)]
        errors = []

        def reader():
            try:
                for _ in range(200):
                    for f in frames:
                        process_packet(f, Direction.FROM_RAN, cfg, rules,
                                       affinity)
            except Exception as exc:  # surface into the main thread
                errors.append(exc)

        def writer():
            try:
                for i in range(20):
                    rules.install(FlowRule(
                        key=FiveTuple.parse(f"172.16.1.{i}", VIP, 6, 6000 + i,
                                            80),
                        downstream_teid=100 + i, enb_addr=ENB1,
                        sgw_addr=SGW))
                    rules.set_ue_silent(ip_int(f"172.16.1.{i}"))
                    rules.reactivate_ue(ip_int(f"172.16.1.{i}"),
                                        {100 + i: 200 + i}, ENB2)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(rules) == 20

    def test_len_while_subscribers_come_and_go(self):
        import threading

        rules = RuleStore()
        errors = []

        def churn(base):
            try:
                for i in range(300):
                    ue = f"172.{base}.{i // 250}.{i % 250}"
                    rules.install(FlowRule(
                        FiveTuple.parse(ue, VIP, 6, 5000, 80), 100, ENB1,
                        SGW))
                    if i % 2:
                        rules.release_ue(ip_int(ue))
            except Exception as exc:
                errors.append(exc)

        def count():
            try:
                for _ in range(2000):
                    assert 0 <= len(rules) <= 4 * 300
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(b,))
                   for b in range(16, 20)]
        threads += [threading.Thread(target=count) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(rules) == 4 * 150


class TestProcessPacket:
    def setup_method(self):
        self.peers = [("mgw-a", "10.50.0.1", 1.0), ("mgw-b", "10.50.0.2", 1.0)]
        self.cfg = make_cfg("mgw-a", self.peers)
        self.rules = RuleStore()
        self.affinity = DipAffinityTable()

    def process(self, data, ingress=Direction.FROM_RAN):
        return process_packet(data, ingress, self.cfg, self.rules,
                              self.affinity)

    def test_control_plane_clone_and_passthrough(self):
        frame = ipv4("10.2.0.1", "10.1.0.1", 132, b"signalling")
        acts = flatten(self.process(frame, Direction.FROM_CORE))
        emits = [a for a in acts if isinstance(a, Emit)]
        clones = [a for a in acts if isinstance(a, CloneToController)]
        assert len(emits) == 1 and len(clones) == 1
        assert emits[0].data == frame
        assert emits[0].dst == "10.1.0.1"
        assert isinstance(clones[0].event, S1apClone)
        assert clones[0].event.payload == b"signalling"

    def test_end_marker_clone(self):
        frame = encode_gtpu(GtpuPacket(SGW, ENB1, 0xC8,
                                       GtpMessageType.END_MARKER, b""))
        acts = flatten(self.process(frame, Direction.FROM_CORE))
        clones = [a for a in acts if isinstance(a, CloneToController)]
        assert clones and clones[0].event == EndMarkerSeen(
            enb_addr=ENB1, teid=0xC8)
        emits = [a for a in acts if isinstance(a, Emit)]
        assert emits[0].dst == "10.1.0.1"

    def test_upstream_miss_clones_and_forwards(self):
        frame = upstream_frame(ue="172.16.0.2", teid=100)
        acts = flatten(self.process(frame))
        clones = [a for a in acts if isinstance(a, CloneToController)]
        emits = [a for a in acts if isinstance(a, Emit)]
        assert len(clones) == 1 and len(emits) == 1
        miss = clones[0].event
        assert isinstance(miss, FlowMiss)
        assert miss.upstream_teid == 100
        assert miss.five_tuple == FiveTuple.parse("172.16.0.2", VIP, 6, 5000,
                                                  80)

    def test_upstream_hit_no_clone(self):
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        self.rules.install(FlowRule(flow, 200, ENB1, SGW))
        acts = flatten(self.process(upstream_frame()))
        assert not [a for a in acts if isinstance(a, CloneToController)]

    def test_stage1_self_rewrites_to_dip(self):
        # find a subscriber that hashes to mgw-a so stage II runs locally
        ue = next(f"172.16.0.{i}" for i in range(1, 250)
                  if stage1_select(ip_int(f"172.16.0.{i}"), self.cfg)
                  == "mgw-a")
        acts = flatten(self.process(upstream_frame(ue=ue)))
        emit = [a for a in acts if isinstance(a, Emit)][0]
        assert emit.note == "dip-rewrite"
        out = gtp.parse_ipv4(emit.data)
        assert out.dst in {ip_int(d) for d, _ in self.cfg.dips}
        assert out.src == ip_int(ue)

    def test_stage1_remote_hands_off_decapsulated(self):
        ue = next(f"172.16.0.{i}" for i in range(1, 250)
                  if stage1_select(ip_int(f"172.16.0.{i}"), self.cfg)
                  == "mgw-b")
        acts = flatten(self.process(upstream_frame(ue=ue)))
        emit = [a for a in acts if isinstance(a, Emit)][0]
        assert emit.note == "stage1-handoff"
        assert emit.dst == "10.50.0.2"
        out = gtp.parse_ipv4(emit.data)  # no longer GTP: plain inner packet
        assert out.dst == ip_int(VIP)

    def test_handoff_arrival_rewrites_to_dip(self):
        inner = ipv4("172.16.0.9", VIP, 6, build_tcpish(6, 6000, 80, b"r"))
        act = self.process(inner, Direction.FROM_CLUSTER)
        assert isinstance(act, Emit) and act.note == "dip-rewrite"

    def test_downstream_reencap_active_rule(self):
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        self.rules.install(FlowRule(flow, 0xC8, ENB1, SGW))
        echo = ipv4(VIP, "172.16.0.2", 6, build_tcpish(6, 80, 5000, b"ok"))
        act = self.process(echo, Direction.FROM_CLUSTER)
        assert isinstance(act, Emit) and act.note == "gtp-encap"
        pkt = decode_gtpu(act.data)  # verified through the codec oracle
        assert pkt.teid == 0xC8
        assert pkt.outer_dst == ENB1
        assert pkt.outer_src == SGW
        assert gtp.parse_ipv4(pkt.inner).dst == UE

    def test_downstream_undoes_dip_rewrite(self):
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        dip = stage2_select(flow, self.affinity, self.cfg)
        self.rules.install(FlowRule(flow, 0xC8, ENB1, SGW))
        echo = build_ipv4(dip, UE, 6, build_tcpish(6, 80, 5000, b"ok"))
        act = self.process(echo, Direction.FROM_CLUSTER)
        assert isinstance(act, Emit) and act.note == "gtp-encap"
        pkt = decode_gtpu(act.data)
        assert gtp.parse_ipv4(pkt.inner).src == ip_int(VIP)  # sees the VIP

    @pytest.mark.parametrize("first", ["10.100.1.1", "10.100.1.2"])
    def test_downstream_restores_first_pinned_vip(self, first):
        # two flows differing only in the VIP, pinned to the one DIP: the
        # return packet restores the VIP pinned first
        cfg = SteeringConfig(megw_id="mgw-a",
                             vips=frozenset({"10.100.1.1", "10.100.1.2"}),
                             region_peers=(("mgw-a", "10.50.0.1", 1.0),),
                             dips=(("10.200.0.5", 1.0),), local_sgw="10.2.0.1")
        second = ({"10.100.1.1", "10.100.1.2"} - {first}).pop()
        for vip in (first, second):
            stage2_select(FiveTuple.parse("172.16.0.2", vip, 6, 5000, 80),
                          self.affinity, cfg)
        echo = ipv4("10.200.0.5", "172.16.0.2", 6,
                    build_tcpish(6, 80, 5000, b"ok"))
        act = process_packet(echo, Direction.FROM_CLUSTER, cfg, self.rules,
                             self.affinity)
        assert gtp.parse_ipv4(act.data).src == ip_int(first)

    def test_downstream_restore_independent_of_hash_seed(self):
        # frozenset iteration order changes with PYTHONHASHSEED; seeds 0 and
        # 1 order {10.100.1.1, 10.100.1.2} differently
        script = textwrap.dedent("""
            from megw.gtp import (Direction, FiveTuple, build_ipv4,
                                  build_tcpish, ip_int, ip_str, parse_ipv4)
            from megw.steering import (DipAffinityTable, RuleStore,
                                       SteeringConfig, process_packet,
                                       stage2_select)
            cfg = SteeringConfig("mgw-a",
                                 frozenset({"10.100.1.1", "10.100.1.2"}),
                                 (("mgw-a", "10.50.0.1", 1.0),),
                                 (("10.200.0.5", 1.0),), "10.2.0.1")
            aff = DipAffinityTable()
            for vip in ("10.100.1.2", "10.100.1.1"):
                stage2_select(FiveTuple.parse("172.16.0.2", vip, 6, 5000, 80),
                              aff, cfg)
            echo = build_ipv4(ip_int("10.200.0.5"), ip_int("172.16.0.2"), 6,
                              build_tcpish(6, 80, 5000, b"ok"))
            act = process_packet(echo, Direction.FROM_CLUSTER, cfg,
                                 RuleStore(), aff)
            print(ip_str(parse_ipv4(act.data).src))
        """)
        src_dir = os.path.dirname(os.path.dirname(steering.__file__))
        restored = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=60,
                                 check=True)
            restored.append(out.stdout.strip())
        assert restored == ["10.100.1.2", "10.100.1.2"]

    def test_handoff_arrival_repairs_corrupt_checksum(self):
        inner = bytearray(ipv4("172.16.0.9", VIP, 6,
                               build_tcpish(6, 6000, 80, b"r")))
        inner[10] ^= 0x5A
        act = self.process(bytes(inner), Direction.FROM_CLUSTER)
        assert isinstance(act, Emit) and act.note == "dip-rewrite"
        assert gtp.ipv4_checksum(act.data[:20]) == 0

    def test_downstream_silent_rule_drops(self):
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        self.rules.install(FlowRule(flow, 0xC8, ENB1, SGW))
        self.rules.set_ue_silent(UE)
        echo = ipv4(VIP, "172.16.0.2", 6, build_tcpish(6, 80, 5000, b"x"))
        act = self.process(echo, Direction.FROM_CLUSTER)
        assert isinstance(act, Drop)

    def test_upstream_silent_rule_clones_without_forward(self):
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        self.rules.install(FlowRule(flow, 0xC8, ENB1, SGW))
        self.rules.set_ue_silent(UE)
        act = self.process(upstream_frame())
        assert isinstance(act, CloneToController)
        assert isinstance(act.event, FlowMiss)

    def test_silent_then_reactivated_resumes_with_new_teid(self):
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        self.rules.install(FlowRule(flow, 0xC8, ENB1, SGW))
        self.rules.set_ue_silent(UE)
        self.rules.reactivate_ue(UE, {0xC8: 0x12C}, ip_int("10.1.0.7"))
        echo = ipv4(VIP, "172.16.0.2", 6, build_tcpish(6, 80, 5000, b"x"))
        act = self.process(echo, Direction.FROM_CLUSTER)
        pkt = decode_gtpu(act.data)
        assert pkt.teid == 0x12C
        assert pkt.outer_dst == ip_int("10.1.0.7")

    def test_non_vip_gtp_routes_by_outer(self):
        frame = upstream_frame(dst="93.184.216.34")  # internet-bound
        act = self.process(frame)
        assert isinstance(act, Emit) and act.note == "ip-route"
        assert act.dst == "10.2.0.1"
        assert act.data == frame  # untouched, still tunneled

    def test_gtp_with_optional_fields_routes_by_outer(self):
        # flags 0x32 (sequence number present) fail the tunnel checks, so
        # the frame is plain-routed, not steered (ROADMAP item 2)
        frame = bytearray(upstream_frame())
        frame[28] = 0x32
        act = self.process(bytes(frame))
        assert isinstance(act, Emit) and act.note == "ip-route"
        assert act.dst == "10.2.0.1"
        assert act.data == bytes(frame)

    def test_plain_traffic_routes_by_destination(self):
        frame = ipv4("10.9.0.1", "10.9.0.2", 6, build_tcpish(6, 1, 2, b""))
        act = self.process(frame, Direction.FROM_CORE)
        assert isinstance(act, Emit) and act.dst == "10.9.0.2"

    def test_garbage_never_crashes(self):
        rng = random.Random(0xBAD)
        for _ in range(500):
            blob = rng.randbytes(rng.randrange(0, 100))
            for d in Direction:
                act = process_packet(blob, d, self.cfg, self.rules,
                                     self.affinity)
                assert isinstance(act, (Emit, Drop, Multiple,
                                        CloneToController))

    def test_pipeline_pure(self):
        frame = upstream_frame()
        a1 = self.process(frame)
        a2 = self.process(frame)
        # identical inputs and table snapshots give identical actions
        assert a1 == a2
