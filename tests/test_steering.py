"""Steering pipeline: rendezvous hashing, both stages, packet processing."""

import functools
import hashlib
import itertools
import math
import os
import random
import struct
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import fields, is_dataclass, replace
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, precondition,
                                 rule)

from megw import gtp, steering
from megw.sim import HASH_CHUNK
from megw.gtp import (Direction, FiveTuple, GtpMessageType, build_ipv4,
                      build_tcpish, build_udp, encode_gtpu, decode_gtpu,
                      ip_int, ip_str)
from megw.hrw import (SelectError, rendezvous_pick, rendezvous_select,
                      stage1_key)
from megw.steering import (CloneToController, DipAffinityTable, Drop, Emit,
                           EndMarkerSeen, FlowMiss, FlowRule, Multiple,
                           RuleStore, S1apClone, SILENT, SteeringConfig,
                           Tunnel, process_packet, stage1_select)

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
    return encode_gtpu(ip_int(enb), ip_int(sgw), teid,
                       GtpMessageType.GPDU, inner)


def reference_pick(key, candidates):
    """Weighted HRW written from its definition: x is the big-endian
    blake2b-64 digest of a 4-byte length prefix, the candidate id and the
    key; u = (x + 0.5) / 2**64 and the score is -weight / ln(u); the first
    candidate with the highest score wins."""
    scores = []
    for cand_id, weight in candidates:
        ident = cand_id.encode()
        digest = hashlib.blake2b(len(ident).to_bytes(4, "big") + ident + key,
                                 digest_size=8).digest()
        u = (int.from_bytes(digest, "big") + 0.5) / 2.0 ** 64
        scores.append(-weight / math.log(u))
    return scores.index(max(scores))


def flatten(action):
    return list(action.actions) if isinstance(action, Multiple) else [action]


def shape(value):
    """A value as (type, fields), recursing into dataclasses (the actions
    and events) and tuples (`Multiple.actions`, `FiveTuple`), so that two
    values compare equal only if every part has the same type: a tuple
    equals a NamedTuple, and a tuple of equal fields of another type."""
    if is_dataclass(value):
        return type(value), tuple(shape(getattr(value, f.name))
                                  for f in fields(value))
    if isinstance(value, tuple):
        return type(value), tuple(shape(v) for v in value)
    return value


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

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_weight_must_be_finite(self, weight):
        # a NaN weight never won a key and an infinite one won them all
        with pytest.raises(SelectError):
            rendezvous_pick([b"k"], [("a", 1.0), ("b", weight), ("c", 1.0)])
        with pytest.raises(ValueError):
            SteeringConfig(megw_id="mgw-a", vips=frozenset({VIP}),
                           region_peers=(("mgw-a", "10.50.0.1", weight),),
                           dips=(("10.200.0.5", 1.0),), local_sgw="10.2.0.1")

    def test_batch_scores_bad_weight(self):
        for keys in ([b"k"], []):
            with pytest.raises(SelectError):
                rendezvous_pick(keys, [])
            with pytest.raises(SelectError):
                rendezvous_pick(keys, [("a", 1.0), ("b", 0.0)])

    @given(keys=st.lists(st.binary(max_size=12), max_size=16),
           cands=st.lists(st.tuples(
               st.text(max_size=6),
               st.sampled_from([1.0, 2.0])
               | st.floats(min_value=1e-3, max_value=1e3)),
               min_size=1, max_size=6))
    @example(keys=[b"k", b""], cands=[("only", 2.5)])
    @example(keys=[b"k", b"j"], cands=[("a", 1.0), ("a", 1.0)])
    @example(keys=[], cands=[("a", 1.0), ("b", 2.0)])
    def test_batch_scores_equal_scalar(self, keys, cands):
        assert rendezvous_pick(keys, cands) == [
            reference_pick(key, cands) for key in keys]

    @pytest.mark.parametrize("size", [1, 12, HASH_CHUNK, HASH_CHUNK + 1])
    @pytest.mark.parametrize("container", [list, tuple])
    def test_any_batch_size_picks_as_single_keys(self, size, container):
        # the simulator's batches run from one key to HASH_CHUNK of them; a
        # batch picks what key-by-key calls do, whether the candidates come
        # as a list or a tuple
        rng = random.Random(size)
        keys = [rng.randbytes(4) for _ in range(size)]
        cands = container([("mec-0-0", 1), ("mec-0-1", 1), ("mec-0-2", 2),
                           ("mec-0-3", 2)])
        picks = rendezvous_pick(keys, cands)
        assert picks == [rendezvous_pick([key], cands)[0] for key in keys]
        assert picks == [reference_pick(key, cands) for key in keys]

    def test_known_picks(self):
        # recorded picks: any change to the hash, the score or the tie rule
        # moves some of them
        keys = [struct.pack("!Q", u) for u in
                (0, 1, 2, 3, 1000, 65535, 123456789, 2 ** 64 - 1)]
        dips = [("10.200.0.1", 1.0), ("10.200.0.2", 1.0),
                ("10.200.0.3", 2.0), ("10.200.0.4", 4.0)]
        region0 = [("mec-0-0", 1.0), ("mec-0-1", 1.0), ("mec-0-2", 2.0),
                   ("mec-0-3", 2.0)]     # region 0 of SimConfig()'s map
        assert rendezvous_pick(keys, dips) == [2, 3, 0, 3, 2, 1, 2, 2]
        assert rendezvous_pick(keys, region0) == [3, 3, 3, 2, 3, 3, 2, 0]

    def test_tie_goes_to_first_candidate(self):
        # two candidates with one id and one weight score alike for every
        # key; the first of them wins, also behind a candidate with another
        # id. Checked by index, since a comparison of names cannot tell
        # the two apart
        keys = [struct.pack("!Q", u) for u in range(8)]
        assert rendezvous_pick(keys, [("b", 2.0), ("b", 2.0)]) == [0] * 8
        assert rendezvous_pick(keys, [("a", 1.0), ("b", 2.0), ("b", 2.0)]) \
            == [1, 1, 1, 0, 0, 1, 0, 1]

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
            picks = {stage1_select(ip_int(ue), c.stage1_peers)
                     for c in (cfg_a, cfg_b, cfg_c)}
            assert len(picks) == 1

    def test_single_peer_is_self(self):
        cfg = make_cfg("mgw-a", [("mgw-a", "10.50.0.1", 1.0)])
        assert stage1_select(UE, cfg.stage1_peers) == "mgw-a"

    @staticmethod
    def direct(ue, cfg):
        return rendezvous_select(gtp.pack_ip(ue),
                                 [(pid, w) for pid, _, w in cfg.region_peers])

    def test_matches_direct_hrw(self):
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
                peers = cfg.stage1_peers
                assert stage1_select(ip_int(ue), peers) == expected
                # a second call agrees
                assert stage1_select(ip_int(ue), peers) == expected

    @given(octets=st.tuples(*[st.integers(0, 255)] * 4),
           weights=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4))
    def test_integer_key_picks_as_dotted(self, octets, weights):
        # stage I hashes the integer address as the four bytes the dotted
        # form packs to, so every HRW choice is what it was for the string
        ue = "%d.%d.%d.%d" % octets
        peers = [(f"mgw-{i}", f"10.50.0.{i + 1}", w)
                 for i, w in enumerate(weights)]
        cfg = make_cfg("mgw-0", peers)
        assert stage1_select(ip_int(ue), cfg.stage1_peers) \
            == rendezvous_select(gtp.pack_ip(ue),
                                 [(pid, w) for pid, _, w in peers])

    def test_weight_change_is_a_new_key(self):
        light = make_cfg("mgw-a", [("mgw-a", "10.50.0.1", 1.0),
                                   ("mgw-b", "10.50.0.2", 1.0)])
        heavy = make_cfg("mgw-a", [("mgw-a", "10.50.0.1", 1.0),
                                   ("mgw-b", "10.50.0.2", 50.0)])
        ues = [f"172.16.1.{i}" for i in range(1, 200)]
        for _ in range(2):
            for ue in ues:
                for cfg in (light, heavy):
                    assert stage1_select(ip_int(ue), cfg.stage1_peers) \
                        == self.direct(ue, cfg)
        assert any(stage1_select(ip_int(ue), light.stage1_peers)
                   != stage1_select(ip_int(ue), heavy.stage1_peers)
                   for ue in ues)
        # a changed peer weight is a new question, answered by its own HRW
        heavier = replace(heavy, region_peers=(("mgw-a", "10.50.0.1", 1.0),
                                               ("mgw-b", "10.50.0.2", 60.0)))
        assert heavier.stage1_peers == (("mgw-a", 1.0), ("mgw-b", 60.0))
        for ue in ues:
            assert stage1_select(ip_int(ue), heavier.stage1_peers) \
                == self.direct(ue, heavier)

    def test_dip_or_vip_change_keeps_the_key(self):
        # stage I reads only the region's candidates: a config with other
        # DIPs or VIPs asks the same question and gets the same picks
        cfg = make_cfg("mgw-a", [("mgw-a", "10.50.0.1", 1.0),
                                 ("mgw-b", "10.50.0.2", 2.0)])
        ues = [ip_int(f"172.16.2.{i}") for i in range(1, 200)]
        picks = [stage1_select(ue, cfg.stage1_peers) for ue in ues]
        for changed in (replace(cfg, dips=(("10.200.0.9", 3.0),)),
                        replace(cfg, vips=frozenset({"10.100.1.9"}))):
            assert changed != cfg
            assert changed.stage1_peers == cfg.stage1_peers
            assert [stage1_select(ue, changed.stage1_peers)
                    for ue in ues] == picks

    def test_equal_configs_hash_alike(self):
        # the dataclass hashes its fields, the VIPs as they were given, and
        # equal configs ask stage I one question
        a, b = make_cfg(), make_cfg()
        assert a == b and a is not b
        assert a.vips == frozenset({VIP}) and list(a.vip_ints) == [ip_int(VIP)]
        assert hash(a) == hash(b) == hash((a.megw_id, a.vips, a.region_peers,
                                           a.dips, a.local_sgw))
        assert a.stage1_peers == b.stage1_peers == (("mgw-a", 1.0),)
        assert stage1_select(UE, b.stage1_peers) \
            == stage1_select(UE, a.stage1_peers)


class TestStage2:
    def test_affinity_sticky(self):
        cfg = make_cfg()
        table = DipAffinityTable()
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        first = table.get_or_assign(flow, cfg)
        for _ in range(5):
            assert table.get_or_assign(flow, cfg) == first
        assert len(table) == 1

    def test_affinity_survives_pool_growth(self):
        cfg = make_cfg(dips=[("10.200.0.5", 1.0)])
        table = DipAffinityTable()
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        assert table.get_or_assign(flow, cfg) == ip_int("10.200.0.5")
        grown = make_cfg(dips=[("10.200.0.5", 1.0), ("10.200.0.6", 5.0),
                               ("10.200.0.7", 5.0)])
        assert table.get_or_assign(flow, grown) == ip_int("10.200.0.5")

    def test_spread_over_dips(self):
        cfg = make_cfg(dips=[("10.200.0.5", 1.0), ("10.200.0.6", 1.0),
                             ("10.200.0.7", 1.0)])
        table = DipAffinityTable()
        hits = {ip_int(d): 0 for d, _ in cfg.dips}
        for port in range(1000):
            flow = FiveTuple.parse("172.16.0.2", VIP, 6, 1024 + port, 80)
            hits[table.get_or_assign(flow, cfg)] += 1
        assert all(v > 0 for v in hits.values())

    def test_plain_tuple_probes_as_five_tuple(self):
        cfg = make_cfg()
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        table, ref = DipAffinityTable(), DipAffinityTable()
        dip = table.get_or_assign(tuple(flow), cfg)     # a miss
        assert dip == ref.get_or_assign(flow, cfg)
        assert [type(k) for k in table._table] == [FiveTuple]
        assert table.get_or_assign(flow, cfg) == dip    # hits
        assert table.get_or_assign(tuple(flow), cfg) == dip
        assert len(table) == 1
        vips = cfg.vip_ints
        back = (flow.src_ip, dip, 6, 5000, 80)
        assert table.vip_for(back, vips) \
            == table.vip_for(FiveTuple(*back), vips) == flow.dst_ip
        other = (flow.src_ip, dip, 6, 5001, 80)
        assert table.vip_for(other, vips) \
            is table.vip_for(FiveTuple(*other), vips) is None

    @given(data=st.data(), n_vips=st.integers(2, 3),
           n_pinned=st.integers(0, 12), pool=st.integers(1, 3))
    def test_vip_for_equals_a_table_scan(self, data, n_vips, n_pinned, pool):
        # pins from the first `pool` DIPs of four, so the last is never
        # pinned, some of one flow under every VIP, so that one DIP can
        # hold it for two VIPs; the probe's source is a pinned DIP, an
        # unpinned pool DIP, a VIP or any address, and its flow often
        # that of a pin
        dips = tuple((f"10.200.0.{i}", 1.0) for i in range(1, 5))
        cfg = make_cfg(dips=dips[:pool])
        vips = tuple(ip_int(f"10.100.1.{i}") for i in range(1, n_vips + 1))
        ports = st.sampled_from((5000, 80))
        flows = st.builds(FiveTuple, st.sampled_from((UE, UE + 1)),
                          st.sampled_from(vips), st.sampled_from((6, 17)),
                          ports, ports)
        table = DipAffinityTable()
        for _ in range(n_pinned):
            flow = data.draw(flows)
            for vip in vips if data.draw(st.booleans()) else flow[1:2]:
                table.get_or_assign(flow._replace(dst_ip=vip), cfg)
        pinned = sorted(set(table._table.values()))
        unpinned = [d for d in (ip_int(a) for a, _ in dips)
                    if d not in pinned]
        source = data.draw(st.sampled_from(
            [st.sampled_from(pinned)] * bool(pinned)
            + [st.sampled_from(unpinned), st.sampled_from(vips),
               st.integers(0, 0xFFFFFFFF)]).flatmap(lambda kind: kind))
        pins = st.sampled_from(list(table._table)) if table._table \
            else st.nothing()
        ue, _, proto, ue_port, port = data.draw(pins | flows)
        found = table.vip_for((ue, source, proto, ue_port, port), vips)
        scan = [key.dst_ip for key, dip in table._table.items()
                if dip == source and key.dst_ip in vips
                and key[:1] + key[2:] == (ue, proto, ue_port, port)]
        assert found == min(scan, default=None)

    def test_stores_a_five_tuple_as_given(self):
        cfg = make_cfg()
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        table = DipAffinityTable()
        table.get_or_assign(flow, cfg)
        assert [k is flow for k in table._table] == [True]

    def test_a_pick_that_raises_pins_nothing(self, monkeypatch):
        # a config never has an empty pool (test_dip_pool_must_not_be_empty),
        # so HRW's own check is forced here: the error reaches the caller
        # and the table stays empty
        def fail(key, candidates):
            raise SelectError("no candidate")

        monkeypatch.setattr(steering, "rendezvous_select", fail)
        table = DipAffinityTable()
        with pytest.raises(SelectError):
            table.get_or_assign(FiveTuple.parse("1.2.3.4", VIP, 6, 1, 2),
                                make_cfg())
        assert not table._table


class TestRuleStore:
    def rule(self, teid=200):
        return FlowRule(key=FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80),
                        downstream_teid=teid, enb_addr=ENB1, sgw_addr=SGW)

    def test_install_lookup(self):
        store = RuleStore()
        r = self.rule()
        store.install(r)
        assert store.lookup(r.key) == Tunnel(200, ENB1, SGW)

    def test_plain_tuple_lookup(self):
        store = RuleStore()
        r = self.rule()
        store.install(r)
        miss = r.key._replace(src_port=5001)
        assert store.lookup(tuple(r.key)) == store.lookup(r.key) \
            == Tunnel(200, ENB1, SGW)
        assert store.lookup(tuple(miss)) is store.lookup(miss) is None
        store.set_ue_silent(UE)
        assert store.lookup(tuple(r.key)) is store.lookup(r.key) is SILENT
        # the silence holds a flow with no rule too
        assert store.lookup(tuple(miss)) is store.lookup(miss) is SILENT

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
        assert all(store.lookup(r.key) is SILENT
                   for r in store.rules_for_ue(UE))
        assert store.set_ue_silent(ip_int("172.16.9.9")) == 0
        assert store.reactivate_ue(UE, {200: 300}, ENB2) == 2
        for r in store.rules_for_ue(UE):
            assert store.lookup(r.key) == Tunnel(*r[1:])
            assert r.downstream_teid == 300
            assert r.enb_addr == ENB2

    def test_reactivate_with_remap_per_bearer(self):
        # the flow on TEID 202 belongs to a bearer the remap does not list:
        # it ends with the handover
        store = RuleStore()
        for sport, teid in ((5000, 200), (5001, 201), (5002, 202)):
            store.install(FlowRule(
                key=FiveTuple.parse("172.16.0.2", VIP, 6, sport, 80),
                downstream_teid=teid, enb_addr=ENB1, sgw_addr=SGW))
        store.set_ue_silent(UE)
        kept = store.reactivate_ue(UE, {200: 300, 201: 301}, ENB2)
        assert kept == len(store) == 2
        by_port = {r.key.src_port: r for r in store.rules_for_ue(UE)}
        assert by_port.keys() == {5000, 5001}
        assert by_port[5000].downstream_teid == 300
        assert by_port[5001].downstream_teid == 301


UES = tuple(map(ip_int, ("172.16.0.2", "172.16.0.3", "172.16.0.4")))
TEIDS = (200, 201, 300, 301)
ENBS = (ENB1, ENB2)
flow_keys = st.builds(FiveTuple, st.sampled_from(UES), st.just(ip_int(VIP)),
                      st.sampled_from((6, 17)), st.sampled_from((5000, 5001)),
                      st.sampled_from((80, 443)))


class FlatRules:
    """RuleStore's sequential model: a flat {5-tuple: rule} table whose
    per-subscriber operations scan every rule and filter on the subscriber
    address, and a set of silenced subscribers. Each operation answers, or
    raises, as the store should."""

    def __init__(self, rules=(), silent=()):
        self.rules: dict[FiveTuple, FlowRule] = dict(rules)
        self.silent: set[int] = set(silent)

    def state(self):
        """A hashable snapshot."""
        return frozenset(self.rules.values()), frozenset(self.silent)

    def copy(self):
        return FlatRules(self.rules, self.silent)

    def flows_of(self, ue):
        return [k for k in self.rules if k.src_ip == ue]

    def install(self, rule):
        old = self.rules.setdefault(rule.key, rule)
        if old[1:] != rule[1:]:
            raise steering.ConflictError(rule.key)

    def set_ue_silent(self, ue):
        self.silent.add(ue)
        return len(self.flows_of(ue))

    def reactivate_ue(self, ue, remap, enb):
        # a flow whose TEID the remap lacks ends with the handover
        kept = 0
        for k in self.flows_of(ue):
            old = self.rules.pop(k)
            if old.downstream_teid in remap:
                self.rules[k] = FlowRule(k, remap[old.downstream_teid], enb,
                                         old.sgw_addr)
                kept += 1
        self.silent.discard(ue)
        return kept

    def release_ue(self, ue):
        keys = self.flows_of(ue)
        for k in keys:
            del self.rules[k]
        self.silent.discard(ue)
        return len(keys)

    def lookup(self, key):
        if key[0] in self.silent:
            return SILENT
        rule = self.rules.get(key)
        return None if rule is None else Tunnel(*rule[1:])

    def uplink(self, key):
        """What the uplink frame of the flow `key` is answered under
        CONC_CFG, as `uplink_outcome` reads it: stage I by HRW itself."""
        if key[0] in self.silent:
            return "held"
        return ("known" if key in self.rules else "new",
                rendezvous_select(stage1_key(key[0]), CONC_CFG.stage1_peers))


# the config `SteeredStore.uplink` steers under: stage I serves UE here
# and hands UE + 1 off to mgw-b
CONC_CFG = make_cfg("mgw-a", [("mgw-a", "10.50.0.1", 1.0),
                              ("mgw-b", "10.50.0.2", 2.0)])


def uplink_outcome(action, cfg):
    """An uplink frame's answer under `cfg`: "held" when it went to the
    controller alone; else whether its flow was "new" (a flow miss came
    first) or "known", and the gateway stage I served it from."""
    *miss, act = flatten(action)
    if isinstance(act, CloneToController):
        return "held"
    peers = {addr: pid for pid, addr, _ in cfg.region_peers}
    return ("new" if miss else "known",
            cfg.megw_id if act.note == "dip-rewrite" else peers[act.dst])


class SteeredStore(RuleStore):
    """A `RuleStore` with one more reader, `uplink`: the flow's uplink
    G-PDU through `process_packet` under CONC_CFG."""

    def __init__(self):
        super().__init__()
        self.affinity = DipAffinityTable()

    def uplink(self, key):
        return uplink_outcome(process_packet(
            uplink_frame(key), Direction.FROM_RAN, CONC_CFG, self,
            self.affinity), CONC_CFG)


def store_of(model):
    """A `SteeredStore` in the state of `model`, a `FlatRules`."""
    store = SteeredStore()
    for rule in model.rules.values():
        store.install(rule)
    for ue in model.silent:
        store.set_ue_silent(ue)
    return store


class FlatPins:
    """DipAffinityTable's sequential model: a flat {flow: DIP int} map. A
    miss pins the config's int for the DIP that HRW picks over its pool,
    and `vip_for` probes the VIPs lowest first."""

    def __init__(self, pins=()):
        self.pins: dict[tuple, int] = dict(pins)

    def state(self):
        """A hashable snapshot."""
        return frozenset(self.pins.items())

    def copy(self):
        return FlatPins(self.pins)

    def get(self, flow):
        return self.pins.get(flow)

    def get_or_assign(self, flow, cfg):
        if flow not in self.pins:
            self.pins[flow] = cfg.dip_ints[rendezvous_select(
                FiveTuple(*flow).key_bytes(), cfg.dips)]
        return self.pins[flow]

    def vip_for(self, dip_flow, vips):
        ue, dip, proto, ue_port, port = dip_flow
        for vip in sorted(vips):
            if self.pins.get((ue, vip, proto, ue_port, port)) == dip:
                return vip
        return None


def pins_of(model, cfg):
    """A `DipAffinityTable` in the state of `model`, a `FlatPins` whose
    pins `cfg` picks."""
    table = DipAffinityTable()
    for flow in model.pins:
        table.get_or_assign(flow, cfg)
    assert FlatPins(table._table).state() == model.state()
    return table


def outcome(table, op, args):
    """What `table.op(*args)` answers, or the class of the error it
    raises: a store and its model agree when their outcomes are equal."""
    try:
        return getattr(table, op)(*args)
    except steering.ConflictError:
        return steering.ConflictError


class RuleStoreMachine(RuleBasedStateMachine):
    """RuleStore against `FlatRules`. The store keeps one value per
    tunnel, which all flows on it share."""

    def __init__(self):
        super().__init__()
        self.store = RuleStore()
        self.model = FlatRules()

    def agree(self, op, *args):
        assert outcome(self.store, op, args) == outcome(self.model, op, args)

    @rule(key=flow_keys, teid=st.sampled_from(TEIDS),
          enb=st.sampled_from(ENBS))
    def install(self, key, teid, enb):
        self.agree("install", FlowRule(key, teid, enb, SGW))

    @precondition(lambda self: self.model.rules)
    @rule(data=st.data())
    def reinstall_conflicting(self, data):
        old = self.model.rules[data.draw(st.sampled_from(
            list(self.model.rules)))]
        teid = data.draw(st.sampled_from(
            [t for t in TEIDS if t != old.downstream_teid]))
        with pytest.raises(steering.ConflictError):
            self.store.install(FlowRule(old.key, teid, old.enb_addr,
                                        old.sgw_addr))

    @rule(ue=st.sampled_from(UES))
    def set_ue_silent(self, ue):
        self.agree("set_ue_silent", ue)

    @rule(ue=st.sampled_from(UES),
          remap=st.dictionaries(st.sampled_from(TEIDS),
                                st.sampled_from(TEIDS), max_size=3),
          enb=st.sampled_from(ENBS))
    def reactivate_ue(self, ue, remap, enb):
        self.agree("reactivate_ue", ue, remap, enb)

    @rule(ue=st.sampled_from(UES))
    def release_ue(self, ue):
        self.agree("release_ue", ue)

    @rule(key=flow_keys)
    def lookup(self, key):
        self.agree("lookup", key)

    @invariant()
    def one_value_per_tunnel(self):
        # after installs and reactivations alike: equal tunnels are one
        # object, which every flow on it gets from lookup
        for ue in set(UES) - self.model.silent:
            found = [self.store.lookup(k) for k in self.model.flows_of(ue)]
            assert all(type(t) is Tunnel for t in found)
            assert len(set(map(id, found))) == len(set(found))

    @invariant()
    def same_rules_per_subscriber(self):
        for ue in UES:
            assert self.store.rules_for_ue(ue) == [
                r for k, r in self.model.rules.items() if k.src_ip == ue]

    @invariant()
    def same_size(self):
        assert len(self.store) == len(self.model.rules)


TestRuleStoreMachine = RuleStoreMachine.TestCase
TestRuleStoreMachine.settings = settings(max_examples=50, deadline=None)


class TestConfigLoading:
    def test_self_must_be_a_peer(self):
        with pytest.raises(ValueError):
            SteeringConfig(megw_id="mgw-x", vips=frozenset({VIP}),
                           region_peers=(("mgw-a", "10.50.0.1", 1.0),),
                           dips=(("10.200.0.5", 1.0),), local_sgw="10.2.0.1")

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            SteeringConfig(megw_id="mgw-a", vips=frozenset({VIP}),
                           region_peers=(("mgw-a", "10.50.0.1", -1.0),),
                           dips=(("10.200.0.5", 1.0),), local_sgw="10.2.0.1")

    def test_dip_pool_must_not_be_empty(self):
        # stage II needs a DIP to pick: an empty pool would make every
        # VIP-bound frame raise in process_packet, which never raises
        with pytest.raises(ValueError, match="^the DIP pool is empty$"):
            SteeringConfig(megw_id="mgw-a", vips=frozenset({VIP}),
                           region_peers=(("mgw-a", "10.50.0.1", 1.0),),
                           dips=(), local_sgw="10.2.0.1")

    @pytest.mark.parametrize("peer, dip", [("10.50.0.1", "10.200.0.999"),
                                           ("10.50.0.1", "010.200.0.5"),
                                           ("10.50.0.256", "10.200.0.5")])
    def test_addresses_checked_when_built(self, peer, dip):
        # a bad DIP would otherwise raise on the first VIP-bound packet
        with pytest.raises(gtp.EncodeError):
            SteeringConfig(megw_id="mgw-a", vips=frozenset({VIP}),
                           region_peers=(("mgw-a", peer, 1.0),),
                           dips=((dip, 1.0),), local_sgw="10.2.0.1")

    def test_peer_ints_read_each_peer_once(self):
        cfg = SteeringConfig(megw_id="mgw-a", vips=frozenset({VIP}),
                             region_peers=(("mgw-a", "10.50.0.1", 1.0),
                                           ("mgw-b", "10.50.0.2", 2.0)),
                             dips=(("10.200.0.5", 1.0),), local_sgw="10.2.0.1")
        assert cfg.peer_ints == {"mgw-a": ip_int("10.50.0.1"),
                                 "mgw-b": ip_int("10.50.0.2")}

    @pytest.mark.parametrize("vip", [ip_int(VIP), None, b"10.100.1.1"])
    def test_vips_must_be_dotted(self, vip):
        # the config keeps its VIPs as given, so an int is no VIP either
        with pytest.raises(gtp.EncodeError):
            SteeringConfig(megw_id="mgw-a", vips=frozenset({vip}),
                           region_peers=(("mgw-a", "10.50.0.1", 1.0),),
                           dips=(("10.200.0.5", 1.0),), local_sgw="10.2.0.1")


def race(*targets):
    """Run each target in a thread of its own under a one-microsecond
    switch interval, so that the threads switch as often as the
    interpreter lets them (still only every 50 to 250 us or so, on a
    2-core VM); join them all and fail if one is left running or raised. No target starts before
    every thread runs, so a writer cannot finish before its readers look."""
    errors = []
    start = threading.Barrier(len(targets), timeout=60)

    def guarded(target):
        try:
            start.wait()
            target()
        except Exception as exc:  # surface into the main thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
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


def steering_lines(before):
    """A trace function that calls `before()` ahead of each line that
    `megw.steering` runs, and traces nothing else."""
    def lines(frame, event, arg):
        if event == "line":
            before()
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename == steering.__file__ else None

    return calls


def record(table, plans, coin):
    """Run each plan, a list of (operation, args) on `table`, in a thread
    of its own under `race`; return the history, one (call, return,
    operation, args, outcome) per operation, its times taken with
    `time.perf_counter_ns` in its thread.

    A plan takes less time than the interpreter runs one thread before it
    switches, whatever the switch interval, so each thread yields too:
    before a line of `megw.steering`, when `coin()` draws under 0.1, it
    sleeps for no time, which lets another thread take over there."""
    history = []

    def pause():
        if coin() < 0.1:
            time.sleep(0)

    def run(plan):
        for op, args in plan:
            call = time.perf_counter_ns()
            answer = outcome(table, op, args)
            history.append((call, time.perf_counter_ns(), op, args, answer))

    tracing = threading.gettrace()
    threading.settrace(steering_lines(pause))
    try:
        race(*(functools.partial(run, plan) for plan in plans))
    finally:
        threading.settrace(tracing)
    return history


def linearizable(history, model):
    """Whether `history`, as `record` returns it, has a linearization from
    `model`, a `FlatRules` in the state the history starts from: an order
    of its operations that keeps each one ahead of every operation called
    after it returned, and under which the model gives every outcome
    (Herlihy and Wing, TOPLAS 1990). Wing and Gong's depth-first search,
    with Lowe's memo of the (model state, operations done) pairs that
    lead nowhere."""
    ops = sorted(history, key=lambda op: op[0])
    everything = (1 << len(ops)) - 1
    dead = set()

    def search(model, done):
        if done == everything:
            return True
        memo = (model.state(), done)
        if memo in dead:
            return False
        pending = [i for i in range(len(ops)) if not done >> i & 1]
        first_return = min(ops[i][1] for i in pending)
        for i in pending:
            call, _, op, args, answer = ops[i]
            if call > first_return:
                break   # something pending returned before this was called
            after = model.copy()
            if (outcome(after, op, args) == answer
                    and search(after, done | 1 << i)):
                return True
        dead.add(memo)
        return False

    return search(model, 0)


def interleaved(table, outer, inner, at):
    """Run `outer`, an (operation, args) on `table`, and before its `at`th
    line in `megw.steering` run `inner`, a list of them, in the same
    thread: one thread's operation taken over there by another's. Return
    the history as `record` would, or None if `outer` has fewer lines."""
    inside = []
    lines_run = 0

    def take_over():
        nonlocal lines_run
        lines_run += 1
        if lines_run == at:
            for i, (op, args) in enumerate(inner, 1):
                inside.append((2 * i, 2 * i + 1, op, args,
                               outcome(table, op, args)))

    tracing = sys.gettrace()
    sys.settrace(steering_lines(take_over))
    try:
        answer = outcome(table, *outer)
    finally:
        sys.settrace(tracing)
    if lines_run < at:
        return None
    return [(1, 2 * len(inner) + 2, *outer, answer)] + inside


class TestLinearizable:
    """The checker on histories written out by hand, times in ns."""

    key = FiveTuple(UE, ip_int(VIP), 6, 5000, 80)
    old = Tunnel(100, ENB1, SGW)

    def silenced(self):
        return FlatRules({self.key: FlowRule(self.key, *self.old)}, {UE})

    def test_sequential_history(self):
        history = [(0, 1, "lookup", (self.key,), SILENT),
                   (2, 3, "release_ue", (UE,), 1),
                   (4, 5, "lookup", (self.key,), None),
                   (6, 7, "set_ue_silent", (UE,), 0)]
        assert linearizable(history, self.silenced())
        history[2] = (4, 5, "lookup", (self.key,), SILENT)
        assert not linearizable(history, self.silenced())

    @pytest.mark.parametrize("answer", [SILENT, None])
    def test_a_read_may_take_either_side_of_a_write_it_overlaps(self, answer):
        history = [(0, 10, "release_ue", (UE,), 1),
                   (5, 15, "lookup", (self.key,), answer)]
        assert linearizable(history, self.silenced())

    def test_a_read_after_a_write_sees_it(self):
        history = [(0, 10, "release_ue", (UE,), 1),
                   (11, 15, "lookup", (self.key,), SILENT)]
        assert not linearizable(history, self.silenced())

    @pytest.mark.parametrize("op, args", [
        ("release_ue", (UE,)), ("reactivate_ue", (UE, {100: 200}, ENB2))])
    def test_the_old_tunnel_of_a_silenced_subscriber_is_never_read(
            self, op, args):
        history = [(0, 10, op, args, 1),
                   (5, 15, "lookup", (self.key,), self.old)]
        assert not linearizable(history, self.silenced())

    def test_outcomes_order_the_writes(self):
        # a silence that counts no rule goes before the install: it may
        # while the two overlap, not once it is called after the install
        # returned
        rule = FlowRule(self.key, *self.old)
        history = [(0, 10, "install", (rule,), None),
                   (5, 15, "set_ue_silent", (UE,), 1),
                   (1, 2, "set_ue_silent", (UE,), 0)]
        assert linearizable(history, FlatRules())
        history[2] = (11, 12, "set_ue_silent", (UE,), 0)
        assert not linearizable(history, FlatRules())


class TestConcurrency:
    def test_many_packet_contexts(self):
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
        rules = RuleStore()

        def churn(base):
            for i in range(300):
                ue = f"172.{base}.{i // 250}.{i % 250}"
                rules.install(FlowRule(
                    FiveTuple.parse(ue, VIP, 6, 5000, 80), 100, ENB1, SGW))
                if i % 2:
                    rules.release_ue(ip_int(ue))

        def count():
            for _ in range(2000):
                assert 0 <= len(rules) <= 4 * 300

        race(*(functools.partial(churn, b) for b in range(16, 20)),
             count, count)
        assert len(rules) == 4 * 150

    def test_known_flow_never_reads_new_during_reactivate(self):
        # a reader that saw None for a ruled flow would report a FlowMiss
        # and pin it afresh, and one that saw the old tunnel after the
        # silence ended would send into it; reactivation i moves the flows
        # to eNB address i, so once silence k has begun, a reader of a kept
        # flow sees SILENT or a tunnel at an address of at least k
        rules = RuleStore()
        keys = [FiveTuple(UE, ip_int(VIP), 6, 5000 + i, 80) for i in range(4)]
        for i, key in enumerate(keys):
            rules.install(FlowRule(key, 100 + i % 2, 0, SGW))
        silenced = [0]
        done = []
        seen = set()
        wrong = []
        read_silent = threading.Event()

        def reader():
            while not done:
                for key in keys:
                    k = silenced[0]
                    answer = rules.lookup(key)
                    if answer is SILENT:
                        seen.add(SILENT)
                        if not read_silent.is_set():
                            read_silent.set()
                    elif answer is None or answer.enb_addr < k:
                        wrong.append((k, answer))
                    else:
                        seen.add(Tunnel)

        def writer():
            try:
                for i in range(1, 1501):
                    rules.set_ue_silent(UE)
                    silenced[0] = i
                    # a silence lasts a few bytecodes, and the scheduler may
                    # run no reader inside any of them: hold the first one
                    # until a reader has read it
                    if i == 1 and not read_silent.wait(timeout=30):
                        raise AssertionError("no reader read the silence")
                    rules.reactivate_ue(UE, {100: 100, 101: 101}, i)
            finally:
                done.append(True)

        race(writer, reader, reader)
        assert wrong == []
        assert seen == {SILENT, Tunnel}
        assert len(rules) == 4
        assert {t.enb_addr for t in (rules.lookup(k) for k in keys)} == {1500}

    def test_released_subscriber_never_reads_its_old_tunnel(self):
        # readers follow the subscriber being released; each is silenced
        # first, so until its rules go it reads SILENT and after, None
        rules = RuleStore()
        ues = [UE + i for i in range(4000)]
        for ue in ues:
            for port in (5000, 5001):
                rules.install(FlowRule(FiveTuple(ue, ip_int(VIP), 6, port,
                                                 80), 100, ENB1, SGW))
            rules.set_ue_silent(ue)
        current = [0]
        done = []
        seen = set()
        read = threading.Event()

        def reader():
            vip = ip_int(VIP)
            while not done:
                ue = ues[current[0]]
                for port in (5000, 5001):
                    answer = rules.lookup((ue, vip, 6, port, 80))
                    seen.add(answer if answer is SILENT or answer is None
                             else Tunnel)
                if not read.is_set():
                    read.set()

        def writer():
            try:
                for i, ue in enumerate(ues):
                    current[0] = i
                    # the scheduler may run no reader before the writer is
                    # done: hold the first release until a reader has read
                    if i == 0 and not read.wait(timeout=30):
                        raise AssertionError("no reader read a flow")
                    rules.release_ue(ue)
            finally:
                done.append(True)

        race(writer, reader, reader)
        assert seen <= {SILENT, None}
        assert seen
        assert len(rules) == 0

    def test_subscriber_silenced_before_its_first_rule(self):
        # a subscriber with no rule is silenced, gets its first rule and is
        # reactivated onto a new tunnel: a reader sees None before the
        # silence, SILENT in it and the new tunnel after, never the rule's
        # tunnel from before the reactivation
        rules = RuleStore()
        ues = [UE + i for i in range(3000)]
        vip = ip_int(VIP)
        new = Tunnel(200, ENB2, SGW)
        current = [0]
        done = []
        seen = set()
        wrong = []
        read = {SILENT: threading.Event(), new: threading.Event()}

        def reader():
            while not done:
                answer = rules.lookup((ues[current[0]], vip, 6, 5000, 80))
                if answer is None or answer is SILENT or answer == new:
                    seen.add(answer)
                    if answer is not None and not read[answer].is_set():
                        read[answer].set()
                else:
                    wrong.append(answer)

        def wait_for(answer):
            # a subscriber reads SILENT, or `new`, only until the writer
            # moves on, and the scheduler may run no reader in that time:
            # hold the first subscriber until a reader has read it
            if not read[answer].wait(timeout=30):
                raise AssertionError(f"no reader read {answer}")

        def writer():
            try:
                for i, ue in enumerate(ues):
                    current[0] = i
                    rules.set_ue_silent(ue)
                    if i == 0:
                        wait_for(SILENT)
                    rules.install(FlowRule(FiveTuple(ue, vip, 6, 5000, 80),
                                           100, ENB1, SGW))
                    rules.reactivate_ue(ue, {100: 200}, ENB2)
                    if i == 0:
                        wait_for(new)
            finally:
                done.append(True)

        race(writer, reader, reader)
        assert wrong == []
        assert {SILENT, new} <= seen
        assert len(rules) == len(ues)
        assert all(rules.lookup((ue, vip, 6, 5000, 80)) == new for ue in ues)

    def test_uplink_takes_no_lock(self):
        # a known flow's first uplink frame, which keeps its stage I pick,
        # returns while a writer holds the store's lock; its subscriber is
        # handed off, so the frame pins nothing either
        key = FiveTuple(UE + 1, ip_int(VIP), 6, 5000, 80)
        rules = RuleStore()
        rules.install(FlowRule(key, 100, ENB1, SGW))
        answers = []

        def uplink():
            answers.append(uplink_outcome(process_packet(
                uplink_frame(key), Direction.FROM_RAN, CONC_CFG, rules,
                DipAffinityTable()), CONC_CFG))

        thread = threading.Thread(target=uplink, daemon=True)
        rules._lock.acquire()
        try:
            thread.start()
            thread.join(timeout=5)
            assert not thread.is_alive(), "the uplink waits on the lock"
        finally:
            rules._lock.release()
            thread.join()
        assert answers == [("known", "mgw-b")]
        assert rules._by_ue[key.src_ip].serving == "mgw-b"

    def test_uplink_hands_off_by_stage1_while_records_change(self):
        # under each of two configs with other weights, on a store of its
        # own, uplink frames race a writer that silences each subscriber
        # and then reactivates it, which carries its pick to a new record,
        # or releases it and installs its flow again, on a record with no
        # pick: a frame that is not held goes to the gateway
        # `stage1_select` picks under the config
        peers = [("mgw-a", "10.50.0.1", 1.0), ("mgw-b", "10.50.0.2", 1.0),
                 ("mgw-c", "10.50.0.3", 2.0)]
        configs = (make_cfg("mgw-a", peers),
                   make_cfg("mgw-a", [peers[0], peers[1][:2] + (3.0,),
                                      peers[2][:2] + (0.5,)]))
        keys = [FiveTuple(UE + i, ip_int(VIP), 6, 5000, 80)
                for i in range(48)]
        picks = [[stage1_select(k.src_ip, cfg.stage1_peers) for k in keys]
                 for cfg in configs]
        assert picks[0] != picks[1]
        for cfg, picked in zip(configs, picks):
            assert set(picked) == {"mgw-a", "mgw-b", "mgw-c"}
            frames = [(uplink_frame(k), pick) for k, pick in zip(keys, picked)]
            rules = RuleStore()
            for key in keys:
                rules.install(FlowRule(key, 100, ENB1, SGW))
            done, wrong, seen = [], [], set()
            read = threading.Event()

            def reader(order):
                affinity = DipAffinityTable()
                while not done:
                    for frame, pick in order:
                        answer = uplink_outcome(process_packet(
                            frame, Direction.FROM_RAN, cfg, rules, affinity),
                            cfg)
                        if answer == "held":
                            continue
                        seen.add(answer[1])
                        if answer[1] != pick:
                            wrong.append((frame, answer))
                    read.set()

            def writer():
                try:
                    # the scheduler may run no reader before the writer is
                    # done: hold the first write until a reader has read
                    # every frame once
                    if not read.wait(timeout=30):
                        raise AssertionError("no reader read every frame")
                    for i in range(200):
                        for key in keys:
                            rules.set_ue_silent(key.src_ip)
                            if (i + key.src_ip) % 3:
                                rules.reactivate_ue(key.src_ip, {100: 100},
                                                    ENB2)
                            else:
                                rules.release_ue(key.src_ip)
                                rules.install(FlowRule(key, 100, ENB1, SGW))
                finally:
                    done.append(True)

            race(writer, functools.partial(reader, frames),
                 functools.partial(reader, frames[::-1]))
            assert wrong == []
            assert seen == {"mgw-a", "mgw-b", "mgw-c"}
            for ue, record in rules._by_ue.items():
                assert record.serving in (
                    None, stage1_select(ue, cfg.stage1_peers))

    def test_each_operation_taken_over_at_every_line(self):
        # every place where one operation can stop for another: a read (a
        # lookup, or an uplink frame's read of the record and its stored
        # pick) by any run of writes, a write by a read (a write inside a
        # write would wait on the lock), before each line that the outer
        # one runs; from three states of one subscriber with one flow ruled
        vip = ip_int(VIP)
        ruled, new = (FiveTuple(UE, vip, 6, port, 80) for port in (5000, 5001))
        starts = [FlatRules(), FlatRules({ruled: FlowRule(ruled, 100, ENB1,
                                                          SGW)})]
        starts.append(FlatRules(starts[1].rules, {UE}))
        writes = [("install", (FlowRule(new, 100, ENB1, SGW),)),
                  ("install", (FlowRule(ruled, 100, ENB1, SGW),)),
                  ("set_ue_silent", (UE,)), ("release_ue", (UE,)),
                  ("reactivate_ue", (UE, {100: 200}, ENB2))]
        reads = [(op, (key,)) for op in ("lookup", "uplink")
                 for key in (ruled, new)]
        cases = [(w, [r]) for w in writes for r in reads]
        cases += [(r, [w]) for r in reads for w in writes]
        cases += [(r, [writes[2], writes[0]]) for r in reads]
        checked = 0
        for start in starts:
            for outer, inner in cases:
                for at in itertools.count(1):
                    history = interleaved(store_of(start), outer, inner, at)
                    if history is None:
                        break
                    assert linearizable(history, start.copy()), history
                    checked += 1
        assert checked > 3 * len(cases), checked

    def test_rule_store_histories_are_linearizable(self):
        # small random histories of three threads on two subscribers of
        # two flows each, one of them silenced to begin with, whose reads
        # are lookups and uplink frames; each must have a linearization
        # under the flat model
        vip = ip_int(VIP)
        ues = (UE, UE + 1)
        keys = [FiveTuple(ue, vip, 6, port, 80)
                for ue in ues for port in (5000, 5001)]
        start = FlatRules({k: FlowRule(k, 100 + k.src_port % 2, ENB1, SGW)
                           for k in keys}, {UE})
        writes = ([("install", (FlowRule(k, teid, ENB1, SGW),))
                   for k in keys for teid in (100, 101)]
                  + [("set_ue_silent", (ue,)) for ue in ues]
                  + [("release_ue", (ue,)) for ue in ues]
                  + [("reactivate_ue", (ue, remap, enb)) for ue in ues
                     for remap in ({100: 200, 101: 201}, {101: 100})
                     for enb in (ENB1, ENB2)])
        reads = [(op, (k,)) for op in ("lookup", "uplink") for k in keys]
        draw = random.Random(7)
        for _ in range(250):
            plans = [[draw.choice(writes if draw.random() < 0.4 else reads)
                      for _ in range(draw.randint(10, 20))]
                     for _ in range(3)]
            history = record(store_of(start), plans, draw.random)
            assert linearizable(history, start.copy()), sorted(
                history, key=lambda op: op[0])

    def test_lookup_overtaken_by_release_silence_and_install(self):
        # one thread looks up one flow over and over while another
        # releases its subscriber, gives it back a sibling flow, silences
        # it and installs the flow again: the sibling keeps a record that
        # is not silent and lacks the flow, so a lookup is often overtaken
        # there by the silence and the install; each history must have a
        # linearization
        key = FiveTuple(UE, ip_int(VIP), 6, 5000, 80)
        rule = FlowRule(key, 100, ENB1, SGW)
        sibling = FlowRule(key._replace(src_port=5001), 100, ENB1, SGW)
        start = FlatRules({key: rule})
        cycle = [("release_ue", (UE,)), ("install", (sibling,)),
                 ("set_ue_silent", (UE,)), ("install", (rule,))]
        draw = random.Random(11)
        for _ in range(300):
            history = record(store_of(start),
                             [[("lookup", (key,))] * 30, cycle * 3],
                             draw.random)
            assert linearizable(history, start.copy()), sorted(
                history, key=lambda op: op[0])

    def pin_cases(self):
        """A config of two VIPs and two DIPs; flows of one subscriber that
        HRW pins under both VIPs to one DIP (`shared`) and to two
        (`split`); and the start states the affinity checks begin from:
        no pin, each flow under the higher VIP, and every pin."""
        vips = ("10.100.1.1", "10.100.1.2")
        cfg = SteeringConfig(megw_id="mgw-a", vips=frozenset(vips),
                             region_peers=(("mgw-a", "10.50.0.1", 1.0),),
                             dips=(("10.200.0.5", 1.0), ("10.200.0.6", 1.0)),
                             local_sgw="10.2.0.1")
        low, high = cfg.vip_ints
        dips = {}
        for port in range(5000, 5100):
            flows = [FiveTuple(UE, vip, 6, port, 80) for vip in (low, high)]
            picks = {FlatPins().get_or_assign(f, cfg) for f in flows}
            dips.setdefault(len(picks), flows)
        shared, split = dips[1], dips[2]
        everything = FlatPins()
        for flow in shared + split:
            everything.get_or_assign(flow, cfg)
        starts = [FlatPins(), FlatPins({f: everything.pins[f]
                                        for f in (shared[1], split[1])}),
                  everything]
        return cfg, shared, split, starts

    def pin_operations(self, cfg, shared, split):
        """Each flow's miss-or-hit and read, and `vip_for` of each flow's
        return traffic from either DIP."""
        writes = [("get_or_assign", (f, cfg)) for f in shared + split]
        reads = [("get", (f,)) for f in shared + split]
        reads += [("vip_for", ((f.src_ip, dip, f.proto, f.src_port,
                                f.dst_port), cfg.vip_ints))
                  for f in (shared[0], split[0])
                  for dip in cfg.dip_ints.values()]
        return writes, reads

    def test_affinity_histories_are_linearizable(self):
        # small random histories of three threads on the affinity table;
        # each must have a linearization under the flat model
        cfg, shared, split, starts = self.pin_cases()
        writes, reads = self.pin_operations(cfg, shared, split)
        draw = random.Random(13)
        for n in range(150):
            start = starts[n % len(starts)]
            plans = [[draw.choice(writes if draw.random() < 0.4 else reads)
                      for _ in range(draw.randint(10, 20))]
                     for _ in range(3)]
            history = record(pins_of(start, cfg), plans, draw.random)
            assert linearizable(history, start.copy()), sorted(
                history, key=lambda op: op[0])

    def test_each_affinity_operation_taken_over_at_every_line(self):
        # a read taken over by any run of pins, a pin by a read (a pin
        # inside a pin's miss would wait on the lock), before each line
        # that the outer one runs, from each start state
        cfg, shared, split, starts = self.pin_cases()
        writes, reads = self.pin_operations(cfg, shared, split)
        cases = [(w, [r]) for w in writes for r in reads]
        cases += [(r, [w]) for r in reads for w in writes]
        cases += [(r, writes[:2]) for r in reads]
        checked = 0
        for start in starts:
            for outer, inner in cases:
                for at in itertools.count(1):
                    history = interleaved(pins_of(start, cfg), outer, inner,
                                          at)
                    if history is None:
                        break
                    assert linearizable(history, start.copy()), history
                    checked += 1
        assert checked > 3 * len(cases), checked

    def test_racing_misses_pin_each_flow_once(self, monkeypatch):
        # threads that miss one fresh flow together pin it once: one HRW
        # pick per flow, every thread answers that pick, and every pin
        # holds the config's int for its DIP
        cfg = make_cfg()
        affinity = DipAffinityTable()
        picks = []

        def counted(key, candidates):
            picks.append(key)
            return rendezvous_select(key, candidates)

        monkeypatch.setattr(steering, "rendezvous_select", counted)
        flows = [(UE + i, ip_int(VIP), 6, 5000 + i, 80) for i in range(300)]
        answers = [[] for _ in range(4)]

        def assign(out):
            for flow in flows:
                out.append(affinity.get_or_assign(flow, cfg))

        race(*(functools.partial(assign, out) for out in answers))
        assert sorted(picks) == sorted(FiveTuple(*f).key_bytes()
                                       for f in flows)
        assert len(affinity) == len(flows)
        pins = [affinity.get(flow) for flow in flows]
        addrs = [rendezvous_select(FiveTuple(*f).key_bytes(), cfg.dips)
                 for f in flows]
        assert all(pin is cfg.dip_ints[addr]
                   for pin, addr in zip(pins, addrs, strict=True))
        assert set(addrs) == set(cfg.dip_ints)
        assert all(got is pin for out in answers
                   for got, pin in zip(out, pins, strict=True))


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
        frame = encode_gtpu(SGW, ENB1, 0xC8,
                            GtpMessageType.END_MARKER, b"")
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

    def test_new_local_flow_has_one_key(self):
        ue = next(f"172.16.0.{i}" for i in range(1, 250)
                  if stage1_select(ip_int(f"172.16.0.{i}"),
                                   self.cfg.stage1_peers)
                  == "mgw-a")
        acts = flatten(self.process(upstream_frame(ue=ue)))
        miss = [a.event for a in acts if isinstance(a, CloneToController)]
        assert [type(m) for m in miss] == [FlowMiss]
        assert [a.note for a in acts if isinstance(a, Emit)] == [
            "dip-rewrite"]
        (stored,) = self.affinity._table
        assert stored is miss[0].five_tuple

    def test_upstream_hit_no_clone(self):
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        self.rules.install(FlowRule(flow, 200, ENB1, SGW))
        acts = flatten(self.process(upstream_frame()))
        assert not [a for a in acts if isinstance(a, CloneToController)]

    def test_stage1_self_rewrites_to_dip(self):
        # find a subscriber that hashes to mgw-a so stage II runs locally
        ue = next(f"172.16.0.{i}" for i in range(1, 250)
                  if stage1_select(ip_int(f"172.16.0.{i}"),
                                   self.cfg.stage1_peers)
                  == "mgw-a")
        acts = flatten(self.process(upstream_frame(ue=ue)))
        emit = [a for a in acts if isinstance(a, Emit)][0]
        assert emit.note == "dip-rewrite"
        out = ref_parse_ipv4(emit.data)
        assert out.dst in {ip_int(d) for d, _ in self.cfg.dips}
        assert out.src == ip_int(ue)

    def test_stage1_remote_hands_off_decapsulated(self):
        ue = next(f"172.16.0.{i}" for i in range(1, 250)
                  if stage1_select(ip_int(f"172.16.0.{i}"),
                                   self.cfg.stage1_peers)
                  == "mgw-b")
        acts = flatten(self.process(upstream_frame(ue=ue)))
        emit = [a for a in acts if isinstance(a, Emit)][0]
        assert emit.note == "stage1-handoff"
        assert emit.dst == "10.50.0.2"
        out = ref_parse_ipv4(emit.data)  # no longer GTP: plain inner packet
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
        assert ref_parse_ipv4(pkt.inner).dst == UE

    def test_downstream_undoes_dip_rewrite(self):
        flow = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        dip = self.affinity.get_or_assign(flow, self.cfg)
        self.rules.install(FlowRule(flow, 0xC8, ENB1, SGW))
        echo = build_ipv4(dip, UE, 6, build_tcpish(6, 80, 5000, b"ok"))
        act = self.process(echo, Direction.FROM_CLUSTER)
        assert isinstance(act, Emit) and act.note == "gtp-encap"
        pkt = decode_gtpu(act.data)
        assert ref_parse_ipv4(pkt.inner).src == ip_int(VIP)  # sees the VIP

    @pytest.mark.parametrize("first", ["10.100.1.1", "10.100.1.2"])
    def test_downstream_restores_lowest_matching_vip(self, first):
        # two flows differing only in the VIP, pinned to the one DIP: the
        # return packet restores the lowest VIP, whatever the pin order
        cfg = SteeringConfig(megw_id="mgw-a",
                             vips=frozenset({"10.100.1.1", "10.100.1.2"}),
                             region_peers=(("mgw-a", "10.50.0.1", 1.0),),
                             dips=(("10.200.0.5", 1.0),), local_sgw="10.2.0.1")
        second = ({"10.100.1.1", "10.100.1.2"} - {first}).pop()
        for vip in (first, second):
            self.affinity.get_or_assign(
                FiveTuple.parse("172.16.0.2", vip, 6, 5000, 80), cfg)
        echo = ipv4("10.200.0.5", "172.16.0.2", 6,
                    build_tcpish(6, 80, 5000, b"ok"))
        act = process_packet(echo, Direction.FROM_CLUSTER, cfg, self.rules,
                             self.affinity)
        assert ref_parse_ipv4(act.data).src == ip_int("10.100.1.1")

    def test_downstream_restore_independent_of_hash_seed(self):
        # frozenset iteration order changes with PYTHONHASHSEED; seeds 0 and
        # 1 order {10.100.1.1, 10.100.1.2} differently
        script = textwrap.dedent("""
            from megw.gtp import (Direction, FiveTuple, build_ipv4,
                                  build_tcpish, ip_int, ip_str, read_ipv4)
            from megw.steering import (DipAffinityTable, RuleStore,
                                       SteeringConfig, process_packet)
            cfg = SteeringConfig("mgw-a",
                                 frozenset({"10.100.1.1", "10.100.1.2"}),
                                 (("mgw-a", "10.50.0.1", 1.0),),
                                 (("10.200.0.5", 1.0),), "10.2.0.1")
            aff = DipAffinityTable()
            for vip in ("10.100.1.2", "10.100.1.1"):
                aff.get_or_assign(
                    FiveTuple.parse("172.16.0.2", vip, 6, 5000, 80), cfg)
            echo = build_ipv4(ip_int("10.200.0.5"), ip_int("172.16.0.2"), 6,
                              build_tcpish(6, 80, 5000, b"ok"))
            act = process_packet(echo, Direction.FROM_CLUSTER, cfg,
                                 RuleStore(), aff)
            print(ip_str(read_ipv4(act.data)[3]))
        """)
        src_dir = os.path.dirname(os.path.dirname(steering.__file__))
        restored = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src_dir)
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=60,
                                 check=True)
            restored.append(out.stdout.strip())
        assert restored == ["10.100.1.1", "10.100.1.1"]

    @settings(max_examples=300, deadline=None)
    @given(vips=st.lists(st.sampled_from(("10.100.1.3", "10.100.1.1",
                                          "10.100.1.2")),
                         min_size=1, max_size=3, unique=True),
           dips=st.lists(st.sampled_from(("10.200.0.5", "10.200.0.6",
                                          "10.200.0.7", "10.200.0.8")),
                         min_size=1, max_size=4, unique=True),
           # few ports, so flows to two VIPs often share both ports
           pins=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(
               (5000, 5001)), st.sampled_from((80, 443))), max_size=8),
           reply=st.tuples(st.integers(0, 3), st.sampled_from((5000, 5001)),
                           st.sampled_from((80, 443))))
    def test_downstream_restore_matches_model(self, vips, dips, pins, reply):
        # a return packet restores the lowest VIP whose pin of the reversed
        # flow is the packet's source DIP, or keeps its source
        cfg = SteeringConfig("mgw-a", frozenset(vips),
                             (("mgw-a", "10.50.0.1", 1.0),),
                             tuple((d, 1.0) for d in dips), "10.2.0.1")
        affinity, pinned = DipAffinityTable(), {}
        for i, sport, dport in pins:
            vip = ip_int(vips[i % len(vips)])
            pinned[vip, sport, dport] = affinity.get_or_assign(
                FiveTuple(UE, vip, 6, sport, dport), cfg)
        i, sport, dport = reply
        dip = ip_int(dips[i % len(dips)])
        expected = next((vip for vip in sorted(map(ip_int, vips))
                         if pinned.get((vip, sport, dport)) == dip), dip)
        echo = build_ipv4(dip, UE, 6, build_tcpish(6, dport, sport, b"ok"))
        act = process_packet(echo, Direction.FROM_CLUSTER, cfg, RuleStore(),
                             affinity)
        assert act.note == "ip-route"
        assert ref_parse_ipv4(act.data).src == expected

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

    def test_silence_holds_a_new_connection(self):
        # a connection opened mid-handover has no rule: it is held too, not
        # pinned to a DIP whose reply the controller could not tunnel
        old = FiveTuple.parse("172.16.0.2", VIP, 6, 5000, 80)
        self.rules.install(FlowRule(old, 0xC8, ENB1, SGW))
        self.rules.set_ue_silent(UE)
        act = self.process(upstream_frame(sport=5001))
        assert act == CloneToController(
            FlowMiss(old._replace(src_port=5001), 100))
        assert len(self.affinity) == 0
        for src in (VIP, "10.200.0.5", "10.200.0.6"):
            echo = ipv4(src, "172.16.0.2", 6, build_tcpish(6, 80, 5001, b"x"))
            assert self.process(echo, Direction.FROM_CLUSTER) == Drop(
                "silent-period")

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
        # the frame is plain-routed, not steered (ROADMAP, "Wire conformance")
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


# --- the view-based packet path, kept as an oracle --------------------------

class RefView(NamedTuple):
    """An IPv4 header as the view-based path parsed it: copied payload."""

    src: int
    dst: int
    proto: int
    header_len: int
    payload: bytes
    packet: bytes


def ref_parse_ipv4(data):
    if len(data) < 20:
        raise gtp.TruncatedError("IPv4 header truncated")
    ver_ihl, total, proto, src, dst = struct.unpack_from("!BxH5xB2xII", data)
    if ver_ihl >> 4 != 4:
        raise gtp.VersionError("IP version")
    ihl = (ver_ihl & 0x0F) * 4
    if ihl < 20 or total < ihl or total > len(data):
        raise gtp.LengthError("IPv4 lengths")
    return RefView(src, dst, proto, ihl, data[ihl:total], data)


def ref_five_tuple(view):
    if view.proto in (6, 17):
        if len(view.payload) < 4:
            raise gtp.TruncatedError("transport header truncated")
        return FiveTuple(view.src, view.dst, view.proto,
                         *struct.unpack_from("!HH", view.payload))
    return FiveTuple(view.src, view.dst, view.proto, 0, 0)


def ref_tunnel(view):
    """(TEID, message type, inner bytes) of a well-formed GTP-U frame with
    the 8-byte header, else None."""
    udp = view.payload
    if view.proto != 17 or len(udp) < 8:
        return None
    dst_port, udp_len = struct.unpack_from("!HH", udp, 2)
    if dst_port != 2152 or udp_len != len(udp) or len(udp) < 16:
        return None
    flags, msg_type, length, teid = struct.unpack_from("!BBHI", udp, 8)
    if flags != 0x30 or msg_type not in (0xFF, 0xFE) or length != len(udp) - 16:
        return None
    return teid, msg_type, udp[16:]


def ref_rewrite(view, src=None, dst=None):
    head = bytearray(view.packet[:view.header_len])
    if src is not None:
        head[12:16] = src.to_bytes(4, "big")
    if dst is not None:
        head[16:20] = dst.to_bytes(4, "big")
    head[10:12] = b"\x00\x00"
    head[10:12] = gtp.ipv4_checksum(head).to_bytes(2, "big")
    return bytes(head) + view.packet[view.header_len:]


def ref_encode(src, dst, teid, inner):
    return build_ipv4(src, dst, 17, build_udp(2152, 2152, struct.pack(
        "!BBHI", 0x30, 0xFF, len(inner), teid) + inner))


def reference_process_packet(data, ingress, cfg, rules, affinity):
    """The packet path that `process_packet` replaced: every header becomes
    a view, every payload a copy, and the return tunnel is built in layers.
    Its parse is its own, so it checks the readers in `gtp` as well."""
    vips = {ip_int(v) for v in cfg.vips}
    try:
        view = ref_parse_ipv4(data)
    except gtp.DecodeError:
        return Drop("unparseable frame")
    if view.proto == 132:
        return Multiple((Emit(ip_str(view.dst), data,
                              note="control-passthrough"),
                         CloneToController(S1apClone(view.payload))))
    tunnel = ref_tunnel(view)
    if tunnel is not None and tunnel[1] == 0xFE:
        return Multiple((Emit(ip_str(view.dst), data,
                              note="end-marker-passthrough"),
                         CloneToController(EndMarkerSeen(view.dst,
                                                         tunnel[0]))))
    if tunnel is not None and ingress is Direction.FROM_RAN:
        teid = tunnel[0]
        try:
            inner = ref_parse_ipv4(tunnel[2])
            flow = ref_five_tuple(inner)
        except gtp.DecodeError:
            return Emit(ip_str(view.dst), data, note="ip-route")
        if flow.dst_ip not in vips:
            return Emit(ip_str(view.dst), data, note="ip-route")
        rule = rules.lookup(flow)
        if rule is SILENT:
            return CloneToController(FlowMiss(flow, teid))
        prelude = ()
        if rule is None:
            prelude = (CloneToController(FlowMiss(flow, teid)),)
        serving = stage1_select(flow.src_ip, cfg.stage1_peers)
        if serving != cfg.megw_id:
            # the peer's address from the config's input, not its peer_ints
            peer = next(addr for pid, addr, _ in cfg.region_peers
                        if pid == serving)
            act = Emit(peer, inner.packet, note="stage1-handoff")
        else:
            dip = affinity.get_or_assign(flow, cfg)
            act = Emit(ip_str(dip), ref_rewrite(inner, dst=dip),
                       note="dip-rewrite")
        return Multiple(prelude + (act,)) if prelude else act
    # plain IP, and GTP arriving on another side
    if view.dst in vips:
        try:
            flow = ref_five_tuple(view)
        except gtp.DecodeError:
            return Drop("malformed VIP-bound packet")
        dip = affinity.get_or_assign(flow, cfg)
        return Emit(ip_str(dip), ref_rewrite(view, dst=dip),
                    note="dip-rewrite")
    if ingress is Direction.FROM_CLUSTER:
        try:
            down = ref_five_tuple(view)
        except gtp.DecodeError:
            return Emit(ip_str(view.dst), data, note="ip-route")
        candidate = FiveTuple(down.dst_ip, down.src_ip, down.proto,
                              down.dst_port, down.src_port)
        # the lowest VIP whose pin of the reversed flow is the source DIP
        for vip in sorted(vips):
            if affinity.get(candidate._replace(dst_ip=vip)) == view.src:
                data = ref_rewrite(view, src=vip)
                candidate = candidate._replace(dst_ip=vip)
                break
        rule = rules.lookup(candidate)
        if rule is None:
            return Emit(ip_str(view.dst), data, note="ip-route")
        if rule is SILENT:
            return Drop("silent-period")
        return Emit(ip_str(rule.enb_addr),
                    ref_encode(rule.sgw_addr, rule.enb_addr,
                               rule.downstream_teid, data),
                    note="gtp-encap")
    return Emit(ip_str(view.dst), data, note="ip-route")


DIFF_CFG = SteeringConfig(megw_id="mgw-a",
                          vips=frozenset({VIP, "10.100.1.2"}),
                          region_peers=(("mgw-a", "10.50.0.1", 1.0),
                                        ("mgw-b", "10.50.0.2", 1.0)),
                          dips=(("10.200.0.5", 1.0), ("10.200.0.6", 1.0)),
                          local_sgw="10.2.0.1")
# one subscriber served here, one handed off to mgw-b by stage I
DIFF_UES = tuple(next(
    ue for ue in (ip_int(f"172.16.0.{i}") for i in range(2, 250))
    if stage1_select(ue, DIFF_CFG.stage1_peers) == gw)
    for gw in ("mgw-a", "mgw-b"))
DIFF_VIPS = (ip_int(VIP), ip_int("10.100.1.2"))
DIFF_DIPS = tuple(ip_int(d) for d, _ in DIFF_CFG.dips)
DIFF_ADDRS = DIFF_UES + DIFF_VIPS + DIFF_DIPS + (ip_int("93.184.216.34"),)
DIFF_PORTS = (5000, 80)
DIFF_FLOWS = [FiveTuple(ue, vip, proto, sport, dport)
              for ue in DIFF_UES for vip in DIFF_VIPS
              for proto, sport, dport in [(1, 0, 0)] + [
                  (p, s, d) for p in (6, 17) for s in DIFF_PORTS
                  for d in DIFF_PORTS]]


def raw_ipv4(src, dst, proto, payload, ihl=5, options=b"", trailer=b"",
             length_delta=0):
    """An IPv4 packet with IHL `ihl` (options zero-padded), a valid
    checksum, `trailer` bytes past its end, and a total length field
    `length_delta` off its true length."""
    opts = (options + bytes(40))[:ihl * 4 - 20]
    head = struct.pack("!BBHHHBBHII", 0x40 | ihl, 0,
                       ihl * 4 + len(payload) + length_delta, 0, 0, 64, proto,
                       0, src, dst) + opts
    csum = gtp.ipv4_checksum(head).to_bytes(2, "big")
    return head[:10] + csum + head[12:] + payload + trailer


def tunnel_frame(inner, flags=0x30, msg_type=0xFF, gtp_delta=0, port_delta=0,
                 udp_delta=0, outer_dst=SGW, **outer):
    """A G-PDU or end marker from ENB1 around `inner`, its header fields
    as given or off by the deltas; `outer` goes to `raw_ipv4`."""
    gtp_part = struct.pack("!BBHI", flags, msg_type,
                           (len(inner) + gtp_delta) & 0xFFFF, 7) + inner
    udp = struct.pack("!HHHH", 2152, 2152 + port_delta,
                      16 + len(inner) + udp_delta, 0) + gtp_part
    return raw_ipv4(ENB1, outer_dst, 17, udp, **outer)


# draws in which one value repeats are biased toward it, so that most
# frames reach the steering decisions and the rest cover each mutation
ihls = st.just(5) | st.integers(5, 15)
one_off = st.sampled_from((-1, 1))
MUTATIONS = ("flags", "type", "udp-length", "port", "gtp-length",
             "ip-length", "cut")
UPLINK = (DIFF_UES, DIFF_VIPS)
RETURN = (DIFF_VIPS + DIFF_VIPS + DIFF_DIPS, DIFF_UES)
ANY_PAIR = (DIFF_ADDRS, DIFF_ADDRS)


@st.composite
def ip_packets(draw, shapes, length_delta=0):
    """An IPv4 packet from and to addresses of one of `shapes`: TCP, UDP or
    other transports, transport payloads down to 0 bytes, any IHL, and
    sometimes bytes past its end."""
    src, dst = draw(st.sampled_from(shapes))
    proto = draw(st.sampled_from((6, 17, 6, 17, 6, 17, 1, 132)))
    ports = struct.pack("!HH", draw(st.sampled_from(DIFF_PORTS)),
                        draw(st.sampled_from(DIFF_PORTS)))
    payload = (ports + draw(st.binary(max_size=8)))[:draw(
        st.sampled_from((12, 12, 12, 4, 3, 0)))]
    return raw_ipv4(draw(st.sampled_from(src)), draw(st.sampled_from(dst)),
                    proto, payload, ihl=draw(ihls),
                    options=draw(st.binary(max_size=40)),
                    trailer=draw(st.sampled_from((b"", b"\x00", b"tail"))),
                    length_delta=length_delta)


@st.composite
def frames(draw):
    """G-PDUs, end markers, SCTP, and plain IP (a hand-off to a VIP,
    return traffic, or any other), a third of them mutated: any flags or
    message type, a UDP length, port, GTP length or IPv4 total length off
    by one, or truncated at any length; the outer IHL is 5-15."""
    kind = draw(st.sampled_from(("gpdu", "gpdu", "gpdu", "end-marker", "sctp",
                                 "handoff", "plain", "return", "return",
                                 "return")))
    mutations = draw(st.just(()) | st.just(()) | st.lists(
        st.sampled_from(MUTATIONS), min_size=1, max_size=2))

    def field(name, value, mutated):
        return draw(mutated) if name in mutations else value

    inner = draw(ip_packets({"handoff": (UPLINK,), "plain": (ANY_PAIR,),
                             "return": (RETURN,)}.get(
                                 kind, (UPLINK, UPLINK, ANY_PAIR)),
                            field("ip-length", 0, one_off)))
    if kind in ("handoff", "plain", "return"):
        frame = inner
    elif kind == "sctp":
        frame = raw_ipv4(ENB1, SGW, 132, draw(st.binary(max_size=16)))
    else:
        if kind == "end-marker":
            inner = draw(st.sampled_from((b"", inner)))
        frame = tunnel_frame(
            inner, flags=field("flags", 0x30, st.integers(0, 255)),
            msg_type=field("type", 0xFF if kind == "gpdu" else 0xFE,
                           st.integers(0, 255)),
            gtp_delta=field("gtp-length", 0, one_off),
            port_delta=field("port", 0, one_off),
            udp_delta=field("udp-length", 0, one_off),
            outer_dst=draw(st.sampled_from((SGW,) + DIFF_VIPS)),
            ihl=draw(ihls), options=draw(st.binary(max_size=40)),
            trailer=draw(st.sampled_from((b"", b"\x00"))))
    if "cut" in mutations:
        frame = frame[:draw(st.integers(0, len(frame)))]
    return frame


def uplink_inner(ue, **kw):
    """A TCP packet from `ue` to the first VIP, for fixed examples."""
    return raw_ipv4(ue, DIFF_VIPS[0], 6,
                    struct.pack("!HH", 5000, 80) + b"payload", **kw)


def uplink_frame(flow):
    """A G-PDU from ENB1 whose inner packet has the 5-tuple `flow` (ports
    0 for a transport other than TCP or UDP)."""
    src, dst, proto, sport, dport = flow
    ports = struct.pack("!HH", sport, dport) if proto in (6, 17) else b""
    return tunnel_frame(raw_ipv4(src, dst, proto, ports + b"req"))


# a pinned and ruled flow, and a reply to it from its DIP
PINNED = FiveTuple(DIFF_UES[0], DIFF_VIPS[0], 6, 5000, 80)
DIP_REPLY = raw_ipv4(DipAffinityTable().get_or_assign(PINNED, DIFF_CFG),
                     PINNED.src_ip, 6, struct.pack("!HH", 80, 5000) + b"ok")


def seeded_tables(ruled, silent, pinned):
    """A rule store and an affinity table from the drawn flows: `ruled`
    get a rule, `silent` subscribers are silenced, and `pinned` flows are
    pinned to a DIP in list order."""
    rules, affinity = RuleStore(), DipAffinityTable()
    for i, flow in enumerate(ruled):
        rules.install(FlowRule(flow, 0x100 + i, ENB1, SGW))
    for ue in silent:
        rules.set_ue_silent(ue)
    for flow in pinned:
        affinity.get_or_assign(flow, DIFF_CFG)
    return rules, affinity


# rules and pins: a few, or a dense table that most return traffic and
# most uplink flows find; no subscriber silent, either one, or both
flow_tables = (st.sampled_from((DIFF_FLOWS, DIFF_FLOWS[::-2]))
               | st.lists(st.sampled_from(DIFF_FLOWS), unique=True,
                          max_size=12))
TABLES = dict(ruled=flow_tables, pinned=flow_tables,
              silent=st.sampled_from(((), DIFF_UES[:1], DIFF_UES[1:],
                                      DIFF_UES)))


class TestProcessPacketDifferential:
    @settings(max_examples=400, deadline=None)
    @given(frame=frames(), **TABLES)
    @example(frame=upstream_frame(), ruled=[], silent=(), pinned=[])
    # bytes past the outer total length stay out of the inner packet, and
    # an inner total length past the datagram fails its check
    @example(frame=tunnel_frame(uplink_inner(DIFF_UES[0]), trailer=b"\x00"),
             ruled=[], silent=(), pinned=[])
    @example(frame=tunnel_frame(uplink_inner(DIFF_UES[1]), trailer=b"\x00"),
             ruled=[], silent=(), pinned=[])
    @example(frame=tunnel_frame(uplink_inner(DIFF_UES[0], length_delta=1),
                                trailer=b"\x00"),
             ruled=[], silent=(), pinned=[])
    @example(frame=tunnel_frame(uplink_inner(DIFF_UES[0], length_delta=-1)),
             ruled=[], silent=(), pinned=[])
    @example(frame=DIP_REPLY, ruled=[PINNED], silent=(), pinned=[PINNED])
    # a ruled flow of a silenced subscriber: a flow miss alone
    @example(frame=tunnel_frame(uplink_inner(DIFF_UES[0])), ruled=[PINNED],
             silent=DIFF_UES[:1], pinned=[])
    # an end marker from the cluster side passes through as one
    @example(frame=tunnel_frame(b"", msg_type=0xFE), ruled=[], silent=(),
             pinned=[])
    def test_equals_view_based_path(self, frame, ruled, silent, pinned):
        for ingress in Direction:
            rules, affinity = seeded_tables(ruled, silent, pinned)
            ref_rules, ref_affinity = seeded_tables(ruled, silent, pinned)
            act = process_packet(frame, ingress, DIFF_CFG, rules, affinity)
            assert shape(act) == shape(reference_process_packet(
                frame, ingress, DIFF_CFG, ref_rules, ref_affinity))
            assert all(type(a.event.five_tuple) is FiveTuple
                       for a in flatten(act)
                       if isinstance(getattr(a, "event", None), FlowMiss))
            assert len(affinity) == len(ref_affinity)
            assert all(type(k) is FiveTuple
                       for t in (affinity, ref_affinity) for k in t._table)

    def test_common_frames_skip_the_readers(self, monkeypatch):
        # an uplink G-PDU, a stage I hand-off and a DIP's reply of the
        # common shape are each read by one unpack, never by the readers
        def general(*args):
            raise AssertionError("read by the general readers")

        for name in ("read_ipv4", "read_tunnel", "read_ports"):
            monkeypatch.setattr(steering, name, general)
        rules, affinity = seeded_tables([PINNED], (), [PINNED])
        common = ((tunnel_frame(uplink_inner(DIFF_UES[0])),
                   Direction.FROM_RAN),
                  (uplink_inner(DIFF_UES[1]), Direction.FROM_CLUSTER),
                  (DIP_REPLY, Direction.FROM_CLUSTER))
        assert [process_packet(frame, ingress, DIFF_CFG, rules,
                               affinity).note for frame, ingress in common] \
            == ["dip-rewrite", "dip-rewrite", "gtp-encap"]

    def test_shape_tells_types_apart(self):
        # actions of different types with equal fields differ, as does an
        # action from the tuple of its fields
        flow = FiveTuple(1, 2, 6, 3, 4)
        assert Drop("x") != S1apClone("x") and Drop("x") != ("x",)
        assert EndMarkerSeen(1, 2) != FlowMiss(1, 2)
        assert shape(FlowMiss(flow, 7)) != shape(FlowMiss(tuple(flow), 7))
        assert shape(Multiple((Drop("x"),))) != shape(
            Multiple((S1apClone("x"),)))
        assert shape(CloneToController(EndMarkerSeen(1, 2))) != shape(
            CloneToController(FlowMiss(1, 2)))
        assert shape(Emit("a", b"b", "c")) == shape(Emit("a", b"b", note="c"))

    def test_every_outcome_is_drawn(self):
        # the strategies reach every action the packet path can take
        seen = set()

        @settings(max_examples=400, deadline=None, database=None,
                  derandomize=True)
        @given(frame=frames(), **TABLES)
        def run(frame, ruled, silent, pinned):
            for ingress in Direction:
                rules, affinity = seeded_tables(ruled, silent, pinned)
                for a in flatten(process_packet(frame, ingress, DIFF_CFG,
                                                rules, affinity)):
                    seen.add(a.note if isinstance(a, Emit)
                             else a.reason if isinstance(a, Drop)
                             else type(a.event).__name__)

        run()
        assert seen >= {"control-passthrough", "end-marker-passthrough",
                        "ip-route", "dip-rewrite", "stage1-handoff",
                        "gtp-encap", "unparseable frame", "silent-period",
                        "malformed VIP-bound packet", "S1apClone",
                        "EndMarkerSeen", "FlowMiss"}


# rule store steps on the differential's two subscribers: installs on
# either of two tunnels, silences, reactivations by any map of those
# tunnels to one of them or a third, and releases
TEID_PAIR = (0x100, 0x101)
table_steps = st.one_of(
    st.builds(lambda flow, teid: ("install", (FlowRule(flow, teid, ENB1,
                                                       SGW),)),
              st.sampled_from(DIFF_FLOWS), st.sampled_from(TEID_PAIR)),
    st.builds(lambda ue: ("set_ue_silent", (ue,)), st.sampled_from(DIFF_UES)),
    st.builds(lambda ue, remap, enb: ("reactivate_ue", (ue, remap, enb)),
              st.sampled_from(DIFF_UES),
              st.dictionaries(st.sampled_from(TEID_PAIR),
                              st.sampled_from(TEID_PAIR + (0x200,))),
              st.sampled_from((ENB1, ENB2))),
    st.builds(lambda ue: ("release_ue", (ue,)), st.sampled_from(DIFF_UES)))


# the differential's config with mgw-b weighted so that stage I hands
# both subscribers off to it
DIFF_HEAVY = replace(DIFF_CFG, region_peers=(("mgw-a", "10.50.0.1", 1.0),
                                             ("mgw-b", "10.50.0.2", 20.0)))


class TestStoredPick:
    """Stage I's pick kept on the subscriber's rule record."""

    def test_heavy_config_moves_a_subscriber(self):
        assert [stage1_select(ue, DIFF_HEAVY.stage1_peers)
                for ue in DIFF_UES] == ["mgw-b", "mgw-b"]

    @settings(max_examples=300, deadline=None)
    @given(cfg=st.sampled_from((DIFF_CFG, DIFF_HEAVY)),
           steps=st.lists(st.tuples(table_steps, st.lists(
               st.sampled_from(DIFF_FLOWS), max_size=4)), max_size=12))
    def test_uplink_equals_reference_through_table_steps(self, cfg, steps):
        # each step runs on a rule store and on the flat model, and is
        # followed by uplink frames under the example's one config: the
        # store's answers, stored picks and all, are the reference path's
        # over the model
        rules, affinity = RuleStore(), DipAffinityTable()
        model, ref_affinity = FlatRules(), DipAffinityTable()
        for (op, args), flows in steps:
            assert outcome(rules, op, args) == outcome(model, op, args)
            for flow in flows:
                frame = uplink_frame(flow)
                assert shape(process_packet(
                    frame, Direction.FROM_RAN, cfg, rules, affinity)) \
                    == shape(reference_process_packet(
                        frame, Direction.FROM_RAN, cfg, model, ref_affinity))
        # every kept pick is the config's
        for ue, record in rules._by_ue.items():
            if record.serving is not None:
                assert record.serving == stage1_select(ue, cfg.stage1_peers)

    def test_known_flow_asks_no_memo(self, monkeypatch):
        # a record-less frame asks stage1_select; a subscriber's first
        # frame with a record asks it once more, to keep its pick; then
        # its frames ask nothing, across a reactivation too, until a
        # release drops the record and the pick with it
        asked = []

        def counted(ue, peers):
            asked.append(ue)
            return stage1_select(ue, peers)

        monkeypatch.setattr(steering, "stage1_select", counted)
        rules, affinity = RuleStore(), DipAffinityTable()
        keys = [FiveTuple(ue, DIFF_VIPS[0], 6, 5000, 80) for ue in DIFF_UES]

        def send():
            return [uplink_outcome(process_packet(
                uplink_frame(k), Direction.FROM_RAN, DIFF_CFG, rules,
                affinity), DIFF_CFG) for k in keys]

        assert send() == [("new", "mgw-a"), ("new", "mgw-b")]
        assert asked == list(DIFF_UES)
        for key in keys:
            rules.install(FlowRule(key, 100, ENB1, SGW))
        for _ in range(3):
            assert send() == [("known", "mgw-a"), ("known", "mgw-b")]
        assert asked == list(DIFF_UES) * 2
        for ue in DIFF_UES:
            rules.set_ue_silent(ue)
        assert send() == ["held", "held"]
        for ue in DIFF_UES:
            rules.reactivate_ue(ue, {100: 200}, ENB2)
        assert send() == [("known", "mgw-a"), ("known", "mgw-b")]
        assert asked == list(DIFF_UES) * 2
        rules.release_ue(DIFF_UES[1])
        assert send() == [("known", "mgw-a"), ("new", "mgw-b")]
        assert asked == list(DIFF_UES) * 2 + [DIFF_UES[1]]
