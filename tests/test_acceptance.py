"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from megw import gtp, steering
from megw.gtp import (Direction, FiveTuple, GtpMessageType, GtpuPacket,
                      build_ipv4, build_tcpish, decode_gtpu, encode_gtpu,
                      ip_int)
from megw.harness import (DROPPED, MIGRATION_NOTIFIED, RECEIVED, REACTIVATED,
                          SILENCED, Harness, build_topology,
                          default_topology_config, run_scenario)
from megw.hrw import rendezvous_select
from megw.sim import (Policy, SimConfig, apply_moves, build_world,
                      derive_seed, draw_moves, run_experiment)
from megw.steering import (DipAffinityTable, FlowRule, RuleStore,
                           SteeringConfig, process_packet)

RATES = [0.01, 0.02, 0.05, 0.10, 0.20]
PAPER_CFG = SimConfig(regions_count=3, mecs_per_region=4,
                      capacities=(1, 1, 2, 2), users_per_capacity=500,
                      steps=60, migration_rate=0, seed=2024)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


@pytest.fixture(scope="module")
def sweep():
    start = time.time()
    result = run_experiment(PAPER_CFG, RATES, replications=20, steps=60)
    result.metadata["wall_seconds"] = time.time() - start
    return result


def test_migration_reduction(sweep):
    """Mean cumulative with-regions migrations stay below 30% of the
    baseline at every rate, within the stated runtime budget."""
    with criterion("migration reduction < 0.30 at every rate"):
        for rate in RATES:
            with_m = sweep.mean_cumulative(Policy.WITH_REGIONS, rate)
            without_m = sweep.mean_cumulative(Policy.WITHOUT_REGIONS, rate)
            ratio = with_m / without_m
            assert ratio < 0.30, f"rate {rate}: ratio {ratio:.3f}"
        assert sweep.metadata["wall_seconds"] < 120


def test_fairness(sweep):
    """t=0 ratio exactly 1; with-regions mean ratio dominates the baseline
    at every step and rate and never falls below 0.90."""
    with criterion("fairness: t0=1.0, dominance per step, floor 0.90"):
        for rate in RATES:
            w = sweep.mean_ratio_series(Policy.WITH_REGIONS, rate)
            wo = sweep.mean_ratio_series(Policy.WITHOUT_REGIONS, rate)
            assert w[0] == 1.0
            assert wo[0] == 1.0
            assert (w[1:] >= wo[1:]).all(), f"rate {rate}: dominance broken"
            assert w.min() >= 0.90, f"rate {rate}: floor {w.min():.3f}"


def test_trace_dominance():
    """Replaying one recorded movement trace under both policies gives
    per-step with-regions migrations <= without-regions, 100 seeds."""
    with criterion("trace dominance over 100 random seeds"):
        for i in range(100):
            seed = derive_seed(7, i)
            world = build_world(SimConfig(
                regions_count=3, mecs_per_region=4,
                capacities=(1, 1, 2, 2), users_per_capacity=500,
                migration_rate=900, seed=seed))
            rng = np.random.default_rng([seed, 0xD0])
            for _ in range(10):
                movers, slots = draw_moves(world, rng)
                m = apply_moves(world, movers, slots)
                assert m[Policy.WITH_REGIONS] <= m[Policy.WITHOUT_REGIONS]


def random_packet(rng):
    mt = rng.choice([GtpMessageType.GPDU, GtpMessageType.END_MARKER])
    if mt is GtpMessageType.GPDU:
        inner = build_ipv4(
            ip_int(f"172.{rng.randrange(16, 32)}.{rng.randrange(256)}."
                   f"{rng.randrange(1, 255)}"),
            ip_int(f"10.{rng.randrange(256)}.{rng.randrange(256)}."
                   f"{rng.randrange(1, 255)}"),
            rng.choice([6, 17, 1, 47]),
            build_tcpish(6, rng.randrange(65536), rng.randrange(65536),
                         rng.randbytes(rng.randrange(32))))
    else:
        inner = rng.choice([b"", rng.randbytes(rng.randrange(8))])
    return GtpuPacket(
        outer_src=ip_int(f"192.0.2.{rng.randrange(1, 255)}"),
        outer_dst=ip_int(f"198.51.100.{rng.randrange(1, 255)}"),
        teid=rng.getrandbits(32), message_type=mt, inner=inner)


def test_codec_suite():
    """10^4 random round trips bit-exact, end marker byte 0xFE, and 10^5
    fuzz inputs decoded without a crash."""
    with criterion("codec: 10^4 round trips, 0xFE marker, 10^5 fuzz"):
        rng = random.Random(0xACCE)
        for _ in range(10_000):
            pkt = random_packet(rng)
            wire = encode_gtpu(*pkt)
            assert decode_gtpu(wire) == pkt
            assert encode_gtpu(*decode_gtpu(wire)) == wire
        marker = encode_gtpu(ip_int("10.0.0.1"), ip_int("10.0.0.2"),
                             5, GtpMessageType.END_MARKER, b"")
        assert marker[29] == 0xFE
        for _ in range(100_000):
            blob = rng.randbytes(rng.randrange(0, 90))
            try:
                decode_gtpu(blob)
            except gtp.DecodeError:
                pass


def ue_received(trace):
    return [e for e in trace if e.action == RECEIVED and e.node == "ue1"]


def test_end_to_end_steering():
    """Attach plus VIP request reaches a configured DIP; the echo returns
    tunneled with the downstream TEID paired to the request's bearer, and
    a two-bearer subscriber's flows come back on distinct correct TEIDs."""
    with criterion("end-to-end steering with per-bearer TEID fidelity"):
        h = Harness(build_topology(default_topology_config()))
        h.run_attach("ue1", "enb1", bearers=2)
        dips = {n for n, s in h.topology.nodes.items() if s.kind == "dip"}

        t1 = h.run_edge_request("ue1", bearer_id=5, payload=b"flow-one")
        assert any(e.node in dips and e.action == RECEIVED for e in t1)
        got1 = ue_received(t1)
        assert got1[0].detail["teid"] == h.ues["ue1"].bearers[5].downstream_teid
        assert got1[0].detail["payload"] == b"flow-one".hex()

        t2 = h.run_edge_request("ue1", bearer_id=6, payload=b"flow-two")
        got2 = ue_received(t2)
        assert got2[0].detail["teid"] == h.ues["ue1"].bearers[6].downstream_teid
        assert got1[0].detail["teid"] != got2[0].detail["teid"]


def handover_trace(new_enb):
    h = Harness(build_topology(default_topology_config()))
    h.run_attach("ue1", "enb1")
    pre = h.run_edge_request("ue1")
    trace = h.run_x2_handover("ue1", "enb1", new_enb)
    return h, pre, trace


def dip_of(trace, harness):
    hits = [e for e in trace if e.action == RECEIVED
            and harness.topology.nodes.get(e.node)
            and harness.topology.nodes[e.node].kind == "dip"]
    return hits[0].node if hits else None


def test_handover_scenarios():
    """All three handover geometries: silence ordering, window drops,
    within-region serving/DIP preservation, migration notice discipline."""
    with criterion("handover scenarios 1/2/3 (order, drops, affinity, notice)"):
        # (a) + (b) + zero notices: same gateway
        h1, _, t1 = handover_trace("enb2")
        silenced = [e for e in t1 if e.action == SILENCED]
        reactivated = [e for e in t1 if e.action == REACTIVATED]
        assert silenced and reactivated
        assert t1.index(silenced[0]) < t1.index(reactivated[0])
        assert any(e.action == DROPPED for e in t1)
        assert not any(e.action == MIGRATION_NOTIFIED for e in t1)
        assert not any(e.detail.get("payload") == b"during-silence".hex()
                       for e in ue_received(t1))
        after = h1.inject_downstream("ue1", payload=b"post-ho")
        assert ue_received(after)

        # (c) same region: serving gateway and DIP survive the move
        h2, pre2, t2 = handover_trace("enb3")
        assert [e for e in t2 if e.action == SILENCED]
        assert [e for e in t2 if e.action == REACTIVATED]
        assert t2.index([e for e in t2 if e.action == SILENCED][0]) \
            < t2.index([e for e in t2 if e.action == REACTIVATED][0])
        assert any(e.action == DROPPED for e in t2)
        assert not any(e.action == MIGRATION_NOTIFIED for e in t2)
        post2 = h2.run_edge_request("ue1", reuse_flow=True)
        assert dip_of(post2, h2) == dip_of(pre2, h2)

        # (d) cross region: exactly one notice, issued at silence start
        h3, _, t3 = handover_trace("enb4")
        notices = [e for e in t3 if e.action == MIGRATION_NOTIFIED]
        assert len(notices) == 1
        sil3 = [e for e in t3 if e.action == SILENCED][0]
        assert t3.index(notices[0]) == t3.index(sil3) + 1
        full = run_scenario("x2-cross-region")
        assert sum(e.action == MIGRATION_NOTIFIED for e in full.trace) == 1


def test_consistent_hash_properties():
    """Weight proportionality by chi-square over 10^5 keys and minimal
    disruption on candidate removal, exhaustive over 10^4 keys."""
    scipy_stats = pytest.importorskip("scipy.stats")
    with criterion("rendezvous: chi-square @1e-3 and exact disruption bound"):
        cands = [("mec-a", 1.0), ("mec-b", 1.0), ("mec-c", 2.0),
                 ("mec-d", 2.0)]
        rng = random.Random(0x4A5)
        n = 100_000
        counts = {c: 0 for c, _ in cands}
        keys = [rng.randbytes(8) for _ in range(n)]
        for key in keys:
            counts[rendezvous_select(key, cands)] += 1
        total_w = sum(w for _, w in cands)
        expected = [n * w / total_w for _, w in cands]
        observed = [counts[c] for c, _ in cands]
        _, p = scipy_stats.chisquare(observed, expected)
        assert p > 0.001, f"chi-square p={p:.2e}"

        removed = "mec-b"
        reduced = [(c, w) for c, w in cands if c != removed]
        remapped = 0
        for key in keys[:10_000]:
            before = rendezvous_select(key, cands)
            after = rendezvous_select(key, reduced)
            if before == removed:
                remapped += 1
                assert after != removed
            else:
                assert after == before, "non-deleted key remapped"
        assert remapped > 0


def test_throughput_smoke_report():
    """Software packet rate, printed for the record; nothing is asserted
    because line-rate behaviour belongs to hardware targets."""
    with criterion("throughput smoke report (informational)"):
        cfg = SteeringConfig(
            megw_id="mgw-a", vips=frozenset({"10.100.1.1"}),
            region_peers=(("mgw-a", "10.50.0.1", 1.0),),
            dips=(("10.200.0.5", 1.0),), local_sgw="10.2.0.1")
        rules = RuleStore()
        affinity = DipAffinityTable()
        flow = FiveTuple.parse("172.16.0.2", "10.100.1.1", 6, 5000, 80)
        enb, sgw = ip_int("10.1.0.1"), ip_int("10.2.0.1")
        rules.install(FlowRule(flow, 0xC8, enb, sgw))
        inner = build_ipv4(flow.src_ip, flow.dst_ip, 6,
                           build_tcpish(6, 5000, 80, b"x" * 64))
        frame = encode_gtpu(enb, sgw, 0x1000,
                            GtpMessageType.GPDU, inner)
        n = 20_000
        start = time.perf_counter()
        for _ in range(n):
            process_packet(frame, Direction.FROM_RAN, cfg, rules, affinity)
        elapsed = time.perf_counter() - start
        print(f"[info] steering pipeline: {n / elapsed:,.0f} packets/s "
              f"(64-byte payload, rule-hit path, single thread)")
