"""The benchmark's own checks: tiny workloads, oracles, span arithmetic.

Run from the repository root with `python3 -m pytest benchmarks`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import dataplane  # noqa: E402
import layers  # noqa: E402
import mobility  # noqa: E402
import run  # noqa: E402
import simsweep  # noqa: E402
import speed  # noqa: E402
import wire  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, has_ancestor, self_times  # noqa: E402

TINY_DP = dataplane.Sizes(subscribers=30, flows_per_ue=3, remote_flows=10)
TINY_MOB = mobility.Sizes(subscribers=12, flows_per_ue=2)


@pytest.fixture
def dp():
    wl = dataplane.Workload(3, TINY_DP)
    wl.setup()
    return wl


def test_dataplane_tiny(dp):
    stats = dp.run(600)
    assert dp.errors == []
    assert len(stats["latencies"]) == 600
    assert dp.attempted == 2 * 30 + 30 * 3 + 10 + 600


def test_mobility_tiny():
    wl = mobility.Workload(5, TINY_MOB)
    wl.setup()
    stats = wl.run(12)
    assert wl.errors == []
    assert len(stats["handovers"]) == 12
    assert stats["edges"]


def test_sim_sweep_tiny(tmp_path):
    from megw import cli
    config, out = tmp_path / "c.json", tmp_path / "o.csv"
    simsweep.write_config(config, seed=4)
    doc = json.loads(config.read_text())
    doc["users_per_capacity"] = 300
    config.write_text(json.dumps(doc))
    assert cli.main(simsweep.argv(config, out, 4, replications=1)) == 0
    assert simsweep.csv_problems(out, replications=1) == []


def test_traced_run_reports_every_layer_and_unwraps():
    from megw import steering
    original = steering.process_packet
    wl = dataplane.Workload(3, TINY_DP)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert steering.process_packet is not original
        wl.setup(tracer.request)
        wl.run(300, tracer.request)
    finally:
        tracer.uninstall()
    assert steering.process_packet is original
    m = layers.compute(tracer, wl.table_sizes(), overhead=1.5)
    assert list(m) == [name for name, _ in layers.PER_LAYER]
    assert wl.errors == []
    assert 3 <= m["gtp.parse_ipv4.calls_per_pkt"] <= 4
    assert m["steering.note_share.stage1-handoff"] > 0
    assert abs(sum(m[f"steering.note_share.{o}"]
                   for o in layers.OUTCOMES) - 1) < 1e-9
    assert m["s1ap.decode_message.us"] > 0
    assert m["trace.overhead"] == 1.5


# -- oracles ------------------------------------------------------------------

def _first(dp, kind):
    while True:
        frame, ingress, check = dp._frame(kind)
        out = dp.gw.handle(frame, ingress)
        if dp.oracle.check(check, out) is None:
            return check, out


def test_oracle_rejects_wrong_teid(dp):
    check, out = _first(dp, "return")
    (emit,) = out
    tun = wire.parse_gtpu(emit.data)
    forged = wire.gtpu(tun.outer_src, tun.outer_dst, tun.teid ^ 1, tun.inner)
    problem = dp.oracle.check(check, [replace(emit, data=forged)])
    assert problem and "TEID" in problem


def test_oracle_rejects_dip_change_within_flow(dp):
    check, out = _first(dp, "handoff")
    (emit,) = out
    other = next(d for d, _ in dataplane.DIPS if d != emit.dst)
    moved = replace(emit, dst=other,
                    data=wire.ipv4(check.flow.src, other, check.flow.proto,
                                   check.inner[20:]))
    problem = dp.oracle.check(check, [moved])
    assert problem and "moved" in problem


def test_oracle_rejects_missing_migration_notice():
    wl = mobility.Workload(5, TINY_MOB)
    wl.setup()
    ue = "ue0"
    old = wl.h.ues[ue].radio_enb
    new = wl.targets[old]["cross-region"][0]
    trace = wl.h.run_x2_handover(ue, old, new)
    assert mobility.handover_problem(trace, ue, "cross-region") is None
    stripped = [e for e in trace if e.action != mobility.MIGRATION_NOTIFIED]
    assert "migration notices" in mobility.handover_problem(
        stripped, ue, "cross-region")
    assert "migration notices" in mobility.handover_problem(
        trace, ue, "same-region")


def test_csv_oracle_rejects_unfair_start(tmp_path):
    path = tmp_path / "o.csv"
    rows = ["policy,rate,replication,step,migrations,"
            "cumulative_migrations,min_max_ratio"]
    for rate in simsweep.RATES:
        for policy, total in (("with_regions", 1), ("without_regions", 10)):
            for step in range(simsweep.STEPS + 1):
                unfair = (step, rate, policy) == (0, 0.05, "with_regions")
                ratio = 0.99 if unfair else 1.0
                rows.append(f"{policy},{rate},0,{step},0,"
                            f"{total if step else 0},{ratio}")
    path.write_text("\n".join(rows) + "\n")
    problems = simsweep.csv_problems(path, replications=1)
    assert len(problems) == 1 and "t0 fairness" in problems[0]


# -- span arithmetic ----------------------------------------------------------

def test_self_time_on_synthetic_tree():
    #  0 root    [0, 10]
    #  1  a      [1, 4]     child of root
    #  2   a1    [2, 3]     child of a
    #  3  b      [3.5, 6]   child of root, overlaps a by 0.5
    #  4  c      [9, 12]    child of root, runs past it by 2
    #  5 root2   [20, 21]   second request, no children
    start = [0.0, 1.0, 2.0, 3.5, 9.0, 20.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0, 21.0]
    parent = [-1, 0, 1, 0, 0, -1]
    got = self_times(start, end, parent)
    # root covered by [1, 6] and [9, 10]
    assert got == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 1.0])
    assert has_ancestor(parent, [7, 8, 9, 8, 8, 7], {8}) == [
        False, False, True, False, False, False]


def test_tracer_records_nesting_only_inside_requests():
    class Box:
        @staticmethod
        def outer(x):
            return Box.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    t = Tracer()
    t.wrap(Box, "outer", "outer", tag=lambda a, r, _: f"r{r}")
    t.wrap(Box, "inner", "inner")
    assert Box.outer(1) == 3
    assert len(t) == 0
    with t.request("run.op"):
        Box.outer(2)
    t.uninstall()
    assert [t.names[n] for n in t.name] == ["run.op", "outer", "inner"]
    assert list(t.parent) == [-1, 0, 1]
    assert list(t.rid) == [0, 0, 0]
    assert t.tags[t.tag[1]] == "r5"
    assert Box.outer(1) == 3 and len(t) == 3


# -- scaling to the reference speed ------------------------------------------

def test_sampler_scales_an_interval_by_the_slices_inside_it():
    ref = speed.REF_SLICE_S
    assert speed.factor([2 * ref]) == pytest.approx(0.5)
    s = speed.Sampler()
    s.slices = [(1.0, 2 * ref), (1.5, ref), (5.0, 4 * ref)]
    # [0.9, 2.0] holds two slices: their time comes out, and the rest is
    # scaled by their mean speed, (0.5 + 1) / 2
    assert s.scaled(0.9, 2.0) == pytest.approx((1.1 - 3 * ref) * 0.75)
    # a window with no slice in it takes the nearest one's speed
    assert s.scaled(4.9, 4.95) == pytest.approx(0.05 * 0.25)


def test_timed_scales_each_chunk_by_the_slices_around_it(monkeypatch):
    class Steady:
        def run(self, n, request=None):
            return {"latencies": [0.01] * n}

    # slices alternate between the reference time and twice it, so every
    # chunk sits between one of each
    slices = iter([speed.REF_SLICE_S, 2 * speed.REF_SLICE_S] * 3)
    monkeypatch.setattr(speed, "slice_s", lambda: next(slices))
    got = worker.timed(Steady(), 5, chunk=2)
    assert got["latencies"] == pytest.approx([0.01 * 0.75] * 5)


def test_sampler_thread_records_slices_and_stops():
    s = speed.Sampler().start()
    t0 = time.monotonic()
    while len(s.slices) < 2:
        time.sleep(0.01)
    s.stop()
    t1 = time.monotonic()
    assert not s._thread.is_alive()
    assert 0 < s.scaled(t0, t1) < 10 * (t1 - t0)


# -- the contract -------------------------------------------------------------

def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(
        layers.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "dataplane",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
