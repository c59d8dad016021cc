"""`mobility` workload: X2 handovers interleaved with edge requests.

Runs the `megw.harness` fabric: four gateways in two regions, twelve base
stations, eight DIPs behind two VIPs, and a subscriber population that is
attached and has opened flows during setup. The timed phase is a closed
loop with one caller. Each cycle is one handover, measured together with
the resumed request that follows it until the reply reaches the
subscriber, and a few ordinary edge requests from random subscribers,
some on new connections and some resuming the last one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from megw.harness import (DROPPED, MIGRATION_NOTIFIED, RECEIVED, Harness,
                          build_topology)

REGIONS = {"mgw-1": "r1", "mgw-2": "r1", "mgw-3": "r2", "mgw-4": "r2"}
ENBS_PER_GATEWAY = 3
VIPS = ("10.100.1.1", "10.100.1.2")
# handover geometries and their weights (percent)
GEOMETRIES = (("same-megw", 50), ("same-region", 30), ("cross-region", 20))
# ordinary edge requests after each handover, chosen uniformly
REQUESTS_PER_HANDOVER = (3, 4, 5)
PROBE = b"during-silence"


@dataclass(frozen=True)
class Sizes:
    subscribers: int = 1000
    flows_per_ue: int = 4


def topology_config(subscribers: int) -> dict:
    gateways = sorted(REGIONS)
    nodes = {"sgw": {"kind": "sgw_mme", "addr": "10.2.0.1"}}
    links = []
    enb_to_megw = {}
    for g, gw in enumerate(gateways, start=1):
        nodes[gw] = {"kind": "megw", "addr": f"10.50.0.{g}"}
        links.append({"a": gw, "b": "sgw"})
        for e in range(ENBS_PER_GATEWAY):
            enb = f"enb-{g}-{e}"
            nodes[enb] = {"kind": "enb",
                          "addr": f"10.1.{g}.{e + 1}"}
            enb_to_megw[enb] = gw
            links.append({"a": enb, "b": gw})
        for d, weight in enumerate((1, 2)):
            dip = f"dip-{g}-{d}"
            nodes[dip] = {"kind": "dip", "addr": f"10.200.{g}.{d + 1}",
                          "megw": gw, "weight": weight}
            links.append({"a": dip, "b": gw})
    # gateways of one region share a link; regions meet only at the EPC
    links += [{"a": "mgw-1", "b": "mgw-2"}, {"a": "mgw-3", "b": "mgw-4"}]
    for i in range(subscribers):
        nodes[f"ue{i}"] = {"kind": "ue",
                           "addr": f"172.16.{i // 250}.{i % 250 + 2}"}
    return {"vips": list(VIPS), "nodes": nodes, "enb_to_megw": enb_to_megw,
            "megw_to_region": dict(REGIONS), "links": links}


def handover_targets(config: dict) -> dict:
    """Per base station and geometry, the base stations a move can reach."""
    e2g = config["enb_to_megw"]
    out = {}
    for old, g_old in e2g.items():
        out[old] = {
            "same-megw": [e for e, g in e2g.items()
                          if g == g_old and e != old],
            "same-region": [e for e, g in e2g.items()
                            if g != g_old and REGIONS[g] == REGIONS[g_old]],
            "cross-region": [e for e, g in e2g.items()
                             if REGIONS[g] != REGIONS[g_old]]}
    return out


def reply_problem(trace, ue_node: str, payload: bytes) -> str | None:
    hexed = payload.hex()
    for e in trace:
        if (e.node == ue_node and e.action == RECEIVED
                and e.detail.get("payload") == hexed):
            return None
    return f"{ue_node}: no reply to {payload!r}"


def handover_problem(trace, ue_node: str, geometry: str) -> str | None:
    """Migration-notice discipline and the silent-period probe."""
    notices = sum(1 for e in trace if e.action == MIGRATION_NOTIFIED)
    want = 1 if geometry == "cross-region" else 0
    if notices != want:
        return f"{ue_node} {geometry}: {notices} migration notices"
    if any(e.node == ue_node and e.action == RECEIVED
           and e.detail.get("payload") == PROBE.hex() for e in trace):
        return f"{ue_node} {geometry}: silent-period probe delivered"
    # the old gateway holds the probe ("silent-period"), or, when the move
    # released its rules there, the old base station refuses the untunneled
    # packet; either way a drop is recorded
    if not any(e.action == DROPPED for e in trace):
        return f"{ue_node} {geometry}: silent-period probe not dropped"
    return None


class Workload:
    """Setup and timed phase of `mobility`; see the module docstring."""

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        self.rng = random.Random(seed)
        self.sizes = sizes
        config = topology_config(sizes.subscribers)
        self.h = Harness(build_topology(config), seed=seed)
        self.targets = handover_targets(config)
        self.ue_ids = [f"ue{i}" for i in range(sizes.subscribers)]
        self.enbs = sorted(config["enb_to_megw"])
        self.attempted = 0
        self.errors: list[str] = []
        self._payloads = 0

    def _payload(self) -> bytes:
        self._payloads += 1
        return b"req-%d" % self._payloads

    def _op(self, request, name, fn, *args, **kwargs):
        """Run one scripted operation; returns (trace, seconds) or None."""
        self.attempted += 1
        try:
            if request is None:
                t0 = perf_counter()
                trace = fn(*args, **kwargs)
                t1 = perf_counter()
            else:
                with request(name):
                    t0 = perf_counter()
                    trace = fn(*args, **kwargs)
                    t1 = perf_counter()
        except Exception as exc:  # counted as a failed operation
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        return trace, t1 - t0

    def _edge(self, request, name: str, ue: str, reuse: bool):
        rng = self.rng
        payload = self._payload()
        if reuse:
            got = self._op(request, name, self.h.run_edge_request, ue,
                           payload=payload, reuse_flow=True)
        else:
            bearers = sorted(self.h.ues[ue].bearers)
            got = self._op(request, name, self.h.run_edge_request, ue,
                           vip=rng.choice(VIPS), payload=payload,
                           bearer_id=rng.choice(bearers),
                           dst_port=rng.choice((80, 443)))
        if got is None:
            return None
        problem = reply_problem(got[0], ue, payload)
        if problem is not None:
            self.errors.append(problem)
            return None
        return got[1]

    def setup(self, request=None) -> None:
        rng = self.rng
        for ue in self.ue_ids:
            enb = rng.choice(self.enbs)
            got = self._op(request, "setup.attach", self.h.run_attach, ue,
                           enb, bearers=rng.choice((1, 2)))
            if got is not None and self.h.ues[ue].radio_enb != enb:
                self.errors.append(f"{ue}: not attached at {enb}")
            for _ in range(self.sizes.flows_per_ue):
                self._edge(request, "setup.edge", ue, reuse=False)

    def run(self, count: int, request=None) -> dict:
        """`count` handover cycles; latencies in seconds."""
        rng = self.rng
        handovers: list[float] = []
        edges: list[float] = []
        kinds = [g for g, _ in GEOMETRIES]
        weights = [w for _, w in GEOMETRIES]
        for _ in range(count):
            ue = rng.choice(self.ue_ids)
            old = self.h.ues[ue].radio_enb
            geometry = rng.choices(kinds, weights)[0]
            new = rng.choice(self.targets[old][geometry])
            got = self._op(request, "run.handover", self.h.run_x2_handover,
                           ue, old, new)
            if got is not None:
                problem = handover_problem(got[0], ue, geometry)
                if problem is not None:
                    self.errors.append(problem)
                resumed = self._edge(request, "run.resume", ue, reuse=True)
                if problem is None and resumed is not None:
                    handovers.append(got[1] + resumed)
            for _ in range(rng.choice(REQUESTS_PER_HANDOVER)):
                t = self._edge(request, "run.edge", rng.choice(self.ue_ids),
                               reuse=rng.random() < 0.5)
                if t is not None:
                    edges.append(t)
        return {"handovers": handovers, "edges": edges}

    def table_sizes(self) -> dict:
        gws = self.h.megws.values()
        return {"rules": sum(len(g.rules) for g in gws),
                "affinity": sum(len(g.affinity) for g in gws),
                "contexts": sum(len(g.processor.contexts) for g in gws),
                "log": sum(len(g.processor.log) for g in gws),
                "trace_events": len(self.h.trace)}
