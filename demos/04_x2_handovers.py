"""The three X2 handover geometries and what each does to the data plane.

Run: python demos/04_x2_handovers.py
"""

from megw import control
from megw.harness import (DROPPED, MIGRATION_NOTIFIED, RECEIVED, REACTIVATED,
                          SILENCED, Harness, build_topology,
                          default_topology_config)

INTERESTING = {SILENCED, REACTIVATED, MIGRATION_NOTIFIED, DROPPED}


def run_case(title, new_enb):
    h = Harness(build_topology(default_topology_config()))
    h.run_attach("ue1", "enb1")
    pre = h.run_edge_request("ue1")
    dip_before = next(e.node for e in pre if e.action == RECEIVED
                      and h.topology.nodes[e.node].kind == "dip")
    trace = h.run_x2_handover("ue1", "enb1", new_enb)
    post = h.run_edge_request("ue1", reuse_flow=True)
    dip_after = next(e.node for e in post if e.action == RECEIVED
                     and h.topology.nodes[e.node].kind == "dip")
    print(f"\n=== {title} ===")
    for e in trace:
        if e.action in INTERESTING:
            print(f"  {e.node:8s} {e.action:18s} {control.dotted(e.detail)}")
    notices = sum(e.action == MIGRATION_NOTIFIED for e in trace)
    print(f"  serving instance: {dip_before} -> {dip_after}"
          f"   migration notices: {notices}")


# enb1 and enb2 hang off the same gateway; enb3 is another gateway in the
# same region; enb4 sits in a different region.
run_case("scenario 1: same gateway (tunnel refresh only)", "enb2")
run_case("scenario 2: same region (no application migration)", "enb3")
run_case("scenario 3: cross region (application must move)", "enb4")
