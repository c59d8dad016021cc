"""Two-stage steering in isolation: rendezvous hashing, then DIP affinity.

Run: python demos/02_consistent_hash_steering.py
"""

from collections import Counter

from megw.gtp import FiveTuple, ip_int, ip_str
from megw.hrw import rendezvous_select
from megw.steering import DipAffinityTable, SteeringConfig, stage1_select

# Stage I: every gateway in a region ranks the region's gateways with the
# same keyed hash, so they agree on the serving gateway without talking.
peers = [("mgw-a", "10.50.0.1", 1.0), ("mgw-b", "10.50.0.2", 1.0),
         ("mgw-c", "10.50.0.3", 2.0)]

share = Counter()
for i in range(10_000):
    ue = f"172.16.{i >> 8 & 255}.{i & 255}"
    share[rendezvous_select(ue.encode(), [(p, w) for p, _, w in peers])] += 1
print("stage-I share over 10k subscribers (weights 1/1/2):")
for megw, n in sorted(share.items()):
    print(f"  {megw}: {n / 100:.1f}%")

cfg_a = SteeringConfig(megw_id="mgw-a", vips=frozenset({"10.100.1.1"}),
                       region_peers=tuple(peers),
                       dips=(("10.200.0.5", 1.0), ("10.200.0.6", 1.0)),
                       local_sgw="10.2.0.1")
cfg_b = SteeringConfig(megw_id="mgw-b", vips=cfg_a.vips,
                       region_peers=tuple(peers), dips=cfg_a.dips,
                       local_sgw="10.2.0.1")
ue = "172.16.0.2"
print(f"\n{ue}: serving gateway seen from mgw-a = "
      f"{stage1_select(ip_int(ue), cfg_a.stage1_peers)}, from mgw-b = "
      f"{stage1_select(ip_int(ue), cfg_b.stage1_peers)} (always equal)")

# Remove a gateway: only the keys it was serving move (minimal disruption).
reduced = [(p, w) for p, _, w in peers if p != "mgw-b"]
moved = sum(
    1 for i in range(10_000)
    if rendezvous_select(f"u{i}".encode(), [(p, w) for p, _, w in peers])
    != rendezvous_select(f"u{i}".encode(), reduced))
print(f"removing mgw-b remaps {moved / 100:.1f}% of keys "
      f"(its own share and nothing else)")

# Stage II: a connection keeps its server for life, even as the pool grows.
table = DipAffinityTable()
flow = FiveTuple.parse("172.16.0.2", "10.100.1.1", 6, 5000, 80)
first = table.get_or_assign(flow, cfg_a)
grown = SteeringConfig(megw_id="mgw-a", vips=cfg_a.vips,
                       region_peers=tuple(peers),
                       dips=cfg_a.dips + (("10.200.0.7", 4.0),),
                       local_sgw="10.2.0.1")
print(f"\nflow pinned to {ip_str(first)}; after adding a big new server it"
      f" still gets {ip_str(table.get_or_assign(flow, grown))}")
