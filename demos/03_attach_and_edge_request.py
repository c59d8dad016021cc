"""Full data path on the virtual fabric: attach, then one edge request.

Run: python demos/03_attach_and_edge_request.py
"""

from megw import control
from megw.harness import Harness, build_topology, default_topology_config


def show(events):
    for e in events:
        detail = {k: v for k, v in control.dotted(e.detail).items()
                  if k != "flow"}
        print(f"  {e.step:3d} {e.node:8s} {e.action:14s} {detail}")


h = Harness(build_topology(default_topology_config()))

print("attach: the context setup request/response pass through the gateway,")
print("which clones them to its controller; no rules are installed yet")
show(h.run_attach("ue1", "enb1"))
proc = h.megws["mgw-a"].processor
ctx = proc.contexts[h.ues["ue1"].ip]    # keyed by the integer address
print(f"  controller state: bearers="
      f"{{{', '.join(f'{b}: up={c.upstream_teid:#x}/down={c.downstream_teid:#x}' for b, c in ctx.bearers.items())}}}")
print(f"  data-plane rules: {len(h.megws['mgw-a'].rules)}")

print("\nfirst request: the 5-tuple misses, the controller learns the flow")
print("and installs its tunnel binding; the echo returns inside the tunnel")
show(h.run_edge_request("ue1", payload=b"hello edge"))
print(f"  data-plane rules now: {len(h.megws['mgw-a'].rules)}")

print("\nsecond packet of the same flow: no clone, pure fast path")
show(h.run_edge_request("ue1", reuse_flow=True, payload=b"again"))

print("\ncontroller event log (line-delimited JSON):")
for line in proc.dump_jsonl().splitlines():
    print(" ", line)
