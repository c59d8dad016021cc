"""One movement trace through the simulator and the packet-level fabric.

The simulator counts a with-regions migration for each move into another
region; the fabric's gateways notify a migration for each cross-region X2
handover. Driving both with the same `draw_moves` batches, this checks that
the two agree at every step, that every handover runs to its
acknowledgement, that each subscriber's context lives only on the gateway
of its current base station, and that every migration notice names the
simulator's old and new serving MECs, the MECs that the gateways' stage I
picks.
"""

import numpy as np

from megw import sim
from megw.gtp import ip_int, ip_str
from megw.harness import (MIGRATION_NOTIFIED, REACTIVATED, SILENCED, Harness,
                          build_topology)
from megw.steering import stage1_select


def fabric_config(grid: sim.HexGrid, n_users: int) -> dict:
    """A topology for the sim's map: one eNB per cell, one gateway per MEC
    (named after it, weighted by its capacity) with one DIP, the gateways
    of each region linked to each other, every gateway linked to the EPC
    stub, and one subscriber per sim user, at the sim's address for it."""
    def addr(base, i):
        return ip_str(ip_int(base) + i)

    nodes = {"sgw": {"kind": "sgw_mme", "addr": "10.2.0.1"}}
    links, enb_to_megw, megw_to_region = [], {}, {}
    for m, name in enumerate(grid.mec_names):
        nodes[name] = {"kind": "megw", "addr": addr("10.50.0.1", m),
                       "weight": float(grid.capacities[m])}
        nodes[f"dip-{m}"] = {"kind": "dip", "addr": addr("10.200.0.1", m),
                             "megw": name}
        megw_to_region[name] = f"r{grid.region_of_mec[m]}"
        links += [{"a": name, "b": "sgw"}, {"a": f"dip-{m}", "b": name}]
        links += [{"a": name, "b": grid.mec_names[peer]}
                  for peer in range(m)
                  if grid.region_of_mec[peer] == grid.region_of_mec[m]]
    for c in range(len(grid.cells)):
        mec = grid.mec_names[grid.mec_of_cell[c]]
        nodes[f"enb-{c}"] = {"kind": "enb", "addr": addr("10.1.0.1", c)}
        enb_to_megw[f"enb-{c}"] = mec
        links.append({"a": f"enb-{c}", "b": mec})
    for u in range(n_users):
        nodes[f"ue{u}"] = {"kind": "ue", "addr": ip_str(sim.USER_BASE + u)}
    return {"vips": ["10.100.1.1"], "nodes": nodes, "links": links,
            "enb_to_megw": enb_to_megw, "megw_to_region": megw_to_region}


def stage1_mec(topology, grid: sim.HexGrid, ue_ip: int, region: int) -> str:
    """The MEC that stage I serves the subscriber from in the region, as
    the config of the region's first gateway names it."""
    first = grid.mec_names[int(np.argmax(grid.region_of_mec == region))]
    return stage1_select(ue_ip,
                         topology.steering_configs[first].stage1_peers)


def test_region_picks_are_stage1_picks():
    # every (user, region) pair on the paper's map: the simulator's pick is
    # the gateway's for the subscriber address the fabric gives that user
    cfg = sim.SimConfig(users_per_capacity=20, migration_rate=0)
    grid = sim.build_grid(cfg)
    topology = build_topology(fabric_config(grid, cfg.population))
    picks = sim.stage1_table(grid, cfg.population)
    expected = [stage1_mec(topology, grid, topology.nodes[f"ue{u}"].ip, r)
                for u in range(cfg.population)
                for r in range(cfg.regions_count)]
    assert [grid.mec_names[m] for m in picks.ravel().tolist()] == expected


def test_fabric_replays_sim_migrations():
    cfg = sim.SimConfig(users_per_capacity=100, steps=30, migration_rate=120,
                        seed=5)
    world = sim.build_world(cfg)
    grid = world.grid
    topology = build_topology(fabric_config(grid, world.population))
    h = Harness(topology, seed=5)
    gateway_of = topology.view.enb_to_megw
    for u, cell in enumerate(world.user_cell.tolist()):
        h.run_attach(f"ue{u}", f"enb-{cell}")

    rng = np.random.default_rng([cfg.seed, 0x515])
    with_regions = sim.Policy.WITH_REGIONS
    migrations = [0]
    ratios = [world.min_max_ratio(with_regions)]
    crossed = np.zeros(world.population, dtype=bool)
    for _ in range(cfg.steps):
        movers, slots = sim.draw_moves(world, rng)
        old_cells = world.user_cell[movers]
        new_cells = grid.neighbor_table.ravel()[slots]
        old_serving = world.serving(with_regions)[movers]
        crossed[movers] |= (grid.region_of_cell[old_cells]
                            != grid.region_of_cell[new_cells])
        moved = sim.apply_moves(world, movers, slots)[with_regions]
        migrations.append(moved)
        ratios.append(world.min_max_ratio(with_regions))
        serving = world.serving(with_regions)
        notices = 0
        for u, old, new, was in zip(
                movers.tolist(), old_cells.tolist(), new_cells.tolist(),
                old_serving.tolist()):
            trace = h.run_x2_handover(f"ue{u}", f"enb-{old}", f"enb-{new}")
            # a notice names the MECs stage I serves the subscriber from in
            # the old and the new region: the sim's old and new serving MEC
            for ev in trace:
                if ev.action != MIGRATION_NOTIFIED:
                    continue
                notices += 1
                ue_ip = h.ues[f"ue{u}"].ip
                assert ev.detail["new_mec"] == grid.mec_names[serving[u]]
                assert ev.detail["old_mec"] == stage1_mec(
                    topology, grid, ue_ip, int(grid.region_of_cell[old]))
                assert ev.detail["old_mec"] == grid.mec_names[was]
            # complete: the end marker silenced the old gateway's rules and
            # the acknowledgement moved them to the new tunnels
            old_gw, new_gw = (gateway_of[topology.nodes[f"enb-{c}"].ip]
                              for c in (old, new))
            assert [ev.node for ev in trace if ev.action == SILENCED] \
                == [old_gw]
            assert [ev.node for ev in trace if ev.action == REACTIVATED] \
                == [new_gw]
        assert notices == moved
        # a user who has crossed a region is served where stage I serves it
        for u in np.flatnonzero(crossed).tolist():
            region = int(grid.region_of_cell[world.user_cell[u]])
            assert grid.mec_names[serving[u]] == stage1_mec(
                topology, grid, h.ues[f"ue{u}"].ip, region)

        assert not any(gw.processor.pending for gw in h.megws.values())
        holders = {}
        for name, gw in h.megws.items():
            for ue_ip, ctx in gw.processor.contexts.items():
                assert not ctx.silent
                holders.setdefault(ue_ip, []).append((name, ctx.enb_addr))
        for ue in h.ues.values():
            enb_ip = topology.nodes[ue.radio_enb].ip
            assert holders[ue.ip] == [(gateway_of[enb_ip], enb_ip)]

    assert sum(migrations) > 0 and crossed.any()
    # the loop above is `sim.replay`'s with-regions series, step for step
    series = sim.replay(cfg, np.random.default_rng([cfg.seed, 0x515]))[
        with_regions]
    assert series.migrations.tolist() == migrations
    assert series.cumulative.tolist() == np.cumsum(migrations).tolist()
    assert series.min_max_ratio.tolist() == ratios
