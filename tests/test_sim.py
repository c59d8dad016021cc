"""Regional mobility simulator: grid construction, stepping, experiments."""

import functools
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from megw import sim
from megw.sim import (ConfigError, Policy, SimConfig, apply_moves,
                      build_grid, build_world, derive_seed, draw_moves,
                      run_experiment, step)
from megw.steering import rendezvous_pick, rendezvous_select


def small_cfg(**kw):
    base = dict(regions_count=1, mecs_per_region=2, capacities=(1, 1),
                users_per_capacity=50, steps=5, migration_rate=10, seed=1)
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_bad_capacity_length(self):
        with pytest.raises(ConfigError):
            SimConfig(mecs_per_region=4, capacities=(1, 1))

    def test_nonpositive_capacity(self):
        with pytest.raises(ConfigError):
            SimConfig(capacities=(1, 1, 0, 2))

    def test_rate_exceeds_population(self):
        with pytest.raises(ConfigError):
            small_cfg(migration_rate=10_000)

    @pytest.mark.parametrize("doc", [
        None, [1], {"policy": "regions"}, {"policy": ["with_regions"]},
        {"capacities": [1e308, 1e308, 1, 1]}])
    def test_malformed_document(self, doc):
        # the module's own error, never a TypeError, a bare ValueError or
        # an OverflowError
        with pytest.raises(ConfigError):
            SimConfig.from_dict(doc)

    def test_population(self):
        assert SimConfig().population == 500 * 6 * 3

    def test_population_must_fit_in_a_float(self):
        # a sweep scales the population by a float rate
        with pytest.raises(ConfigError, match="users_per_capacity"):
            SimConfig(users_per_capacity=10**400)


class TestGrid:
    def test_flower_tiling_partitions(self):
        grid = build_grid(SimConfig())
        assert len(grid.cells) == 7 * 12
        sizes = [len(c) for c in grid.mec_cells]
        assert sizes == [7] * 12
        # each cell belongs to exactly one MEC by construction
        assert sorted(np.concatenate(grid.mec_cells).tolist()) \
            == list(range(len(grid.cells)))

    def test_regions_partition_mecs(self):
        grid = build_grid(SimConfig())
        counts = np.bincount(grid.region_of_mec)
        assert counts.tolist() == [4, 4, 4]

    def test_regions_contiguous(self):
        # every region's cell set is connected under hex adjacency
        grid = build_grid(SimConfig())
        for region in range(3):
            cells = set(np.flatnonzero(grid.region_of_cell == region))
            seen = {next(iter(cells))}
            frontier = list(seen)
            while frontier:
                c = frontier.pop()
                for n in grid.neighbor_table[c]:
                    if n >= 0 and n in cells and n not in seen:
                        seen.add(int(n))
                        frontier.append(int(n))
            assert seen == cells

    def test_neighbors_symmetric(self):
        grid = build_grid(small_cfg())
        for i in range(len(grid.cells)):
            for j in grid.neighbor_table[i]:
                if j >= 0:
                    assert i in grid.neighbor_table[j]

    def test_degenerate_single_mec(self):
        grid = build_grid(SimConfig(regions_count=1, mecs_per_region=1,
                                    capacities=(1,)))
        assert len(grid.cells) == 7

    def test_grid_shared_and_read_only(self):
        grid = build_grid(SimConfig())
        assert build_grid(SimConfig(users_per_capacity=7, seed=3)) is grid
        assert build_grid(small_cfg()) is not grid
        with pytest.raises(ValueError):
            grid.mec_of_cell[0] = 1
        with pytest.raises(ValueError):
            grid.mec_cells[0][0] = 1
        assert grid.region_capacity.tolist() == [6.0] * 12


def scalar_table(grid, n_users):
    """The region hash table one `rendezvous_select` call at a time."""
    n_regions = int(grid.region_of_mec.max()) + 1
    table = np.empty((n_users, n_regions), dtype=np.int64)
    for region in range(n_regions):
        members = np.flatnonzero(grid.region_of_mec == region)
        cands = [(grid.mec_names[m], float(grid.capacities[m]))
                 for m in members]
        index = {grid.mec_names[m]: m for m in members}
        for user in range(n_users):
            table[user, region] = index[rendezvous_select(
                struct.pack("!Q", user), cands)]
    return table


def fresh_memo(grid, n_users):
    """A pick memo of its own, outside the one-memo cache."""
    return sim.RegionPicks(n_users, grid.mec_names,
                           tuple(grid.capacities.tolist()),
                           tuple(grid.region_of_mec.tolist()))


def int_array(values):
    return np.array(values, dtype=np.int64)


# three regions of two MECs, 45 users: small enough to score by hand
PICK_CFG = SimConfig(regions_count=3, mecs_per_region=2, capacities=(1, 2),
                     users_per_capacity=5, migration_rate=0)


@functools.cache
def pick_cfg_table():
    return scalar_table(build_grid(PICK_CFG), PICK_CFG.population)


class TestRegionHashTable:
    @pytest.mark.parametrize("users_per_capacity", [20, 40, 500, 2500])
    def test_equals_scalar_selection(self, users_per_capacity):
        # every size the tests, the demo and the benchmark use, on the
        # paper's map, asking for every (user, region) pair at once; 500
        # and 2500 span several batches
        cfg = SimConfig(users_per_capacity=users_per_capacity)
        grid = build_grid(cfg)
        expected = scalar_table(grid, cfg.population)
        n_users, n_regions = expected.shape
        users = np.repeat(np.arange(n_users), n_regions)
        regions = np.tile(np.arange(n_regions), n_users)
        memo = fresh_memo(grid, cfg.population)
        picks = memo.get(users, regions)
        assert picks.dtype == np.int8
        assert np.array_equal(picks.reshape(expected.shape), expected)
        assert np.array_equal(memo.get(users, regions), picks)

    @given(batches=st.lists(st.lists(st.tuples(
        st.integers(0, PICK_CFG.population - 1), st.integers(0, 2)),
        max_size=20), max_size=8))
    @example(batches=[[(3, 1), (3, 1), (7, 1)], [(3, 1), (3, 0)], []])
    def test_any_batches_return_scalar_picks(self, batches):
        # picks scored in any order, with repeats and with earlier batches
        # already memoized, are the scalar selection's
        expected = pick_cfg_table()
        memo = fresh_memo(build_grid(PICK_CFG), PICK_CFG.population)
        for batch in batches:
            users = int_array([u for u, _ in batch])
            regions = int_array([r for _, r in batch])
            assert memo.get(users, regions).tolist() \
                == expected[users, regions].tolist()

    def test_tie_goes_to_first_candidate(self):
        # two candidates with one id and one weight score alike for every
        # key; `rendezvous_select` keeps the first, and so does the memo
        memo = sim.RegionPicks(6, ("a", "b", "b"), (1.0, 2.0, 2.0), (0, 1, 1))
        picks = memo.get(np.arange(6), np.ones(6, dtype=np.int64))
        assert picks.tolist() == [1] * 6

    @given(keys=st.lists(st.binary(max_size=12), min_size=1, max_size=12),
           cands=st.lists(st.tuples(
               st.text(max_size=6),
               st.sampled_from([1.0, 2.0])
               | st.floats(min_value=1e-3, max_value=1e3)),
               min_size=1, max_size=6))
    @example(keys=[b"k", b""], cands=[("only", 1.0)])
    @example(keys=[b"k", b"j"], cands=[("a", 1.0), ("a", 1.0)])
    def test_batch_pick_equals_select(self, keys, cands):
        # the table's pick: the first maximum, as for one key
        assert [cands[i][0] for i in rendezvous_pick(keys, cands)] == [
            rendezvous_select(key, cands) for key in keys]


class TestBuildWorld:
    def test_users_per_neighborhood(self):
        cfg = SimConfig()
        world = build_world(cfg)
        # capacity-2 neighborhoods start with exactly 1000 users
        for m in range(world.grid.n_mecs):
            in_hood = np.isin(world.user_cell, world.grid.mec_cells[m]).sum()
            expected = 500 * int(world.grid.capacities[m])
            assert in_hood == expected

    def test_initial_ratio_exactly_one(self):
        for cfg in (SimConfig(), small_cfg(),
                    SimConfig(policy=Policy.WITHOUT_REGIONS)):
            assert build_world(cfg).min_max_ratio() == 1.0

    def test_single_mec_world(self):
        cfg = SimConfig(regions_count=1, mecs_per_region=1, capacities=(1,),
                        migration_rate=0)
        world = build_world(cfg)
        assert world.population == 500
        assert (world.serving == 0).all()

    def test_initial_serving_geographic(self):
        world = build_world(SimConfig())
        assert (world.serving == world.grid.mec_of_cell[world.user_cell]).all()

    def test_hash_table_cache_holds_one_table(self):
        small = build_world(small_cfg(users_per_capacity=20))
        large = build_world(small_cfg(users_per_capacity=40))
        region = int_array([0])
        # each memo spans its world's population: 40 and 80 users
        for world, n_users in ((small, 40), (large, 80)):
            world.hash_table.get(int_array([n_users - 1]), region)
            with pytest.raises(IndexError):
                world.hash_table.get(int_array([n_users]), region)
        assert sim._region_picks.cache_info().currsize <= 1
        assert build_world(small_cfg(users_per_capacity=40)).hash_table \
            is large.hash_table
        # a world has no way to write picks: the memo exposes no array, and
        # the picks it hands out are copies
        assert all(name.startswith("_") for name in vars(large.hash_table))
        users, regions = np.arange(80), np.zeros(80, dtype=np.int64)
        picks = large.hash_table.get(users, regions)
        picks[:] = 1 - picks
        assert np.array_equal(large.hash_table.get(users, regions),
                              scalar_table(large.grid, 80)[:, 0])


class TestStep:
    def test_zero_rate_no_change(self):
        cfg = small_cfg(migration_rate=0)
        world = build_world(cfg)
        before = world.min_max_ratio()
        m = step(world, np.random.default_rng(0))
        assert m.migrations == 0
        assert m.min_max_ratio == before

    def test_conservation(self):
        cfg = SimConfig(migration_rate=500)
        world = build_world(cfg)
        rng = np.random.default_rng(5)
        for _ in range(10):
            step(world, rng)
        assert world.population == cfg.population
        assert world.mec_load().sum() == pytest.approx(cfg.population)

    def test_movers_go_to_neighbor_cells(self):
        world = build_world(small_cfg())
        rng = np.random.default_rng(2)
        before = world.user_cell.copy()
        movers, new_cells = draw_moves(world, rng)
        for u, c in zip(movers, new_cells):
            assert c in world.grid.neighbor_table[before[u]]

    def test_scripted_intra_region_move(self):
        # one user crosses between two neighborhoods of the same region:
        # geographic serving changes, region serving does not
        for policy, expected in ((Policy.WITHOUT_REGIONS, 1),
                                 (Policy.WITH_REGIONS, 0)):
            world = build_world(small_cfg(policy=policy))
            grid = world.grid
            pair = None
            for i, c in enumerate(grid.cells):
                for j in grid.neighbor_table[i]:
                    if j >= 0 and grid.mec_of_cell[i] != grid.mec_of_cell[j]:
                        pair = (i, int(j))
                        break
                if pair:
                    break
            user = int(np.flatnonzero(world.user_cell == pair[0])[0])
            m = apply_moves(world, np.array([user]), np.array([pair[1]]))
            assert m.migrations == expected

    def test_scripted_cross_region_move(self):
        # two single-MEC regions: a border crossing migrates either way
        for policy in (Policy.WITHOUT_REGIONS, Policy.WITH_REGIONS):
            cfg = SimConfig(regions_count=2, mecs_per_region=1,
                            capacities=(1,), users_per_capacity=50,
                            migration_rate=1, seed=3, policy=policy)
            world = build_world(cfg)
            grid = world.grid
            pair = None
            for i, c in enumerate(grid.cells):
                for j in grid.neighbor_table[i]:
                    if j >= 0 and grid.region_of_cell[i] != grid.region_of_cell[j]:
                        pair = (i, int(j))
                        break
                if pair:
                    break
            assert pair, "regions must touch"
            user = int(np.flatnonzero(world.user_cell == pair[0])[0])
            m = apply_moves(world, np.array([user]), np.array([pair[1]]))
            assert m.migrations == 1

    def test_hash_stability_within_region(self):
        # serving changes only alongside a region change
        cfg = SimConfig(migration_rate=900, seed=11)
        world = build_world(cfg)
        rng = np.random.default_rng(11)
        for _ in range(20):
            serving_before = world.serving.copy()
            region_before = world.grid.region_of_mec[serving_before]
            step(world, rng)
            changed = world.serving != serving_before
            new_region = world.grid.region_of_cell[world.user_cell]
            assert (new_region[changed] != region_before[changed]).all()

    def test_with_regions_uses_rendezvous_assignment(self):
        cfg = SimConfig(migration_rate=2000, seed=13)
        world = build_world(cfg)
        rng = np.random.default_rng(13)
        serving_before = world.serving.copy()
        step(world, rng)
        changed = np.flatnonzero(world.serving != serving_before)
        assert changed.size > 0
        grid = world.grid
        for u in changed[:20]:
            region = grid.region_of_cell[world.user_cell[u]]
            members = np.flatnonzero(grid.region_of_mec == region)
            cands = [(grid.mec_names[m], float(grid.capacities[m]))
                     for m in members]
            pick = rendezvous_select(struct.pack("!Q", int(u)), cands)
            assert grid.mec_names[world.serving[u]] == pick

    def test_ratio_zero_when_mec_empty(self):
        world = build_world(small_cfg(policy=Policy.WITHOUT_REGIONS))
        # everyone piles onto MEC 0
        movers = np.flatnonzero(world.serving != 0)
        apply_moves(world, movers,
                    np.full(len(movers), world.grid.mec_cells[0][0]))
        assert world.min_max_ratio() == 0.0

    @pytest.mark.parametrize("policy", list(Policy))
    def test_counts_follow_serving(self, policy):
        # the per-MEC counts equal a recount after every step, and so does
        # the load computed from them
        for seed in (1, 2):
            world = build_world(SimConfig(migration_rate=900, seed=seed,
                                          policy=policy))
            grid = world.grid
            rng = np.random.default_rng(seed)
            for _ in range(30):
                step(world, rng)
                users = np.bincount(world.serving, minlength=grid.n_mecs)
                assert np.array_equal(world.mec_users, users)
                if policy is Policy.WITH_REGIONS:
                    region = np.bincount(grid.region_of_mec[world.serving],
                                         minlength=3)
                    users = (region[grid.region_of_mec] * grid.capacities
                             / grid.region_capacity)
                assert np.allclose(world.mec_load(), users, rtol=0, atol=1e-9)


class TestDominance:
    def test_replayed_trace_orders_policies(self):
        cfg_base = SimConfig(migration_rate=900)
        for seed in range(5):
            rep_seed = derive_seed(42, seed)
            worlds = {p: build_world(SimConfig(migration_rate=900, seed=rep_seed,
                                               policy=p))
                      for p in Policy}
            rng = np.random.default_rng([rep_seed, 1])
            for _ in range(15):
                movers, cells = draw_moves(worlds[Policy.WITH_REGIONS], rng)
                with_m = apply_moves(worlds[Policy.WITH_REGIONS], movers, cells)
                without_m = apply_moves(worlds[Policy.WITHOUT_REGIONS],
                                        movers, cells)
                assert with_m.migrations <= without_m.migrations


def per_policy_experiment(base, rates, replications, steps):
    """`run_experiment`'s rows and summary drawn the earlier way: each
    policy's worlds run on their own and draw the movement trace anew."""
    rows, summary = [], {}
    for rate_idx, rate in enumerate(rates):
        moved = int(round(rate * base.population))
        for policy in (Policy.WITH_REGIONS, Policy.WITHOUT_REGIONS):
            cumulative = np.zeros((replications, steps + 1))
            ratios = np.zeros((replications, steps + 1))
            for rep in range(replications):
                rep_seed = derive_seed(base.seed, rate_idx, rep)
                cfg = SimConfig(regions_count=base.regions_count,
                                mecs_per_region=base.mecs_per_region,
                                capacities=base.capacities,
                                users_per_capacity=base.users_per_capacity,
                                steps=steps, migration_rate=moved,
                                policy=policy, seed=rep_seed)
                world = build_world(cfg)
                rng = np.random.default_rng([rep_seed, 0x30B5])
                metrics = [world.metrics()]
                for _ in range(steps):
                    metrics.append(step(world, rng))
                for m in metrics:
                    rows.append(sim.csv_row(policy, rate, rep, m))
                    cumulative[rep, m.t] = m.cumulative_migrations
                    ratios[rep, m.t] = m.min_max_ratio
            summary[(policy.value, rate)] = {
                "mean_cumulative": cumulative.mean(axis=0),
                "std_cumulative": cumulative.std(axis=0),
                "mean_ratio": ratios.mean(axis=0),
                "std_ratio": ratios.std(axis=0),
            }
    return rows, summary


class TestExperiment:
    @pytest.mark.parametrize("base,rates", [
        (small_cfg(), [0.05, 0.2]),
        (SimConfig(users_per_capacity=20, seed=5), [0.01, 0.1, 0.5]),
        (SimConfig(regions_count=2, mecs_per_region=3, capacities=(1, 2, 3),
                   users_per_capacity=10, seed=9), [0.02, 0.3]),
        (SimConfig(regions_count=4, mecs_per_region=1, capacities=(1,),
                   users_per_capacity=30, seed=123456789), [1.0]),
    ])
    def test_lockstep_equals_per_policy_runs(self, base, rates):
        res = run_experiment(base, rates, replications=3, steps=8)
        rows, summary = per_policy_experiment(base, rates, 3, 8)
        assert res.rows == rows
        assert res.summary.keys() == summary.keys()
        for key, stats in summary.items():
            for name, values in stats.items():
                assert np.array_equal(res.summary[key][name], values)

    def test_determinism(self):
        cfg = small_cfg()
        r1 = run_experiment(cfg, [0.05], replications=3, steps=5)
        r2 = run_experiment(cfg, [0.05], replications=3, steps=5)
        assert r1.rows == r2.rows

    def test_row_schema_and_counts(self):
        res = run_experiment(small_cfg(), [0.05, 0.1], replications=2, steps=4)
        assert len(res.rows) == 2 * 2 * 2 * 5  # rates x policies x reps x (steps+1)
        row = res.rows[0]
        assert set(row) == {"policy", "rate", "replication", "step",
                            "migrations", "cumulative_migrations",
                            "min_max_ratio"}

    def test_summary_shapes(self):
        res = run_experiment(small_cfg(), [0.1], replications=2, steps=4)
        s = res.summary[(Policy.WITH_REGIONS.value, 0.1)]
        assert s["mean_cumulative"].shape == (5,)
        assert res.metadata["replications"] == 2

    def test_metadata_records_shape(self):
        res = run_experiment(SimConfig(), [0.01], replications=1, steps=1)
        assert res.metadata["grid_cells"] == 84
        assert res.metadata["capacities"] == [1, 1, 2, 2]
        assert res.metadata["population"] == 9000
