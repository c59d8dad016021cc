"""Regional mobility simulator: grid construction, stepping, experiments."""

import errno
import functools
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from megw import sim
from megw.sim import (ConfigError, Policy, SimConfig, SimWorld, apply_moves,
                      build_grid, build_world, derive_seed, draw_moves,
                      run_experiment)
from megw.hrw import rendezvous_pick, rendezvous_select, stage1_key


def step(world, rng):
    """One step by hand, so these tests do not lean on `sim.replay`:
    {Policy: migrations}."""
    movers, slots = draw_moves(world, rng)
    return apply_moves(world, movers, slots)


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

    def test_steps_may_be_zero_but_not_negative(self):
        # the message names the field and its value, as run_experiment's
        assert small_cfg(steps=0).steps == 0
        with pytest.raises(ConfigError,
                           match=r"^steps must be non-negative, not -1$"):
            small_cfg(steps=-1)

    def test_migration_rate_may_be_zero_but_not_negative(self):
        assert small_cfg(migration_rate=0).migration_rate == 0
        with pytest.raises(ConfigError,
                           match=r"^migration_rate must be non-negative$"):
            small_cfg(migration_rate=-1)

    @pytest.mark.parametrize("regions_count, mecs_per_region",
                             [(0, 1), (1, 0), (-1, 2)])
    def test_region_and_mec_counts_must_be_positive(self, regions_count,
                                                    mecs_per_region):
        with pytest.raises(ConfigError,
                           match=r"^region and MEC counts must be positive$"):
            SimConfig(regions_count=regions_count,
                      mecs_per_region=mecs_per_region,
                      capacities=(1,) * max(mecs_per_region, 0))

    def test_users_per_capacity_must_be_positive(self):
        with pytest.raises(
                ConfigError,
                match=r"^users_per_capacity must be positive, not 0$"):
            small_cfg(users_per_capacity=0)

    def test_population_must_fit_in_a_float(self):
        # a sweep scales the population by a float rate
        with pytest.raises(ConfigError, match="users_per_capacity"):
            SimConfig(users_per_capacity=10**400)

    def test_population_must_fit_the_subscriber_addresses(self):
        # user u is subscriber USER_BASE + u, an IPv4 address
        room = (1 << 32) - sim.USER_BASE
        cfg = SimConfig(regions_count=1, mecs_per_region=1, capacities=(1,),
                        users_per_capacity=room, migration_rate=0)
        assert cfg.population == room
        with pytest.raises(ConfigError, match="users_per_capacity"):
            replace(cfg, users_per_capacity=room + 1)

    @pytest.mark.parametrize("policy", ["without_regions", "with_regions",
                                        None])
    def test_policy_must_be_a_policy(self, policy):
        # a name is not a policy: it would run as with-regions whatever it
        # says; from_dict converts the name a document gives
        with pytest.raises(ConfigError,
                           match=r"^config: policy must be a Policy, not "):
            SimConfig(policy=policy)
        if policy is not None:
            assert (SimConfig.from_dict({"policy": policy}).policy
                    is Policy(policy))


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

    def test_every_shape_tiles_without_overlap_or_lone_cells(self):
        # every shape of 1-12 regions x 1-12 MECs: the neighborhoods never
        # overlap (7 distinct cells per MEC), and every cell has at least
        # three neighbours, so integers_below's counts are at least 2
        for regions_count in range(1, 13):
            for mecs_per_region in range(1, 13):
                grid = build_grid(SimConfig(
                    regions_count=regions_count,
                    mecs_per_region=mecs_per_region,
                    capacities=(1,) * mecs_per_region, users_per_capacity=1,
                    migration_rate=0))
                assert len(set(grid.cells)) == 7 * grid.n_mecs \
                    == 7 * regions_count * mecs_per_region
                assert grid.neighbor_count.min() >= 3

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
        for slot_array in (grid.slot_from_mec, grid.slot_to_mec,
                           grid.slot_kind):
            with pytest.raises(ValueError):
                slot_array[0] = 1
        assert grid.region_capacity.tolist() == [6.0] * 12

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), regions_count=st.integers(1, 4),
           mecs_per_region=st.integers(1, 5))
    def test_slot_arrays_equal_a_per_slot_recount(
            self, data, regions_count, mecs_per_region):
        # slot cell * 6 + k moves from the cell to neighbor_table[cell, k]:
        # it leaves the cell's MEC, enters the neighbour's and its kind
        # says whether the MEC or the region changes; a slot with no
        # neighbour stays in its own cell
        grid = build_grid(SimConfig(
            regions_count=regions_count, mecs_per_region=mecs_per_region,
            capacities=data.draw(st.lists(
                st.integers(1, 3), min_size=mecs_per_region,
                max_size=mecs_per_region)),
            users_per_capacity=1, migration_rate=0))
        n_cells = len(grid.cells)
        # numpy draws no word for a one-value range, so the neighbour
        # draw needs at least two neighbours per cell
        assert grid.neighbor_count.min() >= 3
        assert (grid.slot_from_mec.shape == grid.slot_to_mec.shape
                == grid.slot_kind.shape == (n_cells * 6,))
        for cell in range(n_cells):
            for k in range(6):
                slot = cell * 6 + k
                j = int(grid.neighbor_table[cell, k])
                entered = j if j >= 0 else cell
                assert (j >= 0) == (k < grid.neighbor_count[cell])
                assert grid.slot_from_mec[slot] == grid.mec_of_cell[cell]
                assert grid.slot_to_mec[slot] == grid.mec_of_cell[entered]
                if grid.region_of_cell[cell] != grid.region_of_cell[entered]:
                    kind = 2
                elif grid.mec_of_cell[cell] != grid.mec_of_cell[entered]:
                    kind = 1
                else:
                    kind = 0
                assert grid.slot_kind[slot] == kind


def scalar_table(grid, n_users):
    """`sim.stage1_table` one `rendezvous_select` call at a time."""
    n_regions = int(grid.region_of_mec.max()) + 1
    table = np.empty((n_users, n_regions), dtype=np.int64)
    for region in range(n_regions):
        members = np.flatnonzero(grid.region_of_mec == region)
        cands = [(grid.mec_names[m], float(grid.capacities[m]))
                 for m in members]
        index = {grid.mec_names[m]: m for m in members}
        for user in range(n_users):
            table[user, region] = index[rendezvous_select(
                stage1_key(sim.USER_BASE + user), cands)]
    return table


def int_array(values):
    return np.array(values, dtype=np.int64)


def neighbor_moves(data, world, max_size):
    """Hypothesis-drawn moves for `apply_moves`: any distinct users, each
    through any valid neighbour slot of its current cell."""
    movers = int_array(data.draw(st.lists(
        st.integers(0, world.population - 1), unique=True,
        max_size=max_size), label="movers"))
    cells = world.user_cell[movers]
    picks = [data.draw(st.integers(0, count - 1), label="slot")
             for count in world.grid.neighbor_count[cells].tolist()]
    return movers, cells * 6 + int_array(picks)


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
        # paper's map; 500 and 2500 span several batches
        cfg = SimConfig(users_per_capacity=users_per_capacity)
        grid = build_grid(cfg)
        table = sim.stage1_table(grid, cfg.population)
        assert table.dtype == np.int8
        assert np.array_equal(table, scalar_table(grid, cfg.population))

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
        for cfg in (SimConfig(), small_cfg()):
            world = build_world(cfg)
            for policy in Policy:
                assert world.min_max_ratio(policy) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), regions_count=st.integers(1, 3),
           mecs_per_region=st.integers(1, 4),
           users_per_capacity=st.integers(1, 20), seed=st.integers(0, 99))
    def test_capacity_is_one_number(self, data, regions_count,
                                    mecs_per_region, users_per_capacity,
                                    seed):
        # a capacity places its users and gives the population, so every
        # world starts with exactly `population` users at ratio 1.0
        capacities = data.draw(st.lists(st.integers(1, 4),
                                         min_size=mecs_per_region,
                                         max_size=mecs_per_region))
        cfg = SimConfig(regions_count=regions_count,
                        mecs_per_region=mecs_per_region,
                        capacities=capacities,
                        users_per_capacity=users_per_capacity,
                        migration_rate=0, seed=seed)
        world = build_world(cfg)
        assert len(world.user_cell) == cfg.population
        for policy in Policy:
            assert world.min_max_ratio(policy) == 1.0
        # a capacity that is not an integer, 2.0 included, is refused
        capacities[data.draw(st.integers(0, mecs_per_region - 1))] = \
            data.draw(st.floats(0.5, 4))
        with pytest.raises(ConfigError, match="capacities"):
            replace(cfg, capacities=capacities)

    def test_single_mec_world(self):
        cfg = SimConfig(regions_count=1, mecs_per_region=1, capacities=(1,),
                        migration_rate=0)
        world = build_world(cfg)
        assert world.population == 500
        for policy in Policy:
            assert (world.serving(policy) == 0).all()

    def test_initial_serving_geographic(self):
        # from t=0 a user is served where its cell puts it: by the cell's
        # MEC without regions, by stage I's pick in the cell's region with
        # them
        world = build_world(PICK_CFG)
        assert np.array_equal(world.serving(Policy.WITHOUT_REGIONS),
                              world.grid.mec_of_cell[world.user_cell])
        regions = world.grid.region_of_cell[world.user_cell]
        assert world.serving(Policy.WITH_REGIONS).tolist() == pick_cfg_table()[
            np.arange(world.population), regions].tolist()

    @pytest.mark.parametrize("policy", list(Policy))
    def test_serving_is_a_new_array(self, policy):
        # a caller that writes into what serving() returns changes no pick
        world = build_world(PICK_CFG)
        serving = world.serving(policy)
        expected = serving.copy()
        serving[:] = 1 - serving
        assert np.array_equal(world.serving(policy), expected)


class TestStep:
    def test_zero_rate_no_change(self):
        cfg = small_cfg(migration_rate=0)
        world = build_world(cfg)
        before = {policy: world.min_max_ratio(policy) for policy in Policy}
        for policy, migrations in step(world,
                                       np.random.default_rng(0)).items():
            assert migrations == 0
            assert world.min_max_ratio(policy) == before[policy]

    def test_conservation(self):
        cfg = SimConfig(migration_rate=500)
        world = build_world(cfg)
        rng = np.random.default_rng(5)
        for _ in range(10):
            step(world, rng)
        assert world.population == cfg.population
        for policy in Policy:
            assert sim.mec_load(world.grid, world.mec_users,
                                policy).sum() == pytest.approx(cfg.population)

    def test_movers_go_to_neighbor_cells(self):
        world = build_world(small_cfg())
        rng = np.random.default_rng(2)
        grid = world.grid
        before = world.user_cell.copy()
        movers, slots = draw_moves(world, rng)
        assert np.array_equal(slots // 6, before[movers])
        assert (slots % 6 < grid.neighbor_count[before[movers]]).all()
        new_cells = grid.neighbor_table.ravel()[slots]
        for u, c in zip(movers, new_cells):
            assert c in grid.neighbor_table[before[u]]

    def test_scripted_intra_region_move(self):
        # one user crosses between two neighborhoods of the same region:
        # geographic serving changes, region serving does not
        world = build_world(small_cfg())
        grid = world.grid
        pair = None
        for i, c in enumerate(grid.cells):
            for k, j in enumerate(grid.neighbor_table[i]):
                if j >= 0 and grid.mec_of_cell[i] != grid.mec_of_cell[j]:
                    pair = (i, i * 6 + k, int(j))
                    break
            if pair:
                break
        user = int(np.flatnonzero(world.user_cell == pair[0])[0])
        m = apply_moves(world, np.array([user]), np.array([pair[1]]))
        assert world.user_cell[user] == pair[2]
        assert m == {Policy.WITH_REGIONS: 0, Policy.WITHOUT_REGIONS: 1}

    def test_scripted_cross_region_move(self):
        # two single-MEC regions: a border crossing migrates either way
        cfg = SimConfig(regions_count=2, mecs_per_region=1,
                        capacities=(1,), users_per_capacity=50,
                        migration_rate=1, seed=3)
        world = build_world(cfg)
        grid = world.grid
        pair = None
        for i, c in enumerate(grid.cells):
            for k, j in enumerate(grid.neighbor_table[i]):
                if j >= 0 and grid.region_of_cell[i] != grid.region_of_cell[j]:
                    pair = (i, i * 6 + k, int(j))
                    break
            if pair:
                break
        assert pair, "regions must touch"
        user = int(np.flatnonzero(world.user_cell == pair[0])[0])
        m = apply_moves(world, np.array([user]), np.array([pair[1]]))
        assert world.user_cell[user] == pair[2]
        assert m == dict.fromkeys(Policy, 1)

    def test_hash_stability_within_region(self):
        # serving changes only alongside a region change
        cfg = SimConfig(migration_rate=900, seed=11)
        world = build_world(cfg)
        rng = np.random.default_rng(11)
        for _ in range(20):
            serving_before = world.serving(Policy.WITH_REGIONS)
            region_before = world.grid.region_of_mec[serving_before]
            step(world, rng)
            changed = world.serving(Policy.WITH_REGIONS) != serving_before
            new_region = world.grid.region_of_cell[world.user_cell]
            assert (new_region[changed] != region_before[changed]).all()

    def test_with_regions_uses_rendezvous_assignment(self):
        cfg = SimConfig(migration_rate=2000, seed=13)
        world = build_world(cfg)
        rng = np.random.default_rng(13)
        serving_before = world.serving(Policy.WITH_REGIONS)
        step(world, rng)
        changed = np.flatnonzero(
            world.serving(Policy.WITH_REGIONS) != serving_before)
        assert changed.size > 0
        grid = world.grid
        for u in changed[:20]:
            region = grid.region_of_cell[world.user_cell[u]]
            members = np.flatnonzero(grid.region_of_mec == region)
            cands = [(grid.mec_names[m], float(grid.capacities[m]))
                     for m in members]
            pick = rendezvous_select(stage1_key(sim.USER_BASE + int(u)),
                                     cands)
            assert grid.mec_names[world.serving(Policy.WITH_REGIONS)[u]] \
                == pick

    def test_ratio_zero_when_mec_empty(self):
        cfg = small_cfg()
        grid = build_grid(cfg)
        # everyone piles onto MEC 0
        user_cell = np.full(cfg.population, grid.mec_cells[0][0])
        world = SimWorld(cfg=cfg, grid=grid, user_cell=user_cell,
                         mec_users=np.bincount(grid.mec_of_cell[user_cell],
                                               minlength=grid.n_mecs))
        assert world.min_max_ratio(Policy.WITHOUT_REGIONS) == 0.0

    @pytest.mark.parametrize("policy", list(Policy))
    def test_counts_follow_serving(self, policy):
        # the per-owner counts equal a recount after every step, and the
        # load computed from them equals one computed from the serving MECs
        for seed in (1, 2):
            world = build_world(SimConfig(migration_rate=900, seed=seed))
            grid = world.grid
            owner = (grid.mec_of_cell if policy is Policy.WITHOUT_REGIONS
                     else grid.region_of_cell)
            rng = np.random.default_rng(seed)
            for _ in range(30):
                step(world, rng)
                assert np.array_equal(owner_users(world, policy), np.bincount(
                    owner[world.user_cell], minlength=owner.max() + 1))
                serving = world.serving(policy)
                users = np.bincount(serving, minlength=grid.n_mecs)
                if policy is Policy.WITH_REGIONS:
                    region = np.bincount(grid.region_of_mec[serving],
                                         minlength=3)
                    users = (region[grid.region_of_mec] * grid.capacities
                             / grid.region_capacity)
                assert np.allclose(
                    sim.mec_load(grid, world.mec_users, policy), users,
                    rtol=0, atol=1e-9)


# the neighbour counts of the paper's map, one per cell
PAPER_COUNTS = build_grid(SimConfig()).neighbor_count


def with_next_word(rng, word):
    """`rng`, its next 32-bit word set to `word`: PCG64 keeps the upper
    half of a 64-bit output for the next 32-bit draw."""
    rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1,
                               "uinteger": word}
    return rng


class WordAfterChoice:
    """A generator whose first 32-bit word after each `choice` is `word`."""

    def __init__(self, seed, word):
        self.rng, self.word = np.random.default_rng(seed), word

    def choice(self, *args, **kwargs):
        drawn = self.rng.choice(*args, **kwargs)
        with_next_word(self.rng, self.word)
        return drawn

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestNeighbourDraw:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), size=st.integers(0, 9000),
           counts_seed=st.integers(0, 2**32 - 1), paper=st.booleans(),
           skip=st.integers(0, 3))
    def test_equals_numpy_bounded_draw(self, seed, size, counts_seed, paper,
                                       skip):
        # the picks of `rng.integers(0, counts)` and the generator state
        # after them, from either half of a buffered 64-bit output
        source = np.random.default_rng(counts_seed)
        counts = (source.choice(PAPER_COUNTS, size) if paper
                  else source.integers(2, 7, size))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for g in (rng, ref):
            g.integers(0, 1 << 32, size=skip, dtype=np.uint32)
        assert np.array_equal(sim.integers_below(rng, counts),
                              ref.integers(0, counts))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("count,word,rejected", [
        (6, 0, True),             # 2**32 % 6 == 4: numpy draws again
        (3, 0, True),
        (6, 1431655766, False),   # low half 4: below 6, not rejected
        (4, 0, False),            # a power of two: never rejected
    ])
    def test_low_word_falls_back_to_numpy(self, count, word, rejected):
        counts = np.full(5, count)
        rng, ref, raw = (with_next_word(np.random.default_rng(7), word)
                         for _ in range(3))
        assert np.array_equal(sim.integers_below(rng, counts),
                              ref.integers(0, counts))
        assert rng.bit_generator.state == ref.bit_generator.state
        # the low half is below the count: a rejected word makes numpy
        # draw one more, so raw words alone would leave another state
        assert ((word * count) & 0xFFFFFFFF) < count
        raw.integers(0, 1 << 32, size=5, dtype=np.uint32)
        assert (raw.bit_generator.state != ref.bit_generator.state) \
            == rejected

    @pytest.mark.parametrize("word", [0, 1431655766, 0x9E3779B9])
    def test_draw_moves_equals_numpy_draws(self, word):
        # the movers of `rng.choice` and the picks of `rng.integers`,
        # whether the first word after the choice falls back or not
        world = build_world(SimConfig(migration_rate=900, seed=3))
        rng, ref = WordAfterChoice(3, word), WordAfterChoice(3, word)
        movers, slots = draw_moves(world, rng)
        expected = ref.choice(world.population, size=900, replace=False)
        cells = world.user_cell[expected]
        picks = ref.integers(0, world.grid.neighbor_count[cells])
        assert np.array_equal(movers, expected)
        assert np.array_equal(slots, cells * 6 + picks)
        assert rng.bit_generator.state == ref.bit_generator.state


def owner_users(world, policy):
    """The world's users per serving unit: per MEC without regions, per
    region with them."""
    if policy is Policy.WITHOUT_REGIONS:
        return world.mec_users
    return np.bincount(world.grid.region_of_mec, weights=world.mec_users)


def full_array_ratio(grid, policy, mec_users):
    """The min-max ratio as numpy computed it over the per-MEC arrays."""
    if policy is Policy.WITHOUT_REGIONS:
        load = mec_users.astype(float)
    else:
        region_users = np.bincount(grid.region_of_mec, weights=mec_users)
        share = region_users[grid.region_of_mec] / grid.region_capacity
        load = share * grid.capacities
    if (load == 0).any():
        return 0.0
    util = load / grid.capacities
    return float(util.min() / util.max())


class FullArrayStep:
    """A reference step over every mover: gather, scatter and count all of
    them, whether or not their serving MEC changes. Keeps its own serving
    array, per-MEC counts and pick table; with regions a user starts at
    stage I's pick in its cell's region."""

    def __init__(self, world, policy):
        grid = self.grid = world.grid
        self.policy = policy
        self.serving = grid.mec_of_cell[world.user_cell]
        self.picks = sim.stage1_table(grid, world.population)
        if self.policy is Policy.WITH_REGIONS:
            self.serving = self.picks[
                np.arange(world.population),
                grid.region_of_cell[world.user_cell]].astype(np.int64)
        self.mec_users = np.bincount(self.serving, minlength=grid.n_mecs)

    def owner_users(self):
        """The per-MEC counts, summed per region with regions."""
        if self.policy is Policy.WITHOUT_REGIONS:
            return self.mec_users
        return np.bincount(self.grid.region_of_mec, weights=self.mec_users)

    def apply(self, movers, new_cells):
        grid = self.grid
        old_serving = self.serving[movers]
        if self.policy is Policy.WITHOUT_REGIONS:
            new_serving = grid.mec_of_cell[new_cells]
        else:
            new_region = grid.region_of_cell[new_cells]
            crossed = new_region != grid.region_of_mec[old_serving]
            new_serving = old_serving.copy()
            if crossed.any():
                new_serving[crossed] = self.picks[movers[crossed],
                                                  new_region[crossed]]
        self.serving[movers] = new_serving
        n = grid.n_mecs
        self.mec_users += (np.bincount(new_serving, minlength=n)
                           - np.bincount(old_serving, minlength=n))
        migrations = int((new_serving != old_serving).sum())
        return migrations, full_array_ratio(grid, self.policy, self.mec_users)


def step_beside(world, refs, movers, slots):
    """Apply one step to `world` and to each policy's full-array
    reference in `refs`, and check that each policy's reading agrees
    with its reference, the ratio to the last bit."""
    new_cells = world.grid.neighbor_table.ravel()[slots]
    moved = apply_moves(world, movers, slots)
    assert list(moved) == list(sim.POLICIES)
    for policy, ref in refs.items():
        migrations, ratio = ref.apply(movers, new_cells)
        assert np.array_equal(world.serving(policy), ref.serving)
        assert np.array_equal(owner_users(world, policy), ref.owner_users())
        assert moved[policy] == migrations
        assert world.min_max_ratio(policy) == ratio


class TestStepDifferential:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), regions_count=st.integers(1, 3),
           mecs_per_region=st.integers(1, 4),
           users_per_capacity=st.integers(1, 12), seed=st.integers(0, 99))
    def test_step_equals_full_array_step(self, data, regions_count,
                                         mecs_per_region, users_per_capacity,
                                         seed):
        # both policies read one world, as in `replay`; after every step
        # each policy's reading agrees with its own full-array reference,
        # the ratio to the last bit
        capacities = data.draw(st.lists(st.integers(1, 3),
                                         min_size=mecs_per_region,
                                         max_size=mecs_per_region))
        cfg = SimConfig(regions_count=regions_count,
                        mecs_per_region=mecs_per_region,
                        capacities=capacities,
                        users_per_capacity=users_per_capacity,
                        migration_rate=0, seed=seed)
        world = build_world(cfg)
        refs = {policy: FullArrayStep(world, policy)
                for policy in sim.POLICIES}
        population = cfg.population
        rng = np.random.default_rng(seed)
        for _ in range(data.draw(st.integers(1, 8), label="steps")):
            if data.draw(st.booleans(), label="drawn by draw_moves"):
                # neighbor moves, up to the whole population
                count = data.draw(st.integers(0, population), label="count")
                world.cfg = replace(world.cfg, migration_rate=count)
                movers, slots = draw_moves(world, rng)
            else:
                # any users through any of their slots: at a few users per
                # capacity unit, MECs and regions can empty
                movers, slots = neighbor_moves(data, world,
                                               min(population, 30))
            step_beside(world, refs, movers, slots)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), regions_count=st.integers(1, 2),
           mecs_per_region=st.integers(1, 3),
           users_per_capacity=st.integers(43, 90), seed=st.integers(0, 99))
    def test_steps_around_the_slot_count(self, data, regions_count,
                                         mecs_per_region, users_per_capacity,
                                         seed):
        # steps with a move count around the grid's slot count, and with
        # the whole population moving, agree with the full-array
        # reference
        capacities = data.draw(st.lists(st.integers(1, 3),
                                         min_size=mecs_per_region,
                                         max_size=mecs_per_region))
        cfg = SimConfig(regions_count=regions_count,
                        mecs_per_region=mecs_per_region,
                        capacities=capacities,
                        users_per_capacity=users_per_capacity,
                        migration_rate=0, seed=seed)
        world = build_world(cfg)
        slots = world.grid.slot_kind.size
        assert cfg.population > slots
        refs = {policy: FullArrayStep(world, policy)
                for policy in sim.POLICIES}
        rng = np.random.default_rng(seed)
        for _ in range(data.draw(st.integers(1, 4), label="steps")):
            count = data.draw(st.sampled_from(
                [slots - 1, slots, slots + 1, cfg.population]), label="count")
            world.cfg = replace(world.cfg, migration_rate=count)
            step_beside(world, refs, *draw_moves(world, rng))


class TestDominance:
    def test_replayed_trace_orders_policies(self):
        for seed in range(5):
            rep_seed = derive_seed(42, seed)
            world = build_world(SimConfig(migration_rate=900, seed=rep_seed))
            rng = np.random.default_rng([rep_seed, 1])
            for _ in range(15):
                m = step(world, rng)
                assert m[Policy.WITH_REGIONS] <= m[Policy.WITHOUT_REGIONS]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), regions_count=st.integers(1, 3),
           mecs_per_region=st.integers(1, 4), seed=st.integers(0, 99))
    def test_region_migrations_within_mec_migrations(
            self, data, regions_count, mecs_per_region, seed):
        # a region change is also a MEC change: every step migrates no
        # more users with regions than without, and without regions it
        # migrates exactly the movers whose cell's MEC changed
        cfg = SimConfig(regions_count=regions_count,
                        mecs_per_region=mecs_per_region,
                        capacities=(1,) * mecs_per_region,
                        users_per_capacity=5, migration_rate=0, seed=seed)
        world = build_world(cfg)
        mec_of_cell = world.grid.mec_of_cell
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            movers, slots = neighbor_moves(data, world, cfg.population)
            new_cells = world.grid.neighbor_table.ravel()[slots]
            old_cells = world.user_cell[movers]
            m = apply_moves(world, movers, slots)
            assert m[Policy.WITH_REGIONS] <= m[Policy.WITHOUT_REGIONS]
            assert m[Policy.WITHOUT_REGIONS] == int(
                (mec_of_cell[old_cells] != mec_of_cell[new_cells]).sum())


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
                total = 0
                for t in range(steps + 1):
                    migrations = step(world, rng)[policy] if t else 0
                    total += migrations
                    ratio = world.min_max_ratio(policy)
                    rows.append((policy.value, rate, rep, t, migrations,
                                 total, ratio))
                    cumulative[rep, t] = total
                    ratios[rep, t] = ratio
            summary[(policy.value, rate)] = {
                "mean_cumulative": cumulative.mean(axis=0),
                "mean_ratio": ratios.mean(axis=0),
            }
    return rows, summary


class TestReplay:
    @pytest.mark.parametrize("steps", [0, 1, 7])
    def test_steps_numbered_and_totals_summed(self, steps):
        # a replay's rows number the steps 0..steps, and each policy's
        # running total is the sum of its migrations so far
        cfg = small_cfg(steps=steps, migration_rate=40)
        series = sim.replay(cfg, np.random.default_rng(3))
        assert list(series) == list(sim.POLICIES)
        for policy, s in series.items():
            assert [row[3] for row in sim.csv_rows(policy, 0.1, 0, s)] \
                == list(range(steps + 1))
            assert s.migrations[0] == 0
            assert s.cumulative.tolist() == np.cumsum(
                s.migrations.tolist()).tolist()
        if steps:
            assert series[Policy.WITHOUT_REGIONS].cumulative[-1]


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

    def test_one_world_per_replay(self, monkeypatch):
        # both policies read one world: a sweep builds one per
        # (rate, replication); serial, so that this process sees each call
        monkeypatch.setattr(sim, "_cpus", lambda: 1)
        built = []

        def counting_build_world(cfg):
            built.append(cfg.seed)
            return build_world(cfg)
        monkeypatch.setattr(sim, "build_world", counting_build_world)
        run_experiment(small_cfg(), [0.05, 0.1, 0.2], replications=4,
                       steps=2)
        assert len(built) == 3 * 4 == len(set(built))

    def test_one_world_per_replay_across_processes(self, monkeypatch,
                                                   tmp_path):
        # the same over three processes: each world built, in whichever
        # process, appends its seed to one file, and every job's seed is
        # there exactly once
        monkeypatch.setattr(sim, "_cpus", lambda: 3)
        log = tmp_path / "built"

        def logging_build_world(cfg):
            with open(log, "a") as f:
                f.write(f"{cfg.seed}\n")
            return build_world(cfg)
        monkeypatch.setattr(sim, "build_world", logging_build_world)
        run_experiment(small_cfg(), [0.05, 0.1, 0.2], replications=4,
                       steps=2)
        seeds = [derive_seed(small_cfg().seed, rate_idx, rep)
                 for rate_idx in range(3) for rep in range(4)]
        assert sorted(map(int, log.read_text().split())) == sorted(seeds)

    @pytest.mark.parametrize("rates", [[0.1, 0.1], [0.05, 0.2, 0.05],
                                       [1, 1.0]])
    def test_repeated_rate_rejected(self, rates):
        # the summary keys by (policy, rate), so a second run of one rate
        # would hide the first
        with pytest.raises(ConfigError, match="rates"):
            run_experiment(small_cfg(), rates, replications=1, steps=1)

    def test_determinism(self):
        cfg = small_cfg()
        r1 = run_experiment(cfg, [0.05], replications=3, steps=5)
        r2 = run_experiment(cfg, [0.05], replications=3, steps=5)
        assert r1.rows == r2.rows

    def test_row_schema_and_counts(self):
        res = run_experiment(small_cfg(), [0.05, 0.1], replications=2, steps=4)
        assert len(res.rows) == 2 * 2 * 2 * 5  # rates x policies x reps x (steps+1)
        row = res.rows[0]
        assert len(row) == len(sim.CSV_HEADER)
        assert set(sim.CSV_HEADER) == {"policy", "rate", "replication",
                                       "step", "migrations",
                                       "cumulative_migrations",
                                       "min_max_ratio"}

    def test_summary_shapes(self):
        res = run_experiment(small_cfg(), [0.1], replications=2, steps=4)
        s = res.summary[(Policy.WITH_REGIONS.value, 0.1)]
        assert set(s) == {"mean_cumulative", "mean_ratio"}
        assert s["mean_cumulative"].shape == (5,)
        assert res.metadata["replications"] == 2

    def test_metadata_records_shape(self):
        res = run_experiment(SimConfig(), [0.01], replications=1, steps=1)
        assert res.metadata["grid_cells"] == 84
        assert res.metadata["capacities"] == [1, 1, 2, 2]
        assert res.metadata["population"] == 9000


def assert_same_experiment(a, b):
    assert a.rows == b.rows
    assert a.metadata == b.metadata
    assert a.summary.keys() == b.summary.keys()
    for key, stats in a.summary.items():
        assert stats.keys() == b.summary[key].keys()
        for name, values in stats.items():
            assert np.array_equal(values, b.summary[key][name])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def six_jobs():
    return [small_cfg(seed=seed, steps=2) for seed in range(6)]


class TestReplayAll:
    """`sim.replay_all` with its CPU count patched: the forked path must
    give the serial loop's results, errors and no process left over."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), workers=st.integers(1, 4),
           steps=st.integers(0, 3))
    def test_equals_serial(self, data, workers, steps):
        # 1 to 7 jobs, also fewer jobs than workers
        replications = data.draw(st.integers(1, 7), label="replications")
        rates = data.draw(st.lists(
            st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.5, 1.0]), min_size=1,
            max_size=7 // replications, unique=True), label="rates")
        base = small_cfg(seed=data.draw(st.integers(0, 1 << 62)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_cpus", lambda: 1)
            serial = run_experiment(base, rates, replications, steps)
            mp.setattr(sim, "_cpus", lambda: workers)
            forked = run_experiment(base, rates, replications, steps)
        assert_same_experiment(forked, serial)
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 9])
    def test_results_in_job_order(self, monkeypatch, workers):
        # each job's seed, and the generator seeded from it, once each and
        # in job order, whichever process ran the job
        monkeypatch.setattr(sim, "_cpus", lambda: workers)
        monkeypatch.setattr(sim, "replay", lambda cfg, rng: (
            cfg.seed, int(rng.integers(1 << 62))))
        jobs = [small_cfg(seed=seed) for seed in (5, 1, 8, 3, 0, 9, 2)]
        assert sim.replay_all(jobs) == [
            (cfg.seed, int(np.random.default_rng(
                [cfg.seed, 0x30B5]).integers(1 << 62))) for cfg in jobs]
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_child_exception_reaches_the_caller(self, monkeypatch, workers):
        # job 5 runs in a child for every worker count here; its exception
        # arrives with its type and message, and no child is left running
        parent, real = os.getpid(), sim.replay

        def failing(cfg, rng):
            if cfg.seed == 5 and os.getpid() != parent:
                raise ConfigError(f"no replay of seed {cfg.seed}")
            return real(cfg, rng)
        monkeypatch.setattr(sim, "_cpus", lambda: workers)
        monkeypatch.setattr(sim, "replay", failing)
        with pytest.raises(ConfigError) as info:
            sim.replay_all(six_jobs())
        assert type(info.value) is ConfigError
        assert str(info.value) == "no replay of seed 5"
        assert_no_child_left()

    def test_child_without_result_is_a_runtime_error(self, monkeypatch):
        parent, real = os.getpid(), sim.replay

        def dying(cfg, rng):
            if os.getpid() != parent:
                os._exit(3)
            return real(cfg, rng)
        monkeypatch.setattr(sim, "_cpus", lambda: 2)
        monkeypatch.setattr(sim, "replay", dying)
        with pytest.raises(RuntimeError, match=r"exited with status 3 "):
            sim.replay_all(six_jobs())
        assert_no_child_left()

    def test_no_fork_runs_the_serial_loop(self, monkeypatch):
        jobs = six_jobs()
        serial = [sim.replay(cfg, np.random.default_rng([cfg.seed, 0x30B5]))
                  for cfg in jobs]
        monkeypatch.delattr(os, "fork")
        assert sim._cpus() == 1
        got = sim.replay_all(jobs)
        assert [r.keys() for r in got] == [r.keys() for r in serial]
        for mine, theirs in zip(got, serial):
            for policy, series in mine.items():
                for a, b in zip(series, theirs[policy]):
                    assert np.array_equal(a, b)

    def test_failed_fork_reaps_the_first_child(self, monkeypatch):
        # the second fork fails: the child of the first is killed and
        # reaped, and no pipe end is left open
        real, pids = os.fork, []

        def fork():
            if pids:
                raise OSError(errno.EAGAIN, "no more processes")
            pids.append(real())
            return pids[-1]
        monkeypatch.setattr(sim, "_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", fork)
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="no more processes"):
            sim.replay_all(six_jobs())
        assert len(os.listdir("/proc/self/fd")) == fds
        assert len(pids) == 1 and pids[0] > 0
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[0], os.WNOHANG)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, ConfigError])
    def test_caller_error_kills_the_children(self, monkeypatch, error):
        # the children would sleep for a minute; the caller's own error,
        # an interrupt too, kills and reaps them at once
        parent = os.getpid()

        def stuck(cfg, rng):
            if os.getpid() == parent:
                raise error("stop")
            time.sleep(60)
        monkeypatch.setattr(sim, "_cpus", lambda: 3)
        monkeypatch.setattr(sim, "replay", stuck)
        start = time.monotonic()
        with pytest.raises(error):
            sim.replay_all(six_jobs())
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_interrupt_after_a_reap_reaps_the_rest(self, monkeypatch):
        # an interrupt lands after the first child is reaped and before
        # it leaves the table: the cleanup skips that child and still
        # kills and reaps the other one
        parent, real, calls = os.getpid(), os.waitpid, []

        def waitpid(pid, options):
            answer = real(pid, options)
            if os.getpid() == parent and not calls:
                calls.append(pid)
                raise KeyboardInterrupt
            return answer
        monkeypatch.setattr(sim, "_cpus", lambda: 3)
        monkeypatch.setattr(os, "waitpid", waitpid)
        with pytest.raises(KeyboardInterrupt):
            sim.replay_all(six_jobs())
        assert len(calls) == 1
        assert_no_child_left()
