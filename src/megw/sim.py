"""Flow-level regional mobility simulator.

A hexagonal cell map is tiled by 7-cell neighborhoods (a center cell plus
its six surrounding cells), one edge cluster per neighborhood, each with a
relative capacity. Neighborhoods group into contiguous regions. Users are
placed proportionally to capacity and wander to random neighbor cells each
simulated minute.

Two serving policies are compared:

- without regions: a user is always served by the cluster covering its
  cell, so every neighborhood boundary crossing migrates application state;
- with regions: the serving cluster is fixed while the user stays inside
  the region, and a capacity-weighted rendezvous hash (the same scheme the
  gateway data plane uses for stage I) picks the new serving cluster only
  when the user enters a different region.

Metrics per step: application-state migrations and the min-max fairness
ratio of cluster utilizations (least loaded over most loaded).

A sweep replays each replication's movement trace under both policies in
lockstep, one draw per step. A with-regions pick is scored the first time
a crossing reads it and then kept in a memo shared by the worlds of one
map shape.
"""

from __future__ import annotations

import csv
import enum
import functools
import hashlib
import json
import math
import struct
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .shape import check
from .steering import rendezvous_pick
# rendezvous_select is unused here; it stays importable because
# benchmarks/layers.py counts calls under this name.
from .steering import rendezvous_select  # noqa: F401

# axial hexagonal geometry: six unit direction vectors and the basis of the
# neighborhood-center sublattice (index 7: centers plus six offsets tile
# the plane exactly)
HEX_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
_BASIS_A = (2, 1)
_BASIS_B = (-1, 3)
_USER_KEY = struct.Struct("!Q").pack    # a user's rendezvous-hash key
HASH_CHUNK = 4096   # users scored per batch: bounds the score lists' memory


class ConfigError(ValueError):
    pass


_CONFIG = {"regions_count": int, "mecs_per_region": int,
           "capacities": [float], "users_per_capacity": int, "steps": int,
           "migration_rate": int, "seed": int}
_SWEEP = {"rates": [float], "replications": int, "steps": int}


class Policy(enum.Enum):
    WITH_REGIONS = "with_regions"
    WITHOUT_REGIONS = "without_regions"


@dataclass(frozen=True)
class SimConfig:
    regions_count: int = 3
    mecs_per_region: int = 4
    capacities: tuple = (1, 1, 2, 2)      # per MEC within each region
    users_per_capacity: int = 500
    steps: int = 60
    migration_rate: int = 60              # users moved per simulated minute
    policy: Policy = Policy.WITH_REGIONS
    seed: int = 0

    def __post_init__(self):
        check(vars(self), _CONFIG, ConfigError, "config")
        object.__setattr__(self, "capacities", tuple(self.capacities))
        if self.regions_count < 1 or self.mecs_per_region < 1:
            raise ConfigError("region and MEC counts must be positive")
        if len(self.capacities) != self.mecs_per_region:
            raise ConfigError(
                f"need {self.mecs_per_region} capacities, "
                f"got {len(self.capacities)}")
        if not (all(int(c) > 0 for c in self.capacities)
                and sum(self.capacities) < math.inf):
            raise ConfigError("capacities must be positive, with a finite sum")
        if self.users_per_capacity < 1 or self.steps < 0:
            raise ConfigError("users_per_capacity and steps must be positive")
        if self.population > sys.float_info.max:    # a sweep scales it
            raise ConfigError("users_per_capacity: the population must fit "
                              "in a float")
        if self.migration_rate < 0:
            raise ConfigError("migration_rate must be non-negative")
        if self.migration_rate > self.population:
            raise ConfigError(
                f"cannot move {self.migration_rate} of {self.population} users")

    @property
    def population(self) -> int:
        return (self.users_per_capacity * int(sum(self.capacities))
                * self.regions_count)

    @staticmethod
    def from_dict(doc: dict) -> "SimConfig":
        check(doc, {}, ConfigError, "config")
        unknown = sorted(set(doc) - {f.name for f in fields(SimConfig)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = dict(doc)
        if "policy" in kwargs:
            try:
                kwargs["policy"] = Policy(kwargs["policy"])
            except ValueError as exc:
                raise ConfigError(f"config: policy: {exc}") from None
        return SimConfig(**kwargs)


def _vec(p, k):
    return (p[0] * k, p[1] * k)


def _add(*points):
    q = sum(p[0] for p in points)
    r = sum(p[1] for p in points)
    return (q, r)


def _mec_centers(regions_count: int, mecs_per_region: int) -> tuple[list, list]:
    """Neighborhood centers and their region ids.

    Each region is a compact block of neighborhoods (two per row on the
    sublattice); consecutive regions step diagonally so that adjacent
    regions touch at a single neighborhood pair, keeping the inter-region
    boundary small relative to the neighborhood boundaries inside.
    """
    rows = math.ceil(mecs_per_region / 2)
    if mecs_per_region == 1:
        step = _BASIS_A
    elif mecs_per_region % 2:
        step = _vec(_BASIS_A, 2)
    else:
        step = _add(_vec(_BASIS_A, 2), _vec(_BASIS_B, rows - 1))
    centers, regions = [], []
    for r in range(regions_count):
        origin = _vec(step, r)
        for m in range(mecs_per_region):
            dk, dl = m % 2, m // 2
            centers.append(_add(origin, _vec(_BASIS_A, dk), _vec(_BASIS_B, dl)))
            regions.append(r)
    return centers, regions


@dataclass(frozen=True)
class HexGrid:
    """The cell map, shared by every world of one shape: read-only."""

    cells: tuple                 # axial coords, index order is canonical
    mec_of_cell: np.ndarray      # (n_cells,) MEC index
    region_of_cell: np.ndarray   # (n_cells,)
    region_of_mec: np.ndarray    # (n_mecs,)
    capacities: np.ndarray       # (n_mecs,) float
    region_capacity: np.ndarray  # (n_mecs,) capacity of the MEC's region
    mec_cells: tuple             # per MEC: array of its 7 cell indices
    neighbor_table: np.ndarray   # (n_cells, 6) neighbor index or -1
    neighbor_count: np.ndarray   # (n_cells,)
    mec_names: tuple

    @property
    def n_mecs(self) -> int:
        return len(self.capacities)


def build_grid(cfg: SimConfig) -> HexGrid:
    return _grid(cfg.regions_count, cfg.mecs_per_region, cfg.capacities)


@functools.lru_cache(maxsize=8)
def _grid(regions_count: int, mecs_per_region: int,
          capacity_of: tuple) -> HexGrid:
    """The grid of one map shape; memoized, since every replication of a
    sweep and every policy uses the same one."""
    centers, center_regions = _mec_centers(regions_count, mecs_per_region)
    cell_owner: dict = {}
    for mec, center in enumerate(centers):
        for cell in [center] + [_add(center, d) for d in HEX_DIRS]:
            if cell in cell_owner:
                raise ConfigError(f"tiling overlap at {cell}")
            cell_owner[cell] = mec
    cells = sorted(cell_owner)
    cell_index = {c: i for i, c in enumerate(cells)}
    n = len(cells)
    mec_of_cell = np.array([cell_owner[c] for c in cells], dtype=np.int64)
    region_of_mec = np.array(center_regions, dtype=np.int64)
    region_of_cell = region_of_mec[mec_of_cell]
    capacities = np.array([float(capacity_of[m % mecs_per_region])
                           for m in range(len(centers))])
    region_capacity = np.bincount(region_of_mec, weights=capacities)[
        region_of_mec]
    mec_cells = tuple(np.flatnonzero(mec_of_cell == m)
                      for m in range(len(centers)))

    neighbor_table = np.full((n, 6), -1, dtype=np.int64)
    neighbor_count = np.zeros(n, dtype=np.int64)
    for i, c in enumerate(cells):
        k = 0
        for d in HEX_DIRS:
            j = cell_index.get(_add(c, d))
            if j is not None:
                neighbor_table[i, k] = j
                k += 1
        neighbor_count[i] = k
    if (neighbor_count == 0).any():
        raise ConfigError("isolated cell in tiling")

    names = tuple(f"mec-{r}-{m}" for r, m in zip(
        center_regions, list(range(mecs_per_region)) * regions_count))
    arrays = (mec_of_cell, region_of_cell, region_of_mec, capacities,
              region_capacity, neighbor_table, neighbor_count) + mec_cells
    for a in arrays:
        a.flags.writeable = False
    return HexGrid(cells=tuple(cells), mec_of_cell=mec_of_cell,
                   region_of_cell=region_of_cell, region_of_mec=region_of_mec,
                   capacities=capacities, region_capacity=region_capacity,
                   mec_cells=mec_cells, neighbor_table=neighbor_table,
                   neighbor_count=neighbor_count, mec_names=names)


class RegionPicks:
    """Each user's serving MEC in each region, scored on first use.

    A pick is the weighted rendezvous selection of the gateway's stage I
    over the region's MECs. A crossing reads only the mover's pick in the
    region it enters, and a sweep reads about a third of all (user, region)
    pairs, so each pair is scored when first asked for and then kept. The
    array holds -1 for a pair not scored yet, in the narrowest signed dtype
    that holds a MEC index. Callers get copies, so no world writes a pick.
    """

    def __init__(self, n_users: int, mec_names: tuple, capacities: tuple,
                 region_of_mec: tuple):
        self._members = [np.array([m for m, r in enumerate(region_of_mec)
                                   if r == region])
                         for region in range(max(region_of_mec) + 1)]
        self._candidates = [[(mec_names[m], capacities[m]) for m in mecs]
                            for mecs in self._members]
        self._picks = np.full((n_users, len(self._members)), -1,
                              dtype=np.min_scalar_type(-len(mec_names)))

    def get(self, users: np.ndarray, regions: np.ndarray) -> np.ndarray:
        """The picks of the pairs (users[i], regions[i]); the pairs not
        scored yet are scored in one batch per region."""
        picks = self._picks[users, regions]
        missing = picks < 0
        if missing.any():
            for region in range(len(self._members)):
                batch = users[missing & (regions == region)]
                if len(batch):
                    self._score(batch, region)
            picks = self._picks[users, regions]
        return picks

    def _score(self, users: np.ndarray, region: int) -> None:
        """Pick for HASH_CHUNK users at a time among the region's MECs."""
        mecs = self._members[region]
        for start in range(0, len(users), HASH_CHUNK):
            chunk = users[start:start + HASH_CHUNK]
            keys = [_USER_KEY(user) for user in chunk.tolist()]
            self._picks[chunk, region] = mecs[rendezvous_pick(
                keys, self._candidates[region])]


# one memo is kept, since every with-regions world of a sweep shares it
_region_picks = functools.lru_cache(maxsize=1)(RegionPicks)


@dataclass
class StepMetrics:
    t: int
    migrations: int
    cumulative_migrations: int
    min_max_ratio: float


@dataclass
class SimWorld:
    """One run's state. `serving` and `mec_users` change together, only in
    `apply_moves`: a direct write to `serving` leaves the counts stale.
    Worlds replaying one movement trace may share `user_cell`, since each
    `apply_moves` writes the same cells to it."""

    cfg: SimConfig
    grid: HexGrid
    user_cell: np.ndarray
    serving: np.ndarray
    mec_users: np.ndarray        # (n_mecs,) users served, bincount(serving)
    hash_table: RegionPicks | None   # with regions: the shared pick memo
    t: int = 0
    cumulative_migrations: int = 0

    @property
    def population(self) -> int:
        return len(self.user_cell)

    def mec_load(self) -> np.ndarray:
        """Users per MEC.

        Without regions a MEC carries exactly the users assigned to it.
        With regions each region acts as one pooled cluster whose load the
        two-stage steering spreads over its MECs in proportion to capacity,
        so a MEC carries its capacity share of the region's users; the
        pooling is what absorbs per-user randomness.
        """
        if self.cfg.policy is Policy.WITHOUT_REGIONS:
            return self.mec_users.astype(float)
        grid = self.grid
        region_users = np.bincount(grid.region_of_mec, weights=self.mec_users)
        share = region_users[grid.region_of_mec] / grid.region_capacity
        return share * grid.capacities

    def min_max_ratio(self) -> float:
        load = self.mec_load()
        if (load == 0).any():
            return 0.0
        util = load / self.grid.capacities
        return float(util.min() / util.max())

    def metrics(self, migrations: int = 0) -> StepMetrics:
        return StepMetrics(t=self.t, migrations=migrations,
                           cumulative_migrations=self.cumulative_migrations,
                           min_max_ratio=self.min_max_ratio())


def build_world(cfg: SimConfig) -> SimWorld:
    """Deterministic initial world: users_per_capacity x capacity users in
    each neighborhood, spread uniformly over its 7 cells, each served by
    the geographically covering MEC, so utilizations start exactly equal."""
    grid = build_grid(cfg)
    rng = np.random.default_rng([cfg.seed, 0x9E37])
    chunks = []
    for m in range(grid.n_mecs):
        count = cfg.users_per_capacity * int(grid.capacities[m])
        chunks.append(rng.choice(grid.mec_cells[m], size=count, replace=True))
    user_cell = np.concatenate(chunks)
    serving = grid.mec_of_cell[user_cell]
    table = (_region_picks(len(user_cell), grid.mec_names,
                           tuple(grid.capacities.tolist()),
                           tuple(grid.region_of_mec.tolist()))
             if cfg.policy is Policy.WITH_REGIONS else None)
    return SimWorld(cfg=cfg, grid=grid, user_cell=user_cell, serving=serving,
                    mec_users=np.bincount(serving, minlength=grid.n_mecs),
                    hash_table=table)


def draw_moves(world: SimWorld, rng: np.random.Generator,
               count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pick distinct movers and a uniform valid neighbor cell for each.

    The movement trace is policy-independent, so one drawn batch can be
    replayed under both serving policies.
    """
    if count is None:
        count = world.cfg.migration_rate
    if count > world.population:
        raise ConfigError(f"cannot move {count} of {world.population} users")
    movers = rng.choice(world.population, size=count, replace=False)
    cells = world.user_cell[movers]
    pick = rng.integers(0, world.grid.neighbor_count[cells])
    new_cells = world.grid.neighbor_table[cells, pick]
    return movers, new_cells


def apply_moves(world: SimWorld, movers: np.ndarray,
                new_cells: np.ndarray) -> StepMetrics:
    """Move the users, reassign serving MECs per policy, count migrations."""
    grid = world.grid
    old_serving = world.serving[movers]
    world.user_cell[movers] = new_cells
    if world.cfg.policy is Policy.WITHOUT_REGIONS:
        new_serving = grid.mec_of_cell[new_cells]
    else:
        # serving MEC sticks within the region; crossing into another
        # region rehashes over that region's MECs, weighted by capacity
        new_region = grid.region_of_cell[new_cells]
        crossed = new_region != grid.region_of_mec[old_serving]
        new_serving = old_serving.copy()
        if crossed.any():
            new_serving[crossed] = world.hash_table.get(movers[crossed],
                                                        new_region[crossed])
    world.serving[movers] = new_serving
    n = grid.n_mecs
    world.mec_users += (np.bincount(new_serving, minlength=n)
                        - np.bincount(old_serving, minlength=n))
    migrations = int((new_serving != old_serving).sum())
    world.t += 1
    world.cumulative_migrations += migrations
    return world.metrics(migrations)


def step(world: SimWorld, rng: np.random.Generator) -> StepMetrics:
    movers, new_cells = draw_moves(world, rng)
    return apply_moves(world, movers, new_cells)


@dataclass
class ExperimentResult:
    rows: list          # per (policy, rate, replication, step)
    summary: dict       # (policy, rate) -> per-step aggregate arrays
    metadata: dict

    def mean_cumulative(self, policy: Policy, rate: float) -> float:
        return float(self.summary[(policy.value, rate)]["mean_cumulative"][-1])

    def mean_ratio_series(self, policy: Policy, rate: float) -> np.ndarray:
        return self.summary[(policy.value, rate)]["mean_ratio"]


def derive_seed(*parts: int) -> int:
    """Collision-resistant child seed from integer coordinates."""
    raw = struct.pack(f"!{len(parts)}q", *parts)
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(),
                          "big") >> 1


POLICIES = (Policy.WITH_REGIONS, Policy.WITHOUT_REGIONS)   # row order


def _lockstep(base: SimConfig, moved: int, steps: int,
              rep_seed: int) -> list:
    """One replication: each step draws its moves once and applies them to
    one world per policy. Returns each policy's metrics series."""
    worlds = [build_world(replace(
        base, steps=steps, migration_rate=moved, policy=policy, seed=rep_seed))
        for policy in POLICIES]
    for world in worlds[1:]:
        world.user_cell = worlds[0].user_cell   # same seed, same cells
    series = [[world.metrics()] for world in worlds]
    rng = np.random.default_rng([rep_seed, 0x30B5])
    for _ in range(steps):
        movers, new_cells = draw_moves(worlds[0], rng)
        for world, metrics in zip(worlds, series):
            metrics.append(apply_moves(world, movers, new_cells))
    return series


def run_experiment(base: SimConfig, rates: list, replications: int = 20,
                   steps: int | None = None) -> ExperimentResult:
    """Sweep migration rates under both policies.

    rates are fractions of the population moved per minute. Each
    replication gets an independent seed derived from the base seed and
    replays one movement trace under both policies in lockstep: each step
    draws its moves once and applies them to both worlds, so their metrics
    differ only by the serving policy. Rows run by rate, then policy, then
    replication.
    """
    steps = steps if steps is not None else base.steps
    check({"rates": rates, "replications": replications, "steps": steps},
          _SWEEP, ConfigError, "sweep")
    if not rates or not all(0 <= rate <= 1 for rate in rates):
        raise ConfigError(f"rates must be a non-empty list of fractions "
                          f"from 0 to 1, not {rates!r}")
    if replications < 1 or steps < 0:
        raise ConfigError(f"replications must be positive and steps "
                          f"non-negative, not {replications} and {steps}")
    rows = []
    summary = {}
    for rate_idx, rate in enumerate(rates):
        moved = int(round(rate * base.population))
        runs = {policy: [] for policy in POLICIES}   # per-replication series
        for rep in range(replications):
            series = _lockstep(base, moved, steps,
                               derive_seed(base.seed, rate_idx, rep))
            for policy, metrics in zip(POLICIES, series):
                runs[policy].append(metrics)
        for policy in POLICIES:
            cumulative = np.array([[m.cumulative_migrations for m in metrics]
                                   for metrics in runs[policy]], dtype=float)
            ratios = np.array([[m.min_max_ratio for m in metrics]
                               for metrics in runs[policy]])
            for rep, metrics in enumerate(runs[policy]):
                rows.extend(csv_row(policy, rate, rep, m) for m in metrics)
            summary[(policy.value, rate)] = {
                "mean_cumulative": cumulative.mean(axis=0),
                "std_cumulative": cumulative.std(axis=0),
                "mean_ratio": ratios.mean(axis=0),
                "std_ratio": ratios.std(axis=0),
            }
    grid = build_grid(base)
    metadata = {
        "seed": base.seed,
        "regions_count": base.regions_count,
        "mecs_per_region": base.mecs_per_region,
        "capacities": list(base.capacities),
        "users_per_capacity": base.users_per_capacity,
        "population": base.population,
        "steps": steps,
        "replications": replications,
        "rates": list(rates),
        "grid_cells": len(grid.cells),
        "mecs": list(grid.mec_names),
    }
    return ExperimentResult(rows=rows, summary=summary, metadata=metadata)


CSV_HEADER = ["policy", "rate", "replication", "step", "migrations",
              "cumulative_migrations", "min_max_ratio"]


def csv_row(policy: Policy, rate: float, replication: int,
            m: StepMetrics) -> dict:
    """One CSV_HEADER row for one step of one run."""
    return dict(zip(CSV_HEADER, (policy.value, rate, replication, m.t,
                                 m.migrations, m.cumulative_migrations,
                                 m.min_max_ratio)))


def write_rows_csv(path: str, rows: list) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_HEADER)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_metadata(path: str, metadata: dict) -> None:
    with open(path, "w") as f:
        json.dump(metadata, f, indent=2, sort_keys=True)
        f.write("\n")
