"""Flow-level regional mobility simulator.

A hexagonal cell map is tiled by 7-cell neighborhoods (a center cell plus
its six surrounding cells), one edge cluster per neighborhood, each with a
whole-number capacity. Neighborhoods group into contiguous regions. Users
are placed proportionally to capacity and wander to random neighbor cells
each simulated minute.

Two serving policies are compared on the same users making the same
moves. A move migrates a user's application state when it changes the
user's serving cluster:

- without regions: the cluster covering the cell, so every neighborhood
  boundary crossing migrates;
- with regions: stage I's pick in the cell's region (a capacity-weighted
  rendezvous hash of user u's subscriber address, `USER_BASE + u`), so it
  changes only when the user enters a different region.

A region change is always also a cluster change, so one world holds what
both read: each user's cell and the users per cluster. The readers take
the policy; `SimWorld.serving` gathers the serving clusters on demand,
with regions from a `stage1_table` computed on first use. The table picks
through `megw.hrw`, the kernel of both gateway stages, so the simulator
loads nothing of the data plane.

A move goes through a neighbour slot, `cell * 6 + k` for the k-th entry
of the grid's `neighbor_table`, and the grid knows per slot the cluster
it leaves, the one it enters and its migration kind. So `apply_moves`
writes the movers' new cells and reads the rest of its bookkeeping off
the step's slots: the users per cluster and each policy's migration
count, off one histogram of the slots, with no per-mover mask or
compare.

A step draws its neighbour picks as raw 32-bit words scaled into each
cell's neighbour count, the multiply-shift numpy's bounded draw does
itself, so the picks and the generator's state are exactly those of
`rng.integers(0, counts)`.

`replay` is the one step loop: one movement trace on one world. It keeps
each step's users per cluster and migration counts in arrays, and once
per replay computes each policy's running totals and its min-max
fairness ratio of cluster utilizations (least loaded over most loaded)
at every step. `megw sim` writes the series of its config's policy; a
sweep writes both.

A sweep's replays share nothing, so `replay_all` runs them across the
CPUs the process may use, in forked workers, and gives back exactly the
serial loop's results: the output stays byte-identical. `taskset -c 0`
makes a run serial, in one process.
"""

from __future__ import annotations

import csv
import enum
import functools
import hashlib
import json
import math
import os
import pickle
import signal
import struct
from dataclasses import dataclass, fields, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .hrw import rendezvous_pick, stage1_key
# rendezvous_select is unused here; it stays importable because
# benchmarks/layers.py counts calls under this name.
from .hrw import rendezvous_select  # noqa: F401
from .shape import check

# axial hexagonal geometry: six unit direction vectors and the basis of the
# neighborhood-center sublattice (index 7: centers plus six offsets tile
# the plane exactly)
HEX_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
_BASIS_A = (2, 1)
_BASIS_B = (-1, 3)
USER_BASE = 0xAC100001  # 172.16.0.1: user u's subscriber address, less u
HASH_CHUNK = 4096   # users scored per batch: bounds the score lists' memory


class ConfigError(ValueError):
    pass


_CONFIG = {"regions_count": int, "mecs_per_region": int,
           "capacities": [int], "users_per_capacity": int, "steps": int,
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
    policy: Policy = Policy.WITH_REGIONS  # the series `megw sim` writes
    seed: int = 0

    def __post_init__(self):
        check(vars(self), _CONFIG, ConfigError, "config")
        if not isinstance(self.policy, Policy):   # from_dict converts names
            raise ConfigError(
                f"config: policy must be a Policy, not {self.policy!r}")
        if not 0 <= self.seed < 1 << 63:   # derive_seed packs a signed int64
            raise ConfigError(f"seed must be from 0 to 2**63 - 1, "
                              f"not {self.seed}")
        object.__setattr__(self, "capacities", tuple(self.capacities))
        if self.regions_count < 1 or self.mecs_per_region < 1:
            raise ConfigError("region and MEC counts must be positive")
        if len(self.capacities) != self.mecs_per_region:
            raise ConfigError(
                f"need {self.mecs_per_region} capacities, "
                f"got {len(self.capacities)}")
        if not all(c > 0 for c in self.capacities):
            raise ConfigError("capacities must be positive")
        if self.users_per_capacity < 1:
            raise ConfigError(f"users_per_capacity must be positive, "
                              f"not {self.users_per_capacity}")
        if self.steps < 0:
            raise ConfigError(f"steps must be non-negative, not {self.steps}")
        if USER_BASE + self.population > 1 << 32:   # one address per user
            raise ConfigError("users_per_capacity: the population must fit "
                              "in the subscriber addresses")
        if self.migration_rate < 0:
            raise ConfigError("migration_rate must be non-negative")
        if self.migration_rate > self.population:
            raise ConfigError(
                f"cannot move {self.migration_rate} of {self.population} users")

    @property
    def population(self) -> int:
        return (self.users_per_capacity * sum(self.capacities)
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
    capacities: np.ndarray       # (n_mecs,) int
    region_capacity: np.ndarray  # (n_mecs,) capacity of the MEC's region
    mec_cells: tuple             # per MEC: array of its 7 cell indices
    neighbor_table: np.ndarray   # (n_cells, 6) neighbor index or -1
    neighbor_count: np.ndarray   # (n_cells,)
    # per neighbour slot s = cell * 6 + k, a move from the cell to
    # neighbor_table[cell, k]: the MEC it leaves, the MEC it enters and
    # its kind: 0 same MEC, 1 another MEC of the region, 2 another
    # region; an empty slot stays in its own cell, kind 0, never drawn
    slot_from_mec: np.ndarray    # (n_cells * 6,)
    slot_to_mec: np.ndarray      # (n_cells * 6,)
    slot_kind: np.ndarray        # (n_cells * 6,)
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
    # the centers are distinct sublattice points, so their neighborhoods
    # never overlap; each outer cell touches its center and two siblings,
    # so every cell has at least three neighbours
    cell_owner: dict = {}
    for mec, center in enumerate(centers):
        for cell in [center] + [_add(center, d) for d in HEX_DIRS]:
            cell_owner[cell] = mec
    cells = sorted(cell_owner)
    cell_index = {c: i for i, c in enumerate(cells)}
    n = len(cells)
    mec_of_cell = np.array([cell_owner[c] for c in cells], dtype=np.int64)
    region_of_mec = np.array(center_regions, dtype=np.int64)
    region_of_cell = region_of_mec[mec_of_cell]
    capacities = np.array(capacity_of * regions_count, dtype=np.int64)
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
    own = np.repeat(np.arange(n), len(HEX_DIRS))
    entered = np.where(neighbor_table.ravel() >= 0, neighbor_table.ravel(),
                       own)
    slot_from_mec, slot_to_mec = mec_of_cell[own], mec_of_cell[entered]
    # a region change is also a MEC change, so the two add up to the kind
    slot_kind = ((slot_from_mec != slot_to_mec).astype(np.int64)
                 + (region_of_cell[own] != region_of_cell[entered]))

    names = tuple(f"mec-{r}-{m}" for r, m in zip(
        center_regions, list(range(mecs_per_region)) * regions_count))
    arrays = (mec_of_cell, region_of_cell, region_of_mec, capacities,
              region_capacity, neighbor_table, neighbor_count, slot_from_mec,
              slot_to_mec, slot_kind) + mec_cells
    for a in arrays:
        a.flags.writeable = False
    return HexGrid(cells=tuple(cells), mec_of_cell=mec_of_cell,
                   region_of_cell=region_of_cell, region_of_mec=region_of_mec,
                   capacities=capacities, region_capacity=region_capacity,
                   mec_cells=mec_cells, neighbor_table=neighbor_table,
                   neighbor_count=neighbor_count, slot_from_mec=slot_from_mec,
                   slot_to_mec=slot_to_mec, slot_kind=slot_kind,
                   mec_names=names)


def stage1_table(grid: HexGrid, n_users: int) -> np.ndarray:
    """Stage I's pick for each of `n_users` users in each region.

    An (n_users, regions) array of MEC indices, in the narrowest signed
    dtype that holds one. User u is keyed by its subscriber address,
    `USER_BASE + u`; each region's column is one capacity-weighted
    `rendezvous_pick` pass over the region's MECs, HASH_CHUNK keys at a
    time.
    """
    keys = [stage1_key(USER_BASE + user) for user in range(n_users)]
    capacities = grid.capacities.tolist()
    regions = int(grid.region_of_mec.max()) + 1
    table = np.empty((n_users, regions),
                     dtype=np.min_scalar_type(-grid.n_mecs))
    for region in range(regions):
        members = np.flatnonzero(grid.region_of_mec == region)
        candidates = [(grid.mec_names[m], capacities[m])
                      for m in members.tolist()]
        picks = []
        for start in range(0, n_users, HASH_CHUNK):
            picks += rendezvous_pick(keys[start:start + HASH_CHUNK],
                                     candidates)
        table[:, region] = members[picks]
    return table


def mec_load(grid: HexGrid, mec_users: np.ndarray,
             policy: Policy) -> np.ndarray:
    """Users per MEC, as floats, for users per MEC `mec_users` of shape
    (..., n_mecs): one world's counts or a replay's row per step. Without
    regions a MEC carries the users of its cells. With regions each
    region is one pooled cluster whose load the two-stage steering
    spreads over its MECs in proportion to capacity, so a MEC carries its
    capacity share of the region's users; the pooling absorbs per-user
    randomness."""
    if policy is Policy.WITHOUT_REGIONS:
        return mec_users.astype(float)
    member = grid.region_of_mec[:, None] == np.arange(
        grid.region_of_mec.max() + 1)
    users = mec_users @ member     # per region, exact in int64
    return (users[..., grid.region_of_mec] / grid.region_capacity
            * grid.capacities)


def min_max_ratio(grid: HexGrid, mec_users: np.ndarray,
                  policy: Policy) -> np.ndarray:
    """The least over the most MEC utilization (load over capacity) of
    each row of `mec_users`: 0.0 when a MEC carries no load."""
    util = mec_load(grid, mec_users, policy) / grid.capacities
    return util.min(axis=-1) / util.max(axis=-1)


@dataclass
class SimWorld:
    """One replay's users, with no policy, clock or totals in them: each
    reader takes the policy, and `replay` keeps the series. `user_cell`
    and `mec_users` change together, only in `apply_moves`, which counts
    from the grid's per-slot MECs and never reads `user_cell`: a direct
    write to `user_cell`, or a slot of another cell than its mover's,
    leaves the counts stale. `serving` computes the world's `stage1_table`
    on first use and keeps it; no step reads it."""

    cfg: SimConfig
    grid: HexGrid
    user_cell: np.ndarray
    mec_users: np.ndarray        # bincount(grid.mec_of_cell[user_cell])

    @property
    def population(self) -> int:
        return len(self.user_cell)

    @functools.cached_property
    def _stage1(self) -> np.ndarray:
        return stage1_table(self.grid, self.population)

    def serving(self, policy: Policy) -> np.ndarray:
        """Each user's serving MEC, a new array: its cell's MEC without
        regions, stage I's pick in its cell's region with them, gathered
        from the world's `stage1_table`."""
        if policy is Policy.WITHOUT_REGIONS:
            return self.grid.mec_of_cell[self.user_cell]
        return self._stage1[np.arange(self.population),
                            self.grid.region_of_cell[self.user_cell]]

    def min_max_ratio(self, policy: Policy) -> float:
        """The module's `min_max_ratio` of the world's current counts."""
        return float(min_max_ratio(self.grid, self.mec_users, policy))


def build_world(cfg: SimConfig) -> SimWorld:
    """Deterministic initial world: users_per_capacity x capacity users in
    each neighborhood, spread uniformly over its 7 cells, so utilizations
    start exactly equal."""
    grid = build_grid(cfg)
    rng = np.random.default_rng([cfg.seed, 0x9E37])
    user_cell = np.concatenate([
        rng.choice(cells, size=cfg.users_per_capacity * capacity, replace=True)
        for cells, capacity in zip(grid.mec_cells, grid.capacities.tolist())])
    return SimWorld(cfg=cfg, grid=grid, user_cell=user_cell,
                    mec_users=np.bincount(grid.mec_of_cell[user_cell],
                                          minlength=grid.n_mecs))


def integers_below(rng: np.random.Generator,
                   counts: np.ndarray) -> np.ndarray:
    """`rng.integers(0, counts)` for int64 counts from 2 to 2**31: the
    same values, and the generator left in the same state.

    numpy draws each such value from one 32-bit word w as
    `(w * count) >> 32`, and draws again only when the product's low 32
    bits fall below a threshold that is less than the count (Lemire,
    "Fast Random Integer Generation in an Interval", 2019). So one batch
    of raw words gives the same values unless some low half falls below
    its count, which is rare; then the generator is rewound and numpy
    draws. A count of 1 would differ: numpy draws no word for it.
    """
    state = rng.bit_generator.state
    word = rng.integers(0, 1 << 32, size=len(counts), dtype=np.uint32)
    scaled = word.astype(np.int64) * counts
    if ((scaled & 0xFFFFFFFF) < counts).any():
        rng.bit_generator.state = state
        return rng.integers(0, counts)
    return scaled >> 32


def draw_moves(world: SimWorld,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Pick `cfg.migration_rate` distinct movers and a uniform valid
    neighbour slot of each one's cell: `(movers, slots)`.

    The movement trace is policy-independent: one drawn batch moves the
    users that both serving policies read. It is the trace of
    `rng.choice(population, m, replace=False)` followed by
    `rng.integers(0, neighbor_count[cells])`, with the second draw made
    by `integers_below` (every cell has at least three neighbours).
    `rng.choice` stays numpy's: its partial Fisher-Yates shuffle takes a
    data-dependent number of masked words per mover.
    """
    movers = rng.choice(world.population, size=world.cfg.migration_rate,
                        replace=False)
    cells = world.user_cell[movers]
    pick = integers_below(rng, world.grid.neighbor_count[cells])
    return movers, cells * len(HEX_DIRS) + pick


def apply_moves(world: SimWorld, movers: np.ndarray,
                slots: np.ndarray) -> dict:
    """Move each mover to the neighbour cell of its slot and count each
    policy's migrations: a move to another MEC migrates without regions,
    and one to another region migrates with them. Past the movers' new
    cells, the step reads only the grid's per-slot MECs and kinds.
    Returns {Policy: migrations}.

    A step takes one histogram of its slots and weighs every slot of the
    grid by its moves: O(movers + slots), with no per-mover mask or
    compare.

    Precondition: each slot belongs to its mover's current cell
    (`slots // 6 == user_cell[movers]`), and no user moves twice, as
    `draw_moves` draws them; otherwise `mec_users` goes stale.
    """
    grid = world.grid
    world.user_cell[movers] = grid.neighbor_table.ravel()[slots]
    moves = np.bincount(slots, minlength=grid.slot_kind.size)
    n = grid.n_mecs
    # the counts stay below 2**32, one subscriber address per user, so
    # the float64 weighted sums are exact
    world.mec_users += (np.bincount(grid.slot_to_mec, moves, n)
                        - np.bincount(grid.slot_from_mec, moves, n)
                        ).astype(np.int64)
    _, within, across = np.bincount(grid.slot_kind, moves, 3).tolist()
    return {Policy.WITH_REGIONS: int(across),
            Policy.WITHOUT_REGIONS: int(within + across)}


@dataclass
class ExperimentResult:
    rows: list          # CSV_HEADER tuples per (policy, rate, rep, step)
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


class Series(NamedTuple):
    """One policy's metrics over a replay, one entry per step from t=0."""

    migrations: np.ndarray       # int64, 0 at t=0
    cumulative: np.ndarray       # int64, running total of migrations
    min_max_ratio: np.ndarray    # float64


def replay(cfg: SimConfig, rng: np.random.Generator) -> dict:
    """Replay one movement trace of `cfg` on one world: each step draws
    its moves and applies them once, and its users per MEC and migration
    counts go into arrays. Returns each policy's series, with its running
    totals and min-max ratios computed once, as {Policy: Series}."""
    world = build_world(cfg)
    users = np.empty((cfg.steps + 1, world.grid.n_mecs), dtype=np.int64)
    users[0] = world.mec_users
    moved = {policy: np.zeros(cfg.steps + 1, dtype=np.int64)
             for policy in POLICIES}
    for t in range(1, cfg.steps + 1):
        for policy, n in apply_moves(world,
                                     *draw_moves(world, rng)).items():
            moved[policy][t] = n
        users[t] = world.mec_users
    return {policy: Series(migrations, np.cumsum(migrations),
                           min_max_ratio(world.grid, users, policy))
            for policy, migrations in moved.items()}


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or ask."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _replay_share(jobs: list) -> list:
    return [replay(cfg, np.random.default_rng([cfg.seed, 0x30B5]))
            for cfg in jobs]


def replay_all(jobs: list) -> list:
    """`replay` of each config in `jobs`, seeded `[cfg.seed, 0x30B5]`:
    each one's {Policy: Series}, in job order.

    The replays share nothing, so they run on n = min(jobs, CPUs this
    process may use) processes: the caller runs `jobs[0::n]` and each of
    n - 1 forked children runs `jobs[i::n]` and sends back its results,
    or the exception it raised, pickled through a pipe. The results are
    the serial loop's, so a sweep's output stays byte-identical; with one
    CPU (`taskset -c 0`), or no `os.fork`, the loop runs in this process.
    A child's exception is raised again here; a child that exits without
    a result raises `RuntimeError`. No child outlives the call, whatever
    it raises, `KeyboardInterrupt` included. Python 3.12 and later warn
    when a process with other threads forks.
    """
    n = min(len(jobs), _cpus())
    if n <= 1:
        return _replay_share(jobs)
    pipes = {}   # child pid -> the read end of its pipe, until reaped
    try:
        for i in range(1, n):
            read, write = os.pipe()
            pipe = open(read, "rb")
            try:
                pid = os.fork()
            except OSError:
                pipe.close()
                os.close(write)
                raise
            if pid == 0:
                _child(jobs[i::n], write,
                       [read] + [p.fileno() for p in pipes.values()])
            os.close(write)
            pipes[pid] = pipe
        shares = [_replay_share(jobs[0::n])]
        for pid in list(pipes):
            data = pipes[pid].read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pipes.pop(pid).close()
            if code or not data:
                raise RuntimeError(f"replay worker {pid} exited with status "
                                   f"{code} and no result")
            share = pickle.loads(data)
            if isinstance(share, BaseException):
                raise share
            shares.append(share)
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    results = [None] * len(jobs)
    for i, share in enumerate(shares):
        results[i::n] = share
    return results


def _child(jobs: list, write: int, inherited: list) -> None:
    """A forked worker of `replay_all`: close the parent's read ends,
    replay `jobs`, write the pickled results, or the exception raised, to
    `write`, and exit without returning: status 0 once all is written."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            out = _replay_share(jobs)
        except BaseException as exc:
            out = exc
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def run_experiment(base: SimConfig, rates: list, replications: int = 20,
                   steps: int | None = None) -> ExperimentResult:
    """Sweep migration rates under both policies.

    rates are fractions of the population moved per minute. Each
    replication gets an independent seed derived from the base seed, and
    `replay` runs its movement trace on one world read under both
    policies, so their metrics differ only by the serving policy.
    `replay_all` runs the replays, across the CPUs the process may use.
    Rows run by rate, then policy, then replication.
    """
    steps = steps if steps is not None else base.steps
    check({"rates": rates, "replications": replications, "steps": steps},
          _SWEEP, ConfigError, "sweep")
    if (not rates or not all(0 <= rate <= 1 for rate in rates)
            or len(set(rates)) < len(rates)):   # the summary keys by rate
        raise ConfigError(f"rates must be a non-empty list of distinct "
                          f"fractions from 0 to 1, not {rates!r}")
    if replications < 1 or steps < 0:
        raise ConfigError(f"replications must be positive and steps "
                          f"non-negative, not {replications} and {steps}")
    jobs = [replace(base, steps=steps,
                    migration_rate=int(round(rate * base.population)),
                    seed=derive_seed(base.seed, rate_idx, rep))
            for rate_idx, rate in enumerate(rates)
            for rep in range(replications)]
    runs = replay_all(jobs)   # per job: each policy's series
    rows = []
    summary = {}
    for rate_idx, rate in enumerate(rates):
        share = runs[rate_idx * replications:(rate_idx + 1) * replications]
        for policy in POLICIES:
            series = [run[policy] for run in share]
            for rep, s in enumerate(series):
                rows += csv_rows(policy, rate, rep, s)
            summary[(policy.value, rate)] = {
                "mean_cumulative": np.array([s.cumulative for s in series],
                                            dtype=float).mean(axis=0),
                "mean_ratio": np.array([s.min_max_ratio for s in series]
                                       ).mean(axis=0),
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


def csv_rows(policy: Policy, rate: float, replication: int,
             series: Series) -> list:
    """The CSV_HEADER rows of one policy's series in one run, one tuple
    per step, of plain ints and floats."""
    return list(zip(repeat(policy.value), repeat(rate), repeat(replication),
                    range(len(series.migrations)),
                    series.migrations.tolist(), series.cumulative.tolist(),
                    series.min_max_ratio.tolist()))


def write_rows_csv(path: str, rows: list) -> None:
    """CSV_HEADER, then `rows`, each a sequence in its order."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def write_metadata(path: str, metadata: dict) -> None:
    with open(path, "w") as f:
        json.dump(metadata, f, indent=2, sort_keys=True)
        f.write("\n")
