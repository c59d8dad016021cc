"""`sim-sweep` workload: the paper's rate sweep through the command line.

One sweep is `megw sim-sweep` on the paper's map (3 regions x 4 MECs with
capacities 1/1/2/2), the paper's five migration rates, both policies and
60 steps, at 2500 users per capacity unit (45,000 users). Each sweep runs
in a fresh interpreter, because every real invocation pays for building
the cold rendezvous-hash table.

The oracle reads the CSV the sweep wrote and checks the acceptance
invariants with plain arithmetic on its rows.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

RATES = (0.01, 0.02, 0.05, 0.10, 0.20)
REPLICATIONS = 4
STEPS = 60
USERS_PER_CAPACITY = 2500
MAX_MIGRATION_RATIO = 0.30
MIN_FAIRNESS = 0.90


def write_config(path: Path, seed: int) -> None:
    path.write_text(json.dumps({
        "regions_count": 3, "mecs_per_region": 4, "capacities": [1, 1, 2, 2],
        "users_per_capacity": USERS_PER_CAPACITY, "steps": STEPS,
        "migration_rate": 0, "policy": "with_regions", "seed": seed}))


def argv(config: Path, out: Path, seed: int,
         replications: int = REPLICATIONS) -> list[str]:
    return (["sim-sweep", "--config", str(config), "--out", str(out),
             "--rates"] + [repr(r) for r in RATES]
            + ["--replications", str(replications), "--steps", str(STEPS),
               "--seed", str(seed)])


def csv_problems(path: Path, replications: int = REPLICATIONS) -> list[str]:
    """Acceptance invariants on a written sweep CSV.

    Per rate: mean final cumulative migrations with regions below 0.30 of
    the baseline's; every replication starts at fairness exactly 1.0; the
    with-regions fairness, averaged over replications, never falls below
    0.90.
    """
    final: dict = defaultdict(list)           # (policy, rate) -> values
    ratio_sum: dict = defaultdict(float)      # (policy, rate, step) -> sum
    rows = 0
    problems = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            rows += 1
            policy, rate = row["policy"], float(row["rate"])
            step = int(row["step"])
            ratio = float(row["min_max_ratio"])
            if step == 0 and ratio != 1.0:
                problems.append(f"{policy} rate {rate} replication "
                                f"{row['replication']}: t0 fairness {ratio}")
            if step == STEPS:
                final[(policy, rate)].append(
                    int(row["cumulative_migrations"]))
            ratio_sum[(policy, rate, step)] += ratio
    want = len(RATES) * 2 * replications * (STEPS + 1)
    if rows != want:
        problems.append(f"{rows} CSV rows, expected {want}")
        return problems
    for rate in RATES:
        with_m = sum(final[("with_regions", rate)])
        without_m = sum(final[("without_regions", rate)])
        if not without_m or with_m / without_m >= MAX_MIGRATION_RATIO:
            problems.append(f"rate {rate}: migration ratio "
                            f"{with_m}/{without_m}")
        for step in range(STEPS + 1):
            mean = ratio_sum[("with_regions", rate, step)] / replications
            if mean < MIN_FAIRNESS:
                problems.append(f"rate {rate} step {step}: with-regions "
                                f"fairness {mean:.3f}")
                break
    return problems
