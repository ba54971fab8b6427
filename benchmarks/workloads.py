"""The four benchmark workloads: what one round runs, built from the seed.

A round is a fixed list of operations. An operation is one ``rachopt`` CLI
command (``argv``) or one library call of ``allocator.brute_force_optimal``
on an oracle cell (``cell``). ``work`` is the operation's size taken from
its inputs alone: expected fresh requests (sum of densities x horizon x
iterations x simulator runs) for commands, candidate integer plans
C(L-1, n-1) for oracle calls. It does not depend on what the program does
with them, so a faster engine or an oracle that scores fewer plans still
gets credit for the same work.

This module does not import rachopt; the parent process and the output
checks use it too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import yaml

SWEEP_SCENARIO = "scenarios/dc1_dc2.yaml"
COMPARE_SCENARIO = "scenarios/dc123_qos.yaml"
PARTIAL_CELL = "benchmarks/cells/partial3.yaml"
DELAY_CELL = "benchmarks/cells/delay2.yaml"

# Overlapping inclusive ranges: 0-1799 class 1 only, 1800-3599 classes 1+2,
# 3600-7199 classes 2+3, 7200-10799 class 3 only.
PARTIAL_TOPOLOGY = "1:0-3599;2:1800-7199;3:3600-10799"
COMPARE_STRATEGIES = ("full_sharing", "full_dedication", "reserve_and_divide")
SWEEP_RANGE, SWEEP_STEP, SWEEP_HORIZON = (600, 10200), 600, 200
DELAY_MAX_ATTEMPTS = 25

# Iteration counts per round; "small" is what the benchmark's own test runs.
SIZES = {
    "full": {"sweep": 60, "compare": 3000, "delay": 150, "oracle_l": (1000, 600)},
    "small": {"sweep": 10, "compare": 500, "delay": 40, "oracle_l": (700, 400)},
}
# 4-class oracle cells drawn from the seed: RAO budget and load ranges
# (requests per RAO) below and above the density-optimality boundary of 1.
SEEDED_CELL_RAOS = 50
SEEDED_CELL_LOADS = ((0.3, 0.9), (1.5, 3.0))


@dataclass(frozen=True)
class Op:
    name: str
    work: float
    argv: tuple[str, ...] = ()
    cell: dict | None = None
    scenario: str | None = None  # scenario file the command reads
    # what the checks need: "seconds" is the simulated time (iterations x horizon)
    params: dict = field(default_factory=dict)


def read_cell(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def densities(cell: dict) -> list[float]:
    return [float(c["ra_density"]) for c in cell["classes"]]


def oracle_cell(gammas: list[float], raos: int) -> dict:
    return {
        "total_raos": raos,
        "strategy": "full_dedication",
        "classes": [{"id": i + 1, "ra_density": g} for i, g in enumerate(gammas)],
    }


def plan_count(cell: dict) -> int:
    return math.comb(cell["total_raos"] - 1, len(cell["classes"]) - 1)


def _seeded_cells(seed: int) -> list[dict]:
    rng = random.Random(seed)
    cells = []
    for lo, hi in SEEDED_CELL_LOADS:
        weights = [rng.uniform(1.0, 10.0) for _ in range(4)]
        load = rng.uniform(lo, hi)
        scale = load * SEEDED_CELL_RAOS / sum(weights)
        cells.append(oracle_cell([w * scale for w in weights], SEEDED_CELL_RAOS))
    return cells


def _sim_argv(command: str, scenario: str, iterations: int, seed: int, *extra: str) -> tuple:
    return (command, scenario, *extra, "--iterations", str(iterations),
            "--seed", str(seed), "--json")


def sweep_ops(seed: int, size: str) -> list[Op]:
    iterations = SIZES[size]["sweep"]
    lo, hi = SWEEP_RANGE
    grid = list(range(lo, hi + 1, SWEEP_STEP))
    argv = _sim_argv("sweep", SWEEP_SCENARIO, iterations, seed,
                     "--range", f"{lo}:{hi}", "--step", str(SWEEP_STEP),
                     "--horizon", str(SWEEP_HORIZON))
    work = sum(densities(read_cell(SWEEP_SCENARIO))) * SWEEP_HORIZON * iterations * len(grid)
    return [Op("sweep", work, argv=argv, scenario=SWEEP_SCENARIO,
               params={"grid": grid, "class_index": 0,
                       "seconds": iterations * SWEEP_HORIZON})]


def compare_ops(seed: int, size: str) -> list[Op]:
    iterations = SIZES[size]["compare"]
    compare = _sim_argv("compare", COMPARE_SCENARIO, iterations, seed,
                        "--strategies", ",".join(COMPARE_STRATEGIES), "--horizon", "1")
    partial = _sim_argv("simulate", PARTIAL_CELL, iterations, seed,
                        "--topology", PARTIAL_TOPOLOGY, "--horizon", "1")
    compare_load = sum(densities(read_cell(COMPARE_SCENARIO))) * iterations
    partial_load = sum(densities(read_cell(PARTIAL_CELL))) * iterations
    return [
        Op("compare", compare_load * len(COMPARE_STRATEGIES), argv=compare,
           scenario=COMPARE_SCENARIO, params={"seconds": iterations}),
        Op("partial", partial_load, argv=partial, scenario=PARTIAL_CELL,
           params={"topology": PARTIAL_TOPOLOGY, "seconds": iterations}),
    ]


def delay_ops(seed: int, size: str) -> list[Op]:
    iterations = SIZES[size]["delay"]
    argv = _sim_argv("simulate", DELAY_CELL, iterations, seed,
                     "--measure-delay", "--max-attempts", str(DELAY_MAX_ATTEMPTS))
    work = sum(densities(read_cell(DELAY_CELL))) * iterations
    return [Op("delay", work, argv=argv, scenario=DELAY_CELL, params={"seconds": iterations})]


def oracle_ops(seed: int, size: str) -> list[Op]:
    gammas = [50.0, 100.0, 500.0]
    below, above = SIZES[size]["oracle_l"]  # 650 requests/s: below and above 1 per RAO
    cells = [oracle_cell(gammas, below), oracle_cell(gammas, above), *_seeded_cells(seed)]
    return [Op(f"oracle{k}", plan_count(cell), cell=cell) for k, cell in enumerate(cells)]


WORKLOADS = {
    "sweep-long-horizon": sweep_ops,
    "compare-short-horizon": compare_ops,
    "delay-retries": delay_ops,
    "exact-oracle": oracle_ops,
}


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    return WORKLOADS[workload](seed, size)
