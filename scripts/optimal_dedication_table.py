#!/usr/bin/env python3
"""Estimated vs exact optimal dedication for the three reference pairs.

For each two-class cell (50 Hz vs 100/500/1000 Hz, 10800 RAOs/s) this prints
the proportional-rule share for class 1, the exact integer optimum from
``brute_force_optimal``, the closed-form cell density of ``layout_metrics``
at the estimated optimum, and seeded Monte-Carlo collision densities there
and under full sharing.
"""

import argparse
import csv
import math
import sys

from rachopt.allocator import brute_force_optimal, proportional_allocation
from rachopt.analytics import layout_metrics
from rachopt.model import DeviceClass, Scenario, Strategy, pool_layout, validate_scenario
from rachopt.simulator import SimConfig, run

PAIRS = ((50.0, 100.0), (50.0, 500.0), (50.0, 1000.0))


def pair_scenario(g1: float, g2: float, total: int) -> Scenario:
    return validate_scenario(
        Scenario(
            classes=(DeviceClass(id=1, ra_density=g1), DeviceClass(id=2, ra_density=g2)),
            total_raos=total,
            strategy=Strategy.FULL_DEDICATION,
        )
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--total-raos", type=int, default=10800)
    parser.add_argument("--iterations", type=int, default=500)
    parser.add_argument("--seed", type=int, default=20170831)
    parser.add_argument("--csv", default=None, help="optional CSV output path")
    args = parser.parse_args()

    config = SimConfig(iterations=args.iterations, seed=args.seed)
    rows = []
    for g1, g2 in PAIRS:
        scenario = pair_scenario(g1, g2, args.total_raos)
        estimated = proportional_allocation(scenario)
        exact = brute_force_optimal(scenario)
        simulated = run(scenario, estimated, config)
        simulated_shared = run(scenario, None, config)
        analytic = layout_metrics(scenario, pool_layout(scenario, estimated))
        rows.append(
            {
                "gamma_1": g1,
                "gamma_2": g2,
                "L1_estimated": estimated.get(1),
                "L1_exact": exact.get(1),
                "analytic_density_hz": math.fsum(
                    m.collision_density for m in analytic.values()
                ),
                "simulated_density_hz": simulated.total_density,
                "simulated_stderr": simulated.total_density_stderr,
                "sharing_density_hz": simulated_shared.total_density,
                "sharing_stderr": simulated_shared.total_density_stderr,
            }
        )

    header = list(rows[0])
    print(f"{args.iterations} iterations, seed {args.seed}, L = {args.total_raos}")
    print(" ".join(f"{h:>20}" for h in header))
    for row in rows:
        print(
            " ".join(
                f"{row[h]:>20.4f}" if isinstance(row[h], float) else f"{row[h]:>20}"
                for h in header
            )
        )
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
