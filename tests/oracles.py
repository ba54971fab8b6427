"""Reference implementations the tests check the library against.

No command reads these; they live beside the tests that use them:

- single-pool closed forms (``simple_collision_rate``, ``mean_access_delay``
  and ``cell_collision_density``), which ``analytics.layout_metrics`` must
  reproduce on one pool per class, and which give the allocator's density
  objective, and their per-device Bernoulli forms
  (``bernoulli_collision_rate``, ``bernoulli_access_delay``);
- the delay reservation (``minimum_raos_for_delay``, ``reserve_for_delay``),
  the per-budget min-plus oracle for the allocator's density optimum, and
  the two-class optimum of the collision probability;
- ``uniform``, the hashed retry draws as doubles, for the simulator's
  reference engine;
- ``save_scenario``, the YAML writer that round-trips ``load_scenario``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from rachopt.allocator import AllocationError
from rachopt.model import AllocationPlan, Scenario, scenario_to_dict
from rachopt.simulator import _hash


def simple_collision_rate(ra_density: float, raos: float) -> float:
    """Per-attempt collision probability ``1 - exp(-ra_density/raos)`` of
    one pool."""
    if raos <= 0:
        raise ValueError(f"raos must be > 0, got {raos}")
    if ra_density <= 0:
        raise ValueError(f"ra_density must be > 0, got {ra_density}")
    return -math.expm1(-ra_density / raos)


def cell_collision_density(scenario: Scenario, plan: AllocationPlan) -> float:
    """Expected colliding requests per second over the whole cell (Hz)
    under a full-dedication plan."""
    return math.fsum(
        cls.ra_density * simple_collision_rate(cls.ra_density, plan.get(cls.id))
        for cls in scenario.classes
    )


@dataclass(frozen=True)
class AccessDelay:
    """Mean access delay; ``inclusive`` counts the final (successful) slot
    interval as one backoff period, ``exclusive`` counts retry waits only,
    so ``inclusive - exclusive`` equals the backoff."""

    inclusive: float
    exclusive: float


def mean_access_delay(ra_density: float, raos: float, backoff: float) -> AccessDelay:
    """Mean access delay of a class with its own pool of ``raos`` slots.

    Attempts collide independently with probability p, retries wait one
    backoff period, so the inclusive delay is backoff/(1 - p), equivalently
    backoff * exp(ra_density/raos).
    """
    if backoff <= 0:
        raise ValueError(f"backoff must be > 0, got {backoff}")
    if raos <= 0:
        raise ValueError(f"raos must be > 0, got {raos}")
    if ra_density <= 0:
        raise ValueError(f"ra_density must be > 0, got {ra_density}")
    try:
        exclusive = backoff * math.expm1(ra_density / raos)
    except OverflowError:
        exclusive = math.inf
    return AccessDelay(inclusive=backoff + exclusive, exclusive=exclusive)


def bernoulli_collision_rate(coordinators: int, rate: float, raos: float) -> float:
    """Per-attempt collision probability of a fresh request in one pool of
    ``raos`` slots, where each of the class's coordinators attempts with
    chance ``rate`` per second: the other ``coordinators - 1`` leave its slot
    free with chance ``(1 - rate/raos) ** (coordinators - 1)``."""
    return 1.0 - (1.0 - rate / raos) ** (coordinators - 1)


def bernoulli_access_delay(coordinators: int, rate: float, raos: float, backoff: float) -> float:
    """Mean inclusive access delay in one pool under per-device Bernoulli
    arrivals: the first attempt collides with ``bernoulli_collision_rate``,
    and every retry sees all the coordinators, so it is busy with chance
    ``1 - (1 - rate/raos) ** coordinators``."""
    retry_busy = 1.0 - (1.0 - rate / raos) ** coordinators
    return backoff * (1.0 + bernoulli_collision_rate(coordinators, rate, raos) / (1.0 - retry_busy))


def uniform(key: np.ndarray, *fields: np.ndarray | int) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of the simulator's
    ``_hash(key, *fields)``, the retry draws of its delay meter."""
    return (_hash(key, *fields) >> 11).astype(np.float64) * 2.0**-53


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)


def minimum_raos_for_delay(ra_density: float, backoff: float, max_delay: float) -> float:
    """Real-valued RAOs/s needed so the mean inclusive access delay stays
    at or below ``max_delay``; equivalent to a collision-rate bound of
    ``1 - backoff/max_delay``."""
    if backoff <= 0:
        raise AllocationError(f"backoff must be > 0, got {backoff}")
    if max_delay <= backoff:
        raise AllocationError(
            f"max_delay must exceed the backoff ({max_delay} <= {backoff})"
        )
    if ra_density <= 0:
        raise AllocationError(f"ra_density must be > 0, got {ra_density}")
    return ra_density / math.log(max_delay / backoff)


def reserve_for_delay(ra_density: float, backoff: float, max_delay: float) -> int:
    """Smallest whole RAO count meeting a mean-delay bound (>= 1)."""
    return max(1, math.ceil(minimum_raos_for_delay(ra_density, backoff, max_delay)))


def per_budget_optimum(gammas: list[float], total: int) -> list[int]:
    """The min-plus density oracle with one ``min`` call per budget:
    ``best[k][b]``, the least density of classes ``k..n-1`` on ``b`` RAOs,
    is filled budget by budget from the last class, then the walk takes at
    each class the smallest share whose best completion stays within 1e-12
    of the optimum. Needs at least two classes."""
    n = len(gammas)
    shares = np.arange(1.0, total - n + 2)
    costs = [g * -np.expm1(-g / shares) for g in gammas]
    best = [np.empty(0)] * n
    best[-1] = np.concatenate(([np.inf], costs[-1]))

    def completions(k: int, budget: int) -> np.ndarray:
        width = budget - (n - k - 1)
        return costs[k][:width] + best[k + 1][budget - width : budget][::-1]

    for k in range(n - 2, 0, -1):
        best[k] = np.full(total - k + 1, np.inf)
        for budget in range(n - k, total - k + 1):
            best[k][budget] = completions(k, budget).min()

    limit = completions(0, total).min() * (1.0 + 1e-12)
    plan: list[int] = []
    spent, budget = 0.0, total
    for k in range(n - 1):
        share = int(np.flatnonzero(spent + completions(k, budget) <= limit)[0]) + 1
        plan.append(share)
        spent += costs[k][share - 1]
        budget -= share
    plan.append(budget)
    return plan


def two_class_probability_optimum(g1: float, g2: float, total: int) -> int:
    """The first class's share of ``total`` RAOs that minimizes the cell
    collision probability of two dedicated classes, whose exponent is
    ``g1**2 / L + g2**2 / (total - L)``. The exponent is convex in L with
    its real minimum at ``total * g1 / (g1 + g2)``, so the better of that
    point's floor and ceiling, each kept within [1, total - 1], is the
    integer optimum; a tie goes to the smaller share."""
    real = total * g1 / (g1 + g2)
    shares = sorted({min(max(s, 1), total - 1) for s in (math.floor(real), math.ceil(real))})
    return min(shares, key=lambda share: g1 * g1 / share + g2 * g2 / (total - share))
