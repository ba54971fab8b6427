"""Reference implementations the tests check the library against.

No command reads these; they live beside the tests that use them.
"""

from __future__ import annotations

import math

import numpy as np

from rachopt.allocator import AllocationError


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


def per_budget_optimum(gammas: list[float], total: int, objective: str) -> list[int]:
    """The min-plus oracle with one ``min`` call per budget: ``best[k][b]``,
    the least cost of classes ``k..n-1`` on ``b`` RAOs, is filled budget by
    budget from the last class, then the walk takes at each class the
    smallest share whose best completion stays within 1e-12 of the optimum.
    Needs at least two classes."""
    n = len(gammas)
    shares = np.arange(1.0, total - n + 2)
    if objective == "density":
        costs = [g * -np.expm1(-g / shares) for g in gammas]
    else:
        costs = [g * g / shares for g in gammas]
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
