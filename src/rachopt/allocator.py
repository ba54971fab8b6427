"""RAO allocation: proportional dedication, QoS reservations, and the
reserve-and-divide procedure, plus an exact integer oracle.

The proportional rule dedicates RAOs so every class sees the same load
``gamma_i / L_i``. That split minimizes the cell collision probability at
any load, its exponent ``sum(gamma_i**2 / L_i)`` being separable and convex
(Federgruen and Groenevelt, Oper. Res. 34(6), 1986), and the
colliding-request density as well up to one request per RAO, which the
exact oracle, a density minimizer, confirms. Past that load the density
instead favors starving a nearly-saturated class to relieve the others: to
first order, starving a class that carries a share eps of the total density
Gamma changes the cell density by ``Gamma * exp(-x) * (1 - x) * eps`` with
``x = Gamma / L``, a gain only for ``x > 1``. So the proportional plan
stops being density-optimal there.

Reserve-and-divide gives each special class exactly the RAOs its QoS bound
needs and splits the rest proportionally among the normal classes. Every
allocator returns a plain AllocationPlan; under reserve-and-divide its
special-class counts are the reservations.

Integer plans come from largest-remainder apportionment over exact rational
quotas, so results are reproducible and invariant under common rescaling of
the densities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import AllocationPlan, DeviceClass, QosKind, Scenario

# Largest search brute_force_optimal makes, in cost sums (n - 2) * L**2 / 2:
# 3 classes up to 20 000 RAOs, 4 classes up to 14 142. Either takes about
# 0.21-0.23 s at the limit on a 2-vCPU Xeon guest (median of 3 calls).
MAX_COST_SUMS = 200_000_000
# Cost sums per block of budgets in brute_force_optimal's table fill, which
# sizes its float64 block buffer (512 KB). At 10 800 RAOs, 2**14 leaves one
# budget per block and was slower than a per-budget loop; 2**16 fills 6.
BLOCK_SUMS = 1 << 16


class AllocationError(ValueError):
    """The requested allocation cannot be built from the scenario."""


class OverloadError(AllocationError):
    """RACH resource overload: reservations exceed the RAO budget."""


def largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    """Split ``total`` integer units proportionally to ``weights``.

    Hamilton apportionment: floor the exact rational quotas, then hand the
    leftover units to the largest fractional parts, ties to the lowest
    index. Every share is raised to one afterwards (taking units from the
    largest shares), so ``total >= len(weights)`` is required.
    """
    if not weights:
        raise AllocationError("cannot apportion among zero classes")
    if any(w <= 0 for w in weights):
        raise AllocationError("apportionment weights must be positive")
    if total < len(weights):
        raise AllocationError(
            f"insufficient RAOs: {total} cannot give {len(weights)} classes 1 each"
        )
    denom = sum(Fraction(w) for w in weights)
    quotas = [Fraction(w) * total / denom for w in weights]
    shares = [int(q) for q in quotas]  # Fraction truncates toward zero; quotas >= 0
    leftover = total - sum(shares)
    by_fraction = sorted(range(len(weights)), key=lambda i: (shares[i] - quotas[i], i))
    for i in by_fraction[:leftover]:
        shares[i] += 1
    # floors can leave a class with no RAO when its quota is tiny
    while 0 in shares:
        needy = shares.index(0)
        donor = max(range(len(shares)), key=lambda i: (shares[i], i))
        shares[needy] += 1
        shares[donor] -= 1
    return shares


def proportional_allocation(scenario: Scenario) -> AllocationPlan:
    """Equal-load full-dedication plan: L_i proportional to gamma_i.

    The plan minimizes the cell collision probability at any load, and the
    colliding-request density while the cell carries at most one request
    per RAO; above that a plan starving one class can have a lower density
    (see the module docstring).

    Real-valued targets are ``total_raos * gamma_i / sum(gamma)``, rounded
    by largest remainder with a floor of one RAO per class; the shares sum
    to the full budget exactly.
    """
    shares = largest_remainder(
        [cls.ra_density for cls in scenario.classes], scenario.total_raos
    )
    return AllocationPlan.from_counts(scenario, shares)


def minimum_raos_for_rate(ra_density: float, max_rate: float) -> float:
    """Real-valued RAOs/s needed so the per-attempt collision rate stays
    at or below ``max_rate``."""
    if not 0 < max_rate < 1:
        raise AllocationError(f"max_rate must lie in (0, 1), got {max_rate}")
    return ra_density / -math.log1p(-max_rate)


def reserve_for_collision_rate(ra_density: float, max_rate: float) -> int:
    """Smallest whole RAO count meeting a collision-rate bound (>= 1).
    Raises OverloadError when the real-valued need is past the float range."""
    need = minimum_raos_for_rate(ra_density, max_rate)
    return _whole_raos(need, ra_density, f"collision rate at {max_rate}")


def _whole_raos(need: float, ra_density: float, bound: str) -> int:
    """Round the real-valued RAO need of ``ra_density`` up, to at least one
    RAO. A need past the float range is an OverloadError naming the density
    and its ``bound``."""
    if ra_density <= 0:
        raise AllocationError(f"ra_density must be > 0, got {ra_density}")
    if math.isinf(need):
        raise OverloadError(
            f"{ra_density} Hz needs more RAOs than the float range holds to keep its {bound}"
        )
    return max(1, math.ceil(need))


def _count(n: int) -> str:
    """A count for a message: exact up to 2**53, and in ``.6g`` form past it,
    where the float need it was rounded up from has no integer digits left."""
    return str(n) if n <= 2**53 else f"{n:.6g}"


def _reservation(cls: DeviceClass) -> int:
    """RAOs a special class needs for its QoS bound: ``ceil(gamma / -ln(1 - p))``
    for a collision rate ``p``, and ``ceil(gamma / ln(D / b))`` for a mean
    delay ``D`` at backoff ``b``, at least one either way. The delay form
    takes ``ln(D / b)`` as ``log1p((D - b) / b)``, which keeps its precision
    at every ratio, where the rate ``1 - b / D`` would round to 1 beyond
    about 1e16 backoffs."""
    if cls.qos is None:
        raise AllocationError(f"special class {cls.id} carries no QoS target")
    try:
        if cls.qos.kind != QosKind.MAX_MEAN_DELAY:
            return reserve_for_collision_rate(cls.ra_density, cls.qos.max_collision_rate)
        delay, backoff = cls.qos.max_mean_delay, cls.backoff
        if not 0 < backoff < delay:
            raise AllocationError(
                f"class {cls.id}: delay bound {delay} does not exceed the backoff {backoff}"
            )
        need = cls.ra_density / math.log1p((delay - backoff) / backoff)
        return _whole_raos(need, cls.ra_density, f"mean delay at {delay}")
    except OverloadError as err:
        raise OverloadError(f"RACH resource overload: class {cls.id} at {err}") from None


def reserve_and_divide(scenario: Scenario) -> AllocationPlan:
    """Reserve QoS-sufficient RAOs for special classes, then divide the rest
    proportionally among normal classes.

    Each special class's count in the plan is exactly its reservation (see
    ``_reservation``; rounded up, so the QoS bound holds after
    integralization), and the normal classes split the residual
    ``total_raos`` minus those counts by largest remainder. Raises
    OverloadError when the running budget goes negative during reservation
    or the residual cannot give every normal class at least one RAO.
    """
    normals = scenario.normal_classes
    budget = scenario.total_raos
    raos: dict[int, int] = {}
    for cls in scenario.special_classes:
        need = _reservation(cls)
        raos[cls.id] = need
        budget -= need
        if budget < 0:
            raise OverloadError(
                f"RACH resource overload: reserving {_count(need)} RAOs for class "
                f"{cls.id} exceeds the remaining budget by {_count(-budget)}"
            )
    if normals:
        if budget < len(normals):
            raise OverloadError(
                f"RACH resource overload: residual {budget} RAOs cannot give "
                f"{len(normals)} normal classes one RAO each"
            )
        counts = largest_remainder([cls.ra_density for cls in normals], budget)
        raos.update(zip((cls.id for cls in normals), counts))
    return AllocationPlan(raos)


def _min_plus_fill(cost: np.ndarray, after: np.ndarray, rest: int, top: int) -> np.ndarray:
    """``best[b] = min over s >= 1 of cost[s - 1] + after[b - s]`` for every
    budget ``b`` from ``rest + 1`` to ``top``, +inf below.

    ``after`` holds the best cost of the ``rest`` later classes on each
    budget and is +inf below ``rest``. Budget ``b``'s completions pair
    ``cost[j]`` with ``after[b - 1 - j]``, which is ``rev[len(after) - b + j]``
    in the reversed copy of ``after``, so the completions of consecutive
    budgets are rows of one sliding window over ``rev``. Padding ``rev`` with
    +inf lets every row of a block be as wide as its largest budget's: the
    extra sums are +inf and never the minimum, so each entry is the minimum
    of the same float sums as a per-budget loop would take. Blocks are
    filled from the top budget down, at most ``BLOCK_SUMS`` sums each.
    """
    m, widest = len(after), top - rest
    rev = np.full(m + widest, np.inf)
    rev[:m] = after[::-1]
    window = np.lib.stride_tricks.sliding_window_view(rev, widest)
    buf = np.empty(max(widest, min(BLOCK_SUMS, widest * widest)))
    best = np.full(top + 1, np.inf)
    high = top
    while high > rest:
        width = high - rest
        low = max(rest + 1, high - max(1, BLOCK_SUMS // width) + 1)
        rows = buf[: (high - low + 1) * width].reshape(-1, width)
        np.add(cost[:width], window[m - high : m - low + 1, :width], out=rows)
        best[low : high + 1] = rows.min(axis=1)[::-1]
        high = low - 1
    return best


def brute_force_optimal(scenario: Scenario) -> AllocationPlan:
    """Exact, not exhaustive, integer optimum over full-dedication plans.

    Verification oracle for proportional_allocation: among all plans with at
    least one RAO per class it returns one minimizing the cell collision
    density ``sum(gamma_i * (1 - exp(-gamma_i / L_i)))``. Plans within a
    relative 1e-12 of the optimum count as tied (the band absorbs the
    rounding of equal sums added in another order), and the tie goes to the
    lexicographically smallest shares.

    The density is a sum of per-class costs, so a min-plus recursion over
    the classes finds the optimum without enumerating plans. ``best[k][b]``,
    the least cost of classes ``k..n-1`` on ``b`` RAOs, is built from the
    last class, which takes the remainder. Each table is filled a block of
    consecutive budgets at a time: the block's completions are rows of a
    sliding window over the next table, reversed and padded with +inf once
    per class, so one ``np.add`` into a reused buffer and one row-wise
    ``min`` fill the whole block (see ``_min_plus_fill``). A walk from the
    first class then takes at each class the smallest share whose best
    completion stays within the tie band. The recursion makes about
    ``(n - 2) * L**2 / 2`` cost sums for ``n`` classes and ``L`` RAOs and is
    refused above ``MAX_COST_SUMS``; one or two classes cost O(L). Memory
    stays O(n * L + BLOCK_SUMS): the tables, one padded copy and the
    block buffer, never an L x L array.
    """
    gammas = [cls.ra_density for cls in scenario.classes]
    n = len(gammas)
    total = scenario.total_raos
    if total < n:
        raise AllocationError(f"insufficient RAOs: {total} for {n} classes")
    sums = (n - 2) * total * total // 2
    if sums > MAX_COST_SUMS:
        raise AllocationError(
            f"exact search refused: {n} classes on {total} RAOs need about "
            f"{sums} cost sums, over the limit of {MAX_COST_SUMS}"
        )
    if n == 1:
        return AllocationPlan.from_counts(scenario, [total])

    shares = np.arange(1.0, total - n + 2)  # every share one class can get
    costs = [g * -np.expm1(-g / shares) for g in gammas]  # each class's density
    best = [np.empty(0)] * n
    best[-1] = np.concatenate(([np.inf], costs[-1]))  # indexed by budget
    for k in range(n - 2, 0, -1):
        best[k] = _min_plus_fill(costs[k], best[k + 1], n - k - 1, total - k)

    def completions(k: int, budget: int) -> np.ndarray:
        """Cost of shares 1, 2, ... for class k plus the best completion."""
        width = budget - (n - k - 1)
        return costs[k][:width] + best[k + 1][budget - width : budget][::-1]

    limit = completions(0, total).min() * (1.0 + 1e-12)
    plan: list[int] = []
    spent, budget = 0.0, total
    for k in range(n - 1):
        share = int(np.flatnonzero(spent + completions(k, budget) <= limit)[0]) + 1
        plan.append(share)
        spent += costs[k][share - 1]
        budget -= share
    plan.append(budget)
    return AllocationPlan.from_counts(scenario, plan)
