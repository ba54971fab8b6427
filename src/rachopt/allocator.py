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

The exact oracle, brute_force_optimal, solves a min-plus recursion over the
classes and uses the shape of the density to skip most of its tables: each
class's density is concave below ``L = gamma / 2`` and convex above, so the
greedy merge of the steps of every class's lower convex envelope bounds the
least density of any set of classes on any budget, and a table entry whose
bounds already exceed a known plan's density is never filled.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import AllocationPlan, DeviceClass, QosKind, Scenario

# Largest class count times RAO budget brute_force_optimal takes for three or
# more classes; it holds the tables and the envelope steps to O(n * L) floats.
# Where the shape bounds prune nothing, an overloaded cell, the tables take
# up to (n - 2) * L**2 / 2 cost sums: the slowest admitted shape found, 4
# classes on 21 600 RAOs at 3 requests per RAO, takes 0.45-0.47 s on a
# 2-vCPU Xeon guest (6 classes on 14 400 and 8 on 10 800 take up to 0.41 s).
MAX_CLASS_RAOS = 86_400
# Slack of brute_force_optimal's pruning, relative to a known plan's density
# plus the density at one RAO per class (the largest partial sum of any
# bound); it covers the rounding of the bounds, below 1e-11 of the latter.
PRUNE_SLACK = 1e-9
# Cost sums per block of budgets in a table fill, which sizes its float64
# block buffer (512 KB).
FILL_BLOCK = 1 << 16
# Rough cost of the shape bounds per class, in cost sums of a table fill:
# 50-160 us for 3 classes and 170-780 us for 8 on 300-2 000 RAOs, at
# 1.2-2.5 ns per sum.
BOUND_SUMS = 1 << 14


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


def _envelope_steps(costs: np.ndarray) -> np.ndarray:
    """Steps between consecutive shares 1, 2, ... of the lower convex
    envelope of each row of ``costs``: the chord from share 1 to the share
    its steepest chord reaches, then the row's own steps. A class's density
    is concave below ``L = gamma / 2`` and convex above, so the envelope
    leaves it only along that chord."""
    steps = costs[:, 1:] - costs[:, :-1]
    chords = costs[:, 1:] - costs[:, :1]
    chords /= np.arange(1, costs.shape[1])
    for row, reach in enumerate(chords.argmin(axis=1).tolist()):
        steps[row, : reach + 1] = chords[row, reach]
    return steps


def _budget_ranges(costs: np.ndarray) -> list[tuple[int, int]]:
    """For each class ``k >= 1``: the least and largest budget, less
    ``n - k``, that classes ``k..n-1`` can take in a plan within the
    pruning slack of the density of a known plan.

    A budget ``b`` is kept while the least envelope density of classes
    ``0..k-1`` on the other RAOs plus that of classes ``k..n-1`` on ``b`` is
    within the slack; a lone class on either side takes its exact density.
    The greedy merge is exact for separable convex costs (Federgruen and
    Groenevelt), so a set's least envelope density on ``j`` RAOs past one
    each is its density at one RAO each plus its ``j`` smallest envelope
    steps. One table holds the sums: merging classes ``n-1`` down to 1 writes
    row ``k - 1`` when class ``k`` joins, and merging classes 0 up to ``n - 2``
    adds its bound, reversed, into row ``k - 1`` when class ``k - 1`` joins.

    The known plan gives class 0 each share in turn, each class past 1 the
    RAOs of its steps below the next step of the greedy merge of classes
    1.., and class 1 the rest. The slack is ``PRUNE_SLACK`` of that plan's
    density plus the density at one RAO each, the largest partial sum of
    any bound, so it covers their rounding.
    """
    n, width = costs.shape
    steps = _envelope_steps(costs)
    # row k - 1: classes k.. on j RAOs past one each, plus classes 0..k-1 on the rest
    bounds = np.empty((n - 1, width))
    bounds[-1] = costs[-1]
    merged, lead = steps[-1], costs[-1, 0]
    for k in range(n - 2, 0, -1):
        merged = np.sort(np.concatenate((merged, steps[k])))[:width]
        lead += costs[k, 0]
        bounds[k - 1] = np.concatenate(([lead], lead + merged[: width - 1].cumsum()))
    bounds[0] += costs[0][::-1]
    earlier, lead = steps[0], costs[0, 0]
    for k in range(2, n):
        earlier = np.sort(np.concatenate((earlier, steps[k - 1])))[:width]
        lead += costs[k - 1, 0]
        bounds[k - 1] += np.concatenate(([lead], lead + earlier[: width - 1].cumsum()))[::-1]
    steps.sort(axis=1)
    rest = np.arange(width)  # RAOs past one each of classes 1.., by j
    upper = np.zeros(width)
    for k in range(2, n):
        count = np.searchsorted(steps[k], merged)
        upper += costs[k][count]
        rest -= count
    upper += costs[1][rest]
    upper = (costs[0] + upper[::-1]).min()
    cap = upper + PRUNE_SLACK * (upper + costs[:, 0].sum())
    kept = bounds <= cap
    low = kept.argmax(axis=1)
    high = width - 1 - kept[:, ::-1].argmax(axis=1)
    return list(zip(low.tolist(), high.tolist()))


def _fill(cost: np.ndarray, after: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]) -> np.ndarray:
    """``least[j] = min over i in cols, i <= j, of cost[j - i] + after[i]``
    for each ``j`` in the inclusive range ``rows``, +inf where no ``i`` fits.

    Pairs with the same ``j - i`` share a cost, so the sums of consecutive
    ``j`` are rows of one sliding window over the costs, reversed and padded
    with +inf where ``i > j``. Blocks of rows are filled from the top down,
    each as wide as its top row reaches and at most ``FILL_BLOCK`` sums, by
    one ``np.add`` into a reused buffer and one row-wise ``min``.
    """
    (r0, r1), (c0, c1) = rows, cols
    least = np.full(max(r1 - r0 + 1, 0), np.inf)
    if r1 < c0:
        return least
    d1, d0 = r1 - c0, max(r0 - c1, 0)  # cost offsets the pairs use, +inf below 0
    padded = np.full(r1 - r0 + c1 - c0 + 1, np.inf)
    padded[: d1 - d0 + 1] = cost[d0 : d1 + 1][::-1]
    step = padded.strides[0]
    window = np.lib.stride_tricks.as_strided(
        padded, (r1 - r0 + 1, c1 - c0 + 1), (step, step), writeable=False
    )
    widest = min(c1, r1) - c0 + 1
    buf = np.empty(max(widest, min(FILL_BLOCK, widest * (r1 - r0 + 1))))
    high = r1
    while high >= max(r0, c0):
        width = min(c1, high) - c0 + 1
        low = max(r0, high - max(1, FILL_BLOCK // width) + 1)
        block = buf[: (high - low + 1) * width].reshape(-1, width)
        np.add(window[r1 - high : r1 - low + 1, :width], after[c0 : c0 + width], out=block)
        least[low - r0 : high - r0 + 1] = block.min(axis=1)[::-1]
        high = low - 1
    return least


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
    the least cost of classes ``k..n-1`` on ``b`` RAOs, is the least
    ``cost_k[s] + best[k+1][b - s]`` over shares ``s``, built from the last
    class, which takes the remainder. A walk from the first class then takes
    at each class the smallest share whose best completion stays within the
    tie band. In full the tables take about ``(n - 2) * L**2 / 2`` cost sums
    for ``n`` classes and ``L`` RAOs; one or two classes cost O(L).

    The shape of the cost prunes them. The greedy merge of the classes'
    envelope steps bounds the least density of classes ``0..k-1`` and of
    classes ``k..n-1`` on every budget, and ``best[k][b]`` is filled only
    while the two bounds around ``b`` stay within ``PRUNE_SLACK`` of a known
    plan's density (see ``_budget_ranges``); the rest stay +inf. A filled
    entry is the least of some of the full tables' float sums, among them
    every sum on a plan within the tie band, so it is exact wherever such a
    plan passes and elsewhere can only come out larger. So the optimum, the
    tie band and the walk give the full tables' plan bit for bit. The slack
    is far wider than the bounds' rounding and the 1e-12 band, so no
    rounding cuts a plan within the band.

    Below one request per RAO every class of the optimum sits where the
    envelope is the cost, the bounds are tight, and the tables keep a few
    budgets each. Above it the greedy merge mostly stops inside some class's
    chord, so even its own plan lies above the bound (on 4 000 random cells
    of 3-8 classes on 200-2 000 RAOs: none of 2 632 at or below one request
    per RAO, 1 197 of 1 368 above it), and an overloaded cell, whose optimum
    starves classes, can keep most of its tables. The bounds cost about
    ``BOUND_SUMS`` fill sums per class: they are built only for larger
    tables, and above one request per RAO only if they cost at most half a
    fill block or 1/64 of the full fill (see ``FILL_BLOCK``). Three or more
    classes on more than ``MAX_CLASS_RAOS`` class-RAOs are refused before
    anything is built. Memory stays O(n * L + FILL_BLOCK): the cost matrix,
    the tables, and the envelope steps and one bound table or one fill block,
    about 1.6 MB for 3 classes on 10 800 RAOs and 2.1 MB for 8 on 8 000.
    """
    gammas = [cls.ra_density for cls in scenario.classes]
    n = len(gammas)
    total = scenario.total_raos
    if total < n:
        raise AllocationError(f"insufficient RAOs: {total} for {n} classes")
    if n > 2 and n * total > MAX_CLASS_RAOS:
        raise AllocationError(
            f"exact search refused: {n} classes on {total} RAOs make {n * total} "
            f"class-RAOs, over the limit of {MAX_CLASS_RAOS}"
        )
    if n == 1 or total == n:
        return AllocationPlan.from_counts(scenario, [total - n + 1] * n)

    shares = np.arange(1.0, total - n + 2)  # every share one class can get
    g = np.array(gammas)[:, None]
    costs = g * -np.expm1(-g / shares)  # row k: class k's density, by share
    best = [np.empty(0)] * n  # least density of classes k..n-1, by budget
    best[-1] = np.concatenate(([np.inf], costs[-1]))
    if n > 2:
        width = total - n + 1
        ranges = [(0, width - 1)] * (n - 1)
        fill, bounds = (n - 2) * width * width // 2, (n - 1) * BOUND_SUMS  # sums either costs
        cheap = bounds <= max(FILL_BLOCK // 2, fill // 64)
        if fill > bounds and (cheap or sum(gammas) <= total):
            ranges = _budget_ranges(costs)
        for k in range(n - 2, 0, -1):
            low, high = ranges[k - 1]
            best[k] = np.full(total - k + 1, np.inf)
            best[k][n - k + low : n - k + high + 1] = _fill(
                costs[k], best[k + 1][n - k - 1 :], ranges[k - 1], ranges[k]
            )

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
