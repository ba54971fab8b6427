"""RAO allocation: proportional dedication, QoS reservations, and the
reserve-and-divide procedure, plus a brute-force enumeration oracle.

The proportional rule dedicates RAOs so every class sees the same load
``gamma_i / L_i``. That split minimizes the cell collision probability at
any load, and the colliding-request density as well up to one request per
RAO (the brute-force oracle confirms both numerically). Past that load the
density objective instead favors starving a nearly-saturated class to
relieve the others: to first order, starving a class that carries a share
eps of the total density Gamma changes the cell density by
``Gamma * exp(-x) * (1 - x) * eps`` with ``x = Gamma / L``, a gain only for
``x > 1``. So the proportional plan stops being density-optimal there.

Integer plans come from largest-remainder apportionment over exact rational
quotas, so results are reproducible and invariant under common rescaling of
the densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .model import AllocationPlan, DeviceClass, QosKind, Scenario


class AllocationError(ValueError):
    """The requested allocation cannot be built from the scenario."""


class OverloadError(AllocationError):
    """RACH resource overload: reservations exceed the RAO budget.

    ``class_id`` names the class at which the running budget was exhausted
    (None when the post-reservation residual cannot cover the normal
    classes).
    """

    def __init__(self, message: str, class_id: int | None = None):
        super().__init__(message)
        self.class_id = class_id


@dataclass(frozen=True)
class AllocationOutcome:
    """Result of reserve_and_divide: the full plan plus how it was formed."""

    plan: AllocationPlan
    reserved: dict[int, int]
    residual: int


def largest_remainder(weights: Sequence[float], total: int, minimum: int = 1) -> list[int]:
    """Split ``total`` integer units proportionally to ``weights``.

    Hamilton apportionment: floor the exact rational quotas, then hand the
    leftover units to the largest fractional parts, ties to the lowest
    index. Every share is raised to ``minimum`` afterwards (taking units
    from the largest shares), so ``total >= minimum * len(weights)`` is
    required.
    """
    if not weights:
        raise AllocationError("cannot apportion among zero classes")
    if any(w <= 0 for w in weights):
        raise AllocationError("apportionment weights must be positive")
    if total < minimum * len(weights):
        raise AllocationError(
            f"insufficient RAOs: {total} cannot give {len(weights)} classes "
            f"{minimum} each"
        )
    denom = sum(Fraction(w) for w in weights)
    quotas = [Fraction(w) * total / denom for w in weights]
    shares = [int(q) for q in quotas]  # Fraction truncates toward zero; quotas >= 0
    leftover = total - sum(shares)
    by_fraction = sorted(range(len(weights)), key=lambda i: (shares[i] - quotas[i], i))
    for i in by_fraction[:leftover]:
        shares[i] += 1
    # floors can undershoot the minimum when a quota is tiny
    while min(shares) < minimum:
        needy = shares.index(min(shares))
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
    if ra_density <= 0:
        raise AllocationError(f"ra_density must be > 0, got {ra_density}")
    return ra_density / -math.log1p(-max_rate)


def reserve_for_collision_rate(ra_density: float, max_rate: float) -> int:
    """Smallest whole RAO count meeting a collision-rate bound (>= 1)."""
    return max(1, math.ceil(minimum_raos_for_rate(ra_density, max_rate)))


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


def _reservation(cls: DeviceClass) -> int:
    if cls.qos is None:
        raise AllocationError(f"special class {cls.id} carries no QoS target")
    if cls.qos.kind == QosKind.MAX_COLLISION_RATE:
        return reserve_for_collision_rate(cls.ra_density, cls.qos.max_collision_rate)
    # delay bounds normalize to the equivalent collision-rate bound
    max_rate = 1.0 - cls.backoff / cls.qos.max_mean_delay
    if not 0 < max_rate < 1:
        raise AllocationError(
            f"class {cls.id}: delay bound {cls.qos.max_mean_delay} does not "
            f"exceed the backoff {cls.backoff}"
        )
    return reserve_for_collision_rate(cls.ra_density, max_rate)


def reserve_and_divide(scenario: Scenario) -> AllocationOutcome:
    """Reserve QoS-sufficient RAOs for special classes, then divide the rest
    proportionally among normal classes.

    Special classes receive exactly their reservation (rounded up, so the
    QoS bound holds after integralization). Raises OverloadError when the
    running budget goes negative during reservation or the residual cannot
    give every normal class at least one RAO.
    """
    specials = scenario.special_classes
    normals = scenario.normal_classes
    budget = scenario.total_raos
    reserved: dict[int, int] = {}
    for cls in specials:
        need = _reservation(cls)
        reserved[cls.id] = need
        budget -= need
        if budget < 0:
            raise OverloadError(
                f"RACH resource overload: reserving {need} RAOs for class "
                f"{cls.id} exceeds the remaining budget by {-budget}",
                class_id=cls.id,
            )
    residual = budget
    shares: dict[int, int] = {}
    if normals:
        if residual < len(normals):
            raise OverloadError(
                f"RACH resource overload: residual {residual} RAOs cannot give "
                f"{len(normals)} normal classes one RAO each"
            )
        counts = largest_remainder([cls.ra_density for cls in normals], residual)
        shares = dict(zip((cls.id for cls in normals), counts))
    return AllocationOutcome(
        plan=AllocationPlan({**reserved, **shares}), reserved=reserved, residual=residual
    )


def _density_objective(gammas: np.ndarray, shares: np.ndarray) -> float:
    return float(np.sum(gammas * -np.expm1(-gammas / shares)))


def _probability_objective(gammas: np.ndarray, shares: np.ndarray) -> float:
    # 1 - exp(-sum(g^2/L)) is monotone in this sum; minimizing it suffices
    return float(np.sum(gammas * gammas / shares))


def brute_force_optimal(
    scenario: Scenario,
    objective: str = "density",
    max_evaluations: int = 2_000_000,
) -> AllocationPlan:
    """Exhaustive search over integer full-dedication plans.

    Verification oracle for proportional_allocation: enumerates every plan
    with at least one RAO per class and returns the one minimizing the cell
    collision density (or the collision probability with
    ``objective="probability"``), ties to the lexicographically smallest
    shares. Refuses scenarios whose enumeration exceeds
    ``max_evaluations`` plans.
    """
    gammas = np.array([cls.ra_density for cls in scenario.classes])
    n = len(gammas)
    total = scenario.total_raos
    if total < n:
        raise AllocationError(f"insufficient RAOs: {total} for {n} classes")
    if objective not in ("density", "probability"):
        raise AllocationError(f"unknown objective {objective!r}")
    plans = math.comb(total - 1, n - 1)
    if plans > max_evaluations:
        raise AllocationError(
            f"brute force refused: {plans} candidate plans exceed the "
            f"budget of {max_evaluations}"
        )

    if n == 1:
        return AllocationPlan.from_counts(scenario, [total])
    if n == 2:
        first = np.arange(1, total)
        second = total - first
        if objective == "density":
            values = gammas[0] * -np.expm1(-gammas[0] / first) + gammas[1] * -np.expm1(
                -gammas[1] / second
            )
        else:
            values = gammas[0] ** 2 / first + gammas[1] ** 2 / second
        k = int(np.argmin(values))  # first occurrence: smallest L_1 wins ties
        return AllocationPlan.from_counts(scenario, [int(first[k]), int(second[k])])

    score = _density_objective if objective == "density" else _probability_objective
    best: tuple[int, ...] | None = None
    best_value = math.inf
    for shares in _compositions(total, n):
        value = score(gammas, np.array(shares, dtype=float))
        if value < best_value:
            best_value = value
            best = shares
    assert best is not None
    return AllocationPlan.from_counts(scenario, list(best))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield all ways to write ``total`` as ``parts`` positive integers,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail
