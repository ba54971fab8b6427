"""Seeded Monte-Carlo simulator for slotted random access.

Each simulated second is partitioned into ``total_raos`` slots. Every class
draws its request count for the second (aggregate Poisson by default, or one
Bernoulli trial per group coordinator), each request picks a slot uniformly
from the class's usable pool, and every request sharing a slot with another
one counts as collided. Collision statistics are therefore measured on fresh
requests only, matching the closed-form model.

Collisions are found by sorting the requests' slot keys (second times
``total_raos`` plus RAO), where requests sharing a slot become neighbours, so
time and memory grow with the number of requests and never with
``horizon * total_raos``. Before drawing, ``run`` refuses an iteration whose
expected size exceeds ``MAX_ITEMS_PER_ITERATION``.

Randomness for (iteration, class) comes from its own child stream of the
master seed, so results are bitwise reproducible no matter how iterations
are scheduled, and sweeps over allocation plans reuse identical arrival
patterns (common random numbers).

Delay measurement retries collided requests after the class backoff until
success or the attempt cap. Retries probe the slot occupancy produced by
fresh arrivals but do not add to it: the closed-form delay model assumes
every attempt faces the same fresh-traffic collision probability, and a
simulator that fed retries back into the load would be unstable at high
rates rather than converge to that model. Retries read a dense per-pool
table of (second, RAO) counts over the horizon and the background seconds
drawn past it, ``(horizon + ceil(max_attempts * backoff) + 1) * L_i`` cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import analytics
from .model import AllocationPlan, DeviceClass, Scenario, SharingTopology, pool_layout


# Largest per-iteration working set that run() accepts, in array items,
# checked before any draw: the per-second counts plus the expected fresh
# requests, and with delays the pools' (second, RAO) tables plus their
# background requests. tracemalloc put run()'s peak at about 40 bytes per
# fresh request (slot keys, their sort order, the sorted copy and flags)
# and 8 bytes per delay-table slot, so a run within the limit stays below
# about 2 GB instead of failing inside numpy or swapping.
MAX_ITEMS_PER_ITERATION = 50_000_000


class SimulationError(RuntimeError):
    """The simulation request is inconsistent with the scenario or config."""


class ArrivalMode(str, Enum):
    POISSON_AGGREGATE = "poisson_aggregate"
    PER_DEVICE_BERNOULLI = "per_device_bernoulli"


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo controls.

    ``horizon`` is the simulated duration of one iteration in whole seconds.
    ``max_attempts`` caps retries per request when delays are measured;
    requests still unresolved are reported as censored.
    """

    iterations: int = 500
    seed: int = 0
    horizon: int = 1
    arrival_mode: ArrivalMode = ArrivalMode.POISSON_AGGREGATE
    measure_delay: bool = False
    max_attempts: int = 25

    def validate(self) -> None:
        if self.seed < 0:
            raise SimulationError(f"seed must be >= 0, got {self.seed}")
        if self.iterations < 1:
            raise SimulationError(f"iterations must be >= 1, got {self.iterations}")
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise SimulationError(
                f"horizon must be a whole number of seconds >= 1, got {self.horizon}"
            )
        if self.max_attempts < 1:
            raise SimulationError(f"max_attempts must be >= 1, got {self.max_attempts}")


@dataclass(frozen=True)
class ClassStats:
    """Empirical per-class statistics pooled over all iterations.

    ``collision_rate`` is collided/attempts over fresh requests; standard
    errors come from the spread of per-iteration estimates. Delay fields are
    None unless the run measured delays.
    """

    attempts: int
    collided: int
    collision_rate: float
    rate_stderr: float
    collision_density: float
    density_stderr: float
    mean_delay: float | None = None
    delay_stderr: float | None = None
    censored: int = 0

    @property
    def censored_fraction(self) -> float:
        return self.censored / self.attempts if self.attempts else 0.0


@dataclass(frozen=True)
class SimStats:
    """Cell-wide simulation outcome.

    ``total_density`` sums the per-class collision densities (colliding
    requests per second); ``event_density`` counts slots holding two or more
    requests instead, for comparison with event-based accounting.
    """

    per_class: dict[int, ClassStats]
    total_density: float
    total_density_stderr: float
    event_density: float
    event_density_stderr: float
    iterations: int
    horizon: int
    seed: int


@dataclass(frozen=True)
class SweepPoint:
    l_value: int
    plan: AllocationPlan
    stats: SimStats
    analytic_density: dict[int, float]
    analytic_total: float


@dataclass(frozen=True)
class SweepResult:
    class_id: int
    points: tuple[SweepPoint, ...]
    empirical_optimum: int


@dataclass(frozen=True)
class _Pool:
    """Resolved per-class sampling context for one run."""

    cls: DeviceClass
    slots: np.ndarray  # usable RAO ids, ascending

    @property
    def size(self) -> int:
        return self.slots.size

    def local(self, u: np.ndarray) -> np.ndarray:
        """Positions in the pool for uniform draws ``u`` in [0, 1); for pool
        sizes below 2**53, ``u * size`` rounds below ``size``."""
        return (u * self.size).astype(np.int64)

    def pick(self, u: np.ndarray) -> np.ndarray:
        return self.slots[self.local(u)]


def _stream(seed: int, iteration: int, class_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(iteration, class_id))
    )


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return 0.0, 0.0
    if values.size == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _build_pools(
    scenario: Scenario,
    allocation: AllocationPlan | SharingTopology | None,
    config: SimConfig,
) -> list[_Pool]:
    layout = pool_layout(scenario, allocation)
    if config.arrival_mode == ArrivalMode.PER_DEVICE_BERNOULLI:
        for cls in scenario.classes:
            if cls.coordinators is None:
                raise SimulationError(
                    f"class {cls.id}: per-device mode needs population and "
                    f"per_device_rate"
                )
            if cls.per_device_rate > 1.0:
                raise SimulationError(
                    f"class {cls.id}: per-device attempt probability "
                    f"{cls.per_device_rate}/s exceeds 1"
                )
    return [_Pool(cls=cls, slots=layout.slots(cls.id)) for cls in scenario.classes]


def _background_seconds(cls: DeviceClass, config: SimConfig) -> int:
    """Seconds past the horizon that a class's final allowed retry can reach."""
    return math.ceil(config.max_attempts * cls.backoff) + 1


def _check_budget(pools: list[_Pool], config: SimConfig) -> None:
    horizon = config.horizon
    fresh = horizon * (len(pools) + sum(pool.cls.ra_density for pool in pools))
    if fresh > MAX_ITEMS_PER_ITERATION:
        raise SimulationError(
            f"horizon {horizon} s needs about {fresh:.3g} requests and per-second "
            f"counts per iteration, over the simulator's limit of "
            f"{MAX_ITEMS_PER_ITERATION}; lower the horizon"
        )
    if not config.measure_delay:
        return
    for pool in pools:
        ext = _background_seconds(pool.cls, config)
        table = (horizon + ext) * pool.size + ext * pool.cls.ra_density
        if table > MAX_ITEMS_PER_ITERATION:
            raise SimulationError(
                f"class {pool.cls.id}: delay measurement over the horizon of {horizon} s "
                f"plus {ext} s reachable with backoff {pool.cls.backoff} s and "
                f"{config.max_attempts} attempts needs about {table:.3g} slots and "
                f"background requests per iteration, over the simulator's limit of "
                f"{MAX_ITEMS_PER_ITERATION}; lower the horizon, the backoff or max_attempts"
            )


def _draw_counts(rng: np.random.Generator, pool: _Pool, seconds: int, mode: ArrivalMode) -> np.ndarray:
    if mode == ArrivalMode.POISSON_AGGREGATE:
        return rng.poisson(pool.cls.ra_density, size=seconds)
    return rng.binomial(pool.cls.coordinators, pool.cls.per_device_rate, size=seconds)


def run(
    scenario: Scenario,
    allocation: AllocationPlan | SharingTopology | None,
    config: SimConfig,
) -> SimStats:
    """Simulate the scenario and measure collision statistics.

    The allocation alone decides the pool layout, as in ``pool_layout``:
    None shares the whole pool, an AllocationPlan dedicates one block per
    class and a SharingTopology is used as given; the scenario's strategy
    is not read. With ``config.measure_delay`` set, which needs an
    AllocationPlan, per-class mean inclusive access delays are tracked as
    well. Raises SimulationError before any draw when one iteration would
    exceed ``MAX_ITEMS_PER_ITERATION``.
    """
    config.validate()
    if config.measure_delay and not isinstance(allocation, AllocationPlan):
        raise SimulationError("delay measurement requires full dedication (an AllocationPlan)")
    pools = _build_pools(scenario, allocation, config)
    _check_budget(pools, config)

    n_classes = len(pools)
    iters, horizon = config.iterations, config.horizon
    total_slots = scenario.total_raos
    attempts = np.zeros((n_classes, iters), dtype=np.int64)
    collided = np.zeros((n_classes, iters), dtype=np.int64)
    events = np.zeros(iters, dtype=np.int64)
    delay_sums = np.zeros((n_classes, iters))
    delay_counts = np.zeros((n_classes, iters), dtype=np.int64)
    censored = np.zeros((n_classes, iters), dtype=np.int64)

    seconds_index = np.arange(horizon)
    for it in range(iters):
        rngs = [_stream(config.seed, it, pool.cls.id) for pool in pools]
        keys_by_class = []
        for pool, rng in zip(pools, rngs):
            counts = _draw_counts(rng, pool, horizon, config.arrival_mode)
            u = rng.random(int(counts.sum()))
            keys_by_class.append(np.repeat(seconds_index, counts) * total_slots + pool.pick(u))
        flags_by_class, events[it] = _collisions(keys_by_class)
        for pos, (pool, rng, keys, flags) in enumerate(
            zip(pools, rngs, keys_by_class, flags_by_class)
        ):
            attempts[pos, it] = keys.size
            collided[pos, it] = np.count_nonzero(flags)
            if config.measure_delay:
                d_sum, d_n, d_cens = _measure_delays(pool, rng, keys, flags, total_slots, config)
                delay_sums[pos, it] = d_sum
                delay_counts[pos, it] = d_n
                censored[pos, it] = d_cens

    per_class: dict[int, ClassStats] = {}
    for pos, pool in enumerate(pools):
        att, col = attempts[pos], collided[pos]
        with_attempts = att > 0
        rates = col[with_attempts] / att[with_attempts]
        _, rate_stderr = _mean_stderr(rates)
        density, density_stderr = _mean_stderr(col / horizon)
        mean_delay = delay_stderr = None
        if config.measure_delay:
            n_delays = int(delay_counts[pos].sum())
            mean_delay = float(delay_sums[pos].sum() / n_delays) if n_delays else None
            has = delay_counts[pos] > 0
            _, delay_stderr = _mean_stderr(delay_sums[pos][has] / delay_counts[pos][has])
        per_class[pool.cls.id] = ClassStats(
            attempts=int(att.sum()),
            collided=int(col.sum()),
            collision_rate=float(col.sum() / att.sum()) if att.sum() else 0.0,
            rate_stderr=rate_stderr,
            collision_density=density,
            density_stderr=density_stderr,
            mean_delay=mean_delay,
            delay_stderr=delay_stderr,
            censored=int(censored[pos].sum()),
        )

    total_density = sum(stats.collision_density for stats in per_class.values())
    _, total_stderr = _mean_stderr(collided.sum(axis=0) / horizon)
    event_density, event_stderr = _mean_stderr(events / horizon)
    return SimStats(
        per_class=per_class,
        total_density=total_density,
        total_density_stderr=total_stderr,
        event_density=event_density,
        event_density_stderr=event_stderr,
        iterations=iters,
        horizon=horizon,
        seed=config.seed,
    )


def _collisions(keys_by_class: list[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """Flag, per class, the requests whose slot key another request of any
    class shares, and count the slots holding two or more requests.

    Sorting puts equal keys next to each other, so the work grows with the
    number of requests, not with the number of slots they pick from. A slot
    holding k >= 2 requests sets k sorted flags and k - 1 neighbour matches,
    so the two counts differ by one per such slot.
    """
    keys = np.concatenate(keys_by_class)
    order = np.argsort(keys)
    ordered = keys[order]
    same = ordered[1:] == ordered[:-1]
    hit = np.zeros(keys.size, dtype=bool)
    hit[1:] = same
    hit[:-1] |= same
    flags = np.zeros(keys.size, dtype=bool)
    flags[order[hit]] = True
    flags_by_class, start = [], 0
    for class_keys in keys_by_class:
        flags_by_class.append(flags[start : start + class_keys.size])
        start += class_keys.size
    return flags_by_class, np.count_nonzero(hit) - np.count_nonzero(same)


def _measure_delays(
    pool: _Pool,
    rng: np.random.Generator,
    slots_global: np.ndarray,
    collided: np.ndarray,
    total_slots: int,
    config: SimConfig,
) -> tuple[float, int, int]:
    """Track retries for one class in one iteration.

    Returns (sum of inclusive delays, successes, censored requests). The
    inclusive delay of a request succeeding on attempt k is k backoff
    periods. Retries extend past the horizon against lazily drawn background
    seconds; a retry probing the second of its own first attempt discounts
    its own occupancy contribution.
    """
    backoff = pool.cls.backoff
    horizon = config.horizon
    n_ext = _background_seconds(pool.cls, config)
    ext_counts = _draw_counts(rng, pool, n_ext, config.arrival_mode)
    ext_u = rng.random(int(ext_counts.sum()))
    ext_secs = np.repeat(np.arange(horizon, horizon + n_ext), ext_counts)

    first_second = slots_global // total_slots
    first_local = np.searchsorted(pool.slots, slots_global % total_slots)
    # full dedication: the pool holds only this class's fresh requests, so
    # they and the background fill its (second, pool position) table
    pool_occ = np.bincount(
        np.concatenate(
            [first_second * pool.size + first_local, ext_secs * pool.size + pool.local(ext_u)]
        ),
        minlength=(horizon + n_ext) * pool.size,
    ).reshape(horizon + n_ext, pool.size)

    successes = int((~collided).sum())
    delay_sum = successes * backoff  # attempt 1 counts one backoff period
    s0 = first_second[collided]
    j0 = first_local[collided]
    t0 = s0 + (j0 + 0.5) / pool.size
    for attempt in range(2, config.max_attempts + 1):
        if s0.size == 0:
            break
        sec = np.floor(t0 + (attempt - 1) * backoff).astype(np.int64)
        u = rng.random(s0.size)
        j = pool.local(u)
        others = pool_occ[sec, j] - ((sec == s0) & (j == j0))
        ok = others < 1
        n_ok = int(ok.sum())
        successes += n_ok
        delay_sum += n_ok * attempt * backoff
        s0, j0, t0 = s0[~ok], j0[~ok], t0[~ok]
    return float(delay_sum), successes, int(s0.size)


def sweep_dedication(
    scenario: Scenario,
    class_index: int,
    l_values: Sequence[int],
    config: SimConfig,
) -> SweepResult:
    """Simulate a two-class scenario across dedication splits.

    ``l_values`` are RAO counts for the swept class (the other class gets
    the remainder), whatever strategy the scenario names; each point
    carries its simulated stats next to the closed-form densities, and the
    split with the lowest simulated total density is reported as the
    empirical optimum.
    """
    if len(scenario.classes) != 2:
        raise SimulationError("dedication sweep supports exactly 2 device classes")
    if class_index not in (0, 1):
        raise SimulationError("class_index must be 0 or 1")
    if len(l_values) == 0:
        raise SimulationError("dedication sweep needs at least one swept value")
    swept = scenario.classes[class_index]
    other = scenario.classes[1 - class_index]
    total = scenario.total_raos
    points = []
    for value in l_values:
        if not 1 <= value <= total - 1:
            raise SimulationError(
                f"swept value {value} outside [1, {total - 1}]"
            )
        plan = AllocationPlan({swept.id: value, other.id: total - value})
        stats = run(scenario, plan, config)
        metrics = analytics.layout_metrics(scenario, pool_layout(scenario, plan))
        analytic = {cid: m.collision_density for cid, m in metrics.items()}
        points.append(
            SweepPoint(
                l_value=value,
                plan=plan,
                stats=stats,
                analytic_density=analytic,
                analytic_total=math.fsum(analytic.values()),
            )
        )
    best = min(points, key=lambda p: p.stats.total_density)
    return SweepResult(
        class_id=swept.id, points=tuple(points), empirical_optimum=best.l_value
    )
