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
``horizon * total_raos``. One sort covers a chunk of consecutive iterations
holding about ``CHUNK_KEYS`` requests (at least one iteration); an
iteration's seconds never share a key with another's, so the chunking does
not change any count. Before drawing, ``run`` refuses an iteration whose
expected size exceeds ``MAX_ITEMS_PER_ITERATION``.

Random numbers follow one layout, named by ``RNG_LAYOUT``. Iterations are
grouped into blocks of ``max(1, BLOCK_SECONDS // horizon)``. Fresh arrivals
of one class in one block come from one child stream of the master seed,
which first draws the request counts of every second of the block, then the
slot picks in iteration order. Delay measurement draws background traffic
and retries from a separate child stream per (iteration, class). The layout
keeps these properties:

- results are bitwise reproducible from the seed, whatever the chunking;
- a class's fresh draws do not depend on any other class (isolation);
- the block size depends on the horizon alone, so sweeps over allocation
  plans reuse identical arrival patterns (common random numbers);
- the first N iterations of a longer run equal a run of N iterations, since
  a block's counts are drawn in full even when the run ends inside it;
- fresh draws, and so every fresh collision statistic, do not depend on
  whether delays are measured.

Delay measurement, on any pool layout, retries collided requests after the
class backoff until success or the attempt cap. Retries probe the slot
occupancy produced by fresh arrivals but do not add to it: the closed-form
delay model assumes every attempt faces the same fresh-traffic collision
probability, and a simulator that fed retries back into the load would be
unstable at high rates rather than converge to that model. A retry looks its
slot key up in one sorted table of the fresh requests and of background
requests drawn past the horizon, as far as any retry into the pool reaches;
background keys enter the table only for the seconds some retry can probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from . import analytics
from .model import AllocationPlan, DeviceClass, Scenario, SharingTopology, pool_layout


# Largest per-iteration working set that run() accepts, in array items,
# checked before any draw: the per-second counts plus the expected fresh
# requests, and with delays the expected background requests. tracemalloc
# put run()'s peak at about 40 bytes per fresh request (slot keys, their
# sort order, the sorted copy and flags) and 32 bytes per background
# request (its table entry and the draws that fill it), so a run within the
# limit stays below about 2 GB instead of failing inside numpy or swapping.
MAX_ITEMS_PER_ITERATION = 50_000_000

# Seconds of fresh arrivals that one block stream serves: a block is
# max(1, BLOCK_SECONDS // horizon) iterations. One stream costs about 25 us to
# set up, so at horizon 1 a stream per iteration cost more than the draws.
BLOCK_SECONDS = 4096

# Requests sorted together in one collision chunk; at least one iteration.
CHUNK_KEYS = 2**14

# Names the random-number layout described in the module docstring; a seed
# reproduces a report's numbers only under the same layout.
RNG_LAYOUT = "pcg64-block4096-v1"


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

    def pick(self, u: np.ndarray) -> np.ndarray:
        """RAOs for uniform draws ``u`` in [0, 1); for pool sizes below
        2**53, ``u * size`` rounds below ``size``."""
        return self.slots[(u * self.slots.size).astype(np.int64)]


def _block_stream(seed: int, block: int, class_id: int) -> np.random.Generator:
    """Fresh arrivals of one class over one block of iterations."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0, block, class_id))
    )


def _delay_stream(seed: int, iteration: int, class_id: int) -> np.random.Generator:
    """Background traffic and retries of one class in one iteration."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(1, iteration, class_id))
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


def _reach(pools: list[_Pool], config: SimConfig) -> list[tuple[DeviceClass, int]]:
    """Per pool, the class with the longest backoff among those whose usable
    RAOs overlap the pool, itself included (and preferred on ties), and the seconds
    past the horizon that its final allowed retry can reach: the pool's
    background must cover them."""
    reach = []
    for pool in pools:
        slowest = max(
            (other for other in pools if np.intersect1d(pool.slots, other.slots).size),
            key=lambda other: (other.cls.backoff, other is pool),
        ).cls
        reach.append((slowest, math.ceil(config.max_attempts * slowest.backoff) + 1))
    return reach


def _check_budget(
    pools: list[_Pool], reach: list[tuple[DeviceClass, int]], config: SimConfig
) -> None:
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
    background = [seconds * pool.cls.ra_density for pool, (_, seconds) in zip(pools, reach)]
    total = fresh + sum(background)
    if total > MAX_ITEMS_PER_ITERATION:
        slowest, seconds = reach[background.index(max(background))]
        raise SimulationError(
            f"class {slowest.id}: delay measurement over the horizon of {horizon} s "
            f"plus {seconds} s reachable with backoff {slowest.backoff} s and "
            f"{config.max_attempts} attempts needs about {total:.3g} fresh and "
            f"background requests per iteration, over the simulator's limit of "
            f"{MAX_ITEMS_PER_ITERATION}; lower the horizon, the backoff or max_attempts"
        )


def _draw_counts(rng: np.random.Generator, pool: _Pool, seconds: int, mode: ArrivalMode) -> np.ndarray:
    if mode == ArrivalMode.POISSON_AGGREGATE:
        return rng.poisson(pool.cls.ra_density, size=seconds)
    return rng.binomial(pool.cls.coordinators, pool.cls.per_device_rate, size=seconds)


@dataclass(frozen=True)
class _Tally:
    """Per-iteration counts of one run: a row per class, and one row of
    events (slots holding two or more requests)."""

    attempts: np.ndarray
    collided: np.ndarray
    events: np.ndarray
    delay_sums: np.ndarray
    delay_counts: np.ndarray
    censored: np.ndarray

    @classmethod
    def zeros(cls, n_classes: int, iterations: int) -> _Tally:
        shape = (n_classes, iterations)
        return cls(
            attempts=np.zeros(shape, dtype=np.int64),
            collided=np.zeros(shape, dtype=np.int64),
            events=np.zeros(iterations, dtype=np.int64),
            delay_sums=np.zeros(shape),
            delay_counts=np.zeros(shape, dtype=np.int64),
            censored=np.zeros(shape, dtype=np.int64),
        )


def run(
    scenario: Scenario,
    allocation: AllocationPlan | SharingTopology | None,
    config: SimConfig,
) -> SimStats:
    """Simulate the scenario and measure collision statistics.

    The allocation alone decides the pool layout, as in ``pool_layout``:
    None shares the whole pool, an AllocationPlan dedicates one block per
    class and a SharingTopology is used as given; the scenario's strategy
    is not read. With ``config.measure_delay`` set, per-class mean inclusive
    access delays are tracked as well, on every layout. Raises
    SimulationError before any draw when one iteration would exceed
    ``MAX_ITEMS_PER_ITERATION``.
    """
    config.validate()
    pools = _build_pools(scenario, allocation, config)
    reach = _reach(pools, config) if config.measure_delay else []
    _check_budget(pools, reach, config)

    iters, horizon = config.iterations, config.horizon
    total_slots = scenario.total_raos
    span = horizon * total_slots  # slot keys per iteration
    tally = _Tally.zeros(len(pools), iters)
    per_block = max(1, BLOCK_SECONDS // horizon)
    for first in range(0, iters, per_block):
        n = min(per_block, iters - first)
        rngs = [_block_stream(config.seed, first // per_block, pool.cls.id) for pool in pools]
        # the whole block's counts, so that a shorter run draws a prefix of a longer one
        counts = [
            _draw_counts(rng, pool, per_block * horizon, config.arrival_mode)[: n * horizon]
            for pool, rng in zip(pools, rngs)
        ]
        block = slice(first, first + n)
        tally.attempts[:, block] = [c.reshape(n, horizon).sum(axis=1) for c in counts]
        for lo, hi in _chunks(tally.attempts[:, block].sum(axis=0)):
            chunk = slice(first + lo, first + hi)
            # the previous chunk's keys are freed only once these exist; freeing
            # them first let the heap shrink and fault its pages in again, which
            # cost a tenth of the time at horizon 200
            keys_by_class = [
                _fresh_keys(pool, rng, c[lo * horizon : hi * horizon], total_slots)
                for pool, rng, c in zip(pools, rngs, counts)
            ]
            flags_by_class, event_keys = _collisions(keys_by_class)
            bounds = np.arange(hi - lo + 1) * span
            tally.events[chunk] = np.diff(np.searchsorted(event_keys, bounds))
            for pos, flags in enumerate(flags_by_class):
                tally.collided[pos, chunk] = _segment_sums(flags, tally.attempts[pos, chunk])
            if config.measure_delay:
                ends = np.cumsum(tally.attempts[:, chunk], axis=1)
                starts = ends - tally.attempts[:, chunk]
                for j, it in enumerate(range(chunk.start, chunk.stop)):
                    parts = [slice(a, b) for a, b in zip(starts[:, j], ends[:, j])]
                    tally.delay_sums[:, it], tally.delay_counts[:, it], tally.censored[:, it] = zip(
                        *_measure_delays(
                            pools,
                            reach,
                            [keys[part] - j * span for keys, part in zip(keys_by_class, parts)],
                            [flags[part] for flags, part in zip(flags_by_class, parts)],
                            total_slots,
                            config,
                            it,
                        )
                    )
    return _summarize(pools, config, tally)


def _summarize(pools: list[_Pool], config: SimConfig, tally: _Tally) -> SimStats:
    horizon = config.horizon
    per_class: dict[int, ClassStats] = {}
    for pos, pool in enumerate(pools):
        att, col = tally.attempts[pos], tally.collided[pos]
        with_attempts = att > 0
        rates = col[with_attempts] / att[with_attempts]
        _, rate_stderr = _mean_stderr(rates)
        density, density_stderr = _mean_stderr(col / horizon)
        mean_delay = delay_stderr = None
        if config.measure_delay:
            sums, counts = tally.delay_sums[pos], tally.delay_counts[pos]
            n_delays = int(counts.sum())
            mean_delay = float(sums.sum() / n_delays) if n_delays else None
            has = counts > 0
            _, delay_stderr = _mean_stderr(sums[has] / counts[has])
        per_class[pool.cls.id] = ClassStats(
            attempts=int(att.sum()),
            collided=int(col.sum()),
            collision_rate=float(col.sum() / att.sum()) if att.sum() else 0.0,
            rate_stderr=rate_stderr,
            collision_density=density,
            density_stderr=density_stderr,
            mean_delay=mean_delay,
            delay_stderr=delay_stderr,
            censored=int(tally.censored[pos].sum()),
        )

    total_density = sum(stats.collision_density for stats in per_class.values())
    _, total_stderr = _mean_stderr(tally.collided.sum(axis=0) / horizon)
    event_density, event_stderr = _mean_stderr(tally.events / horizon)
    return SimStats(
        per_class=per_class,
        total_density=total_density,
        total_density_stderr=total_stderr,
        event_density=event_density,
        event_density_stderr=event_stderr,
        iterations=config.iterations,
        horizon=horizon,
        seed=config.seed,
    )


def _fresh_keys(
    pool: _Pool, rng: np.random.Generator, counts: np.ndarray, total_slots: int
) -> np.ndarray:
    """Slot keys of one class's fresh requests, given its counts per second
    of a chunk; the picks continue the class's block stream."""
    u = rng.random(int(counts.sum()))
    return np.repeat(np.arange(counts.size), counts) * total_slots + pool.pick(u)


def _chunks(sizes: np.ndarray) -> Iterator[tuple[int, int]]:
    """Split consecutive iterations, holding ``sizes`` requests each, into
    (lo, hi) runs of about ``CHUNK_KEYS`` requests and at least one iteration."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < sizes.size:
        before = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, before + CHUNK_KEYS, "right")))
        yield lo, hi
        lo = hi


def _segment_sums(flags: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Set flags per consecutive segment of ``sizes`` items; empty segments
    count 0 (``reduceat`` would repeat the next item for them)."""
    out = np.zeros(sizes.size, dtype=np.int64)
    nonempty = sizes > 0
    if flags.size:
        starts = np.cumsum(sizes) - sizes
        out[nonempty] = np.add.reduceat(flags, starts[nonempty], dtype=np.int64)
    return out


def _collisions(keys_by_class: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Flag, per class, the requests whose slot key another request of any
    class shares, and list the keys of the slots holding two or more
    requests, ascending, once each.

    Sorting puts equal keys next to each other, so the work grows with the
    number of requests, not with the number of slots they pick from.
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
    # a shared slot starts where a match follows a non-match
    first_match = same.copy()
    first_match[1:] &= ~same[:-1]
    return flags_by_class, ordered[:-1][first_match]


def _retry_second(t0: np.ndarray, attempt: int, backoff: float) -> np.ndarray:
    """The second that attempt ``attempt`` of requests first sent at ``t0``
    lands in; the background table is built for exactly these seconds."""
    return np.floor(t0 + (attempt - 1) * backoff).astype(np.int64)


def _measure_delays(
    pools: list[_Pool],
    reach: list[tuple[DeviceClass, int]],
    keys_by_class: list[np.ndarray],
    flags_by_class: list[np.ndarray],
    total_slots: int,
    config: SimConfig,
    iteration: int,
) -> list[tuple[float, int, int]]:
    """Track retries for every class in one iteration.

    Returns per class (sum of inclusive delays, successes, censored
    requests); a success on attempt k took k backoff periods. Each class's
    delay stream draws its background over its whole reach, then its
    retries. A retry succeeds when no other request holds its slot key.
    """
    horizon = config.horizon
    rngs = [_delay_stream(config.seed, iteration, pool.cls.id) for pool in pools]
    pending, probed = [], np.zeros(horizon + max(s for _, s in reach), dtype=bool)
    for pool, keys, flags in zip(pools, keys_by_class, flags_by_class):
        k0 = keys[flags]
        # the time within a second follows the first RAO's position in the pool
        first_local = np.searchsorted(pool.slots, k0 % total_slots)
        t0 = k0 // total_slots + (first_local + 0.5) / pool.slots.size
        for attempt in range(2, config.max_attempts + 1):
            probed[_retry_second(t0, attempt, pool.cls.backoff)] = True
        pending.append((k0, t0))

    background = []
    for pool, rng, (_, seconds) in zip(pools, rngs, reach):
        counts = _draw_counts(rng, pool, seconds, config.arrival_mode)
        u = rng.random(int(counts.sum()))
        # every draw is made, but only probed seconds enter the table
        keep = probed[horizon : horizon + seconds]
        ext = np.repeat(np.arange(horizon, horizon + seconds)[keep], counts[keep])
        ext *= total_slots
        ext += pool.pick(u[np.repeat(keep, counts)])
        background.append(ext)
    table = np.concatenate(keys_by_class + background)
    table.sort()

    results = []
    for pool, rng, flags, (k0, t0) in zip(pools, rngs, flags_by_class, pending):
        backoff = pool.cls.backoff
        n_done = int((~flags).sum())
        delay_sum = n_done * backoff  # attempt 1 counts one backoff period
        for attempt in range(2, config.max_attempts + 1):
            if k0.size == 0:
                break
            sec = _retry_second(t0, attempt, backoff)
            key = sec * total_slots + pool.pick(rng.random(k0.size))
            # a retry into the slot of its own first attempt does not count itself
            hits = np.searchsorted(table, key, "right") - np.searchsorted(table, key, "left")
            ok = hits - (key == k0) < 1
            n_ok = int(ok.sum())
            n_done += n_ok
            delay_sum += n_ok * attempt * backoff
            k0, t0 = k0[~ok], t0[~ok]
        results.append((float(delay_sum), n_done, int(k0.size)))
    return results


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
