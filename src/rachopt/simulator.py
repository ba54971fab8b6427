"""Seeded Monte-Carlo simulator for slotted random access.

Each simulated second is partitioned into ``total_raos`` slots. Every class
draws its request count for the second (aggregate Poisson by default, or one
Bernoulli trial per group coordinator), each request picks a slot uniformly
from the class's usable pool, and every request sharing a slot with another
one counts as collided. Collision statistics are therefore measured on fresh
requests only, matching the closed-form model.

Collisions are found by sorting the requests' slot keys (second times
``total_raos`` plus RAO), so time and memory grow with the number of
requests, never with ``horizon * total_raos``. Each key carries its class's
position in its low ``(C - 1).bit_length()`` bits (none for one class), and
one in-place sort of these values, in uint32 when they fit and int64
otherwise, covers a chunk of consecutive iterations holding about
``CHUNK_KEYS`` requests (at least one iteration). A run builds, sorts and
scans every chunk in the same few arrays, which only grow, so that no chunk
faults fresh memory in. Before drawing, ``run`` refuses an iteration over
``MAX_ITEMS_PER_ITERATION``, and keys past int64.

Random numbers follow one layout, named by ``RNG_LAYOUT``. Iterations are
grouped into blocks of ``max(1, BLOCK_SECONDS // horizon)``. Fresh arrivals
of one class in one block come from one child stream of the master seed:
the request counts of every second of the block, then the slot picks in
iteration order. A pick ``u`` takes position ``floor(u * size)`` of the
class's usable RAOs in ascending order. Delays draw from no stream: each of
their uniforms hashes the seed with what it decides, as counter-based
generators do (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011), mixed by SplitMix64's finaliser (Steele, Lea and Flood, OOPSLA
2014). So results are bitwise reproducible from the seed, whatever the
chunking; a class's fresh draws do not depend on other classes; sweeps over
plans reuse identical arrivals (common random numbers); the first N
iterations of a longer run equal an N-iteration run; fresh statistics do not
depend on whether delays are measured; and delays depend on which slot keys
collided, not on the order of the requests.

Delay measurement retries collided requests after the class backoff until
success or the attempt cap, on any pool layout, ``RETRY_KEYS`` of one class
at a time. Retries probe the occupancy
made by fresh arrivals but do not add to it: the closed-form delay model
gives every attempt the fresh-traffic collision probability, and feeding
retries back into the load would make the simulator unstable at high rates.
A retry's RAO comes from a uniform hashed from (seed, iteration, class,
first slot key, rank among the class's requests with that key, attempt).
Inside the horizon, the retry looks its slot key up in the chunk's sorted
tagged keys. Past it, no traffic is drawn: the slot is occupied when a
uniform hashed from (seed, iteration, slot key) falls below the chance that
fresh arrivals fill it, ``1 - exp(-sum gamma_j / L_j)`` under Poisson
arrivals and ``1 - prod (1 - q_j / L_j) ** N_j`` under per-device Bernoulli
arrivals, over the classes j whose ranges hold the RAO. Poisson arrivals
fill slots independently, so this is exact. Under Bernoulli arrivals each
slot's marginal is exact, but the joint distribution of the slots within one
second is not, since one coordinator's request fills only one of them.
A class whose usable slots are all filled for sure stops retrying once its
retries are all past the horizon; they are censored.
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
# requests. A chunk holds its tagged keys and a spare array of their dtype
# (the picks' uniforms, then the shifted keys, then the collided ones), the
# per-second offsets of its keys while they are built, and later a one-byte
# mask; every other temporary covers at most PIECE_KEYS requests. tracemalloc
# puts run()'s peak on one 1.5 M-request iteration below 13 bytes per fresh
# request with uint32 keys and 25 with int64 keys, however many collide, so a
# run within the limit stays below about 0.65 GB, or 1.25 GB with int64 keys,
# instead of failing inside numpy or swapping.
MAX_ITEMS_PER_ITERATION = 50_000_000

# Seconds of fresh arrivals that one block stream serves: a block is
# max(1, BLOCK_SECONDS // horizon) iterations. One stream costs about 25 us to
# set up, so at horizon 1 a stream per iteration cost more than the draws.
BLOCK_SECONDS = 4096

# Requests sorted together in one collision chunk; at least one iteration.
# A run reuses its chunk arrays (see _Scratch), so larger chunks cost fewer
# numpy calls per request without faulting fresh pages in for every chunk.
CHUNK_KEYS = 2**16

# Longest piece of a chunk that _collisions' temporaries cover: the index
# array of np.compress and the cells and repeats of the collided requests.
PIECE_KEYS = 2**16

# Collided requests of one class in one chunk that the delay meter retries
# together; each holds about 200 bytes of retry state.
RETRY_KEYS = 2**12

# Names the random-number layout described in the module docstring; a seed
# reproduces a report's numbers only under the same layout.
RNG_LAYOUT = "pcg64-block4096-splitmix64-v2"


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


def _block_stream(seed: int, block: int, class_id: int) -> np.random.Generator:
    """Fresh arrivals of one class over one block of iterations."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0, block, class_id))
    )


def _hash_key(seed: int, *spawn_key: int) -> np.ndarray:
    """A 64-bit hash key derived from the seed, as a one-item uint64 array:
    keeping every uint64 operand an array makes the products wrap silently."""
    return np.random.SeedSequence(entropy=seed, spawn_key=spawn_key).generate_state(1, np.uint64)


def _hash(key: np.ndarray, *fields: np.ndarray | int) -> np.ndarray:
    """Fold non-negative integers, arrays broadcast together, into ``key``
    one at a time with SplitMix64's step: add the increment, then finalise."""
    h = key
    for field in fields:
        h = (h ^ np.asarray(field).astype(np.uint64)) + 0x9E3779B97F4A7C15
        h ^= h >> 30
        h *= 0xBF58476D1CE4E5B9
        h ^= h >> 27
        h *= 0x94D049BB133111EB
        h ^= h >> 31
    return h


def _uniform(key: np.ndarray, *fields: np.ndarray | int) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of ``_hash(key, *fields)``."""
    return (_hash(key, *fields) >> 11).astype(np.float64) * 2.0**-53


def _pick(layout: SharingTopology, class_id: int, u: np.ndarray) -> np.ndarray:
    """RAOs for draws ``u`` in [0, 1); below 2**53, ``u * size`` rounds below ``size``."""
    return layout.rao_at(class_id, (u * layout.size(class_id)).astype(np.int64))


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return 0.0, 0.0
    if values.size == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _check_inputs(scenario: Scenario, config: SimConfig) -> None:
    horizon = config.horizon
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
    fresh = horizon * (len(scenario.classes) + sum(cls.ra_density for cls in scenario.classes))
    if fresh > MAX_ITEMS_PER_ITERATION:
        raise SimulationError(
            f"horizon {horizon} s needs about {fresh:.3g} requests and per-second "
            f"counts per iteration, over the simulator's limit of "
            f"{MAX_ITEMS_PER_ITERATION}; lower the horizon"
        )
    # a chunk's tagged keys span at most a block; no (untagged) retry lands later
    # (floats round monotonically). Passing implies total_raos < 2**51, so picks are exact.
    seconds = max(horizon, BLOCK_SECONDS) << (len(scenario.classes) - 1).bit_length()
    if config.measure_delay:
        slowest = max(cls.backoff for cls in scenario.classes)
        attempts = min(config.max_attempts - 1, 2**63)  # so that it converts to a float
        seconds = max(seconds, math.floor(horizon + attempts * slowest) + 1)
    if seconds * scenario.total_raos >= 2**63:
        raise SimulationError(
            f"slot keys up to {seconds} x {scenario.total_raos}, class tag included, do not "
            f"fit in 64 bits; lower total_raos, the horizon, the backoff or max_attempts"
        )


def _draw_counts(
    rng: np.random.Generator, cls: DeviceClass, seconds: int, mode: ArrivalMode
) -> np.ndarray:
    if mode == ArrivalMode.POISSON_AGGREGATE:
        return rng.poisson(cls.ra_density, size=seconds)
    return rng.binomial(cls.coordinators, cls.per_device_rate, size=seconds)


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
    ``MAX_ITEMS_PER_ITERATION`` or a slot key would not fit in int64.
    """
    config.validate()
    layout = pool_layout(scenario, allocation)
    _check_inputs(scenario, config)

    classes = scenario.classes
    iters, horizon = config.iterations, config.horizon
    total_slots = scenario.total_raos
    span = horizon * total_slots  # slot keys per iteration
    tally = _Tally.zeros(len(classes), iters)
    measure = _delay_meter(scenario, layout, config) if config.measure_delay else None
    scratch = _Scratch()
    per_block = max(1, BLOCK_SECONDS // horizon)
    for first in range(0, iters, per_block):
        n = min(per_block, iters - first)
        rngs = [_block_stream(config.seed, first // per_block, cls.id) for cls in classes]
        # the whole block's counts, so that a shorter run draws a prefix of a longer one
        counts = [
            _draw_counts(rng, cls, per_block * horizon, config.arrival_mode)[: n * horizon]
            for cls, rng in zip(classes, rngs)
        ]
        block = slice(first, first + n)
        tally.attempts[:, block] = [c.reshape(n, horizon).sum(axis=1) for c in counts]
        for lo, hi in _chunks(tally.attempts[:, block].sum(axis=0)):
            chunk = slice(first + lo, first + hi)
            chunk_counts = [c[lo * horizon : hi * horizon] for c in counts]
            tagged = _fresh_keys(layout, classes, rngs, chunk_counts, total_slots, scratch)
            collided, events, hits = _collisions(tagged, len(classes), span, hi - lo, scratch)
            tally.collided[:, chunk], tally.events[chunk] = collided, events
            if measure is not None:
                for pos in range(len(classes)):
                    measure(pos, hits, tagged, chunk, tally)
    return _summarize(classes, config, tally)


def _summarize(classes: Sequence[DeviceClass], config: SimConfig, tally: _Tally) -> SimStats:
    horizon = config.horizon
    per_class: dict[int, ClassStats] = {}
    for pos, cls in enumerate(classes):
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
        per_class[cls.id] = ClassStats(
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
    layout: SharingTopology,
    classes: Sequence[DeviceClass],
    rngs: Sequence[np.random.Generator],
    counts: Sequence[np.ndarray],
    total_slots: int,
    scratch: _Scratch,
) -> np.ndarray:
    """Tagged slot keys ``(second * total_slots + rao) << tag_bits | pos`` of
    a chunk's fresh requests, class after class, given each class's counts
    per second of the chunk; the picks continue the classes' block streams.
    They are uint32 when the chunk's tagged range fits, and int64 otherwise,
    and are built in the scratch's keys from uniforms drawn into its spare
    array."""
    tag_bits, seconds = (len(classes) - 1).bit_length(), counts[0].size
    stride = total_slots << tag_bits  # tagged values per second
    dtype = np.uint32 if seconds * stride < 2**32 else np.int64
    sizes = [int(c.sum()) for c in counts]
    keys = scratch.take("keys", dtype, sum(sizes))
    # _collisions overwrites the spare array next
    uniforms = scratch.take("spare", np.float64, max(1, keys.nbytes // 8))
    end = 0
    for cls, rng, size in zip(classes, rngs, sizes):
        picks, pool = keys[end : end + size], layout.size(cls.id)
        # doubles convert to int32 twice as fast as to uint32
        index = picks.view(np.int32) if dtype == np.uint32 and pool <= 2**31 else picks
        for lo in range(0, size, uniforms.size):
            part = index[lo : lo + uniforms.size]
            u = rng.random(out=uniforms[: part.size])
            u *= pool  # below 2**53, u * pool rounds below pool
            np.copyto(part, u, casting="unsafe")
        layout.rao_at(cls.id, picks, out=picks)
        end += size
    keys <<= tag_bits
    tags = np.arange(len(classes), dtype=dtype)[:, None]
    keys += np.repeat(np.arange(seconds, dtype=dtype) * stride + tags, np.ravel(counts))
    return keys


class _Scratch:
    """Arrays that one run reuses from chunk to chunk, so that no chunk
    faults fresh pages in. ``take`` returns a view of the first ``size``
    items of a named buffer in ``dtype``. A buffer only grows, by at least
    an eighth, so that chunks of about the same size share it."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, dtype, size: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = size * dtype.itemsize
        buffer = self._buffers.pop(name, None)
        if buffer is None or buffer.size < nbytes:
            grown = 0 if buffer is None else buffer.size + buffer.size // 8
            del buffer  # freed before the larger one is made
            buffer = np.empty(max(nbytes, grown), np.uint8)
        self._buffers[name] = buffer
        return buffer[:nbytes].view(dtype)


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


def _collisions(
    tagged: np.ndarray, n_classes: int, span: int, iterations: int, scratch: _Scratch
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort a chunk's tagged slot keys in place. Count per (class, iteration)
    the requests whose key another request of any class shares, and per
    iteration the slots holding two or more requests; return both and the
    tagged values of the collided requests, ascending. Sorting puts equal
    keys next to each other, so the work grows with the number of requests,
    not with the number of slots they pick from. The arrays as long as the
    chunk are the scratch's, and the collided values are a view of one of
    them; every other temporary holds at most ``PIECE_KEYS`` items."""
    tag_bits, size = (n_classes - 1).bit_length(), tagged.size
    tagged.sort()
    spare = scratch.take("spare", tagged.dtype, size)
    keys = np.right_shift(tagged, tag_bits, out=spare)
    hit = scratch.take("hit", bool, size)
    np.equal(keys[1:], keys[:-1], out=hit[1:])  # each key equal to the one before
    hit[:1] = False
    hit[:-1] |= hit[1:]  # ... or to the one after
    # the collided values replace the keys in place; np.compress copies twice
    # as fast as boolean indexing, but through an index array
    end = 0
    for lo in range(0, size, PIECE_KEYS):
        mask = hit[lo : lo + PIECE_KEYS]
        count = np.count_nonzero(mask)
        np.compress(mask, tagged[lo : lo + PIECE_KEYS], out=spare[end : end + count])
        end += count
    hits = spare[:end]
    collided = np.zeros(iterations * n_classes, dtype=np.int64)
    # up to each iteration's end, the collided keys equal to the one before:
    # a slot shared by m requests holds m - 1 of them, so an iteration's
    # events are its collided requests less these repeats
    repeats = np.zeros(iterations + 1, dtype=np.int64)
    ends = np.arange(iterations + 1, dtype=hits.dtype) * span
    for lo in range(0, end, PIECE_KEYS):
        part = hits[lo : lo + PIECE_KEYS]
        cells = part // (span << tag_bits) * n_classes + (part & ((1 << tag_bits) - 1))
        collided += np.bincount(cells, minlength=collided.size)
        shared = hits[max(lo - 1, 0) : lo + part.size] >> tag_bits
        repeats += np.searchsorted(shared[1:][shared[1:] == shared[:-1]], ends)
    collided = collided.reshape(iterations, -1)
    events = collided.sum(axis=1) - (repeats[1:] - repeats[:-1])
    return collided.T, events, hits


def _delay_meter(scenario: Scenario, layout: SharingTopology, config: SimConfig):
    """The delay measurement of one run, as a function that retries the
    collided requests of the class at ``pos`` in one chunk, given the
    chunk's collided and all its tagged keys, sorted. It fills the chunk's
    delay sums, successes and censored requests in the tally; a success on
    attempt k took k backoff periods. The requests are retried in slices of
    ``RETRY_KEYS``, so that the retry state does not grow with the chunk;
    a request's rank among equal first keys counts over the whole chunk, so
    the slices change no number."""
    horizon, total_slots = config.horizon, scenario.total_raos
    span = horizon * total_slots
    tag_bits = (len(scenario.classes) - 1).bit_length()
    classes, sizes = scenario.classes, [layout.size(c.id) for c in scenario.classes]
    # per run of RAOs between range ends, the log of the chance that it is free
    if config.arrival_mode == ArrivalMode.POISSON_AGGREGATE:
        log_free = {c.id: -c.ra_density / size for c, size in zip(classes, sizes)}
    else:
        with np.errstate(divide="ignore"):  # q = L = 1 fills the slot
            log_free = {
                c.id: c.coordinators * np.log1p(-c.per_device_rate / size)
                for c, size in zip(classes, sizes)
            }
    run_starts, _, covered, log_free_run = layout.segments(log_free)
    busy_chance = -np.expm1(log_free_run)
    # hashed uniforms lie in [0, 1), so past the horizon such a class never succeeds
    saturated = [bool(np.all(busy_chance[covered[c.id]] == 1.0)) for c in classes]
    occupancy_key = _hash_key(config.seed, 1)
    pick_keys = [_hash_key(config.seed, 1, c.id) for c in classes]

    def measure(pos, hits, tagged, chunk, tally):
        cls, size, n = classes[pos], sizes[pos], chunk.stop - chunk.start
        firsts = hits[(hits & ((1 << tag_bits) - 1)) == pos]  # tagged, ascending
        sums, successes, censored = (
            a[pos, chunk] for a in (tally.delay_sums, tally.delay_counts, tally.censored)
        )
        for lo in range(0, firsts.size, RETRY_KEYS):
            part = firsts[lo : lo + RETRY_KEYS]
            k0 = (part >> tag_bits).astype(np.int64)
            iteration, first_key = np.divmod(k0, span)  # in the chunk, and the key in it
            iteration += chunk.start
            # the time within a second follows the first RAO's position in the pool
            index = layout.index_of(cls.id, first_key % total_slots)
            t0 = first_key // total_slots + (index + 0.5) / size
            # the rank counts the class's requests in the whole chunk with this first key
            rank = np.arange(lo, lo + part.size) - np.searchsorted(firsts, part)
            pick = _hash(pick_keys[pos], iteration, first_key, rank)
            del first_key, index, rank  # RETRY_KEYS bounds what stays alive below
            done = np.zeros(k0.size, dtype=np.int64)  # the attempt that succeeded
            todo = np.arange(k0.size)
            for attempt in range(2, config.max_attempts + 1):
                sec = np.floor(t0[todo] + (attempt - 1) * cls.backoff).astype(np.int64)
                inside, past = sec < horizon, sec >= horizon
                if todo.size == 0 or (saturated[pos] and past.all()):
                    break
                rao = _pick(layout, cls.id, _uniform(pick[todo], attempt))
                key = sec * total_slots + rao
                busy = np.empty(todo.size, dtype=bool)
                # a retry into the slot of its own first attempt does not count itself
                own = k0[todo[inside]]
                probe = key[inside] + own // span * span
                # probes in the sorted values' dtype, so that searchsorted copies nothing
                start, stop = ((p << tag_bits).astype(tagged.dtype) for p in (probe, probe + 1))
                found = np.searchsorted(tagged, stop) - np.searchsorted(tagged, start)
                busy[inside] = found > (probe == own)
                chance = busy_chance[np.searchsorted(run_starts, rao[past], "right") - 1]
                busy[past] = _uniform(occupancy_key, iteration[todo[past]], key[past]) < chance
                done[todo[~busy]] = attempt
                todo = todo[busy]
            ok, j = done > 0, iteration - chunk.start
            sums += np.bincount(j, weights=done, minlength=n)  # whole numbers, summed exactly
            successes += np.bincount(j[ok], minlength=n)
            censored += np.bincount(j[~ok], minlength=n)
        first_ok = tally.attempts[pos, chunk] - tally.collided[pos, chunk]
        sums += first_ok
        sums *= cls.backoff
        successes += first_ok

    return measure


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
    swept, other = scenario.classes[class_index], scenario.classes[1 - class_index]
    total = scenario.total_raos
    points = []
    for value in l_values:
        if not 1 <= value <= total - 1:
            raise SimulationError(f"swept value {value} outside [1, {total - 1}]")
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
    return SweepResult(class_id=swept.id, points=tuple(points), empirical_optimum=best.l_value)
