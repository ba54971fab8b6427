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
faults fresh memory in; ``run_many`` refuses inputs past its limits before
that. ``run_many`` simulates several layouts on the same arrivals, and
``run`` is its one-layout case. Layouts that each dedicate one block per
class, in class order, share their passes when at least
``SHARED_PASS_LAYOUTS`` of them are in one call and no delays are measured.
A shared pass forms no slot keys: a chunk's picks are drawn once, as the
53-bit integers that the uniforms scale, and sorted by class, second and
value, and in such a layout two requests collide exactly when they are
neighbours in one (class, second) run whose ``floor(u * size)`` is equal.
So each chunk keeps the neighbours close enough to collide in the class's
smallest pool of the pass, and notes where each (class, iteration) cell's
pairs start; each layout compares their floors alone and sums its equal
pairs and chain starts per cell. A run that measures delays gives every
layout a pass of its own, since retries look slot keys up.

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
chunking; a class's fresh draws do not depend on other classes; every
layout of a ``run_many`` call sees the same arrivals (common random
numbers), and its stats equal those of ``run`` on that layout alone;
the first N iterations of a longer run equal an N-iteration run; fresh
statistics do not depend on whether delays are measured; and delays
depend on which slot keys collided, not on the order of the requests.

Delay measurement retries collided requests after the class backoff until
success or the attempt cap, on any pool layout. Retries probe the occupancy
made by fresh arrivals but do not add to it: the closed-form delay model
gives every attempt the fresh-traffic collision probability, and feeding
retries back into the load would make the simulator unstable at high
rates. Attempt k of a request lands at ``t0 + (k - 1) * backoff``, where
``t0`` is its second plus ``(position + 0.5) / size`` for its RAO's
position in the pool, so only a class whose backoff is below the horizon
retries inside it. There, an attempt's RAO comes from a uniform hashed from
(seed, class, iteration, first slot key, rank among the requests with that
tagged key, attempt), and it looks its slot key up in the chunk's sorted
tagged keys. Past the horizon no slot key is formed and no traffic is
drawn: each attempt there is busy with the class's mean busy chance
``p = 1 - success_rate`` of ``analytics.layout_metrics`` under the run's
arrival mode. So a request's busy attempts from its first one past the
horizon on are one geometric draw at ``p``, censored past the attempt cap
and at once when ``p`` is 1; only the coupling of two retries that land in
one slot past the horizon is lost, which the closed form ignores too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import analytics
from .model import (AllocationPlan, ArrivalMode, DeviceClass, Scenario, SharingTopology,
                    arrival_issues, pool_layout)


# Largest per-iteration working set that run_many() accepts, in array items,
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

# Largest tally that run_many() accepts, in bytes, checked before it is allocated:
# iterations times _Tally.bytes_per_iteration (88 with two classes, so about
# 12 M iterations). _summarize adds a few arrays of one class's iterations.
# A pass of several layouts holds as many tallies as fit in this together.
MAX_TALLY_BYTES = 2**30

# Seconds of fresh arrivals that one block stream serves: a block is
# max(1, BLOCK_SECONDS // horizon) iterations. One stream costs about 25 us to
# set up, so at horizon 1 a stream per iteration cost more than the draws.
BLOCK_SECONDS = 4096

# Requests sorted together in one collision chunk; at least one iteration.
# A call reuses its chunk arrays (see _Scratch), so larger chunks cost fewer
# numpy calls per request without faulting fresh pages in for every chunk.
# A pass shared by layouts (see _pass) holds each request's pick, which is
# its sort key, and the gaps between them, then the candidate pairs of _pairs:
# tracemalloc puts a 17-split sweep on dc1_dc2 at 200 s at 1.31 times the
# peak of one run with chunks of CHUNK_KEYS, and 0.73 times with half as many,
# which its chunks hold.
CHUNK_KEYS = 2**16

# Longest piece of a chunk that _collisions' temporaries cover: the index
# array of np.compress and the cells and repeats of the collided requests;
# and the raw draws of _sorted_picks.
PIECE_KEYS = 2**16

# Collided requests of one chunk, of every class, that the delay meter
# handles together. tracemalloc puts a slice's arrays at about 110 bytes per
# request, or 220 when retries can land inside the horizon, so 2**14 keeps
# them below 1.8 and 3.6 MB.
RETRY_KEYS = 2**14

# Fewest layouts dedicated in class order (see _pairs) that share a pass in
# one call. A shared pass costs more per chunk (a 64-bit sort of the picks
# and the candidate pairs) and less per layout (its floors on the candidates),
# in half-size chunks. In process, median of 9 calls after 4 warm-ups, median
# of three alternations: on dc1_dc2 at horizon 200, 20 iterations, two splits
# took 14.2 ms in lone passes and 11.5 ms in a shared one, three 20.7 ms and
# 11.3 ms, four 30.5 ms and 11.4 ms; dc123_qos's two dedicated plans, 3 000
# iterations, 47.6 ms and 37.4 ms. One split forced into a pass of the shared
# kind took 10.5 ms against 7.5 ms alone.
SHARED_PASS_LAYOUTS = 2

# Names the random-number layout described in the module docstring; a seed
# reproduces a report's numbers only under the same layout.
RNG_LAYOUT = "pcg64-block4096-splitmix64-v3"


class SimulationError(RuntimeError):
    """The simulation request is inconsistent with the scenario or config."""


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
    one at a time with SplitMix64's step (see ``_mix``)."""
    h = key
    for field in fields:
        h = np.bitwise_xor(h, field, dtype=np.uint64, casting="unsafe")
        _mix(h, np.empty_like(h))
    return h


def _mix(h: np.ndarray, spare: np.ndarray) -> None:
    """SplitMix64's step on the uint64 array ``h``, in place: add the
    increment, then finalise; ``spare``, of h's shape, takes the shifts."""
    h += 0x9E3779B97F4A7C15
    h ^= np.right_shift(h, 30, out=spare)
    h *= 0xBF58476D1CE4E5B9
    h ^= np.right_shift(h, 27, out=spare)
    h *= 0x94D049BB133111EB
    h ^= np.right_shift(h, 31, out=spare)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    if values.size == 0:
        return 0.0, 0.0
    if values.size == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _check_inputs(scenario: Scenario, config: SimConfig) -> float:
    horizon = config.horizon
    if issues := arrival_issues(scenario, config.arrival_mode):
        raise SimulationError(issues[0])
    per_iteration = _Tally.bytes_per_iteration(len(scenario.classes))
    if config.iterations * per_iteration > MAX_TALLY_BYTES:
        raise SimulationError(
            f"iterations {config.iterations} need {per_iteration} bytes each for their "
            f"tallies, over the simulator's limit of {MAX_TALLY_BYTES // per_iteration} "
            f"iterations ({MAX_TALLY_BYTES} bytes); lower iterations"
        )
    fresh = horizon * (len(scenario.classes) + sum(cls.ra_density for cls in scenario.classes))
    if fresh > MAX_ITEMS_PER_ITERATION:
        raise SimulationError(
            f"horizon {horizon} s needs about {fresh:.3g} requests and per-second "
            f"counts per iteration, over the simulator's limit of "
            f"{MAX_ITEMS_PER_ITERATION}; lower the horizon"
        )
    # a chunk's tagged keys span at most a block, and a retry probes only keys
    # inside the horizon. Passing implies total_raos < 2**51, so picks are exact.
    seconds = max(horizon, BLOCK_SECONDS) << (len(scenario.classes) - 1).bit_length()
    if seconds * scenario.total_raos >= 2**63:
        raise SimulationError(
            f"slot keys up to {seconds} x {scenario.total_raos}, class tag included, do not "
            f"fit in 64 bits; lower total_raos or the horizon"
        )
    # A counted delay is k <= min(max_attempts, 2**63) backoffs, so per-iteration means lie
    # in [0, longest]; iterations * longest**2 within half the float range keeps _mean_stderr's
    # sums of them and their squared deviations finite, as is any delay sum, <= 2**63 * longest.
    longest = float(min(config.max_attempts, 2**63)) * max(c.backoff for c in scenario.classes)
    limit = math.sqrt(sys.float_info.max / 2 / config.iterations)
    if config.measure_delay and longest > limit:
        raise SimulationError(
            f"delays up to {longest:.3g} s, max_attempts times the slowest backoff, pass the "
            f"{limit:.3g} s that the delay tallies of {config.iterations} iterations hold; "
            f"lower the backoff, max_attempts or iterations"
        )
    return fresh  # items of one iteration's working set


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

    @staticmethod
    def bytes_per_iteration(n_classes: int) -> int:
        """What ``zeros`` allocates per iteration: five 8-byte rows per
        class, and the events."""
        return 8 * (5 * n_classes + 1)

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
    """Simulate the scenario on one allocation: ``run_many`` on it alone."""
    return run_many(scenario, [allocation], config)[0]


def run_many(
    scenario: Scenario,
    allocations: Sequence[AllocationPlan | SharingTopology | None],
    config: SimConfig,
) -> list[SimStats]:
    """Simulate the scenario once per allocation, on the same arrivals, and
    measure collision statistics.

    Each allocation alone decides its pool layout, as in ``pool_layout``:
    None shares the whole pool, an AllocationPlan dedicates one block per
    class and a SharingTopology is used as given; the scenario's strategy
    is not read. With ``config.measure_delay`` set, per-class mean inclusive
    access delays are tracked as well, on every layout. Each layout's stats
    equal those of ``run`` on it alone, bitwise. Without delays, layouts
    dedicated in class order share passes when at least
    ``SHARED_PASS_LAYOUTS`` of them are given, as many per pass as
    ``MAX_TALLY_BYTES`` holds the tallies of; any other layout, and every
    layout of a call that measures delays, has a pass of its own. Raises
    SimulationError before any draw when one iteration would exceed
    ``MAX_ITEMS_PER_ITERATION``, a pass's tallies ``MAX_TALLY_BYTES``, a
    slot key int64, or max_attempts backoffs what the delay tallies hold
    finite.
    """
    config.validate()
    layouts = [pool_layout(scenario, allocation) for allocation in allocations]
    fresh = _check_inputs(scenario, config)
    classes = scenario.classes
    # positions as in the tags
    layouts = [SharingTopology({c.id: lay.ranges[c.id] for c in classes}) for lay in layouts]
    spans = [[r[0] for r in lay.ranges.values() if len(r) == 1] for lay in layouts]
    ordered = [k for k, s in enumerate(spans) if len(s) == len(classes)
               and all(a[1] < b[0] for a, b in zip(s, s[1:]))]  # dedicated in class order
    # a shared pass measures no delays. On one iteration, which a chunk holds
    # whole, it holds the picks and, per candidate pair (see _pairs), both
    # picks as doubles and each layout's products: tracemalloc puts its peak at
    # 44 bytes per fresh request when every pair is one, below four times
    # run()'s 13, so an iteration past a quarter of MAX_ITEMS_PER_ITERATION
    # runs alone.
    if (config.measure_delay or len(ordered) < SHARED_PASS_LAYOUTS
            or fresh > MAX_ITEMS_PER_ITERATION // 4):
        ordered = []
    per_pass = MAX_TALLY_BYTES // (config.iterations * _Tally.bytes_per_iteration(len(classes)))
    passes = [ordered[lo : lo + per_pass] for lo in range(0, len(ordered), per_pass)]
    lone = set(range(len(layouts))).difference(ordered)
    scratch = _Scratch()
    stats = {}
    for group in passes + [[k] for k in sorted(lone)]:
        stats.update(zip(group, _pass(scenario, [layouts[k] for k in group], config, scratch)))
    return [stats[k] for k in range(len(layouts))]


def _pass(scenario: Scenario, layouts: list[SharingTopology], config: SimConfig,
          scratch: _Scratch) -> list[SimStats]:
    """One pass over the arrivals with a tally per layout, in the caller's
    scratch arrays: a lone layout draws, sorts and scans its keys, and
    measures delays if asked; several, all dedicated in class order, share
    each chunk's sorted picks and their candidate pairs (see _pairs)."""
    classes = scenario.classes
    iters, horizon = config.iterations, config.horizon
    total_slots = scenario.total_raos
    span = horizon * total_slots  # slot keys per iteration
    tallies = [_Tally.zeros(len(classes), iters) for _ in layouts]
    pools = [[lay.size(c.id) for c in classes] for lay in layouts]
    smallest = [min(sizes) for sizes in zip(*pools)]  # per class
    scales = [np.array(pool, dtype=np.float64) * 2.0**-53 for pool in pools]
    measure = config.measure_delay and _delay_meter(scenario, layouts[0], config)
    per_block = max(1, BLOCK_SECONDS // horizon)
    limit = CHUNK_KEYS if len(layouts) == 1 else CHUNK_KEYS // 2
    for first in range(0, iters, per_block):
        n = min(per_block, iters - first)
        rngs = [_block_stream(config.seed, first // per_block, cls.id) for cls in classes]
        # the whole block's counts, so that a shorter run draws a prefix of a longer one
        counts = [
            _draw_counts(rng, cls, per_block * horizon, config.arrival_mode)[: n * horizon]
            for cls, rng in zip(classes, rngs)
        ]
        block = slice(first, first + n)
        for tally in tallies:
            tally.attempts[:, block] = [c.reshape(n, horizon).sum(axis=1) for c in counts]
        for lo, hi in _chunks(tallies[0].attempts[:, block].sum(axis=0), limit):
            chunk = slice(first + lo, first + hi)
            chunk_counts = [c[lo * horizon : hi * horizon] for c in counts]
            if len(layouts) > 1:
                picks = _sorted_picks(rngs, chunk_counts, scratch)
                pairs = _pairs(picks, chunk_counts, horizon, smallest, scratch)
                for tally, scale in zip(tallies, scales):
                    tally.collided[:, chunk], tally.events[chunk] = _pair_collisions(
                        pairs, scale, hi - lo)
                del picks, pairs  # freed before the next chunk's draws
            else:
                tally = tallies[0]
                tagged = _fresh_keys(layouts[0], classes, rngs, chunk_counts, total_slots, scratch)
                tagged.sort()
                collided, events, hits = _collisions(tagged, len(classes), span, hi - lo, scratch)
                tally.collided[:, chunk], tally.events[chunk] = collided, events
                if measure:
                    measure(hits, tagged, chunk, tally)
                del tagged, hits  # views that would pin old buffers while take grows them
    return [_summarize(classes, config, tally) for tally in tallies]


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
    for pos, (cls, rng, size) in enumerate(zip(classes, rngs, sizes)):
        picks, pool = keys[end : end + size], layout.size(cls.id)
        # doubles convert to int32 twice as fast as to uint32
        index = picks.view(np.int32) if dtype == np.uint32 and pool <= 2**31 else picks
        for lo in range(0, size, uniforms.size):
            part = index[lo : lo + uniforms.size]
            u = rng.random(out=uniforms[: part.size])
            u *= pool  # below 2**53, u * pool rounds below pool
            np.copyto(part, u, casting="unsafe")
        layout.rao_at(pos, picks, out=picks)
        end += size
    keys <<= tag_bits
    tags = np.arange(len(classes), dtype=dtype)[:, None]
    keys += np.repeat(np.arange(seconds, dtype=dtype) * stride + tags, np.ravel(counts))
    return keys


def _sorted_picks(rngs: Sequence[np.random.Generator], counts: Sequence[np.ndarray],
                  scratch: _Scratch) -> np.ndarray:
    """Draw a chunk's picks once for a pass, given each class's counts per
    second, continuing the classes' block streams, and sort them by (class
    position, second, pick) in the scratch's keys, which a lone pass of the
    call reuses. A pick is the 53-bit integer ``a`` that ``Generator.random``
    scales to ``u = a * 2**-53``: ``random_raw() >> 11`` is the same number
    and leaves the stream where ``random`` would. Runs of ``2**11`` seconds
    of a class are sorted on ``second << 53 | a``, which the picks keep."""
    picks = scratch.take("keys", np.uint64, sum(int(c.sum()) for c in counts))
    end = 0
    for rng, per_second in zip(rngs, counts):
        raw = rng.bit_generator.random_raw
        for lo in range(0, per_second.size, 2**11):
            group = per_second[lo : lo + 2**11]
            run = picks[end : end + group.sum()]
            end += run.size
            for piece in range(0, run.size, PIECE_KEYS):  # random_raw takes no out=
                part = run[piece : piece + PIECE_KEYS]
                np.right_shift(raw(part.size), 11, out=part)
            run |= np.repeat(np.arange(group.size, dtype=np.uint64) << 53, group)
            run.sort()
    return picks


def _pairs(picks: np.ndarray, counts: Sequence[np.ndarray], horizon: int,
           smallest: Sequence[int], scratch: _Scratch) -> tuple[np.ndarray, ...]:
    """The candidate pairs of a chunk's sorted picks (see ``_sorted_picks``)
    for layouts dedicated in class order whose smallest pool of the class at
    position c is ``smallest[c]``: the neighbours in one (class, second) run
    whose picks differ by at most ``(2**53 - 1) // S`` for that pool S.
    Return their lower and upper picks as doubles, whether each pair but the
    first follows the one before it (whose upper pick is its lower one), how
    many pairs each class has, and the non-empty (class, iteration) cells,
    ``class * iterations + iteration``, with the index of each one's first
    pair.

    In such a layout a class's picks take the RAOs ``first + floor(fl(u S))``
    of its pool of S, so two requests collide exactly when they are of one
    class and one second and their floors are equal; sorted by u, those are
    neighbours. If ``fl(u S)`` and ``fl(v S)``, for ``u <= v``, have one
    floor k, then ``v S - u S < 1``. Round-to-nearest puts u S at least
    halfway from k's predecessor p up to k, and v S at most halfway from
    k + 1's predecessor q up to k + 1, so ``v S - u S <= (1 + q - p) / 2 <=
    1``, as the doubles below k + 1 lie at least as far apart as those below
    k. Equality needs equal spacings s there, and ties that round up to k
    and down to q, so both even under ties-to-even; but then k and q lie in
    one binade and differ by 1 - s, an odd number of spacings for the
    ``k < S < 2**51`` that _check_inputs keeps. So the picks a and b of u
    and v have ``(b - a) S < 2**53``, which is ``b - a <= (2**53 - 1) // S``:
    a colliding pair can be that far apart, as when its lower product rounds
    up onto k."""
    ends = np.cumsum(np.concatenate(counts))  # of each (class, second) run
    seconds, size = counts[0].size, picks.size
    iterations = seconds // horizon
    close = scratch.take("hit", bool, max(0, size - 1))
    gaps = np.subtract(picks[1:], picks[:-1])  # wraps across runs, which are dropped
    lo = 0
    for hi, pool in zip(ends[seconds - 1 :: seconds], smallest):  # each class's picks
        np.less_equal(gaps[lo:hi], (2**53 - 1) // pool, out=close[lo:hi])
        lo = hi
    del gaps  # freed before the pairs are gathered
    close[ends[(ends > 0) & (ends < size)] - 1] = False  # pairs across runs
    lower = np.flatnonzero(close)
    follows = lower[1:] == lower[:-1] + 1
    # per (class, iteration) cell, the index of the first pair past its requests;
    # np.add.reduceat would give an empty cell the next cell's first pair
    stops = np.searchsorted(lower, ends[horizon - 1 :: horizon])
    firsts = np.concatenate(([0], stops[:-1]))
    cells = np.flatnonzero(stops > firsts)
    by_class = np.diff(stops[iterations - 1 :: iterations], prepend=0)
    low, high = (np.bitwise_and(picks[k:].take(lower), 2**53 - 1).astype(np.float64)
                 for k in (0, 1))
    return low, high, follows, by_class, cells, firsts[cells]


def _pair_collisions(pairs: tuple[np.ndarray, ...], scales: np.ndarray,
                     iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Per (class, iteration) the collided requests, and per iteration the
    slots holding two or more, of one layout dedicated in class order, whose
    classes' pools times ``2**-53`` are ``scales``, from a chunk's candidate
    pairs (see ``_pairs``). A pair collides when its picks' floors are
    equal; a slot of m requests holds m - 1 such pairs, of which one, its
    chain start, does not follow another of them, so its collided requests
    are its colliding pairs plus its chain start. Both masks are summed per
    non-empty cell, as bytes."""
    low, high, follows, by_class, cells, firsts = pairs
    scale = np.repeat(scales, by_class)
    top = high * scale  # fl(a * S 2**-53) == fl(u * S): both scalings are exact
    masks = np.empty((2, low.size), dtype=bool)
    equal, starts = masks
    # fl(low * S) <= fl(high * S), so their floors are equal when the
    # upper one's is at most the lower product
    np.less_equal(np.floor(top, out=top), np.multiply(low, scale, out=scale), out=equal)
    del top, scale  # freed before the sums' temporaries
    # a chain start is an equal pair that does not follow an equal one
    starts[:1] = False
    np.logical_and(equal[:-1], follows, out=starts[1:])
    np.greater(equal, starts, out=starts)
    sums = np.zeros((2, scales.size * iterations), dtype=np.int64)
    sums[:, cells] = np.add.reduceat(masks.view(np.uint8), firsts, axis=1, dtype=np.int64)
    equal, chains = sums.reshape(2, scales.size, iterations)
    return equal + chains, chains.sum(axis=0)


class _Scratch:
    """Arrays that one ``run_many`` call reuses from chunk to chunk and from
    pass to pass, so that no chunk faults fresh pages in. ``take`` returns a
    view of the first ``size`` items of a named buffer in ``dtype``. A buffer
    only grows, by at least an eighth, so that chunks of about the same size
    share it."""

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


def _chunks(sizes: np.ndarray, limit: int) -> Iterator[tuple[int, int]]:
    """Split consecutive iterations, holding ``sizes`` requests each, into
    (lo, hi) runs of about ``limit`` requests and at least one iteration."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < sizes.size:
        before = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, before + limit, "right")))
        yield lo, hi
        lo = hi


def _collisions(
    tagged: np.ndarray, n_classes: int, span: int, iterations: int, scratch: _Scratch
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Given a chunk's tagged slot keys, ascending, count per (class,
    iteration) the requests whose key another request of any class shares,
    and per iteration the slots holding two or more requests; return both
    and the tagged values of the collided requests, ascending. Sorting puts
    equal keys next to each other, so the work grows with the number of
    requests, not with the number of slots they pick from. The arrays as
    long as the chunk are the scratch's, and the collided values are a view
    of one of them; every other temporary holds at most ``PIECE_KEYS`` items."""
    tag_bits, size = (n_classes - 1).bit_length(), tagged.size
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
    """The delay measurement of one run, as a function that retries every
    collided request of one chunk, given the chunk's collided and all its
    tagged values, sorted, and the tally. It fills the chunk's delay sums,
    successes and censored requests in the tally; a success on attempt k
    took k backoff periods. The collided requests of every class are
    handled together, in slices of ``RETRY_KEYS`` values, so that no array
    grows with the chunk; a request's rank among equal values counts over
    the whole chunk, so the slices change no number. ``retry`` steps the
    attempts inside the horizon, and ``tail`` draws the rest at once."""
    horizon, total_slots, classes = config.horizon, scenario.total_raos, scenario.classes
    span, n_classes = horizon * total_slots, len(classes)
    tag_bits = (n_classes - 1).bit_length()
    metrics = analytics.layout_metrics(scenario, layout, config.arrival_mode)
    # per class, log p = log1p(-success): exact near saturation, -0.0 when all busy
    log_busy = np.log1p([-metrics[c.id].success_rate for c in classes])
    pools = np.array([layout.size(c.id) for c in classes], dtype=np.float64)
    scales = pools * 2.0**-53  # exact
    backoffs = np.array([c.backoff for c in classes])
    steps = backoffs < horizon  # t0 >= 0: only these classes retry inside the horizon
    attempt_cap = float(min(config.max_attempts, 2**63))  # max_attempts may pass the floats
    pick_keys = np.concatenate([_hash_key(config.seed, 1, c.id) for c in classes])

    def retry(pick, tags, keys, within, tagged):
        """Each request's successful attempt, or 0: one attempt of each per
        step inside the horizon, then ``tail`` from its first attempt past
        it, unless it succeeds or reaches the attempt cap before that."""
        second, rao = within // total_slots, within % total_slots
        # the time within a second follows the first RAO's position in the pool
        t0 = second + (layout.index_of(tags, rao) + 0.5) / pools[tags]
        done, first_past = np.zeros(pick.size), np.full(pick.size, np.inf)
        base = keys - within  # the iteration's first key in the chunk
        pending, attempt = np.arange(pick.size), 2
        while pending.size and attempt <= config.max_attempts:
            time = backoffs[tags[pending]] * float(attempt - 1) + t0[pending]
            past = time >= horizon
            first_past[pending[past]] = attempt
            pending, time = pending[~past], time[~past]
            position = (_hash(pick[pending], attempt) >> 11) * scales[tags[pending]]
            picked = layout.rao_at(tags[pending], position.astype(np.int64))
            probe = time.astype(np.int64) * total_slots + picked + base[pending]
            # the slot is busy when a tagged value holds its key; a retry into
            # its own first slot finds it busy without counting itself, since
            # only collided requests retry, so another request holds it too
            found = tagged.searchsorted((probe << tag_bits).astype(tagged.dtype))
            busy = tagged.take(found, mode="clip") >> tag_bits == probe
            done[pending[~busy]] = attempt
            pending = pending[busy]
            attempt += 1
        return tail(pick, tags, done, first_past)

    def tail(pick, tags, done, first_past):
        """Each request's successful attempt from ``first_past`` on, where
        it has one before the cap: ``first_past + floor(log u / log p)``
        for a uniform u in (0, 1] hashed from the pick's fields and 1, a
        field that no retry hashes, since attempt 1 is the fresh one."""
        u = ((_hash(pick, 1) >> 11) + 1) * 2.0**-53
        with np.errstate(divide="ignore", invalid="ignore"):  # log p = -0.0: inf or NaN, censored
            attempts = first_past + np.floor(np.log(u) / log_busy[tags])
        return np.where(attempts <= attempt_cap, attempts, done)

    def measure(hits, tagged, chunk, tally):
        n = chunk.stop - chunk.start
        # the pick hashes' first fields, class and iteration, folded once:
        # _hash(k, a, b) == _hash(_hash(k, a), b)
        pick_heads = _hash(pick_keys[:, None], np.arange(chunk.start, chunk.stop)).ravel()
        sums = np.zeros(n_classes * n)
        successes = np.zeros(n_classes * n, dtype=np.int64)
        for lo in range(0, hits.size, RETRY_KEYS):
            part = hits[lo : lo + RETRY_KEYS]
            tags = (part & ((1 << tag_bits) - 1)).astype(np.int64)
            keys = (part >> tag_bits).astype(np.int64)
            iteration = keys // span
            within = keys - iteration * span
            cells = tags * n + iteration
            # the rank counts the requests in the whole chunk with this tagged
            # value: its position less that of the first of them
            index = np.arange(lo, lo + part.size)
            first = np.where(np.r_[True, part[1:] != part[:-1]], index, 0)
            first[0] = hits.searchsorted(part[0])
            rank = index - np.maximum.accumulate(first)
            pick = _hash(pick_heads[cells], within, rank)
            done = tail(pick, tags, 0.0, 2.0)  # attempt 2 is past the horizon ...
            inside = np.flatnonzero(steps[tags])  # ... save in classes with a shorter backoff
            if inside.size:
                done[inside] = retry(
                    pick[inside], tags[inside], keys[inside], within[inside], tagged
                )
            sums += np.bincount(cells, weights=done, minlength=sums.size)  # whole numbers
            successes += np.bincount(cells[done > 0], minlength=successes.size)
        sums, successes = sums.reshape(n_classes, n), successes.reshape(n_classes, n)
        collided = tally.collided[:, chunk]
        first_ok = tally.attempts[:, chunk] - collided
        tally.delay_sums[:, chunk] = (sums + first_ok) * backoffs[:, None]
        tally.delay_counts[:, chunk] = successes + first_ok
        tally.censored[:, chunk] = collided - successes

    return measure
