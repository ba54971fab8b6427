import dataclasses
import functools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rachopt import simulator
from rachopt.analytics import layout_metrics
from rachopt.model import (
    AllocationPlan,
    DeviceClass,
    Scenario,
    SharingTopology,
    Strategy,
    pool_layout,
    validate_scenario,
)
from rachopt.simulator import (
    ArrivalMode,
    SimConfig,
    SimulationError,
    _collisions,
    _fresh_keys,
    _Scratch,
    run,
    run_many,
)

from conftest import make_scenario
from oracles import simple_collision_rate, uniform


def single_class_scenario(
    gamma=None, population=None, rate=None, total=100, backoff=1.0
):
    cls = DeviceClass(
        id=1,
        ra_density=gamma,
        population=population,
        per_device_rate=rate,
        backoff=backoff,
    )
    return validate_scenario(
        Scenario(classes=(cls,), total_raos=total, strategy=Strategy.FULL_DEDICATION)
    )


BERNOULLI = SimConfig(
    iterations=50, seed=1, arrival_mode=ArrivalMode.PER_DEVICE_BERNOULLI
)


class TestDegenerateLoads:
    def test_single_request_never_collides(self):
        # one device attempting every second: nobody to collide with
        scenario = single_class_scenario(population=1, rate=1.0)
        stats = run(scenario, AllocationPlan({1: 100}), BERNOULLI)
        assert stats.per_class[1].attempts == 50
        assert stats.per_class[1].collided == 0
        assert stats.per_class[1].collision_rate == 0.0
        assert stats.total_density == 0.0

    def test_two_requests_one_slot_always_collide(self):
        scenario = single_class_scenario(population=2, rate=1.0, total=1)
        stats = run(scenario, AllocationPlan({1: 1}), BERNOULLI)
        assert stats.per_class[1].collision_rate == 1.0
        assert stats.per_class[1].collision_density == 2.0
        assert stats.event_density == 1.0

    def test_colliding_requests_come_in_groups(self):
        scenario = make_scenario((1, 2))
        stats = run(scenario, AllocationPlan({1: 100, 2: 200}), SimConfig(iterations=20, seed=3))
        assert stats.per_class[1].collided <= stats.per_class[1].attempts
        assert stats.total_density >= 2.0 * stats.event_density - 1e-12


def dense_collisions(keys_by_class):
    """Reference for the sorted kernel: per-class collided flags and the
    keys of the slots holding two or more requests, read from one dense
    occupancy count over every slot up to the largest key."""
    occupancy = np.bincount(np.concatenate(keys_by_class))
    flags = [occupancy[keys] >= 2 for keys in keys_by_class]
    return flags, np.flatnonzero(occupancy >= 2)


class_keys = st.lists(st.integers(0, 60), max_size=40).map(
    lambda keys: np.array(keys, dtype=np.int64)
)

SPAN = 16  # slot keys per iteration: keys up to 60 fall into four iterations


def assert_kernel_output(keys_by_class, flags_by_class, span, iterations, output):
    """Check ``_collisions``' output against each class's collided flags,
    given in the order of its int64 keys."""
    collided, events, hits = output
    tag_bits = (len(keys_by_class) - 1).bit_length()
    assert collided.tolist() == [
        np.bincount(keys[flags] // span, minlength=iterations).tolist()
        for keys, flags in zip(keys_by_class, flags_by_class)
    ]
    shared = np.unique(np.concatenate([k[f] for k, f in zip(keys_by_class, flags_by_class)]))
    assert events.tolist() == np.bincount(shared // span, minlength=iterations).tolist()
    for pos, (keys, flags) in enumerate(zip(keys_by_class, flags_by_class)):
        mine = hits[(hits & ((1 << tag_bits) - 1)) == pos] >> tag_bits
        assert mine.tolist() == sorted(keys[flags].tolist())


class TestCollisionKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(class_keys, min_size=1, max_size=4))
    @example([np.array([], dtype=np.int64)])  # an iteration with no request
    @example([np.array([], dtype=np.int64), np.array([], dtype=np.int64)])
    @example([np.array([7], dtype=np.int64), np.array([], dtype=np.int64)])  # one request
    @example([np.array([3, 3, 3], dtype=np.int64), np.array([3], dtype=np.int64)])  # one slot
    def test_matches_dense_occupancy(self, keys_by_class):
        tag_bits = (len(keys_by_class) - 1).bit_length()
        dense_flags, _ = dense_collisions(keys_by_class)
        for dtype in (np.uint32, np.int64):
            tagged = np.concatenate([(k << tag_bits) | p for p, k in enumerate(keys_by_class)])
            # the kernel takes the keys ascending, whatever the order of the requests
            tagged = np.sort(tagged[::-1].astype(dtype))
            output = _collisions(tagged, len(keys_by_class), SPAN, 4, _Scratch())
            assert tagged.tolist() == sorted(tagged.tolist())  # and leaves them so
            assert_kernel_output(keys_by_class, dense_flags, SPAN, 4, output)

    @pytest.mark.parametrize("n_classes", [1, 2, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    def test_keys_at_the_uint32_limit(self, n_classes, offset):
        # two one-second iterations whose tagged range ends just below 2**32,
        # at it, or past it, with every pool at the top of the RAOs: a wrong
        # dtype choice wraps the keys or overflows the iteration stride
        tag_bits = (n_classes - 1).bit_length()
        total = (2**31 >> tag_bits) + offset
        ranges = {pos: [(total - 4 - pos, total - 1)] for pos in range(n_classes)}
        layout = SharingTopology.from_ranges(ranges)
        classes = [DeviceClass(id=pos, ra_density=1.0) for pos in range(n_classes)]
        counts = [np.array([5, 4 + pos]) for pos in range(n_classes)]
        rngs = [np.random.default_rng(pos) for pos in range(n_classes)]
        scratch = _Scratch()
        tagged = _fresh_keys(layout, classes, rngs, counts, total, scratch)
        assert tagged.dtype == (np.uint32 if offset < 0 else np.int64)
        keys_by_class = []
        for pos, c in enumerate(counts):
            u = np.random.default_rng(pos).random(int(c.sum()))
            rao = total - 4 - pos + (u * (4 + pos)).astype(np.int64)
            keys_by_class.append(np.repeat(np.arange(c.size), c) * total + rao)
        values, occupancy = np.unique(np.concatenate(keys_by_class), return_counts=True)
        flags_by_class = [np.isin(keys, values[occupancy >= 2]) for keys in keys_by_class]
        assert any(f.any() for f in flags_by_class)
        tagged.sort()
        output = _collisions(tagged, n_classes, total, 2, scratch)
        assert_kernel_output(keys_by_class, flags_by_class, total, 2, output)

    def test_pool_past_int32_picks_every_rao(self):
        # a uint32 chunk whose pool holds more than 2**31 RAOs: its positions
        # do not fit in int32, and picks still map floor(u * size)
        total = 2**32 - 1
        layout = SharingTopology.from_ranges({1: [(0, total - 1)]})
        classes = [DeviceClass(id=1, ra_density=1.0)]
        counts = [np.array([50])]
        tagged = _fresh_keys(
            layout, classes, [np.random.default_rng(4)], counts, total, _Scratch()
        )
        expected = (np.random.default_rng(4).random(50) * total).astype(np.int64)
        assert tagged.dtype == np.uint32
        assert tagged.tolist() == expected.tolist()
        assert tagged.max() >= 2**31

    @pytest.mark.parametrize("n_classes", [1, 2, 3])
    def test_uint32_and_int64_chunks_agree(self, monkeypatch, n_classes):
        # one-iteration chunks just fit in uint32; one chunk per block needs
        # int64. Chunks of about one and a half iterations hold one iteration
        # or more, so that consecutive chunks of one run differ in length and
        # switch between uint32 and int64 in both directions, each reusing the
        # buffers that the chunks before it sized. Retries land inside the
        # horizon, at keys near 2**32.
        tag_bits = (n_classes - 1).bit_length()
        total = (2**31 >> tag_bits) - 1
        classes = tuple(
            DeviceClass(id=pos + 1, ra_density=1.0 + pos, backoff=0.3) for pos in range(n_classes)
        )
        scenario = validate_scenario(
            Scenario(classes=classes, total_raos=total, strategy=Strategy.FULL_SHARING)
        )
        top = SharingTopology.from_ranges({c.id: [(total - 6, total - 1)] for c in classes})
        config = SimConfig(iterations=40, seed=3, horizon=2, measure_delay=True, max_attempts=4)
        chunks = []

        def spy(tagged, *args):
            chunks.append((tagged.dtype, tagged.size))
            return _collisions(tagged, *args)

        monkeypatch.setattr(simulator, "_collisions", spy)
        per_iteration = sum(c.ra_density for c in classes) * config.horizon
        stats, seen = {}, {}
        for name, chunk_keys in [("narrow", 1), ("mixed", int(1.5 * per_iteration)),
                                 ("wide", 2**62)]:
            chunks.clear()
            monkeypatch.setattr(simulator, "CHUNK_KEYS", chunk_keys)
            stats[name] = run(scenario, top, config)
            seen[name] = list(chunks)
        assert {dtype for dtype, _ in seen["narrow"] + seen["wide"]} == {
            np.dtype(np.uint32), np.dtype(np.int64)
        }
        switches = {(a[0], b[0]) for a, b in zip(seen["mixed"], seen["mixed"][1:])}
        assert {(np.dtype(np.uint32), np.dtype(np.int64)),
                (np.dtype(np.int64), np.dtype(np.uint32))} <= switches
        assert len({size for _, size in seen["mixed"]}) > 2
        assert stats["narrow"] == stats["mixed"] == stats["wide"]
        assert all(s.collided > 0 and s.mean_delay > 0.3 for s in stats["wide"].per_class.values())


class TestPairKernel:
    """The shared pass's kernel (``_sorted_picks``, ``_pairs`` and
    ``_pair_collisions``) on hand-built integer picks."""

    # (pool, a): a * 2**-53 * pool rounds up onto a slot edge k
    EDGE_PICKS = [(3, 6004799503160661), (600, 345275971431738), (10799, 45874243819868),
                  (2**20 + 1, 70377266995264)]

    def test_bound_keeps_a_pair_rounded_onto_a_slot_edge(self):
        # one class per pool, each with two picks in one second, (2**53 - 1) // pool
        # apart: the farthest two picks that can share a slot. They share slot k
        # because the lower product rounds up onto k, so a bound one smaller
        # loses the pair
        pools = [pool for pool, _ in self.EDGE_PICKS]
        picks = []
        for pool, a in self.EDGE_PICKS:
            b = a + (2**53 - 1) // pool
            k = -(-a * pool // 2**53)
            assert a * pool < k * 2**53  # the exact product lies below the edge
            products = [np.float64(pick) * 2.0**-53 * pool for pick in (a, b)]
            assert products[0] == k and math.floor(products[1]) == k
            picks += [a, b]
        counts = [np.array([2]) for _ in pools]
        pairs = simulator._pairs(np.array(picks, dtype=np.uint64), counts, 1, pools, _Scratch())
        scales = np.array(pools, dtype=np.float64) * 2.0**-53
        collided, events = simulator._pair_collisions(pairs, scales, 1)
        assert pairs[0].size == len(pools)
        assert collided.ravel().tolist() == [2] * len(pools)
        assert events.tolist() == [len(pools)]

    def test_integer_picks_continue_the_stream(self):
        # _sorted_picks draws random_raw() >> 11, the integers that random()
        # scales by 2**-53, and the stream must go on as after random(): a numpy
        # that broke either would change the picks of RNG_LAYOUT
        raw, scaled = (simulator._block_stream(7, 3, 2) for _ in range(2))
        assert raw.poisson(5.0, size=11).tolist() == scaled.poisson(5.0, size=11).tolist()
        picks = raw.bit_generator.random_raw(1001) >> 11
        assert picks.tolist() == (scaled.random(1001) * 2.0**53).astype(np.uint64).tolist()
        assert raw.poisson(5.0, size=50).tolist() == scaled.poisson(5.0, size=50).tolist()


def reference_run(scenario, allocation, config):
    """Plain per-iteration, per-request engine over the simulator's random
    streams and hash helpers: each iteration slices its seconds out of its
    block's counts, continues the block stream's picks through the pool's
    slot array, counts collisions densely, and retries one request at a time."""
    layout = pool_layout(scenario, allocation)
    classes = scenario.classes
    slots = {
        cls.id: np.concatenate([np.arange(a, b + 1) for a, b in layout.ranges[cls.id]])
        for cls in classes
    }
    horizon, total = config.horizon, scenario.total_raos
    tally = simulator._Tally.zeros(len(classes), config.iterations)
    per_block = max(1, simulator.BLOCK_SECONDS // horizon)
    for it in range(config.iterations):
        block, offset = divmod(it, per_block)
        if offset == 0:
            rngs = [simulator._block_stream(config.seed, block, cls.id) for cls in classes]
            counts = [
                simulator._draw_counts(rng, cls, per_block * horizon, config.arrival_mode)
                for cls, rng in zip(classes, rngs)
            ]
        keys_by_class = []
        for cls, rng, block_counts in zip(classes, rngs, counts):
            c = block_counts[offset * horizon : (offset + 1) * horizon]
            picks = (rng.random(int(c.sum())) * slots[cls.id].size).astype(np.int64)
            keys_by_class.append(np.repeat(np.arange(horizon), c) * total + slots[cls.id][picks])
        flags_by_class, event_keys = dense_collisions(keys_by_class)
        tally.events[it] = event_keys.size
        for pos, (keys, flags) in enumerate(zip(keys_by_class, flags_by_class)):
            tally.attempts[pos, it] = keys.size
            tally.collided[pos, it] = np.count_nonzero(flags)
        if config.measure_delay:
            occupancy = np.bincount(np.concatenate(keys_by_class), minlength=horizon * total)
            for pos, (cls, keys, flags) in enumerate(zip(classes, keys_by_class, flags_by_class)):
                sums, done, censored = reference_delays(
                    scenario, cls, slots, occupancy, keys[flags], config, it
                )
                n_first = int(np.count_nonzero(~flags))
                tally.delay_sums[pos, it] = (n_first + sums) * cls.backoff
                tally.delay_counts[pos, it] = n_first + done
                tally.censored[pos, it] = censored
    return simulator._summarize(classes, config, tally)


def log_free_chance(scenario, slots, rao, mode):
    """Log of the chance that fresh arrivals leave one slot of RAO ``rao``
    free in a second, summed over the classes whose slot arrays hold it, in
    class order."""
    log_free = 0.0
    for cls in scenario.classes:
        if rao in slots[cls.id]:
            size = slots[cls.id].size
            if mode == ArrivalMode.POISSON_AGGREGATE:
                log_free += -cls.ra_density / size
            else:
                log_free += cls.coordinators * np.log1p(-cls.per_device_rate / size)
    return log_free


def reference_delays(scenario, cls, slots, occupancy, firsts, config, iteration):
    """Retries of one class's collided requests in one iteration, one
    request at a time, in request order. Inside the horizon each attempt
    looks its slot up in the dense occupancy; from the first attempt past
    it, the busy attempts before the success are one geometric draw at the
    class's busy chance averaged over its slots. Returns the summed attempts
    of the successes, their number and the censored count."""
    total, horizon = scenario.total_raos, config.horizon
    pool = slots[cls.id]
    with np.errstate(divide="ignore"):
        log_free = [log_free_chance(scenario, slots, rao, config.arrival_mode) for rao in pool]
    log_busy = np.log1p(-np.exp(log_free).mean())
    pick_key = simulator._hash_key(config.seed, 1, cls.id)
    attempt_sum = done = censored = 0
    for n, k0 in enumerate(firsts.tolist()):
        rank = firsts[:n].tolist().count(k0)
        t0 = k0 // total + (np.searchsorted(pool, k0 % total) + 0.5) / pool.size
        pick = simulator._hash(pick_key, iteration, k0, rank)
        success = None
        for attempt in range(2, config.max_attempts + 1):
            when = t0 + (attempt - 1) * cls.backoff
            if when >= horizon:
                u = uniform(pick, 1) + 2.0**-53  # in (0, 1]
                with np.errstate(divide="ignore", invalid="ignore"):
                    last = attempt + np.floor(np.log(u) / log_busy)[0]
                success = last if last <= config.max_attempts else None
                break
            rao = int(pool[int(uniform(pick, attempt)[0] * pool.size)])
            key = math.floor(when) * total + rao
            if occupancy[key] - (key == k0) == 0:
                success = attempt
                break
        if success is None:
            censored += 1
        else:
            attempt_sum += success
            done += 1
    return attempt_sum, done, censored


def _light_cell(strategy, backoffs=(1.0, 1.0), populations=None, total=40):
    # 10 requests per second in all: at horizon 700, about 7 000 requests per
    # iteration, so the default chunk holds two iterations of a five-iteration block
    rates = (4.0, 6.0)
    classes = tuple(
        DeviceClass(
            id=cid,
            ra_density=None if populations else rate,
            population=populations[cid - 1] if populations else None,
            per_device_rate=rate / populations[cid - 1] if populations else None,
            backoff=backoff,
        )
        for cid, rate, backoff in zip((1, 2), rates, backoffs)
    )
    return validate_scenario(Scenario(classes=classes, total_raos=total, strategy=strategy))


OVERLAP = SharingTopology.from_ranges({1: [(0, 24)], 2: [(15, 39)]})


def _splits(scenario, class_index, values):
    """Plans of a two-class sweep: the swept class gets each value, the other
    class the rest of the pool."""
    swept, other = scenario.classes[class_index], scenario.classes[1 - class_index]
    return [AllocationPlan({swept.id: v, other.id: scenario.total_raos - v}) for v in values]


# 17 iterations of 700 s: blocks of five iterations, and the run ends two
# iterations into its fourth block
REFERENCE_CASES = {
    "poisson-plan": lambda: (
        _light_cell(Strategy.FULL_DEDICATION),
        AllocationPlan({1: 15, 2: 25}),
        SimConfig(iterations=17, seed=3, horizon=700),
    ),
    "bernoulli-partial": lambda: (
        _light_cell(Strategy.PARTIAL_DEDICATION, populations=(400, 600)),
        OVERLAP,
        SimConfig(
            iterations=17, seed=4, horizon=700,
            arrival_mode=ArrivalMode.PER_DEVICE_BERNOULLI,
        ),
    ),
    "delay-partial": lambda: (
        _light_cell(Strategy.PARTIAL_DEDICATION, backoffs=(0.5, 3.0)),
        OVERLAP,
        SimConfig(iterations=17, seed=5, horizon=700, measure_delay=True, max_attempts=5),
    ),
    # horizon 1: many iterations without a class-1 request, and about half
    # the retries collide, so the last of three attempts is often reached
    "delay-shared-horizon-1": lambda: (
        validate_scenario(
            Scenario(
                classes=(DeviceClass(id=1, ra_density=0.5), DeviceClass(id=2, ra_density=20.0)),
                total_raos=30,
                strategy=Strategy.FULL_SHARING,
            )
        ),
        None,
        SimConfig(iterations=40, seed=6, measure_delay=True, max_attempts=3),
    ),
    # few coordinators on 5-RAO pools, so (1 - q/L)^N is far from
    # exp(-N q/L), and most retries draw their busy attempts past the horizon
    "delay-bernoulli-partial": lambda: (
        validate_scenario(
            Scenario(
                classes=(
                    DeviceClass(id=1, population=6, per_device_rate=0.5, backoff=0.5),
                    DeviceClass(id=2, population=10, per_device_rate=0.6, backoff=3.0),
                ),
                total_raos=8,
                strategy=Strategy.PARTIAL_DEDICATION,
            )
        ),
        SharingTopology.from_ranges({1: [(0, 4)], 2: [(3, 7)]}),
        SimConfig(
            iterations=200, seed=7, measure_delay=True, max_attempts=4,
            arrival_mode=ArrivalMode.PER_DEVICE_BERNOULLI,
        ),
    ),
    # three classes, so two tag bits: class 1 picks from two disjoint ranges,
    # and the overlaps give every class runs of different occupancy chances;
    # at horizon 3 the 0.5 s and 1 s backoffs retry inside it
    "delay-three-classes-split": lambda: (
        validate_scenario(
            Scenario(
                classes=(
                    DeviceClass(id=1, ra_density=4.0, backoff=0.5),
                    DeviceClass(id=2, ra_density=8.0, backoff=1.0),
                    DeviceClass(id=3, ra_density=6.0, backoff=3.0),
                ),
                total_raos=30,
                strategy=Strategy.PARTIAL_DEDICATION,
            )
        ),
        SharingTopology.from_ranges({1: [(0, 4), (20, 24)], 2: [(3, 19)], 3: [(10, 29)]}),
        SimConfig(iterations=30, seed=9, horizon=3, measure_delay=True, max_attempts=6),
    ),
    # 60 Hz on one RAO fills it for sure, so class 1's retries past the
    # horizon are censored at once, while class 2 beside it keeps retrying
    "delay-saturated-beside-free": lambda: (
        validate_scenario(
            Scenario(
                classes=(
                    DeviceClass(id=1, ra_density=60.0, backoff=0.5),
                    DeviceClass(id=2, ra_density=10.0, backoff=1.0),
                ),
                total_raos=21,
                strategy=Strategy.FULL_DEDICATION,
            )
        ),
        AllocationPlan({1: 1, 2: 20}),
        SimConfig(iterations=20, seed=10, horizon=2, measure_delay=True, max_attempts=8),
    ),
    # no retry: every collided request is censored at once
    "delay-one-attempt": lambda: (
        _light_cell(Strategy.FULL_SHARING),
        None,
        SimConfig(iterations=30, seed=11, measure_delay=True, max_attempts=1),
    ),
}


@functools.cache
def reference_stats(case):
    return reference_run(*REFERENCE_CASES[case]())


class TestReferenceEngine:
    # "uneven": two 700 s iterations of the light cells hold about 14 000
    # requests, so chunks of one and two iterations follow each other
    @pytest.mark.parametrize("chunk_keys", [1, 14_000, simulator.CHUNK_KEYS, 2**62],
                             ids=["per-iteration", "uneven", "default", "per-block"])
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_run_equals_per_iteration_loop(self, monkeypatch, case, chunk_keys):
        scenario, allocation, config = REFERENCE_CASES[case]()
        monkeypatch.setattr(simulator, "CHUNK_KEYS", chunk_keys)
        assert run(scenario, allocation, config) == reference_stats(case)

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_pieces_split_chunks(self, monkeypatch, case):
        # pieces of 97 requests split the copy of the collided keys, and
        # their cells and repeats, at odd places
        scenario, allocation, config = REFERENCE_CASES[case]()
        monkeypatch.setattr(simulator, "PIECE_KEYS", 97)
        assert run(scenario, allocation, config) == reference_stats(case)

    @pytest.mark.parametrize("case", ["delay-shared-horizon-1", "delay-bernoulli-partial"])
    def test_retry_slices_split_shared_slots(self, monkeypatch, case):
        # slices of three collided requests cut through pairs of one class's
        # requests in one slot; their ranks still count over the whole chunk
        scenario, allocation, config = REFERENCE_CASES[case]()
        monkeypatch.setattr(simulator, "RETRY_KEYS", 3)
        assert run(scenario, allocation, config) == reference_stats(case)

    @pytest.mark.parametrize(
        "case", ["delay-three-classes-split", "delay-saturated-beside-free", "delay-one-attempt"]
    )
    def test_merged_retries_in_short_slices(self, monkeypatch, case):
        # every class retries in one loop; slices of three collided values
        # mix the classes and cut through shared slots
        scenario, allocation, config = REFERENCE_CASES[case]()
        monkeypatch.setattr(simulator, "RETRY_KEYS", 3)
        assert run(scenario, allocation, config) == reference_stats(case)

    def test_reference_cases_exercise_the_merged_loop(self):
        split = reference_stats("delay-three-classes-split")
        assert all(s.collided and s.mean_delay is not None for s in split.per_class.values())
        saturated = reference_stats("delay-saturated-beside-free")
        assert saturated.per_class[1].censored == saturated.per_class[1].collided > 0
        assert saturated.per_class[2].censored < saturated.per_class[2].collided
        once = reference_stats("delay-one-attempt")
        assert all(s.censored == s.collided > 0 for s in once.per_class.values())

    def test_fresh_statistics_do_not_depend_on_delays(self):
        scenario = make_scenario((1, 2), strategy=Strategy.PARTIAL_DEDICATION)
        topology = SharingTopology.from_ranges({1: [(0, 5399)], 2: [(2700, 10799)]})
        off = run(scenario, topology, SimConfig(iterations=30, seed=8))
        on = run(scenario, topology, SimConfig(iterations=30, seed=8, measure_delay=True))
        fresh = ("attempts", "collided", "collision_rate", "rate_stderr",
                 "collision_density", "density_stderr")
        for cid in (1, 2):
            assert [getattr(on.per_class[cid], f) for f in fresh] == [
                getattr(off.per_class[cid], f) for f in fresh
            ]
        assert (on.event_density, on.event_density_stderr) == (
            off.event_density, off.event_density_stderr
        )
        assert on.per_class[1].mean_delay is not None and off.per_class[1].mean_delay is None


class TestMemory:
    def test_peak_grows_with_requests_not_slots(self):
        # 1 Hz on 10 800 RAOs over 2 000 s: about 2 000 requests in 21.6 M
        # slots, which a dense int64 count would hold in 173 MB
        scenario = single_class_scenario(gamma=1.0, total=10800)
        config = SimConfig(iterations=2, seed=5, horizon=2000)
        tracemalloc.start()
        try:
            stats = run(scenario, AllocationPlan({1: 10800}), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.per_class[1].attempts > 3000
        assert peak < 2 * 2**20

    def test_delay_peak_grows_with_requests_not_slots(self):
        # 1 Hz on 10 800 RAOs with backoff 400: retries reach 10 000 s past
        # the horizon, 108 M slots that no array may hold
        scenario = single_class_scenario(gamma=1.0, total=10800, backoff=400.0)
        config = SimConfig(iterations=2, seed=5, measure_delay=True)
        tracemalloc.start()
        try:
            stats = run(scenario, AllocationPlan({1: 10800}), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.per_class[1].mean_delay is not None
        assert peak < 4 * 2**20


    @pytest.mark.parametrize("dtype", [np.uint32, np.int64], ids=["uint32", "int64"])
    @pytest.mark.parametrize("saturated", [False, True], ids=["sparse", "saturated"])
    @pytest.mark.parametrize("n_classes", [1, 3])
    def test_peak_bytes_per_request(self, monkeypatch, n_classes, saturated, dtype):
        # the per-request peak that MAX_ITEMS_PER_ITERATION's comment states,
        # on one 1.5 M-request iteration, which one chunk holds whole: the
        # pools span 2**28 or 2**32 tagged values per second, for uint32 or
        # int64 keys, and a saturated cell puts each class on one RAO
        requests = 1_500_000
        tag_bits = (n_classes - 1).bit_length()
        total = (2**28 if dtype == np.uint32 else 2**32) >> tag_bits
        classes = tuple(
            DeviceClass(id=pos + 1, ra_density=requests / n_classes) for pos in range(n_classes)
        )
        scenario = validate_scenario(
            Scenario(classes=classes, total_raos=total, strategy=Strategy.PARTIAL_DEDICATION)
        )
        ranges = {c.id: [(pos, pos) if saturated else (0, total - 1)]
                  for pos, c in enumerate(classes)}
        dtypes = set()

        def spy(tagged, *args):
            dtypes.add(tagged.dtype)
            return _collisions(tagged, *args)

        monkeypatch.setattr(simulator, "_collisions", spy)
        tracemalloc.start()
        try:
            stats = run(scenario, SharingTopology.from_ranges(ranges), SimConfig(iterations=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        attempts = sum(s.attempts for s in stats.per_class.values())
        collided = sum(s.collided for s in stats.per_class.values())
        assert dtypes == {np.dtype(dtype)}
        assert collided == attempts if saturated else collided < 0.03 * attempts
        assert peak / attempts < (13 if dtype == np.uint32 else 25)

    @pytest.mark.parametrize("saturated", [False, True], ids=["sparse", "saturated"])
    def test_shared_peak_bytes_per_request(self, monkeypatch, saturated):
        # the per-request peak of a shared pass that run_many's comment states,
        # on one 1.5 M-request iteration of three classes in three dedicated
        # layouts: with one or two RAOs per class every pair of neighbours in
        # one second is a candidate, and on 2**24 RAOs about 6 % of them
        requests = 1_500_000
        classes = tuple(DeviceClass(id=pos + 1, ra_density=requests / 3) for pos in range(3))
        sizes = ([(1, 1, 1), (1, 2, 1), (2, 1, 1)] if saturated
                 else [(2**24 - k, 2**24, 2**24) for k in range(3)])
        scenario = validate_scenario(Scenario(
            classes=classes, total_raos=3 * 2**24, strategy=Strategy.PARTIAL_DEDICATION
        ))
        layouts = [SharingTopology.from_ranges(
            {1: [(0, a - 1)], 2: [(a, a + b - 1)], 3: [(a + b, a + b + c - 1)]}
        ) for a, b, c in sizes]
        passes = TestSweep.spy_on_passes(monkeypatch)
        tracemalloc.start()
        try:
            stats = run_many(scenario, layouts, SimConfig(iterations=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        attempts = sum(s.attempts for s in stats[0].per_class.values())
        collided = sum(s.collided for s in stats[0].per_class.values())
        assert [size for size, _ in passes] == [3]
        assert collided == attempts if saturated else collided < 0.05 * attempts
        assert peak / attempts < 52

    def test_run_peak_holds_no_buffer_twice(self):
        # a chunk's views of the scratch's buffers are released before the
        # next chunk grows them: on dc1_dc2 at 200 s, run's peak measured
        # 911 KB, and 1 136 KB while the views kept the old buffers alive.
        # A first run makes the one-time allocations.
        scenario = make_scenario((1, 2))
        config = SimConfig(iterations=20, seed=5, horizon=200)
        plan = AllocationPlan({1: 3600, 2: 7200})
        run(scenario, plan, config)
        tracemalloc.start()
        try:
            run(scenario, plan, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_sweep_peak_stays_near_one_run(self):
        # a sweep's pass holds every split's tally and a shared chunk's
        # integer picks, with no slot keys, in chunks half as long as a
        # run's: on dc1_dc2 at 200 s its peak over 17 splits measured 0.73
        # times that of one run. A first sweep makes the one-time allocations.
        scenario = make_scenario((1, 2))
        config = SimConfig(iterations=20, seed=5, horizon=200)
        plans = _splits(scenario, 0, range(600, 10201, 600))
        run_many(scenario, plans, config)
        peaks = []
        for call in (lambda: run(scenario, AllocationPlan({1: 3600, 2: 7200}), config),
                     lambda: run_many(scenario, plans, config)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_retry_state_does_not_grow_with_the_chunk(self):
        # 30 requests per RAO: all of one 1 M-request iteration, which one
        # chunk holds whole, collide and stay pending until the attempt cap,
        # yet the retries of every class share slices of RETRY_KEYS; retry
        # state sized by the chunk would hold over 150 bytes per request
        requests = 1_000_000
        scenario = single_class_scenario(gamma=float(requests), total=requests // 30)
        config = SimConfig(iterations=1, seed=1, measure_delay=True, max_attempts=3)
        tracemalloc.start()
        try:
            stats = run(scenario, AllocationPlan({1: requests // 30}), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cls = stats.per_class[1]
        assert cls.censored == cls.collided == cls.attempts > 0.99 * requests
        assert peak / cls.attempts < 14

    def test_past_horizon_retries_add_nothing_to_the_peak(self):
        # the cell above, whose retries all land past the horizon: their
        # geometric draws take no retry state, so delays leave run()'s peak
        # within 0.05 bytes per request of that of the fresh keys' build;
        # the retry blocks of the attempt-by-attempt loop added 0.16. A
        # small run first makes the one-time allocations of the first run.
        requests = 1_000_000
        scenario = single_class_scenario(gamma=float(requests), total=requests // 30)
        plan = AllocationPlan({1: requests // 30})
        run(scenario, plan, SimConfig(iterations=1, measure_delay=True, max_attempts=3))
        peaks = []
        for measure_delay in (False, True):
            config = SimConfig(iterations=1, seed=1, measure_delay=measure_delay, max_attempts=3)
            tracemalloc.start()
            try:
                stats = run(scenario, plan, config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        cls = stats.per_class[1]
        assert cls.censored == cls.collided == cls.attempts > 0.99 * requests
        assert peaks[0] < 13 * cls.attempts
        assert peaks[1] - peaks[0] < 0.05 * cls.attempts

    def test_attempt_cap_costs_nothing_without_collisions(self):
        # a cell that draws no request: no retry loop runs, and nothing is
        # sized by max_attempts * backoff
        scenario = single_class_scenario(gamma=1e-9, total=100)
        config = SimConfig(iterations=2, seed=1, measure_delay=True, max_attempts=10**7)
        start = time.perf_counter()
        stats = run(scenario, AllocationPlan({1: 100}), config)
        assert time.perf_counter() - start < 1.0
        assert stats.per_class[1].attempts == 0 and stats.per_class[1].mean_delay is None

    def test_saturated_retries_stop_past_the_horizon(self):
        # 50 Hz on one RAO: every retry past the horizon is busy for sure, so
        # the loop ends there instead of running max_attempts times
        scenario = single_class_scenario(gamma=50.0, total=1)
        config = SimConfig(iterations=1, seed=1, measure_delay=True, max_attempts=10**5)
        start = time.perf_counter()
        stats = run(scenario, AllocationPlan({1: 1}), config)
        assert time.perf_counter() - start < 1.0
        assert stats.per_class[1].attempts > 0
        assert stats.per_class[1].censored == stats.per_class[1].attempts

    def test_nearly_saturated_retries_cost_one_draw(self):
        # 6.9 requests per RAO: a retry succeeds with chance e**-6.9, so a
        # request retried attempt by attempt would take about 1 000 steps;
        # past the horizon each request draws its busy attempts at once
        scenario = single_class_scenario(gamma=69.0, total=10)
        config = SimConfig(iterations=2000, seed=1, measure_delay=True, max_attempts=10**4)
        start = time.perf_counter()
        stats = run(scenario, AllocationPlan({1: 10}), config)
        assert time.perf_counter() - start < 1.0
        s = stats.per_class[1]
        assert abs(s.mean_delay - math.exp(6.9)) < 4 * s.delay_stderr

    def test_saturated_stop_holds_for_many_requests(self):
        # 20 000 requests fill one RAO: the stop must come per request, not
        # by evaluating max_attempts windows of every pending request
        scenario = single_class_scenario(gamma=50.0, total=1)
        config = SimConfig(iterations=400, seed=1, measure_delay=True, max_attempts=10**5)
        start = time.perf_counter()
        stats = run(scenario, AllocationPlan({1: 1}), config)
        assert time.perf_counter() - start < 1.0
        assert stats.per_class[1].censored == stats.per_class[1].attempts > 19_000


class TestDeterminism:
    def test_same_seed_reproduces_bitwise(self):
        scenario = make_scenario((1, 2))
        plan = AllocationPlan({1: 3600, 2: 7200})
        first = run(scenario, plan, SimConfig(iterations=100, seed=42))
        second = run(scenario, plan, SimConfig(iterations=100, seed=42))
        assert first == second

    def test_different_seed_differs(self):
        scenario = make_scenario((1, 2))
        plan = AllocationPlan({1: 3600, 2: 7200})
        a = run(scenario, plan, SimConfig(iterations=100, seed=42))
        b = run(scenario, plan, SimConfig(iterations=100, seed=43))
        assert a != b

    def test_arrivals_shared_across_plans(self):
        # common random numbers: the same (seed, iteration, class) streams
        # drive every plan, so attempt counts match exactly across plans
        scenario = make_scenario((1, 2))
        a = run(scenario, AllocationPlan({1: 3600, 2: 7200}), SimConfig(iterations=50, seed=9))
        b = run(scenario, AllocationPlan({1: 600, 2: 10200}), SimConfig(iterations=50, seed=9))
        assert a.per_class[1].attempts == b.per_class[1].attempts
        assert a.per_class[2].attempts == b.per_class[2].attempts


class TestAgreementWithClosedForms:
    def test_dedicated_rates_match_model(self):
        scenario = make_scenario((1, 2))
        plan = AllocationPlan({1: 3600, 2: 7200})
        stats = run(scenario, plan, SimConfig(iterations=500, seed=101))
        for cls in scenario.classes:
            s = stats.per_class[cls.id]
            expected = simple_collision_rate(cls.ra_density, plan.get(cls.id))
            assert abs(s.collision_rate - expected) <= max(3 * s.rate_stderr, 0.002)

    def test_sharing_rate_matches_model(self):
        scenario = make_scenario((1, 4), strategy=Strategy.FULL_SHARING)
        stats = run(scenario, None, SimConfig(iterations=300, seed=7))
        expected = simple_collision_rate(scenario.total_density, scenario.total_raos)
        for cls in scenario.classes:
            s = stats.per_class[cls.id]
            assert abs(s.collision_rate - expected) <= max(3 * s.rate_stderr, 0.002)

    def test_partial_topology_matches_model(self):
        scenario = make_scenario((1, 2), strategy=Strategy.PARTIAL_DEDICATION)
        topo = SharingTopology.from_ranges({1: [(0, 5399)], 2: [(2700, 10799)]})
        stats = run(scenario, topo, SimConfig(iterations=400, seed=21))
        expected = layout_metrics(scenario, pool_layout(scenario, topo))
        for cls in scenario.classes:
            s = stats.per_class[cls.id]
            assert abs(s.collision_rate - expected[cls.id].collision_rate) <= max(
                3 * s.rate_stderr, 0.003
            )

    def test_sharing_equivalent_to_balanced_dedication(self):
        # equal per-class load makes optimal dedication statistically
        # indistinguishable from sharing
        shared = run(
            make_scenario((1, 2), strategy=Strategy.FULL_SHARING),
            None,
            SimConfig(iterations=400, seed=5),
        )
        dedicated = run(
            make_scenario((1, 2)),
            AllocationPlan({1: 3600, 2: 7200}),
            SimConfig(iterations=400, seed=6),
        )
        diff = abs(shared.total_density - dedicated.total_density)
        noise = math.hypot(shared.total_density_stderr, dedicated.total_density_stderr)
        assert diff <= 3 * noise

    def test_bernoulli_mode_approaches_poisson_for_large_population(self):
        scenario = make_scenario((1, 2))
        plan = AllocationPlan({1: 3600, 2: 7200})
        stats = run(
            scenario,
            plan,
            SimConfig(iterations=400, seed=11, arrival_mode=ArrivalMode.PER_DEVICE_BERNOULLI),
        )
        for cls in scenario.classes:
            s = stats.per_class[cls.id]
            expected = simple_collision_rate(cls.ra_density, plan.get(cls.id))
            assert abs(s.collision_rate - expected) <= max(3 * s.rate_stderr, 0.003)

    def test_stderr_shrinks_with_iterations(self):
        scenario = single_class_scenario(gamma=200.0, total=500)
        plan = AllocationPlan({1: 500})
        small = run(scenario, plan, SimConfig(iterations=100, seed=77))
        large = run(scenario, plan, SimConfig(iterations=10000, seed=77))
        ratio = small.total_density_stderr / large.total_density_stderr
        assert 7.0 < ratio < 14.0  # expect ~sqrt(100) = 10


class TestIsolation:
    def test_dedicated_class_untouched_by_neighbor_burst(self):
        plan = AllocationPlan({1: 3600, 2: 7200})
        base = run(make_scenario((1, 2)), plan, SimConfig(iterations=200, seed=13))
        burst_scenario = validate_scenario(
            Scenario(
                classes=(
                    make_scenario((1,)).classes[0],
                    DeviceClass(id=2, ra_density=1000.0),
                ),
                total_raos=10800,
                strategy=Strategy.FULL_DEDICATION,
            )
        )
        burst = run(burst_scenario, plan, SimConfig(iterations=200, seed=13))
        # same seed and untouched class stream: identical, not merely close
        assert burst.per_class[1] == base.per_class[1]

    def test_shared_pool_spreads_the_burst(self):
        base = run(
            make_scenario((1, 2), strategy=Strategy.FULL_SHARING),
            None,
            SimConfig(iterations=200, seed=13),
        )
        burst_scenario = validate_scenario(
            Scenario(
                classes=(
                    make_scenario((1,)).classes[0],
                    DeviceClass(id=2, ra_density=1000.0),
                ),
                total_raos=10800,
                strategy=Strategy.FULL_SHARING,
            )
        )
        burst = run(burst_scenario, None, SimConfig(iterations=200, seed=13))
        assert burst.per_class[1].collision_rate > 5 * base.per_class[1].collision_rate


def bernoulli_past_horizon_delay(scenario, layout, cls, max_attempts):
    """Mean inclusive delay over the successes of a per-device Bernoulli
    class whose retries all land past the horizon, read slot by slot: its
    first attempt collides when one of the other coordinators picks its
    slot, and each retry is busy when any coordinator does, each chance
    averaged over the class's RAOs."""
    pools = {c.id: [rao for first, last in layout.ranges[c.id] for rao in range(first, last + 1)]
             for c in scenario.classes}

    def free(rao, own):
        chance = 1.0
        for c in scenario.classes:
            if rao in pools[c.id]:
                others = c.coordinators - (c is own)
                chance *= (1 - c.per_device_rate / len(pools[c.id])) ** others
        return chance

    first = 1 - np.mean([free(rao, cls) for rao in pools[cls.id]])
    busy = 1 - np.mean([free(rao, None) for rao in pools[cls.id]])
    attempts = np.arange(2, max_attempts + 1)
    succeed = first * busy ** (attempts - 2) * (1 - busy)
    return cls.backoff * ((1 - first) + attempts @ succeed) / ((1 - first) + succeed.sum())


class TestDelayMeasurement:
    def test_past_horizon_delays_are_calibrated_over_seeds(self):
        # z of each seed's mean delay against its expectation, over 200
        # seeds: both classes of a light Poisson cell on the overlapping
        # layout, against layout_metrics, and class 2 of the
        # delay-bernoulli-partial cell (class 1's 0.5 s backoff retries
        # inside the horizon), against the slot-by-slot expectation with its
        # attempt cap. Every class's pool holds runs of different busy
        # chances. Runs of a few hundred seconds keep the skew of each
        # seed's t-statistic small.
        light = _light_cell(Strategy.PARTIAL_DEDICATION, backoffs=(5.0, 5.0))
        metrics = layout_metrics(light, pool_layout(light, OVERLAP))
        bernoulli, topology, config = REFERENCE_CASES["delay-bernoulli-partial"]()
        cases = [
            (light, OVERLAP, SimConfig(iterations=400, horizon=5, measure_delay=True),
             {cid: m.mean_delay for cid, m in metrics.items()}),
            (bernoulli, topology, dataclasses.replace(config, iterations=100, horizon=3),
             {2: bernoulli_past_horizon_delay(bernoulli, topology, bernoulli.classes[1],
                                              config.max_attempts)}),
        ]
        for scenario, layout, config, expected in cases:
            z = {cid: [] for cid in expected}
            for seed in range(200):
                stats = run(scenario, layout, dataclasses.replace(config, seed=seed))
                for cid, delay in expected.items():
                    s = stats.per_class[cid]
                    z[cid].append((s.mean_delay - delay) / s.delay_stderr)
            for cid, values in z.items():
                sd = np.std(values, ddof=1)
                assert 0.85 <= sd <= 1.15, (cid, sd)
                assert abs(np.mean(values)) <= 3 * sd / math.sqrt(len(values)), (cid, values)

    def test_bernoulli_cell_is_calibrated_over_seeds(self):
        # z of each seed's collision rate and mean delay against the
        # per-device closed form, over 400 seeds: 40 coordinators at q = 0.5
        # on 20 shared RAOs, where a fresh request sees 39 others and a
        # retry all 40. Against the Poisson form, as when layout_metrics
        # knew one arrival mode, the mean z of the rate is -0.51 and of the
        # delay +0.25, past their bounds of 0.14.
        scenario = single_class_scenario(population=40, rate=0.5, total=20)
        metrics = layout_metrics(scenario, pool_layout(scenario, None),
                                 ArrivalMode.PER_DEVICE_BERNOULLI)[1]
        z = {"rate": [], "delay": []}
        for seed in range(400):
            config = dataclasses.replace(BERNOULLI, iterations=200, seed=seed, measure_delay=True)
            s = run(scenario, None, config).per_class[1]
            z["rate"].append((s.collision_rate - metrics.collision_rate) / s.rate_stderr)
            z["delay"].append((s.mean_delay - metrics.mean_delay) / s.delay_stderr)
        for name, values in z.items():
            sd = np.std(values, ddof=1)
            assert 0.85 <= sd <= 1.15, (name, sd)
            assert abs(np.mean(values)) <= 3 * sd / math.sqrt(len(values)), (name, np.mean(values))

    def test_no_retries_means_one_backoff(self):
        scenario = single_class_scenario(gamma=5.0, total=100000, backoff=2.0)
        stats = run(
            scenario,
            AllocationPlan({1: 100000}),
            SimConfig(iterations=100, seed=2, measure_delay=True),
        )
        s = stats.per_class[1]
        assert s.mean_delay == pytest.approx(2.0, rel=0.01)
        assert s.censored == 0

    def test_matches_geometric_retry_model(self):
        scenario = single_class_scenario(gamma=50.0, total=225)
        stats = run(
            scenario,
            AllocationPlan({1: 225}),
            SimConfig(iterations=300, seed=15, measure_delay=True),
        )
        p = simple_collision_rate(50.0, 225)
        expected = 1.0 / (1.0 - p)
        s = stats.per_class[1]
        assert s.mean_delay == pytest.approx(expected, rel=0.05)
        assert s.censored_fraction < 0.001

    def test_exclusive_delay_is_inclusive_minus_backoff(self):
        scenario = single_class_scenario(gamma=50.0, total=225, backoff=1.5)
        stats = run(
            scenario,
            AllocationPlan({1: 225}),
            SimConfig(iterations=200, seed=19, measure_delay=True),
        )
        p = simple_collision_rate(50.0, 225)
        exclusive = stats.per_class[1].mean_delay - 1.5
        assert exclusive == pytest.approx(1.5 * p / (1.0 - p), rel=0.15)

    def test_attempt_cap_censors_stuck_requests(self):
        scenario = single_class_scenario(gamma=50.0, total=50)
        stats = run(
            scenario,
            AllocationPlan({1: 50}),
            SimConfig(iterations=50, seed=23, measure_delay=True, max_attempts=1),
        )
        s = stats.per_class[1]
        # a single allowed attempt: every collided request is censored and
        # every success took exactly one backoff period
        assert s.censored == s.collided
        assert s.mean_delay == pytest.approx(1.0, abs=1e-12)

    def test_delay_tracking_in_device_mode(self):
        scenario = single_class_scenario(population=3000, rate=1 / 60, total=225)
        stats = run(
            scenario,
            AllocationPlan({1: 225}),
            SimConfig(
                iterations=200,
                seed=41,
                measure_delay=True,
                arrival_mode=ArrivalMode.PER_DEVICE_BERNOULLI,
            ),
        )
        p = simple_collision_rate(50.0, 225)
        # finite population collides slightly less than the Poisson model
        assert stats.per_class[1].mean_delay == pytest.approx(
            1.0 / (1.0 - p), rel=0.05
        )

    def test_fractional_backoff_supported(self):
        scenario = single_class_scenario(gamma=50.0, total=225, backoff=0.25)
        stats = run(
            scenario,
            AllocationPlan({1: 225}),
            SimConfig(iterations=300, seed=29, measure_delay=True),
        )
        p = simple_collision_rate(50.0, 225)
        assert stats.per_class[1].mean_delay == pytest.approx(
            0.25 / (1.0 - p), rel=0.05
        )

    def test_shared_classes_reach_the_slowest_backoff(self):
        # class 2's retries run up to 481 s past the horizon, into RAOs that
        # class 1 shares, so a slot's occupancy there must count class 1's
        # load too, though class 1's own retries stop after 3.4 s (z = -30
        # for class 2 when only the retrying class's load counted)
        classes = (
            DeviceClass(id=1, ra_density=450.0, backoff=0.1),
            DeviceClass(id=2, ra_density=50.0, backoff=20.0),
        )
        scenario = validate_scenario(
            Scenario(classes=classes, total_raos=1000, strategy=Strategy.FULL_SHARING)
        )
        stats = run(scenario, None, SimConfig(iterations=100, seed=0, measure_delay=True))
        metrics = layout_metrics(scenario, pool_layout(scenario, None))
        for cid, s in stats.per_class.items():
            assert abs(s.mean_delay - metrics[cid].mean_delay) < 4 * s.delay_stderr

    def test_partial_topology_delays_match_layout_metrics(self):
        # the three-region layout of benchmarks/cells/partial3.yaml
        scenario = make_scenario((1, 2, 3), strategy=Strategy.PARTIAL_DEDICATION)
        topology = SharingTopology.from_ranges(
            {1: [(0, 3599)], 2: [(1800, 7199)], 3: [(3600, 10799)]}
        )
        stats = run(scenario, topology, SimConfig(iterations=200, seed=3, measure_delay=True))
        metrics = layout_metrics(scenario, pool_layout(scenario, topology))
        for cid, s in stats.per_class.items():
            assert abs(s.mean_delay - metrics[cid].mean_delay) < 4 * s.delay_stderr


class TestInputChecking:
    def test_allocation_alone_decides_the_layout(self):
        config = SimConfig(iterations=20, seed=5, horizon=2)
        plan = AllocationPlan({1: 3600, 2: 7200})
        sharing = make_scenario((1, 2), strategy=Strategy.FULL_SHARING)
        dedication = make_scenario((1, 2), strategy=Strategy.FULL_DEDICATION)
        shared = run(sharing, None, config)
        dedicated = run(sharing, plan, config)
        assert run(dedication, None, config) == shared
        assert run(dedication, plan, config) == dedicated
        assert shared != dedicated

    @pytest.mark.parametrize(
        "allocation",
        [None, SharingTopology.from_ranges({1: [(0, 3599)], 2: [(3600, 10799)]})],
        ids=["none", "topology"],
    )
    def test_delay_on_every_layout(self, allocation):
        # the topology is the plan's own layout, so it must give the same
        # SimStats bit for bit
        scenario = make_scenario((1, 2))
        config = SimConfig(iterations=5, seed=0, measure_delay=True)
        stats = run(scenario, allocation, config)
        assert all(math.isfinite(s.mean_delay) for s in stats.per_class.values())
        if allocation is not None:
            assert stats == run(scenario, AllocationPlan({1: 3600, 2: 7200}), config)

    @pytest.mark.parametrize("n_classes", [1, 2, 3])
    def test_tally_limit_is_checked_from_its_bytes(self, n_classes):
        per_iteration = simulator._Tally.bytes_per_iteration(n_classes)
        tally = simulator._Tally.zeros(n_classes, 5)
        assert sum(a.nbytes for a in vars(tally).values()) == 5 * per_iteration
        scenario = make_scenario(tuple(range(1, n_classes + 1)))
        most = simulator.MAX_TALLY_BYTES // per_iteration
        simulator._check_inputs(scenario, SimConfig(iterations=most))
        with pytest.raises(SimulationError, match=f"iterations {most + 1} need"):
            simulator._check_inputs(scenario, SimConfig(iterations=most + 1))

    def test_bernoulli_needs_population(self):
        scenario = single_class_scenario(gamma=50.0)
        with pytest.raises(SimulationError, match="population"):
            run(scenario, AllocationPlan({1: 100}), BERNOULLI)

    def test_bernoulli_rejects_super_unit_rate(self):
        scenario = single_class_scenario(population=10, rate=1.5)
        with pytest.raises(SimulationError, match="exceeds 1"):
            run(scenario, AllocationPlan({1: 100}), BERNOULLI)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"horizon": 0},
            {"max_attempts": 0},
        ],
    )
    def test_config_invariants(self, kwargs):
        with pytest.raises(SimulationError):
            SimConfig(seed=0, **kwargs).validate()

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence would raise a bare ValueError much later
        with pytest.raises(SimulationError, match="seed must be >= 0"):
            SimConfig(seed=-1).validate()


class TestSweep:
    """Two-class dedication splits through ``run_many``: every split's stats
    equal ``run`` on its plan, however the passes are shared and chunked."""

    @staticmethod
    def assert_points_equal_runs(scenario, class_index, values, config):
        plans = _splits(scenario, class_index, values)
        for plan, stats in zip(plans, run_many(scenario, plans, config)):
            assert stats == run(scenario, plan, config), plan

    @pytest.mark.parametrize(
        "class_index, config",
        [
            (0, SimConfig(iterations=20, seed=41, horizon=3)),
            (1, SimConfig(iterations=20, seed=42, horizon=3)),
            (0, SimConfig(iterations=20, seed=43, horizon=3,
                          arrival_mode=ArrivalMode.PER_DEVICE_BERNOULLI)),
            # a 1 s backoff retries inside the 3 s horizon, probing the sorted keys
            (0, SimConfig(iterations=20, seed=44, horizon=3, measure_delay=True)),
            # the same grid and seed without delays, in one shared pass
            (0, SimConfig(iterations=20, seed=44, horizon=3)),
        ],
        ids=["class-0", "class-1", "bernoulli", "delay", "delay-grid-fresh"],
    )
    def test_every_point_equals_its_run(self, class_index, config):
        self.assert_points_equal_runs(make_scenario((1, 2)), class_index, [600, 3600, 7200, 10200],
                                      config)

    # light classes at 350 s, about 3 500 requests per iteration, 11 iterations
    # per block: a shared pass's half chunk of 14 000 keys holds one iteration or
    # two, and chunks of a whole block span several sort runs of 1 024 seconds
    @pytest.mark.parametrize("chunk_keys", [1, 14_000, simulator.CHUNK_KEYS, 2**62],
                             ids=["per-iteration", "uneven", "default", "per-block"])
    def test_chunkings_equal_runs(self, monkeypatch, chunk_keys):
        monkeypatch.setattr(simulator, "CHUNK_KEYS", chunk_keys)
        # with delays every split runs alone; without, the four share a pass
        for measure_delay in (True, False):
            config = SimConfig(iterations=17, seed=45, horizon=350, measure_delay=measure_delay)
            self.assert_points_equal_runs(
                _light_cell(Strategy.FULL_DEDICATION, backoffs=(0.5, 3.0)), 0, [5, 15, 25, 35],
                config
            )

    def test_pieces_split_shared_chunks(self, monkeypatch):
        monkeypatch.setattr(simulator, "PIECE_KEYS", 97)
        scenario = _light_cell(Strategy.FULL_DEDICATION)
        config = SimConfig(iterations=17, seed=46, horizon=350)
        self.assert_points_equal_runs(scenario, 1, [5, 20, 35], config)

    def test_empty_cells_equal_runs(self, monkeypatch):
        # 3 and 1 requests per second at horizon 1: one chunk holds all 40
        # iterations, and many of its (class, iteration) cells in both classes,
        # the last one among them, hold no candidate pair. np.add.reduceat
        # gives an empty cell the next cell's first pair, and clipping the
        # empty last cell's start loses the chunk's last pair
        chunks = []

        def spy(picks, counts, horizon, *args):
            pairs = simulator_pairs(picks, counts, horizon, *args)
            chunks.append((len(counts) * (counts[0].size // horizon), pairs[4]))
            return pairs

        simulator_pairs = simulator._pairs
        monkeypatch.setattr(simulator, "_pairs", spy)
        classes = (DeviceClass(id=1, ra_density=3.0), DeviceClass(id=2, ra_density=1.0))
        scenario = validate_scenario(
            Scenario(classes=classes, total_raos=40, strategy=Strategy.FULL_DEDICATION)
        )
        config = SimConfig(iterations=40, seed=51, horizon=1)
        self.assert_points_equal_runs(scenario, 0, [5, 20, 35], config)
        [(n_cells, cells)] = chunks
        # both classes have non-empty cells, at most 60 of the 80 are, and the last is empty
        assert n_cells == 80 and cells.size < 60 and cells[0] < 40 <= cells[-1] < n_cells - 1

    @pytest.mark.parametrize("total, dtype", [(40, np.uint32), (2**22, np.int64)],
                             ids=["uint32", "int64"])
    def test_key_dtypes_equal_runs(self, monkeypatch, total, dtype):
        # on 2**22 RAOs a chunk of one 350 s iteration spans over 2**32 tagged values
        dtypes = set()

        def spy(tagged, *args):
            dtypes.add(tagged.dtype)
            return _collisions(tagged, *args)

        monkeypatch.setattr(simulator, "_collisions", spy)
        passes = self.spy_on_passes(monkeypatch)
        scenario = _light_cell(Strategy.FULL_DEDICATION, total=total)
        config = SimConfig(iterations=6, seed=47, horizon=350)
        self.assert_points_equal_runs(scenario, 0, [1, total // 2, total - 1], config)
        # the lone runs form the keys; the shared pass counts on its sorted picks
        assert dtypes == {np.dtype(dtype)}
        assert [size for size, _ in passes] == [3, 1, 1, 1]

    def test_sort_splits_chunks_past_the_key_bits(self, monkeypatch):
        # one 5 000 s iteration per chunk: second << 53 holds only 2 048
        # seconds, so each class's shared sort runs over three spans of seconds
        spans = []

        def spy(rngs, counts, *args):
            spans.append(counts[0].size)
            return sorted_picks(rngs, counts, *args)

        sorted_picks = simulator._sorted_picks
        monkeypatch.setattr(simulator, "_sorted_picks", spy)
        scenario = _light_cell(Strategy.FULL_DEDICATION)
        config = SimConfig(iterations=3, seed=48, horizon=5000)
        self.assert_points_equal_runs(scenario, 0, [3, 20, 37], config)
        assert spans == [5000] * 3

    @staticmethod
    def spy_on_passes(monkeypatch):
        """The layout count and scratch of each pass that follows, in order."""
        passes = []

        def spy(scenario, layouts, config, scratch):
            passes.append((len(layouts), scratch))
            return simulator_pass(scenario, layouts, config, scratch)

        simulator_pass = simulator._pass
        monkeypatch.setattr(simulator, "_pass", spy)
        return passes

    @pytest.mark.parametrize("plans, measure_delay, passes", [
        ([{1: 10, 2: 30}, {1: 30, 2: 10}], True, [1] * 6),
        ([{1: 10, 2: 30}, {1: 30, 2: 10}], False, [2] + [1] * 4),
        ([{1: 10, 2: 30}, {1: 30, 2: 10}, {1: 20, 2: 20}], True, [1] * 7),
        ([{1: 10, 2: 30}, {1: 30, 2: 10}, {1: 20, 2: 20}], False, [3] + [1] * 4),
    ], ids=["two-ordered", "two-ordered-fresh", "three-ordered", "three-ordered-fresh"])
    def test_mixed_layouts_in_one_call(self, monkeypatch, plans, measure_delay, passes):
        # only the plans' layouts are dedicated in class order, and they share
        # a pass only when at least two are in the call and no delays are
        # measured; the others, one with its blocks in reverse class order, run
        # alone. All passes of the call reuse one set of chunk arrays.
        scenario = _light_cell(Strategy.PARTIAL_DEDICATION, backoffs=(0.5, 3.0))
        first, *rest = (pool_layout(scenario, AllocationPlan(plan)) for plan in plans)
        layouts = [
            SharingTopology.fully_shared(scenario),
            first,
            OVERLAP,
            SharingTopology.from_ranges({1: [(0, 4), (20, 24)], 2: [(5, 19), (25, 39)]}),
            SharingTopology.from_ranges({1: [(25, 39)], 2: [(0, 24)]}),
            *rest,
        ]
        config = SimConfig(iterations=17, seed=49, horizon=350, measure_delay=measure_delay)
        calls = self.spy_on_passes(monkeypatch)
        stats = run_many(scenario, layouts, config)
        assert [size for size, _ in calls] == passes
        assert len({id(scratch) for _, scratch in calls}) == 1
        assert stats == [run(scenario, layout, config) for layout in layouts]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_shared_pass_equals_runs_on_random_cells(self, data):
        # 2-5 classes on pools from one RAO to about 3e5, at 0.01-20 requests
        # per RAO, over horizons on both sides of the sort's 2 048-second runs,
        # under both arrival modes: three dedicated splits share a pass
        n_classes = data.draw(st.integers(2, 5), label="classes")
        horizon = data.draw(st.sampled_from([1, 3, 200, 2047, 2049, 2500]), label="horizon")
        load = data.draw(st.floats(0.01, 20.0), label="requests per RAO")
        per_second = 3000 / horizon
        total = data.draw(st.integers(n_classes, max(n_classes, int(per_second / load))),
                          label="total_raos")
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n_classes,
                                     max_size=n_classes), label="weights")
        bernoulli = data.draw(st.booleans(), label="bernoulli")
        densities = [load * total * w / sum(weights) for w in weights]
        classes = tuple(
            DeviceClass(id=pos + 1, population=math.ceil(2 * d) + 1,
                        per_device_rate=d / (math.ceil(2 * d) + 1))
            if bernoulli else DeviceClass(id=pos + 1, ra_density=d)
            for pos, d in enumerate(densities)
        )
        scenario = validate_scenario(
            Scenario(classes=classes, total_raos=total, strategy=Strategy.FULL_DEDICATION)
        )
        cut_points = st.lists(st.integers(1, total - 1), min_size=n_classes - 1,
                              max_size=n_classes - 1, unique=True).map(sorted)
        plans = []
        for _ in range(max(3, simulator.SHARED_PASS_LAYOUTS)):
            cuts = [0, *data.draw(cut_points, label="cuts"), total]
            plans.append(AllocationPlan(
                {c.id: hi - lo for c, lo, hi in zip(classes, cuts, cuts[1:])}
            ))
        mode = ArrivalMode.PER_DEVICE_BERNOULLI if bernoulli else ArrivalMode.POISSON_AGGREGATE
        config = SimConfig(iterations=data.draw(st.integers(1, 3), label="iterations"),
                           seed=data.draw(st.integers(0, 2**32), label="seed"),
                           horizon=horizon, arrival_mode=mode)
        assert run_many(scenario, plans, config) == [run(scenario, p, config) for p in plans]

    def test_tallies_past_the_budget_split_passes(self, monkeypatch):
        scenario = make_scenario((1, 2))
        config = SimConfig(iterations=10, seed=50, horizon=2)
        plans = _splits(scenario, 0, [600, 3000, 5400, 7800, 10200])
        whole = run_many(scenario, plans, config)
        passes = self.spy_on_passes(monkeypatch)
        # two tallies fit, so five splits take passes of two, two and one
        per_iteration = simulator._Tally.bytes_per_iteration(2)
        monkeypatch.setattr(simulator, "MAX_TALLY_BYTES", 2 * config.iterations * per_iteration)
        assert run_many(scenario, plans, config) == whole
        assert [size for size, _ in passes] == [2, 2, 1]


class TestHorizonSemantics:
    def test_longer_horizon_scales_attempts_not_density(self):
        scenario = make_scenario((1, 2))
        plan = AllocationPlan({1: 3600, 2: 7200})
        short = run(scenario, plan, SimConfig(iterations=200, seed=37, horizon=1))
        long = run(scenario, plan, SimConfig(iterations=200, seed=37, horizon=4))
        assert long.per_class[1].attempts > 2 * short.per_class[1].attempts
        # density stays per-second, so the two estimates agree within noise
        diff = abs(long.total_density - short.total_density)
        assert diff <= 4 * math.hypot(
            long.total_density_stderr, short.total_density_stderr
        )

    def test_stats_record_run_parameters(self):
        scenario = make_scenario((1, 2))
        stats = run(
            scenario,
            AllocationPlan({1: 3600, 2: 7200}),
            SimConfig(iterations=7, seed=99, horizon=2),
        )
        assert (stats.iterations, stats.horizon, stats.seed) == (7, 2, 99)
