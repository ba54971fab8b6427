import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rachopt.analytics import layout_metrics, simple_collision_rate
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
    run,
    sweep_dedication,
)

from conftest import make_scenario


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
    number of slots holding two or more requests, read from one dense
    occupancy count over every slot up to the largest key."""
    occupancy = np.bincount(np.concatenate(keys_by_class))
    flags = [occupancy[keys] >= 2 for keys in keys_by_class]
    return flags, int(np.count_nonzero(occupancy >= 2))


class_keys = st.lists(st.integers(0, 60), max_size=40).map(
    lambda keys: np.array(keys, dtype=np.int64)
)


class TestCollisionKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(class_keys, min_size=1, max_size=4))
    @example([np.array([], dtype=np.int64)])  # an iteration with no request
    @example([np.array([], dtype=np.int64), np.array([], dtype=np.int64)])
    @example([np.array([7], dtype=np.int64), np.array([], dtype=np.int64)])  # one request
    @example([np.array([3, 3, 3], dtype=np.int64), np.array([3], dtype=np.int64)])  # one slot
    def test_matches_dense_occupancy(self, keys_by_class):
        flags, events = _collisions(keys_by_class)
        dense_flags, dense_events = dense_collisions(keys_by_class)
        assert [f.tolist() for f in flags] == [f.tolist() for f in dense_flags]
        assert [np.count_nonzero(f) for f in flags] == [np.count_nonzero(f) for f in dense_flags]
        assert events == dense_events


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


class TestDelayMeasurement:
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

    def test_delay_requires_full_dedication(self):
        scenario = make_scenario((1, 2), strategy=Strategy.FULL_SHARING)
        with pytest.raises(SimulationError, match="full dedication"):
            run(scenario, None, SimConfig(iterations=1, seed=0, measure_delay=True))


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
    def test_delay_needs_plan(self, allocation):
        with pytest.raises(SimulationError, match="AllocationPlan"):
            run(
                make_scenario((1, 2)),
                allocation,
                SimConfig(iterations=1, seed=0, measure_delay=True),
            )

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
    def test_single_point_equals_plain_run(self):
        scenario = make_scenario((1, 2))
        config = SimConfig(iterations=50, seed=31)
        result = sweep_dedication(scenario, 0, [3600], config)
        direct = run(scenario, AllocationPlan({1: 3600, 2: 7200}), config)
        assert result.points[0].stats == direct
        assert result.empirical_optimum == 3600

    def test_analytic_columns_present(self):
        scenario = make_scenario((1, 2))
        result = sweep_dedication(scenario, 0, [600, 3600], SimConfig(iterations=20, seed=1))
        point = result.points[0]
        assert point.analytic_density[1] == pytest.approx(
            50 * simple_collision_rate(50, 600), rel=1e-12
        )
        assert point.analytic_total == pytest.approx(
            sum(point.analytic_density.values()), rel=1e-12
        )

    def test_sweeping_second_class(self):
        scenario = make_scenario((1, 2))
        result = sweep_dedication(scenario, 1, [7200], SimConfig(iterations=20, seed=1))
        assert result.class_id == 2
        assert result.points[0].plan.raos == {2: 7200, 1: 3600}

    def test_rejects_non_pair_scenarios(self):
        with pytest.raises(SimulationError, match="exactly 2"):
            sweep_dedication(make_scenario((1, 2, 3)), 0, [100], SimConfig(iterations=1, seed=0))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(SimulationError, match="outside"):
            sweep_dedication(make_scenario((1, 2)), 0, [10800], SimConfig(iterations=1, seed=0))

    def test_rejects_bad_class_index(self):
        with pytest.raises(SimulationError, match="class_index"):
            sweep_dedication(make_scenario((1, 2)), 2, [100], SimConfig(iterations=1, seed=0))

    def test_ignores_scenario_strategy(self):
        config = SimConfig(iterations=10, seed=4)
        sharing = make_scenario((1, 2), strategy=Strategy.FULL_SHARING)
        dedication = make_scenario((1, 2), strategy=Strategy.FULL_DEDICATION)
        assert sweep_dedication(sharing, 0, [600, 3600], config) == sweep_dedication(
            dedication, 0, [600, 3600], config
        )

    def test_rejects_empty_values(self):
        with pytest.raises(SimulationError, match="at least one swept value"):
            sweep_dedication(make_scenario((1, 2)), 0, [], SimConfig(iterations=1, seed=0))


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
