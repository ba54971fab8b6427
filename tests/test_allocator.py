import heapq
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rachopt import allocator
from rachopt.allocator import (
    AllocationError,
    OverloadError,
    brute_force_optimal,
    largest_remainder,
    minimum_raos_for_rate,
    proportional_allocation,
    reserve_and_divide,
    reserve_for_collision_rate,
)
from rachopt.analytics import layout_metrics
from rachopt.model import (
    DeviceClass,
    QosKind,
    QosTarget,
    Scenario,
    Strategy,
    pool_layout,
    validate_scenario,
)

from conftest import RATE_QOS, make_scenario
from oracles import (
    cell_collision_density,
    minimum_raos_for_delay,
    per_budget_optimum,
    reserve_for_delay,
    simple_collision_rate,
    two_class_probability_optimum,
)


def two_class_scenario(g1, g2, total=10800):
    return validate_scenario(
        Scenario(
            classes=(DeviceClass(id=1, ra_density=g1), DeviceClass(id=2, ra_density=g2)),
            total_raos=total,
            strategy=Strategy.FULL_DEDICATION,
        )
    )


def dedicated(gammas, total):
    return validate_scenario(
        Scenario(
            classes=tuple(DeviceClass(id=i, ra_density=g) for i, g in enumerate(gammas)),
            total_raos=total,
            strategy=Strategy.FULL_DEDICATION,
        )
    )


def shares_of(plan):
    return list(plan.raos.values())


def class_cost(gamma, raos):
    return gamma * -np.expm1(-gamma / raos)


def plan_cost(gammas, shares):
    return math.fsum(float(class_cost(g, l)) for g, l in zip(gammas, shares))


def scan_optimum(gammas, total):
    """Reference oracle: score every plan with at least one RAO per class,
    in lexicographic order, and take the first within 1e-12 of the best.
    With two classes it is the plain vectorised 2-class scan."""
    n = len(gammas)
    cuts = list(itertools.combinations(range(1, total), n - 1))
    plans = np.diff(np.array(cuts).reshape(len(cuts), n - 1), prepend=0, append=total, axis=1)
    values = np.zeros(len(plans))
    for gamma, raos in zip(gammas, plans.T):
        values += class_cost(gamma, raos)
    first = np.flatnonzero(values <= values.min() * (1 + 1e-12))[0]
    return [int(v) for v in plans[first]]


def greedy_marginal(gammas, total):
    """Fox's marginal allocation: from a start where every density is convex
    (L > gamma / 2), hand each further RAO to the class whose density falls
    most. Exact while the optimum lies in that region."""
    shares = [int(g // 2) + 1 for g in gammas]

    def gain(i):
        raos = shares[i]
        return class_cost(gammas[i], raos + 1) - class_cost(gammas[i], raos)

    heap = [(gain(i), i) for i in range(len(gammas))]
    heapq.heapify(heap)
    for _ in range(total - sum(shares)):
        _, i = heapq.heappop(heap)
        shares[i] += 1
        heapq.heappush(heap, (gain(i), i))
    return shares


class TestLargestRemainder:
    def test_exact_quotas_untouched(self):
        assert largest_remainder([50.0, 100.0], 10800) == [3600, 7200]

    def test_half_tie_goes_to_lower_index(self):
        # quotas 1387.5 and 6937.5: one leftover unit, equal fractions
        assert largest_remainder([100.0, 500.0], 8325) == [1388, 6937]

    def test_tiny_weight_still_gets_one(self):
        assert largest_remainder([1.0, 10**6], 2) == [1, 1]

    def test_rejects_impossible_total(self):
        with pytest.raises(AllocationError, match="insufficient"):
            largest_remainder([1.0, 1.0, 1.0], 2)

    def test_rejects_non_positive_weights(self):
        with pytest.raises(AllocationError, match="positive"):
            largest_remainder([1.0, 0.0], 10)

    def test_rejects_zero_classes(self):
        with pytest.raises(AllocationError, match="^cannot apportion among zero classes$"):
            largest_remainder([], 5)

    @given(
        weights=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=8),
        total=st.integers(8, 10**6),
    )
    def test_conserves_total_with_floor_of_one(self, weights, total):
        shares = largest_remainder(weights, total)
        assert sum(shares) == total
        assert min(shares) >= 1

    @given(
        weights=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=8),
        total=st.integers(8, 10**6),
        factor=st.sampled_from([0.25, 0.5, 2.0, 4.0, 1024.0]),
    )
    def test_power_of_two_rescaling_is_invariant(self, weights, total, factor):
        # power-of-two factors keep float weights exact, so the rational
        # quotas and hence the rounded shares cannot move
        scaled = [w * factor for w in weights]
        assert largest_remainder(scaled, total) == largest_remainder(weights, total)


class TestProportionalAllocation:
    @pytest.mark.parametrize(
        "g2,expected_l1",
        [(100.0, 3600), (500.0, 982), (1000.0, 514)],
    )
    def test_reference_optima(self, g2, expected_l1):
        plan = proportional_allocation(two_class_scenario(50.0, g2))
        assert plan.get(1) == expected_l1
        assert plan.total == 10800

    def test_equal_densities_split_evenly(self):
        scenario = validate_scenario(
            Scenario(
                classes=tuple(DeviceClass(id=i, ra_density=7.0) for i in range(4)),
                total_raos=1000,
                strategy=Strategy.FULL_DEDICATION,
            )
        )
        assert list(proportional_allocation(scenario).raos.values()) == [250] * 4

    def test_insufficient_raos(self):
        scenario = make_scenario((1, 2), strategy=Strategy.FULL_SHARING, total_raos=1)
        with pytest.raises(AllocationError, match="insufficient"):
            proportional_allocation(scenario)

    @given(
        g1=st.floats(1.0, 2000.0),
        g2=st.floats(1.0, 2000.0),
        total=st.integers(2, 10**5),
    )
    @settings(max_examples=50)
    def test_plan_always_exhausts_budget(self, g1, g2, total):
        plan = proportional_allocation(two_class_scenario(g1, g2, total))
        assert plan.total == total
        assert min(plan.raos.values()) >= 1


class TestRateReservation:
    def test_reference_reservation(self):
        assert reserve_for_collision_rate(50.0, 0.02) == 2475

    def test_reservation_meets_bound_and_is_minimal(self):
        assert simple_collision_rate(50.0, 2475) <= 0.02
        assert simple_collision_rate(50.0, 2474) > 0.02

    def test_overloading_reservation(self):
        # frozen: ceil(1000 / -ln(0.98)) with -ln(0.98) = 0.0202027...,
        # far beyond a 10800-RAO budget
        assert reserve_for_collision_rate(1000.0, 0.02) == 49499

    def test_loose_bound_floors_at_one_rao(self):
        assert reserve_for_collision_rate(1.0, 0.999) == 1

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
    def test_rejects_bound_outside_unit_interval(self, bad):
        with pytest.raises(AllocationError):
            reserve_for_collision_rate(50.0, bad)

    @pytest.mark.parametrize("density", [0.0, -1.0])
    def test_rejects_non_positive_density(self, density):
        with pytest.raises(AllocationError, match=f"^ra_density must be > 0, got {density}$"):
            reserve_for_collision_rate(density, 0.02)

    def test_need_past_the_float_range_is_an_overload(self):
        # math.ceil of the infinite need used to raise a raw OverflowError
        with pytest.raises(OverloadError, match="more RAOs than the float range holds"):
            reserve_for_collision_rate(1e300, 1e-10)

    @given(gamma=st.floats(0.5, 5000.0), max_rate=st.floats(1e-4, 0.9))
    @settings(max_examples=100)
    def test_ceil_is_tight(self, gamma, max_rate):
        exact = minimum_raos_for_rate(gamma, max_rate)
        # skip knife-edge cases where the exact bound sits on an integer
        assume(abs(exact - round(exact)) > 1e-6)
        raos = reserve_for_collision_rate(gamma, max_rate)
        assert simple_collision_rate(gamma, raos) <= max_rate
        if raos > 1:
            assert simple_collision_rate(gamma, raos - 1) > max_rate


class TestDelayReservation:
    def test_unit_log_ratio(self):
        assert reserve_for_delay(50.0, 1.0, math.e) == 50

    def test_matches_equivalent_rate_bound(self):
        assert reserve_for_delay(50.0, 1.0, 1 / 0.98) == reserve_for_collision_rate(
            50.0, 0.02
        )

    def test_huge_delay_budget_floors_at_one(self):
        assert reserve_for_delay(50.0, 1.0, 1e30) == 1

    def test_rejects_delay_not_above_backoff(self):
        with pytest.raises(AllocationError):
            reserve_for_delay(50.0, 1.0, 1.0)
        with pytest.raises(AllocationError):
            reserve_for_delay(50.0, 2.0, 1.0)

    @given(
        gamma=st.floats(0.5, 5000.0),
        backoff=st.floats(0.01, 100.0),
        ratio=st.floats(1.01, 100.0),
    )
    def test_equivalent_to_rate_reservation(self, gamma, backoff, ratio):
        max_delay = backoff * ratio
        assume(max_delay > backoff)
        via_delay = minimum_raos_for_delay(gamma, backoff, max_delay)
        via_rate = minimum_raos_for_rate(gamma, 1.0 - backoff / max_delay)
        assert via_delay == pytest.approx(via_rate, rel=1e-12, abs=0)


class TestReserveAndDivide:
    def test_reference_walkthrough(self):
        scenario = make_scenario((1, 2, 3), special_ids=(1,), qos_for={1: RATE_QOS})
        plan = reserve_and_divide(scenario)
        assert plan.raos == {1: 2475, 2: 1388, 3: 6937}
        assert plan.total == 10800
        predicted = layout_metrics(scenario, pool_layout(scenario, plan))
        assert predicted[1].collision_rate <= 0.02
        assert predicted[2].collision_rate == pytest.approx(
            0.06951200952334086, rel=1e-12, abs=0
        )
        assert predicted[3].collision_rate == pytest.approx(
            0.06954100058373053, rel=1e-12, abs=0
        )

    def test_no_specials_reduces_to_proportional(self):
        scenario = make_scenario((1, 2))
        plan = reserve_and_divide(scenario)
        assert plan.raos == proportional_allocation(scenario).raos
        assert plan.total == 10800

    def test_delay_target_normalizes_to_rate_bound(self):
        qos = QosTarget(kind=QosKind.MAX_MEAN_DELAY, max_mean_delay=1 / 0.98)
        scenario = make_scenario((1, 2, 3), special_ids=(1,), qos_for={1: qos})
        assert reserve_and_divide(scenario).raos[1] == 2475

    def test_reservation_overload_names_class(self):
        qos = QosTarget(kind=QosKind.MAX_COLLISION_RATE, max_collision_rate=1e-9)
        scenario = make_scenario((1, 2, 3), special_ids=(1,), qos_for={1: qos})
        with pytest.raises(OverloadError, match="overload") as err:
            reserve_and_divide(scenario)
        assert str(err.value) == (
            "RACH resource overload: reserving 49999999975 RAOs for class 1 exceeds the "
            "remaining budget by 49999989175"
        )

    def test_residual_too_small_for_normals(self):
        # reservation fits (2475 of 2476) but leaves one RAO for two classes
        scenario = make_scenario(
            (1, 2, 3), special_ids=(1,), qos_for={1: RATE_QOS}, total_raos=2476
        )
        with pytest.raises(OverloadError, match="overload"):
            reserve_and_divide(scenario)

    @pytest.mark.parametrize(
        "ra_density, backoff, message",
        [(50.0, 2.0, "class 1: delay bound 1.0 does not exceed the backoff 2.0"),
         (0.0, 0.5, "ra_density must be > 0, got 0.0")],
        ids=["bound-not-above-backoff", "no-density"],
    )
    def test_unvalidated_delay_bound_rejected(self, ra_density, backoff, message):
        qos = QosTarget(kind=QosKind.MAX_MEAN_DELAY, max_mean_delay=1.0)
        special = DeviceClass(id=1, ra_density=ra_density, backoff=backoff, special=True, qos=qos)
        scenario = Scenario(classes=(special,), total_raos=100, strategy=Strategy.FULL_DEDICATION)
        with pytest.raises(AllocationError) as err:
            reserve_and_divide(scenario)
        assert str(err.value) == message

    @given(
        gamma=st.floats(0.5, 500.0),
        backoff=st.floats(0.01, 100.0),
        log10_ratio=st.floats(math.log10(1.01), 300.0),
    )
    def test_delay_reservation_exact_at_any_ratio(self, gamma, backoff, log10_ratio):
        # the rate 1 - backoff / max_mean_delay rounded to 1 past about 1e16
        # backoffs and lost digits well before
        max_delay = backoff * 10.0**log10_ratio
        exact = minimum_raos_for_delay(gamma, backoff, max_delay)
        assume(abs(exact - round(exact)) > 1e-9)
        qos = QosTarget(kind=QosKind.MAX_MEAN_DELAY, max_mean_delay=max_delay)
        special = DeviceClass(id=1, ra_density=gamma, backoff=backoff, special=True, qos=qos)
        scenario = validate_scenario(
            Scenario(
                classes=(special, DeviceClass(id=2, ra_density=100.0)),
                total_raos=10**6,
                strategy=Strategy.FULL_DEDICATION,
            )
        )
        assert reserve_and_divide(scenario).raos[1] == reserve_for_delay(gamma, backoff, max_delay)

    def test_special_without_qos_rejected(self):
        scenario = make_scenario((1, 2), special_ids=(1,))
        with pytest.raises(AllocationError, match="QoS"):
            reserve_and_divide(scenario)

    def test_all_special_scenario_leaves_residual_unassigned(self):
        scenario = make_scenario(
            (1, 2), special_ids=(1, 2), qos_for={1: RATE_QOS, 2: RATE_QOS}
        )
        plan = reserve_and_divide(scenario)
        # 50 Hz and 100 Hz at a 2 % bound: 2475 + 4950 of the 10800 RAOs
        assert plan.raos == {1: 2475, 2: 4950}
        assert plan.total == 7425

    @given(
        g_special=st.floats(1.0, 200.0),
        g_normals=st.lists(st.floats(1.0, 2000.0), min_size=1, max_size=4),
        max_rate=st.floats(0.01, 0.5),
    )
    @settings(max_examples=50)
    def test_budget_conserved_when_normals_exist(self, g_special, g_normals, max_rate):
        classes = [
            DeviceClass(
                id=0,
                ra_density=g_special,
                special=True,
                qos=QosTarget(kind=QosKind.MAX_COLLISION_RATE, max_collision_rate=max_rate),
            )
        ]
        classes += [DeviceClass(id=i + 1, ra_density=g) for i, g in enumerate(g_normals)]
        scenario = validate_scenario(
            Scenario(
                classes=tuple(classes),
                total_raos=50000,
                strategy=Strategy.FULL_DEDICATION,
            )
        )
        plan = reserve_and_divide(scenario)
        assert plan.total == 50000
        bound_rate = simple_collision_rate(g_special, plan.raos[0])
        assert bound_rate <= max_rate


class TestBruteForce:
    @pytest.mark.parametrize(
        "g2,expected_l1",
        [(100.0, 3600), (500.0, 982), (1000.0, 514)],
    )
    def test_matches_proportional_on_reference_pairs(self, g2, expected_l1):
        plan = brute_force_optimal(two_class_scenario(50.0, g2))
        assert plan.get(1) == expected_l1

    def test_probability_objective_same_argmin(self):
        # below 1 request per RAO the density plan is also the collision
        # probability's two-class optimum
        for g2 in (100.0, 500.0, 1000.0):
            plan = brute_force_optimal(two_class_scenario(50.0, g2))
            assert plan.get(1) == two_class_probability_optimum(50.0, g2, 10800)

    def test_two_unit_budget(self):
        assert brute_force_optimal(two_class_scenario(1.0, 1.0, total=2)).raos == {
            1: 1,
            2: 1,
        }

    def test_tie_prefers_smallest_first_share(self):
        # symmetric densities with an odd budget: (1, 2) and (2, 1) tie
        assert brute_force_optimal(two_class_scenario(5.0, 5.0, total=3)).raos == {
            1: 1,
            2: 2,
        }

    def test_three_class_exact_quotas(self):
        scenario = validate_scenario(
            Scenario(
                classes=tuple(
                    DeviceClass(id=i, ra_density=g) for i, g in enumerate((10.0, 20.0, 30.0))
                ),
                total_raos=60,
                strategy=Strategy.FULL_DEDICATION,
            )
        )
        assert brute_force_optimal(scenario).raos == {0: 10, 1: 20, 2: 30}

    def test_refuses_fewer_raos_than_classes(self):
        scenario = make_scenario((1, 2), strategy=Strategy.FULL_SHARING, total_raos=1)
        with pytest.raises(AllocationError, match="^insufficient RAOs: 1 for 2 classes$"):
            brute_force_optimal(scenario)

    def test_refuses_oversized_enumeration(self):
        # 3 classes on 10**5 RAOs make 3e5 class-RAOs, past MAX_CLASS_RAOS;
        # the refusal is decided from the sizes before any table is built
        scenario = dedicated([5.0] * 3, 100_000)
        start = time.perf_counter()
        with pytest.raises(AllocationError, match="refused"):
            brute_force_optimal(scenario)
        assert time.perf_counter() - start < 0.05

    def test_solves_three_classes_at_paper_budget(self):
        # C(10799, 2) ~ 58 M plans, past any enumeration
        start = time.perf_counter()
        plan = brute_force_optimal(dedicated([5.0] * 3, 10800))
        assert time.perf_counter() - start < 1.0
        assert shares_of(plan) == [3600] * 3

    def test_permuted_ties_go_to_smallest_shares(self):
        # [1, 9, 1] and [1, 1, 9] tie to one ulp, by summation order
        plan = brute_force_optimal(dedicated([22.057323053831862] * 3, 11))
        assert shares_of(plan) == [1, 1, 9]

    @given(
        gammas=st.lists(st.floats(0.1, 100.0), min_size=1, max_size=4),
        spare=st.integers(0, 36),
        equal=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_composition_scan(self, gammas, spare, equal):
        if equal:
            gammas = [gammas[0]] * len(gammas)
        total = len(gammas) + spare
        plan = brute_force_optimal(dedicated(gammas, total))
        assert shares_of(plan) == scan_optimum(gammas, total)

    @given(
        weights=st.lists(st.floats(1.0, 10.0), min_size=3, max_size=5),
        total=st.integers(5, 300),
        load=st.floats(0.01, 3.0),
        equal=st.booleans(),
    )
    # with 2**16 sums per block the table fill splits into two blocks from
    # L = 259 (3 classes), 260 (4) and 261 (5); one block just below
    @example(weights=[1.0, 2.0, 5.0], total=258, load=0.9, equal=False)
    @example(weights=[1.0, 2.0, 5.0], total=259, load=0.9, equal=False)
    @example(weights=[3.0] * 4, total=259, load=2.5, equal=True)
    @example(weights=[1.0, 7.0, 2.0, 9.0], total=260, load=2.5, equal=False)
    @example(weights=[1.0, 7.0, 2.0, 9.0, 4.0], total=260, load=0.5, equal=False)
    @example(weights=[1.0, 7.0, 2.0, 9.0, 4.0], total=261, load=3.0, equal=False)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_budget_recursion(self, weights, total, load, equal):
        if equal:
            weights = [weights[0]] * len(weights)
        scale = load * total / math.fsum(weights)
        gammas = [w * scale for w in weights]
        plan = brute_force_optimal(dedicated(gammas, total))
        assert shares_of(plan) == per_budget_optimum(gammas, total)

    @given(
        weights=st.lists(st.floats(1.0, 10.0), min_size=2, max_size=6),
        total=st.integers(6, 300),
        load=st.floats(0.01, 10.0),
        equal=st.booleans(),
        pruned=st.booleans(),
    )
    # the overloaded cells the shape bounds prune least, scaled to 1/100
    @example(weights=[1.0, 7.0, 2.0, 9.0], total=140, load=5.0, equal=False, pruned=True)
    @example(weights=[1.0, 7.0, 2.0, 9.0, 4.0], total=110, load=3.0, equal=False, pruned=True)
    @example(weights=[3.0, 7.0, 2.0, 9.0, 4.0, 6.0], total=100, load=3.0, equal=False, pruned=True)
    @example(weights=[3.0, 7.0, 2.0, 9.0, 4.0, 6.0], total=100, load=1.1, equal=False, pruned=True)
    @example(weights=[5.0] * 6, total=100, load=1.1, equal=True, pruned=True)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_budget_optimum(self, weights, total, load, equal, pruned):
        # pruned: the shape bounds are built on every table, however small
        # or loose; otherwise the table size and the load decide, as in any call
        if equal:
            weights = [weights[0]] * len(weights)
        scale = load * total / math.fsum(weights)
        gammas = [w * scale for w in weights]
        with pytest.MonkeyPatch.context() as patch:
            if pruned:
                patch.setattr(allocator, "BOUND_SUMS", 0)
            plan = brute_force_optimal(dedicated(gammas, total))
        assert shares_of(plan) == per_budget_optimum(gammas, total)

    @pytest.mark.parametrize("bound_sums", [0, allocator.BOUND_SUMS])
    @pytest.mark.parametrize("fill_block", [1, 2, 7, 64, 1000])
    def test_any_block_size_gives_the_per_budget_plan(self, monkeypatch, fill_block, bound_sums):
        # small blocks put block edges at every kind of budget, down to one
        # budget per block, in full tables and in pruned ones
        monkeypatch.setattr(allocator, "FILL_BLOCK", fill_block)
        monkeypatch.setattr(allocator, "BOUND_SUMS", bound_sums)
        rng = np.random.default_rng(fill_block)
        for _ in range(12):
            n = int(rng.integers(3, 6))
            total = int(rng.integers(n, 120))
            gammas = [float(g) for g in rng.uniform(1.0, 10.0, size=n)]
            gammas = [g * rng.uniform(0.05, 3.0) * total / sum(gammas) for g in gammas]
            plan = brute_force_optimal(dedicated(gammas, total))
            assert shares_of(plan) == per_budget_optimum(gammas, total)

    def test_light_cell_keeps_one_budget_per_table(self):
        # below one request per RAO the greedy plan meets its envelope bound,
        # so each pruned table keeps the optimum's budget alone
        shares = np.arange(1.0, 1000 - 3 + 2)
        costs = np.array([g * -np.expm1(-g / shares) for g in [50.0, 100.0, 500.0]])
        assert allocator._budget_ranges(costs) == [(921, 921), (768, 768)]

    @pytest.mark.parametrize(
        "total, load, built", [(600, 0.5, True), (600, 3.0, False), (2000, 3.0, True)]
    )
    def test_bounds_are_built_by_size_and_load(self, monkeypatch, total, load, built):
        # above one request per RAO the bounds are mostly loose: a mid-sized
        # table skips them, and a table 64 times their cost builds them
        calls = []
        budget_ranges = allocator._budget_ranges
        monkeypatch.setattr(
            allocator, "_budget_ranges", lambda costs: calls.append(1) or budget_ranges(costs)
        )
        weights = [1.0, 7.0, 2.0, 9.0]
        gammas = [w * load * total / sum(weights) for w in weights]
        plan = brute_force_optimal(dedicated(gammas, total))
        assert bool(calls) == built
        assert shares_of(plan) == per_budget_optimum(gammas, total)

    def test_solves_the_slowest_admitted_shape(self):
        # 4 classes on 21 600 RAOs, the most MAX_CLASS_RAOS admits, at 3
        # requests per RAO: the bounds prune little and the tables take about
        # 4.7e8 cost sums, 0.45-0.47 s on the 2-vCPU guest of the limit's note
        weights = [6.6, 7.7, 8.2, 9.5]
        gammas = [w * 3 * 21_600 / sum(weights) for w in weights]
        scenario = dedicated(gammas, 21_600)
        assert 4 * 21_600 == allocator.MAX_CLASS_RAOS
        start = time.perf_counter()
        plan = brute_force_optimal(scenario)
        assert time.perf_counter() - start < 2.0
        assert sum(shares_of(plan)) == 21_600 and min(shares_of(plan)) >= 1

    def test_memory_stays_linear_in_the_budget(self):
        # a full L x L table at L = 10 800 would be about 930 MB; the tables,
        # the shape bounds, the padded copy and one block buffer peak at
        # about 2.2 MB
        scenario = dedicated([50.0, 100.0, 500.0], 10800)
        tracemalloc.start()
        try:
            brute_force_optimal(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_matches_two_class_scan_on_criterion2_budgets(self):
        rng = np.random.default_rng(20240817)
        for total in [*rng.integers(100, 20001, size=15), 20000]:
            gammas = [float(g) for g in rng.uniform(1.0, 2000.0, size=2)]
            plan = brute_force_optimal(dedicated(gammas, int(total)))
            assert shares_of(plan) == scan_optimum(gammas, int(total))

    def test_matches_greedy_marginal_in_convex_regime(self):
        # densities of at most 2000 Hz each keep 3 classes on 10800 RAOs
        # below 1 request per RAO, where the optimum gives every class
        # L_i > gamma_i / 2 and greedy marginal allocation is exact
        rng = np.random.default_rng(1966)
        for _ in range(3):
            gammas = [float(g) for g in rng.uniform(1.0, 2000.0, size=3)]
            exact = shares_of(brute_force_optimal(dedicated(gammas, 10800)))
            greedy = greedy_marginal(gammas, 10800)
            assert plan_cost(gammas, exact) == pytest.approx(
                plan_cost(gammas, greedy), rel=1e-12, abs=0
            )

    def test_brute_force_never_beaten(self):
        # holds at any load: the enumeration is the exact integer optimum
        rng = np.random.default_rng(20240817)
        for _ in range(30):
            g1, g2 = rng.uniform(1.0, 2000.0, size=2)
            total = int(rng.integers(100, 20001))
            scenario = two_class_scenario(float(g1), float(g2), total)
            exact = cell_collision_density(scenario, brute_force_optimal(scenario))
            rounded = cell_collision_density(scenario, proportional_allocation(scenario))
            assert exact <= rounded + 1e-12

    def test_proportional_is_near_optimal_below_saturation(self):
        # the equal-load rule minimizes the collision density only while the
        # cell is not overloaded; starving a class pays only above 1 request
        # per RAO, so up to that load the rounded plan sits within 0.1% of
        # the enumerated optimum
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 30:
            g1, g2 = rng.uniform(1.0, 2000.0, size=2)
            total = int(rng.integers(100, 20001))
            if (g1 + g2) / total > 1.0:
                continue
            checked += 1
            scenario = two_class_scenario(float(g1), float(g2), total)
            exact = cell_collision_density(scenario, brute_force_optimal(scenario))
            rounded = cell_collision_density(scenario, proportional_allocation(scenario))
            assert (rounded - exact) / exact < 1e-3

    def test_overloaded_cells_prefer_sacrifice_allocations(self):
        # above one request per RAO the density objective stops rewarding
        # proportional splits: starving one class (which is nearly saturated
        # either way) buys the other class real relief, so here the
        # enumerated optimum is a boundary plan, not the equal-load plan
        scenario = two_class_scenario(1718.975, 1999.781, total=1226)
        plan = brute_force_optimal(scenario)
        assert min(plan.raos.values()) == 1
        exact = cell_collision_density(scenario, plan)
        rounded = cell_collision_density(scenario, proportional_allocation(scenario))
        assert (rounded - exact) / exact > 0.01
