import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rachopt.analytics import any_collision_probability, layout_metrics
from rachopt.model import (
    AllocationPlan,
    ArrivalMode,
    DeviceClass,
    Scenario,
    ScenarioError,
    SharingTopology,
    Strategy,
    pool_layout,
    validate_scenario,
)

from conftest import make_scenario
from oracles import (
    bernoulli_access_delay,
    bernoulli_collision_rate,
    cell_collision_density,
    mean_access_delay,
    simple_collision_rate,
)

densities = st.floats(1e-3, 1e5)
pools = st.floats(1.0, 1e7)


def metrics_of(scenario, allocation=None):
    return layout_metrics(scenario, pool_layout(scenario, allocation))


def rates_of(scenario, allocation=None):
    return {cid: m.collision_rate for cid, m in metrics_of(scenario, allocation).items()}


def single_pool_rate(scenario):
    """Full-sharing reference: one pool carrying the summed density."""
    return simple_collision_rate(scenario.total_density, scenario.total_raos)


def cell_probability(scenario, metrics):
    return any_collision_probability(
        (cls.ra_density, metrics[cls.id].collision_rate) for cls in scenario.classes
    )


class TestSimpleCollisionRate:
    def test_reference_values(self):
        # frozen from direct double-precision evaluation of 1 - exp(-g/L)
        assert simple_collision_rate(50, 3600) == pytest.approx(
            0.013792883256083781, rel=1e-14, abs=0
        )
        assert simple_collision_rate(10800, 10800) == pytest.approx(
            0.6321205588285577, rel=1e-14, abs=0
        )

    def test_vanishing_load_limit(self):
        p = simple_collision_rate(1e-9, 1e9)
        assert 0 < p < 1e-15

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            simple_collision_rate(50, 0)
        with pytest.raises(ValueError):
            simple_collision_rate(0, 3600)

    @given(gamma=densities, raos=pools)
    def test_stays_in_open_unit_interval(self, gamma, raos):
        # beyond ~37 requests per slot the rate saturates to 1.0 in doubles
        assume(gamma / raos < 30)
        assert 0 < simple_collision_rate(gamma, raos) < 1

    @given(g1=densities, g2=densities, raos=pools)
    def test_strictly_increasing_in_density(self, g1, g2, raos):
        assume(abs(g1 - g2) / max(g1, g2) > 1e-9)
        assume(max(g1, g2) / raos < 30)
        lo, hi = sorted((g1, g2))
        assert simple_collision_rate(lo, raos) < simple_collision_rate(hi, raos)

    @given(gamma=densities, r1=pools, r2=pools)
    def test_strictly_decreasing_in_raos(self, gamma, r1, r2):
        assume(abs(r1 - r2) / max(r1, r2) > 1e-9)
        assume(gamma / min(r1, r2) < 30)
        lo, hi = sorted((r1, r2))
        assert simple_collision_rate(gamma, hi) < simple_collision_rate(gamma, lo)


class TestFullSharing:
    def test_equals_single_pool_rate_exactly(self):
        scenario = make_scenario((1, 2), strategy=Strategy.FULL_SHARING)
        for rate in rates_of(scenario).values():
            assert rate == simple_collision_rate(scenario.total_density, scenario.total_raos)

    def test_reference_pairs(self):
        s12 = make_scenario((1, 2), strategy=Strategy.FULL_SHARING)
        for rate in rates_of(s12).values():
            assert rate == pytest.approx(0.013792883256083781, rel=1e-14, abs=0)
        s14 = make_scenario((1, 4), strategy=Strategy.FULL_SHARING)
        for rate in rates_of(s14).values():
            assert rate == pytest.approx(0.09264565057207096, rel=1e-14, abs=0)

    def test_single_class_matches_simple_rate(self):
        scenario = make_scenario((3,), strategy=Strategy.FULL_SHARING)
        assert rates_of(scenario)[3] == simple_collision_rate(500.0, 10800)


class TestFullDedication:
    def test_reference_rates(self):
        scenario = make_scenario((1, 2))
        metrics = metrics_of(scenario, AllocationPlan({1: 3600, 2: 7200}))
        assert metrics[1].collision_rate == pytest.approx(0.013792883256083781, rel=1e-14, abs=0)
        assert metrics[1].collision_density == pytest.approx(
            50 * 0.013792883256083781, rel=1e-13, abs=0
        )

    def test_reservation_operating_point(self):
        # ties the 2% QoS reservation example to its predicted rate
        assert simple_collision_rate(50, 2475) == pytest.approx(
            0.019999326626579397, rel=1e-14, abs=0
        )
        assert simple_collision_rate(50, 2475) <= 0.02

    def test_huge_pool_limit(self):
        assert simple_collision_rate(50, 1e15) < 1e-10

    def test_missing_class_in_plan(self):
        scenario = make_scenario((1, 2))
        with pytest.raises(ScenarioError, match="class 2: missing from allocation plan"):
            metrics_of(scenario, AllocationPlan({1: 10800}))

    @given(gamma_other=st.floats(1.0, 1e5))
    @settings(max_examples=30)
    def test_classes_fully_decoupled(self, gamma_other):
        from rachopt.model import DeviceClass, Scenario, validate_scenario

        plan = AllocationPlan({1: 3600, 9: 7200})
        base = make_scenario((1,)).classes[0]

        def with_other(g):
            other = DeviceClass(id=9, ra_density=g)
            return validate_scenario(
                Scenario(
                    classes=(base, other),
                    total_raos=10800,
                    strategy=Strategy.FULL_DEDICATION,
                )
            )

        reference = metrics_of(with_other(123.0), plan)[1]
        perturbed = metrics_of(with_other(gamma_other), plan)[1]
        assert perturbed == reference


class TestPartialDedication:
    def test_disjoint_sets_reduce_to_dedication(self):
        scenario = make_scenario((1, 2), strategy=Strategy.PARTIAL_DEDICATION)
        plan = AllocationPlan({1: 3600, 2: 7200})
        topo = SharingTopology.from_plan(scenario, plan)
        rates = rates_of(scenario, topo)
        assert rates[1] == pytest.approx(simple_collision_rate(50, 3600), abs=1e-12)
        assert rates[2] == pytest.approx(simple_collision_rate(100, 7200), abs=1e-12)

    def test_fully_shared_sets_reduce_to_sharing(self):
        scenario = make_scenario((1, 2), strategy=Strategy.PARTIAL_DEDICATION)
        topo = SharingTopology.fully_shared(scenario)
        rates = rates_of(scenario, topo)
        expected = single_pool_rate(scenario)
        assert rates[1] == pytest.approx(expected, abs=1e-12)
        assert rates[2] == pytest.approx(expected, abs=1e-12)

    def test_three_region_overlap_against_scalar_oracle(self):
        # class 1 may use [0, 5400), class 2 may use [2700, 10800)
        scenario = make_scenario((1, 2), strategy=Strategy.PARTIAL_DEDICATION)
        topo = SharingTopology.from_ranges({1: [(0, 5399)], 2: [(2700, 10799)]})
        rates = rates_of(scenario, topo)

        # independent scalar evaluation: walk every RAO, accumulate its load
        gammas = {1: 50.0, 2: 100.0}
        sizes = {cid: topo.size(cid) for cid in gammas}
        per_class_terms = {1: [], 2: []}
        for slot in range(10800):
            sharers = [
                cid
                for cid in gammas
                if any(first <= slot <= last for first, last in topo.ranges[cid])
            ]
            if not sharers:
                continue
            load = math.fsum(gammas[cid] / sizes[cid] for cid in sharers)
            for cid in sharers:
                per_class_terms[cid].append(-math.expm1(-load))
        for cid in gammas:
            oracle = math.fsum(per_class_terms[cid]) / sizes[cid]
            assert rates[cid] == pytest.approx(oracle, abs=1e-12)

        # frozen values from the oracle above
        assert rates[1] == pytest.approx(0.015294873819897137, rel=1e-12, abs=0)
        assert rates[2] == pytest.approx(0.01530426361688709, rel=1e-12, abs=0)

    def test_empty_usable_set_rejected(self):
        scenario = make_scenario((1, 2), strategy=Strategy.PARTIAL_DEDICATION)
        topo = SharingTopology.from_ranges({1: [(0, 10799)], 2: []})
        with pytest.raises(Exception, match="empty"):
            pool_layout(scenario, topo)

    @given(sizes=st.lists(st.integers(5, 400), min_size=1, max_size=4))
    @settings(max_examples=30)
    def test_random_disjoint_partitions_match_dedication(self, sizes):
        from rachopt.model import DeviceClass, Scenario, validate_scenario

        classes = tuple(
            DeviceClass(id=i, ra_density=float(3 * (i + 1))) for i in range(len(sizes))
        )
        scenario = validate_scenario(
            Scenario(
                classes=classes,
                total_raos=sum(sizes),
                strategy=Strategy.PARTIAL_DEDICATION,
            )
        )
        plan = AllocationPlan(dict(zip(scenario.class_ids, sizes)))
        topo = SharingTopology.from_plan(scenario, plan)
        rates = rates_of(scenario, topo)
        for cls in scenario.classes:
            expected = simple_collision_rate(cls.ra_density, plan.get(cls.id))
            assert rates[cls.id] == pytest.approx(expected, abs=1e-12)


class TestLayoutMetrics:
    """The general layout path against the scalar forms of the two extremes."""

    @given(
        gammas=st.lists(st.floats(1e-3, 5000.0), min_size=1, max_size=5),
        sizes=st.lists(st.integers(1, 20000), min_size=5, max_size=5),
    )
    @settings(max_examples=200)
    @example(gammas=[2000.0, 2000.0], sizes=[1, 1, 1, 1, 1])
    def test_extremes_match_scalar_forms(self, gammas, sizes):
        from rachopt.model import DeviceClass, Scenario, validate_scenario

        sizes = sizes[: len(gammas)]
        classes = tuple(DeviceClass(id=i, ra_density=g) for i, g in enumerate(gammas))

        def scenario(strategy):
            return validate_scenario(
                Scenario(classes=classes, total_raos=sum(sizes), strategy=strategy)
            )

        dedicated = scenario(Strategy.FULL_DEDICATION)
        plan = AllocationPlan(dict(zip(dedicated.class_ids, sizes)))
        metrics = layout_metrics(dedicated, pool_layout(dedicated, plan))
        for cls in dedicated.classes:
            raos = plan.get(cls.id)
            m = metrics[cls.id]
            assert m.collision_density == cls.ra_density * m.collision_rate
            assert m.collision_rate == pytest.approx(
                simple_collision_rate(cls.ra_density, raos), rel=1e-12, abs=0
            )
            delay = mean_access_delay(cls.ra_density, raos, cls.backoff).inclusive
            if cls.ra_density / raos <= 700:  # exp(-x) is still a normal double
                assert m.mean_delay == pytest.approx(delay, rel=1e-12, abs=0)
            elif cls.ra_density / raos > 710:
                assert m.mean_delay == delay == math.inf

        shared = scenario(Strategy.FULL_SHARING)
        expected = single_pool_rate(shared)
        for m in layout_metrics(shared, pool_layout(shared, None)).values():
            assert m.collision_rate == pytest.approx(expected, rel=1e-12, abs=0)

    def test_success_complements_collision_on_overlaps(self):
        scenario = make_scenario((1, 2, 3), strategy=Strategy.PARTIAL_DEDICATION)
        topo = SharingTopology.from_ranges(
            {1: [(0, 3599)], 2: [(1800, 7199)], 3: [(3600, 10799), (0, 99)]}
        )
        for m in layout_metrics(scenario, pool_layout(scenario, topo)).values():
            assert m.collision_rate + m.success_rate == pytest.approx(1.0, abs=1e-15)
            assert m.mean_delay == pytest.approx(1.0 / m.success_rate, rel=1e-15, abs=0)


class TestCellMetrics:
    def test_density_reference_values(self):
        for ids, shares, expected in (
            ((1, 2), {1: 3600, 2: 7200}, 2.068932488412567),
            ((1, 4), {1: 514, 4: 10286}, 97.27793446128173),
        ):
            scenario, plan = make_scenario(ids), AllocationPlan(shares)
            reference = cell_collision_density(scenario, plan)
            layout_sum = sum(m.collision_density for m in metrics_of(scenario, plan).values())
            assert reference == pytest.approx(expected, rel=1e-13, abs=0)
            assert layout_sum == pytest.approx(expected, rel=1e-13, abs=0)

    def test_density_vanishes_for_huge_pool(self):
        from rachopt.model import DeviceClass, Scenario, validate_scenario

        scenario = validate_scenario(
            Scenario(
                classes=(DeviceClass(id=1, ra_density=1.0),),
                total_raos=10**9,
                strategy=Strategy.FULL_DEDICATION,
            )
        )
        assert cell_collision_density(scenario, AllocationPlan({1: 10**9})) < 1e-8
        assert metrics_of(scenario, AllocationPlan({1: 10**9}))[1].collision_density < 1e-8

    def test_probability_reference_value(self):
        s12 = make_scenario((1, 2))
        metrics = metrics_of(s12, AllocationPlan({1: 3600, 2: 7200}))
        assert cell_probability(s12, metrics) == pytest.approx(0.875485528555877, rel=1e-13, abs=0)

    def test_single_request_probability_equals_rate(self):
        from rachopt.model import DeviceClass, Scenario, validate_scenario

        scenario = validate_scenario(
            Scenario(
                classes=(DeviceClass(id=1, ra_density=1.0),),
                total_raos=100,
                strategy=Strategy.FULL_DEDICATION,
            )
        )
        metrics = metrics_of(scenario, AllocationPlan({1: 100}))
        assert cell_probability(scenario, metrics) == pytest.approx(
            simple_collision_rate(1.0, 100), rel=1e-12, abs=0
        )

    def test_probability_vanishes_with_rates(self):
        s12 = make_scenario((1, 2), total_raos=2 * 10**10)
        metrics = metrics_of(s12, AllocationPlan({1: 10**10, 2: 10**10}))
        assert cell_probability(s12, metrics) < 1e-5

    @given(
        gammas=st.lists(st.floats(1.0, 2000.0), min_size=1, max_size=5),
        shares=st.lists(st.integers(10, 10**5), min_size=5, max_size=5),
    )
    @settings(max_examples=100)
    def test_product_and_exponential_forms_agree(self, gammas, shares):
        from rachopt.model import DeviceClass, Scenario, validate_scenario

        classes = tuple(DeviceClass(id=i, ra_density=g) for i, g in enumerate(gammas))
        scenario = validate_scenario(
            Scenario(
                classes=classes,
                total_raos=sum(shares[: len(gammas)]),
                strategy=Strategy.FULL_DEDICATION,
            )
        )
        plan = AllocationPlan(dict(zip(scenario.class_ids, shares)))
        via_product = cell_probability(scenario, metrics_of(scenario, plan))
        via_exponent = -math.expm1(
            -math.fsum(g * g / l for g, l in zip(gammas, shares))
        )
        assert via_product == pytest.approx(via_exponent, rel=1e-12, abs=1e-12)


class TestAccessDelay:
    def test_reference_value(self):
        delay = mean_access_delay(50, 3600, 1.0)
        assert delay.inclusive == pytest.approx(1.0139857875915788, rel=1e-14, abs=0)

    def test_no_retry_limit(self):
        delay = mean_access_delay(1e-6, 1e9, 2.5)
        assert delay.inclusive == pytest.approx(2.5, rel=1e-12, abs=0)
        assert delay.exclusive == pytest.approx(0.0, abs=1e-12)

    @given(
        gamma=densities,
        raos=pools,
        backoff=st.floats(1e-3, 1e3),
    )
    def test_difference_is_exactly_one_backoff(self, gamma, raos, backoff):
        assume(gamma / raos < 5.0)
        delay = mean_access_delay(gamma, raos, backoff)
        assert delay.inclusive - delay.exclusive == pytest.approx(backoff, rel=1e-12, abs=0)

    @given(gamma=densities, raos=pools, backoff=st.floats(1e-3, 1e3))
    @example(gamma=11.0, raos=1.0, backoff=1.0)
    def test_inclusive_matches_retry_series_sum(self, gamma, raos, backoff):
        # the retry series sums to backoff/(1 - p) = backoff*exp(gamma/L);
        # the exp form is the reference because 1/(1 - p) amplifies the
        # rounding error of p by exp(gamma/L), which at gamma/L = 11 already
        # exceeds 1e-12 relative
        assume(gamma / raos < 30.0)
        delay = mean_access_delay(gamma, raos, backoff)
        assert delay.inclusive == pytest.approx(backoff * math.exp(gamma / raos), rel=1e-12, abs=0)

    def test_rejects_degenerate_inputs(self):
        for args in [(0, 10, 1), (10, 0, 1), (10, 10, 0)]:
            with pytest.raises(ValueError):
                mean_access_delay(*args)


class TestClassMetrics:
    def test_any_collision_probability_empty_is_zero(self):
        assert any_collision_probability([]) == 0.0


def device_scenario(*classes, total, strategy=Strategy.FULL_DEDICATION):
    """Classes given as (coordinators, per-device rate) pairs, group size 1,
    with ids from 1 and backoffs of 1.5 s."""
    return validate_scenario(Scenario(
        classes=tuple(DeviceClass(id=i, population=n, per_device_rate=q, backoff=1.5)
                      for i, (n, q) in enumerate(classes, start=1)),
        total_raos=total, strategy=strategy,
    ))


class TestBernoulliMetrics:
    """layout_metrics under per-device Bernoulli arrivals: a fresh request
    sees the other N_i - 1 coordinators of its class, a retry all N_i."""

    BERNOULLI = ArrivalMode.PER_DEVICE_BERNOULLI

    @pytest.mark.parametrize("allocation", [None, AllocationPlan({1: 20, 2: 48})],
                             ids=["full-sharing", "dedicated"])
    def test_matches_single_pool_reference(self, allocation):
        if allocation is None:
            scenario = device_scenario((40, 0.5), total=20, strategy=Strategy.FULL_SHARING)
        else:
            scenario = device_scenario((40, 0.5), (100, 0.3), total=68)
        layout = pool_layout(scenario, allocation)
        metrics = layout_metrics(scenario, layout, self.BERNOULLI)
        for cls in scenario.classes:
            m, raos = metrics[cls.id], layout.size(cls.id)
            n, q = cls.coordinators, cls.per_device_rate
            assert m.collision_rate == pytest.approx(
                bernoulli_collision_rate(n, q, raos), rel=1e-12, abs=0)
            assert m.success_rate == pytest.approx((1 - q / raos) ** n, rel=1e-12, abs=0)
            assert m.mean_delay == pytest.approx(
                bernoulli_access_delay(n, q, raos, cls.backoff), rel=1e-12, abs=0)
            assert m.collision_density == cls.ra_density * m.collision_rate

    def test_poisson_is_the_default_mode(self):
        scenario = make_scenario((1, 2, 3), strategy=Strategy.PARTIAL_DEDICATION)
        topology = SharingTopology.from_ranges(
            {1: [(0, 3599)], 2: [(1800, 7199)], 3: [(3600, 10799), (0, 99)]}
        )
        assert layout_metrics(scenario, topology) == layout_metrics(
            scenario, topology, ArrivalMode.POISSON_AGGREGATE)

    def test_lone_coordinator_filling_its_rao_never_collides(self):
        # q / L = 1 with N_i = 1: no other request can share its RAO, so no
        # attempt is retried, though a retry would find the RAO busy for
        # sure; the naive (N_i - 1) * log1p(-1) would be 0 * -inf = NaN
        scenario = device_scenario((1, 1.0), (40, 0.5), total=21)
        metrics = layout_metrics(scenario, pool_layout(scenario, AllocationPlan({1: 1, 2: 20})),
                                 self.BERNOULLI)
        assert (metrics[1].collision_rate, metrics[1].success_rate) == (0.0, 0.0)
        assert metrics[1].mean_delay == 1.5
        assert metrics[2].collision_rate == pytest.approx(bernoulli_collision_rate(40, 0.5, 20))

    def test_filled_rao_saturates_the_class_and_its_sharers(self):
        # q / L = 1 with N_i = 2, and a class sharing that RAO: every attempt
        # of both collides, so both are saturated
        scenario = device_scenario((2, 1.0), (3, 0.5), total=1, strategy=Strategy.FULL_SHARING)
        for m in layout_metrics(scenario, pool_layout(scenario, None), self.BERNOULLI).values():
            assert (m.collision_rate, m.success_rate, m.mean_delay) == (1.0, 0.0, math.inf)

    def test_lone_filler_sees_only_its_sharers(self):
        # q / L = 1 with N_i = 1 on a RAO that another class shares: its
        # fresh request collides when one of that class's coordinators picks
        # the RAO, its retries always do
        scenario = device_scenario((1, 1.0), (3, 0.5), total=1, strategy=Strategy.FULL_SHARING)
        metrics = layout_metrics(scenario, pool_layout(scenario, None), self.BERNOULLI)
        assert metrics[1].collision_rate == pytest.approx(1 - 0.5**3, rel=1e-15)
        assert metrics[1].mean_delay == math.inf
        assert metrics[2].collision_rate == 1.0

    @pytest.mark.parametrize("fields, message", [
        ({"ra_density": 50.0}, "class 1: per-device mode needs population and per_device_rate"),
        ({"population": 10, "per_device_rate": 1.5},
         "class 1: per-device attempt probability 1.5/s exceeds 1"),
    ], ids=["no-population", "rate-above-one"])
    def test_classes_that_cannot_arrive_per_device_are_refused(self, fields, message):
        scenario = validate_scenario(Scenario(classes=(DeviceClass(id=1, **fields),),
                                              total_raos=100, strategy=Strategy.FULL_SHARING))
        layout = pool_layout(scenario, None)
        layout_metrics(scenario, layout)  # Poisson needs only the density
        with pytest.raises(ScenarioError) as info:
            layout_metrics(scenario, layout, self.BERNOULLI)
        assert info.value.issues == [message]
