import dataclasses
import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rachopt.model import (
    AllocationPlan,
    DeviceClass,
    QosKind,
    QosTarget,
    Scenario,
    ScenarioError,
    SharingTopology,
    Strategy,
    derive_ra_density,
    load_scenario,
    pool_layout,
    save_scenario,
    scenario_fingerprint,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

from conftest import RATE_QOS, make_scenario


class TestDeriveRaDensity:
    def test_reference_populations(self):
        assert derive_ra_density(3000, 1 / 60, 1) == 50.0
        assert derive_ra_density(30000, 1 / 30, 1) == 1000.0

    def test_one_group_one_coordinator(self):
        assert derive_ra_density(100, 1.0, 100) == 1.0

    def test_partial_final_group_still_attempts(self):
        assert derive_ra_density(101, 1.0, 100) == 2.0

    @pytest.mark.parametrize(
        "population,rate,group",
        [(0, 1.0, 1), (10, 0.0, 1), (10, -1.0, 1), (10, 1.0, 0)],
    )
    def test_rejects_bad_inputs(self, population, rate, group):
        with pytest.raises(ScenarioError):
            derive_ra_density(population, rate, group)

    @given(
        population=st.integers(1, 10**6),
        rate=st.floats(1e-6, 10.0),
        g1=st.integers(1, 1000),
        g2=st.integers(1, 1000),
    )
    def test_monotone_in_group_size(self, population, rate, g1, g2):
        if g1 > g2:
            g1, g2 = g2, g1
        assert derive_ra_density(population, rate, g2) <= derive_ra_density(
            population, rate, g1
        )

    @given(
        groups=st.integers(1, 1000),
        group_size=st.integers(1, 1000),
        rate=st.floats(1e-6, 10.0),
    )
    def test_exact_when_group_divides_population(self, groups, group_size, rate):
        assert derive_ra_density(groups * group_size, rate, group_size) == groups * rate


class TestValidateScenario:
    def test_reference_pair_is_valid(self):
        scenario = make_scenario((1, 2))
        assert scenario.class_ids == (1, 2)
        assert scenario.total_density == 150.0

    def test_zero_density_names_class(self):
        bad = Scenario(
            classes=(DeviceClass(id=7, ra_density=0.0),),
            total_raos=100,
            strategy=Strategy.FULL_SHARING,
        )
        with pytest.raises(ScenarioError, match="class 7.*ra_density"):
            validate_scenario(bad)

    @pytest.mark.parametrize("field", ["ra_density", "backoff"])
    def test_infinite_values_rejected(self, field):
        bad = Scenario(
            classes=(DeviceClass(id=3, **{"ra_density": 1.0, field: math.inf}),),
            total_raos=100,
            strategy=Strategy.FULL_SHARING,
        )
        with pytest.raises(ScenarioError, match=f"class 3: {field} must be finite"):
            validate_scenario(bad)

    def test_insufficient_raos_for_dedication(self):
        bad = Scenario(
            classes=tuple(DeviceClass(id=i, ra_density=5.0) for i in range(3)),
            total_raos=2,
            strategy=Strategy.FULL_DEDICATION,
        )
        with pytest.raises(ScenarioError, match="insufficient RAOs"):
            validate_scenario(bad)
        # the same classes are fine when RAOs are shared
        validate_scenario(dataclasses.replace(bad, strategy=Strategy.FULL_SHARING))

    def test_density_derived_when_omitted(self):
        scenario = validate_scenario(
            Scenario(
                classes=(DeviceClass(id=1, population=3000, per_device_rate=1 / 60),),
                total_raos=100,
                strategy=Strategy.FULL_SHARING,
            )
        )
        assert scenario.classes[0].ra_density == 50.0

    def test_density_disagreement_rejected(self):
        bad = Scenario(
            classes=(
                DeviceClass(id=1, ra_density=51.0, population=3000, per_device_rate=1 / 60),
            ),
            total_raos=100,
            strategy=Strategy.FULL_SHARING,
        )
        with pytest.raises(ScenarioError, match="class 1.*disagrees"):
            validate_scenario(bad)

    def test_population_without_rate_rejected(self):
        bad = Scenario(
            classes=(DeviceClass(id=1, ra_density=50.0, population=3000),),
            total_raos=100,
            strategy=Strategy.FULL_SHARING,
        )
        with pytest.raises(ScenarioError, match="together"):
            validate_scenario(bad)

    def test_duplicate_ids_rejected(self):
        bad = Scenario(
            classes=(DeviceClass(id=1, ra_density=1.0), DeviceClass(id=1, ra_density=2.0)),
            total_raos=100,
            strategy=Strategy.FULL_SHARING,
        )
        with pytest.raises(ScenarioError, match="duplicate"):
            validate_scenario(bad)

    def test_negative_backoff_rejected(self):
        bad = Scenario(
            classes=(DeviceClass(id=1, ra_density=1.0, backoff=0.0),),
            total_raos=100,
            strategy=Strategy.FULL_SHARING,
        )
        with pytest.raises(ScenarioError, match="backoff"):
            validate_scenario(bad)

    def test_specials_sorted_first_and_source_order_kept(self):
        scenario = make_scenario((2, 3, 1), special_ids=(1,))
        assert scenario.class_ids == (1, 2, 3)
        assert scenario.source_order == (2, 3, 1)

    def test_all_violations_reported_at_once(self):
        bad = Scenario(
            classes=(
                DeviceClass(id=1, ra_density=0.0),
                DeviceClass(id=2, ra_density=1.0, backoff=-1.0),
            ),
            total_raos=100,
            strategy=Strategy.FULL_SHARING,
        )
        with pytest.raises(ScenarioError) as err:
            validate_scenario(bad)
        assert len(err.value.issues) == 2


class TestQosValidation:
    def _with_qos(self, qos, backoff=1.0):
        return Scenario(
            classes=(DeviceClass(id=1, ra_density=50.0, backoff=backoff, qos=qos),),
            total_raos=100,
            strategy=Strategy.FULL_SHARING,
        )

    @pytest.mark.parametrize("bad_rate", [0.0, 1.0, -0.5, 1.5])
    def test_rate_bound_range(self, bad_rate):
        qos = QosTarget(kind=QosKind.MAX_COLLISION_RATE, max_collision_rate=bad_rate)
        with pytest.raises(ScenarioError, match="max_collision_rate"):
            validate_scenario(self._with_qos(qos))

    def test_delay_bound_must_exceed_backoff(self):
        qos = QosTarget(kind=QosKind.MAX_MEAN_DELAY, max_mean_delay=0.5)
        with pytest.raises(ScenarioError, match="max_mean_delay"):
            validate_scenario(self._with_qos(qos, backoff=1.0))

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_delay_bound_must_be_finite(self, bound):
        qos = QosTarget(kind=QosKind.MAX_MEAN_DELAY, max_mean_delay=bound)
        with pytest.raises(ScenarioError, match="class 1: qos max_mean_delay must be finite"):
            validate_scenario(self._with_qos(qos))

    def test_bound_must_match_kind(self):
        qos = QosTarget(
            kind=QosKind.MAX_COLLISION_RATE, max_collision_rate=0.02, max_mean_delay=3.0
        )
        with pytest.raises(ScenarioError, match="max_mean_delay is set"):
            validate_scenario(self._with_qos(qos))

    def test_missing_bound_rejected(self):
        qos = QosTarget(kind=QosKind.MAX_MEAN_DELAY)
        with pytest.raises(ScenarioError, match="max_mean_delay missing"):
            validate_scenario(self._with_qos(qos))

    def test_valid_targets_pass(self):
        validate_scenario(
            self._with_qos(QosTarget(kind=QosKind.MAX_MEAN_DELAY, max_mean_delay=2.0))
        )
        validate_scenario(
            self._with_qos(QosTarget(kind=QosKind.MAX_COLLISION_RATE, max_collision_rate=0.02))
        )


class TestAllocationPlan:
    def test_missing_class_detected(self):
        scenario = make_scenario((1, 2))
        with pytest.raises(ScenarioError, match="missing from allocation plan"):
            AllocationPlan({1: 10800}).validate_for(scenario)

    def test_overcommitted_plan_detected(self):
        scenario = make_scenario((1, 2))
        with pytest.raises(ScenarioError, match="available"):
            AllocationPlan({1: 10000, 2: 10000}).validate_for(scenario)

    def test_from_counts_follows_class_order(self):
        scenario = make_scenario((2, 1), special_ids=(1,))  # validated order: 1, 2
        plan = AllocationPlan.from_counts(scenario, [3600, 7200])
        assert plan.get(1) == 3600
        assert plan.get(2) == 7200


class TestSharingTopology:
    def test_ranges_sorted_and_merged_per_class(self):
        topo = SharingTopology.from_ranges(
            {1: [(5, 15), (0, 10), (20, 22), (16, 17)], 2: [(2, 5), (8, 9)]}
        )
        assert topo.ranges == {1: ((0, 17), (20, 22)), 2: ((2, 5), (8, 9))}
        assert topo.size(1) == 21
        assert topo.slots(2).tolist() == [2, 3, 4, 5, 8, 9]

    def test_validation_catches_out_of_range(self):
        scenario = make_scenario((1, 2), strategy=Strategy.PARTIAL_DEDICATION)
        topo = SharingTopology.from_ranges({1: [(0, 10800)], 2: [(0, 99)]})
        with pytest.raises(ScenarioError, match="outside"):
            topo.validate_for(scenario)

    def test_validation_catches_empty_set(self):
        scenario = make_scenario((1, 2), strategy=Strategy.PARTIAL_DEDICATION)
        topo = SharingTopology.from_ranges({1: [(0, 99)], 2: []})
        with pytest.raises(ScenarioError, match="empty"):
            topo.validate_for(scenario)

    def test_empty_range_rejected(self):
        with pytest.raises(ScenarioError, match="empty RAO range"):
            SharingTopology.from_ranges({1: [(5, 4)]})

    def test_from_plan_round_trips_sizes(self):
        scenario = make_scenario((1, 2))
        plan = AllocationPlan({1: 3600, 2: 7200})
        topo = SharingTopology.from_plan(scenario, plan)
        assert topo.size(1) == 3600
        assert topo.size(2) == 7200
        topo.validate_for(scenario)


class TestPoolLayout:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_allocation_type_decides_the_layout(self, strategy):
        scenario = make_scenario((1, 2), strategy=strategy)
        assert pool_layout(scenario, None).ranges == {1: ((0, 10799),), 2: ((0, 10799),)}
        plan = AllocationPlan({1: 3600, 2: 7200})
        assert pool_layout(scenario, plan).ranges == {1: ((0, 3599),), 2: ((3600, 10799),)}
        topo = SharingTopology.from_ranges({1: [(0, 5399)], 2: [(2700, 10799)]})
        assert pool_layout(scenario, topo) is topo

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_allocation_is_validated(self, strategy):
        scenario = make_scenario((1, 2), strategy=strategy)
        with pytest.raises(ScenarioError, match="only 10800 are available"):
            pool_layout(scenario, AllocationPlan({1: 3600, 2: 7201}))
        with pytest.raises(ScenarioError, match="outside"):
            pool_layout(scenario, SharingTopology.from_ranges({1: [(0, 10800)], 2: [(0, 9)]}))


# --- serialization -----------------------------------------------------------

qos_strategy = st.one_of(
    st.none(),
    st.floats(0.001, 0.999).map(
        lambda p: QosTarget(kind=QosKind.MAX_COLLISION_RATE, max_collision_rate=p)
    ),
    st.floats(1.5, 1e4).map(
        lambda d: QosTarget(kind=QosKind.MAX_MEAN_DELAY, max_mean_delay=d)
    ),
)


class_specs = st.tuples(
    st.floats(1e-3, 1e6),  # ra_density
    st.floats(1e-3, 1.0),  # backoff (below the smallest qos delay above)
    st.booleans(),  # special
    qos_strategy,
)

scenarios = st.lists(class_specs, min_size=1, max_size=5).flatmap(
    lambda specs: st.builds(
        Scenario,
        classes=st.just(
            tuple(
                DeviceClass(
                    id=i, ra_density=s[0], backoff=s[1], special=s[2], qos=s[3]
                )
                for i, s in enumerate(specs)
            )
        ),
        total_raos=st.integers(len(specs), 10**6),
        strategy=st.sampled_from(Strategy),
    )
).map(validate_scenario)


class TestSerialization:
    @given(scenario=scenarios)
    @settings(max_examples=50)
    def test_dict_round_trip_is_identity(self, scenario):
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    @given(scenario=scenarios)
    @settings(max_examples=25)
    def test_yaml_round_trip_is_identity(self, scenario):
        text = yaml.safe_dump(scenario_to_dict(scenario))
        assert scenario_from_dict(yaml.safe_load(text)) == scenario

    def test_file_round_trip(self, tmp_path):
        scenario = make_scenario((2, 1), special_ids=(1,))
        path = tmp_path / "scenario.yaml"
        save_scenario(scenario, str(path))
        assert load_scenario(str(path)) == scenario

    def test_unknown_scenario_field_rejected(self):
        data = scenario_to_dict(make_scenario((1,)))
        data["rao_budget"] = 5
        with pytest.raises(ScenarioError, match="unknown fields.*rao_budget"):
            scenario_from_dict(data)

    def test_unknown_class_field_rejected(self):
        data = scenario_to_dict(make_scenario((1,)))
        data["classes"][0]["priority"] = 3
        with pytest.raises(ScenarioError, match="unknown fields.*priority"):
            scenario_from_dict(data)

    def test_unknown_qos_field_rejected(self):
        data = scenario_to_dict(
            make_scenario((1,), special_ids=(1,), qos_for={1: RATE_QOS})
        )
        data["classes"][0]["qos"]["jitter"] = 1
        with pytest.raises(ScenarioError, match="unknown fields.*jitter"):
            scenario_from_dict(data)

    def test_unknown_strategy_rejected(self):
        data = scenario_to_dict(make_scenario((1,)))
        data["strategy"] = "round_robin"
        with pytest.raises(ScenarioError, match="unknown strategy"):
            scenario_from_dict(data)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ScenarioError, match="empty"):
            load_scenario(str(path))

    def test_yaml_syntax_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("total_raos: [unclosed\nstrategy: full_sharing\n")
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load_scenario(str(path))


class TestFingerprint:
    def test_input_order_does_not_matter(self):
        a = make_scenario((1, 2))
        b = make_scenario((2, 1))
        assert scenario_fingerprint(a) == scenario_fingerprint(b)

    def test_content_changes_hash(self):
        a = make_scenario((1, 2))
        b = make_scenario((1, 2), total_raos=10801)
        assert scenario_fingerprint(a) != scenario_fingerprint(b)
