import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rachopt import model
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
    scenario_fingerprint,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

from conftest import RATE_QOS, make_scenario
from oracles import save_scenario


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

    def test_coordinators_past_the_float_range_rejected(self):
        # the int-times-float product used to raise a raw OverflowError
        with pytest.raises(ScenarioError, match="past the float range"):
            derive_ra_density(10**400, 1e-300)

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

    def test_specials_sorted_first_and_written_in_that_order(self):
        scenario = make_scenario((2, 3, 1), special_ids=(1,))
        assert scenario.class_ids == (1, 2, 3)
        assert [rec["id"] for rec in scenario_to_dict(scenario)["classes"]] == [1, 2, 3]

    def test_bool_total_raos_rejected(self):
        # YAML's true is an int subclass in Python, not a count of RAOs
        with pytest.raises(ScenarioError, match="total_raos must be a positive integer"):
            validate_scenario(
                Scenario(classes=(DeviceClass(id=1, ra_density=1.0),), total_raos=True,
                         strategy=Strategy.FULL_SHARING)
            )

    def test_bool_class_id_rejected(self):
        with pytest.raises(ScenarioError, match="id must be a non-negative integer"):
            validate_scenario(
                Scenario(classes=(DeviceClass(id=True, ra_density=1.0),), total_raos=10,
                         strategy=Strategy.FULL_SHARING)
            )

    @pytest.mark.parametrize("field, value", [
        ("population", 10.5), ("population", 3000.0), ("group_size", 2.5),
    ])
    def test_fractional_count_rejected(self, field, value):
        # a fractional group count would pass through ceil() as a float
        # number of coordinators
        record = {"id": 4, "population": 3000, "per_device_rate": 0.5, field: value}
        data = {"total_raos": 100, "strategy": "full_sharing", "classes": [record]}
        with pytest.raises(
            ScenarioError, match=rf"class 4: {field} must be an integer, got {value}"
        ):
            scenario_from_dict(data)

    def test_density_sum_past_float_range_rejected(self):
        # each density is finite; their sum used to reach the reports as inf
        data = {"total_raos": 10800, "strategy": "full_dedication",
                "classes": [{"id": 1, "ra_density": 1.0e308}, {"id": 2, "ra_density": 1.0e308}]}
        with pytest.raises(ScenarioError, match="ra_density sum to inf"):
            scenario_from_dict(data)
        data["classes"][1]["ra_density"] = 7.0e307
        assert scenario_from_dict(data).total_density == 1.7e308

    def test_integer_density_past_float_range_rejected(self):
        # YAML reads 1 followed by 400 zeros as an int, which no float holds
        data = {"total_raos": 100, "strategy": "full_sharing",
                "classes": [{"id": 5, "ra_density": 10**400}]}
        with pytest.raises(ScenarioError, match="class 5: ra_density must be finite"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("field", [
        "population", "per_device_rate", "group_size", "backoff",
        "qos.max_collision_rate", "qos.max_mean_delay",
    ])
    def test_every_class_number_within_the_float_range(self, field):
        # the rule ra_density follows above: group_size too, though only
        # integer division reads it, since a group past the float range
        # outnumbers any population that the rule admits
        record = {"id": 1, "population": 3000, "per_device_rate": 0.5}
        if field.startswith("qos."):
            name = field.removeprefix("qos.")
            record["qos"] = {"kind": name, name: 10**400}
        else:
            record[field] = 10**400
        data = {"total_raos": 100, "strategy": "full_sharing", "classes": [record]}
        with pytest.raises(ScenarioError, match=rf"^class 1: {field} must be finite and > 0$"):
            scenario_from_dict(data)

    def test_derived_density_past_float_range_rejected(self):
        # every factor is in range, but their product is not
        data = {"total_raos": 100, "strategy": "full_sharing",
                "classes": [{"id": 5, "population": 10**300, "per_device_rate": 1.0e+10}]}
        with pytest.raises(ScenarioError, match="^class 5: ra_density must be finite and > 0$"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("value", ["no", "false", 1, 0, None])
    def test_non_bool_special_rejected(self, value):
        # "no" in quotes is a string, and used to make the class special
        data = {"total_raos": 100, "strategy": "full_sharing",
                "classes": [{"id": 6, "ra_density": 1.0, "special": value}]}
        with pytest.raises(
            ScenarioError, match=f"class 6: special must be true or false, got {value!r}"
        ):
            scenario_from_dict(data)

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
        with pytest.raises(ScenarioError, match="class 1: qos.max_mean_delay must be finite"):
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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 60), st.integers(0, 12)), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_range_map_matches_slot_array(self, classes, seed):
        # positions map to RAOs, and back, as indexing each class's
        # concatenated aranges of its merged ranges would; a class is named by
        # its position in ``ranges``, whatever its id
        topo = SharingTopology.from_ranges(
            {10 - c: [(a, a + w) for a, w in spans] for c, spans in enumerate(classes)}
        )
        slots = [np.concatenate([np.arange(a, b + 1) for a, b in spans])
                 for spans in topo.ranges.values()]
        for pos, (cid, rao) in enumerate(zip(topo.ranges, slots)):
            index = np.arange(rao.size)
            assert topo.size(cid) == rao.size
            assert topo.rao_at(pos, index).tolist() == rao.tolist()
            assert topo.index_of(pos, rao).tolist() == index.tolist()
            in_place = index.astype(np.int32)
            assert topo.rao_at(pos, in_place, out=in_place) is in_place
            assert in_place.tolist() == rao.tolist()
        # every class at once, its requests mixed with the others'
        order = np.random.default_rng(seed).permutation(sum(s.size for s in slots))
        pos = np.repeat(np.arange(len(slots)), [s.size for s in slots])[order]
        index = np.concatenate([np.arange(s.size) for s in slots])[order]
        rao = np.concatenate(slots)[order]
        assert topo.rao_at(pos, index).tolist() == rao.tolist()
        assert topo.index_of(pos, rao).tolist() == index.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, 60), st.integers(0, 12)), min_size=1, max_size=4),
                st.floats(1e-3, 1e3),  # weight
                st.integers(0, 3),  # rank in the order of the weights
            ),
            min_size=1,
            max_size=3,
        )
    )
    # summed as 0.3 + 0.2 + 0.1 this is 0.6; in class or reversed order, 0.6000000000000001
    @example([([(0, 5)], 0.1, 2), ([(0, 5)], 0.2, 1), ([(0, 5)], 0.3, 0)])
    def test_segments_match_slot_array(self, classes):
        # the runs split the union of the classes' RAOs wherever one class's
        # membership changes, which is at its range ends, and carry per-RAO
        # membership and weight sums
        topo = SharingTopology.from_ranges(
            {cid: [(a, a + w) for a, w in spans] for cid, (spans, _, _) in enumerate(classes, 1)}
        )
        order = sorted(topo.ranges, key=lambda cid: classes[cid - 1][2])
        weights = {cid: classes[cid - 1][1] for cid in order}
        starts, widths, covered, total = topo.segments(weights)

        member = np.zeros((len(order) + 1, 74), dtype=bool)  # RAOs 0-73; row 0 unused
        for cid, spans in topo.ranges.items():
            for first, last in spans:
                member[cid, first:last + 1] = True
        changes = np.flatnonzero(np.diff(member, axis=1, prepend=False).any(axis=0))
        assert starts.dtype == np.int64
        assert starts.tolist() == changes[:-1].tolist()
        assert (starts + widths).tolist() == changes[1:].tolist()
        per_rao = np.zeros(member.shape[1])
        for cid, weight in weights.items():
            assert covered[cid].tolist() == member[cid, starts].tolist()
            per_rao[member[cid]] += weight
        union = slice(changes[0], changes[-1])
        assert np.repeat(total, widths).tolist() == per_rao[union].tolist()

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

    def test_absent_fields_take_the_dataclass_defaults(self):
        data = {"total_raos": 10, "strategy": "full_sharing", "classes": [
            {"id": 1, "ra_density": 5.0},
            {"id": 2, "ra_density": 5.0, "special": True,
             "qos": {"kind": "max_mean_delay", "max_mean_delay": 2.0}},
        ]}
        special, normal = scenario_from_dict(data).classes
        assert normal == DeviceClass(id=1, ra_density=5.0)
        assert special.qos == QosTarget(kind=QosKind.MAX_MEAN_DELAY, max_mean_delay=2.0)

    def test_missing_qos_kind_named(self):
        data = scenario_to_dict(make_scenario((1,)))
        data["classes"][0]["qos"] = {"max_collision_rate": 0.02}
        with pytest.raises(ScenarioError, match=r"classes\[0\]\.qos: unknown kind None"):
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

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_yaml_error_names_path_and_line_with_either_loader(
        self, monkeypatch, tmp_path, loader
    ):
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML was built without libyaml")
        monkeypatch.setattr(model, "YAML_LOADER", getattr(yaml, loader))
        path = tmp_path / "broken.yaml"
        path.write_text("total_raos: [unclosed\nstrategy: full_sharing\n")
        with pytest.raises(ScenarioError, match=f"^{re.escape(str(path))}:2: not valid YAML"):
            load_scenario(str(path))

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    @pytest.mark.parametrize(
        "text, line, key",
        [
            ("total_raos: 100\ntotal_raos: 200\nstrategy: full_sharing\n"
             "classes: [{id: 1, ra_density: 5.0}]\n", 2, "'total_raos'"),
            ("total_raos: 100\nstrategy: full_sharing\nclasses:\n"
             "  - id: 1\n    ra_density: 50\n    ra_density: 5000\n", 6, "'ra_density'"),
            ("total_raos: 100\nstrategy: full_dedication\nclasses:\n"
             "  - id: 1\n    ra_density: 5.0\n    special: true\n    qos:\n"
             "      kind: max_collision_rate\n      max_collision_rate: 0.02\n"
             "      max_collision_rate: 0.5\n", 10, "'max_collision_rate'"),
        ],
        ids=["scenario", "class", "qos"],
    )
    def test_repeated_key_names_path_and_line_with_either_loader(
        self, monkeypatch, tmp_path, loader, text, line, key
    ):
        # a loader keeps a repeated key's last value: 5000 Hz, not 50
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML was built without libyaml")
        monkeypatch.setattr(model, "YAML_LOADER", getattr(yaml, loader))
        path = tmp_path / "repeated.yaml"
        path.write_text(text)
        with pytest.raises(
            ScenarioError,
            match=f"^{re.escape(str(path))}:{line}: key {key} given again "
            rf"\(first on line {line - 1}\)$",
        ):
            load_scenario(str(path))

    def test_merge_key_may_override(self, tmp_path):
        # YAML's `<<` merge gives defaults that the mapping's own keys replace
        path = tmp_path / "merge.yaml"
        path.write_text(
            "total_raos: 100\nstrategy: full_sharing\nclasses:\n"
            "  - &base {id: 1, ra_density: 5.0}\n  - {<<: *base, id: 2}\n"
        )
        assert load_scenario(str(path)).class_ids == (1, 2)


ROOT = Path(__file__).resolve().parent.parent
SHIPPED_YAML = sorted(
    [*ROOT.glob("scenarios/*.yaml"), *ROOT.glob("benchmarks/cells/*.yaml")]
)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("path", SHIPPED_YAML, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_libyaml_and_python_loaders_agree(monkeypatch, path):
    # load_scenario uses the C loader when PyYAML has it and SafeLoader
    # otherwise; both must read every shipped file as the same document
    assert model.YAML_LOADER is yaml.CSafeLoader
    text = path.read_text(encoding="utf-8")
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    fast = load_scenario(str(path))
    monkeypatch.setattr(model, "YAML_LOADER", yaml.SafeLoader)
    assert load_scenario(str(path)) == fast


class TestFingerprint:
    def test_input_order_does_not_matter(self):
        a = make_scenario((1, 2))
        b = make_scenario((2, 1))
        assert scenario_fingerprint(a) == scenario_fingerprint(b)

    def test_content_changes_hash(self):
        a = make_scenario((1, 2))
        b = make_scenario((1, 2), total_raos=10801)
        assert scenario_fingerprint(a) != scenario_fingerprint(b)

    def test_group_size_is_part_of_the_content(self):
        def one_class(**fields):
            return validate_scenario(Scenario(
                classes=(DeviceClass(id=1, ra_density=5.0, **fields),),
                total_raos=100,
                strategy=Strategy.FULL_SHARING,
            ))

        grouped = one_class(group_size=2)
        assert scenario_to_dict(grouped)["classes"][0]["group_size"] == 2
        assert scenario_from_dict(scenario_to_dict(grouped)) == grouped
        assert scenario_fingerprint(grouped) != scenario_fingerprint(one_class())

    def test_every_field_is_part_of_the_content(self):
        # per field of a class or its qos: a valid value away from the base's,
        # with the fields it needs; a field added to either dataclass needs one
        class_values = {
            "id": {"id": 2},
            "ra_density": {"ra_density": 6.0},
            "population": {"population": 250, "per_device_rate": 0.02},
            "per_device_rate": {"population": 250, "per_device_rate": 0.02},
            "group_size": {"group_size": 2},
            "backoff": {"backoff": 0.5},
            "qos": {"qos": RATE_QOS},
            "special": {"special": True},
        }
        delay_qos = {"kind": QosKind.MAX_MEAN_DELAY, "max_collision_rate": None,
                     "max_mean_delay": 3.0}
        qos_values = {"kind": delay_qos, "max_collision_rate": {"max_collision_rate": 0.05},
                      "max_mean_delay": delay_qos}

        def one_class(cls):
            return validate_scenario(
                Scenario(classes=(cls,), total_raos=100, strategy=Strategy.FULL_SHARING)
            )

        plain = DeviceClass(id=1, ra_density=5.0)
        with_qos = dataclasses.replace(plain, qos=RATE_QOS)
        cases = [(plain, class_values[f.name]) for f in dataclasses.fields(DeviceClass)]
        cases += [
            (with_qos, {"qos": dataclasses.replace(RATE_QOS, **qos_values[f.name])})
            for f in dataclasses.fields(QosTarget)
        ]
        for base, changes in cases:
            scenario = one_class(dataclasses.replace(base, **changes))
            assert scenario_from_dict(scenario_to_dict(scenario)) == scenario, changes
            assert scenario_fingerprint(scenario) != scenario_fingerprint(one_class(base)), changes
