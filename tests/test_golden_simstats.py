"""Exact SimStats for fixed seeds, one case per pool layout and run mode.

The expected values were recorded from the simulator and are compared with
``==``, so any change to the random-number layout, the slot picks or the
statistics shows up here. A change that is meant to alter simulator output
must say so and re-record these values: from the repository root,

    PYTHONPATH=src python tests/test_golden_simstats.py [CASE ...]

prints ``GOLDEN`` from ``CASES``, or only the named cases, to paste over
the recording below.
"""

import dataclasses

import numpy as np
import pytest

from rachopt.model import (
    AllocationPlan,
    DeviceClass,
    Scenario,
    SharingTopology,
    Strategy,
    validate_scenario,
)
from rachopt import simulator
from rachopt.simulator import RNG_LAYOUT, ArrivalMode, SimConfig, run

from conftest import make_scenario


def _full_sharing():
    scenario = make_scenario((1, 4), strategy=Strategy.FULL_SHARING)
    return run(scenario, None, SimConfig(iterations=20, seed=11, horizon=2))


def _full_dedication():
    scenario = make_scenario((1, 2))
    plan = AllocationPlan({1: 3600, 2: 7200})
    return run(scenario, plan, SimConfig(iterations=20, seed=12))


def _partial_overlapping():
    # class 1 lists overlapping ranges; class 3 lists a range inside another
    scenario = make_scenario((1, 2, 3), strategy=Strategy.PARTIAL_DEDICATION)
    topology = SharingTopology.from_ranges(
        {
            1: [(0, 10), (5, 15), (100, 3599)],
            2: [(1800, 7199)],
            3: [(7000, 7300), (3600, 10799)],
        }
    )
    return run(scenario, topology, SimConfig(iterations=20, seed=13))


def _measure_delay():
    scenario = make_scenario((1, 2), total_raos=300)
    plan = AllocationPlan({1: 100, 2: 200})
    config = SimConfig(iterations=10, seed=14, measure_delay=True, max_attempts=6)
    return run(scenario, plan, config)


def _bernoulli():
    scenario = make_scenario((1, 2))
    plan = AllocationPlan({1: 3600, 2: 7200})
    config = SimConfig(
        iterations=20, seed=15, arrival_mode=ArrivalMode.PER_DEVICE_BERNOULLI
    )
    return run(scenario, plan, config)


def _bernoulli_partial():
    scenario = make_scenario((1, 2), strategy=Strategy.PARTIAL_DEDICATION)
    topology = SharingTopology.from_ranges({1: [(0, 5399)], 2: [(2700, 10799)]})
    config = SimConfig(
        iterations=20, seed=16, arrival_mode=ArrivalMode.PER_DEVICE_BERNOULLI
    )
    return run(scenario, topology, config)


def _full_dedication_long_horizon():
    scenario = make_scenario((1, 2))
    plan = AllocationPlan({1: 3600, 2: 7200})
    return run(scenario, plan, SimConfig(iterations=3, seed=17, horizon=200))


def _partial_sparse_seconds():
    # light loads on a small cell, so many seconds draw no request at all;
    # class 1's overlapping ranges merge into RAOs 0-4, of which 3-4 are
    # shared with class 2
    classes = (DeviceClass(id=1, ra_density=0.5), DeviceClass(id=2, ra_density=2.0))
    scenario = validate_scenario(
        Scenario(classes=classes, total_raos=8, strategy=Strategy.PARTIAL_DEDICATION)
    )
    topology = SharingTopology.from_ranges({1: [(0, 2), (1, 4)], 2: [(3, 7)]})
    return run(scenario, topology, SimConfig(iterations=10, seed=18, horizon=40))


def _measure_delay_long_horizon():
    scenario = make_scenario((1, 2), total_raos=300)
    plan = AllocationPlan({1: 100, 2: 200})
    config = SimConfig(
        iterations=4, seed=19, horizon=5, measure_delay=True, max_attempts=6
    )
    return run(scenario, plan, config)


def _measure_delay_partial():
    # the two classes share RAOs 100-199, so retries past the horizon
    # probe them at the summed load of both
    classes = (
        DeviceClass(id=1, ra_density=50.0),
        DeviceClass(id=2, ra_density=100.0, backoff=2.5),
    )
    scenario = validate_scenario(
        Scenario(classes=classes, total_raos=300, strategy=Strategy.PARTIAL_DEDICATION)
    )
    topology = SharingTopology.from_ranges({1: [(0, 199)], 2: [(100, 299)]})
    config = SimConfig(iterations=10, seed=20, measure_delay=True, max_attempts=6)
    return run(scenario, topology, config)


def _multi_block():
    # 1500 s per iteration makes blocks of two iterations, so five
    # iterations draw from three block streams and end inside the third
    classes = (DeviceClass(id=1, ra_density=0.5), DeviceClass(id=2, ra_density=2.0))
    scenario = validate_scenario(
        Scenario(classes=classes, total_raos=8, strategy=Strategy.FULL_SHARING)
    )
    return run(scenario, None, SimConfig(iterations=5, seed=21, horizon=1500))


CASES = {
    "full_sharing": _full_sharing,
    "full_dedication": _full_dedication,
    "partial_overlapping": _partial_overlapping,
    "measure_delay": _measure_delay,
    "bernoulli": _bernoulli,
    "bernoulli_partial": _bernoulli_partial,
    "full_dedication_long_horizon": _full_dedication_long_horizon,
    "partial_sparse_seconds": _partial_sparse_seconds,
    "measure_delay_long_horizon": _measure_delay_long_horizon,
    "measure_delay_partial": _measure_delay_partial,
    "multi_block": _multi_block,
}

# recorded with the seeds above under RECORDED_LAYOUT; compared exactly
RECORDED_LAYOUT = "pcg64-block4096-splitmix64-v3"
GOLDEN = {'bernoulli': {'horizon': 1,
                        'iterations': 20,
                        'per_class': {1: {'attempts': 1037,
                                          'censored': 0,
                                          'collided': 16,
                                          'collision_density': 0.8,
                                          'collision_rate': 0.015429122468659595,
                                          'delay_stderr': None,
                                          'density_stderr': 0.26754242162397546,
                                          'mean_delay': None,
                                          'rate_stderr': 0.0053061507857944746},
                                      2: {'attempts': 2011,
                                          'censored': 0,
                                          'collided': 24,
                                          'collision_density': 1.2,
                                          'collision_rate': 0.011934361014420686,
                                          'delay_stderr': None,
                                          'density_stderr': 0.3043543641010728,
                                          'mean_delay': None,
                                          'rate_stderr': 0.0030160056746359946}},
                        'seed': 15,
                        'total_density': 2.0,
                        'total_density_stderr': 0.3554093266554554},
          'bernoulli_partial': {'horizon': 1,
                                'iterations': 20,
                                'per_class': {1: {'attempts': 1001,
                                                  'censored': 0,
                                                  'collided': 18,
                                                  'collision_density': 0.9,
                                                  'collision_rate': 0.017982017982017984,
                                                  'delay_stderr': None,
                                                  'density_stderr': 0.21643037047317987,
                                                  'mean_delay': None,
                                                  'rate_stderr': 0.004405820621357461},
                                              2: {'attempts': 2001,
                                                  'censored': 0,
                                                  'collided': 32,
                                                  'collision_density': 1.6,
                                                  'collision_rate': 0.015992003998001,
                                                  'delay_stderr': None,
                                                  'density_stderr': 0.3656285143780717,
                                                  'mean_delay': None,
                                                  'rate_stderr': 0.0035873940612704417}},
                                'seed': 16,
                                'total_density': 2.5,
                                'total_density_stderr': 0.40717253552297766},
          'full_dedication': {'horizon': 1,
                              'iterations': 20,
                              'per_class': {1: {'attempts': 954,
                                                'censored': 0,
                                                'collided': 8,
                                                'collision_density': 0.4,
                                                'collision_rate': 0.008385744234800839,
                                                'delay_stderr': None,
                                                'density_stderr': 0.18353258709644943,
                                                'mean_delay': None,
                                                'rate_stderr': 0.0041928061206884075},
                                            2: {'attempts': 2069,
                                                'censored': 0,
                                                'collided': 24,
                                                'collision_density': 1.2,
                                                'collision_rate': 0.011599806669888834,
                                                'delay_stderr': None,
                                                'density_stderr': 0.30435436410107286,
                                                'mean_delay': None,
                                                'rate_stderr': 0.0028417913183710333}},
                              'seed': 12,
                              'total_density': 1.6,
                              'total_density_stderr': 0.39999999999999997},
          'full_dedication_long_horizon': {'horizon': 200,
                                           'iterations': 3,
                                           'per_class': {1: {'attempts': 30383,
                                                             'censored': 0,
                                                             'collided': 416,
                                                             'collision_density': 0.6933333333333334,
                                                             'collision_rate': 0.013691867162558009,
                                                             'delay_stderr': None,
                                                             'density_stderr': 0.09938701010583716,
                                                             'mean_delay': None,
                                                             'rate_stderr': 0.0019172835350299406},
                                                         2: {'attempts': 59995,
                                                             'censored': 0,
                                                             'collided': 825,
                                                             'collision_density': 1.375,
                                                             'collision_rate': 0.013751145928827401,
                                                             'delay_stderr': None,
                                                             'density_stderr': 0.06331139971074194,
                                                             'mean_delay': None,
                                                             'rate_stderr': 0.0006282360469379735}},
                                           'seed': 17,
                                           'total_density': 2.0683333333333334,
                                           'total_density_stderr': 0.11076752432208846},
          'full_sharing': {'horizon': 2,
                           'iterations': 20,
                           'per_class': {1: {'attempts': 2067,
                                             'censored': 0,
                                             'collided': 213,
                                             'collision_density': 5.325,
                                             'collision_rate': 0.10304789550072568,
                                             'delay_stderr': None,
                                             'density_stderr': 0.4719430719460715,
                                             'mean_delay': None,
                                             'rate_stderr': 0.008712388967998466},
                                         4: {'attempts': 39996,
                                             'censored': 0,
                                             'collided': 3710,
                                             'collision_density': 92.75,
                                             'collision_rate': 0.09275927592759275,
                                             'delay_stderr': None,
                                             'density_stderr': 2.116818615902548,
                                             'mean_delay': None,
                                             'rate_stderr': 0.001970822404716835}},
                           'seed': 11,
                           'total_density': 98.075,
                           'total_density_stderr': 2.2379134431312058},
          'measure_delay': {'horizon': 1,
                            'iterations': 10,
                            'per_class': {1: {'attempts': 458,
                                              'censored': 4,
                                              'collided': 161,
                                              'collision_density': 16.1,
                                              'collision_rate': 0.35152838427947597,
                                              'delay_stderr': 0.05145695397107898,
                                              'density_stderr': 1.3203534880225571,
                                              'mean_delay': 1.5594713656387664,
                                              'rate_stderr': 0.024598764513114133},
                                          2: {'attempts': 968,
                                              'censored': 6,
                                              'collided': 379,
                                              'collision_density': 37.9,
                                              'collision_rate': 0.3915289256198347,
                                              'delay_stderr': 0.04567940344054468,
                                              'density_stderr': 4.086427399194666,
                                              'mean_delay': 1.5831600831600832,
                                              'rate_stderr': 0.025745631050250274}},
                            'seed': 14,
                            'total_density': 54.0,
                            'total_density_stderr': 4.939635614091387},
          'measure_delay_long_horizon': {'horizon': 5,
                                         'iterations': 4,
                                         'per_class': {1: {'attempts': 1004,
                                                           'censored': 1,
                                                           'collided': 430,
                                                           'collision_density': 21.5,
                                                           'collision_rate': 0.42828685258964144,
                                                           'delay_stderr': 0.037073748126001754,
                                                           'density_stderr': 1.8046236911518883,
                                                           'mean_delay': 1.678963110667996,
                                                           'rate_stderr': 0.023042161954016285},
                                                       2: {'attempts': 1965,
                                                           'censored': 6,
                                                           'collided': 787,
                                                           'collision_density': 39.35,
                                                           'collision_rate': 0.40050890585241733,
                                                           'delay_stderr': 0.02421134294920539,
                                                           'density_stderr': 1.0210288928331066,
                                                           'mean_delay': 1.610005104645227,
                                                           'rate_stderr': 0.013030101076968451}},
                                         'seed': 19,
                                         'total_density': 60.85,
                                         'total_density_stderr': 2.7183021661814317},
          'measure_delay_partial': {'horizon': 1,
                                    'iterations': 10,
                                    'per_class': {1: {'attempts': 506,
                                                      'censored': 2,
                                                      'collided': 211,
                                                      'collision_density': 21.1,
                                                      'collision_rate': 0.41699604743083,
                                                      'delay_stderr': 0.046938783523538,
                                                      'density_stderr': 1.168569876197207,
                                                      'mean_delay': 1.6865079365079365,
                                                      'rate_stderr': 0.021385952101952807},
                                                  2: {'attempts': 997,
                                                      'censored': 6,
                                                      'collided': 449,
                                                      'collision_density': 44.9,
                                                      'collision_rate': 0.45035105315947843,
                                                      'delay_stderr': 0.11386151494765205,
                                                      'density_stderr': 3.4942810419312287,
                                                      'mean_delay': 4.513118062563068,
                                                      'rate_stderr': 0.022419409302592695}},
                                    'seed': 20,
                                    'total_density': 66.0,
                                    'total_density_stderr': 3.9972212570456707},
          'multi_block': {'horizon': 1500,
                          'iterations': 5,
                          'per_class': {1: {'attempts': 3754,
                                            'censored': 0,
                                            'collided': 1030,
                                            'collision_density': 0.13733333333333334,
                                            'collision_rate': 0.2743740010655301,
                                            'delay_stderr': None,
                                            'density_stderr': 0.003346640106136304,
                                            'mean_delay': None,
                                            'rate_stderr': 0.003412584134415533},
                                        2: {'attempts': 14987,
                                            'censored': 0,
                                            'collided': 4008,
                                            'collision_density': 0.5344,
                                            'collision_rate': 0.2674317742043104,
                                            'delay_stderr': None,
                                            'density_stderr': 0.009159330397650975,
                                            'mean_delay': None,
                                            'rate_stderr': 0.0035278658354594107}},
                          'seed': 21,
                          'total_density': 0.6717333333333333,
                          'total_density_stderr': 0.010105224171464755},
          'partial_overlapping': {'horizon': 1,
                                  'iterations': 20,
                                  'per_class': {1: {'attempts': 934,
                                                    'censored': 0,
                                                    'collided': 14,
                                                    'collision_density': 0.7,
                                                    'collision_rate': 0.014989293361884369,
                                                    'delay_stderr': None,
                                                    'density_stderr': 0.21884866196096617,
                                                    'mean_delay': None,
                                                    'rate_stderr': 0.004554109258416971},
                                                2: {'attempts': 2029,
                                                    'censored': 0,
                                                    'collided': 139,
                                                    'collision_density': 6.95,
                                                    'collision_rate': 0.06850665352390341,
                                                    'delay_stderr': None,
                                                    'density_stderr': 0.5734246153363878,
                                                    'mean_delay': None,
                                                    'rate_stderr': 0.005675159999678747},
                                                3: {'attempts': 10082,
                                                    'censored': 0,
                                                    'collided': 810,
                                                    'collision_density': 40.5,
                                                    'collision_rate': 0.08034120214243205,
                                                    'delay_stderr': None,
                                                    'density_stderr': 2.3725402775129134,
                                                    'mean_delay': None,
                                                    'rate_stderr': 0.004309294006502651}},
                                  'seed': 13,
                                  'total_density': 48.15,
                                  'total_density_stderr': 2.7532516660926776},
          'partial_sparse_seconds': {'horizon': 40,
                                     'iterations': 10,
                                     'per_class': {1: {'attempts': 190,
                                                       'censored': 0,
                                                       'collided': 34,
                                                       'collision_density': 0.08499999999999999,
                                                       'collision_rate': 0.17894736842105263,
                                                       'delay_stderr': None,
                                                       'density_stderr': 0.019790570145063194,
                                                       'mean_delay': None,
                                                       'rate_stderr': 0.03329600057479705},
                                                   2: {'attempts': 751,
                                                       'censored': 0,
                                                       'collided': 262,
                                                       'collision_density': 0.655,
                                                       'collision_rate': 0.3488681757656458,
                                                       'delay_stderr': None,
                                                       'density_stderr': 0.03723051317281446,
                                                       'mean_delay': None,
                                                       'rate_stderr': 0.016277210683358346}},
                                     'seed': 18,
                                     'total_density': 0.74,
                                     'total_density_stderr': 0.046127841676993485}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_simstats_match_recording(name):
    assert dataclasses.asdict(CASES[name]()) == GOLDEN[name]


def test_recording_names_the_current_layout():
    # a new random-number layout gets a new tag and a new recording
    assert RNG_LAYOUT == RECORDED_LAYOUT


class _ExtremeDraws:
    """A generator stub whose stream is the smallest and then the largest
    value ``rng.random()`` returns, however it is split between calls."""

    def __init__(self):
        self._stream = np.array([0.0, np.nextafter(1.0, 0.0)])

    def random(self, out):
        out[:], self._stream = self._stream[: out.size], self._stream[out.size :]
        return out


@pytest.mark.parametrize("wide", [False, True], ids=["uint32", "int64"])
@pytest.mark.parametrize("size", [1, 2, 4096, 8192, 10800])
def test_largest_uniform_draw_picks_last_slot(size, wide):
    # rng.random() stays below 1; its largest value must map to the pool's
    # last slot, never one past it, however many ranges come before it. A
    # pool of 2**32 slots per second makes the chunk's keys int64; a
    # smaller one keeps them uint32, converted through an int32 view.
    for before in ([(1, 1)], [(3, 5)], [(0, 0), (2, 2), (7, 9)]):
        last = 20 + size
        topology = SharingTopology.from_ranges({2: before + [(21, last)]})
        total_slots = 2**32 if wide else last + 1
        keys = simulator._fresh_keys(
            topology, [DeviceClass(id=2)], [_ExtremeDraws()], [np.array([2])],
            total_slots, simulator._Scratch(),
        )
        assert keys.dtype == (np.int64 if wide else np.uint32)
        assert keys.tolist() == [before[0][0], last]


if __name__ == "__main__":
    import pprint
    import sys

    names = sys.argv[1:] or sorted(CASES)
    recorded = {name: dataclasses.asdict(CASES[name]()) for name in names}
    print("GOLDEN = " + pprint.pformat(recorded, width=70).replace("\n", "\n" + " " * 9))
