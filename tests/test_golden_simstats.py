"""Exact SimStats for fixed seeds, one case per pool layout and run mode.

The expected values were recorded from the simulator and are compared with
``==``, so any change to the random-number layout, the slot picks or the
statistics shows up here. A change that is meant to alter simulator output
must say so and re-record these values.
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
from rachopt.simulator import ArrivalMode, SimConfig, _build_pools, run

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
    # class 2's longer backoff sets how far class 1's background reaches,
    # because the two share RAOs 100-199
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
}

# recorded with the seeds above; compared exactly
GOLDEN = {'bernoulli': {'event_density': 0.9,
               'event_density_stderr': 0.2164303704731799,
               'horizon': 1,
               'iterations': 20,
               'per_class': {1: {'attempts': 1014,
                                 'censored': 0,
                                 'collided': 6,
                                 'collision_density': 0.3,
                                 'collision_rate': 0.005917159763313609,
                                 'delay_stderr': None,
                                 'density_stderr': 0.16383560438182507,
                                 'mean_delay': None,
                                 'rate_stderr': 0.002940680980406755},
                             2: {'attempts': 2047,
                                 'censored': 0,
                                 'collided': 30,
                                 'collision_density': 1.5,
                                 'collision_rate': 0.014655593551538837,
                                 'delay_stderr': None,
                                 'density_stderr': 0.4559547530644957,
                                 'mean_delay': None,
                                 'rate_stderr': 0.004224842090140392}},
               'seed': 15,
               'total_density': 1.8,
               'total_density_stderr': 0.4328607409463598},
 'bernoulli_partial': {'event_density': 1.1,
                       'event_density_stderr': 0.2704771612111494,
                       'horizon': 1,
                       'iterations': 20,
                       'per_class': {1: {'attempts': 1004,
                                         'censored': 0,
                                         'collided': 18,
                                         'collision_density': 0.9,
                                         'collision_rate': 0.017928286852589643,
                                         'delay_stderr': None,
                                         'density_stderr': 0.2704771612111494,
                                         'mean_delay': None,
                                         'rate_stderr': 0.005084940404835481},
                                     2: {'attempts': 2079,
                                         'censored': 0,
                                         'collided': 26,
                                         'collision_density': 1.3,
                                         'collision_rate': 0.012506012506012507,
                                         'delay_stderr': None,
                                         'density_stderr': 0.31705885224903224,
                                         'mean_delay': None,
                                         'rate_stderr': 0.002921155163302499}},
                       'seed': 16,
                       'total_density': 2.2,
                       'total_density_stderr': 0.5409543224222988},
 'full_dedication': {'event_density': 1.2,
                     'event_density_stderr': 0.23619795444544078,
                     'horizon': 1,
                     'iterations': 20,
                     'per_class': {1: {'attempts': 1007,
                                       'censored': 0,
                                       'collided': 12,
                                       'collision_density': 0.6,
                                       'collision_rate': 0.011916583912611719,
                                       'delay_stderr': None,
                                       'density_stderr': 0.2102629932151387,
                                       'mean_delay': None,
                                       'rate_stderr': 0.0041411212281373},
                                   2: {'attempts': 1957,
                                       'censored': 0,
                                       'collided': 36,
                                       'collision_density': 1.8,
                                       'collision_rate': 0.018395503321410323,
                                       'delay_stderr': None,
                                       'density_stderr': 0.4790341159150633,
                                       'mean_delay': None,
                                       'rate_stderr': 0.005034599718102105}},
                     'seed': 12,
                     'total_density': 2.4,
                     'total_density_stderr': 0.47239590889088157},
 'full_sharing': {'event_density': 47.425,
                  'event_density_stderr': 1.545909287867755,
                  'horizon': 2,
                  'iterations': 20,
                  'per_class': {1: {'attempts': 2016,
                                    'censored': 0,
                                    'collided': 176,
                                    'collision_density': 4.4,
                                    'collision_rate': 0.0873015873015873,
                                    'delay_stderr': None,
                                    'density_stderr': 0.2869989913791189,
                                    'mean_delay': None,
                                    'rate_stderr': 0.005739379401019799},
                                4: {'attempts': 39847,
                                    'censored': 0,
                                    'collided': 3687,
                                    'collision_density': 92.175,
                                    'collision_rate': 0.09252892313097598,
                                    'delay_stderr': None,
                                    'density_stderr': 3.1404146139273426,
                                    'mean_delay': None,
                                    'rate_stderr': 0.0029924028343145327}},
                  'seed': 11,
                  'total_density': 96.575,
                  'total_density_stderr': 3.1473202887535927},
 'measure_delay': {'event_density': 29.6,
                   'event_density_stderr': 1.4772346537440226,
                   'horizon': 1,
                   'iterations': 10,
                   'per_class': {1: {'attempts': 494,
                                     'censored': 3,
                                     'collided': 195,
                                     'collision_density': 19.5,
                                     'collision_rate': 0.39473684210526316,
                                     'delay_stderr': 0.04541830683450524,
                                     'density_stderr': 1.8272626764887658,
                                     'mean_delay': 1.6619144602851323,
                                     'rate_stderr': 0.025152116957010185},
                                 2: {'attempts': 1043,
                                     'censored': 6,
                                     'collided': 449,
                                     'collision_density': 44.9,
                                     'collision_rate': 0.4304889741131352,
                                     'delay_stderr': 0.03611055106070049,
                                     'density_stderr': 3.737051719678971,
                                     'mean_delay': 1.6682738669238186,
                                     'rate_stderr': 0.02421517760984036}},
                   'seed': 14,
                   'total_density': 64.4,
                   'total_density_stderr': 3.584534682338684},
 'partial_overlapping': {'event_density': 23.95,
                         'event_density_stderr': 1.064931428481863,
                         'horizon': 1,
                         'iterations': 20,
                         'per_class': {1: {'attempts': 1005,
                                           'censored': 0,
                                           'collided': 27,
                                           'collision_density': 1.35,
                                           'collision_rate': 0.026865671641791045,
                                           'delay_stderr': None,
                                           'density_stderr': 0.3423986596137069,
                                           'mean_delay': None,
                                           'rate_stderr': 0.006130964596374768},
                                       2: {'attempts': 2064,
                                           'censored': 0,
                                           'collided': 161,
                                           'collision_density': 8.05,
                                           'collision_rate': 0.07800387596899225,
                                           'delay_stderr': None,
                                           'density_stderr': 0.5959291727607975,
                                           'mean_delay': None,
                                           'rate_stderr': 0.006025401861440218},
                                       3: {'attempts': 9922,
                                           'censored': 0,
                                           'collided': 785,
                                           'collision_density': 39.25,
                                           'collision_rate': 0.07911711348518444,
                                           'delay_stderr': None,
                                           'density_stderr': 1.6715498638594126,
                                           'mean_delay': None,
                                           'rate_stderr': 0.003117872047886314}},
                         'seed': 13,
                         'total_density': 48.65,
                         'total_density_stderr': 2.1042250730125653},
 'full_dedication_long_horizon': {'event_density': 1.0283333333333333,
                                  'event_density_stderr': 0.019649710204252654,
                                  'horizon': 200,
                                  'iterations': 3,
                                  'per_class': {1: {'attempts': 30196,
                                                    'censored': 0,
                                                    'collided': 432,
                                                    'collision_density': 0.7200000000000001,
                                                    'collision_rate': 0.014306530666313419,
                                                    'delay_stderr': None,
                                                    'density_stderr': 0.03214550253664318,
                                                    'mean_delay': None,
                                                    'rate_stderr': 0.0006177335566138037},
                                                2: {'attempts': 59912,
                                                    'censored': 0,
                                                    'collided': 803,
                                                    'collision_density': 1.3383333333333336,
                                                    'collision_rate': 0.013402991053545199,
                                                    'delay_stderr': None,
                                                    'density_stderr': 0.031135902820448976,
                                                    'mean_delay': None,
                                                    'rate_stderr': 0.00026282535536566415}},
                                  'seed': 17,
                                  'total_density': 2.0583333333333336,
                                  'total_density_stderr': 0.037675515184857664},
 'partial_sparse_seconds': {'event_density': 0.36,
                            'event_density_stderr': 0.03749073959733998,
                            'horizon': 40,
                            'iterations': 10,
                            'per_class': {1: {'attempts': 202,
                                              'censored': 0,
                                              'collided': 36,
                                              'collision_density': 0.09,
                                              'collision_rate': 0.1782178217821782,
                                              'delay_stderr': None,
                                              'density_stderr': 0.020480342879074177,
                                              'mean_delay': None,
                                              'rate_stderr': 0.03439826597433615},
                                          2: {'attempts': 783,
                                              'censored': 0,
                                              'collided': 270,
                                              'collision_density': 0.6749999999999999,
                                              'collision_rate': 0.3448275862068966,
                                              'delay_stderr': None,
                                              'density_stderr': 0.0758287544405155,
                                              'mean_delay': None,
                                              'rate_stderr': 0.029062601613718823}},
                            'seed': 18,
                            'total_density': 0.7649999999999999,
                            'total_density_stderr': 0.07557189365836423},
 'measure_delay_long_horizon': {'event_density': 24.4,
                                'event_density_stderr': 1.5556349186104044,
                                'horizon': 5,
                                'iterations': 4,
                                'per_class': {1: {'attempts': 998,
                                                  'censored': 2,
                                                  'collided': 358,
                                                  'collision_density': 17.9,
                                                  'collision_rate': 0.3587174348697395,
                                                  'delay_stderr': 0.047961123842879594,
                                                  'density_stderr': 1.4011899704655804,
                                                  'mean_delay': 1.6104417670682731,
                                                  'rate_stderr': 0.014224620749887507},
                                              2: {'attempts': 1923,
                                                  'censored': 9,
                                                  'collided': 713,
                                                  'collision_density': 35.650000000000006,
                                                  'collision_rate': 0.3707748309932397,
                                                  'delay_stderr': 0.015216175116010883,
                                                  'density_stderr': 2.041853732926692,
                                                  'mean_delay': 1.5694879832810866,
                                                  'rate_stderr': 0.01372538706750273}},
                                'seed': 19,
                                'total_density': 53.550000000000004,
                                'total_density_stderr': 3.3569579483018064},
 'measure_delay_partial': {'event_density': 30.6,
                           'event_density_stderr': 1.4079141387961918,
                           'horizon': 1,
                           'iterations': 10,
                           'per_class': {1: {'attempts': 519,
                                             'censored': 2,
                                             'collided': 220,
                                             'collision_density': 22.0,
                                             'collision_rate': 0.4238921001926782,
                                             'delay_stderr': 0.04333033314015592,
                                             'density_stderr': 1.8915014612148142,
                                             'mean_delay': 1.6363636363636365,
                                             'rate_stderr': 0.02187865405775016},
                                         2: {'attempts': 954,
                                             'censored': 12,
                                             'collided': 452,
                                             'collision_density': 45.2,
                                             'collision_rate': 0.47379454926624737,
                                             'delay_stderr': 0.05234321333898777,
                                             'density_stderr': 2.546457233971237,
                                             'mean_delay': 4.501061571125265,
                                             'rate_stderr': 0.01726390203364474}},
                           'seed': 20,
                           'total_density': 67.2,
                           'total_density_stderr': 3.0140412147886178}}


@pytest.mark.parametrize("name", sorted(CASES))
def test_simstats_match_recording(name):
    assert dataclasses.asdict(CASES[name]()) == GOLDEN[name]


@pytest.mark.parametrize("size", [1, 2, 4096, 8192, 10800])
def test_largest_uniform_draw_picks_last_slot(size):
    # rng.random() stays below 1; its largest value must map to the pool's
    # last slot, never one past it
    scenario = make_scenario((1, 2), total_raos=size + 1)
    plan = AllocationPlan({1: 1, 2: size})
    pool = _build_pools(scenario, plan, SimConfig(iterations=1, seed=0))[1]
    u = np.array([0.0, np.nextafter(1.0, 0.0)])
    assert pool.pick(u).tolist() == [1, size]
