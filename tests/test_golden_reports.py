"""Pinned closed-form numbers of the CLI reports on the shipped scenarios.

Every number of ``analyze --json`` and ``optimize --json`` (both methods) on
each ``scenarios/*.yaml``, the ``collision_rate_analytic`` column of
``compare --json`` and the sweep's ``analytic_total_hz`` were recorded from
the CLI and are compared at ``rel=1e-12, abs=0``; strings, booleans, nulls
and the report structure must match exactly. A refactor of the analytics may
move these numbers by rounding only.
"""

import json
from pathlib import Path

import pytest

from rachopt.cli import EXIT_OK, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NAMES = ("dc1_dc2", "dc1_dc3", "dc1_dc4", "dc123_qos")


def _whole(report):
    return report


def _compare_analytic(report):
    return {
        name: {cid: row["collision_rate_analytic"] for cid, row in column["per_class"].items()}
        for name, column in report["results"]["strategies"].items()
    }


def _sweep_analytic(report):
    return [point["analytic_total_hz"] for point in report["results"]["points"]]


def _cases():
    cases = {}
    for name in NAMES:
        path = str(SCENARIOS / f"{name}.yaml")
        cases[f"analyze/{name}"] = (["analyze", path], _whole)
        for method in ("proportional", "reserve-and-divide"):
            cases[f"optimize/{method}/{name}"] = (["optimize", path, "--method", method], _whole)
        cases[f"optimize/default/{name}"] = (["optimize", path], _whole)
    cases["compare/dc123_qos"] = (
        [
            "compare",
            str(SCENARIOS / "dc123_qos.yaml"),
            "--strategies",
            "full_sharing,full_dedication,reserve_and_divide",
            "--iterations",
            "2",
            "--seed",
            "1",
        ],
        _compare_analytic,
    )
    for name in ("dc1_dc2", "dc1_dc4"):
        cases[f"sweep/{name}"] = (
            [
                "sweep",
                str(SCENARIOS / f"{name}.yaml"),
                "--values",
                "1,600,3600,5400,10799",
                "--iterations",
                "1",
                "--seed",
                "1",
            ],
            _sweep_analytic,
        )
    return cases


CASES = _cases()


def pinned(capsys, case):
    argv, extract = CASES[case]
    assert main(argv + ["--json"]) == EXIT_OK
    return extract(json.loads(capsys.readouterr().out))


def assert_matches(actual, expected, where="report"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected), where
        for key, value in expected.items():
            assert_matches(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, value in enumerate(expected):
            assert_matches(actual[i], value, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), where
        assert actual == pytest.approx(expected, rel=1e-12, abs=0), where
    else:
        assert type(actual) is type(expected) and actual == expected, where


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_numbers_pinned(capsys, case):
    assert_matches(pinned(capsys, case), GOLDEN[case], case)


# recorded from the CLI with the arguments above
GOLDEN = {'analyze/dc123_qos': {'command': 'analyze',
                       'fingerprint': 'bd691499862dca556d1777e4ae0d1e36ef9da5c88f3927ac357435b68c7bf332',
                       'parameters': {'plan': 'proportional:831,1661,8308',
                                      'topology': None},
                       'results': {'cell': {'collision_probability': 1.0,
                                            'total_collision_density_hz': 37.966404047382824},
                                   'per_class': {'1': {'collision_density_hz': 2.9197056871580243,
                                                       'collision_rate': 0.05839411374316049,
                                                       'mean_delay_excl_s': 0.062015451045335235,
                                                       'mean_delay_incl_s': 1.0620154510453352,
                                                       'ra_density_hz': 50.0,
                                                       'raos': 831,
                                                       'saturated': False},
                                                 '2': {'collision_density_hz': 5.842822208813926,
                                                       'collision_rate': 0.05842822208813926,
                                                       'mean_delay_excl_s': 0.06205392245051833,
                                                       'mean_delay_incl_s': 1.0620539224505183,
                                                       'ra_density_hz': 100.0,
                                                       'raos': 1661,
                                                       'saturated': False},
                                                 '3': {'collision_density_hz': 29.20387615141087,
                                                       'collision_rate': 0.05840775230282174,
                                                       'mean_delay_excl_s': 0.06203083388342212,
                                                       'mean_delay_incl_s': 1.0620308338834221,
                                                       'ra_density_hz': 500.0,
                                                       'raos': 8308,
                                                       'saturated': False}},
                                   'strategy': 'full_dedication'}},
 'analyze/dc1_dc2': {'command': 'analyze',
                     'fingerprint': '32e726d9cfaccc18ba9cd7bcb08855ced868f0f6bfd98355d02361827da527a6',
                     'parameters': {'plan': 'proportional:3600,7200', 'topology': None},
                     'results': {'cell': {'collision_probability': 0.875485528555877,
                                          'total_collision_density_hz': 2.068932488412567},
                                 'per_class': {'1': {'collision_density_hz': 0.689644162804189,
                                                     'collision_rate': 0.013792883256083781,
                                                     'mean_delay_excl_s': 0.013985787591578758,
                                                     'mean_delay_incl_s': 1.0139857875915788,
                                                     'ra_density_hz': 50.0,
                                                     'raos': 3600,
                                                     'saturated': False},
                                               '2': {'collision_density_hz': 1.379288325608378,
                                                     'collision_rate': 0.013792883256083781,
                                                     'mean_delay_excl_s': 0.013985787591578758,
                                                     'mean_delay_incl_s': 1.0139857875915788,
                                                     'ra_density_hz': 100.0,
                                                     'raos': 7200,
                                                     'saturated': False}},
                                 'strategy': 'full_dedication'}},
 'analyze/dc1_dc3': {'command': 'analyze',
                     'fingerprint': 'f2493b00ca650f34a6b26cbbcd87306cb2be4703e5535ca0e7cd01d7d458156d',
                     'parameters': {'plan': 'proportional:982,9818', 'topology': None},
                     'results': {'cell': {'collision_probability': 0.9999999999993149,
                                          'total_collision_density_hz': 27.30801480523689},
                                 'per_class': {'1': {'collision_density_hz': 2.4820987491183546,
                                                     'collision_rate': 0.04964197498236709,
                                                     'mean_delay_excl_s': 0.05223502477547459,
                                                     'mean_delay_incl_s': 1.0522350247754746,
                                                     'ra_density_hz': 50.0,
                                                     'raos': 982,
                                                     'saturated': False},
                                               '3': {'collision_density_hz': 24.825916056118537,
                                                     'collision_rate': 0.049651832112237074,
                                                     'mean_delay_excl_s': 0.05224593868854699,
                                                     'mean_delay_incl_s': 1.052245938688547,
                                                     'ra_density_hz': 500.0,
                                                     'raos': 9818,
                                                     'saturated': False}},
                                 'strategy': 'full_dedication'}},
 'analyze/dc1_dc4': {'command': 'analyze',
                     'fingerprint': '70eb98092d56067719ab1542c050372c507c18ab2b33234af8bdc290ab361a0a',
                     'parameters': {'plan': 'proportional:514,10286', 'topology': None},
                     'results': {'cell': {'collision_probability': 1.0,
                                          'total_collision_density_hz': 97.27793446128173},
                                 'per_class': {'1': {'collision_density_hz': 4.634734241292913,
                                                     'collision_rate': 0.09269468482585826,
                                                     'mean_delay_excl_s': 0.10216482067898736,
                                                     'mean_delay_incl_s': 1.1021648206789874,
                                                     'ra_density_hz': 50.0,
                                                     'raos': 514,
                                                     'saturated': False},
                                               '4': {'collision_density_hz': 92.64320021998881,
                                                     'collision_rate': 0.09264320021998881,
                                                     'mean_delay_excl_s': 0.10210228241244268,
                                                     'mean_delay_incl_s': 1.1021022824124427,
                                                     'ra_density_hz': 1000.0,
                                                     'raos': 10286,
                                                     'saturated': False}},
                                 'strategy': 'full_dedication'}},
 'compare/dc123_qos': {'full_dedication': {'1': 0.05839411374316049,
                                           '2': 0.05842822208813926,
                                           '3': 0.05840775230282174},
                       'full_sharing': {'1': 0.05840985110807479,
                                        '2': 0.05840985110807479,
                                        '3': 0.05840985110807479},
                       'reserve_and_divide': {'1': 0.019999326626579397,
                                              '2': 0.06951200952334086,
                                              '3': 0.06954100058373053}},
 'optimize/default/dc123_qos': {'command': 'optimize',
                                'fingerprint': 'bd691499862dca556d1777e4ae0d1e36ef9da5c88f3927ac357435b68c7bf332',
                                'parameters': {'method': 'reserve-and-divide'},
                                'results': {'cell': {'collision_probability': 1.0,
                                                     'total_collision_density_hz': 42.721667575528315},
                                            'method': 'reserve-and-divide',
                                            'plan': {'1': 2475, '2': 1388, '3': 6937},
                                            'predicted': {'1': {'collision_density_hz': 0.9999663313289698,
                                                                'collision_rate': 0.019999326626579397,
                                                                'mean_delay_s': 1.0204074621272825,
                                                                'saturated': False},
                                                          '2': {'collision_density_hz': 6.951200952334085,
                                                                'collision_rate': 0.06951200952334086,
                                                                'mean_delay_s': 1.0747048970376631,
                                                                'saturated': False},
                                                          '3': {'collision_density_hz': 34.77050029186526,
                                                                'collision_rate': 0.06954100058373053,
                                                                'mean_delay_s': 1.0747383824836534,
                                                                'saturated': False}},
                                            'reserved': {'1': 2475},
                                            'residual_after_reservation': 8325}},
 'optimize/default/dc1_dc2': {'command': 'optimize',
                              'fingerprint': '32e726d9cfaccc18ba9cd7bcb08855ced868f0f6bfd98355d02361827da527a6',
                              'parameters': {'method': 'proportional'},
                              'results': {'cell': {'collision_probability': 0.875485528555877,
                                                   'total_collision_density_hz': 2.068932488412567},
                                          'method': 'proportional',
                                          'plan': {'1': 3600, '2': 7200},
                                          'predicted': {'1': {'collision_density_hz': 0.689644162804189,
                                                              'collision_rate': 0.013792883256083781,
                                                              'mean_delay_s': 1.0139857875915788,
                                                              'saturated': False},
                                                        '2': {'collision_density_hz': 1.379288325608378,
                                                              'collision_rate': 0.013792883256083781,
                                                              'mean_delay_s': 1.0139857875915788,
                                                              'saturated': False}},
                                          'reserved': {},
                                          'residual_after_reservation': None}},
 'optimize/default/dc1_dc3': {'command': 'optimize',
                              'fingerprint': 'f2493b00ca650f34a6b26cbbcd87306cb2be4703e5535ca0e7cd01d7d458156d',
                              'parameters': {'method': 'proportional'},
                              'results': {'cell': {'collision_probability': 0.9999999999993149,
                                                   'total_collision_density_hz': 27.30801480523689},
                                          'method': 'proportional',
                                          'plan': {'1': 982, '3': 9818},
                                          'predicted': {'1': {'collision_density_hz': 2.4820987491183546,
                                                              'collision_rate': 0.04964197498236709,
                                                              'mean_delay_s': 1.0522350247754746,
                                                              'saturated': False},
                                                        '3': {'collision_density_hz': 24.825916056118537,
                                                              'collision_rate': 0.049651832112237074,
                                                              'mean_delay_s': 1.052245938688547,
                                                              'saturated': False}},
                                          'reserved': {},
                                          'residual_after_reservation': None}},
 'optimize/default/dc1_dc4': {'command': 'optimize',
                              'fingerprint': '70eb98092d56067719ab1542c050372c507c18ab2b33234af8bdc290ab361a0a',
                              'parameters': {'method': 'proportional'},
                              'results': {'cell': {'collision_probability': 1.0,
                                                   'total_collision_density_hz': 97.27793446128173},
                                          'method': 'proportional',
                                          'plan': {'1': 514, '4': 10286},
                                          'predicted': {'1': {'collision_density_hz': 4.634734241292913,
                                                              'collision_rate': 0.09269468482585826,
                                                              'mean_delay_s': 1.1021648206789874,
                                                              'saturated': False},
                                                        '4': {'collision_density_hz': 92.64320021998881,
                                                              'collision_rate': 0.09264320021998881,
                                                              'mean_delay_s': 1.1021022824124427,
                                                              'saturated': False}},
                                          'reserved': {},
                                          'residual_after_reservation': None}},
 'optimize/proportional/dc123_qos': {'command': 'optimize',
                                     'fingerprint': 'bd691499862dca556d1777e4ae0d1e36ef9da5c88f3927ac357435b68c7bf332',
                                     'parameters': {'method': 'proportional'},
                                     'results': {'cell': {'collision_probability': 1.0,
                                                          'total_collision_density_hz': 37.966404047382824},
                                                 'method': 'proportional',
                                                 'plan': {'1': 831,
                                                          '2': 1661,
                                                          '3': 8308},
                                                 'predicted': {'1': {'collision_density_hz': 2.9197056871580247,
                                                                     'collision_rate': 0.058394113743160496,
                                                                     'mean_delay_s': 1.0620154510453352,
                                                                     'saturated': False},
                                                               '2': {'collision_density_hz': 5.842822208813926,
                                                                     'collision_rate': 0.05842822208813926,
                                                                     'mean_delay_s': 1.0620539224505183,
                                                                     'saturated': False},
                                                               '3': {'collision_density_hz': 29.20387615141087,
                                                                     'collision_rate': 0.05840775230282174,
                                                                     'mean_delay_s': 1.0620308338834221,
                                                                     'saturated': False}},
                                                 'reserved': {},
                                                 'residual_after_reservation': None}},
 'optimize/proportional/dc1_dc2': {'command': 'optimize',
                                   'fingerprint': '32e726d9cfaccc18ba9cd7bcb08855ced868f0f6bfd98355d02361827da527a6',
                                   'parameters': {'method': 'proportional'},
                                   'results': {'cell': {'collision_probability': 0.875485528555877,
                                                        'total_collision_density_hz': 2.068932488412567},
                                               'method': 'proportional',
                                               'plan': {'1': 3600, '2': 7200},
                                               'predicted': {'1': {'collision_density_hz': 0.689644162804189,
                                                                   'collision_rate': 0.013792883256083781,
                                                                   'mean_delay_s': 1.0139857875915788,
                                                                   'saturated': False},
                                                             '2': {'collision_density_hz': 1.379288325608378,
                                                                   'collision_rate': 0.013792883256083781,
                                                                   'mean_delay_s': 1.0139857875915788,
                                                                   'saturated': False}},
                                               'reserved': {},
                                               'residual_after_reservation': None}},
 'optimize/proportional/dc1_dc3': {'command': 'optimize',
                                   'fingerprint': 'f2493b00ca650f34a6b26cbbcd87306cb2be4703e5535ca0e7cd01d7d458156d',
                                   'parameters': {'method': 'proportional'},
                                   'results': {'cell': {'collision_probability': 0.9999999999993149,
                                                        'total_collision_density_hz': 27.30801480523689},
                                               'method': 'proportional',
                                               'plan': {'1': 982, '3': 9818},
                                               'predicted': {'1': {'collision_density_hz': 2.4820987491183546,
                                                                   'collision_rate': 0.04964197498236709,
                                                                   'mean_delay_s': 1.0522350247754746,
                                                                   'saturated': False},
                                                             '3': {'collision_density_hz': 24.825916056118537,
                                                                   'collision_rate': 0.049651832112237074,
                                                                   'mean_delay_s': 1.052245938688547,
                                                                   'saturated': False}},
                                               'reserved': {},
                                               'residual_after_reservation': None}},
 'optimize/proportional/dc1_dc4': {'command': 'optimize',
                                   'fingerprint': '70eb98092d56067719ab1542c050372c507c18ab2b33234af8bdc290ab361a0a',
                                   'parameters': {'method': 'proportional'},
                                   'results': {'cell': {'collision_probability': 1.0,
                                                        'total_collision_density_hz': 97.27793446128173},
                                               'method': 'proportional',
                                               'plan': {'1': 514, '4': 10286},
                                               'predicted': {'1': {'collision_density_hz': 4.634734241292913,
                                                                   'collision_rate': 0.09269468482585826,
                                                                   'mean_delay_s': 1.1021648206789874,
                                                                   'saturated': False},
                                                             '4': {'collision_density_hz': 92.64320021998881,
                                                                   'collision_rate': 0.09264320021998881,
                                                                   'mean_delay_s': 1.1021022824124427,
                                                                   'saturated': False}},
                                               'reserved': {},
                                               'residual_after_reservation': None}},
 'optimize/reserve-and-divide/dc123_qos': {'command': 'optimize',
                                           'fingerprint': 'bd691499862dca556d1777e4ae0d1e36ef9da5c88f3927ac357435b68c7bf332',
                                           'parameters': {'method': 'reserve-and-divide'},
                                           'results': {'cell': {'collision_probability': 1.0,
                                                                'total_collision_density_hz': 42.721667575528315},
                                                       'method': 'reserve-and-divide',
                                                       'plan': {'1': 2475,
                                                                '2': 1388,
                                                                '3': 6937},
                                                       'predicted': {'1': {'collision_density_hz': 0.9999663313289698,
                                                                           'collision_rate': 0.019999326626579397,
                                                                           'mean_delay_s': 1.0204074621272825,
                                                                           'saturated': False},
                                                                     '2': {'collision_density_hz': 6.951200952334085,
                                                                           'collision_rate': 0.06951200952334086,
                                                                           'mean_delay_s': 1.0747048970376631,
                                                                           'saturated': False},
                                                                     '3': {'collision_density_hz': 34.77050029186526,
                                                                           'collision_rate': 0.06954100058373053,
                                                                           'mean_delay_s': 1.0747383824836534,
                                                                           'saturated': False}},
                                                       'reserved': {'1': 2475},
                                                       'residual_after_reservation': 8325}},
 'optimize/reserve-and-divide/dc1_dc2': {'command': 'optimize',
                                         'fingerprint': '32e726d9cfaccc18ba9cd7bcb08855ced868f0f6bfd98355d02361827da527a6',
                                         'parameters': {'method': 'reserve-and-divide'},
                                         'results': {'cell': {'collision_probability': 0.875485528555877,
                                                              'total_collision_density_hz': 2.068932488412567},
                                                     'method': 'reserve-and-divide',
                                                     'plan': {'1': 3600, '2': 7200},
                                                     'predicted': {'1': {'collision_density_hz': 0.689644162804189,
                                                                         'collision_rate': 0.013792883256083781,
                                                                         'mean_delay_s': 1.0139857875915788,
                                                                         'saturated': False},
                                                                   '2': {'collision_density_hz': 1.379288325608378,
                                                                         'collision_rate': 0.013792883256083781,
                                                                         'mean_delay_s': 1.0139857875915788,
                                                                         'saturated': False}},
                                                     'reserved': {},
                                                     'residual_after_reservation': 10800}},
 'optimize/reserve-and-divide/dc1_dc3': {'command': 'optimize',
                                         'fingerprint': 'f2493b00ca650f34a6b26cbbcd87306cb2be4703e5535ca0e7cd01d7d458156d',
                                         'parameters': {'method': 'reserve-and-divide'},
                                         'results': {'cell': {'collision_probability': 0.9999999999993149,
                                                              'total_collision_density_hz': 27.30801480523689},
                                                     'method': 'reserve-and-divide',
                                                     'plan': {'1': 982, '3': 9818},
                                                     'predicted': {'1': {'collision_density_hz': 2.4820987491183546,
                                                                         'collision_rate': 0.04964197498236709,
                                                                         'mean_delay_s': 1.0522350247754746,
                                                                         'saturated': False},
                                                                   '3': {'collision_density_hz': 24.825916056118537,
                                                                         'collision_rate': 0.049651832112237074,
                                                                         'mean_delay_s': 1.052245938688547,
                                                                         'saturated': False}},
                                                     'reserved': {},
                                                     'residual_after_reservation': 10800}},
 'optimize/reserve-and-divide/dc1_dc4': {'command': 'optimize',
                                         'fingerprint': '70eb98092d56067719ab1542c050372c507c18ab2b33234af8bdc290ab361a0a',
                                         'parameters': {'method': 'reserve-and-divide'},
                                         'results': {'cell': {'collision_probability': 1.0,
                                                              'total_collision_density_hz': 97.27793446128173},
                                                     'method': 'reserve-and-divide',
                                                     'plan': {'1': 514, '4': 10286},
                                                     'predicted': {'1': {'collision_density_hz': 4.634734241292913,
                                                                         'collision_rate': 0.09269468482585826,
                                                                         'mean_delay_s': 1.1021648206789874,
                                                                         'saturated': False},
                                                                   '4': {'collision_density_hz': 92.64320021998881,
                                                                         'collision_rate': 0.09264320021998881,
                                                                         'mean_delay_s': 1.1021022824124427,
                                                                         'saturated': False}},
                                                     'reserved': {},
                                                     'residual_after_reservation': 10800}},
 'sweep/dc1_dc2': [50.92173738333524,
                   4.97338124844443,
                   2.068932488412567,
                   2.2956366474300944,
                   100.23096780711303],
 'sweep/dc1_dc4': [138.4430129807924,
                   97.38442967643867,
                   130.36491832941365,
                   169.51043631460408,
                   1000.2309678071131]}
