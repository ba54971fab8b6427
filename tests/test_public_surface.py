"""The names the package exports, pinned, so that a new export is a choice
and an unused one shows up here.

The single-pool references and the scenario writer live in
``tests/oracles.py``; no library module may define them again.
"""

import dataclasses
import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

import rachopt
from rachopt import allocator, cli, simulator
from rachopt.allocator import (
    brute_force_optimal,
    largest_remainder,
    proportional_allocation,
    reserve_and_divide,
)
from rachopt.model import Scenario

PUBLIC = {
    "AllocationError",
    "AllocationPlan",
    "ArrivalMode",
    "ClassMetrics",
    "ClassStats",
    "DeviceClass",
    "OverloadError",
    "QosKind",
    "QosTarget",
    "Scenario",
    "ScenarioError",
    "SharingTopology",
    "SimConfig",
    "SimStats",
    "SimulationError",
    "Strategy",
    "any_collision_probability",
    "brute_force_optimal",
    "derive_ra_density",
    "largest_remainder",
    "layout_metrics",
    "load_scenario",
    "pool_layout",
    "proportional_allocation",
    "reserve_and_divide",
    "reserve_for_collision_rate",
    "run",
    "run_many",
    "scenario_fingerprint",
    "scenario_from_dict",
    "scenario_to_dict",
    "validate_scenario",
}

TEST_ONLY = {
    "AccessDelay",
    "cell_collision_density",
    "mean_access_delay",
    "save_scenario",
    "simple_collision_rate",
    "_pick",
    "_uniform",
}


def test_exports_are_the_public_surface():
    assert len(rachopt.__all__) == len(set(rachopt.__all__))
    assert set(rachopt.__all__) == PUBLIC


def test_arrival_mode_is_one_object():
    # defined in model, re-exported by the simulator and the package
    from rachopt import model, simulator

    assert rachopt.ArrivalMode is simulator.ArrivalMode is model.ArrivalMode


def test_every_export_resolves():
    for name in rachopt.__all__:
        assert getattr(rachopt, name) is not None


@pytest.mark.parametrize(
    "module", ["rachopt", "rachopt.analytics", "rachopt.allocator", "rachopt.model",
               "rachopt.simulator", "rachopt.cli"]
)
def test_test_references_are_not_in_the_library(module):
    assert not TEST_ONLY & set(vars(importlib.import_module(module)))


def test_apportionment_floor_is_fixed():
    assert list(inspect.signature(largest_remainder).parameters) == ["weights", "total"]


def test_exact_oracle_minimizes_the_density_alone():
    assert list(inspect.signature(brute_force_optimal).parameters) == ["scenario"]


def test_scenario_keeps_one_class_order():
    assert [f.name for f in dataclasses.fields(Scenario)] == ["classes", "total_raos", "strategy"]


@pytest.mark.parametrize("allocate", [proportional_allocation, reserve_and_divide,
                                      brute_force_optimal], ids=lambda f: f.__name__)
def test_every_allocator_returns_a_plain_plan(allocate):
    assert inspect.signature(allocate).return_annotation == "AllocationPlan"


@pytest.mark.parametrize("module, name", [
    ("allocator", "MAX_CLASS_RAOS"),
    ("simulator", "SHARED_PASS_LAYOUTS"),
    ("simulator", "RETRY_KEYS"),
    ("simulator", "CHUNK_KEYS"),
    ("simulator", "PIECE_KEYS"),
    ("simulator", "GAP_KEYS"),
    ("simulator", "MAX_ITEMS_PER_ITERATION"),
    ("simulator", "MAX_TALLY_BYTES"),
    ("cli", "MAX_SWEEP_POINTS"),
])
def test_readme_quotes_the_constants(module, name):
    # every `NAME` (value) and `NAME` = value in the README, the digits
    # grouped by spaces and followed by an optional unit
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    units = {"": 1, "M items": 10**6, "GiB": 2**30}
    quoted = re.findall(
        rf"`(?:{module}\.)?{name}`(?: = | \()(\d+(?: \d{{3}})*)(?: (M items|GiB))?", text
    )
    value = getattr(importlib.import_module(f"rachopt.{module}"), name)
    assert {int(digits.replace(" ", "")) * units[unit] for digits, unit in quoted} == {value}


def test_readme_quotes_the_tally_limits():
    # the iterations that MAX_TALLY_BYTES holds with two and three classes
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    per_iteration = simulator._Tally.bytes_per_iteration
    two, three = (simulator.MAX_TALLY_BYTES // per_iteration(c) / 1e6 for c in (2, 3))
    assert [per_iteration(c) for c in (1, 2, 3)] == [40, 80, 120]
    assert (f"at `40 C` bytes per iteration for C classes: {two:.1f} M iterations "
            f"with two classes, {three:.1f} M with three") in text


def _readme_commands():
    """Every ``rachopt`` command in the README's bash blocks, continuation
    lines joined at a trailing backslash."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", text, flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [" ".join(shlex.split(line, comments=True))
            for line in lines if line.strip().startswith("rachopt ")]


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_commands_parse(command):
    # parsed, never run: each names a shipped scenario and the table's methods
    argv = shlex.split(command)[1:]
    args = cli._build_parser().parse_args(argv)
    assert (Path(__file__).resolve().parents[1] / args.scenario).is_file()
    for name in getattr(args, "strategies", "").split(","):
        assert not name or name in allocator.METHODS
