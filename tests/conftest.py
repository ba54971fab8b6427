"""Shared scenario builders and a fresh-interpreter runner for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

from hypothesis import settings

# hypothesis's pytest plugin imports this module to report a failing example,
# and it imports a deprecated mypy_extensions name: under filterwarnings =
# error that warning would abort the session, so it is imported here first
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    import hypothesis.extra._patching  # noqa: F401

import rachopt
from rachopt.model import (
    DeviceClass,
    QosKind,
    QosTarget,
    Scenario,
    Strategy,
    validate_scenario,
)

# every run draws the same examples, so that a failure reproduces in a fresh checkout
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# reference device-class populations used across the experiment suite:
# (population, attempts per device per second, aggregate RA density in Hz)
CLASS_SPECS = {
    1: (3000, 1 / 60, 50.0),
    2: (30000, 1 / 300, 100.0),
    3: (30000, 1 / 60, 500.0),
    4: (30000, 1 / 30, 1000.0),
}

RATE_QOS = QosTarget(kind=QosKind.MAX_COLLISION_RATE, max_collision_rate=0.02)

# a child interpreter imports the rachopt under test, installed or not
_FRESH_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(rachopt.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])
    ),
}


def run_fresh(code: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -c code *args`` in a fresh interpreter; ``kwargs`` go to
    ``subprocess.run``."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=_FRESH_ENV, timeout=60, **kwargs
    )


def make_class(
    cid: int,
    *,
    special: bool = False,
    qos: QosTarget | None = None,
    backoff: float = 1.0,
    with_population: bool = True,
) -> DeviceClass:
    population, rate, density = CLASS_SPECS[cid]
    return DeviceClass(
        id=cid,
        ra_density=density,
        population=population if with_population else None,
        per_device_rate=rate if with_population else None,
        backoff=backoff,
        qos=qos,
        special=special,
    )


def make_scenario(
    ids: tuple[int, ...],
    strategy: Strategy = Strategy.FULL_DEDICATION,
    total_raos: int = 10800,
    special_ids: tuple[int, ...] = (),
    qos_for: dict[int, QosTarget] | None = None,
    with_population: bool = True,
) -> Scenario:
    qos_for = qos_for or {}
    classes = tuple(
        make_class(
            cid,
            special=cid in special_ids,
            qos=qos_for.get(cid),
            with_population=with_population,
        )
        for cid in ids
    )
    return validate_scenario(
        Scenario(classes=classes, total_raos=total_raos, strategy=strategy)
    )
