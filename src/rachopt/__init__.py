"""Optimal RAO dedication and collision analytics for grouped random access.

The package splits into:

- :mod:`rachopt.model` - scenario/domain types and the YAML scenario format
- :mod:`rachopt.analytics` - closed-form collision and delay models
- :mod:`rachopt.allocator` - proportional and QoS-driven allocation plans
- :mod:`rachopt.simulator` - seeded Monte-Carlo slotted-access simulator
- :mod:`rachopt.cli` - the ``rachopt`` command-line front end
"""

from .analytics import (
    AccessDelay,
    ClassMetrics,
    any_collision_probability,
    cell_collision_density,
    layout_metrics,
    mean_access_delay,
    simple_collision_rate,
)
from .allocator import (
    AllocationError,
    AllocationOutcome,
    OverloadError,
    brute_force_optimal,
    largest_remainder,
    proportional_allocation,
    reserve_and_divide,
    reserve_for_collision_rate,
    reserve_for_delay,
)
from .model import (
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
from .simulator import (
    ArrivalMode,
    ClassStats,
    SimConfig,
    SimStats,
    SimulationError,
    SweepPoint,
    SweepResult,
    run,
    sweep_dedication,
)

__version__ = "0.1.0"

__all__ = [
    "AccessDelay",
    "AllocationError",
    "AllocationOutcome",
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
    "SweepPoint",
    "SweepResult",
    "any_collision_probability",
    "brute_force_optimal",
    "cell_collision_density",
    "derive_ra_density",
    "largest_remainder",
    "layout_metrics",
    "load_scenario",
    "mean_access_delay",
    "pool_layout",
    "proportional_allocation",
    "reserve_and_divide",
    "reserve_for_collision_rate",
    "reserve_for_delay",
    "run",
    "save_scenario",
    "scenario_fingerprint",
    "scenario_from_dict",
    "scenario_to_dict",
    "simple_collision_rate",
    "sweep_dedication",
    "validate_scenario",
]
