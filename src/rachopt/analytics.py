"""Closed-form collision and delay models for slotted random access.

All formulas share one kernel: with requests arriving at ``gamma`` Hz over a
pool of ``raos`` slots per second, the per-attempt collision probability is
``p = 1 - exp(-gamma/raos)``. ``layout_metrics`` applies it to any pool
layout and is the one source of predictions in the CLI and the simulator.
The cell-wide quantities assume collision events of distinct requests are
independent, which makes the expected colliding-request density exact and
the any-collision probability an approximation. ``expm1``/``log1p`` forms
are used throughout so small ``gamma/raos`` ratios do not lose precision to
cancellation. The single-pool references the tests check these against live
in ``tests/oracles.py``.

Collision density here always counts colliding *requests* per second (a
2-request pileup contributes 2), never pileup events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import Scenario, ScenarioError, SharingTopology


@dataclass(frozen=True)
class ClassMetrics:
    """Per-class closed-form predictions of ``layout_metrics``."""

    collision_rate: float
    success_rate: float
    collision_density: float
    mean_delay: float


def layout_metrics(
    scenario: Scenario, layout: SharingTopology
) -> dict[int, ClassMetrics]:
    """Per-class predictions for any pool layout, so for every strategy.

    A class-i request lands on a uniformly chosen RAO from its usable set;
    the load on one RAO is the sum of gamma_j / #usable_j over the classes
    sharing it. The class's collision and success probabilities average the
    per-RAO ``1 - exp(-load)`` and ``exp(-load)`` over its set, and its mean
    inclusive delay is backoff / success, infinite once success underflows.
    The load is constant between range ends (``SharingTopology.segments``),
    so the work grows with the number of ranges, not of RAOs. Pass a
    validated layout (``pool_layout``); a pool of 2**63 RAOs or more raises
    ScenarioError, since ``segments`` keeps the range ends in int64 and
    float ends would merge neighbouring RAOs.
    """
    if scenario.total_raos >= 2**63:
        raise ScenarioError(
            [f"scenario: total_raos {scenario.total_raos} is 2**63 or more, "
             "past the pools the closed form evaluates"]
        )
    _, widths, covered, load = layout.segments(
        {cls.id: cls.ra_density / layout.size(cls.id) for cls in scenario.classes}
    )
    collide, succeed = -np.expm1(-load), np.exp(-load)
    metrics = {}
    for cls in scenario.classes:
        mask, size = covered[cls.id], layout.size(cls.id)
        p = float(widths[mask] @ collide[mask]) / size
        success = float(widths[mask] @ succeed[mask]) / size
        metrics[cls.id] = ClassMetrics(
            collision_rate=p,
            success_rate=success,
            collision_density=cls.ra_density * p,
            mean_delay=cls.backoff / success if success else math.inf,
        )
    return metrics


def any_collision_probability(density_rate_pairs: Iterable[tuple[float, float]]) -> float:
    """Probability that at least one of the requests collides, given
    (density, per-attempt rate) pairs; each of the ``gamma`` requests is an
    independent trial, so this is 1 - prod (1 - p)^gamma in log space."""
    log_terms = []
    for gamma, p in density_rate_pairs:
        if p >= 1.0:  # a saturated class collides with certainty
            return 1.0
        log_terms.append(gamma * math.log1p(-p))
    return -math.expm1(math.fsum(log_terms))
