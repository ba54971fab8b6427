"""Closed-form collision and delay models for slotted random access.

All formulas share one kernel, the chance that fresh arrivals leave a RAO
free. A class-j request picks one of its ``L_j`` usable RAOs uniformly, so
class j leaves a RAO free with chance ``exp(-gamma_j/L_j)`` under aggregate
Poisson arrivals, and ``(1 - q_j/L_j)**N_j`` when each of its ``N_j`` group
coordinators attempts with chance ``q_j`` per second. A retry sees every
class whose ranges hold the RAO; a fresh request of class i sees only the
other ``N_i - 1`` coordinators of its own class (its reduced Palm
distribution, which Slivnyak's theorem makes the same under Poisson; see
Baccelli and Blaszczyszyn, *Stochastic Geometry and Wireless Networks*,
Vol. I, 2009). ``layout_metrics`` applies the kernel to any pool layout,
under either arrival mode, and is the one source of predictions in the CLI
and the simulator. The cell-wide quantities assume collision events of
distinct requests are independent, which makes the expected
colliding-request density exact and the any-collision probability an
approximation. ``expm1``/``log1p`` forms keep small loads precise. The
single-pool references the tests check these against live in
``tests/oracles.py``.

Collision density here always counts colliding *requests* per second (a
2-request pileup contributes 2), never pileup events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import ArrivalMode, Scenario, ScenarioError, SharingTopology, arrival_issues


@dataclass(frozen=True)
class ClassMetrics:
    """Per-class closed-form predictions of ``layout_metrics``: the
    collision rate is a fresh request's mean busy chance, the success rate a
    retry's mean free chance."""

    collision_rate: float
    success_rate: float
    collision_density: float
    mean_delay: float


def layout_metrics(
    scenario: Scenario, layout: SharingTopology, mode: ArrivalMode = ArrivalMode.POISSON_AGGREGATE
) -> dict[int, ClassMetrics]:
    """Per-class predictions for any pool layout, so for every strategy,
    under the arrival ``mode``.

    A class's collision rate p averages a fresh request's busy chance over
    its usable RAOs, and its success rate a retry's free chance. Its mean
    inclusive delay is backoff * (1 + p / success): backoff / success when
    the two chances agree, as under Poisson, and infinite once success
    underflows while attempts collide. The load is constant between range
    ends (``SharingTopology.segments``), so the work grows with the number
    of ranges, not of RAOs. Pass a validated layout (``pool_layout``). A
    pool of 2**63 RAOs or more raises ScenarioError, since ``segments``
    keeps the range ends in int64, and so does a class that cannot arrive
    in ``mode`` (``arrival_issues``).
    """
    if scenario.total_raos >= 2**63:
        raise ScenarioError(
            [f"scenario: total_raos {scenario.total_raos} is 2**63 or more, "
             "past the pools the closed form evaluates"]
        )
    if issues := arrival_issues(scenario, mode):
        raise ScenarioError(issues)
    bernoulli = mode == ArrivalMode.PER_DEVICE_BERNOULLI
    sizes = {cls.id: layout.size(cls.id) for cls in scenario.classes}
    with np.errstate(divide="ignore"):  # q = L = 1 fills the RAO: log1p(-1) is -inf
        # per class, the log of the chance that all of it leaves one of its RAOs free
        log_free = {
            c.id: c.coordinators * np.log1p(-c.per_device_rate / sizes[c.id]) if bernoulli
            else -c.ra_density / sizes[c.id] for c in scenario.classes
        }
        _, widths, covered, log_free_run = layout.segments(log_free)
        free = np.exp(log_free_run)
        metrics = {}
        for cls in scenario.classes:
            mask, size = covered[cls.id], sizes[cls.id]
            fresh = log_free_run[mask]  # what a fresh request sees, but under Bernoulli ...
            if bernoulli:  # ... the other N_i - 1 coordinators of its own class
                n = cls.coordinators - 1  # 0 * log1p(-1) would be NaN
                own = n * np.log1p(-cls.per_device_rate / size) if n else 0.0
                fresh = sum(np.where(covered[j], own if j == cls.id else w, 0.0)[mask]
                            for j, w in log_free.items())
            p = float(widths[mask] @ -np.expm1(fresh)) / size
            success = float(widths[mask] @ free[mask]) / size
            # p_retry - p, exactly 0 when the two chances agree
            gap = float(widths[mask] @ np.exp(fresh)) / size - success
            # no retry succeeds: infinite, unless no attempt needs one
            delay = cls.backoff * (1 - gap) / success if success else math.inf if p else cls.backoff
            metrics[cls.id] = ClassMetrics(p, success, cls.ra_density * p, delay)
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
