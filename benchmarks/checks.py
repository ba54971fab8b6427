"""Output checks, computed apart from the program.

Every expected value comes from the closed forms in README (per-attempt
collision probability 1 - exp(-gamma/L), colliding-request density
gamma * (1 - exp(-gamma/L)), inclusive mean delay backoff * exp(gamma/L)),
evaluated here with numpy and the standard library. So does every
tolerance: the standard error of a simulated value is derived from the
Poisson arrival model in each slot (see ``slot_moments``), never read from
the report. A reported standard error is itself checked against it. Nothing
here imports rachopt. Each check returns a list of failure messages; an
empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from workloads import COMPARE_STRATEGIES, DELAY_MAX_ATTEMPTS, Op, read_cell

SE_BOUND = 4.0  # standard errors allowed between a simulated and a closed-form value
SWEEP_REL = 0.05  # a sweep point also passes within 5 % of the closed form
EXACT_REL = 1e-12  # reported closed forms must agree to this relative error
OPTIMUM_BAND = 0.10  # the sweep's empirical optimum, around the proportional split
PROPORTIONAL_GAP = 1e-3  # oracle optimum vs proportional plan, at <= 1 request per RAO
MAX_CENSORED = 1e-3
MAX_SE_RATIO = 2.0  # a reported standard error may exceed the closed-form one by this factor
POISSON_TERMS = 80  # arrivals per slot summed over in slot_moments; loads here stay below 1


def strict_json(text: str):
    """Parse a report, rejecting NaN and Infinity, which JSON does not allow."""

    def reject(token: str):
        raise ValueError(f"non-finite number {token} in JSON report")

    return json.loads(text, parse_constant=reject)


def validated_order(cell: dict) -> list[dict]:
    """Classes in the order reports use: special classes first, then file order."""
    classes = cell["classes"]
    return [c for c in classes if c.get("special")] + [c for c in classes if not c.get("special")]


def collision_probability(gamma: float, raos: float) -> float:
    return -math.expm1(-gamma / raos)


def cell_density(gammas, raos) -> float:
    return math.fsum(g * collision_probability(g, n) for g, n in zip(gammas, raos))


def largest_remainder(weights: list[float], total: int) -> list[int]:
    """Hamilton apportionment with at least one unit per share."""
    denom = sum(Fraction(w) for w in weights)
    quotas = [Fraction(w) * total / denom for w in weights]
    shares = [math.floor(q) for q in quotas]
    for i in sorted(range(len(weights)), key=lambda i: (shares[i] - quotas[i], i))[
        : total - sum(shares)
    ]:
        shares[i] += 1
    while min(shares) < 1:
        shares[shares.index(min(shares))] += 1
        shares[max(range(len(shares)), key=lambda i: (shares[i], i))] -= 1
    return shares


def poisson_pmf(mean: float) -> np.ndarray:
    n = np.arange(POISSON_TERMS)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    return np.exp(n * math.log(mean) - mean - log_fact) if mean > 0 else (n == 0) * 1.0


def slot_moments(own: float, other: float, p: float) -> tuple[float, float]:
    """Mean and variance of C - p*N in one slot and second, where N ~
    Poisson(own) are one class's fresh requests, Poisson(other) are everyone
    else's, and C counts the class's requests that collided: N when N >= 2,
    and the lone request when another one is there."""
    pmf = poisson_pmf(own)
    n = np.arange(POISSON_TERMS)
    busy = -math.expm1(-other)  # P(at least one other request)
    mean = pmf[1] * (busy - p) + np.sum(pmf[2:] * n[2:] * (1 - p))
    second = pmf[1] * (busy * (1 - p) ** 2 + (1 - busy) * p * p) + np.sum(
        pmf[2:] * (n[2:] * (1 - p)) ** 2)
    return float(mean), float(second - mean * mean)


def rate_stderr(slots: list[tuple[float, float, int]], p: float, seconds: int) -> float:
    """Standard error of a class's pooled collision rate (collided over
    requests, to first order) after ``seconds`` simulated seconds, summed
    over iterations. ``slots`` holds (own load, other load, number of
    slots) for each kind of slot the class may pick."""
    requests = seconds * sum(own * count for own, _, count in slots)
    var = seconds * sum(slot_moments(own, other, p)[1] * count for own, other, count in slots)
    return math.sqrt(var) / requests


def density_stderr(gammas, raos, seconds: int) -> float:
    """Standard error of the total colliding-request density (Hz) of
    dedicated classes, measured over ``seconds`` simulated seconds."""
    var = sum(n * slot_moments(g / n, 0.0, 0.0)[1] for g, n in zip(gammas, raos))
    return math.sqrt(var / seconds)


def delay_stderr(gamma: float, raos: int, backoff: float, seconds: int) -> float:
    """Standard error of a dedicated class's mean inclusive delay. A request
    alone in its slot waits one backoff period; each of n >= 2 colliding
    requests waits 1 + G periods, G geometric with success probability
    exp(-gamma/L), independent of the others'."""
    x = gamma / raos
    q = math.exp(-x)
    pmf = poisson_pmf(x)
    n = np.arange(POISSON_TERMS)
    # per slot: the sum over its requests of (attempts - e^x); a colliding
    # request's term has mean 1 and variance (1 - q) / q^2
    second = pmf[1] * (1 - 1 / q) ** 2 + np.sum(pmf[2:] * (n[2:] * (1 - q) / q**2 + n[2:] ** 2))
    return backoff * math.sqrt(second / (seconds * raos)) / x


def _within_se(label: str, value: float, expected: float, stderr: float,
               reported_stderr: float) -> list[str]:
    failures = []
    if abs(value - expected) > SE_BOUND * stderr:
        failures.append(f"{label}: {value!r} is {abs(value - expected) / stderr:.1f} SE "
                        f"from {expected!r}")
    if reported_stderr > MAX_SE_RATIO * stderr:
        failures.append(f"{label}: reported SE {reported_stderr!r} exceeds "
                        f"{MAX_SE_RATIO:g} x the closed-form SE {stderr!r}")
    return failures


def _exact(label: str, value: float, expected: float) -> list[str]:
    if abs(value - expected) <= EXACT_REL * abs(expected):
        return []
    return [f"{label}: reported {value!r}, closed form {expected!r}"]


def check_sweep(op: Op, report: dict) -> list[str]:
    cell = read_cell(op.scenario)
    order = validated_order(cell)
    swept = order[op.params["class_index"]]
    other = order[1 - op.params["class_index"]]
    total = cell["total_raos"]
    grid = op.params["grid"]
    points = report["results"]["points"]
    if [p["l_swept"] for p in points] != grid:
        return [f"sweep: points {[p['l_swept'] for p in points]}, expected {grid}"]
    failures = []
    gammas = (swept["ra_density"], other["ra_density"])
    stderr = {}
    for p in points:
        raos = (p["l_swept"], total - p["l_swept"])
        expected = cell_density(gammas, raos)
        stderr[p["l_swept"]] = density_stderr(gammas, raos, op.params["seconds"])
        error = abs(p["total_density_hz"] - expected)
        if error > max(SE_BOUND * stderr[p["l_swept"]], SWEEP_REL * expected):
            failures.append(f"sweep L={p['l_swept']}: density {p['total_density_hz']!r} "
                            f"vs closed form {expected!r} (SE {stderr[p['l_swept']]!r})")
        if p["total_stderr"] > MAX_SE_RATIO * stderr[p["l_swept"]]:
            failures.append(f"sweep L={p['l_swept']}: reported SE {p['total_stderr']!r} "
                            f"exceeds {MAX_SE_RATIO:g} x the closed-form SE")
        failures += _exact(f"sweep L={p['l_swept']} analytic_total_hz",
                           p["analytic_total_hz"], expected)

    optimum = report["results"]["empirical_optimum"]
    by_value = {p["l_swept"]: p for p in points}
    argmin = min(points, key=lambda p: p["total_density_hz"])["l_swept"]
    if optimum != argmin:
        failures.append(f"sweep: empirical optimum {optimum} is not the lowest point {argmin}")
    if optimum not in by_value or optimum in (grid[0], grid[-1]):
        failures.append(f"sweep: empirical optimum {optimum} is not interior")
        return failures
    target = total * swept["ra_density"] / sum(gammas)
    if abs(optimum - target) > OPTIMUM_BAND * target:
        # Outside the band only a grid neighbour of the point nearest the
        # proportional split may win, and only as a statistical tie with it
        # (see README).
        k = min(range(len(grid)), key=lambda k: abs(grid[k] - target))
        near = by_value[grid[k]]
        gap = near["total_density_hz"] - by_value[optimum]["total_density_hz"]
        noise = math.hypot(stderr[grid[k]], stderr[optimum])
        if optimum not in grid[max(k - 1, 0):k + 2]:
            failures.append(f"sweep: optimum {optimum} outside {target:g} +- 10 % and not "
                            f"next to L={grid[k]}")
        elif gap > SE_BOUND * noise:
            failures.append(f"sweep: optimum {optimum} outside {target:g} +- 10 % and "
                            f"{gap / noise:.1f} SE below L={grid[k]}")
    return failures


def check_compare(op: Op, report: dict) -> list[str]:
    cell = read_cell(op.scenario)
    total = cell["total_raos"]
    gamma = {c["id"]: c["ra_density"] for c in cell["classes"]}
    columns = report["results"]["strategies"]
    if sorted(columns) != sorted(COMPARE_STRATEGIES):
        return [f"compare: strategies {sorted(columns)}"]
    failures = []
    plans = {name: {int(k): v for k, v in (columns[name]["plan"] or {}).items()}
             for name in COMPARE_STRATEGIES}

    dedication = plans["full_dedication"]
    if sum(dedication.values()) != total:
        failures.append(f"compare: dedication plan {dedication} does not sum to {total}")
    for cid, count in dedication.items():
        quota = total * gamma[cid] / sum(gamma.values())
        if abs(count - quota) > 1:
            failures.append(f"compare: class {cid} gets {count} RAOs, quota {quota:g}")

    reserve = plans["reserve_and_divide"]
    if sum(reserve.values()) != total:
        failures.append(f"compare: reserve-and-divide plan {reserve} does not sum to {total}")
    for c in cell["classes"]:
        if c.get("special"):
            bound = c["qos"]["max_collision_rate"]
            need = math.ceil(c["ra_density"] / -math.log(1.0 - bound))
            if reserve.get(c["id"]) != need:
                failures.append(f"compare: class {c['id']} reserved {reserve.get(c['id'])}, "
                                f"expected {need}")

    everyone = sum(gamma.values())
    for name in COMPARE_STRATEGIES:
        for cid, g in gamma.items():
            stats = columns[name]["per_class"][str(cid)]
            if name == "full_sharing":
                p = collision_probability(everyone, total)
                slots = [(g / total, (everyone - g) / total, total)]
            else:
                p = collision_probability(g, plans[name][cid])
                slots = [(g / plans[name][cid], 0.0, plans[name][cid])]
            failures += _within_se(f"compare {name} class {cid} rate",
                                   stats["collision_rate_empirical"], p,
                                   rate_stderr(slots, p, op.params["seconds"]),
                                   stats["rate_stderr"])
            failures += _exact(f"compare {name} class {cid} analytic rate",
                               stats["collision_rate_analytic"], p)
    return failures


def parse_topology(spec: str) -> dict[int, np.ndarray]:
    usable = {}
    for entry in spec.split(";"):
        cid, _, spans = entry.partition(":")
        slots = [np.arange(int(a), int(b) + 1)
                 for a, b in (span.split("-") for span in spans.split(","))]
        usable[int(cid)] = np.unique(np.concatenate(slots))
    return usable


def check_partial(op: Op, report: dict) -> list[str]:
    cell = read_cell(op.scenario)
    gamma = {c["id"]: c["ra_density"] for c in cell["classes"]}
    usable = parse_topology(op.params["topology"])
    load = np.zeros(cell["total_raos"])
    for cid, slots in usable.items():
        load[slots] += gamma[cid] / slots.size
    failures = []
    simulated = report["results"]["simulated"]["per_class"]
    for cid, slots in usable.items():
        p = float(np.mean(-np.expm1(-load[slots])))
        own = gamma[cid] / slots.size
        kinds = [(own, other - own, int(count))
                 for other, count in zip(*np.unique(load[slots], return_counts=True))]
        stats = simulated[str(cid)]
        failures += _within_se(f"partial class {cid} rate", stats["collision_rate"], p,
                               rate_stderr(kinds, p, op.params["seconds"]),
                               stats["rate_stderr"])
        failures += _exact(f"partial class {cid} analytic rate",
                           report["results"]["analytic"][str(cid)]["collision_rate"], p)
    return failures


def check_delay(op: Op, report: dict) -> list[str]:
    cell = read_cell(op.scenario)
    classes = validated_order(cell)
    plan = largest_remainder([c["ra_density"] for c in classes], cell["total_raos"])
    simulated = report["results"]["simulated"]["per_class"]
    failures = []
    if report["parameters"]["measure_delay"] is not True:
        failures.append("delay: report says delays were not measured")
    for c, raos in zip(classes, plan):
        stats = simulated[str(c["id"])]
        backoff = c.get("backoff", 1.0)
        expected = backoff * math.exp(c["ra_density"] / raos)
        failures += _within_se(f"delay class {c['id']} mean delay", stats["mean_delay"],
                               expected,
                               delay_stderr(c["ra_density"], raos, backoff, op.params["seconds"]),
                               stats["delay_stderr"])
        if not stats["attempts"] or stats["censored"] / stats["attempts"] >= MAX_CENSORED:
            failures.append(f"delay class {c['id']}: {stats['censored']} of "
                            f"{stats['attempts']} requests censored at "
                            f"{DELAY_MAX_ATTEMPTS} attempts")
    return failures


@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> np.ndarray:
    """Every way to write ``total`` as ``parts`` positive integers, one per
    row, in lexicographic order."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    if parts == 2:
        first = np.arange(1, total, dtype=np.int64)
        return np.column_stack([first, total - first])
    blocks = []
    for head in range(1, total - parts + 2):
        tail = compositions(total - head, parts - 1)
        blocks.append(np.column_stack([np.full(len(tail), head), tail]))
    return np.concatenate(blocks)


@lru_cache(maxsize=None)
def oracle_expectation(gammas: tuple[float, ...], total: int) -> tuple[tuple[int, ...], float]:
    """Density-optimal plan by a vectorised scan of every composition (ties,
    to 1e-12 relative, to the lexicographically smallest plan) and its
    density."""
    plans = compositions(total, len(gammas))
    values = np.zeros(len(plans))
    for k, g in enumerate(gammas):
        values += g * -np.expm1(-g / plans[:, k])
    best = values.min()
    first = int(np.flatnonzero(values <= best + EXACT_REL * abs(best))[0])
    return tuple(int(v) for v in plans[first]), float(best)


def check_oracle(op: Op, plan: list[int]) -> list[str]:
    gammas = tuple(float(c["ra_density"]) for c in op.cell["classes"])
    total = op.cell["total_raos"]
    expected, _ = oracle_expectation(gammas, total)
    if tuple(plan) != expected:
        return [f"{op.name}: plan {plan}, exhaustive scan gives {list(expected)}"]
    if sum(gammas) <= total:
        proportional = largest_remainder(list(gammas), total)
        optimum = cell_density(gammas, plan)
        gap = cell_density(gammas, proportional) - optimum
        if gap > PROPORTIONAL_GAP * optimum:
            return [f"{op.name}: proportional plan {proportional} is "
                    f"{gap / optimum:.3%} above the optimum at <= 1 request per RAO"]
    return []


REPORT_CHECKS = {
    "sweep": check_sweep,
    "compare": check_compare,
    "partial": check_partial,
    "delay": check_delay,
}


def check(op: Op, record: dict) -> list[str]:
    """Check one operation's output as the worker recorded it."""
    if op.cell is not None:
        return check_oracle(op, record["plan"])
    try:
        report = strict_json(record["stdout"])
    except ValueError as exc:
        return [f"{op.name}: report is not strict JSON: {exc}"]
    try:
        return REPORT_CHECKS[op.name](op, report)
    except (KeyError, TypeError) as exc:
        return [f"{op.name}: report lacks an expected field: {exc!r}"]
