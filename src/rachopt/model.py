"""Domain model for grouped random access scenarios.

A scenario describes device classes competing for a shared pool of random
access opportunities (RAOs). Each class aggregates many devices into groups;
only one coordinator per group performs random access, so the class's
request density is ``ceil(population / group_size) * per_device_rate``.
Whether grouping also changes a coordinator's own attempt frequency is left
out of the model: ``group_size`` acts purely as a population divisor.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

#: Relative tolerance used when a class states ra_density alongside
#: population/per_device_rate; decimal configs cannot write 1/60 exactly.
DENSITY_AGREEMENT_RTOL = 1e-6


class Strategy(str, Enum):
    """How the RAO pool is split across device classes."""

    FULL_SHARING = "full_sharing"
    FULL_DEDICATION = "full_dedication"
    PARTIAL_DEDICATION = "partial_dedication"


class QosKind(str, Enum):
    MAX_COLLISION_RATE = "max_collision_rate"
    MAX_MEAN_DELAY = "max_mean_delay"


class ScenarioError(ValueError):
    """Raised when a scenario violates one or more model invariants.

    ``issues`` lists every violation found, each naming the offending
    class and field.
    """

    def __init__(self, issues: Sequence[str]):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


@dataclass(frozen=True)
class QosTarget:
    """A per-class quality-of-service bound, either on the per-attempt
    collision rate or on the mean access delay."""

    kind: QosKind
    max_collision_rate: float | None = None
    max_mean_delay: float | None = None


@dataclass(frozen=True)
class DeviceClass:
    """A population of devices sharing RA statistics and treatment.

    ``ra_density`` (aggregate RA requests per second) may be given directly
    or derived from ``population``/``per_device_rate``/``group_size``;
    validation fills it in and checks agreement if both forms are present.
    ``backoff`` is the wait, in seconds, before a collided request retries.
    """

    id: int
    ra_density: float | None = None
    population: int | None = None
    per_device_rate: float | None = None
    group_size: int = 1
    backoff: float = 1.0
    qos: QosTarget | None = None
    special: bool = False

    @property
    def coordinators(self) -> int | None:
        """Group coordinators actually performing RA, when population is known."""
        if self.population is None:
            return None
        return -(-self.population // self.group_size)


@dataclass(frozen=True)
class Scenario:
    """Device classes plus the RAO budget and allocation strategy.

    The strategy names the scenario file's default allocation; the layout a
    run or report uses comes from the allocation handed to ``pool_layout``.
    After validation, special classes precede normal ones; ``source_order``
    records the class ids in the order they were originally supplied so
    reports can restore the input ordering.
    """

    classes: tuple[DeviceClass, ...]
    total_raos: int
    strategy: Strategy
    source_order: tuple[int, ...] | None = None

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(cls.id for cls in self.classes)

    @property
    def total_density(self) -> float:
        return math.fsum(cls.ra_density for cls in self.classes)  # type: ignore[misc]

    @property
    def special_classes(self) -> tuple[DeviceClass, ...]:
        return tuple(cls for cls in self.classes if cls.special)

    @property
    def normal_classes(self) -> tuple[DeviceClass, ...]:
        return tuple(cls for cls in self.classes if not cls.special)


@dataclass(frozen=True)
class AllocationPlan:
    """Dedicated RAOs per second, keyed by class id, under full dedication."""

    raos: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "raos", dict(self.raos))

    def get(self, class_id: int) -> int:
        try:
            return self.raos[class_id]
        except KeyError:
            raise KeyError(f"allocation plan has no entry for class {class_id}") from None

    @property
    def total(self) -> int:
        return sum(self.raos.values())

    def validate_for(self, scenario: Scenario) -> None:
        issues = []
        for cls in scenario.classes:
            if cls.id not in self.raos:
                issues.append(f"class {cls.id}: missing from allocation plan")
            elif self.raos[cls.id] < 1:
                issues.append(f"class {cls.id}: allocated {self.raos[cls.id]} RAOs, need >= 1")
        extra = set(self.raos) - set(scenario.class_ids)
        if extra:
            issues.append(f"plan covers unknown class ids {sorted(extra)}")
        if self.total > scenario.total_raos:
            issues.append(
                f"plan allocates {self.total} RAOs but only {scenario.total_raos} are available"
            )
        if issues:
            raise ScenarioError(issues)

    @classmethod
    def from_counts(cls, scenario: Scenario, counts: Sequence[int]) -> "AllocationPlan":
        """Build a plan from per-class counts given in validated class order."""
        if len(counts) != len(scenario.classes):
            raise ScenarioError(
                [f"plan lists {len(counts)} counts for {len(scenario.classes)} classes"]
            )
        return cls(dict(zip(scenario.class_ids, counts)))


@dataclass(frozen=True)
class SharingTopology:
    """Usable RAOs per class: the one pool layout behind every strategy.

    ``ranges[i]`` lists the inclusive (first, last) RAO index ranges class
    ``i`` may pick from, sorted, with overlapping and adjacent ranges merged.
    Full sharing gives every class the whole pool (``fully_shared``), full
    dedication gives each class its own contiguous block (``from_plan``),
    and partial dedication lets ranges of different classes overlap. Build
    one with ``from_ranges``, ``fully_shared`` or ``from_plan``; no slot
    array exists until ``slots`` is called.
    """

    ranges: Mapping[int, tuple[tuple[int, int], ...]]

    def size(self, class_id: int) -> int:
        return sum(last - first + 1 for first, last in self.ranges[class_id])

    def slots(self, class_id: int) -> np.ndarray:
        """The class's usable RAO indices, ascending."""
        return np.concatenate(
            [np.arange(first, last + 1, dtype=np.int64) for first, last in self.ranges[class_id]]
        )

    def validate_for(self, scenario: Scenario) -> None:
        issues = []
        for cls in scenario.classes:
            spans = self.ranges.get(cls.id)
            if not spans:
                issues.append(f"class {cls.id}: usable RAO set is empty or missing")
            elif spans[0][0] < 0 or spans[-1][1] >= scenario.total_raos:
                issues.append(
                    f"class {cls.id}: RAO indices outside [0, {scenario.total_raos})"
                )
        extra = set(self.ranges) - set(scenario.class_ids)
        if extra:
            issues.append(f"topology covers unknown class ids {sorted(extra)}")
        if issues:
            raise ScenarioError(issues)

    @classmethod
    def from_ranges(
        cls, ranges: Mapping[int, Sequence[tuple[int, int]]]
    ) -> "SharingTopology":
        """Build from per-class lists of inclusive (first, last) index ranges,
        in any order and possibly overlapping."""
        merged = {}
        for cid, spans in ranges.items():
            out: list[tuple[int, int]] = []
            for first, last in sorted(spans):
                if last < first:
                    raise ScenarioError([f"class {cid}: empty RAO range {first}-{last}"])
                if out and first <= out[-1][1] + 1:
                    out[-1] = (out[-1][0], max(out[-1][1], last))
                else:
                    out.append((first, last))
            merged[cid] = tuple(out)
        return cls(merged)

    @classmethod
    def fully_shared(cls, scenario: Scenario) -> "SharingTopology":
        whole = ((0, scenario.total_raos - 1),)
        return cls({cid: whole for cid in scenario.class_ids})

    @classmethod
    def from_plan(cls, scenario: Scenario, plan: AllocationPlan) -> "SharingTopology":
        """Disjoint topology equivalent to a full-dedication plan
        (contiguous ranges in validated class order)."""
        ranges = {}
        offset = 0
        for cls_ in scenario.classes:
            count = plan.get(cls_.id)
            ranges[cls_.id] = ((offset, offset + count - 1),)
            offset += count
        return cls(ranges)


def pool_layout(
    scenario: Scenario, allocation: AllocationPlan | SharingTopology | None
) -> SharingTopology:
    """Validate the allocation and resolve it to per-class RAO ranges.

    The allocation's type alone decides the layout, whatever strategy the
    scenario names: None shares the whole pool, an AllocationPlan becomes one
    contiguous block per class in validated class order, and a
    SharingTopology is used as given.
    """
    if allocation is None:
        return SharingTopology.fully_shared(scenario)
    allocation.validate_for(scenario)
    if isinstance(allocation, AllocationPlan):
        return SharingTopology.from_plan(scenario, allocation)
    return allocation


def derive_ra_density(population: int, per_device_rate: float, group_size: int = 1) -> float:
    """Aggregate RA request density (Hz) of a grouped device population.

    Only one coordinator per group performs RA, and a partial final group
    still needs its own coordinator, hence the ceiling.
    """
    if population < 1:
        raise ScenarioError(["population must be >= 1"])
    if per_device_rate <= 0:
        raise ScenarioError(["per_device_rate must be > 0"])
    if group_size < 1:
        raise ScenarioError(["group_size must be >= 1"])
    return -(-population // group_size) * per_device_rate


def _resolve_class(cls: DeviceClass, issues: list[str]) -> DeviceClass:
    label = f"class {cls.id}"
    if not isinstance(cls.id, int) or cls.id < 0:
        issues.append(f"{label}: id must be a non-negative integer")
        return cls
    if cls.group_size < 1:
        issues.append(f"{label}: group_size must be >= 1")
        return cls
    if (cls.population is None) != (cls.per_device_rate is None):
        issues.append(f"{label}: population and per_device_rate must be given together")
        return cls
    if cls.population is not None and cls.population < 1:
        issues.append(f"{label}: population must be >= 1")
        return cls
    if cls.per_device_rate is not None and cls.per_device_rate <= 0:
        issues.append(f"{label}: per_device_rate must be > 0")
        return cls

    density = cls.ra_density
    if cls.population is not None and cls.per_device_rate is not None:
        derived = derive_ra_density(cls.population, cls.per_device_rate, cls.group_size)
        if density is None:
            density = derived
        elif not math.isclose(density, derived, rel_tol=DENSITY_AGREEMENT_RTOL):
            issues.append(
                f"{label}: ra_density {density} disagrees with "
                f"ceil(population/group_size)*per_device_rate = {derived}"
            )
    if density is None:
        issues.append(f"{label}: ra_density missing (give it or population/per_device_rate)")
        return cls
    if not 0 < density < math.inf:
        issues.append(f"{label}: ra_density must be finite and > 0")
    if not 0 < cls.backoff < math.inf:
        issues.append(f"{label}: backoff must be finite and > 0")
    _check_qos(cls, issues)
    return replace(cls, ra_density=density)


def _check_qos(cls: DeviceClass, issues: list[str]) -> None:
    qos = cls.qos
    if qos is None:
        return
    label = f"class {cls.id}"
    if qos.kind == QosKind.MAX_COLLISION_RATE:
        if qos.max_mean_delay is not None:
            issues.append(f"{label}: qos kind is {qos.kind.value} but max_mean_delay is set")
        if qos.max_collision_rate is None:
            issues.append(f"{label}: qos max_collision_rate missing")
        elif not 0 < qos.max_collision_rate < 1:
            issues.append(f"{label}: qos max_collision_rate must lie in (0, 1)")
    elif qos.kind == QosKind.MAX_MEAN_DELAY:
        if qos.max_collision_rate is not None:
            issues.append(f"{label}: qos kind is {qos.kind.value} but max_collision_rate is set")
        if qos.max_mean_delay is None:
            issues.append(f"{label}: qos max_mean_delay missing")
        elif not math.isfinite(qos.max_mean_delay):
            issues.append(f"{label}: qos max_mean_delay must be finite")
        elif not qos.max_mean_delay > cls.backoff:
            issues.append(
                f"{label}: qos max_mean_delay must exceed the backoff "
                f"({qos.max_mean_delay} <= {cls.backoff})"
            )


def validate_scenario(scenario: Scenario) -> Scenario:
    """Check every model invariant and return the validated scenario.

    The result has every ra_density resolved to a concrete value and special
    classes moved ahead of normal ones (stable within each group); the
    original id order is recorded in ``source_order``. Raises ScenarioError
    listing all violations at once.
    """
    issues: list[str] = []
    if not scenario.classes:
        issues.append("scenario: needs at least one device class")
    if not isinstance(scenario.total_raos, int) or scenario.total_raos < 1:
        issues.append("scenario: total_raos must be a positive integer")

    resolved = [_resolve_class(cls, issues) for cls in scenario.classes]

    ids = [cls.id for cls in resolved]
    dupes = sorted({i for i in ids if ids.count(i) > 1})
    if dupes:
        issues.append(f"scenario: duplicate class ids {dupes}")
    if (
        scenario.strategy == Strategy.FULL_DEDICATION
        and isinstance(scenario.total_raos, int)
        and scenario.total_raos < len(resolved)
    ):
        issues.append(
            f"scenario: insufficient RAOs for full dedication "
            f"({scenario.total_raos} RAOs < {len(resolved)} classes)"
        )
    if issues:
        raise ScenarioError(issues)

    ordered = tuple(sorted(resolved, key=lambda c: not c.special))
    order = scenario.source_order or tuple(ids)
    return replace(scenario, classes=ordered, source_order=order)


# --- serialization -----------------------------------------------------------

_SCENARIO_KEYS = {"total_raos", "strategy", "classes"}
_CLASS_KEYS = {
    "id",
    "ra_density",
    "population",
    "per_device_rate",
    "group_size",
    "backoff",
    "qos",
    "special",
}
_QOS_KEYS = {"kind", "max_collision_rate", "max_mean_delay"}


def _reject_unknown(mapping: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioError([f"{where}: unknown fields {unknown}"])


def scenario_from_dict(data: Mapping[str, Any]) -> Scenario:
    """Parse a scenario mapping (the file format) into a validated Scenario."""
    if not isinstance(data, Mapping):
        raise ScenarioError(["scenario document must be a mapping"])
    _reject_unknown(data, _SCENARIO_KEYS, "scenario")
    missing = _SCENARIO_KEYS - set(data)
    if missing:
        raise ScenarioError([f"scenario: missing fields {sorted(missing)}"])
    try:
        strategy = Strategy(data["strategy"])
    except ValueError:
        raise ScenarioError(
            [
                f"scenario: unknown strategy {data['strategy']!r} "
                f"(expected one of {[s.value for s in Strategy]})"
            ]
        ) from None
    raw_classes = data["classes"]
    if not isinstance(raw_classes, Sequence) or isinstance(raw_classes, (str, bytes)):
        raise ScenarioError(["scenario: classes must be a list of class records"])
    classes = tuple(_class_from_dict(rec, idx) for idx, rec in enumerate(raw_classes))
    scenario = Scenario(classes=classes, total_raos=data["total_raos"], strategy=strategy)
    return validate_scenario(scenario)


def _class_from_dict(rec: Mapping[str, Any], idx: int) -> DeviceClass:
    where = f"classes[{idx}]"
    if not isinstance(rec, Mapping):
        raise ScenarioError([f"{where}: class record must be a mapping"])
    _reject_unknown(rec, _CLASS_KEYS, where)
    if "id" not in rec:
        raise ScenarioError([f"{where}: missing id"])
    qos = None
    if rec.get("qos") is not None:
        qos_rec = rec["qos"]
        if not isinstance(qos_rec, Mapping):
            raise ScenarioError([f"{where}: qos must be a mapping"])
        _reject_unknown(qos_rec, _QOS_KEYS, f"{where}.qos")
        try:
            kind = QosKind(qos_rec.get("kind"))
        except ValueError:
            raise ScenarioError(
                [f"{where}.qos: unknown kind {qos_rec.get('kind')!r}"]
            ) from None
        qos = QosTarget(
            kind=kind,
            max_collision_rate=qos_rec.get("max_collision_rate"),
            max_mean_delay=qos_rec.get("max_mean_delay"),
        )
    return DeviceClass(
        id=rec["id"],
        ra_density=rec.get("ra_density"),
        population=rec.get("population"),
        per_device_rate=rec.get("per_device_rate"),
        group_size=rec.get("group_size", 1),
        backoff=rec.get("backoff", 1.0),
        qos=qos,
        special=rec.get("special", False),
    )


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Serialize back to the file format, restoring the original class order."""
    by_id = {cls.id: cls for cls in scenario.classes}
    order = scenario.source_order or scenario.class_ids
    records = []
    for cid in order:
        cls = by_id[cid]
        rec: dict[str, Any] = {"id": cls.id, "ra_density": cls.ra_density}
        if cls.population is not None:
            rec["population"] = cls.population
            rec["per_device_rate"] = cls.per_device_rate
        if cls.group_size != 1:
            rec["group_size"] = cls.group_size
        rec["backoff"] = cls.backoff
        if cls.special:
            rec["special"] = True
        if cls.qos is not None:
            qos_rec: dict[str, Any] = {"kind": cls.qos.kind.value}
            if cls.qos.max_collision_rate is not None:
                qos_rec["max_collision_rate"] = cls.qos.max_collision_rate
            if cls.qos.max_mean_delay is not None:
                qos_rec["max_mean_delay"] = cls.qos.max_mean_delay
            rec["qos"] = qos_rec
        records.append(rec)
    return {
        "total_raos": scenario.total_raos,
        "strategy": scenario.strategy.value,
        "classes": records,
    }


def load_scenario(path: str) -> Scenario:
    """Load and validate a YAML scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else path
        raise ScenarioError([f"{where}: not valid YAML ({exc})"]) from exc
    except OSError as exc:
        raise ScenarioError([f"{path}: {exc.strerror or exc}"]) from exc
    if data is None:
        raise ScenarioError([f"{path}: file is empty"])
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(scenario), fh, sort_keys=False)


def scenario_fingerprint(scenario: Scenario) -> str:
    """Content hash of the validated scenario; input class order does not matter."""
    by_id = tuple(sorted(scenario.class_ids))
    canonical = scenario_to_dict(replace(scenario, source_order=by_id))
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
