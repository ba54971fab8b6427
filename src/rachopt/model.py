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
import numbers
import sys
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from functools import cached_property
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


class ArrivalMode(str, Enum):
    """A class's requests of one second: an aggregate Poisson count at
    ``ra_density``, or a Bernoulli trial per group coordinator."""

    POISSON_AGGREGATE = "poisson_aggregate"
    PER_DEVICE_BERNOULLI = "per_device_bernoulli"


def arrival_issues(scenario: Scenario, mode: ArrivalMode) -> list[str]:
    """Why the scenario's classes cannot arrive in ``mode``, class by class."""
    return [] if mode == ArrivalMode.POISSON_AGGREGATE else [
        f"class {c.id}: per-device mode needs population and per_device_rate"
        if c.coordinators is None
        else f"class {c.id}: per-device attempt probability {c.per_device_rate}/s exceeds 1"
        for c in scenario.classes if c.coordinators is None or c.per_device_rate > 1.0
    ]


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
    After validation, special classes precede normal ones, and every report
    and ``scenario_to_dict`` follow that order.
    """

    classes: tuple[DeviceClass, ...]
    total_raos: int
    strategy: Strategy

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
    one with ``from_ranges``, ``fully_shared`` or ``from_plan``. No slot
    array is built: ``rao_at`` and ``index_of`` read the range ends; they
    name a class by its position in ``ranges``, or an int64 array of them.
    """

    ranges: Mapping[int, tuple[tuple[int, int], ...]]

    def size(self, class_id: int) -> int:
        return sum(last - first + 1 for first, last in self.ranges[class_id])

    def rao_at(
        self, pos: int | np.ndarray, index: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """The RAOs at positions ``index`` (integers, from 0 in ascending
        order) of the usable RAOs of the classes at ``pos``, in ``out`` if
        given (it may be ``index``); one class of one range costs one add."""
        if not isinstance(pos, np.ndarray) and len(spans := tuple(self.ranges.values())[pos]) == 1:
            return np.add(index, spans[0][0], out=out)
        index_keys, _, shifts, stride = self._laid_out
        at = index_keys.searchsorted(np.int64(pos) * stride + index, "right") - 1
        return np.add(index, shifts[at], out=out, casting="unsafe")  # out holds every RAO

    def index_of(self, pos: int | np.ndarray, rao: np.ndarray) -> np.ndarray:
        """The positions (int64) of usable RAOs ``rao`` in the pools of the
        classes at ``pos``; inverts ``rao_at``."""
        _, rao_keys, shifts, stride = self._laid_out
        at = rao_keys.searchsorted(np.int64(pos) * stride + rao, "right") - 1
        return rao - shifts[at]

    @cached_property
    def _laid_out(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Per range of every class, in the order of ``ranges``: its class
        position times ``stride``, which passes every RAO, plus its first
        position, and plus its first RAO; and the shift from one to the other."""
        rows = [(c, *span) for c, spans in enumerate(self.ranges.values()) for span in spans]
        pos, firsts, lasts = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        starts = np.cumsum(np.append(0, lasts - firsts + 1))[:-1]  # laid end to end
        starts -= starts[pos.searchsorted(pos)]  # from the first of the class's ranges
        stride = int(lasts.max(initial=-1)) + 1
        return pos * stride + starts, pos * stride + firsts, firsts - starts, stride

    def segments(
        self, weights: Mapping[int, float]
    ) -> tuple[np.ndarray, np.ndarray, dict[int, np.ndarray], np.ndarray]:
        """Split the weighted classes' RAOs into runs between range ends,
        each used by the same classes: each run's first RAO and width, per
        class the mask of the runs it uses, and per run the weights of the
        classes using it, summed in the order of ``weights``."""
        # sorted() of a few ints, not np.unique, which imports numpy.ma
        edges = np.array(
            sorted({end for cid in weights for first, last in self.ranges[cid]
                    for end in (first, last + 1)}),
            dtype=np.int64,
        )
        starts, widths = edges[:-1], np.diff(edges)
        total = np.zeros(starts.size)
        covered = {}
        for cid, weight in weights.items():
            firsts, lasts = np.array(self.ranges[cid]).T
            k = np.searchsorted(firsts, starts, side="right") - 1
            covered[cid] = (k >= 0) & (starts <= lasts[k])
            total[covered[cid]] += weight
        return starts, widths, covered, total

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
    still needs its own coordinator, hence the ceiling. Raises ScenarioError
    when the coordinators' count is past the float range.
    """
    if population < 1:
        raise ScenarioError(["population must be >= 1"])
    if per_device_rate <= 0:
        raise ScenarioError(["per_device_rate must be > 0"])
    if group_size < 1:
        raise ScenarioError(["group_size must be >= 1"])
    coordinators = -(-population // group_size)
    if coordinators > sys.float_info.max:
        raise ScenarioError(["ceil(population/group_size) is past the float range"])
    return coordinators * per_device_rate


def _exponent_hint(value: Any) -> str:
    """A spelling that YAML 1.1 reads as a number, for a string that is a
    float with an exponent: PyYAML reads one as a float only with a dot in
    its mantissa and a sign on its exponent, and as a string otherwise."""
    if not isinstance(value, str) or not {"e", "E"} & set(value):
        return ""
    try:
        float(value)
    except ValueError:
        return ""
    mantissa, e, exponent = value.strip().partition("e" if "e" in value else "E")
    if "." not in mantissa:
        mantissa += ".0"
    if not exponent.startswith(("+", "-")):
        exponent = "+" + exponent
    return f"; YAML reads an exponent only after a dot and with a sign: write {mantissa}{e}{exponent}"


def _number_issues(cls: DeviceClass) -> list[str]:
    """The breaches of the one rule for a class's numbers, which are the
    fields of the class and of its qos other than the id, the special flag
    and the qos kind: each is a real that is not a bool, an integer where
    the field is typed int, and > 0 within the float range (an int may lie
    past it). A field may hold None only where None is its default."""
    named = [(f, f.name, getattr(cls, f.name)) for f in fields(cls)]
    if isinstance(cls.qos, QosTarget):
        named += [(f, f"qos.{f.name}", getattr(cls.qos, f.name)) for f in fields(cls.qos)]
    issues = []
    for field, name, value in named:
        if field.name in ("id", "qos", "special", "kind") or (
            value is None and field.default is None
        ):
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            issues.append(f"{name} must be a number, got {value!r}{_exponent_hint(value)}")
        elif field.type.startswith("int") and not isinstance(value, numbers.Integral):
            issues.append(f"{name} must be an integer, got {value!r}")
        elif not 0 < value <= sys.float_info.max:
            issues.append(f"{name} must be finite and > 0")
    return issues


def _valid_id(class_id: Any) -> bool:
    return isinstance(class_id, int) and not isinstance(class_id, bool) and class_id >= 0


def _resolve_class(cls: DeviceClass, issues: list[str]) -> DeviceClass:
    label = f"class {cls.id}"
    if not _valid_id(cls.id):
        issues.append(f"{label}: id must be a non-negative integer")
        return cls
    if not isinstance(cls.special, bool):
        issues.append(f"{label}: special must be true or false, got {cls.special!r}")
        return cls
    bad = _number_issues(cls)
    if bad:
        issues.extend(f"{label}: {issue}" for issue in bad)
        return cls
    if (cls.population is None) != (cls.per_device_rate is None):
        issues.append(f"{label}: population and per_device_rate must be given together")
        return cls

    density = cls.ra_density
    if cls.population is not None:
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
    if density == math.inf:  # a derived density, whose factors are finite
        issues.append(f"{label}: ra_density must be finite and > 0")
    _check_qos(cls, issues)
    return replace(cls, ra_density=density)


def _check_qos(cls: DeviceClass, issues: list[str]) -> None:
    """The pairing of the qos kind with its bound, and the bounds that the
    number rule leaves: a rate below 1, a delay past the backoff."""
    qos = cls.qos
    if qos is None:
        return
    label = f"class {cls.id}: qos"
    if qos.kind == QosKind.MAX_COLLISION_RATE:
        if qos.max_mean_delay is not None:
            issues.append(f"{label}.kind is {qos.kind.value} but qos.max_mean_delay is set")
        if qos.max_collision_rate is None:
            issues.append(f"{label}.max_collision_rate missing")
        elif not qos.max_collision_rate < 1:
            issues.append(f"{label}.max_collision_rate must lie in (0, 1)")
    elif qos.kind == QosKind.MAX_MEAN_DELAY:
        if qos.max_collision_rate is not None:
            issues.append(f"{label}.kind is {qos.kind.value} but qos.max_collision_rate is set")
        if qos.max_mean_delay is None:
            issues.append(f"{label}.max_mean_delay missing")
        elif not qos.max_mean_delay > cls.backoff:
            issues.append(
                f"{label}.max_mean_delay must exceed the backoff "
                f"({qos.max_mean_delay} <= {cls.backoff})"
            )


def validate_scenario(scenario: Scenario) -> Scenario:
    """Check every model invariant and return the validated scenario.

    The result has every ra_density resolved to a concrete value and special
    classes moved ahead of normal ones (stable within each group). Raises
    ScenarioError listing all violations at once.
    """
    issues: list[str] = []
    if not scenario.classes:
        issues.append("scenario: needs at least one device class")
    raos_ok = isinstance(scenario.total_raos, int) and not isinstance(scenario.total_raos, bool)
    if not raos_ok or scenario.total_raos < 1:
        issues.append("scenario: total_raos must be a positive integer")

    resolved = [_resolve_class(cls, issues) for cls in scenario.classes]
    if not issues:
        # each density is finite, but the cell's load must be too
        total = sum(float(cls.ra_density) for cls in resolved)
        if not math.isfinite(total):
            issues.append(f"scenario: the classes' ra_density sum to {total}, past the float range")

    # a bad id is named already, and ids of mixed types do not compare
    ids = [cls.id for cls in resolved if _valid_id(cls.id)]
    dupes = sorted({i for i in ids if ids.count(i) > 1})
    if dupes:
        issues.append(f"scenario: duplicate class ids {dupes}")
    if (
        scenario.strategy == Strategy.FULL_DEDICATION
        and raos_ok
        and scenario.total_raos < len(resolved)
    ):
        issues.append(
            f"scenario: insufficient RAOs for full dedication "
            f"({scenario.total_raos} RAOs < {len(resolved)} classes)"
        )
    if issues:
        raise ScenarioError(issues)

    ordered = tuple(sorted(resolved, key=lambda c: not c.special))
    return replace(scenario, classes=ordered)


# --- serialization -----------------------------------------------------------

_SCENARIO_KEYS = {f.name for f in fields(Scenario)}


def _reject_unknown(mapping: Mapping[Any, Any], allowed: set[str], where: str) -> None:
    # a YAML key may be any scalar, and keys of different types do not compare
    unknown = sorted(set(mapping) - allowed, key=str)
    if unknown:
        raise ScenarioError([f"{where}: unknown fields {unknown}"])


def _fields_from(kind: type, rec: Mapping[str, Any], where: str) -> dict[str, Any]:
    """The value ``rec`` gives each field of the dataclass ``kind``, or the
    field's default (None for a field without one); other keys are errors."""
    known = fields(kind)
    _reject_unknown(rec, {f.name for f in known}, where)
    return {f.name: rec.get(f.name, None if f.default is MISSING else f.default) for f in known}


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
    values = _fields_from(DeviceClass, rec, where)
    if "id" not in rec:
        raise ScenarioError([f"{where}: missing id"])
    if values["qos"] is not None:
        if not isinstance(values["qos"], Mapping):
            raise ScenarioError([f"{where}: qos must be a mapping"])
        qos = _fields_from(QosTarget, values["qos"], f"{where}.qos")
        try:
            qos["kind"] = QosKind(qos["kind"])
        except ValueError:
            raise ScenarioError([f"{where}.qos: unknown kind {qos['kind']!r}"]) from None
        values["qos"] = QosTarget(**qos)
    return DeviceClass(**values)


def _record(item: DeviceClass | QosTarget) -> dict[str, Any]:
    """The file-format record of a class or its qos: each field away from its
    default, and a class's backoff always; an enum by its value, the qos by
    its own record."""
    rec: dict[str, Any] = {}
    for f in fields(item):
        value = getattr(item, f.name)
        if value != f.default or f.name == "backoff":
            rec[f.name] = value.value if isinstance(value, Enum) else (
                _record(value) if isinstance(value, QosTarget) else value
            )
    return rec


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Serialize back to the file format, classes in validated order."""
    return {
        "total_raos": scenario.total_raos,
        "strategy": scenario.strategy.value,
        "classes": [_record(cls) for cls in scenario.classes],
    }


# PyYAML's libyaml scanner and parser, when it was built with them, under the
# same resolver and constructor as yaml.SafeLoader: they load the shipped
# scenarios several times faster.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class _UniqueKeys:
    """Loader mixin that rejects a key given twice in one mapping, where a
    YAML loader would keep the last value silently."""

    def construct_mapping(self, node, deep=False):
        first: dict[Any, Any] = {}
        for key_node, _ in node.value:
            # a `<<` merge may be overridden; the constructor reports a
            # collection as a key, which is unhashable
            if not isinstance(key_node, yaml.ScalarNode) or key_node.tag.endswith(":merge"):
                continue
            earlier = first.setdefault(self.construct_object(key_node, deep=deep), key_node)
            if earlier is not key_node:
                mark = key_node.start_mark
                raise ScenarioError(
                    [f"{mark.name}:{mark.line + 1}: key {key_node.value!r} given again "
                     f"(first on line {earlier.start_mark.line + 1})"]
                )
        return super().construct_mapping(node, deep)


def load_scenario(path: str) -> Scenario:
    """Load and validate a YAML scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=type("Loader", (_UniqueKeys, YAML_LOADER), {}))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else path
        raise ScenarioError([f"{where}: not valid YAML ({exc})"]) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"{path}: not valid UTF-8 ({exc})"]) from exc
    except OSError as exc:
        raise ScenarioError([f"{path}: {exc.strerror or exc}"]) from exc
    if data is None:
        raise ScenarioError([f"{path}: file is empty"])
    return scenario_from_dict(data)


def scenario_fingerprint(scenario: Scenario) -> str:
    """Content hash of the validated scenario; input class order does not matter."""
    canonical = scenario_to_dict(scenario)
    canonical["classes"].sort(key=lambda rec: rec["id"])
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
