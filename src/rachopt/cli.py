"""Command-line front end.

Five subcommands cover the workflows: ``analyze`` (closed-form metrics),
``optimize`` (allocation plans), ``simulate`` (Monte-Carlo run), ``sweep``
(dedication sweep with analytic reference curve), and ``compare``
(strategies side by side). Every randomized command either takes --seed or
draws one and records it in the report, so any emitted number can be
regenerated from (scenario fingerprint, seed, parameters).

Exit codes: 0 success, 2 scenario/validation errors, 3 RACH resource
overload, 4 simulation errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import secrets
import sys
from typing import Any, Iterable, Sequence

from . import analytics, allocator, simulator
from .model import (
    AllocationPlan,
    Scenario,
    ScenarioError,
    SharingTopology,
    Strategy,
    load_scenario,
    pool_layout,
    scenario_fingerprint,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_OVERLOAD = 3
EXIT_SIMULATION = 4

_FLOAT_DIGITS = 6  # human-readable precision; CSV/JSON carry full precision


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ScenarioError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_VALIDATION
    except allocator.OverloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERLOAD
    except allocator.AllocationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except simulator.SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


def entry() -> None:
    raise SystemExit(main())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rachopt",
        description="Collision analytics, optimal RAO dedication, and Monte-Carlo "
        "simulation for grouped random access.",
    )
    sub = parser.add_subparsers(required=True, metavar="COMMAND")

    p = sub.add_parser("analyze", help="closed-form collision and delay metrics")
    _add_common(p)
    _add_allocation_options(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("optimize", help="compute an allocation plan")
    _add_common(p)
    p.add_argument(
        "--method",
        choices=["proportional", "reserve-and-divide"],
        default=None,
        help="default: reserve-and-divide when special classes exist, else proportional",
    )
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("simulate", help="Monte-Carlo collision/delay measurement")
    _add_common(p)
    _add_allocation_options(p)
    _add_sim_options(p)
    p.add_argument("--measure-delay", action="store_true", help="track access delays")
    p.add_argument("--max-attempts", type=int, default=25)
    p.add_argument("--arrival-mode", choices=[m.value for m in simulator.ArrivalMode],
                   default=simulator.ArrivalMode.POISSON_AGGREGATE.value)
    p.add_argument("--csv", metavar="PATH", help="write per-class rows to a CSV file")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep RAO dedication between two classes")
    _add_common(p)
    _add_sim_options(p)
    p.add_argument("--class-index", type=int, choices=(0, 1), default=0,
                   help="position of the swept class in validated order")
    p.add_argument("--range", dest="sweep_range", metavar="LO:HI",
                   help="inclusive swept-RAO bounds, e.g. 600:10200")
    p.add_argument("--step", type=int, default=600)
    p.add_argument("--values", help="explicit comma-separated swept-RAO values")
    p.add_argument("--csv", metavar="PATH", help="write one row per sweep point")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("compare", help="strategies side by side on one scenario")
    _add_common(p)
    _add_sim_options(p)
    p.add_argument(
        "--strategies",
        default="full_sharing,full_dedication",
        help="comma-separated subset of full_sharing, full_dedication, reserve_and_divide",
    )
    p.set_defaults(handler=cmd_compare)
    return parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="path to a YAML scenario file")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")


def _add_allocation_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--plan",
        help="RAOs per class: '3600,7200' (validated class order) or '1=3600,2=7200'; "
        "default under full dedication is the proportional optimum",
    )
    p.add_argument(
        "--topology",
        help="partial-dedication usable sets as 'id:first-last[,first-last...];id:...' "
        "with inclusive RAO index ranges",
    )


def _add_sim_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--seed", type=int, default=None,
                   help="Monte-Carlo seed; auto-generated and reported when omitted")
    p.add_argument("--horizon", type=int, default=1,
                   help="simulated seconds per iteration")


# --- option parsing helpers ---------------------------------------------------


def _parse_plan(spec: str, scenario: Scenario) -> AllocationPlan:
    entries = [part.strip() for part in spec.split(",") if part.strip()]
    if not entries:
        raise ScenarioError(["--plan: no entries given"])
    keyed = ["=" in entry for entry in entries]
    if any(keyed) and not all(keyed):
        raise ScenarioError(["--plan: mix of 'id=count' and bare counts"])
    try:
        if all(keyed):
            raos = {}
            for entry in entries:
                cid, _, count = entry.partition("=")
                raos[int(cid)] = int(count)
            plan = AllocationPlan(raos)
        else:
            plan = AllocationPlan.from_counts(scenario, [int(e) for e in entries])
    except ValueError:
        raise ScenarioError([f"--plan: could not parse {spec!r}"]) from None
    return plan


def _parse_topology(spec: str) -> SharingTopology:
    ranges: dict[int, list[tuple[int, int]]] = {}
    try:
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            cid_text, _, spans_text = entry.partition(":")
            spans = []
            for span in spans_text.split(","):
                first, _, last = span.partition("-")
                spans.append((int(first), int(last)))
            ranges[int(cid_text)] = spans
    except ValueError:
        raise ScenarioError([f"--topology: could not parse {spec!r}"]) from None
    return SharingTopology.from_ranges(ranges)


def _resolve_allocation(
    args: argparse.Namespace, scenario: Scenario
) -> AllocationPlan | SharingTopology | None:
    if scenario.strategy == Strategy.FULL_DEDICATION:
        if getattr(args, "topology", None):
            raise ScenarioError(["--topology is only valid for partial dedication"])
        if args.plan:
            return _parse_plan(args.plan, scenario)
        return allocator.proportional_allocation(scenario)
    if scenario.strategy == Strategy.PARTIAL_DEDICATION:
        if getattr(args, "plan", None):
            raise ScenarioError(["--plan is only valid for full dedication"])
        if not getattr(args, "topology", None):
            raise ScenarioError(["partial dedication requires --topology"])
        return _parse_topology(args.topology)
    if getattr(args, "plan", None) or getattr(args, "topology", None):
        raise ScenarioError(["full sharing takes neither --plan nor --topology"])
    return None


def _sim_config(args: argparse.Namespace, **overrides: Any) -> simulator.SimConfig:
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    return simulator.SimConfig(
        iterations=args.iterations,
        seed=seed,
        horizon=args.horizon,
        **overrides,
    )


# --- report assembly ----------------------------------------------------------


def _report(scenario: Scenario, command: str, parameters: dict, results: dict) -> dict:
    return {
        "fingerprint": scenario_fingerprint(scenario),
        "command": command,
        "parameters": parameters,
        "results": results,
    }


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
        return
    print(f"scenario fingerprint: {report['fingerprint']}")
    params = ", ".join(f"{k}={v}" for k, v in report["parameters"].items() if v is not None)
    print(f"{report['command']}({params})")
    _print_tree(report["results"], indent=1)


def _print_tree(node: Any, indent: int) -> None:
    pad = "  " * indent
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _print_tree(value, indent + 1)
            else:
                print(f"{pad}{key}: {_fmt(value)}")
    elif isinstance(node, list):
        for value in node:
            if isinstance(value, (dict, list)):
                _print_tree(value, indent)
            else:
                print(f"{pad}- {_fmt(value)}")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.{_FLOAT_DIGITS}g}"
    return str(value)


def _class_stats_dict(stats: simulator.ClassStats) -> dict:
    out = dataclasses.asdict(stats)
    out["censored_fraction"] = stats.censored_fraction
    return out


def _sim_stats_dict(stats: simulator.SimStats) -> dict:
    return {
        "per_class": {str(cid): _class_stats_dict(s) for cid, s in stats.per_class.items()},
        "total_density_hz": stats.total_density,
        "total_density_stderr": stats.total_density_stderr,
        "event_density_hz": stats.event_density,
        "event_density_stderr": stats.event_density_stderr,
        "iterations": stats.iterations,
        "horizon_s": stats.horizon,
        "seed": stats.seed,
    }


def _cell_block(scenario: Scenario, metrics: dict[int, analytics.ClassMetrics]) -> dict:
    return {
        "total_collision_density_hz": sum(m.collision_density for m in metrics.values()),
        "collision_probability": analytics.any_collision_probability(
            (cls.ra_density, metrics[cls.id].collision_rate) for cls in scenario.classes
        ),
    }


# --- commands -----------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    allocation = _resolve_allocation(args, scenario)
    layout = pool_layout(scenario, allocation)
    metrics = analytics.layout_metrics(scenario, layout)
    per_class = {}
    for cls in scenario.classes:
        m = metrics[cls.id]
        saturated = not math.isfinite(m.mean_delay)
        # backoff * p / (1 - p) equals inclusive - backoff but does not
        # cancel at light load, where p is tiny
        excl = None if saturated else cls.backoff * m.collision_rate / m.success_rate
        per_class[str(cls.id)] = {
            "raos": layout.size(cls.id),
            "ra_density_hz": cls.ra_density,
            "collision_rate": m.collision_rate,
            "collision_density_hz": m.collision_density,
            "mean_delay_incl_s": None if saturated else m.mean_delay,
            "mean_delay_excl_s": excl,
            "saturated": saturated,
        }
    results = {
        "strategy": scenario.strategy.value,
        "per_class": per_class,
        "cell": _cell_block(scenario, metrics),
    }
    parameters = {"plan": getattr(args, "plan", None), "topology": getattr(args, "topology", None)}
    if isinstance(allocation, AllocationPlan) and not args.plan:
        parameters["plan"] = "proportional:" + ",".join(
            str(allocation.get(c.id)) for c in scenario.classes
        )
    _print_report(_report(scenario, "analyze", parameters, results), args.json)
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    method = args.method
    if method is None:
        method = "reserve-and-divide" if scenario.special_classes else "proportional"
    if method == "proportional":
        plan = allocator.proportional_allocation(scenario)
        reserved: dict[int, int] = {}
        residual = None
    else:
        outcome = allocator.reserve_and_divide(scenario)
        plan, reserved, residual = outcome.plan, outcome.reserved, outcome.residual
    metrics = analytics.layout_metrics(scenario, pool_layout(scenario, plan))
    results = {
        "method": method,
        "plan": {str(cls.id): plan.get(cls.id) for cls in scenario.classes},
        "reserved": {str(cid): count for cid, count in reserved.items()},
        "residual_after_reservation": residual,
        "predicted": {
            str(cid): {
                "collision_rate": m.collision_rate,
                "collision_density_hz": m.collision_density,
                "mean_delay_s": m.mean_delay if math.isfinite(m.mean_delay) else None,
                "saturated": not math.isfinite(m.mean_delay),
            }
            for cid, m in metrics.items()
        },
        "cell": _cell_block(scenario, metrics),
    }
    _print_report(_report(scenario, "optimize", {"method": method}, results), args.json)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    allocation = _resolve_allocation(args, scenario)
    config = _sim_config(
        args,
        arrival_mode=simulator.ArrivalMode(args.arrival_mode),
        measure_delay=args.measure_delay,
        max_attempts=args.max_attempts,
    )
    layout = pool_layout(scenario, allocation)
    if args.csv:
        _check_csv_writable(args.csv)
    stats = simulator.run(scenario, allocation, config)
    metrics = analytics.layout_metrics(scenario, layout)
    parameters = {
        "iterations": config.iterations,
        "seed": config.seed,
        "horizon": config.horizon,
        "arrival_mode": config.arrival_mode.value,
        "measure_delay": config.measure_delay,
        "plan": getattr(args, "plan", None),
        "topology": getattr(args, "topology", None),
    }
    results = {
        "analytic": {
            str(cid): {"collision_rate": m.collision_rate} for cid, m in metrics.items()
        },
        "simulated": _sim_stats_dict(stats),
    }
    report = _report(scenario, "simulate", parameters, results)
    if args.csv:
        _write_simulate_csv(args.csv, scenario, stats, metrics, layout)
        report["csv"] = args.csv
    _print_report(report, args.json)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    if args.values:
        try:
            values = [int(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ScenarioError([f"--values: could not parse {args.values!r}"]) from None
    else:
        if not args.sweep_range:
            raise ScenarioError(["sweep needs --range LO:HI or --values"])
        try:
            lo_text, _, hi_text = args.sweep_range.partition(":")
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ScenarioError([f"--range: could not parse {args.sweep_range!r}"]) from None
        if args.step < 1:
            raise ScenarioError(["--step must be >= 1"])
        values = list(range(lo, hi + 1, args.step))
    if not values:
        source = f"--values {args.values!r}" if args.values else f"--range {args.sweep_range!r}"
        raise ScenarioError([f"{source}: the list of swept values is empty"])
    config = _sim_config(args)
    if args.csv:
        _check_csv_writable(args.csv)
    result = simulator.sweep_dedication(scenario, args.class_index, values, config)
    parameters = {
        "class_index": args.class_index,
        "values": ",".join(str(v) for v in values),
        "iterations": config.iterations,
        "seed": config.seed,
        "horizon": config.horizon,
    }
    rows = [
        {
            "l_swept": point.l_value,
            "simulated": {
                str(cid): s.collision_density for cid, s in point.stats.per_class.items()
            },
            "total_density_hz": point.stats.total_density,
            "total_stderr": point.stats.total_density_stderr,
            "analytic_total_hz": point.analytic_total,
        }
        for point in result.points
    ]
    results = {
        "swept_class": result.class_id,
        "empirical_optimum": result.empirical_optimum,
        "points": rows,
    }
    report = _report(scenario, "sweep", parameters, results)
    if args.csv:
        _write_sweep_csv(args.csv, scenario, result)
        report["csv"] = args.csv
    _print_report(report, args.json)
    return EXIT_OK


# each compared strategy is an allocation of the unmodified scenario
_COMPARE_ALLOCATIONS = {
    "full_sharing": lambda scenario: None,
    "full_dedication": allocator.proportional_allocation,
    "reserve_and_divide": lambda scenario: allocator.reserve_and_divide(scenario).plan,
}


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    names = [name.strip() for name in args.strategies.split(",") if name.strip()]
    unknown = [name for name in names if name not in _COMPARE_ALLOCATIONS]
    if unknown or not names:
        raise ScenarioError(
            [
                f"--strategies: choose from {', '.join(_COMPARE_ALLOCATIONS)} "
                f"(got {args.strategies!r})"
            ]
        )
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ScenarioError([f"--strategies: {', '.join(repeated)} given more than once"])
    config = _sim_config(args)
    columns: dict[str, dict] = {}
    for name in names:
        allocation = _COMPARE_ALLOCATIONS[name](scenario)
        stats = simulator.run(scenario, allocation, config)
        metrics = analytics.layout_metrics(scenario, pool_layout(scenario, allocation))
        columns[name] = {
            "plan": None
            if allocation is None
            else {str(c.id): allocation.get(c.id) for c in scenario.classes},
            "per_class": {
                str(cid): {
                    "collision_rate_analytic": metrics[cid].collision_rate,
                    "collision_rate_empirical": s.collision_rate,
                    "rate_stderr": s.rate_stderr,
                    "collision_density_hz": s.collision_density,
                }
                for cid, s in stats.per_class.items()
            },
            "total_density_hz": stats.total_density,
            "total_density_stderr": stats.total_density_stderr,
        }
    parameters = {
        "strategies": ",".join(names),
        "iterations": config.iterations,
        "seed": config.seed,
        "horizon": config.horizon,
    }
    report = _report(scenario, "compare", parameters, {"strategies": columns})
    if args.json:
        _print_report(report, True)
    else:
        print(f"scenario fingerprint: {report['fingerprint']}")
        _print_compare_table(scenario, names, columns)
    return EXIT_OK


def _print_compare_table(scenario: Scenario, names: list[str], columns: dict) -> None:
    width = max(len(n) for n in names) + 2
    header = f"{'class':>6} {'metric':<26}" + "".join(f"{n:>{width}}" for n in names)
    print(header)
    metrics = (
        ("collision_rate_analytic", "p analytic"),
        ("collision_rate_empirical", "p empirical"),
        ("collision_density_hz", "density (Hz)"),
    )
    for cls in scenario.classes:
        for key, label in metrics:
            row = f"{cls.id:>6} {label:<26}"
            for name in names:
                value = columns[name]["per_class"][str(cls.id)][key]
                row += f"{value:>{width}.{_FLOAT_DIGITS}g}"
            print(row)
    row = f"{'cell':>6} {'total density (Hz)':<26}"
    for name in names:
        row += f"{columns[name]['total_density_hz']:>{width}.{_FLOAT_DIGITS}g}"
    print(row)


# --- CSV emission -------------------------------------------------------------
# Floats are written with repr(), the shortest decimal form that parses back
# to the identical double, so reading a CSV recovers reported values exactly.


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_error(path: str, exc: OSError) -> ScenarioError:
    return ScenarioError([f"--csv {path}: {exc.strerror or exc}"])


def _check_csv_writable(path: str) -> None:
    """Fail before a simulation, not after it, on a path that cannot be
    written. Append mode creates a missing file but keeps an existing one's
    rows until the report replaces them."""
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _csv_error(path, exc) from exc


def _write_rows(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_csv_cell(v) for v in row])
    except OSError as exc:
        raise _csv_error(path, exc) from exc


SIMULATE_CSV_HEADER = (
    "class_id",
    "L_i",
    "gamma",
    "p_analytic",
    "p_empirical",
    "density_hz",
    "stderr",
    "delay_s",
)


def _write_simulate_csv(
    path: str,
    scenario: Scenario,
    stats: simulator.SimStats,
    metrics: dict[int, analytics.ClassMetrics],
    layout: SharingTopology,
) -> None:
    rows = []
    for cls in scenario.classes:
        s = stats.per_class[cls.id]
        rows.append(
            (
                cls.id,
                layout.size(cls.id),
                cls.ra_density,
                metrics[cls.id].collision_rate,
                s.collision_rate,
                s.collision_density,
                s.density_stderr,
                s.mean_delay,
            )
        )
    pooled_attempts = sum(s.attempts for s in stats.per_class.values())
    pooled_collided = sum(s.collided for s in stats.per_class.values())
    rows.append(
        (
            "cell",
            scenario.total_raos,
            scenario.total_density,
            _cell_block(scenario, metrics)["collision_probability"],
            pooled_collided / pooled_attempts if pooled_attempts else 0.0,
            stats.total_density,
            stats.total_density_stderr,
            None,
        )
    )
    _write_rows(path, SIMULATE_CSV_HEADER, rows)


def sweep_csv_header(scenario: Scenario) -> tuple[str, ...]:
    ids = [cls.id for cls in scenario.classes]
    return (
        "l_swept",
        *(f"density_{cid}_hz" for cid in ids),
        "total_density_hz",
        "total_stderr",
        *(f"analytic_{cid}_hz" for cid in ids),
        "analytic_total_hz",
    )


def _write_sweep_csv(path: str, scenario: Scenario, result: simulator.SweepResult) -> None:
    ids = [cls.id for cls in scenario.classes]
    rows = []
    for point in result.points:
        rows.append(
            (
                point.l_value,
                *(point.stats.per_class[cid].collision_density for cid in ids),
                point.stats.total_density,
                point.stats.total_density_stderr,
                *(point.analytic_density[cid] for cid in ids),
                point.analytic_total,
            )
        )
    _write_rows(path, sweep_csv_header(scenario), rows)


if __name__ == "__main__":
    entry()
