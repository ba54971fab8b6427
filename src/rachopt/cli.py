"""Command-line front end.

Five subcommands cover the workflows: ``analyze`` (closed-form metrics),
``optimize`` (allocation plans), ``simulate`` (Monte-Carlo run), ``sweep``
(dedication sweep with analytic reference curve), and ``compare``
(strategies side by side). Every randomized command either takes --seed or
draws one and records it in the report, so any emitted number can be
regenerated from (scenario fingerprint, seed, parameters).

Each command validates its options, checks a --csv path before it simulates,
and returns its report's command, parameters and results; ``simulate`` and
``sweep`` add their CSV table. One emitter adds the scenario fingerprint,
writes the table to --csv and prints the report.

Exit codes: 0 success, 2 scenario/validation errors, 3 RACH resource
overload, 4 simulation errors. A reader that closes stdout early, such as
``head``, ends the output quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
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

# Most splits one sweep simulates, counted before any value, plan or layout is
# built. tracemalloc puts main's peak at 3.0-4.1 KB per split at one
# iteration, so a sweep within the limit stays below about 140 MB.
MAX_SWEEP_POINTS = 2**15


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        _emit(args, scenario, *args.handler(args, scenario))
        return EXIT_OK
    except ScenarioError as exc:
        issues, code = exc.issues, EXIT_VALIDATION
    except allocator.OverloadError as exc:
        issues, code = [exc], EXIT_OVERLOAD
    except allocator.AllocationError as exc:
        issues, code = [exc], EXIT_VALIDATION
    except simulator.SimulationError as exc:
        issues, code = [exc], EXIT_SIMULATION
    for issue in issues:
        print(f"error: {issue}", file=sys.stderr)
    return code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    raise SystemExit(code)


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
    plans = [name for name, allocate in allocator.METHODS.items() if allocate]
    p.add_argument("--method", choices=[*allocator.SPELLINGS, *plans],
                   help="default: reserve-and-divide when special classes exist, else "
                   "proportional; exact ignores QoS bounds")
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
    swept = p.add_mutually_exclusive_group()
    swept.add_argument("--range", dest="sweep_range", metavar="LO:HI",
                       help="inclusive swept-RAO bounds, e.g. 600:10200")
    p.add_argument("--step", type=int, default=600)
    swept.add_argument("--values", help="explicit comma-separated swept-RAO values")
    p.add_argument("--csv", metavar="PATH", help="write one row per sweep point")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("compare", help="strategies side by side on one scenario")
    _add_common(p)
    _add_sim_options(p)
    p.add_argument(
        "--strategies",
        default="full_sharing,full_dedication",
        help=f"comma-separated subset of {', '.join(allocator.METHODS)}",
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


def _reject_repeated(label: str, values: list) -> None:
    repeated = ", ".join(map(str, sorted({v for v in values if values.count(v) > 1})))
    if repeated:
        raise ScenarioError([f"{label} {repeated} given more than once"])


def _parse_plan(spec: str, scenario: Scenario) -> AllocationPlan:
    entries = [part.strip() for part in spec.split(",") if part.strip()]
    if not entries:
        raise ScenarioError(["--plan: no entries given"])
    keyed = ["=" in entry for entry in entries]
    if any(keyed) and not all(keyed):
        raise ScenarioError(["--plan: mix of 'id=count' and bare counts"])
    try:
        pairs = [entry.rpartition("=") for entry in entries]
        counts = [int(count) for _, _, count in pairs]
        ids = [int(cid) for cid, _, _ in pairs] if all(keyed) else None
    except ValueError:
        raise ScenarioError([f"--plan: could not parse {spec!r}"]) from None
    if ids is None:
        return AllocationPlan.from_counts(scenario, counts)
    _reject_repeated("--plan: class", ids)
    return AllocationPlan(dict(zip(ids, counts)))


def _parse_topology(spec: str) -> SharingTopology:
    pairs: list[tuple[int, list[tuple[int, int]]]] = []
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
            pairs.append((int(cid_text), spans))
    except ValueError:
        raise ScenarioError([f"--topology: could not parse {spec!r}"]) from None
    _reject_repeated("--topology: class", [cid for cid, _ in pairs])
    return SharingTopology.from_ranges(dict(pairs))


def _allocate(method: str, scenario: Scenario) -> AllocationPlan | None:
    allocate = allocator.METHODS[method]
    return None if allocate is None else allocate(scenario)


def _resolve_allocation(
    args: argparse.Namespace, scenario: Scenario
) -> AllocationPlan | SharingTopology | None:
    """``--plan`` or ``--topology``, else the method the strategy names."""
    strategy = scenario.strategy
    if strategy == Strategy.PARTIAL_DEDICATION:
        if args.plan:
            raise ScenarioError(["--plan is only valid for full dedication"])
        if not args.topology:
            raise ScenarioError(["partial dedication requires --topology"])
        return _parse_topology(args.topology)
    if strategy == Strategy.FULL_SHARING and (args.plan or args.topology):
        raise ScenarioError(["full sharing takes neither --plan nor --topology"])
    if args.topology:
        raise ScenarioError(["--topology is only valid for partial dedication"])
    return _parse_plan(args.plan, scenario) if args.plan else _allocate(strategy.value, scenario)


def _sim_config(args: argparse.Namespace, **overrides: Any) -> simulator.SimConfig:
    seed = args.seed if args.seed is not None else secrets.randbits(63)
    return simulator.SimConfig(
        iterations=args.iterations,
        seed=seed,
        horizon=args.horizon,
        **overrides,
    )


def _sim_parameters(config: simulator.SimConfig, **between: Any) -> dict:
    """Report parameters of a run: iterations, seed, horizon, ``between``, RNG layout."""
    return {
        "iterations": config.iterations,
        "seed": config.seed,
        "horizon": config.horizon,
        **between,
        "rng_layout": simulator.RNG_LAYOUT,
    }


# --- report assembly ----------------------------------------------------------


def _emit(args: argparse.Namespace, scenario: Scenario, command: str, parameters: dict,
          results: dict, csv_table: tuple[Sequence[str], list] | None = None) -> None:
    """Complete a command's report with the scenario fingerprint, write the
    command's CSV table (header, rows) to ``--csv`` when it was given, and
    print the report as JSON or text."""
    report = {
        "fingerprint": scenario_fingerprint(scenario),
        "command": command,
        "parameters": parameters,
        "results": results,
    }
    if csv_table is not None and args.csv:
        _write_rows(args.csv, *csv_table)
        report["csv"] = args.csv
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
        return
    print(f"scenario fingerprint: {report['fingerprint']}")
    if command == "compare":
        _print_compare_table(scenario, results["strategies"])
        return
    params = ", ".join(f"{k}={v}" for k, v in parameters.items() if v is not None)
    print(f"{command}({params})")
    _print_tree(results, indent=1)


def _print_tree(node: dict, indent: int) -> None:
    """Print a report's mappings one key a line; the items of a list, all
    mappings, follow one another under its key."""
    pad = "  " * indent
    for key, value in node.items():
        if isinstance(value, (dict, list)):
            print(f"{pad}{key}:")
            for item in value if isinstance(value, list) else [value]:
                _print_tree(item, indent + 1)
        else:
            print(f"{pad}{key}: {_fmt(value)}")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.{_FLOAT_DIGITS}g}"
    return str(value)


def _print_compare_table(scenario: Scenario, columns: dict[str, dict]) -> None:
    width = max(len(n) for n in columns) + 2

    def line(first: Any, label: str, cells: Iterable[Any], spec: str) -> None:
        print(f"{first:>6} {label:<26}" + "".join(f"{cell:>{width}{spec}}" for cell in cells))

    line("class", "metric", columns, "")
    metrics = (
        ("collision_rate_analytic", "p analytic"),
        ("collision_rate_empirical", "p empirical"),
        ("collision_density_hz", "density (Hz)"),
    )
    floats = f".{_FLOAT_DIGITS}g"
    for cls in scenario.classes:
        cells = [column["per_class"][str(cls.id)] for column in columns.values()]
        for key, label in metrics:
            line(cls.id, label, (cell[key] for cell in cells), floats)
    line("cell", "total density (Hz)", (c["total_density_hz"] for c in columns.values()), floats)


def _predicted(scenario: Scenario, layout: SharingTopology, columns: Sequence[str],
               mode=simulator.ArrivalMode.POISSON_AGGREGATE) -> tuple[dict, dict]:
    """Closed-form predictions on a layout under arrival ``mode``: per class
    the fields named by ``columns``, in order, and the cell's total density
    and any-collision probability. A saturated class's delays are None."""
    metrics = analytics.layout_metrics(scenario, layout, mode)
    per_class = {}
    for cls in scenario.classes:
        m = metrics[cls.id]
        saturated = not math.isfinite(m.mean_delay)
        # backoff * p / success equals inclusive - backoff but does not cancel
        # at light load, where p is tiny; p is 0 when success is and delays finite
        excl = None if saturated else cls.backoff * m.collision_rate / (m.success_rate or 1.0)
        fields = {
            "raos": layout.size(cls.id),
            "ra_density_hz": cls.ra_density,
            "collision_rate": m.collision_rate,
            "collision_density_hz": m.collision_density,
            "mean_delay_s": None if saturated else m.mean_delay,
            "mean_delay_excl_s": excl,
            "saturated": saturated,
        }
        fields["mean_delay_incl_s"] = fields["mean_delay_s"]
        per_class[str(cls.id)] = {name: fields[name] for name in columns}
    cell = {
        "total_collision_density_hz": sum(m.collision_density for m in metrics.values()),
        "collision_probability": analytics.any_collision_probability(
            (cls.ra_density, metrics[cls.id].collision_rate) for cls in scenario.classes
        ),
    }
    return per_class, cell


# --- commands -----------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace, scenario: Scenario) -> tuple:
    allocation = _resolve_allocation(args, scenario)
    per_class, cell = _predicted(
        scenario,
        pool_layout(scenario, allocation),
        ("raos", "ra_density_hz", "collision_rate", "collision_density_hz",
         "mean_delay_incl_s", "mean_delay_excl_s", "saturated"),
    )
    results = {"strategy": scenario.strategy.value, "per_class": per_class, "cell": cell}
    parameters = {"plan": args.plan, "topology": args.topology}
    if isinstance(allocation, AllocationPlan) and not args.plan:
        parameters["plan"] = "proportional:" + ",".join(
            str(allocation.get(c.id)) for c in scenario.classes
        )
    return "analyze", parameters, results


def cmd_optimize(args: argparse.Namespace, scenario: Scenario) -> tuple:
    method = args.method or ("reserve-and-divide" if scenario.special_classes else "proportional")
    name = allocator.SPELLINGS.get(method, method)
    plan = allocator.METHODS[name](scenario)
    reserves = name == "reserve_and_divide"
    reserved = {str(c.id): plan.get(c.id) for c in scenario.special_classes if reserves}
    residual = scenario.total_raos - sum(reserved.values()) if reserves else None
    predicted, cell = _predicted(
        scenario,
        pool_layout(scenario, plan),
        ("collision_rate", "collision_density_hz", "mean_delay_s", "saturated"),
    )
    results = {
        "method": method,
        "plan": {str(cls.id): plan.get(cls.id) for cls in scenario.classes},
        "reserved": reserved,
        "residual_after_reservation": residual,
        "predicted": predicted,
        "cell": cell,
    }
    return "optimize", {"method": method}, results


def cmd_simulate(args: argparse.Namespace, scenario: Scenario) -> tuple:
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
    analytic, cell = _predicted(scenario, layout, ("collision_rate",), config.arrival_mode)
    parameters = _sim_parameters(
        config,
        arrival_mode=config.arrival_mode.value,
        measure_delay=config.measure_delay,
        plan=args.plan,
        topology=args.topology,
    )
    results = {
        "analytic": analytic,
        "simulated": {
            "per_class": {
                str(cid): {**dataclasses.asdict(s), "censored_fraction": s.censored_fraction}
                for cid, s in stats.per_class.items()
            },
            "total_density_hz": stats.total_density,
            "total_density_stderr": stats.total_density_stderr,
            "iterations": stats.iterations,
            "horizon_s": stats.horizon,
            "seed": stats.seed,
        },
    }
    rows: list[Sequence[Any]] = []
    for cls in scenario.classes:
        s = stats.per_class[cls.id]
        rows.append(
            (
                cls.id,
                layout.size(cls.id),
                cls.ra_density,
                analytic[str(cls.id)]["collision_rate"],
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
            cell["total_collision_density_hz"] / scenario.total_density,
            pooled_collided / pooled_attempts if pooled_attempts else 0.0,
            stats.total_density,
            stats.total_density_stderr,
            None,
        )
    )
    return "simulate", parameters, results, (SIMULATE_CSV_HEADER, rows)


def cmd_sweep(args: argparse.Namespace, scenario: Scenario) -> tuple:
    total = scenario.total_raos
    if args.values:
        try:
            values = [int(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            raise ScenarioError([f"--values: could not parse {args.values!r}"]) from None
        _reject_repeated("--values:", values)
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
        # the sweep fails at its first value outside [1, total_raos - 1]: stop there
        last = total - 1 + args.step if 1 <= lo < total else lo
        values = range(lo, min(hi, last) + 1, args.step)  # counted before it is listed
    if not values:
        source = f"--values {args.values!r}" if args.values else f"--range {args.sweep_range!r}"
        raise ScenarioError([f"{source}: the list of swept values is empty"])
    if values[MAX_SWEEP_POINTS:]:
        raise simulator.SimulationError(
            f"the sweep lists more than {MAX_SWEEP_POINTS} swept values, its limit; "
            f"raise --step or sweep fewer values"
        )
    if len(scenario.classes) != 2:
        raise simulator.SimulationError("dedication sweep supports exactly 2 device classes")
    for value in values:
        if not 1 <= value <= total - 1:
            raise simulator.SimulationError(f"swept value {value} outside [1, {total - 1}]")
    swept, other = scenario.classes[args.class_index], scenario.classes[1 - args.class_index]
    # the other class gets the remainder, whatever strategy the scenario names
    layouts = [pool_layout(scenario, AllocationPlan({swept.id: value, other.id: total - value}))
               for value in values]
    config = _sim_config(args)
    if args.csv:
        _check_csv_writable(args.csv)
    ids = [cls.id for cls in scenario.classes]
    points, rows = [], []
    runs = simulator.run_many(scenario, layouts, config)
    for value, layout, stats in zip(values, layouts, runs):
        metrics = analytics.layout_metrics(scenario, layout)
        analytic = [metrics[cid].collision_density for cid in ids]
        analytic_total = math.fsum(analytic)
        points.append({
            "l_swept": value,
            "simulated": {str(cid): s.collision_density for cid, s in stats.per_class.items()},
            "total_density_hz": stats.total_density,
            "total_stderr": stats.total_density_stderr,
            "analytic_total_hz": analytic_total,
        })
        rows.append((value, *(stats.per_class[cid].collision_density for cid in ids),
                     stats.total_density, stats.total_density_stderr, *analytic, analytic_total))
    parameters = {
        "class_index": args.class_index,
        "values": ",".join(str(v) for v in values),
        **_sim_parameters(config),
    }
    results = {
        "swept_class": swept.id,
        # the first split of lowest simulated total density
        "empirical_optimum": min(points, key=lambda p: p["total_density_hz"])["l_swept"],
        "points": points,
    }
    header = (
        "l_swept",
        *(f"density_{cid}_hz" for cid in ids),
        "total_density_hz",
        "total_stderr",
        *(f"analytic_{cid}_hz" for cid in ids),
        "analytic_total_hz",
    )
    return "sweep", parameters, results, (header, rows)


def cmd_compare(args: argparse.Namespace, scenario: Scenario) -> tuple:
    names = [name.strip() for name in args.strategies.split(",") if name.strip()]
    unknown = [name for name in names if name not in allocator.METHODS]
    if unknown or not names:
        raise ScenarioError(
            [f"--strategies: choose from {', '.join(allocator.METHODS)} (got {args.strategies!r})"]
        )
    _reject_repeated("--strategies:", names)
    config = _sim_config(args)
    # each compared strategy is an allocation of the unmodified scenario
    allocations = [_allocate(name, scenario) for name in names]
    layouts = [pool_layout(scenario, allocation) for allocation in allocations]
    columns: dict[str, dict] = {}
    for name, allocation, layout, stats in zip(
        names, allocations, layouts, simulator.run_many(scenario, layouts, config)
    ):
        metrics = analytics.layout_metrics(scenario, layout)
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
    parameters = {"strategies": ",".join(names), **_sim_parameters(config)}
    return "compare", parameters, {"strategies": columns}


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


if __name__ == "__main__":
    entry()
