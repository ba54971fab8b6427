"""Spans around the public functions of rachopt's layers, and the per-layer
metrics computed from them.

``install`` replaces every public module-level function of ``rachopt.model``,
``allocator``, ``analytics``, ``simulator`` and ``cli`` with a wrapper that
records a span (name, layer, start, end, index of the enclosing span), in
every rachopt namespace that refers to the function. Spans stay in memory
and the worker writes them out when its round ends. A span's self time is
its duration minus the durations of its child spans.

Sub-steps inside ``simulator.run`` (stream setup, arrival draws, collision
counting, retries) are not public functions, so they get no span here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

LAYERS = ("model", "allocator", "analytics", "simulator", "cli")

# name -> (unit, better); the order is the order of the traced run's output
PER_LAYER = {
    "model.load_s": ("s", "lower"),
    "allocator.proportional_s": ("s", "lower"),
    "allocator.reserve_and_divide_s": ("s", "lower"),
    "allocator.brute_force_s": ("s", "lower"),
    "allocator.plans": ("count", "higher"),
    "allocator.us_per_plan": ("us", "lower"),
    "analytics.s": ("s", "lower"),
    "analytics.calls": ("count", "lower"),
    "simulator.run_s": ("s", "lower"),
    "simulator.run_calls": ("count", "higher"),
    "simulator.sweep_self_s": ("s", "lower"),
    "simulator.iterations": ("count", "higher"),
    "simulator.streams": ("count", "higher"),
    "simulator.requests": ("count", "higher"),
    "simulator.dense_slots": ("count", "lower"),
    "simulator.slots_per_request": ("ratio", "lower"),
    "simulator.ns_per_request": ("ns", "lower"),
    "simulator.us_per_stream": ("us", "lower"),
    "simulator.retries": ("count", "lower"),
    "simulator.background_slots": ("count", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _run_counts(args: dict, stats) -> dict:
    scenario, allocation, config = args["scenario"], args["allocation"], args["config"]
    iterations = config.iterations
    counts = {
        "iterations": iterations,
        "streams": iterations * len(scenario.classes),
        "requests": sum(s.attempts for s in stats.per_class.values()),
        "dense_slots": iterations * config.horizon * scenario.total_raos,
        "retries": 0.0,
        "background_slots": 0,
    }
    if config.measure_delay:
        for cls in scenario.classes:
            s = stats.per_class[cls.id]
            rows = math.ceil(config.max_attempts * cls.backoff) + 1
            counts["background_slots"] += iterations * rows * allocation.get(cls.id)
            if s.mean_delay is not None:
                counts["retries"] += (s.attempts - s.censored) * (
                    s.mean_delay / cls.backoff - 1
                ) + s.censored * (config.max_attempts - 1)
    return counts


ANNOTATORS = {
    "simulator.run": _run_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        annotate = ANNOTATORS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "layer": layer, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.update(annotate(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def install(self) -> None:
        import rachopt

        modules = [importlib.import_module(f"rachopt.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self.wrap(layer, obj)
        for module in (rachopt, *modules):
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])


def layer_metrics(spans: list[dict], output_bytes: int, plans: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (without trace.overhead_s).
    ``plans`` is the oracle's search space, C(L-1, n-1) summed over its
    calls, which the workload counts from its inputs."""
    duration = [s["end"] - s["start"] for s in spans]
    children = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s["parent"] is not None:
            children[s["parent"]] += d
    self_time = [d - c for d, c in zip(duration, children)]

    def total(values, keep) -> float:
        return math.fsum(v for s, v in zip(spans, values) if keep(s))

    def named(name):
        return lambda s: s["name"] == name

    def count(key: str) -> float:
        return sum(s.get(key, 0) for s in spans)

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return a / b * scale if b else 0.0

    def outermost(layer):
        return lambda s: s["layer"] == layer and (
            s["parent"] is None or spans[s["parent"]]["layer"] != layer)

    brute_force_s = total(duration, named("allocator.brute_force_optimal"))
    run_s = total(duration, named("simulator.run"))
    requests, streams = count("requests"), count("streams")
    return {
        "model.load_s": total(duration, outermost("model")),
        "allocator.proportional_s": total(duration, named("allocator.proportional_allocation")),
        "allocator.reserve_and_divide_s": total(duration, named("allocator.reserve_and_divide")),
        "allocator.brute_force_s": brute_force_s,
        "allocator.plans": plans,
        "allocator.us_per_plan": ratio(brute_force_s, plans, 1e6),
        "analytics.s": total(self_time, lambda s: s["layer"] == "analytics"),
        "analytics.calls": sum(1 for s in spans if s["layer"] == "analytics"),
        "simulator.run_s": run_s,
        "simulator.run_calls": sum(1 for s in spans if s["name"] == "simulator.run"),
        "simulator.sweep_self_s": total(self_time, named("simulator.sweep_dedication")),
        "simulator.iterations": count("iterations"),
        "simulator.streams": streams,
        "simulator.requests": requests,
        "simulator.dense_slots": count("dense_slots"),
        "simulator.slots_per_request": ratio(count("dense_slots"), requests),
        "simulator.ns_per_request": ratio(run_s, requests, 1e9),
        "simulator.us_per_stream": ratio(run_s, streams, 1e6),
        "simulator.retries": count("retries"),
        "simulator.background_slots": count("background_slots"),
        "cli.main_s": total(duration, named("cli.main")),
        "cli.self_s": total(self_time, lambda s: s["layer"] == "cli"),
        "cli.output_bytes": output_bytes,
    }
