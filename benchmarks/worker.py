"""One benchmark round, in a process of its own.

    python3 benchmarks/worker.py --workload NAME --seed N --size full|small
                                 --out PATH [--trace] [--setup-only]

Run from the root of a checkout. The worker imports rachopt from ``src/``,
loads and validates the workload's scenarios (the set-up), then runs the
round's operations one after the other, each timed with
``time.perf_counter``: CLI commands through ``rachopt.cli.main`` with
their standard output captured, oracle calls through
``rachopt.allocator.brute_force_optimal``. It writes the outputs, exit
codes, times and (with ``--trace``) the spans to PATH as JSON and prints
nothing. ``--setup-only`` stops after the set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback

import workloads  # benchmarks/ is this script's directory


def _prepare(op: workloads.Op):
    from rachopt import cli, model  # noqa: F401  (the import is part of the set-up)

    if op.cell is not None:
        return model.scenario_from_dict(op.cell)
    return model.load_scenario(op.scenario)


def _run_command(op: workloads.Op) -> dict:
    from rachopt import cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is a failed operation, not a crash
        code, error = 1, traceback.format_exc()
    seconds = time.perf_counter() - start
    text = out.getvalue()
    return {"name": op.name, "exit_code": code, "seconds": seconds, "stdout": text,
            "stderr": err.getvalue(), "error": error, "output_bytes": len(text.encode())}


def _run_call(op: workloads.Op, scenario) -> dict:
    from rachopt import allocator

    plan, code, error = None, 0, None
    start = time.perf_counter()
    try:
        result = allocator.brute_force_optimal(scenario)
    except Exception:
        code, error = 1, traceback.format_exc()
    seconds = time.perf_counter() - start
    if code == 0:
        plan = [result.get(c["id"]) for c in op.cell["classes"]]
    return {"name": op.name, "exit_code": code, "seconds": seconds, "plan": plan,
            "error": error, "output_bytes": 0}


def peak_rss_mb() -> float:
    """High-water resident set of this process since exec, in MB (2**20 bytes).

    The kernel's ru_maxrss of a child also counts the parent's pages it
    shared before exec, so the worker reads VmHWM itself.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, "src")  # the checkout's program; run from the checkout root
    ops = workloads.build(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    scenarios = [_prepare(op) for op in ops]
    if args.setup_only:
        return 0
    records = [
        _run_call(op, scenario) if op.cell is not None else _run_command(op)
        for op, scenario in zip(ops, scenarios)
    ]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"ops": records, "spans": tracer.spans if tracer else [],
                   "peak_rss_mb": peak_rss_mb()}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
