"""rachopt benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark first times the set-up
(interpreter start, ``import rachopt``, loading and validating the
workload's scenarios) in separate processes, then runs whole rounds of the
workload, each in a fresh worker process (see worker.py), until another
round would end after S seconds; at least one round runs, and with
``--trace 1`` at least one untraced and one traced round, alternating.
Every child runs with transparent huge pages off and one BLAS thread, and
each round's worker with a differently padded environment (see
``run_rounds``). The outputs of every operation are checked against closed
forms computed in checks.py. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). A record of the run, with the spans of the last traced round, goes to
``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

MIN_SETUPS = 5
PR_SET_THP_DISABLE = 41
LAYOUT_PAD_VAR = "RACHOPT_BENCH_LAYOUT_PAD"
LAYOUT_PAD_MAX = 4096  # bytes of padding in a worker's environment
CHILD_TIMEOUT_S = 150.0
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REQUIRED = ("src/rachopt/__init__.py", workloads.SWEEP_SCENARIO, workloads.COMPARE_SCENARIO)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}


def disable_huge_pages() -> None:
    """Turn transparent huge pages off for this process and every child it
    starts; the prctl setting is inherited across fork and exec. Whether the
    kernel can supply huge pages depends on how fragmented the host's memory
    is at the moment, and a 20-iteration sweep round took 2.3-2.8 s with
    them and 3.3 s without, so leaving them on made runs fast or slow by
    chance."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_THP_DISABLE) failed")


def spawn(argv: list[str], pad: int = 0) -> tuple[float, int]:
    """Run a child to its end; return (wall seconds, exit code). ``pad``
    bytes in the child's environment shift where its memory is laid out."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env[LAYOUT_PAD_VAR] = "x" * pad
    start = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, _ = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode


def worker_argv(args, out: Path, *flags: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--out", str(out), *flags]


def measure_setup(args) -> float:
    """Wall time of one set-up: interpreter start, import, scenario loading."""
    wall, code = spawn(worker_argv(args, OUT_DIR / "setup.json", "--setup-only"))
    if code != 0:
        raise SystemExit(f"set-up failed with exit code {code}")
    return wall


def run_round(args, ops: list[workloads.Op], traced: bool, pad: int) -> dict:
    out = OUT_DIR / "round.json"
    out.unlink(missing_ok=True)
    wall, code = spawn(worker_argv(args, out, *(["--trace"] if traced else [])), pad)
    if code != 0 or not out.exists():
        return {"traced": traced, "wall_s": wall, "failed": len(ops),
                "failures": [f"worker exited with code {code}"]}
    return score_round(ops, json.loads(out.read_text(encoding="utf-8")), wall, traced)


def score_round(ops: list[workloads.Op], result: dict, wall: float, traced: bool) -> dict:
    """Check a worker's record of one round and take its measurements. An
    operation fails when it exits non-zero or its output fails a check."""
    failed, failures = 0, []
    for op, record in zip(ops, result["ops"], strict=True):
        if record["exit_code"] != 0:
            problems = [f"{op.name}: exit code {record['exit_code']} "
                        f"{record['error'] or record.get('stderr', '')}".strip()]
        else:
            problems = checks.check(op, record)
        failed += bool(problems)
        failures += problems
    round_ = {"traced": traced, "wall_s": wall, "failed": failed, "failures": failures}
    if failed:
        return round_  # its times are not those of the workload
    round_["work"] = sum(op.work for op in ops)
    round_["peak_rss_mb"] = result["peak_rss_mb"]
    round_["op_seconds"] = [record["seconds"] for record in result["ops"]]
    round_["work_per_s"] = round_["work"] / sum(round_["op_seconds"])
    if traced:
        output_bytes = sum(record["output_bytes"] for record in result["ops"])
        plans = sum(op.work for op in ops if op.cell is not None)
        round_["per_layer"] = tracing.layer_metrics(result["spans"], output_bytes, plans)
        round_["spans"] = result["spans"]
    return round_


def run_rounds(args, ops: list[workloads.Op]) -> tuple[list[dict], list[float]]:
    """Whole rounds until another would end after ``args.seconds``; a set-up
    measurement precedes each round, so both sample the same stretch of time.

    Each round's worker gets an environment padded by a different number of
    bytes, drawn from the seed. How much memory a worker faults in depends
    on where glibc happens to place its arrays, and that placement moves
    with the bytes before it (environment, argv, the seed's array sizes).
    On the sweep the same round takes 163 k or 434 k minor faults, 72 or
    88 MB, and 1.6-2.1 s or 2.4-3.4 s, by placement alone. A fixed layout
    would draw that once per run; varying it averages over it."""
    measure_setup(args)  # fills __pycache__; not kept
    layout = random.Random(args.seed)
    rounds: list[dict] = []
    setups: list[float] = []
    started = time.monotonic()
    while True:
        setups.append(measure_setup(args))
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rounds.append(run_round(args, ops, traced, layout.randrange(LAYOUT_PAD_MAX)))
        if args.trace and len({r["traced"] for r in rounds}) < 2:
            continue
        longest = max(r["wall_s"] for r in rounds) + max(setups)
        if time.monotonic() - started + longest > args.seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(measure_setup(args))
    return rounds, setups


def mean_of(rounds: list[dict], key: str) -> float:
    return statistics.fmean(r[key] for r in rounds) if rounds else 0.0


def summarize(rounds: list[dict], setup: list[float], n_ops: int, trace: bool):
    """The result line, the end-to-end metrics and (traced) the per-layer
    ones. Measurements come only from rounds in which every operation
    passed; any failed operation makes the run incorrect. Rounds differ in
    memory layout, so times are means over them (a median would jump
    between the layouts' modes), peak memory is the highest round, and
    work per second is the rounds' work over their timed seconds."""
    plain = [r for r in rounds if not r["traced"] and not r["failed"]]
    traced = [r for r in rounds if r["traced"] and not r["failed"]]
    op_seconds = math.fsum(s for r in plain for s in r["op_seconds"])
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": mean_of(plain, "wall_s"),
        "peak_rss_mb": max((r["peak_rss_mb"] for r in plain), default=0.0),
        "work_per_s": math.fsum(r["work"] for r in plain) / op_seconds if plain else 0.0,
    }
    per_layer = None
    if trace:
        per_layer = {name: statistics.median(r["per_layer"][name] for r in traced)
                     for name in traced[0]["per_layer"]} if traced else {}
        per_layer["trace.overhead_s"] = (
            mean_of(traced, "wall_s") - end_to_end["wall_s"] if traced and plain else 0.0)
        metrics = {name: {"value": per_layer.get(name, 0.0), "unit": unit}
                   for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": failed == 0,
        "attempted": n_ops * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    return result, end_to_end, per_layer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'small' shrinks every round; used by the benchmark's own test")
    args = parser.parse_args()

    missing = [path for path in REQUIRED if not Path(path).is_file()]
    if missing:
        print(f"error: run from the root of a rachopt checkout; missing {missing}",
              file=sys.stderr)
        return 2
    disable_huge_pages()
    OUT_DIR.mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed, args.size)

    rounds, setup = run_rounds(args, ops)
    result, end_to_end, per_layer = summarize(rounds, setup, len(ops), bool(args.trace))
    failures = [f for r in rounds for f in r["failures"]]
    traced = [r for r in rounds if "spans" in r]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "result": result, "end_to_end": end_to_end,
        "per_layer": per_layer, "setup_samples_s": setup, "failures": failures,
        "rounds": [{k: v for k, v in r.items() if k != "spans"} for r in rounds],
        "spans": traced[-1]["spans"] if traced else [],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for failure in dict.fromkeys(failures):
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
