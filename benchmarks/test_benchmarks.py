"""The benchmark's own test: every workload at the small size through the same
checks, and each check failing on a deliberately wrong output.

    python -m pytest benchmarks/test_benchmarks.py -q

Takes about half a minute on two cores.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, tuple[list, list]]:
    """One small untraced round of each workload: (ops, worker records)."""
    out_dir = tmp_path_factory.mktemp("rounds")
    result = {}
    for name in workloads.WORKLOADS:
        out = out_dir / f"{name}.json"
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", name,
                        "--seed", str(SEED), "--size", "small", "--out", str(out)],
                       cwd=ROOT, check=True, timeout=170)
        ops = workloads.build(name, SEED, "small")
        result[name] = (ops, json.loads(out.read_text())["ops"])
    return result


def _op(outputs, workload: str, name: str) -> tuple:
    ops, records = outputs[workload]
    k = [op.name for op in ops].index(name)
    return ops[k], records[k]


def _mutated(record: dict, change) -> dict:
    report = json.loads(record["stdout"])
    change(report)
    return {**record, "stdout": json.dumps(report)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_small_round_passes_every_check(outputs, workload):
    ops, records = outputs[workload]
    for op, record in zip(ops, records, strict=True):
        assert record["exit_code"] == 0, record
        assert checks.check(op, record) == [], op.name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1", "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    ops = workloads.build(workload, SEED, "small")
    assert result["attempted"] == 2 * len(ops)  # one untraced and one traced round
    assert list(result["metrics"]) == list(tracing.PER_LAYER)
    record = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace1.json").read_text())
    assert set(record["end_to_end"]) == set(run.END_TO_END)
    assert all(value > 0 for value in record["end_to_end"].values())
    layers = record["per_layer"]
    if workload == "exact-oracle":
        assert layers["allocator.plans"] == sum(op.work for op in ops)
    else:
        assert layers["simulator.requests"] > 0 and layers["cli.output_bytes"] > 0
    if workload == "delay-retries":
        assert layers["simulator.retries"] > 0 and layers["simulator.background_slots"] > 0


def test_a_failed_operation_makes_the_run_incorrect(outputs):
    ops, records = outputs["delay-retries"]
    good = {"ops": records, "spans": [], "peak_rss_mb": 50.0}
    crashed = {**good, "ops": [{**records[0], "exit_code": 1, "seconds": 1e-6,
                                "error": "Traceback: ValueError"}]}
    rounds = [run.score_round(ops, good, 2.0, traced=False),
              run.score_round(ops, crashed, 0.1, traced=False)]
    assert rounds[1]["failed"] == 1
    result, end_to_end, _ = run.summarize(rounds, [0.3], len(ops), trace=False)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    # the failed round's near-zero times stay out of the medians
    assert end_to_end["wall_s"] == 2.0
    assert end_to_end["work_per_s"] == rounds[0]["work_per_s"]


def test_run_metrics_average_over_rounds(outputs):
    """Rounds differ in memory layout: times are means, memory the highest
    peak, and work per second the rounds' work over their timed seconds."""
    ops, records = outputs["delay-retries"]
    rounds = []
    for wall, rss, seconds in ((2.0, 72.0, 1.5), (3.0, 88.0, 2.5)):
        result = {"ops": [{**records[0], "seconds": seconds}], "spans": [], "peak_rss_mb": rss}
        rounds.append(run.score_round(ops, result, wall, traced=False))
    _, end_to_end, _ = run.summarize(rounds, [0.3, 0.2, 0.4], len(ops), trace=False)
    assert end_to_end == {"setup_s": 0.3, "wall_s": 2.5, "peak_rss_mb": 88.0,
                          "work_per_s": 2 * ops[0].work / 4.0}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def test_checks_do_not_import_the_program():
    code = "import checks, sys; print(any(m.startswith('rachopt') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "exact-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("token", ["Infinity", "NaN", "-Infinity"])
def test_non_finite_json_is_rejected(outputs, token):
    op, record = _op(outputs, "delay-retries", "delay")
    text = record["stdout"].replace('"censored_fraction": 0.0', f'"censored_fraction": {token}', 1)
    assert text != record["stdout"]
    assert checks.check(op, {**record, "stdout": text})


def test_sweep_checks_catch_wrong_reports(outputs):
    op, record = _op(outputs, "sweep-long-horizon", "sweep")

    def shift_density(report):
        report["results"]["points"][5]["total_density_hz"] *= 1.10

    def shift_analytic(report):
        report["results"]["points"][0]["analytic_total_hz"] *= 1 + 1e-9

    def boundary_optimum(report):
        report["results"]["empirical_optimum"] = op.params["grid"][0]

    def distant_optimum(report):
        points = report["results"]["points"]
        far = points[12]  # L1 = 7800, far outside 3600 +- 10 %
        far["total_density_hz"] = min(p["total_density_hz"] for p in points) - 1.0
        report["results"]["empirical_optimum"] = far["l_swept"]

    def inflated_stderr(report):
        report["results"]["points"][5]["total_stderr"] *= 3

    for change in (shift_density, shift_analytic, boundary_optimum, distant_optimum,
                   inflated_stderr):
        assert checks.check(op, _mutated(record, change)), change.__name__


def test_sweep_optimum_two_steps_away_fails(outputs):
    """A small density shift that moves the minimum to L1 = 4800 stays inside
    the pointwise 5 % tolerance, but the optimum is two grid steps from the
    proportional split, so it fails."""
    op, record = _op(outputs, "sweep-long-horizon", "sweep")
    assert op.params["grid"][7] == 4800

    def shifted(report):
        points = report["results"]["points"]
        points[7]["total_density_hz"] = min(p["total_density_hz"] for p in points) - 1e-3
        report["results"]["empirical_optimum"] = 4800

    failures = checks.check(op, _mutated(record, shifted))
    assert failures and all("optimum" in f for f in failures), failures


def test_sweep_optimum_next_to_the_split_is_a_tie(outputs):
    op, record = _op(outputs, "sweep-long-horizon", "sweep")

    def neighbour(report):
        points = report["results"]["points"]
        points[6]["total_density_hz"] = min(p["total_density_hz"] for p in points) - 1e-3
        report["results"]["empirical_optimum"] = 4200

    assert checks.check(op, _mutated(record, neighbour)) == []


def test_compare_checks_catch_wrong_reports(outputs):
    op, record = _op(outputs, "compare-short-horizon", "compare")

    def plan_off_by_one(report):
        plan = report["results"]["strategies"]["full_dedication"]["plan"]
        plan["1"] += 1
        plan["3"] -= 1

    def reservation_short(report):
        plan = report["results"]["strategies"]["reserve_and_divide"]["plan"]
        plan["1"] -= 1
        plan["3"] += 1

    def rate_shifted(report):
        stats = report["results"]["strategies"]["full_sharing"]["per_class"]["3"]
        stats["collision_rate_empirical"] *= 1.10

    def class_missing(report):
        del report["results"]["strategies"]["full_sharing"]["per_class"]["2"]

    def inflated_stderr_hides_a_shift(report):
        stats = report["results"]["strategies"]["full_dedication"]["per_class"]["3"]
        stats["collision_rate_empirical"] *= 1.10
        stats["rate_stderr"] *= 10

    for change in (plan_off_by_one, reservation_short, rate_shifted, class_missing,
                   inflated_stderr_hides_a_shift):
        assert checks.check(op, _mutated(record, change)), change.__name__

    op, record = _op(outputs, "compare-short-horizon", "partial")

    def partial_rate_shifted(report):
        report["results"]["simulated"]["per_class"]["3"]["collision_rate"] *= 1.10

    assert checks.check(op, _mutated(record, partial_rate_shifted))


def test_delay_checks_catch_wrong_reports(outputs):
    op, record = _op(outputs, "delay-retries", "delay")

    def delay_shifted(report):
        report["results"]["simulated"]["per_class"]["1"]["mean_delay"] *= 1.10

    def censored(report):
        stats = report["results"]["simulated"]["per_class"]["2"]
        stats["censored"] = stats["attempts"] // 100

    def inflated_stderr(report):
        report["results"]["simulated"]["per_class"]["2"]["delay_stderr"] *= 3

    for change in (delay_shifted, censored, inflated_stderr):
        assert checks.check(op, _mutated(record, change)), change.__name__


def test_oracle_check_catches_a_plan_off_by_one(outputs):
    for op, record in zip(*outputs["exact-oracle"], strict=True):
        plan = copy.copy(record["plan"])
        donor = plan.index(max(plan))
        plan[donor] -= 1
        plan[(donor + 1) % len(plan)] += 1
        assert checks.check(op, {**record, "plan": plan}), op.name


def test_oracle_scan_reproduces_the_reference_optima():
    gammas = (50.0, 100.0, 500.0)
    assert checks.oracle_expectation(gammas, 600)[0] == (1, 100, 499)
    assert checks.oracle_expectation(gammas, 1000)[0] == tuple(
        checks.largest_remainder(list(gammas), 1000))
    assert len(checks.compositions(10, 3)) == 36
