import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rachopt import model, simulator
from rachopt.cli import (
    EXIT_OK,
    EXIT_OVERLOAD,
    EXIT_SIMULATION,
    EXIT_VALIDATION,
    SIMULATE_CSV_HEADER,
    main,
)
from conftest import run_fresh

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DC12 = str(SCENARIOS / "dc1_dc2.yaml")
DC14 = str(SCENARIOS / "dc1_dc4.yaml")
QOS123 = str(SCENARIOS / "dc123_qos.yaml")


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def strict_json(text):
    """Parse JSON, rejecting the NaN/Infinity constants strict JSON lacks."""

    def reject(constant):
        raise ValueError(f"not valid JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def write_cell(tmp_path, strategy, total_raos, densities):
    path = tmp_path / f"{strategy}_{total_raos}.yaml"
    classes = [{"id": i + 1, "ra_density": g} for i, g in enumerate(densities)]
    path.write_text(
        yaml.safe_dump({"total_raos": total_raos, "strategy": strategy, "classes": classes})
    )
    return str(path)


def write_class(tmp_path, total_raos, class_id=1, **fields):
    path = tmp_path / f"one_class_{total_raos}.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "total_raos": total_raos,
                "strategy": "full_dedication",
                "classes": [{"id": class_id, **fields}],
            }
        )
    )
    return str(path)


class TestAnalyze:
    def test_reports_reference_density(self, capsys):
        code, report = run_json(capsys, ["analyze", DC12])
        assert code == EXIT_OK
        cell = report["results"]["cell"]
        assert cell["total_collision_density_hz"] == pytest.approx(
            2.068932488412567, rel=1e-12, abs=0
        )
        assert cell["collision_probability"] == pytest.approx(0.875485528555877, rel=1e-12, abs=0)

    def test_positional_and_keyed_plans_agree(self, capsys):
        _, positional = run_json(capsys, ["analyze", DC12, "--plan", "3600,7200"])
        _, keyed = run_json(capsys, ["analyze", DC12, "--plan", "2=7200,1=3600"])
        assert positional["results"] == keyed["results"]

    def test_human_output_mentions_density(self, capsys):
        assert main(["analyze", DC12]) == EXIT_OK
        out = capsys.readouterr().out
        assert "total_collision_density_hz: 2.06893" in out
        assert "fingerprint" in out

    def test_full_sharing_rate_uniform_across_classes(self, capsys, tmp_path):
        data = yaml.safe_load(Path(DC12).read_text())
        data["strategy"] = "full_sharing"
        path = tmp_path / "sharing.yaml"
        path.write_text(yaml.safe_dump(data))
        code, report = run_json(capsys, ["analyze", str(path)])
        assert code == EXIT_OK
        rates = {
            cid: cls["collision_rate"]
            for cid, cls in report["results"]["per_class"].items()
        }
        assert rates["1"] == rates["2"] == pytest.approx(0.013792883256083781, rel=1e-12, abs=0)

    def test_topology_on_dedication_scenario_rejected(self, capsys):
        assert main(["analyze", DC12, "--topology", "1:0-5399"]) == EXIT_VALIDATION

    def test_partial_requires_topology(self, capsys, tmp_path):
        data = yaml.safe_load(Path(DC12).read_text())
        data["strategy"] = "partial_dedication"
        path = tmp_path / "partial.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        code, report = run_json(
            capsys, ["analyze", str(path), "--topology", "1:0-5399;2:2700-10799"]
        )
        assert code == EXIT_OK
        assert report["results"]["per_class"]["1"]["collision_rate"] == pytest.approx(
            0.015294873819897137, rel=1e-10
        )


    def test_out_of_range_topology_rejected_before_slots_are_built(self, capsys, tmp_path):
        path = write_cell(tmp_path, "partial_dedication", 10800, [50.0, 100.0])
        tracemalloc.start()
        try:
            code = main(["analyze", path, "--topology", "1:0-2000000;2:0-10799"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_VALIDATION
        assert "outside [0, 10800)" in capsys.readouterr().err
        assert peak < 10 * 2**20

    def test_delays_follow_the_closed_form(self, capsys):
        code, report = run_json(capsys, ["analyze", DC12])
        assert code == EXIT_OK
        dc1 = report["results"]["per_class"]["1"]
        assert dc1["saturated"] is False
        assert dc1["mean_delay_incl_s"] == pytest.approx(math.exp(50 / 3600), rel=1e-12, abs=0)
        assert dc1["mean_delay_excl_s"] == pytest.approx(math.expm1(50 / 3600), rel=1e-12, abs=0)

    def test_exclusive_delay_keeps_precision_at_light_load(self, capsys, tmp_path):
        # inclusive - backoff would lose 6e-9 relative here; abs=0 because
        # approx otherwise accepts any error below 1e-12
        path = write_cell(tmp_path, "full_dedication", 10800, [1e-4])
        code, report = run_json(capsys, ["analyze", path])
        assert code == EXIT_OK
        dc1 = report["results"]["per_class"]["1"]
        assert dc1["mean_delay_excl_s"] == pytest.approx(
            math.expm1(1e-4 / 10800), rel=1e-12, abs=0
        )


class TestSaturatedCells:
    def test_analyze_reports_null_delays(self, capsys, tmp_path):
        path = write_cell(tmp_path, "full_sharing", 1, [50.0, 2000.0])
        assert main(["analyze", path, "--json"]) == EXIT_OK
        report = strict_json(capsys.readouterr().out)
        for cls in report["results"]["per_class"].values():
            assert cls["collision_rate"] == 1.0
            assert cls["saturated"] is True
            assert cls["mean_delay_incl_s"] is None
            assert cls["mean_delay_excl_s"] is None
        assert main(["analyze", path]) == EXIT_OK
        assert "saturated: True" in capsys.readouterr().out

    def test_optimize_reports_null_delays(self, capsys, tmp_path):
        path = write_cell(tmp_path, "full_dedication", 2, [2000.0, 2000.0])
        assert main(["optimize", path, "--json"]) == EXIT_OK
        report = strict_json(capsys.readouterr().out)
        for predicted in report["results"]["predicted"].values():
            assert predicted["saturated"] is True
            assert predicted["mean_delay_s"] is None


class TestOptimize:
    def test_proportional_reference(self, capsys):
        code, report = run_json(capsys, ["optimize", DC12])
        assert code == EXIT_OK
        assert report["results"]["method"] == "proportional"
        assert report["results"]["plan"] == {"1": 3600, "2": 7200}

    def test_reserve_and_divide_walkthrough(self, capsys):
        code, report = run_json(capsys, ["optimize", QOS123])
        assert code == EXIT_OK
        results = report["results"]
        assert results["method"] == "reserve-and-divide"
        assert results["reserved"] == {"1": 2475}
        assert results["residual_after_reservation"] == 8325
        assert results["plan"] == {"1": 2475, "2": 1388, "3": 6937}
        assert results["predicted"]["1"]["collision_rate"] <= 0.02

    def test_infinite_delay_bound_rejected_as_not_finite(self, capsys, tmp_path):
        data = yaml.safe_load(Path(QOS123).read_text())
        data["classes"][0]["qos"] = {"kind": "max_mean_delay", "max_mean_delay": math.inf}
        path = tmp_path / "inf_delay.yaml"
        path.write_text(yaml.safe_dump(data))
        for command in ("optimize", "analyze"):
            assert main([command, str(path)]) == EXIT_VALIDATION
            assert "qos.max_mean_delay must be finite" in capsys.readouterr().err

    def test_overload_exit_code(self, capsys, tmp_path):
        data = yaml.safe_load(Path(QOS123).read_text())
        data["classes"][0]["qos"]["max_collision_rate"] = 1e-9
        path = tmp_path / "overload.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["optimize", str(path)]) == EXIT_OVERLOAD
        assert "overload" in capsys.readouterr().err


class TestUnwritableCsv:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", DC12, "--iterations", "2", "--seed", "1"],
            ["sweep", DC12, "--values", "3600", "--iterations", "2", "--seed", "1"],
        ],
    )
    def test_exits_with_validation_error_naming_the_path(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        def not_reached(*args, **kwargs):
            raise AssertionError("simulated before checking the --csv path")

        # run and sweep_dedication call _simulate through the module, so this covers both
        monkeypatch.setattr(simulator, "_simulate", not_reached)
        out = tmp_path / "missing" / "x.csv"
        assert main(argv + ["--csv", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"error: --csv {out}: " in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", DC12, "--iterations", "2", "--seed", "1"],
        ["sweep", DC12, "--values", "3600", "--iterations", "2", "--seed", "1"],
        ["compare", DC12, "--strategies", "full_sharing", "--iterations", "2", "--seed", "1"],
    ],
    ids=["simulate", "sweep", "compare"],
)
def test_simulation_reports_name_the_rng_layout(capsys, argv):
    code, report = run_json(capsys, argv)
    assert code == EXIT_OK
    assert report["parameters"]["rng_layout"] == simulator.RNG_LAYOUT


class TestSimulate:
    def test_csv_round_trips_report_numbers(self, capsys, tmp_path):
        out = tmp_path / "stats.csv"
        code, report = run_json(
            capsys,
            ["simulate", DC12, "--iterations", "50", "--seed", "8", "--csv", str(out)],
        )
        assert code == EXIT_OK
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert tuple(rows[0].keys()) == SIMULATE_CSV_HEADER
        sim = report["results"]["simulated"]
        for row in rows[:-1]:
            stats = sim["per_class"][row["class_id"]]
            assert float(row["p_empirical"]) == stats["collision_rate"]
            assert float(row["density_hz"]) == stats["collision_density"]
            assert float(row["stderr"]) == stats["density_stderr"]
        cell = rows[-1]
        assert cell["class_id"] == "cell"
        assert float(cell["density_hz"]) == sim["total_density_hz"]
        assert cell["delay_s"] == ""

    def test_auto_seed_recorded_and_reproducible(self, capsys):
        code, first = run_json(capsys, ["simulate", DC12, "--iterations", "20"])
        assert code == EXIT_OK
        seed = first["parameters"]["seed"]
        assert isinstance(seed, int)
        code, second = run_json(
            capsys, ["simulate", DC12, "--iterations", "20", "--seed", str(seed)]
        )
        assert second["results"]["simulated"] == first["results"]["simulated"]

    def test_measure_delay_populates_delay_column(self, capsys, tmp_path):
        out = tmp_path / "delay.csv"
        code, report = run_json(
            capsys,
            [
                "simulate",
                DC12,
                "--iterations",
                "30",
                "--seed",
                "5",
                "--measure-delay",
                "--csv",
                str(out),
            ],
        )
        assert code == EXIT_OK
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        delay = float(rows[0]["delay_s"])
        assert delay == report["results"]["simulated"]["per_class"]["1"]["mean_delay"]
        assert delay > 1.0

    @pytest.mark.parametrize(
        "strategy, topology",
        [("full_sharing", None), ("partial_dedication", "1:0-5399;2:2700-10799")],
    )
    def test_measure_delay_on_shared_and_partial_files(self, capsys, tmp_path, strategy, topology):
        path = write_cell(tmp_path, strategy, 10800, [50.0, 100.0])
        argv = ["simulate", path, "--iterations", "5", "--seed", "3", "--measure-delay"]
        code, report = run_json(capsys, argv + (["--topology", topology] if topology else []))
        assert code == EXIT_OK
        for stats in report["results"]["simulated"]["per_class"].values():
            assert math.isfinite(stats["mean_delay"])

    def test_negative_seed_exits_with_simulation_error(self, capsys):
        assert main(["simulate", DC12, "--seed", "-1", "--iterations", "1"]) == EXIT_SIMULATION
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_horizon_over_memory_limit_exits_before_drawing(self, capsys):
        argv = ["simulate", DC12, "--iterations", "1", "--seed", "1", "--horizon", str(10**12)]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_SIMULATION
        assert "lower the horizon" in capsys.readouterr().err
        assert peak < 10 * 2**20

    def test_failed_run_keeps_existing_csv_rows(self, capsys, tmp_path):
        # the path is checked before the run without truncating the file
        out = tmp_path / "old.csv"
        out.write_text("earlier,rows\n")
        argv = ["simulate", DC12, "--iterations", "1", "--seed", "1", "--horizon", str(10**12)]
        assert main(argv + ["--csv", str(out)]) == EXIT_SIMULATION
        assert out.read_text() == "earlier,rows\n"

    @staticmethod
    def _simulate_peak(path, *extra):
        argv = ["simulate", str(path), "--iterations", "2", "--seed", "1", "--measure-delay"]
        tracemalloc.start()
        try:
            code = main(argv + list(extra))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return code, peak

    def test_huge_backoff_probes_past_the_horizon_in_small_memory(self, capsys, tmp_path):
        # retries reach 2.4e13 s past the horizon; no traffic is drawn there
        path = write_class(tmp_path, 100, ra_density=5.0, backoff=1e12)
        code, peak = self._simulate_peak(path)
        assert code == EXIT_OK
        assert peak < 10 * 2**20

    def test_backoff_past_64_bit_keys_runs_in_small_memory(self, capsys, tmp_path):
        # retries past the horizon form no slot key, so 25 backoffs of 1e18 s
        # on 100 RAOs need none past 64 bits
        path = write_class(tmp_path, 100, ra_density=5.0, backoff=1e18)
        code, peak = self._simulate_peak(path, "--json")
        assert code == EXIT_OK
        assert peak < 10 * 2**20
        stats = strict_json(capsys.readouterr().out)["results"]["simulated"]["per_class"]["1"]
        assert stats["mean_delay"] >= 1e18

    def test_attempt_cap_past_floats_runs(self, capsys):
        code, _ = self._simulate_peak(DC12, "--max-attempts", str(10**400))
        assert code == EXIT_OK

    @staticmethod
    def _largest_accepted_backoff(attempts, iterations):
        # the delay tallies keep iterations * (attempts * backoff)**2 within
        # half the float range
        limit = math.sqrt(sys.float_info.max / 2 / iterations)
        backoff = limit / attempts
        while attempts * backoff > limit:
            backoff = math.nextafter(backoff, 0.0)
        while attempts * math.nextafter(backoff, math.inf) <= limit:
            backoff = math.nextafter(backoff, math.inf)
        return backoff

    @pytest.mark.parametrize("max_attempts", [25, 10**400])
    def test_largest_delays_the_tallies_hold_stay_finite(self, capsys, tmp_path, max_attempts):
        # a loaded cell, so that delays spread over many attempts
        attempts = float(min(max_attempts, 2**63))
        backoff = self._largest_accepted_backoff(attempts, 2)
        path = write_class(tmp_path, 100, ra_density=50.0, backoff=backoff)
        code, _ = self._simulate_peak(path, "--max-attempts", str(max_attempts), "--json")
        assert code == EXIT_OK
        stats = strict_json(capsys.readouterr().out)["results"]["simulated"]["per_class"]["1"]
        assert stats["collided"] > 0
        assert backoff <= stats["mean_delay"] <= attempts * backoff

        path = write_class(tmp_path, 100, ra_density=50.0, backoff=math.nextafter(backoff, math.inf))
        code, peak = self._simulate_peak(path, "--max-attempts", str(max_attempts))
        assert code == EXIT_SIMULATION
        assert "that the delay tallies of 2 iterations hold" in capsys.readouterr().err
        assert peak < 10 * 2**20

    def test_huge_pool_runs_in_small_memory(self, capsys, tmp_path):
        # 1e11 RAOs: no per-class slot array exists, so nothing grows with them
        path = write_class(tmp_path, 10**11, ra_density=10.0)
        code, peak = self._simulate_peak(path, "--json")
        assert code == EXIT_OK
        assert peak < 10 * 2**20
        assert strict_json(capsys.readouterr().out)["results"]["simulated"]["per_class"]["1"][
            "attempts"] > 0

    def test_pool_past_64_bit_keys_exits_before_drawing(self, capsys, tmp_path):
        path = write_class(tmp_path, 10**21, ra_density=10.0)
        code, peak = self._simulate_peak(path)
        assert code == EXIT_SIMULATION
        assert "do not fit in 64 bits" in capsys.readouterr().err
        assert peak < 10 * 2**20

    def test_two_classes_just_below_tagged_64_bit_keys_run_in_small_memory(self, capsys, tmp_path):
        # two classes tag their keys with one bit: 4 096 s of keys take 2**13 x total_raos
        path = write_cell(tmp_path, "full_sharing", 2**50 - 1, [10.0, 10.0])
        code, peak = self._simulate_peak(path, "--json")
        assert code == EXIT_OK
        assert peak < 10 * 2**20
        per_class = strict_json(capsys.readouterr().out)["results"]["simulated"]["per_class"]
        assert per_class["1"]["attempts"] > 0 and per_class["2"]["attempts"] > 0

    def test_two_classes_past_tagged_64_bit_keys_exit_before_drawing(self, capsys, tmp_path):
        path = write_cell(tmp_path, "full_sharing", 2**50, [10.0, 10.0])
        code, peak = self._simulate_peak(path)
        assert code == EXIT_SIMULATION
        assert "do not fit in 64 bits" in capsys.readouterr().err
        assert peak < 10 * 2**20

    def test_huge_class_id_and_seed_measure_delays(self, capsys, tmp_path):
        path = write_class(tmp_path, 100, ra_density=50.0, class_id=10**30)
        code, report = run_json(
            capsys,
            ["simulate", str(path), "--iterations", "3", "--seed", str(10**30), "--measure-delay"],
        )
        assert code == EXIT_OK
        assert report["results"]["simulated"]["per_class"][str(10**30)]["mean_delay"] > 1.0

    def test_device_mode_needs_population(self, capsys, tmp_path):
        path = tmp_path / "nopop.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "total_raos": 100,
                    "strategy": "full_dedication",
                    "classes": [{"id": 1, "ra_density": 5.0}],
                }
            )
        )
        assert (
            main(
                [
                    "simulate",
                    str(path),
                    "--iterations",
                    "5",
                    "--seed",
                    "1",
                    "--arrival-mode",
                    "per_device_bernoulli",
                ]
            )
            == EXIT_SIMULATION
        )
        assert "population" in capsys.readouterr().err


class TestIterationLimit:
    # the per-iteration tallies of 10**10 iterations would need 0.9 TB; each
    # command refuses them before allocating anything
    @pytest.mark.parametrize(
        "argv, n_classes",
        [
            (["simulate", DC12, "--iterations", str(10**12)], 2),
            (["compare", QOS123, "--iterations", str(10**11)], 3),
            (["sweep", DC12, "--range", "600:1200", "--step", "600",
              "--iterations", str(10**10)], 2),
        ],
        ids=["simulate", "compare", "sweep"],
    )
    def test_huge_iterations_exit_4_before_allocating(self, capsys, argv, n_classes):
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_SIMULATION
        err = capsys.readouterr().err
        limit = simulator.MAX_TALLY_BYTES // simulator._Tally.bytes_per_iteration(n_classes)
        assert f"iterations {argv[-1]} need" in err
        assert f"limit of {limit} iterations" in err
        assert peak < 16 * 2**20


class TestDelayInputs:
    # any backoff, attempt cap and horizon either runs to strict JSON or is
    # refused before drawing by the bound of the delay tallies
    CELLS = {
        "one class": ("full_dedication", [{"id": 1, "ra_density": 50.0}]),
        "two shared classes": (
            "full_sharing", [{"id": 1, "ra_density": 20.0}, {"id": 2, "ra_density": 30.0}]
        ),
    }

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cell=st.sampled_from(sorted(CELLS)),
        exponents=st.lists(st.floats(-3.0, 308.0), min_size=2, max_size=2),
        max_attempts=st.one_of(st.integers(1, 60), st.integers(0, 400).map(lambda e: 10**e)),
        horizon=st.integers(1, 8),
    )
    def test_delay_runs_end_in_json_or_the_tally_bound(
        self, capsys, tmp_path, cell, exponents, max_attempts, horizon
    ):
        strategy, classes = self.CELLS[cell]
        backoffs = [10.0**e for e in exponents]  # log-uniform over [1e-3, 1e308]
        path = tmp_path / "cell.yaml"
        path.write_text(yaml.safe_dump({
            "total_raos": 100,
            "strategy": strategy,
            "classes": [{**c, "backoff": b} for c, b in zip(classes, backoffs)],
        }))
        argv = ["simulate", str(path), "--iterations", "2", "--seed", "1", "--measure-delay",
                "--horizon", str(horizon), "--max-attempts", str(max_attempts), "--json"]
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_SIMULATION), err
        if code == EXIT_OK:
            per_class = strict_json(out)["results"]["simulated"]["per_class"]
            assert len(per_class) == len(classes)
        else:
            assert "that the delay tallies of 2 iterations hold" in err
        assert peak < 10 * 2**20


class TestSweep:
    def test_values_mode_and_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, report = run_json(
            capsys,
            [
                "sweep",
                DC12,
                "--values",
                "3000,3600,4200",
                "--iterations",
                "30",
                "--seed",
                "2",
                "--csv",
                str(out),
            ],
        )
        assert code == EXIT_OK
        assert report["results"]["empirical_optimum"] in (3000, 3600, 4200)
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["l_swept"] for r in rows] == ["3000", "3600", "4200"]
        assert float(rows[1]["analytic_total_hz"]) == pytest.approx(
            2.068932488412567, rel=1e-12, abs=0
        )

    def test_range_mode(self, capsys):
        code, report = run_json(
            capsys,
            ["sweep", DC12, "--range", "600:1800", "--step", "600", "--iterations", "5", "--seed", "3"],
        )
        assert code == EXIT_OK
        assert [p["l_swept"] for p in report["results"]["points"]] == [600, 1200, 1800]

    def test_needs_range_or_values(self, capsys):
        assert main(["sweep", DC12, "--iterations", "5"]) == EXIT_VALIDATION

    def test_three_class_scenario_rejected(self, capsys):
        assert (
            main(["sweep", QOS123, "--values", "100", "--iterations", "5", "--seed", "1"])
            == EXIT_SIMULATION
        )

    @pytest.mark.parametrize(
        "option", [["--values", ","], ["--range", "10:5"]], ids=["values", "range"]
    )
    def test_empty_value_list_rejected(self, capsys, option):
        assert main(["sweep", DC12, *option, "--iterations", "5", "--seed", "1"]) == EXIT_VALIDATION
        assert "list of swept values is empty" in capsys.readouterr().err

    def test_class_index_out_of_range_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "/nonexistent/file.yaml", "--values", "100", "--class-index", "5"])
        assert exc.value.code == EXIT_VALIDATION
        assert "--class-index" in capsys.readouterr().err

    def test_sharing_file_sweeps_like_dedication_file(self, capsys, tmp_path):
        data = yaml.safe_load(Path(DC12).read_text())
        data["strategy"] = "full_sharing"
        path = tmp_path / "sharing.yaml"
        path.write_text(yaml.safe_dump(data))
        argv = ["--values", "600,3600", "--iterations", "10", "--seed", "8"]
        code, shared = run_json(capsys, ["sweep", str(path), *argv])
        assert code == EXIT_OK
        _, dedicated = run_json(capsys, ["sweep", DC12, *argv])
        assert shared["results"] == dedicated["results"]


class TestCompare:
    def test_three_strategy_table(self, capsys):
        code = main(
            [
                "compare",
                QOS123,
                "--strategies",
                "full_sharing,full_dedication,reserve_and_divide",
                "--iterations",
                "50",
                "--seed",
                "6",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "full_sharing" in out and "reserve_and_divide" in out
        assert "total density (Hz)" in out

    def test_json_structure(self, capsys):
        code, report = run_json(
            capsys,
            ["compare", DC12, "--strategies", "full_sharing", "--iterations", "20", "--seed", "6"],
        )
        assert code == EXIT_OK
        strategies = report["results"]["strategies"]
        assert set(strategies) == {"full_sharing"}
        assert "collision_rate_empirical" in strategies["full_sharing"]["per_class"]["1"]

    def test_qos_strategy_bounds_special_class(self, capsys):
        code, report = run_json(
            capsys,
            [
                "compare",
                QOS123,
                "--strategies",
                "reserve_and_divide",
                "--iterations",
                "300",
                "--seed",
                "14",
            ],
        )
        assert code == EXIT_OK
        dc1 = report["results"]["strategies"]["reserve_and_divide"]["per_class"]["1"]
        assert dc1["collision_rate_empirical"] <= 0.02 + 3 * dc1["rate_stderr"]

    def test_single_strategy_degenerate_table(self, capsys):
        code = main(
            ["compare", DC12, "--strategies", "full_dedication", "--iterations", "10", "--seed", "1"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "full_dedication" in out
        assert "full_sharing" not in out

    def test_unknown_strategy_rejected(self, capsys):
        assert main(["compare", DC12, "--strategies", "round_robin"]) == EXIT_VALIDATION

    def test_repeated_strategy_rejected(self, capsys):
        code = main(["compare", DC12, "--strategies", "full_sharing,full_dedication,full_sharing"])
        assert code == EXIT_VALIDATION
        assert "full_sharing given more than once" in capsys.readouterr().err


class TestDiagnostics:
    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/file.yaml"]) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_yaml_syntax_error_with_location(self, capsys, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("total_raos: [oops\nstrategy: full_sharing\n")
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "not valid YAML" in err

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_non_utf8_file_exits_2(self, capsys, monkeypatch, tmp_path, loader):
        # byte 0xFF never occurs in UTF-8; it used to escape as a traceback
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML was built without libyaml")
        monkeypatch.setattr(model, "YAML_LOADER", getattr(yaml, loader))
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"total_raos: 100\n# caf\xff\nstrategy: full_sharing\n")
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        assert f"error: {path}: not valid UTF-8 (" in capsys.readouterr().err

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_repeated_key_exits_2(self, capsys, monkeypatch, tmp_path, loader):
        # it used to analyze the last value, 5000 Hz, and exit 0
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML was built without libyaml")
        monkeypatch.setattr(model, "YAML_LOADER", getattr(yaml, loader))
        path = tmp_path / "repeated.yaml"
        path.write_text(
            "total_raos: 10800\nstrategy: full_sharing\nclasses:\n"
            "  - id: 1\n    ra_density: 50\n    ra_density: 5000\n"
        )
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {path}:6: key 'ra_density' given again (first on line 5)\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    def test_non_bool_special_named(self, capsys, tmp_path, command):
        # it used to make class 1 special, so optimize asked for a QoS target
        path = write_class(tmp_path, 10800, ra_density=50.0, special="no")
        assert main([command, path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: class 1: special must be true or false, got 'no'\n"
        )

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    @pytest.mark.parametrize(
        "total_raos, densities, message",
        [
            (10800, [1.0e308, 1.0e308],
             "scenario: the classes' ra_density sum to inf, past the float range"),
            (10**19, [50.0, 100.0],
             "scenario: total_raos 10000000000000000000 is 2**63 or more, "
             "past the pools the closed form evaluates"),
        ],
        ids=["density-sum", "pool-past-int64"],
    )
    def test_closed_form_past_its_range_exits_2(
        self, capsys, tmp_path, command, mode, total_raos, densities, message
    ):
        # both used to end in a traceback (inf in JSON, an int64 overflow)
        path = write_cell(tmp_path, "full_dedication", total_raos, densities)
        assert main([command, path, *mode]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")

    def test_unknown_field_named(self, capsys, tmp_path):
        data = yaml.safe_load(Path(DC12).read_text())
        data["classes"][0]["color"] = "blue"
        path = tmp_path / "unknown.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        assert "color" in capsys.readouterr().err

    def test_invalid_plan_spec(self, capsys):
        assert main(["analyze", DC12, "--plan", "abc"]) == EXIT_VALIDATION

    def test_repeated_plan_id_named(self, capsys):
        assert main(["analyze", DC12, "--plan", "1=100,1=200,2=300"]) == EXIT_VALIDATION
        assert "--plan: class 1 given more than once" in capsys.readouterr().err

    def test_repeated_topology_id_named(self, capsys, tmp_path):
        # a later entry for the same class used to replace the earlier one
        path = write_cell(tmp_path, "partial_dedication", 10800, [50.0, 100.0, 500.0])
        spec = "1:0-3599;1:9000-9999;2:1800-7199;3:3600-10799"
        assert main(["analyze", path, "--topology", spec]) == EXIT_VALIDATION
        assert "--topology: class 1 given more than once" in capsys.readouterr().err
        merged = "1:0-3599,9000-9999;2:1800-7199;3:3600-10799"
        code, report = run_json(capsys, ["analyze", path, "--topology", merged])
        assert code == EXIT_OK
        assert report["results"]["per_class"]["1"]["raos"] == 4600

    @pytest.mark.parametrize("command", [
        ["analyze"],
        ["simulate", "--arrival-mode", "per_device_bernoulli", "--iterations", "10"],
    ])
    def test_fractional_population_and_group_size_named(self, capsys, tmp_path, command):
        path = write_class(
            tmp_path, 100, population=10.5, group_size=2.5, per_device_rate=0.5
        )
        assert main([command[0], path, *command[1:]]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "class 1: population must be an integer, got 10.5" in err
        assert "class 1: group_size must be an integer, got 2.5" in err

    @pytest.mark.parametrize("value", ["50", [1, 2], True], ids=["str", "list", "bool"])
    @pytest.mark.parametrize(
        "field",
        [
            "ra_density",
            "backoff",
            "population",
            "per_device_rate",
            "group_size",
            "qos.max_collision_rate",
            "qos.max_mean_delay",
        ],
    )
    def test_non_numeric_field_named(self, capsys, tmp_path, field, value):
        record = {"id": 7, "population": 3000, "per_device_rate": 1 / 60, "backoff": 1.0}
        if field.startswith("qos."):
            name = field.removeprefix("qos.")
            record["qos"] = {"kind": name, name: value}
        else:
            record[field] = value
        path = tmp_path / "typo.yaml"
        path.write_text(
            yaml.safe_dump(
                {"total_raos": 100, "strategy": "full_dedication", "classes": [record]}
            )
        )
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        assert f"class 7: {field} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, spelling",
        [("1.0e300", "1.0e+300"), ("5E3", "5.0E+3"), ("2e-3", "2.0e-3"), ("1e+5", "1.0e+5")],
    )
    def test_unsigned_exponent_gets_a_hint(self, capsys, tmp_path, text, spelling):
        # YAML 1.1 reads a float only with a dot and a signed exponent, so
        # PyYAML hands these over as strings
        path = tmp_path / "exponent.yaml"
        path.write_text(
            f"total_raos: 100\nstrategy: full_sharing\nclasses:\n"
            f"  - id: 1\n    ra_density: {text}\n"
        )
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        assert (
            f"class 1: ra_density must be a number, got {text!r}; YAML reads an exponent "
            f"only after a dot and with a sign: write {spelling}"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"total_raos": True, "classes": [{"id": 1, "ra_density": 5.0}]},
             "total_raos must be a positive integer"),
            ({"total_raos": 100, "classes": [{"id": True, "ra_density": 5.0}]},
             "id must be a non-negative integer"),
        ],
        ids=["total_raos", "id"],
    )
    def test_bool_count_or_id_rejected(self, capsys, tmp_path, document, message):
        path = tmp_path / "bool.yaml"
        path.write_text(yaml.safe_dump({"strategy": "full_sharing", **document}))
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_closed_stdout_ends_quietly(self):
        # the reader has gone before the report is written, as with `| true`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_fresh(
                "from rachopt.cli import entry; entry()", "optimize", QOS123, "--json",
                stdout=write_end,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == b""

    def test_commands_import_no_masked_arrays(self):
        # every command's start-up pays for the modules it imports, so the
        # closed form loads neither numpy.ma nor, before any draw, numpy.random
        probe = (
            "import contextlib, io, json, sys\n"
            "from rachopt.cli import main\n"
            "before, added = set(sys.modules), {}\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "    added[argv[0]] = sorted(set(sys.modules) - before)\n"
            "print(json.dumps(added))\n"
        )
        tiny = ["--iterations", "2", "--seed", "1"]
        commands = [
            ["analyze", DC12],
            ["optimize", QOS123],
            ["simulate", DC12, "--measure-delay", *tiny],
            ["compare", DC12, *tiny],
            ["sweep", DC12, "--values", "600,1200", *tiny],
        ]
        proc = run_fresh(probe, json.dumps(commands), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        added = json.loads(proc.stdout)
        for command, modules in added.items():
            assert "numpy.ma" not in modules, command
        # the lists grow command by command, and analyze and optimize run first
        for command in ("analyze", "optimize"):
            assert not [m for m in added[command] if m.startswith("numpy.random")], command

    def test_shipped_scenarios_all_load(self, capsys):
        for name in ("dc1_dc2", "dc1_dc3", "dc1_dc4", "dc123_qos"):
            assert main(["analyze", str(SCENARIOS / f"{name}.yaml")]) == EXIT_OK
            capsys.readouterr()


class TestClassNumbers:
    """Every class number follows one rule: a real but a bool, an integer
    for the two counts, finite and > 0; a bound that no float reservation
    meets is an overload."""

    FIELDS = [
        "ra_density",
        "population",
        "per_device_rate",
        "group_size",
        "backoff",
        "qos.max_collision_rate",
        "qos.max_mean_delay",
    ]
    HOSTILE = [True, "50", 10**400, math.inf, math.nan, 0, -1, 1.0e-320]

    @staticmethod
    def _cell(tmp_path, field, value):
        """One special class holding ``value`` in ``field``, and a normal one."""
        record = {"id": 1, "ra_density": 50.0, "backoff": 1.0, "special": True,
                  "qos": {"kind": "max_collision_rate", "max_collision_rate": 0.02}}
        if field.startswith("qos."):
            name = field.removeprefix("qos.")
            record["qos"] = {"kind": name, name: value}
        elif field in ("population", "per_device_rate", "group_size"):
            del record["ra_density"]
            record.update({"population": 3000, "per_device_rate": 1 / 60, field: value})
        else:
            record[field] = value
        document = {"total_raos": 10800, "strategy": "full_dedication",
                    "classes": [record, {"id": 2, "ra_density": 100.0}]}
        path = tmp_path / "cell.yaml"
        path.write_text(yaml.safe_dump(document))
        return str(path)

    @pytest.mark.parametrize("field", FIELDS)
    def test_hostile_values_exit_with_a_documented_code(self, capsys, tmp_path, field):
        for value in self.HOSTILE:
            path = self._cell(tmp_path, field, value)
            for command in ("analyze", "optimize"):
                code = main([command, path])
                err = capsys.readouterr().err
                assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_OVERLOAD), (command, value)
                assert (code == EXIT_OK) == (err == ""), (command, value, err)
                for line in err.splitlines():
                    assert line.startswith("error: "), (command, value, line)

    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    @pytest.mark.parametrize("field", ["backoff", "qos.max_mean_delay", "population"])
    def test_integer_past_float_range_exits_2(self, capsys, tmp_path, field, command):
        # each used to end in OverflowError: int too large to convert to float
        path = self._cell(tmp_path, field, 10**400)
        assert main([command, path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: class 1: {field} must be finite and > 0\n"

    def test_number_problems_reported_together(self, capsys, tmp_path):
        path = write_class(tmp_path, 100, ra_density=0, backoff=10**400, group_size=2.5)
        assert main(["analyze", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: class 1: ra_density must be finite and > 0\n"
            "error: class 1: group_size must be an integer, got 2.5\n"
            "error: class 1: backoff must be finite and > 0\n"
        )

    @pytest.mark.parametrize("command", [
        ["optimize"], ["compare", "--strategies", "reserve_and_divide"],
    ], ids=["optimize", "compare"])
    @pytest.mark.parametrize("density, rate", [(1.0e300, 1.0e-10), (5.0, 1.0e-320)],
                             ids=["huge-density", "tiny-rate"])
    def test_infinite_reservation_is_an_overload(self, capsys, tmp_path, command, density, rate):
        # math.ceil of the infinite need used to raise OverflowError
        path = write_class(tmp_path, 100, ra_density=density, special=True,
                           qos={"kind": "max_collision_rate", "max_collision_rate": rate})
        assert main([command[0], path, *command[1:]]) == EXIT_OVERLOAD
        assert capsys.readouterr().err == (
            f"error: RACH resource overload: class 1 at {density} Hz needs more RAOs "
            f"than the float range holds to keep its collision rate at {rate}\n"
        )

    @pytest.mark.parametrize("level", ["scenario", "classes[0]"])
    def test_unknown_keys_of_mixed_types_named(self, capsys, tmp_path, level):
        # sorting 2 against 'foo' used to raise TypeError
        record = {"id": 1, "ra_density": 5.0}
        document = {"total_raos": 100, "strategy": "full_sharing", "classes": [record]}
        (document if level == "scenario" else record).update({"foo": 1, 2: 3})
        path = tmp_path / "mixed.yaml"
        path.write_text(yaml.safe_dump(document))
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {level}: unknown fields [2, 'foo']\n"
