import csv
import json
import math
import tracemalloc
from pathlib import Path

import pytest
import yaml

from rachopt import simulator
from rachopt.cli import (
    EXIT_OK,
    EXIT_OVERLOAD,
    EXIT_SIMULATION,
    EXIT_VALIDATION,
    SIMULATE_CSV_HEADER,
    main,
)

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
            assert "qos max_mean_delay must be finite" in capsys.readouterr().err

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

        # sweep_dedication calls run through the module, so this covers both
        monkeypatch.setattr(simulator, "run", not_reached)
        out = tmp_path / "missing" / "x.csv"
        assert main(argv + ["--csv", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"error: --csv {out}: " in captured.err
        assert captured.out == ""


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

    def test_backoff_over_memory_limit_exits_before_drawing(self, capsys, tmp_path):
        path = tmp_path / "slow_backoff.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "total_raos": 100,
                    "strategy": "full_dedication",
                    "classes": [{"id": 1, "ra_density": 5.0, "backoff": 1e12}],
                }
            )
        )
        argv = ["simulate", str(path), "--iterations", "1", "--seed", "1", "--measure-delay"]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_SIMULATION
        assert "backoff 1000000000000.0 s" in capsys.readouterr().err
        assert peak < 10 * 2**20

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

    def test_unknown_field_named(self, capsys, tmp_path):
        data = yaml.safe_load(Path(DC12).read_text())
        data["classes"][0]["color"] = "blue"
        path = tmp_path / "unknown.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["analyze", str(path)]) == EXIT_VALIDATION
        assert "color" in capsys.readouterr().err

    def test_invalid_plan_spec(self, capsys):
        assert main(["analyze", DC12, "--plan", "abc"]) == EXIT_VALIDATION

    def test_shipped_scenarios_all_load(self, capsys):
        for name in ("dc1_dc2", "dc1_dc3", "dc1_dc4", "dc123_qos"):
            assert main(["analyze", str(SCENARIOS / f"{name}.yaml")]) == EXIT_OK
            capsys.readouterr()
