"""Exact stdout, stderr, exit code and CSV bytes of every command.

``test_golden_reports.py`` pins the report numbers within a tolerance; this
module pins the bytes a user sees: each command's text and ``--json``
reports, the ``simulate`` and ``sweep`` CSV files, and five error exits, all
at tiny sizes with fixed seeds. Floats are compared as printed, so a change
that moves a number by one rounding step, reorders a parameter or renames a
field shows up here. The CSV path is written as ``<csv>`` in the
recordings. A change that is meant to alter the output must say so and
re-record: from the repository root,

    PYTHONPATH=src python tests/test_golden_output.py [CASE ...]

rewrites the files under ``tests/golden_output/`` for every case in
``CASES``, or only the named ones.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from rachopt.cli import main

ROOT = Path(__file__).resolve().parent.parent
RECORDINGS = Path(__file__).resolve().parent / "golden_output"
DC12 = str(ROOT / "scenarios" / "dc1_dc2.yaml")
QOS123 = str(ROOT / "scenarios" / "dc123_qos.yaml")

# small cells written next to the CSV, so that the recordings do not follow
# edits to files kept for other purposes
CELLS = {
    "partial3": """\
total_raos: 10800
strategy: partial_dedication
classes:
  - {id: 1, ra_density: 50.0}
  - {id: 2, ra_density: 100.0}
  - {id: 3, ra_density: 500.0}
""",
    "delay2": """\
total_raos: 1100
strategy: full_dedication
classes:
  - {id: 1, ra_density: 50.0, backoff: 1.0}
  - {id: 2, ra_density: 500.0, backoff: 20.0}
""",
    # a special class listed last: reports and bare --plan counts follow
    # the validated order, special classes first
    "special_last": """\
total_raos: 10800
strategy: full_dedication
classes:
  - {id: 2, ra_density: 100.0}
  - id: 1
    ra_density: 50.0
    special: true
    qos: {kind: max_collision_rate, max_collision_rate: 0.02}
""",
    # a backoff that YAML reads as an int past the float range
    "huge_backoff": f"""\
total_raos: 100
strategy: full_sharing
classes:
  - {{id: 1, ra_density: 5.0, backoff: 1{"0" * 400}}}
""",
}
TOPOLOGY = "1:0-3599;2:1800-7199;3:3600-10799"
SIM = ["--iterations", "3", "--seed", "5"]

# name -> (argv, exit code); "{cell}" names a file of CELLS, "{csv}" the CSV
CASES = {
    "analyze-dc1_dc2": (["analyze", DC12], 0),
    "analyze-dc1_dc2-plan": (["analyze", DC12, "--plan", "1=3000,2=7800"], 0),
    "analyze-dc123_qos": (["analyze", QOS123], 0),
    "analyze-partial3": (["analyze", "{partial3}", "--topology", TOPOLOGY], 0),
    "analyze-special_last": (["analyze", "{special_last}", "--plan", "3000,7800"], 0),
    "optimize-dc123_qos": (["optimize", QOS123], 0),
    "optimize-dc1_dc2-proportional": (["optimize", DC12, "--method", "proportional"], 0),
    "optimize-special_last": (["optimize", "{special_last}"], 0),
    "simulate-dc1_dc2": (["simulate", DC12, *SIM, "--csv", "{csv}"], 0),
    "simulate-delay2": (
        ["simulate", "{delay2}", *SIM, "--measure-delay", "--csv", "{csv}"], 0),
    "simulate-partial3": (["simulate", "{partial3}", *SIM, "--topology", TOPOLOGY], 0),
    "simulate-bernoulli": (
        ["simulate", QOS123, *SIM, "--arrival-mode", "per_device_bernoulli", "--plan",
         "1=900,2=1800,3=8100"], 0),
    "sweep-range": (
        ["sweep", DC12, "--range", "3000:4200", "--step", "600", "--iterations", "2",
         "--seed", "3", "--csv", "{csv}"], 0),
    "sweep-values": (
        ["sweep", DC12, "--values", "600,7200", "--class-index", "1", "--iterations", "2",
         "--seed", "3"], 0),
    "compare-dc123_qos": (
        ["compare", QOS123, "--strategies", "full_sharing,full_dedication,reserve_and_divide",
         "--iterations", "2", "--seed", "1"], 0),
    "error-sweep-no-range": (["sweep", DC12, "--seed", "1"], 2),
    "error-compare-bogus": (["compare", DC12, "--strategies", "bogus"], 2),
    "error-unwritable-csv": (["simulate", DC12, *SIM, "--csv", "{csv}/missing/out.csv"], 2),
    "error-topology-on-dedication": (["analyze", DC12, "--topology", "1:0-99;2:100-199"], 2),
    "error-huge-backoff": (["analyze", "{huge_backoff}"], 2),
}
# every successful case in both output modes
RUNS = [
    (name, mode)
    for name, (_, code) in CASES.items()
    for mode in (("text", "json") if code == 0 else ("text",))
]


def _argv(name: str, mode: str, where: Path) -> tuple[list[str], Path]:
    csv_path = where / "out.csv"
    names = {cell: str(where / f"{cell}.yaml") for cell in CELLS}
    for cell, path in names.items():
        Path(path).write_text(CELLS[cell])
    argv = [arg.format(csv=csv_path, **names) for arg in CASES[name][0]]
    return argv + (["--json"] if mode == "json" else []), csv_path


def _recording(name: str, mode: str, part: str) -> Path:
    return RECORDINGS / f"{name}.{mode}.{part}"


def _capture(name: str, mode: str, where: Path, readouterr) -> tuple[int, dict[str, str]]:
    """The exit code, and the stdout, any stderr and any CSV as text."""
    argv, csv_path = _argv(name, mode, where)
    code = main(argv)
    out, err = readouterr()
    parts = {"stdout": out.replace(str(csv_path), "<csv>")}
    if err:
        parts["stderr"] = err.replace(str(csv_path), "<csv>")
    if csv_path.exists():
        parts["csv"] = csv_path.read_bytes().decode("utf-8")  # keeps the \r\n ends
    return code, parts


@pytest.mark.parametrize("name, mode", RUNS, ids=[f"{n}-{m}" for n, m in RUNS])
def test_output_matches_recording(capsys, tmp_path, name, mode):
    code, parts = _capture(name, mode, tmp_path, lambda: capsys.readouterr())
    assert code == CASES[name][1]
    recorded = {
        path.name.rsplit(".", 1)[1]: path.read_bytes().decode("utf-8")
        for path in RECORDINGS.glob(f"{name}.{mode}.*")
    }
    assert set(parts) == set(recorded)
    for part, text in recorded.items():
        assert parts[part] == text, part


def _record(names: list[str]) -> None:
    RECORDINGS.mkdir(exist_ok=True)
    for name, mode in RUNS:
        if names and name not in names:
            continue
        for path in RECORDINGS.glob(f"{name}.{mode}.*"):
            path.unlink()
        with tempfile.TemporaryDirectory() as where:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, parts = _capture(
                    name, mode, Path(where), lambda: (out.getvalue(), err.getvalue())
                )
        assert code == CASES[name][1], (name, code, err.getvalue())
        for part, text in parts.items():
            _recording(name, mode, part).write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    _record(sys.argv[1:])
