"""Smoke-run every experiment script in ``scripts/`` at a tiny size, so a
library name the scripts import cannot disappear unnoticed."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# per script: tiny arguments, and whether it writes the CSV named by --csv
ARGS = {
    "optimal_dedication_table.py": (["--iterations", "2"], True),
}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_main_runs(script, tmp_path, monkeypatch):
    args, writes_csv = ARGS[script.name]
    out = tmp_path / "out.csv"
    if writes_csv:
        args = args + ["--csv", str(out)]
    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(ROOT)  # the scripts' default scenario paths are relative
    monkeypatch.setattr(sys, "argv", [script.name, *args])
    assert module.main() == 0
    if writes_csv:
        assert len(out.read_text().splitlines()) > 1
