"""Smoke test: every demo script runs to completion, and every demo
scenario verifies, solves, runs its sensitivity tables and runs as an
ensemble."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ydde.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
SCENARIOS = sorted((ROOT / "demos" / "scenarios").glob("*.json"))


def test_demos_found():
    assert len(DEMOS) >= 6
    assert len(SCENARIOS) >= 9


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_scenario_verifies_and_solves(scenario, tmp_path):
    for command in ("verify", "solve", "sensitivity"):
        assert main([command, "--scenario", str(scenario), "--out",
                     str(tmp_path), "--quiet"]) == EXIT_OK, command
    with open(tmp_path / "diagnostics.json") as f:
        assert json.load(f)["ball_ok"] is True
    assert main(["ensemble", "--scenario", str(scenario), "--seeds", "2",
                 "--workers", "1", "--out", str(tmp_path), "--quiet"]) \
        == EXIT_OK
    with open(tmp_path / "ensemble.csv") as f:
        assert len(f.read().splitlines()) == 3
