"""The scripts under ``scripts/``, imported as modules."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("window,verified", [(0, False), (10, True)])
def test_run_verification_shape(capsys, window, verified):
    # at window 0 some lifts are inconclusive, which counts as not verified
    assert load("run_verification").run_shape("A2", (2, 1), window) is verified
    line = capsys.readouterr().out
    assert line.startswith("A2 lambda=2,1: ") and line.rstrip().endswith("OK" if verified else "PROBLEM")


def test_run_verification_negative_window():
    # a bad window is refused the way `qbruhat verify` refuses it, before any enumeration
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_verification.py"), "--window", "-1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: window must be non-negative, not -1\n"
    assert "Traceback" not in proc.stderr
