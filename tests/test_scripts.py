"""The scripts under ``scripts/``, imported as modules."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
