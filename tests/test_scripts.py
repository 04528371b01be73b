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


def run_degree_table(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "degree_table.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "args", [("A2", "2,x"), ("A2", "0,0"), ("Q2", "1,1"), ("A1", "2000000"), ("E6", "1,0,0,0,0,0")]
)
def test_degree_table_bad_input(args):
    # a bad type or shape, more paths than the enumeration cap (A1 at lambda = 2 * 10^6) or a type above the
    # group cap ends in one `error:` line and exit 2, not in a traceback
    proc = run_degree_table(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args,err",
    [
        (("A2", "1_0,1"), "error: '1_0' is not an integer\n"),
        (("A2", "\u0663,1"), "error: '\u0663' is not an integer\n"),
        (("A\u00b2", "1,1"), "error: cannot parse type 'A\u00b2'; expected e.g. 'A2' or 'C2'\n"),
        (("A2", "-1,1"), "error: multiplicities must be nonnegative\n"),
    ],
)
def test_degree_table_integers_in_ascii_digits(args, err):
    # as in `qbruhat --lambda`: ASCII digits with an optional sign, nothing else that int() would read
    proc = run_degree_table(*args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


def test_degree_table_cap_gives_no_advice():
    # the script has no cap to raise, so its refusal states the fact only; `qbruhat` adds the advice (test_cli.py)
    proc = run_degree_table("A1", "2000000")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: more than 1000000 paths\n")
