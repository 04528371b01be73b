"""The names the benchmark's tracer rebinds exist and are reached by the CLI."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tracer.install patches module globals, so it runs in its own interpreter.
CHILD = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer
tracer = Tracer()
tracer.install()
import qbruhat.cli as cli
codes = []
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "spans": sorted({span[0] for span in tracer.spans})}))
"""

INVOCATIONS = [
    # the degree.table hook reads the paths as args[2]
    ["degree", "--type", "A2", "--lambda", "2,1", "--path", "r2;r2 r1;r1|0,1/2,2/3,1"],
    # the affine_oracle.covers hook reads report.inconclusive
    ["verify", "--type", "A2", "--lambda", "1,1", "--window", "4"],
    ["qls", "--type", "A2", "--lambda", "2,1", "--variant", "tilde"],
    ["qbg", "--type", "A2", "--lambda", "2,1"],
]


def test_tracer_hooks_reached():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), str(ROOT / "perfbench"), json.dumps(INVOCATIONS)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(INVOCATIONS)
    expected = {"degree.table", "affine_oracle.covers", "affine_oracle.certify", "qls.enumerate_tilde", "qbg.sigma_distances"}
    assert expected <= set(result["spans"])
