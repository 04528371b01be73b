#!/usr/bin/env python3
"""Run the full verification suites over a batch of shapes and print a summary.

Usage:
    python3 scripts/run_verification.py [--window N]

This is the batch form of ``qbruhat verify`` and runs the same code
(``qbruhat.cli.verify_shape``): strong/weak enumeration agreement,
cover/edge correspondence (exact for every delta), and per-path lift
certification with the endpoint identity.  The window is verify's reporting
rule: a path whose lift reaches ``|delta| > N`` is inconclusive.  A shape is
verified when every check passes; an inconclusive check counts as not
verified.
"""

from __future__ import annotations

import argparse
import sys
import time

from qbruhat import build_context
from qbruhat.cartan import parse_integer
from qbruhat.cli import CliError, run_to_stdout, verify_shape
from qbruhat.qls import DEFAULT_CAP

SHAPES = [
    ("A1", (1,)),
    ("A2", (1, 1)),
    ("A2", (2, 1)),
    ("A2", (1, 0)),
    ("A2", (3, 2)),
    ("C2", (1, 1)),
    ("C2", (2, 0)),
    ("A3", (0, 1, 0)),
    ("A3", (1, 0, 1)),
    ("B3", (0, 0, 1)),
    ("D4", (0, 1, 0, 0)),
    ("F4", (0, 0, 0, 1)),
    ("G2", (1, 0)),
]


def run_shape(name: str, mults: tuple[int, ...], window: int) -> bool:
    t0 = time.monotonic()
    status, checks, _ = verify_shape(build_context(name, mults), window, cap=DEFAULT_CAP)
    elapsed = time.monotonic() - t0
    details = " ".join(f"{c['check']}={c['status']}({c['detail']})" for c in checks)
    good = status == "pass"
    print(
        f"{name} lambda={','.join(map(str, mults))}: {details} [{elapsed:.2f}s]"
        f" -> {'OK' if good else 'PROBLEM'}"
    )
    return good


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--window", default="10")
    args = parser.parse_args()
    try:
        window = parse_integer(args.window)
    except ValueError as exc:  # as `qbruhat verify` refuses it
        print(f"error: bad --window value {args.window!r}: {exc}", file=sys.stderr)
        return 2
    try:
        results = [run_shape(name, mults, window) for name, mults in SHAPES]
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"\n{sum(results)}/{len(results)} shapes fully verified")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(run_to_stdout(main))
