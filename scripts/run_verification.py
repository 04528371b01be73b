#!/usr/bin/env python3
"""Run the full verification suites over a batch of shapes and print a summary.

Usage:
    python3 scripts/run_verification.py [--window N]

This is the batch form of ``qbruhat verify``: strong/weak enumeration
agreement, cover/edge correspondence on a delta slice, and per-path lift
certification with the endpoint identity.
"""

from __future__ import annotations

import argparse
import sys
import time

from qbruhat import build_context
from qbruhat.affine_oracle import AffineOracle, InconclusiveSearch
from qbruhat.degree import degree, endpoint_delta, lift
from qbruhat.qls import enumerate_hat, enumerate_tilde

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
]


def run_shape(name: str, mults: tuple[int, ...], window: int) -> bool:
    t0 = time.monotonic()
    ctx = build_context(name, mults)
    shape, g = ctx.shape, ctx.graph
    hat = enumerate_hat(shape, g)
    tilde = enumerate_tilde(shape, g)
    oracle = AffineOracle(shape, g, window=window)
    report = oracle.covers_to_edges()
    fails = 0
    inconclusive = 0
    cache: dict = {}
    for eta in hat:
        try:
            lifted = lift(eta, shape, g, cache=cache)
            ok = oracle.verify_ls_path(lifted)
            ok = ok and endpoint_delta(lifted) == -degree(eta, shape, g, cache=cache)
            fails += 0 if ok else 1
        except InconclusiveSearch:
            inconclusive += 1
    elapsed = time.monotonic() - t0
    good = hat == tilde and report.ok and fails == 0 and inconclusive == 0
    print(
        f"{name} lambda={','.join(map(str, mults))}: paths={len(hat)} "
        f"strong==weak={hat == tilde} cover-mismatches={len(report.mismatches)} "
        f"lift-failures={fails} inconclusive={inconclusive} [{elapsed:.2f}s]"
        f" -> {'OK' if good else 'PROBLEM'}"
    )
    return good


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--window", type=int, default=10)
    args = parser.parse_args()
    results = [run_shape(name, mults, args.window) for name, mults in SHAPES]
    print(f"\n{sum(results)}/{len(results)} shapes fully verified")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
