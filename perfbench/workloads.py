"""The benchmark's workloads: CLI invocations, their quick subsets and pinned fingerprints.

Each workload is a fixed list of ``qbruhat`` CLI invocations on fixed
mathematical shapes.  A pass runs every invocation once; the workload seed
only permutes their order.  ``quick`` lists small shapes of the same
subcommands for the smoke mode.

``PINS`` (from ``pins.json``) holds, per invocation label, the fingerprint its output must reproduce:

* ``vertices`` and ``edges``: |W^J| and the edge count of the shape's graph;
* ``paths``: number of paths (``degree`` rows, or the strong count of ``verify``);
* ``hist_sha256``: sha256 of the degree histogram (``degree`` only);
* ``stdout_sha256``: sha256 of the exact stdout (``qbg`` and ``degree``).

``verify`` output is not pinned byte for byte: its inconclusive counts may
shrink as the oracle improves.  Instead no check may have status ``fail`` and
the strong and weak path counts must agree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


def qbg(type_name: str, lam: str) -> tuple[str, ...]:
    return ("qbg", "--type", type_name, "--lambda", lam, "--format", "json")


def degree(type_name: str, lam: str) -> tuple[str, ...]:
    return ("degree", "--type", type_name, "--lambda", lam, "--format", "csv")


def verify(type_name: str, lam: str, window: int) -> tuple[str, ...]:
    return ("verify", "--type", type_name, "--lambda", lam, "--window", str(window))


def label(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def shape_of(argv: tuple[str, ...]) -> tuple[str, tuple[int, ...]]:
    """The (type, multiplicities) an invocation works on."""
    return argv[argv.index("--type") + 1], tuple(int(x) for x in argv[argv.index("--lambda") + 1].split(","))


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[tuple[str, ...], ...]
    quick: tuple[tuple[str, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        # Minuscule shapes: tiny W^J, so the full group table and the projection
        # of all of W onto W^J are nearly all of the time.  qls, degree and the
        # oracle do no work here.
        Workload(
            "graph-minuscule",
            (
                qbg("A6", "1,0,0,0,0,0"),
                qbg("B5", "0,0,0,0,1"),
                qbg("C5", "1,0,0,0,0"),
                qbg("D5", "0,0,0,0,1"),
                qbg("F4", "1,0,0,0"),
            ),
            (qbg("A4", "1,0,0,0"), qbg("B3", "0,0,1"), qbg("C3", "1,0,0"), qbg("D4", "0,0,0,1"), qbg("G2", "1,0")),
        ),
        # Regular shapes: W^J is all of W, so graph build and JSON output
        # dominate; a change that helps minuscule shapes but slows these shows.
        Workload(
            "graph-regular",
            (qbg("D5", "1,1,1,1,1"), qbg("B4", "1,1,1,1")),
            (qbg("A3", "1,1,1"), qbg("B3", "1,1,1")),
        ),
        # Fraction-heavy degree tables with the segment cache; no oracle.
        Workload(
            "degree-table",
            (degree("D4", "1,1,1,1"), degree("G2", "2,2"), degree("B3", "2,1,1"), degree("A3", "2,2,2")),
            (degree("A2", "2,1"), degree("G2", "1,1"), degree("B2", "1,1")),
        ),
        # The affine oracle: cover/edge correspondence and per-path lift
        # certification, with uncached lift and degree calls per path.
        Workload(
            "verify-oracle",
            (
                verify("A4", "1,1,1,1", 3),
                verify("B3", "1,1,1", 4),
                verify("D4", "0,1,0,0", 6),
                verify("G2", "1,1", 6),
                verify("C2", "1,1", 10),
            ),
            (verify("A2", "1,1", 4), verify("G2", "1,1", 6), verify("C2", "1,1", 10)),
        ),
    )
}

# An invocation that fails today: E6 is above the group cap, and the CLI lets
# GroupCapExceeded escape instead of exiting with code 2.  The smoke mode runs
# it to check that the harness counts the failure and carries on.
KNOWN_FAILING = qbg("E6", "1,0,0,0,0,0")

PINS: dict[str, dict] = json.loads((Path(__file__).parent / "pins.json").read_text())
