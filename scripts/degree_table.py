#!/usr/bin/env python3
"""Print the degree table of a shape and its degree histogram.

The rows are the CSV lines of ``degree_lines``: one enumeration walk
that carries each segment's energy, in the canonical path order.  A reader
that closes the output early (``| head``) ends the script with exit 141 and
nothing on stderr, as it ends ``qbruhat``.

Usage:
    python3 scripts/degree_table.py A2 2,1
"""

from __future__ import annotations

import sys
from collections import Counter

from qbruhat import build_context
from qbruhat.cartan import parse_multiplicities
from qbruhat.cli import run_to_stdout
from qbruhat.degree import degree_lines
from qbruhat.qls import DEFAULT_CAP, EnumerationCap
from qbruhat.weyl import GroupCapExceeded


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        ctx = build_context(sys.argv[1], parse_multiplicities(sys.argv[2]))
        lines = degree_lines(ctx.graph, DEFAULT_CAP)
    except (ValueError, GroupCapExceeded, EnumerationCap) as exc:  # a bad type or shape, or an exceeded cap
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [line.split(",") for line in lines[1:]]
    for dirs, times, energies, deg in rows:
        print(f"deg={deg:>3}  ({dirs} | {times.replace(';', ',')})  energies: {energies.replace(';', ',') or '-'}")
    hist = Counter(int(deg) for *_, deg in rows)
    print(f"\n{len(rows)} paths; degree histogram: {dict(sorted(hist.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(run_to_stdout(main))
