#!/usr/bin/env python3
"""Print the degree table of a shape and its degree histogram.

The rows come from ``degree_rows``: one enumeration walk that carries each
segment's energy, in the canonical path order.  A reader that closes the
output early (``| head``) ends the script with exit 141 and nothing on
stderr, as it ends ``qbruhat``.

Usage:
    python3 scripts/degree_table.py A2 2,1
"""

from __future__ import annotations

import sys
from collections import Counter

from qbruhat import build_context
from qbruhat.cartan import parse_multiplicities
from qbruhat.cli import run_to_stdout
from qbruhat.degree import degree_rows
from qbruhat.qls import EnumerationCap
from qbruhat.weyl import GroupCapExceeded


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        ctx = build_context(sys.argv[1], parse_multiplicities(sys.argv[2]))
        rows = degree_rows(ctx.graph)
    except (ValueError, GroupCapExceeded, EnumerationCap) as exc:  # a bad type or shape, or an exceeded cap
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        dirs = ";".join(row["dirs"])
        times = ",".join(row["times"])
        energies = ",".join(str(x) for x in row["energies"]) or "-"
        print(f"deg={row['deg']:>3}  ({dirs} | {times})  energies: {energies}")
    hist = Counter(row["deg"] for row in rows)
    print(f"\n{len(rows)} paths; degree histogram: {dict(sorted(hist.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(run_to_stdout(main))
