#!/usr/bin/env python3
"""Print the degree table of a shape, grouped by degree value.

Usage:
    python3 scripts/degree_table.py A2 2,1
"""

from __future__ import annotations

import sys
from collections import Counter

from qbruhat import build_context
from qbruhat.degree import degree_table
from qbruhat.qls import enumerate_hat


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ctx = build_context(sys.argv[1], tuple(int(x) for x in sys.argv[2].split(",")))
    rows = degree_table(ctx.shape, ctx.graph, enumerate_hat(ctx.graph))
    for row in rows:
        dirs = ";".join(row["dirs"])
        times = ",".join(row["times"])
        energies = ",".join(str(x) for x in row["energies"]) or "-"
        print(f"deg={row['deg']:>3}  ({dirs} | {times})  energies: {energies}")
    hist = Counter(row["deg"] for row in rows)
    print(f"\n{len(rows)} paths; degree histogram: {dict(sorted(hist.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
