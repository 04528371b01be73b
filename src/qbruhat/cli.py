"""Command-line front end: graph export, path enumeration, degree tables, verification.

Exit codes: 0 success, 1 failed check or invalid path literal, 2 bad input
or an exceeded ``--cap``.
All numeric output uses exact fraction strings; identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import Context, build_context
from .affine_oracle import AffineOracle, InconclusiveSearch
from .degree import InvalidQLSPath, SegmentCache, degree, degree_table, endpoint_delta, lift
from .qls import (
    EnumerationCap,
    QLSPath,
    enumerate_hat,
    enumerate_tilde,
    path_to_json,
)

SCHEMA_PREFIX = "qbruhat"

# the accepted formats of each command, its default first
_FORMATS = {"qbg": ("json", "dot"), "qls": ("json", "csv"), "degree": ("csv", "json"), "verify": ("json",)}


class CliError(Exception):
    """Bad input; maps to exit code 2."""


@dataclass(frozen=True)
class CliConfig:
    type: str
    multiplicities: tuple[int, ...]
    fmt: str


def _parse_multiplicities(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad --lambda value {text!r}: {exc}") from exc


def _config(args: argparse.Namespace) -> CliConfig:
    formats = _FORMATS[args.command]
    fmt = formats[0] if args.format is None else args.format
    if fmt not in formats:
        raise CliError(f"{args.command} supports formats {'|'.join(formats)}, not {fmt!r}")
    return CliConfig(type=args.type, multiplicities=_parse_multiplicities(args.lam), fmt=fmt)


def _context(config: CliConfig) -> Context:
    try:
        return build_context(config.type, config.multiplicities)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def parse_path_literal(ctx: Context, literal: str) -> QLSPath:
    """Parse 'word;word;word|t,t,t,t' with reduced words and exact fractions."""
    if "|" not in literal:
        raise ValueError("path literal needs a '|' between directions and times")
    dirs_part, times_part = literal.split("|", 1)
    words = [w.strip() for w in dirs_part.split(";")]
    if not words or any(not w for w in words):
        raise ValueError("empty direction in path literal")
    dirs = tuple(ctx.graph.vertex_of_word(w) for w in words)
    times = tuple(Fraction(t.strip()) for t in times_part.split(","))
    return QLSPath(dirs, times)


def cmd_qbg(config: CliConfig) -> int:
    ctx = _context(config)
    g = ctx.graph
    if config.fmt == "dot":
        sys.stdout.write(g.to_dot())
        return 0
    doc = {
        "schema": f"{SCHEMA_PREFIX}/qbg/1",
        "type": config.type,
        "lambda": list(config.multiplicities),
        "parabolic": sorted(g.J),
        "vertices": [
            {"index": v, "word": g.vertex_name(v), "length": g.group.length(g.rep_id(v))}
            for v in range(g.num_vertices)
        ],
        "edges": [
            {
                "source": g.vertex_name(e.source),
                "target": g.vertex_name(e.target),
                "label": g.root_name(e.label),
                "pairing": g.pairings[e.label],
                "kind": e.kind,
            }
            for e in sorted(g.edges, key=lambda e: (e.source, e.label))
        ],
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_qls(config: CliConfig, variant: str, cap: int) -> int:
    ctx = _context(config)
    enum = enumerate_hat if variant == "hat" else enumerate_tilde
    paths = enum(ctx.graph, cap=cap)
    if config.fmt == "csv":
        sys.stdout.write("dirs,times\n")
        for p in paths:
            rec = path_to_json(ctx.graph, p)
            sys.stdout.write(";".join(rec["dirs"]) + "," + ";".join(rec["times"]) + "\n")
        return 0
    doc = {
        "schema": f"{SCHEMA_PREFIX}/qls/1",
        "type": config.type,
        "lambda": list(config.multiplicities),
        "variant": variant,
        "count": len(paths),
        "paths": [path_to_json(ctx.graph, p) for p in paths],
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_degree(config: CliConfig, literal: str | None, cap: int) -> int:
    ctx = _context(config)
    if literal is not None:
        try:
            path = parse_path_literal(ctx, literal)
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            rows = degree_table(ctx.shape, ctx.graph, [path])
        except InvalidQLSPath as exc:
            print(f"invalid path: {exc}", file=sys.stderr)
            return 1
    else:
        rows = degree_table(ctx.shape, ctx.graph, enumerate_hat(ctx.graph, cap=cap))
    if config.fmt == "json":
        doc = {
            "schema": f"{SCHEMA_PREFIX}/degree/1",
            "type": config.type,
            "lambda": list(config.multiplicities),
            "rows": rows,
        }
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    sys.stdout.write("dirs,times,energies,deg\n")
    for row in rows:
        sys.stdout.write(
            ";".join(row["dirs"])
            + ","
            + ";".join(row["times"])
            + ","
            + ";".join(str(x) for x in row["energies"])
            + ","
            + str(row["deg"])
            + "\n"
        )
    return 0


def _failing_pair(oracle, lifted) -> str:
    for k in range(len(lifted.weights) - 1):
        mu, nu = lifted.weights[k], lifted.weights[k + 1]
        d = oracle.dist(mu, nu)
        if d is None or d < 1:
            return f"weights {k} > {k + 1}: not comparable"
        if not oracle.verify_sigma_chain(mu, nu, lifted.times[k + 1]):
            return f"weights {k} > {k + 1}: no sigma-chain at {lifted.times[k + 1]}"
    return "endpoint mismatch"


def _verify_one(oracle, graph, path, cache: SegmentCache) -> dict:
    try:
        lifted = lift(path, graph, cache)
        deg = degree(path, graph, cache)
        certified = oracle.verify_ls_path(lifted)
        agree = endpoint_delta(lifted) == -deg
        status = "pass" if (certified and agree) else "fail"
        detail = "" if status == "pass" else _failing_pair(oracle, lifted)
    except InconclusiveSearch as exc:
        status, detail = "inconclusive", str(exc)
    rec = path_to_json(graph, path)
    return {"dirs": rec["dirs"], "times": rec["times"], "status": status, "detail": detail}


def verify_shape(ctx: Context, window: int, cap: int) -> tuple[str, list[dict], list[dict]]:
    """Run the oracle suites on one shape: (overall status, checks, reports of the paths that did not pass).

    The checks are strong/weak enumeration agreement, the cover/edge
    correspondence (exact for every delta) and per-path lift certification
    with the endpoint identity inside ``window``.
    """
    graph = ctx.graph
    try:
        oracle = AffineOracle(graph, window=window)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    checks: list[dict] = []

    hat = enumerate_hat(graph, cap=cap)
    tilde = enumerate_tilde(graph, cap=cap)
    checks.append(
        {
            "check": "strong-equals-weak",
            "status": "pass" if hat == tilde else "fail",
            "detail": f"strong={len(hat)} weak={len(tilde)}",
        }
    )

    report = oracle.covers_to_edges()
    checks.append(
        {
            "check": "covers-match-edges",
            "status": "pass" if report.ok else "fail",
            "detail": f"covers={report.covers_checked} mismatches={len(report.mismatches)}",
        }
    )

    cache: SegmentCache = {}
    path_reports = [_verify_one(oracle, graph, p, cache) for p in hat]

    n_fail = sum(1 for r in path_reports if r["status"] == "fail")
    n_inc = sum(1 for r in path_reports if r["status"] == "inconclusive")
    checks.append(
        {
            "check": "lift-certification",
            "status": "fail" if n_fail else ("inconclusive" if n_inc else "pass"),
            "detail": f"paths={len(path_reports)} fail={n_fail} inconclusive={n_inc}",
        }
    )

    overall = "pass"
    if any(c["status"] == "fail" for c in checks):
        overall = "fail"
    elif any(c["status"] == "inconclusive" for c in checks):
        overall = "inconclusive"
    return overall, checks, [r for r in path_reports if r["status"] != "pass"]


def cmd_verify(config: CliConfig, window: int, cap: int) -> int:
    overall, checks, failing = verify_shape(_context(config), window, cap)
    doc = {
        "schema": f"{SCHEMA_PREFIX}/verify/1",
        "type": config.type,
        "lambda": list(config.multiplicities),
        "window": window,
        "status": overall,
        "checks": checks,
        "paths": failing,
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if overall == "pass" else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", required=True, help="simple type, e.g. A2")
    common.add_argument("--lambda", dest="lam", required=True, help="comma-separated multiplicities")
    common.add_argument("--format", default=None, help="output format")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=int, default=10**6, help="enumeration cap")

    parser = argparse.ArgumentParser(prog="qbruhat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("qbg", parents=[common], help="export the graph")
    qls_p = sub.add_parser("qls", parents=[common, capped], help="enumerate paths")
    qls_p.add_argument("--variant", choices=("hat", "tilde"), default="hat")
    deg_p = sub.add_parser("degree", parents=[common, capped], help="degree table")
    deg_p.add_argument("--path", default=None, help="path literal 'w;w|t,t,t'")
    ver_p = sub.add_parser("verify", parents=[common, capped], help="run the oracle suites")
    ver_p.add_argument("--window", type=int, default=10, help="delta window for oracle searches")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _config(args)
        if args.command == "qbg":
            return cmd_qbg(config)
        if args.command == "qls":
            return cmd_qls(config, args.variant, args.cap)
        if args.command == "degree":
            return cmd_degree(config, args.path, args.cap)
        return cmd_verify(config, args.window, args.cap)
    except (CliError, EnumerationCap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
