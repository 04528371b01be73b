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
from .degree import InvalidQLSPath, degree, degree_table, endpoint_delta, lift
from .qls import (
    EnumerationCap,
    QLSPath,
    enumerate_hat,
    enumerate_tilde,
    path_sort_key,
    path_to_json,
)

SCHEMA_PREFIX = "qbruhat"


class CliError(Exception):
    """Bad input; maps to exit code 2."""


@dataclass(frozen=True)
class CliConfig:
    type: str
    multiplicities: tuple[int, ...]
    parabolic: frozenset[int] | None
    fmt: str
    window: int
    cap: int


def _parse_multiplicities(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad --lambda value {text!r}: {exc}") from exc


def _config(args: argparse.Namespace) -> CliConfig:
    parabolic = None
    if args.parabolic is not None:
        if args.parabolic.strip() == "":
            parabolic = frozenset()
        else:
            try:
                parabolic = frozenset(int(x) for x in args.parabolic.split(","))
            except ValueError as exc:
                raise CliError(f"bad --parabolic value {args.parabolic!r}") from exc
    return CliConfig(
        type=args.type,
        multiplicities=_parse_multiplicities(args.lam),
        parabolic=parabolic,
        fmt=args.format,
        window=args.window,
        cap=args.cap,
    )


def _context(config: CliConfig) -> Context:
    try:
        return build_context(config.type, config.multiplicities, parabolic=config.parabolic)
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
    g = ctx.graph
    dirs = []
    for w in words:
        elt = g.group.parse_word(w)
        rep = ctx.cs.project(elt)
        if rep != elt:
            raise ValueError(f"direction {w!r} is not a minimal coset representative")
        dirs.append(ctx.cs.rep_position[rep])
    times = tuple(Fraction(t.strip()) for t in times_part.split(","))
    return QLSPath(tuple(dirs), times)


def cmd_qbg(config: CliConfig) -> int:
    ctx = _context(config)
    g = ctx.graph
    if config.fmt == "dot":
        sys.stdout.write(g.to_dot(ctx.shape.classical))
        return 0
    if config.fmt != "json":
        raise CliError(f"qbg supports formats dot|json, not {config.fmt!r}")
    values = g.pair_values(ctx.shape.classical)
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
                "pairing": values[e.label],
                "kind": e.kind,
            }
            for e in sorted(g.edges, key=lambda e: (e.source, e.label))
        ],
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_qls(config: CliConfig, variant: str) -> int:
    ctx = _context(config)
    enum = enumerate_hat if variant == "hat" else enumerate_tilde
    paths = sorted(enum(ctx.shape, ctx.graph, cap=config.cap), key=path_sort_key)
    if config.fmt == "csv":
        sys.stdout.write("dirs,times\n")
        for p in paths:
            rec = path_to_json(ctx.graph, p)
            sys.stdout.write(";".join(rec["dirs"]) + "," + ";".join(rec["times"]) + "\n")
        return 0
    if config.fmt != "json":
        raise CliError(f"qls supports formats json|csv, not {config.fmt!r}")
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


def cmd_degree(config: CliConfig, literal: str | None) -> int:
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
        paths = sorted(enumerate_hat(ctx.shape, ctx.graph, cap=config.cap), key=path_sort_key)
        rows = degree_table(ctx.shape, ctx.graph, paths)
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
    if config.fmt != "csv":
        raise CliError(f"degree supports formats csv|json, not {config.fmt!r}")
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


def _verify_one(oracle, shape, graph, path) -> dict:
    try:
        lifted = lift(path, shape, graph)
        deg = degree(path, shape, graph)
        certified = oracle.verify_ls_path(lifted)
        agree = endpoint_delta(lifted) == -deg
        status = "pass" if (certified and agree) else "fail"
        detail = "" if status == "pass" else _failing_pair(oracle, lifted)
    except InconclusiveSearch as exc:
        status, detail = "inconclusive", str(exc)
    rec = path_to_json(graph, path)
    return {"dirs": rec["dirs"], "times": rec["times"], "status": status, "detail": detail}


def cmd_verify(config: CliConfig) -> int:
    ctx = _context(config)
    shape, graph = ctx.shape, ctx.graph
    checks: list[dict] = []

    hat = enumerate_hat(shape, graph, cap=config.cap)
    tilde = enumerate_tilde(shape, graph, cap=config.cap)
    checks.append(
        {
            "check": "strong-equals-weak",
            "status": "pass" if hat == tilde else "fail",
            "detail": f"strong={len(hat)} weak={len(tilde)}",
        }
    )

    try:
        oracle = AffineOracle(shape, graph, window=config.window)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = oracle.covers_to_edges()
    checks.append(
        {
            "check": "covers-match-edges",
            "status": "pass" if report.ok else "fail",
            "detail": f"covers={report.covers_checked} mismatches={len(report.mismatches)}",
        }
    )

    path_reports = [_verify_one(oracle, shape, graph, p) for p in sorted(hat, key=path_sort_key)]

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
    doc = {
        "schema": f"{SCHEMA_PREFIX}/verify/1",
        "type": config.type,
        "lambda": list(config.multiplicities),
        "window": config.window,
        "status": overall,
        "checks": checks,
        "paths": [r for r in path_reports if r["status"] != "pass"],
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if overall == "pass" else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", required=True, help="simple type, e.g. A2")
    common.add_argument("--lambda", dest="lam", required=True, help="comma-separated multiplicities")
    common.add_argument("--parabolic", default=None, help="override parabolic labels, e.g. '2' or ''")
    common.add_argument("--format", default=None, help="output format")
    common.add_argument("--window", type=int, default=10, help="delta window for oracle searches")
    common.add_argument("--cap", type=int, default=10**6, help="enumeration cap")

    parser = argparse.ArgumentParser(prog="qbruhat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("qbg", parents=[common], help="export the graph")
    qls_p = sub.add_parser("qls", parents=[common], help="enumerate paths")
    qls_p.add_argument("--variant", choices=("hat", "tilde"), default="hat")
    deg_p = sub.add_parser("degree", parents=[common], help="degree table")
    deg_p.add_argument("--path", default=None, help="path literal 'w;w|t,t,t'")
    sub.add_parser("verify", parents=[common], help="run the oracle suites")
    return parser


_DEFAULT_FORMATS = {"qbg": "json", "qls": "json", "degree": "csv", "verify": "json"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.format is None:
        args.format = _DEFAULT_FORMATS[args.command]
    try:
        if args.command == "qbg":
            return cmd_qbg(_config(args))
        if args.command == "qls":
            return cmd_qls(_config(args), args.variant)
        if args.command == "degree":
            return cmd_degree(_config(args), args.path)
        return cmd_verify(_config(args))
    except (CliError, EnumerationCap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
