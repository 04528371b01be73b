"""Command-line front end: graph export, path enumeration, degree tables, verification.

Exit codes: 0 success, 1 a failed or inconclusive check or an invalid path
literal, 2 bad input or an exceeded ``--cap``, 141 stdout closed by its
reader (as after SIGPIPE, with nothing on stderr).
All numeric output uses exact fraction strings; identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction

from . import Context, FiniteType, build_context
from .affine_oracle import AffineOracle
from .cartan import parse_multiplicities
from .degree import InvalidQLSPath, _lift, _walk_rows, degree_rows, degree_table, endpoint_delta
from .degree import degree, lift  # noqa: F401  (perfbench/tracing.py wraps them)
from .qls import EnumerationCap, QLSPath, candidate_path, enumerate_tilde, path_listing
from .qls import enumerate_hat  # noqa: F401  (perfbench/tracing.py wraps it)

SCHEMA_PREFIX = "qbruhat"

# the accepted formats of each command, its default first
_FORMATS = {"qbg": ("json", "dot"), "qls": ("json", "csv"), "degree": ("csv", "json"), "verify": ("json",)}


class CliError(Exception):
    """Bad input; maps to exit code 2."""


def _validate(args: argparse.Namespace) -> None:
    """Refuse bad input before any work: the format, then ``--lambda``, then ``--cap``, then the type.

    Writes the defaulted format, the multiplicity tuple and the canonical type
    (``' a2'`` becomes ``A2``) back onto ``args``.
    """
    formats = _FORMATS[args.command]
    if args.format is None:
        args.format = formats[0]
    if args.format not in formats:
        raise CliError(f"{args.command} supports formats {'|'.join(formats)}, not {args.format!r}")
    try:
        args.lam = parse_multiplicities(args.lam)
    except ValueError as exc:
        raise CliError(f"bad --lambda value {args.lam!r}: {exc}") from exc
    if getattr(args, "cap", 0) < 0:
        raise CliError(f"cap must be non-negative, not {args.cap}")
    try:
        args.type = str(FiniteType.parse(args.type))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _context(args: argparse.Namespace) -> Context:
    try:
        return build_context(args.type, args.lam)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _write_doc(args: argparse.Namespace, **fields) -> None:
    """Write one JSON document: the schema, type and lambda header, then ``fields`` in order."""
    doc = {"schema": f"{SCHEMA_PREFIX}/{args.command}/1", "type": args.type, "lambda": list(args.lam)}
    json.dump(doc | fields, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _write_csv(header: str, rows) -> None:
    """Write ``header``, then one line per row: its fields joined by ``,``, each field's strings by ``;``."""
    sys.stdout.write(header + "\n")
    for row in rows:
        sys.stdout.write(",".join(map(";".join, row)) + "\n")


def parse_path_literal(ctx: Context, literal: str) -> QLSPath:
    """Parse 'word;word;word|t,t,t,t' with reduced words and exact fractions."""
    if "|" not in literal:
        raise ValueError("path literal needs a '|' between directions and times")
    dirs_part, times_part = literal.split("|", 1)
    words = [w.strip() for w in dirs_part.split(";")]
    if not words or any(not w for w in words):
        raise ValueError("empty direction in path literal")
    dirs = tuple(ctx.graph.vertex_of_word(w) for w in words)
    times = []
    for text in times_part.split(","):
        try:
            times.append(Fraction(text.strip()))
        except ZeroDivisionError:
            raise ValueError(f"time {text.strip()!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"time {text.strip()!r} is not a fraction") from None
    return QLSPath(dirs, tuple(times))


def cmd_qbg(args: argparse.Namespace) -> int:
    ctx = _context(args)
    g = ctx.graph
    if args.format == "dot":
        sys.stdout.write(g.to_dot())
        return 0
    _write_doc(
        args,
        parabolic=sorted(g.J),
        vertices=[
            {"index": v, "word": g.vertex_name(v), "length": len(g.words[v])} for v in range(g.num_vertices)
        ],
        edges=[
            {
                "source": g.vertex_name(e.source),
                "target": g.vertex_name(e.target),
                "label": g.root_name(e.label),
                "pairing": g.pairings[e.label],
                "kind": e.kind,
            }
            for e in g.edges
        ],
    )
    return 0


def cmd_qls(args: argparse.Namespace) -> int:
    ctx = _context(args)
    _, records = path_listing(ctx.graph, args.variant == "hat", args.cap)
    if args.format == "csv":
        _write_csv("dirs,times", (record[-2:] for record in records))
        return 0
    paths = [{"dirs": dirs, "times": times} for *_, dirs, times in records]
    _write_doc(args, variant=args.variant, count=len(paths), paths=paths)
    return 0


def cmd_degree(args: argparse.Namespace) -> int:
    ctx = _context(args)
    if args.path is not None:
        try:
            path = parse_path_literal(ctx, args.path)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        try:
            rows = degree_table(ctx.shape, ctx.graph, [path])
        except InvalidQLSPath as exc:
            reason = str(exc)
            if exc.time_index is not None:
                # quote the failing time as typed: its Fraction may print digits the literal lacks
                token = args.path.split("|", 1)[1].split(",")[exc.time_index].strip()
                reason = f"{exc.reason} at time {token!r}"
            print(f"invalid path {args.path!r}: {reason}", file=sys.stderr)
            return 1
    else:
        rows = degree_rows(ctx.graph, args.cap)
    if args.format == "json":
        _write_doc(args, rows=rows)
        return 0
    fields = ((r["dirs"], r["times"], map(str, r["energies"]), [str(r["deg"])]) for r in rows)
    _write_csv("dirs,times,energies,deg", fields)
    return 0


def _verify_one(oracle, lifted, deg: int, window: int) -> tuple[str, str]:
    """(status, detail) of a lift of degree ``deg``: inconclusive when it leaves the window, else its certification."""
    need = max(abs(mu.delta) for mu in lifted.weights)
    if need > window:
        return "inconclusive", f"|delta| reaches {need}, outside window {window}; needs window {need}"
    if oracle.verify_ls_path(lifted) and endpoint_delta(lifted) == -deg:
        return "pass", ""
    return "fail", oracle.failure(lifted) or "endpoint mismatch"


def _worst(statuses) -> str:
    """The status a set of statuses reduces to: fail over inconclusive over pass."""
    return min(statuses, key=("fail", "inconclusive", "pass").index, default="pass")


def verify_shape(ctx: Context, window: int, cap: int) -> tuple[str, list[dict], list[dict]]:
    """Run the oracle suites on one shape: (overall status, checks, reports of the paths that did not pass).

    The checks are strong/weak enumeration agreement, the cover/edge
    correspondence (exact for every delta) and per-path lift certification
    with the endpoint identity.  Each strong path is lifted from the energies
    and degree its walk carries (``degree._walk_rows``); the weak variant is
    enumerated after them.  ``window`` is a reporting rule, not a search
    bound: a path whose lift reaches ``|delta| > window`` is not certified but
    reported ``inconclusive``, with the window that settles it.
    """
    if window < 0:
        raise CliError(f"window must be non-negative, not {window}")
    graph = ctx.graph
    oracle = AffineOracle(graph)
    candidates, records = path_listing(graph, True, cap)
    report = oracle.covers_to_edges()
    hat, counts, reports = [], Counter(), []
    for dirs, idx, energies, deg, names, times in _walk_rows(graph, candidates, records):
        hat.append(candidate_path(candidates, dirs, idx))
        status, detail = _verify_one(oracle, _lift(dirs, energies, hat[-1].times), deg, window)
        counts[status] += 1
        if status != "pass":
            reports.append({"dirs": names, "times": times, "status": status, "detail": detail})
    tilde = enumerate_tilde(graph, cap=cap)
    checks = [
        {"check": check, "status": status, "detail": detail}
        for check, status, detail in (
            ("strong-equals-weak", "pass" if tuple(hat) == tilde else "fail", f"strong={len(hat)} weak={len(tilde)}"),
            (
                "covers-match-edges",
                "pass" if report.ok else "fail",
                f"covers={report.covers_checked} mismatches={len(report.mismatches)}",
            ),
            (
                "lift-certification",
                _worst(counts),
                f"paths={len(hat)} fail={counts['fail']} inconclusive={counts['inconclusive']}",
            ),
        )
    ]
    return _worst(c["status"] for c in checks), checks, reports


def cmd_verify(args: argparse.Namespace) -> int:
    overall, checks, failing = verify_shape(_context(args), args.window, args.cap)
    _write_doc(args, window=args.window, status=overall, checks=checks, paths=failing)
    return 0 if overall == "pass" else 1


def _build_parser() -> argparse.ArgumentParser:
    """The ``qbruhat`` parser; each subparser names the ``cmd_*`` that runs it as ``run``.

    To add a subcommand, write one ``cmd_*`` that takes only the parsed
    arguments, add one subparser with ``set_defaults(run=cmd_...)`` and one
    ``_FORMATS`` entry with its default format first.  ``main`` refuses bad
    input (format, ``--lambda``, ``--cap``, type) before any work.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", required=True, help="simple type, e.g. A2")
    common.add_argument("--lambda", dest="lam", required=True, help="comma-separated multiplicities")
    common.add_argument("--format", default=None, help="output format")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=int, default=10**6, help="enumeration cap")

    parser = argparse.ArgumentParser(prog="qbruhat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("qbg", parents=[common], help="export the graph").set_defaults(run=cmd_qbg)
    qls_p = sub.add_parser("qls", parents=[common, capped], help="enumerate paths")
    qls_p.add_argument("--variant", choices=("hat", "tilde"), default="hat")
    qls_p.set_defaults(run=cmd_qls)
    deg_p = sub.add_parser("degree", parents=[common, capped], help="degree table")
    deg_p.add_argument("--path", default=None, help="path literal 'w;w|t,t,t'")
    deg_p.set_defaults(run=cmd_degree)
    ver_p = sub.add_parser("verify", parents=[common, capped], help="run the oracle suites")
    ver_p.add_argument(
        "--window",
        type=int,
        default=10,
        help="largest |delta| a lifted path may reach before its check is inconclusive; "
        "the searches run on delta differences and never read it",
    )
    ver_p.set_defaults(run=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _validate(args)
        code = args.run(args)
        sys.stdout.flush()
    except (CliError, EnumerationCap) as exc:
        advice = "; raise the cap to continue" if isinstance(exc, EnumerationCap) else ""  # the CLI has --cap
        print(f"error: {exc}{advice}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``| head``): send the unflushed rest to devnull so the exit flush cannot
        # fail again, and exit as a process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
