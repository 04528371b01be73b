"""Command-line front end: graph export, path enumeration, degree tables, verification.

Exit codes: 0 success, 1 a failed or inconclusive check or an invalid path
literal, 2 bad input or an exceeded ``--cap``, 141 stdout closed by its
reader (as after SIGPIPE, with nothing on stderr).
Every document, JSON, DOT or CSV, is rendered as lines and written in
blocks by ``_write_lines``, so that 141 holds on an unbuffered stdout too.
``_doc_lines`` lays JSON out as ``json.dumps(..., indent=2)`` would; a
``qls`` or ``degree`` record is rendered from its CSV line (``degree_lines``).
All numeric output uses exact fraction strings; identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache

from . import Context, FiniteType, build_context
from .affine_oracle import AffineOracle
from .cartan import parse_integer, parse_multiplicities
from .degree import TABLE_HEADER, InvalidQLSPath, certify_walk, degree_lines, degree_table, table_line
from .degree import degree, lift  # noqa: F401  (perfbench/tracing.py wraps them)
from .qls import DEFAULT_CAP, EnumerationCap, QLSPath, enumerate_tilde, path_listing
from .qls import enumerate_hat  # noqa: F401  (perfbench/tracing.py wraps it)

SCHEMA_PREFIX = "qbruhat"

# the accepted formats of each command, its default first
_FORMATS = {"qbg": ("json", "dot"), "qls": ("json", "csv"), "degree": ("csv", "json"), "verify": ("json",)}


class CliError(Exception):
    """Bad input; maps to exit code 2."""


def _validate(args: argparse.Namespace) -> None:
    """Refuse bad input before any work: the format, then ``--lambda``, then ``--cap`` and ``--window``, then the type.

    Writes the defaulted format, the multiplicity tuple, the integer flags
    and the canonical type (``' a2'`` becomes ``A2``) back onto ``args``.
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
    for flag in ("cap", "window"):
        if flag in args:
            try:
                setattr(args, flag, parse_integer(getattr(args, flag)))
            except ValueError as exc:
                raise CliError(f"bad --{flag} value {getattr(args, flag)!r}: {exc}") from exc
            if getattr(args, flag) < 0:
                raise CliError(f"{flag} must be non-negative, not {getattr(args, flag)}")
    try:
        args.type = str(FiniteType.parse(args.type))
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _context(args: argparse.Namespace) -> Context:
    try:
        return build_context(args.type, args.lam)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _doc_lines(args: argparse.Namespace, fields: dict, arrays: dict[str, list[str]]) -> list[str]:
    """A JSON document as ``json.dumps(..., indent=2)`` lays it out, as texts for ``_write_lines``.

    The schema, type and lambda open it, then ``fields``, then each of
    ``arrays``: a name and its record texts, each laid out at the depth of
    an array item and ending in ``,``, which the last one loses.
    """
    head = {"schema": f"{SCHEMA_PREFIX}/{args.command}/1", "type": args.type, "lambda": list(args.lam)} | fields
    lines = [json.dumps(head, indent=2)[: -len("\n}")]]
    for name, texts in arrays.items():
        lines[-1] += ","
        lines += [f'  "{name}": [', *texts[:-1], texts[-1][:-1], "  ]"] if texts else [f'  "{name}": []']
    return [*lines, "}"]


# the separators of string and number items in a record's arrays
_STRINGS, _NUMBERS = '",\n        "', ",\n        "


def _record_head(dirs: str, times: str) -> str:
    """A record's text up to its times array, the items of each already joined by ``_STRINGS``."""
    return f'    {{\n      "dirs": [\n        "{dirs}"\n      ],\n      "times": [\n        "{times}"\n      ]'


def _row_texts(lines: list[str]) -> list[str]:
    """The record text of each ``qls`` or ``degree`` CSV line after the header, for ``_doc_lines``.

    A line is ``dirs,times`` or ``dirs,times,energies,deg``, each list's
    items joined by ``;``.  Names and time texts need no JSON escaping.
    The list is consumed: its header is dropped and each line is replaced
    by its record text in place, so each line is freed as its record is
    made; the list itself is returned.
    """
    del lines[0]
    for k, line in enumerate(lines):
        dirs, times, *rest = line.split(",")
        text = _record_head(dirs.replace(";", _STRINGS), times.replace(";", _STRINGS))
        if rest:
            energies, deg = rest
            energies = f"[\n        {energies.replace(';', _NUMBERS)}\n      ]" if energies else "[]"
            text += f',\n      "energies": {energies},\n      "deg": {deg}'
        lines[k] = text + "\n    },"
    return lines


def _report_text(report: dict) -> str:
    """The record text of a ``verify`` report, for ``_doc_lines``: laid out as ``_row_texts`` lays out a record.

    Its names, time texts and status need no JSON escaping; its detail is
    encoded by ``json.dumps``.
    """
    text = _record_head(_STRINGS.join(report["dirs"]), _STRINGS.join(report["times"]))
    return text + f',\n      "status": "{report["status"]}",\n      "detail": {json.dumps(report["detail"])}\n    }},'


# physical lines per write: a few kB, well inside a 64 KiB pipe buffer (a block of DOT lines, about 3 kB, is
# within the 4 KiB that a pipe takes whole or not at all)
_BLOCK_LINES = 64


def _write_lines(lines: list[str]) -> None:
    """Write each text as a line; the caller renders every text before the first write.

    Every document goes out here, a JSON record as one text of several
    lines, in blocks of about ``_BLOCK_LINES`` physical lines, so that a
    reader that closes the pipe early is seen by the next block's write
    even on an unbuffered stdout, where a write the closed pipe cuts short
    returns without an error.  The first block takes ``_BLOCK_LINES``
    texts, and each next one as many as make ``_BLOCK_LINES`` lines at the
    lines per text of the block before: one scan of each block's text, not
    one call per text.
    """
    start, step = 0, _BLOCK_LINES
    while start < len(lines):
        block = "\n".join(lines[start : start + step])
        sys.stdout.write(block + "\n")
        start += step
        step = max(1, step * _BLOCK_LINES // (block.count("\n") + 1))


def parse_path_literal(ctx: Context, literal: str) -> QLSPath:
    """Parse 'word;word;word|t,t,t,t' with reduced words and times n or n/d in ASCII digits, signed or not."""
    if "|" not in literal:
        raise ValueError("path literal needs a '|' between directions and times")
    dirs_part, times_part = literal.split("|", 1)
    words = [w.strip() for w in dirs_part.split(";")]
    if not words or any(not w for w in words):
        raise ValueError("empty direction in path literal")
    dirs = tuple(ctx.graph.vertex_of_word(w) for w in words)
    times = []
    for text in map(str.strip, times_part.split(",")):
        # the form of every time the CLI prints; Fraction() would also read 0.5, 1e0, 1_0 and non-ASCII digits
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
            raise ValueError(f"time {text!r} is not a fraction")
        try:
            times.append(Fraction(text))
        except ZeroDivisionError:
            raise ValueError(f"time {text!r} has a zero denominator") from None
    return QLSPath(dirs, tuple(times))


def cmd_qbg(args: argparse.Namespace) -> int:
    g = _context(args).graph
    if args.format == "dot":
        _write_lines(g.to_dot())
        return 0
    # each vertex name and each label's root name and pairing is encoded once, each record one f-string over them
    names = [json.dumps(g.vertex_name(v)) for v in range(g.num_vertices)]
    labels = {idx: f'"label": {json.dumps(g.root_name(idx))},\n      "pairing": {g.pairings[idx]}' for idx in g.labels}
    vertices = [
        f'    {{\n      "index": {v},\n      "word": {name},\n      "length": {len(word)}\n    }},'
        for v, (name, word) in enumerate(zip(names, g.words))
    ]
    edges = [
        f'    {{\n      "source": {names[e.source]},\n      "target": {names[e.target]},\n'
        f'      {labels[e.label]},\n      "kind": "{e.kind}"\n    }},'
        for e in g.edges
    ]
    _write_lines(_doc_lines(args, {"parabolic": sorted(g.J)}, {"vertices": vertices, "edges": edges}))
    return 0


def cmd_qls(args: argparse.Namespace) -> int:
    ctx = _context(args)
    lines = ["dirs,times"]
    for dirs, times in path_listing(ctx.graph, args.variant == "hat", args.cap).level_texts():
        lines += [f"{d},{t};1" for d, t in zip(dirs, times)]
    if args.format == "json":
        lines = _doc_lines(args, {"variant": args.variant, "count": len(lines) - 1}, {"paths": _row_texts(lines)})
    _write_lines(lines)
    return 0


def cmd_degree(args: argparse.Namespace) -> int:
    ctx = _context(args)
    if args.path is None:
        lines = degree_lines(ctx.graph, args.cap)
    else:
        try:
            path = parse_path_literal(ctx, args.path)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        try:
            lines = [TABLE_HEADER, *map(table_line, degree_table(ctx.shape, ctx.graph, [path]))]
        except InvalidQLSPath as exc:
            reason = str(exc)
            if exc.time_index is not None:
                # quote the failing time as typed: its Fraction may print digits the literal lacks
                token = args.path.split("|", 1)[1].split(",")[exc.time_index].strip()
                reason = f"{exc.reason} at time {token!r}"
            print(f"invalid path {args.path!r}: {reason}", file=sys.stderr)
            return 1
    if args.format == "json":
        lines = _doc_lines(args, {}, {"rows": _row_texts(lines)})
    _write_lines(lines)
    return 0


def _worst(statuses) -> str:
    """The status a set of statuses reduces to: fail over inconclusive over pass."""
    return min(statuses, key=("fail", "inconclusive", "pass").index, default="pass")


def verify_shape(ctx: Context, window: int, cap: int) -> tuple[str, list[dict], list[dict]]:
    """Run the oracle suites on one shape: (overall status, checks, reports of the paths that did not pass).

    The checks are strong/weak enumeration agreement, the cover/edge
    correspondence (exact for every delta) and per-path lift certification
    with the endpoint identity.  The weak variant is enumerated first, then
    ``degree.certify_walk`` certifies the strong paths of one walk and
    compares them with it path by path, and the covers come last.
    ``window`` is a reporting rule, not a search bound: a path whose lift
    reaches ``|delta| > window`` is not certified but reported
    ``inconclusive``, with the window that settles it.
    """
    if window < 0:
        raise CliError(f"window must be non-negative, not {window}")
    graph = ctx.graph
    oracle = AffineOracle(graph)
    tilde = enumerate_tilde(graph, cap=cap)
    same, counts, reports = certify_walk(oracle, graph, window, cap, tilde)
    report = oracle.covers_to_edges()
    strong = counts.total()
    checks = [
        {"check": check, "status": status, "detail": detail}
        for check, status, detail in (
            ("strong-equals-weak", "pass" if same else "fail", f"strong={strong} weak={len(tilde)}"),
            (
                "covers-match-edges",
                "pass" if report.ok else "fail",
                f"covers={report.covers_checked} mismatches={len(report.mismatches)}",
            ),
            (
                "lift-certification",
                _worst(counts),
                f"paths={strong} fail={counts['fail']} inconclusive={counts['inconclusive']}",
            ),
        )
    ]
    return _worst(c["status"] for c in checks), checks, reports


def cmd_verify(args: argparse.Namespace) -> int:
    overall, checks, failing = verify_shape(_context(args), args.window, args.cap)
    # one text per report, so that a reader who closes the pipe is seen by the next block's write
    reports = list(map(_report_text, failing))
    _write_lines(_doc_lines(args, {"window": args.window, "status": overall, "checks": checks}, {"paths": reports}))
    return 0 if overall == "pass" else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``qbruhat`` parser; each subparser names the ``cmd_*`` that runs it as ``run``.

    It is built once per process and serves every ``main`` call, so the
    ``run`` defaults hold the ``cmd_*`` functions bound at the first build;
    a ``cmd_*`` rebound on the module later is not the one that runs.

    To add a subcommand, write one ``cmd_*`` that takes only the parsed
    arguments, add one subparser with ``set_defaults(run=cmd_...)`` and one
    ``_FORMATS`` entry with its default format first.  ``main`` refuses bad
    input (format, ``--lambda``, ``--cap``, ``--window``, type) before any work.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--type", required=True, help="simple type, e.g. A2")
    common.add_argument("--lambda", dest="lam", required=True, help="comma-separated multiplicities")
    common.add_argument("--format", default=None, help="output format")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", default=str(DEFAULT_CAP), help="enumeration cap")

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
        default="10",
        help="largest |delta| a lifted path may reach before its check is inconclusive; "
        "the searches run on delta differences and never read it",
    )
    ver_p.set_defaults(run=cmd_verify)
    return parser


def run_to_stdout(run) -> int:
    """The exit code of ``run()``, with stdout flushed; 141, as after SIGPIPE, if the reader closed stdout.

    ``main`` and ``scripts/degree_table.py`` end here, so that ``| head``
    leaves nothing on stderr.
    """
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # send the unflushed rest to devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    def run() -> int:
        try:
            _validate(args)
            return args.run(args)
        except (CliError, EnumerationCap) as exc:
            advice = "; raise the cap to continue" if isinstance(exc, EnumerationCap) else ""  # the CLI has --cap
            print(f"error: {exc}{advice}", file=sys.stderr)
            return 2

    return run_to_stdout(run)


if __name__ == "__main__":
    sys.exit(main())
