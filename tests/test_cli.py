"""CLI surface: formats, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from conftest import REFERENCE_SHAPES, cached_context, qbg_document

import qbruhat.cli as cli
import qbruhat.degree as degree_mod
import qbruhat.qbg as qbg
import qbruhat.qls as qls
from qbruhat import build_context
from qbruhat.affine_oracle import AffineOracle
from qbruhat.cli import main
from qbruhat.degree import degree, degree_table, endpoint_delta, lift, table_line
from qbruhat.qls import enumerate_hat, enumerate_tilde, path_to_json, sigma_candidates
from test_degree import ROW_SHAPES

ROOT = Path(__file__).resolve().parent.parent
PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text())

# (exit code, sha256 of the exact stdout) of verify runs, keyed by (type, lambda, window): passing runs, and
# runs that report inconclusive paths (12 records on A2 (2,1) at window 1)
VERIFY_STDOUT = {
    ("A2", "2,1", "1"): (1, "01f170206e35aa7151eca89ccb59c108efa9590d61292e0daebac29e2c0414d6"),
    ("A2", "2,1", "10"): (0, "514de7bac833a3214291037c48c6faf8b2002931fe3f3ff57ccdb17705519595"),
    ("A2", "3,2", "0"): (1, "7c67ab8aaea73e22aea734a4ba300960442bc19304c7e5d01f5ecc07f044beec"),
    ("B3", "1,1,1", "4"): (1, "5ef102836973c58af615a45056ff2b09419c0b2e5f6dc5bcec2c63cdd8e7c71e"),
    ("C2", "1,1", "10"): (0, "5691cc50f64f40ce5c8210e0e24e43b2a4af28439a4494544711cac9eaadfe9d"),
}

# sha256 of the exact ``qbg --format dot`` stdout, keyed by (type, lambda), recorded when the graph was written
# as one text
DOT_STDOUT = {
    ("A2", "2,1"): "f570df66e052c9a4273252a748fd8bc3a905968cfcf9b6433097181dd750ab62",
    ("G2", "2,2"): "79fb3ec30759c4e2571a9ec7bee1a45110ebdc46aee8d424bcc14409b76e07d3",
    ("D4", "1,1,1,1"): "95359abd59531e17de8296191d0c9ef2f5efd39375c191c6b11ac2995e43897a",
}


def _document(command: str, name: str, mults: tuple[int, ...], **fields) -> dict:
    """A JSON document as dicts: the header the CLI writes for ``command``, then ``fields`` in order."""
    return {"schema": f"qbruhat/{command}/1", "type": name, "lambda": list(mults)} | fields


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse(message: str):
    """A stand-in that fails the test with ``message`` when it is called."""

    def fail(*args, **kwargs):
        raise AssertionError(message)

    return fail


def max_delta(lifted) -> int:
    return max(abs(mu.delta) for mu in lifted.weights)


def reference_statuses(g, oracle, window: int) -> dict[tuple, tuple[str, str | None]]:
    """Each strong path's (status, detail), keyed by its direction names and time texts, from its own lift.

    A lift that leaves the window is inconclusive; one inside it passes when
    the oracle certifies it and its endpoint delta is minus the path's degree.
    """
    found = {}
    for path in enumerate_hat(g):
        lifted, key = lift(path, g), (tuple(map(g.vertex_name, path.directions)), tuple(map(str, path.times)))
        need = max_delta(lifted)
        if need > window:
            found[key] = ("inconclusive", f"|delta| reaches {need}, outside window {window}; needs window {need}")
        elif oracle.verify_ls_path(lifted) and endpoint_delta(lifted) == -degree(path, g):
            found[key] = ("pass", None)
        else:
            found[key] = ("fail", oracle.failure(lifted) or "endpoint mismatch")
    return found


def changed_weak_search(change: str):
    """``PQBG.sigma_distances_from`` on A2 (2,1) with the weak search of s1 (vertex 1) at the denominator 3 changed.

    It reaches s1 and s2 s1 (vertex 4).  ``change`` drops the last vertex,
    adds the first one it does not reach, at the last one's distance, swaps
    it with the search of s2 (vertex 2), or puts in its place the search of
    s1 at the denominator 2 or that of s1 s2 s1 (vertex 5); "none" keeps it.
    """
    real = qbg.PQBG.sigma_distances_from

    def search(g, y, sigma):
        if change == "none" or sigma.denominator != 3 or y not in (1, 2):
            return real(g, y, sigma)
        if change == "two swapped":
            return real(g, 3 - y, sigma)
        found = dict(real(g, y, sigma))
        last = [*found][-1]
        if y == 2:
            return found
        if change == "last dropped":
            del found[last]
        elif change == "last repeated":
            found[min(set(range(g.num_vertices)) - found.keys())] = found[last]
        elif change == "times moved":
            return real(g, y, Fraction(1, 2))
        elif change == "directions moved":
            return real(g, 5, sigma)
        return found

    return search


class TestQbg:
    def test_a2_json(self, capsys):
        code, out, _ = run(capsys, "qbg", "--type", "A2", "--lambda", "1,1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "qbruhat/qbg/1"
        assert len(doc["vertices"]) == 6
        assert len(doc["edges"]) == 15
        kinds = [e["kind"] for e in doc["edges"]]
        assert kinds.count("bruhat") == 8 and kinds.count("quantum") == 7

    def test_a1(self, capsys):
        code, out, _ = run(capsys, "qbg", "--type", "A1", "--lambda", "1", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and len(doc["vertices"]) == 2 and len(doc["edges"]) == 2

    def test_parabolic(self, capsys):
        code, out, _ = run(capsys, "qbg", "--type", "A2", "--lambda", "1,0", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and len(doc["vertices"]) == 3 and doc["parabolic"] == [2]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "qbg", "--type", "A2", "--lambda", "2,1", "--format", "dot")
        assert code == 0 and out.startswith("digraph") and 'style="dashed"' in out

    @pytest.mark.parametrize("type_name,lam", list(DOT_STDOUT))
    def test_dot_pinned(self, capsys, type_name, lam):
        code, out, err = run(capsys, "qbg", "--type", type_name, "--lambda", lam, "--format", "dot")
        assert (code, err) == (0, "") and hashlib.sha256(out.encode()).hexdigest() == DOT_STDOUT[type_name, lam]

    @REFERENCE_SHAPES
    def test_json_is_the_reference_document(self, capsys, name, mults):
        # the records written as texts print what dumping the document's dicts prints
        lam = ",".join(map(str, mults))
        assert run(capsys, "qbg", "--type", name, "--lambda", lam) == (0, qbg_document(name, mults), "")

    @ROW_SHAPES
    def test_json_on_row_shapes_is_the_reference_document(self, capsys, name, mults):
        # the shapes of the degree and listing comparisons, graphs on a proper parabolic among them
        lam = ",".join(map(str, mults))
        assert run(capsys, "qbg", "--type", name, "--lambda", lam) == (0, qbg_document(name, mults), "")

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_no_segment_search(self, capsys, monkeypatch, fmt):
        # the reach layers, the whole-graph energies, the per-denominator
        # adjacencies and the segment searches are built by segment queries
        # and successor tables, which qbg never makes
        built = []
        real = cli.build_context
        monkeypatch.setattr(cli, "build_context", lambda *args: built.append(real(*args)) or built[-1])
        code, _, _ = run(capsys, "qbg", "--type", "D4", "--lambda", "1,1,1,1", "--format", fmt)
        (ctx,) = built
        g = ctx.graph
        assert code == 0 and g._layers is None and g._energies == {} and g._adjacent == {} and g._segment_cache == {}

    def test_bad_type(self, capsys):
        for type_name in ("Z9", " a", "A 2", "a9"):
            code, out, err = run(capsys, "qbg", "--type", type_name, "--lambda", "1")
            assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["qbg", "qls", "degree", "verify"])
    def test_header_type_canonical(self, capsys, command):
        # the header names the parsed type, so lowercase, padded input prints what "A2" prints
        code, out, err = run(capsys, command, "--type", " a2 ", "--lambda", "1,0", "--format", "json")
        assert (code, out, err) == run(capsys, command, "--type", "A2", "--lambda", "1,0", "--format", "json")
        assert code == 0 and json.loads(out)["type"] == "A2"

    def test_bad_lambda(self, capsys):
        code, _, _ = run(capsys, "qbg", "--type", "A2", "--lambda", "1,x")
        assert code == 2

    @pytest.mark.parametrize(
        "lam,err",
        [
            # int() reads "1_0" as 10 and the Arabic-Indic digit as 3: only ASCII digits name a multiplicity
            ("1_0,1", "error: bad --lambda value '1_0,1': '1_0' is not an integer\n"),
            ("\u0663,1", "error: bad --lambda value '\u0663,1': '\u0663' is not an integer\n"),
            ("1,\u00b2", "error: bad --lambda value '1,\u00b2': '\u00b2' is not an integer\n"),
            ("1,,1", "error: bad --lambda value '1,,1': '' is not an integer\n"),
            # a sign is still read, so a negative multiplicity gets its own message (``--lambda=``: argparse
            # would take a bare -1,1 for an option)
            ("-1,1", "error: multiplicities must be nonnegative\n"),
        ],
    )
    def test_lambda_in_ascii_digits(self, capsys, lam, err):
        assert run(capsys, "qbg", "--type", "A2", f"--lambda={lam}") == (2, "", err)

    def test_lambda_sign_and_whitespace(self, capsys):
        padded = run(capsys, "qbg", "--type", "A2", "--lambda", " +2 ,\t1 ")
        assert padded == run(capsys, "qbg", "--type", "A2", "--lambda", "2,1") and padded[0] == 0

    @pytest.mark.parametrize("type_name", ["A\u00b2", "A\u0663", "A\u00b9\u00b2", "A+2"])
    def test_type_rank_in_ascii_digits(self, capsys, type_name):
        err = f"error: cannot parse type {type_name!r}; expected e.g. 'A2' or 'C2'\n"
        assert run(capsys, "qbg", "--type", type_name, "--lambda", "1,1") == (2, "", err)

    def test_bad_parabolic_override(self, capsys):
        # the graph always lives on the shape's own parabolic set; there is no override
        code, out, err = run(capsys, "qbg", "--type", "A2", "--lambda", "1,1", "--parabolic", "2")
        assert code == 2 and out == "" and "--parabolic" in err


class TestDegree:
    def test_path_literal_worked_example(self, capsys):
        code, out, _ = run(
            capsys,
            "degree", "--type", "A2", "--lambda", "2,1",
            "--path", "r2;r2 r1;r1|0,1/2,2/3,1",
        )
        assert code == 0
        assert out.splitlines()[1].endswith(",-1")

    def test_path_literal_builds_only_its_segments(self, capsys, monkeypatch):
        # one literal reads the segment search of each of its segments, and
        # the whole-graph BFS of those segments' sources, not the reach
        # layers or the search of every source that the tables build
        built = []
        real = cli.build_context
        monkeypatch.setattr(cli, "build_context", lambda *args: built.append(real(*args)) or built[-1])
        literal = "e;s1 s2 s1;s1 s2 s1 s3 s2 s4 s2 s3;s1 s2 s3 s2 s4 s2 s3|0,1/2,2/3,3/4,1"
        code, out, _ = run(capsys, "degree", "--type", "D4", "--lambda", "1,1,1,1", "--path", literal)
        (ctx,) = built
        g = ctx.graph
        assert code == 0 and out.splitlines()[1].endswith(",2;3;0,-2")
        assert g._layers is None and set(g._adjacent) == {2, 3, 4} and len(g._segment_cache) == 3
        assert len(g._search_cache) == 4  # vertex 0, by the connectivity check, and the three sources

    def test_path_literal_straight(self, capsys):
        code, out, _ = run(capsys, "degree", "--type", "A2", "--lambda", "2,1", "--path", "e|0,1")
        assert code == 0
        assert out.splitlines()[1].endswith(",0")

    def test_full_table(self, capsys):
        code, out, _ = run(capsys, "degree", "--type", "A2", "--lambda", "2,1")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 27
        degs = [int(r.rsplit(",", 1)[1]) for r in rows]
        # extremes recorded from the first oracle-certified run
        assert min(degs) == -2 and max(degs) == 0

    def test_unparsable_literal(self, capsys):
        code, _, _ = run(capsys, "degree", "--type", "A2", "--lambda", "2,1", "--path", "no pipe here")
        assert code == 2

    def test_zero_denominator_literal(self, capsys):
        code, out, err = run(capsys, "degree", "--type", "A2", "--lambda", "2,1", "--path", "e|0,1/0,1")
        assert code == 2 and out == "" and err == "error: time '1/0' has a zero denominator\n"

    @pytest.mark.parametrize("time_text", ["x", "nan", "", "١", "1_0/1_0", "0.0", "1e0"])
    def test_unparsable_time_literal(self, capsys, time_text):
        # worded like the zero denominator, with no message of the Fraction parser
        literal = f"e;s1|0,1/2,{time_text}"
        code, out, err = run(capsys, "degree", "--type", "A2", "--lambda", "2,1", "--path", literal)
        assert code == 2 and out == "" and err == f"error: time {time_text!r} is not a fraction\n"

    def test_invalid_path(self, capsys):
        code, _, _ = run(
            capsys, "degree", "--type", "A2", "--lambda", "2,1", "--path", "e;s1 s2 s1|0,1/5,1"
        )
        assert code == 1

    @pytest.mark.parametrize(
        "literal,reason",
        [
            ("e;s1 s2 s1|0,1/5,1", "no admissible shortest path from s1 s2 s1 to e at time '1/5'"),
            ("e;s1|0,1/2,1/2,1", "structurally invalid"),
            ("e|0,6/3", "structurally invalid"),
            ("e;s2|0,1/3,1", "no admissible shortest path from s2 to e at time '1/3'"),
            ("e;s2|0,+1/3,1", "no admissible shortest path from s2 to e at time '+1/3'"),
            ("e;s2|0,2/6,1", "no admissible shortest path from s2 to e at time '2/6'"),
        ],
    )
    def test_invalid_path_message(self, capsys, literal, reason):
        # one line that quotes the literal, names directions by their words
        # and prints no number the literal does not contain
        code, out, err = run(capsys, "degree", "--type", "A2", "--lambda", "2,1", "--path", literal)
        assert code == 1 and out == ""
        assert err == f"invalid path {literal!r}: {reason}\n"
        assert "QLSPath(" not in err and "Fraction(" not in err
        assert set(re.findall(r"\d+", err)) <= set(re.findall(r"\d+", literal))

    @pytest.mark.parametrize("token", ["s\u00b2", "r\u0661", "\u00b9", "s1_0"])
    def test_generator_in_ascii_digits(self, capsys, token):
        code, out, err = run(capsys, "degree", "--type", "A2", "--lambda", "2,1", "--path", f"{token}|0,1")
        assert (code, out, err) == (2, "", f"error: bad generator token {token!r}\n")

    @ROW_SHAPES
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_written_as_degree_table(self, capsys, name, mults, fmt):
        # the walk's rows, each schedule's texts made once, print degree_table's records of the enumerated
        # paths: as table_line writes them, or as json.dumps lays out the document that holds them
        g = cached_context(name, mults).graph
        table = degree_table(g.shape, g, enumerate_hat(g))
        if fmt == "csv":
            expected = "\n".join(["dirs,times,energies,deg", *map(table_line, table)]) + "\n"
        else:
            expected = json.dumps(_document("degree", name, mults, rows=table), indent=2) + "\n"
        lam = ",".join(map(str, mults))
        assert run(capsys, "degree", "--type", name, "--lambda", lam, "--format", fmt) == (0, expected, "")

    @pytest.mark.parametrize("literal", ["e|0,1", "e;s1 s2 s1;s1 s2|0,1/3,1/2,1"])
    def test_path_json_written_as_degree_table(self, capsys, a2_21, literal):
        # a literal's row reaches the JSON document through its CSV line: the document is byte for byte what
        # json.dumps prints for degree_table's record, with no energies (one direction) or with two
        g = a2_21.graph
        table = degree_table(g.shape, g, [cli.parse_path_literal(a2_21, literal)])
        assert len(table[0]["energies"]) == literal.count(";")
        expected = json.dumps(_document("degree", "A2", (2, 1), rows=table), indent=2) + "\n"
        argv = ("degree", "--type", "A2", "--lambda", "2,1", "--path", literal, "--format", "json")
        assert run(capsys, *argv) == (0, expected, "")

    def test_non_rep_direction(self, capsys):
        code, _, _ = run(
            capsys, "degree", "--type", "A2", "--lambda", "1,0", "--path", "s2|0,1"
        )
        assert code == 2

    @pytest.mark.parametrize("word", ["s1 s1", "s2 s1 s2 s1 s2 s1 s2", "e s1 e s1"])
    def test_non_reduced_direction(self, capsys, word):
        # "s1 s1" is the identity, but it is not a reduced word for it
        code, out, err = run(capsys, "degree", "--type", "A2", "--lambda", "2,1", "--path", f"{word}|0,1")
        assert code == 2 and out == "" and err == f"error: direction {word!r} is not a reduced word\n"

    def test_rejects_unknown_format(self, capsys):
        code, _, _ = run(capsys, "degree", "--type", "A2", "--lambda", "2,1", "--format", "dot")
        assert code == 2

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "degree", "--type", "A2", "--lambda", "2,1",
            "--path", "e;s1 s2 s1;s1 s2|0,1/3,1/2,1", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["rows"][0]["deg"] == -2
        assert doc["rows"][0]["energies"] == [3, 0]


class TestQls:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "qls", "--type", "A2", "--lambda", "2,1")
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 27 and len(doc["paths"]) == 27

    def test_variants_agree(self, capsys):
        _, hat_out, _ = run(capsys, "qls", "--type", "C2", "--lambda", "1,1", "--variant", "hat")
        _, tilde_out, _ = run(capsys, "qls", "--type", "C2", "--lambda", "1,1", "--variant", "tilde")
        hat, tilde = json.loads(hat_out), json.loads(tilde_out)
        assert hat["paths"] == tilde["paths"]

    @ROW_SHAPES
    @pytest.mark.parametrize("variant", ["hat", "tilde"])
    def test_listing_is_the_paths_json(self, capsys, name, mults, variant):
        # the texts carried level by level are the path_to_json texts of the enumerated paths, in order: the
        # CSV joins each record's strings, and the JSON document is byte for byte json.dumps of the records
        g = cached_context(name, mults).graph
        records = [path_to_json(g, path) for path in {"hat": enumerate_hat, "tilde": enumerate_tilde}[variant](g)]
        argv = ("qls", "--type", name, "--lambda", ",".join(map(str, mults)), "--variant", variant, "--format")
        code, out, err = run(capsys, *argv, "csv")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["dirs,times", *[f"{';'.join(r['dirs'])},{';'.join(r['times'])}" for r in records]]
        doc = _document("qls", name, mults, variant=variant, count=len(records), paths=records)
        assert run(capsys, *argv, "json") == (0, json.dumps(doc, indent=2) + "\n", "")

    @ROW_SHAPES
    def test_strong_csv_is_the_degree_csv_cut(self, capsys, name, mults):
        # both tables carry each row's direction and time texts from its parent row and add the times' closing
        # ";1" as they write the line: the strong listing's CSV is the first two fields of the degree CSV, line
        # for line, header included
        lam = ",".join(map(str, mults))
        code, table, err = run(capsys, "degree", "--type", name, "--lambda", lam, "--format", "csv")
        assert (code, err) == (0, "")
        expected = [",".join(line.split(",")[:2]) for line in table.splitlines()]
        code, listing, err = run(capsys, "qls", "--type", name, "--lambda", lam, "--variant", "hat", "--format", "csv")
        assert (code, err) == (0, "") and listing.splitlines() == expected


class TestVerify:
    def test_a1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "A1", "--lambda", "1")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "pass"

    def test_a2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "A2", "--lambda", "2,1", "--window", "10")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "pass"
        assert all(c["status"] == "pass" for c in doc["checks"])

    @pytest.mark.parametrize("window,reported", [("10", 0), ("1", 12)])
    def test_document_is_the_stdlib_layout(self, capsys, window, reported):
        # the reports, each written as its own text, lay the document out as json.dumps does, and a run with
        # nothing to report writes an empty array
        code, out, err = run(capsys, "verify", "--type", "A2", "--lambda", "2,1", "--window", window)
        doc = json.loads(out)
        assert (code, err) == (1 if reported else 0, "") and out == json.dumps(doc, indent=2) + "\n"
        assert len(doc["paths"]) == reported and ('"paths": []' in out) == (not reported)

    @pytest.mark.parametrize(
        "dirs,times,status,detail",
        [
            (["e"], ["0", "1"], "fail", "endpoint mismatch"),
            (["s1 s2", "s2"], ["0", "1/2", "1"], "inconclusive", 'a "quoted" \\ back\\slash, a tab\t and \u00e9'),
        ],
        ids=["plain", "escaped"],
    )
    def test_report_text_is_the_stdlib_layout(self, dirs, times, status, detail):
        # a report's text is its json.dumps(indent=2) layout at the depth of an array item; the detail, the one
        # field that may hold a quote or a backslash, is escaped exactly as json.dumps escapes it
        report = {"dirs": dirs, "times": times, "status": status, "detail": detail}
        assert cli._report_text(report) == "    " + json.dumps(report, indent=2).replace("\n", "\n    ") + ","

    def test_c2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "C2", "--lambda", "1,1", "--window", "10")
        assert code == 0 and json.loads(out)["status"] == "pass"

    def test_segments_computed_once(self, capsys, monkeypatch):
        # the strong and weak walks read the searches the graph memoises per
        # source and denominator of sigma, so each is built once, and one is
        # built for every source and every candidate's denominator
        built = []
        stored = Counter()
        real = cli.build_context

        class Entries(dict):
            def __setitem__(self, key, entry):
                stored[key] += 1
                super().__setitem__(key, entry)

        def recording(*args, **kwargs):
            built.append(real(*args, **kwargs))
            built[-1].graph._segment_cache = Entries(built[-1].graph._segment_cache)
            return built[-1]

        monkeypatch.setattr(cli, "build_context", recording)
        code, _, _ = run(capsys, "verify", "--type", "A2", "--lambda", "2,1")
        (ctx,) = built
        g = ctx.graph
        denominators = {sigma.denominator for sigma in sigma_candidates(g)}
        assert code == 0 and set(stored.values()) == {1}
        assert set(g._segment_cache) == {(y, q) for y in range(g.num_vertices) for q in denominators}

    @pytest.mark.parametrize("window,reported", [("10", 0), ("1", 12)])
    def test_records_only_for_reported_paths(self, capsys, monkeypatch, window, reported):
        # a reported path's record is the listing's own direction names and
        # time texts, so no path is formatted a second time; only a reported
        # row is read back through its parent rows, and the endpoint identity
        # is carried in the walk's columns, so a lift's endpoint is recomputed
        # only for a failing row; every path of A2 (2,1) passes at window 10,
        # and 12 of its 27 are inconclusive at window 1
        calls = Counter()

        def counting(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)

            return wrapper

        for module in (qls, degree_mod):
            monkeypatch.setattr(module, "path_to_json", counting(module.path_to_json))
        monkeypatch.setattr(degree_mod, "_endpoint_of", counting(degree_mod._endpoint_of))
        monkeypatch.setattr(qls.Listing, "row", counting(qls.Listing.row))
        _, out, _ = run(capsys, "verify", "--type", "A2", "--lambda", "2,1", "--window", window)
        doc = json.loads(out)
        assert calls["path_to_json"] == calls["_endpoint_of"] == 0
        assert len(doc["paths"]) == calls["row"] == reported
        assert doc["checks"][-1]["detail"] == f"paths=27 fail=0 inconclusive={reported}"

    @pytest.mark.parametrize("name,mults,window", [("G2", (2, 2), "100"), ("A2", (2, 1), "1")])
    def test_times_made_once_per_index_tuple(self, capsys, monkeypatch, name, mults, window):
        # a path's times are made only for the lift of a failing row, not per path, schedule or index tuple: on
        # G2 (2,2) its 11,025 paths have 7,461 schedules and 4,084 index tuples and all pass; A2 (2,1) at window 1
        # reports 12 inconclusive paths, whose time texts are the listing's own
        g = cached_context(name, mults).graph
        levels = [level for _, level in qls.path_listing(g, True, qls.DEFAULT_CAP).level_records()]
        indices = sum(len({s[0::2] for s in level}) for level in levels)
        schedules = sum(len(set(level)) for level in levels)
        made = []
        real = degree_mod.candidate_times
        monkeypatch.setattr(degree_mod, "candidate_times", lambda *args: made.append(args[1]) or real(*args))
        lam = ",".join(map(str, mults))
        code, out, _ = run(capsys, "verify", "--type", name, "--lambda", lam, "--window", window)
        assert code == {"100": 0, "1": 1}[window] and json.loads(out)["checks"][0]["status"] == "pass"
        assert made == [] and indices < schedules
        if name == "G2":
            assert (indices, schedules) == (4084, 7461)

    @pytest.mark.parametrize("window,reported", [("10", 0), ("1", 12)])
    def test_texts_built_only_for_reported_paths(self, capsys, monkeypatch, window, reported):
        # the walk's records carry indices; a path's direction names and time texts are looked up only
        # when it is reported, and they are the texts of its record
        calls = []
        real = qls.Listing.path_texts

        def recording(listing, dirs, idx):
            calls.append(real(listing, dirs, idx))
            return calls[-1]

        monkeypatch.setattr(qls.Listing, "path_texts", recording)
        _, out, _ = run(capsys, "verify", "--type", "A2", "--lambda", "2,1", "--window", window)
        paths = json.loads(out)["paths"]
        assert len(paths) == len(calls) == reported
        assert [(r["dirs"], r["times"]) for r in paths] == [(list(d), list(t)) for d, t in calls]

    def test_window_guard(self, capsys, monkeypatch):
        # a lift that leaves the window is reported inconclusive with the window that settles it, and none of its
        # segments is judged: 12 of the 27 paths of A2 (2,1) leave window 1, and the oracle judges exactly the
        # segments of the other 15, each keyed (x_k, x_{k+1}, delta gap, denominator of sigma)
        g = cached_context("A2", (2, 1)).graph
        inside = [lifted for lifted in map(partial(lift, g=g), enumerate_hat(g)) if max_delta(lifted) <= 1]
        segments = {
            (v, w, b - a, sigma.denominator)
            for lifted in inside
            for (v, a), (w, b), sigma in zip(lifted.weights, lifted.weights[1:], lifted.times[1:])
        }
        judged = []
        real = cli.AffineOracle.verdict

        def recording(oracle, *key):
            judged.append(key)
            return real(oracle, *key)

        monkeypatch.setattr(cli.AffineOracle, "verdict", recording)
        code, out, _ = run(capsys, "verify", "--type", "A2", "--lambda", "2,1", "--window", "1")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "inconclusive"
        assert len(doc["paths"]) == 12 and len(inside) == 15 and set(judged) == segments
        for record in doc["paths"]:
            match = re.fullmatch(r"\|delta\| reaches (\d+), outside window 1; needs window \1", record["detail"])
            assert record["status"] == "inconclusive" and match and int(match[1]) > 1

    def test_negative_window_rejected(self, capsys, monkeypatch, a2_21):
        # refused by verify_shape itself, which scripts call directly, before any enumeration
        def fail(*args, **kwargs):
            raise AssertionError("enumerated under a negative window")

        for name in ("enumerate_hat", "enumerate_tilde", "path_listing"):
            monkeypatch.setattr(cli, name, fail)
        for name in ("path_listing", "_walk_rows"):
            monkeypatch.setattr(degree_mod, name, fail)
        with pytest.raises(cli.CliError, match="^window must be non-negative, not -1$"):
            cli.verify_shape(a2_21, -1, cap=10**6)
        code, out, err = run(capsys, "verify", "--type", "A2", "--lambda", "2,1", "--window", "-1")
        assert (code, out, err) == (2, "", "error: window must be non-negative, not -1\n")

    @pytest.mark.parametrize("shape", sorted(VERIFY_STDOUT))
    def test_stdout_pinned(self, capsys, shape):
        type_name, lam, window = shape
        code, out, err = run(capsys, "verify", "--type", type_name, "--lambda", lam, "--window", window)
        assert (code, sha256(out), err) == (*VERIFY_STDOUT[shape], "")

    @pytest.mark.parametrize(
        "shape",
        [
            ("A2", "2,1", "1"),
            ("A2", "2,1", "10"),
            ("C2", "1,1", "10"),
            ("A2", "2,1", "0"),
            ("C2", "1,1", "1"),
            ("G2", "2,2", "2"),
            ("G2", "2,2", "100"),
            ("B3", "1,1,1", "1"),
            ("B3", "1,1,1", "4"),
            ("A4", "1,1,1,1", "3"),
            ("A4", "1,1,1,1", "100"),
        ],
    )
    def test_lifts_the_walks_energies(self, capsys, monkeypatch, shape):
        # the statuses read off the walk's columns are those of the per-path reference, each strong path lifted
        # on its own and checked against the window, the oracle and the endpoint identity; verify derives no
        # segments per path, and its output stays pinned where it is
        type_name, lam, window = shape
        g = cached_context(type_name, tuple(map(int, lam.split(",")))).graph
        expected = reference_statuses(g, AffineOracle(g), int(window))
        monkeypatch.setattr(degree_mod, "_segments", refuse("segments derived for one path"))
        code, out, err = run(capsys, "verify", "--type", type_name, "--lambda", lam, "--window", window)
        doc = json.loads(out)
        assert {(tuple(r["dirs"]), tuple(r["times"])): (r["status"], r["detail"]) for r in doc["paths"]} == {
            key: found for key, found in expected.items() if found[0] != "pass"
        }
        statuses = Counter(status for status, _ in expected.values())
        assert doc["checks"][-1]["detail"] == (
            f"paths={len(expected)} fail={statuses['fail']} inconclusive={statuses['inconclusive']}"
        )
        if shape in VERIFY_STDOUT:
            assert (code, sha256(out), err) == (*VERIFY_STDOUT[shape], "")

    @pytest.mark.parametrize("name,mults,window", [("A2", (2, 1), 1), ("G2", (2, 2), 2), ("B3", (1, 1, 1), 4)])
    def test_failing_lifts_are_the_per_path_reference(self, monkeypatch, name, mults, window):
        # with no sigma-chain at any denominator above 1, every lift of two or more directions inside the window
        # fails: each report's status and detail, the first failing pair named by oracle.failure, are those of
        # the per-path reference on the same oracle
        real = AffineOracle._sigma_chain
        monkeypatch.setattr(AffineOracle, "_sigma_chain", lambda oracle, v, w, d, q: q == 1 and real(oracle, v, w, d, q))
        ctx = cached_context(name, mults)
        expected = reference_statuses(ctx.graph, AffineOracle(ctx.graph), window)
        _, _, reports = cli.verify_shape(ctx, window, cap=10**6)
        assert {(tuple(r["dirs"]), tuple(r["times"])): (r["status"], r["detail"]) for r in reports} == {
            key: found for key, found in expected.items() if found[0] != "pass"
        }
        assert sum(r["status"] == "fail" for r in reports) > 0

    def test_never_lists_or_lifts_a_passing_path(self, capsys, monkeypatch):
        # verify lists no weak path, builds no QLSPath and hands no lift to verify_ls_path
        for owner, name in [(cli, "enumerate_tilde"), (qls, "enumerate_tilde"), (qls.Listing, "paths")]:
            monkeypatch.setattr(owner, name, refuse(f"{name} called"))
        monkeypatch.setattr(cli.AffineOracle, "verify_ls_path", refuse("verify_ls_path called"))
        code, out, err = run(capsys, "verify", "--type", "A2", "--lambda", "2,1", "--window", "10")
        assert (code, sha256(out), err) == (*VERIFY_STDOUT[("A2", "2,1", "10")], "")

    @pytest.mark.parametrize(
        "change", ["none", "last dropped", "last repeated", "two swapped", "times moved", "directions moved"]
    )
    def test_weak_listing_compared_path_by_path(self, capsys, monkeypatch, change):
        # the variants are compared on their searches: a weak search of A2 (2,1) changed at the denominator 3,
        # that of s1 (vertex 1) or of s1 and s2, fails the check, and the detail counts the paths that the weak
        # walk of the changed searches lists; with s1's search at the denominator 2 in its place that count is
        # 27 again, but the paths differ and the check fails all the same
        monkeypatch.setattr(qbg.PQBG, "sigma_distances_from", changed_weak_search(change))
        g = build_context("A2", (2, 1)).graph
        if change != "none":
            assert g.sigma_distances_from(1, Fraction(1, 3)).keys() != g.segment_energies(1, Fraction(1, 3)).keys()
        weak = len(enumerate_tilde(g))
        assert (weak == 27) == (change in ("none", "times moved"))
        code, out, _ = run(capsys, "verify", "--type", "A2", "--lambda", "2,1", "--window", "10")
        assert json.loads(out)["checks"][0] == {
            "check": "strong-equals-weak",
            "status": "pass" if change == "none" else "fail",
            "detail": f"strong=27 weak={weak}",
        }
        assert code == (0 if change == "none" else 1)

    @pytest.mark.parametrize("change", ["none", "last repeated"])
    def test_cap_on_the_weak_count(self, capsys, monkeypatch, change):
        # a cap one below the count is refused with exit 2 and the single line of an exceeded cap, and so is a
        # weak count above the cap when the strong walk keeps within it
        monkeypatch.setattr(qbg.PQBG, "sigma_distances_from", changed_weak_search(change))
        argv = ("verify", "--type", "A2", "--lambda", "2,1", "--window", "10", "--cap")
        cap = 26 if change == "none" else 27
        assert run(capsys, *argv, str(cap)) == (2, "", f"error: more than {cap} paths; raise the cap to continue\n")
        assert run(capsys, *argv, "27")[0] == (0 if change == "none" else 2)

    def test_window_monotone(self, a2_21):
        # a larger window only settles more paths: each inconclusive path at the larger window is
        # inconclusive at the smaller one, and each path that passes at the smaller one passes at the larger
        def reported(window):
            _, _, reports = cli.verify_shape(a2_21, window, cap=10**6)
            return {(tuple(r["dirs"]), tuple(r["times"])): r["status"] for r in reports}

        runs = [reported(window) for window in (0, 1, 2, 3, 4, 10)]
        assert [len(r) for r in runs][:2] == [12, 12] and runs[-1] == {}
        for small, large in zip(runs, runs[1:]):
            assert set(large.values()) <= {"inconclusive"} and large.keys() <= small.keys()

    def test_inconclusive_names_settling_window(self, capsys):
        # the lift of e;s1;s1 s2|0,1/3,1/2,1 on A2 (3,2) has delta-coefficients 0, 3, 5: its record names 5,
        # the largest, and that window settles it
        def detail(window):
            _, out, _ = run(capsys, "verify", "--type", "A2", "--lambda", "3,2", "--window", str(window))
            path = {"dirs": ["e", "s1", "s1 s2"], "times": ["0", "1/3", "1/2", "1"]}
            return {r["detail"] for r in json.loads(out)["paths"] if r.items() >= path.items()}

        (at_zero,) = detail(0)
        assert at_zero.endswith("needs window 5")
        assert detail(5) == set()

    @pytest.mark.parametrize("window,code,status,inconclusive", [("3", 1, "inconclusive", 422), ("100", 0, "pass", 0)])
    def test_readme_window_figures(self, capsys, window, code, status, inconclusive):
        # the figures the README quotes for A4 (1,1,1,1): window 3 leaves 422 of 2,500 paths inconclusive,
        # window 100 none
        result = run(capsys, "verify", "--type", "A4", "--lambda", "1,1,1,1", "--window", window)
        assert result[0] == code
        assert json.loads(result[1])["checks"][-1] == {
            "check": "lift-certification",
            "status": status,
            "detail": f"paths=2500 fail=0 inconclusive={inconclusive}",
        }

    def test_fail_over_inconclusive_in_a_check(self, capsys, monkeypatch):
        # one wrong endpoint identity fails lift-certification over its inconclusive paths, and the failed check
        # fails the run: the degrees of the walk's first level, the six one-direction paths (x; 0, 1) of A2 (2,1),
        # made one less than their endpoints allow, fail all six, and the 12 of its 27 paths that leave window 1
        # stay inconclusive
        real = degree_mod._level_degrees
        seen = []

        def wrong_first(*args):
            seen.append(args)
            return [deg - (len(seen) == 1) for deg in real(*args)]

        monkeypatch.setattr(degree_mod, "_level_degrees", wrong_first)
        code, out, _ = run(capsys, "verify", "--type", "A2", "--lambda", "2,1", "--window", "1")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "fail"
        assert doc["checks"][-1] == {
            "check": "lift-certification",
            "status": "fail",
            "detail": "paths=27 fail=6 inconclusive=12",
        }
        failed = [r for r in doc["paths"] if r["status"] == "fail"]
        assert [r["detail"] for r in failed] == ["endpoint mismatch"] * 6
        assert all(len(r["dirs"]) == 1 and r["times"] == ["0", "1"] for r in failed)
        # fail and inconclusive reports alike are laid out as json.dumps lays them out
        assert len(doc["paths"]) == 18 and out == json.dumps(doc, indent=2) + "\n"

    def test_fail_over_inconclusive_across_checks(self, capsys, monkeypatch):
        # a graph with one edge dropped fails covers-match-edges, which outranks inconclusive lift-certification
        real = cli.build_context

        def dropping(*args):
            ctx = real(*args)
            ctx.graph.edges = ctx.graph.edges[1:]
            return ctx

        monkeypatch.setattr(cli, "build_context", dropping)
        code, out, _ = run(capsys, "verify", "--type", "A2", "--lambda", "2,1", "--window", "1")
        doc = json.loads(out)
        assert {c["check"]: c["status"] for c in doc["checks"]} == {
            "strong-equals-weak": "pass",
            "covers-match-edges": "fail",
            "lift-certification": "inconclusive",
        }
        assert code == 1 and doc["status"] == "fail"

    @pytest.mark.parametrize("threads", ["8", "abc"])
    def test_threads_env_ignored(self, capsys, monkeypatch, threads):
        # verify certifies paths in one thread on one oracle, whose memos are
        # not safe to share; QBRUHAT_THREADS must neither change nor break it
        monkeypatch.delenv("QBRUHAT_THREADS", raising=False)
        _, base, _ = run(capsys, "verify", "--type", "A2", "--lambda", "2,1")
        monkeypatch.setenv("QBRUHAT_THREADS", threads)
        code, out, _ = run(capsys, "verify", "--type", "A2", "--lambda", "2,1")
        assert code == 0 and out == base


class TestFormats:
    @pytest.mark.parametrize(
        "argv",
        [
            ("degree", "--type", "D4", "--lambda", "1,1,1,1", "--format", "xml"),
            ("qls", "--type", "D4", "--lambda", "1,1,1,1", "--format", "xml"),
            ("verify", "--type", "A2", "--lambda", "2,1", "--format", "csv"),
        ],
    )
    def test_rejected_before_any_work(self, capsys, monkeypatch, argv):
        def fail(*args, **kwargs):
            raise AssertionError("enumerated before the format was checked")

        monkeypatch.setattr(cli, "enumerate_hat", fail)
        monkeypatch.setattr(cli, "enumerate_tilde", fail)
        monkeypatch.setattr(cli, "degree_lines", fail)
        monkeypatch.setattr(cli, "path_listing", fail)
        monkeypatch.setattr(degree_mod, "path_listing", fail)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_vertex_names_built_once(self, capsys, monkeypatch, a2_21):
        # the graph names each vertex once; the table's rows only look names up
        calls = []
        real = qbg.word_name

        def counting(word):
            calls.append(word)
            return real(word)

        monkeypatch.setattr(qbg, "word_name", counting)
        code, out, _ = run(capsys, "degree", "--type", "A2", "--lambda", "2,1", "--format", "csv")
        assert code == 0 and out.count("\n") == 28 and 0 < len(calls) <= a2_21.graph.num_vertices

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("variant", ["hat", "tilde"])
    def test_times_formatted_once(self, capsys, monkeypatch, a2_21, variant, fmt):
        # a listing formats each candidate time once, not each time of each path
        calls = []
        real = Fraction.__str__

        def counting(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(Fraction, "__str__", counting)
        code, out, _ = run(capsys, "qls", "--type", "A2", "--lambda", "2,1", "--variant", variant, "--format", fmt)
        assert code == 0 and "2/3" in out
        assert 0 < len(calls) <= len(sigma_candidates(a2_21.graph))


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ("qls", "--type", "A2", "--lambda", "2,1", "--cap", "5"),
            ("degree", "--type", "A2", "--lambda", "2,1", "--cap", "5"),
            ("verify", "--type", "A2", "--lambda", "2,1", "--cap", "5"),
            ("verify", "--type", "A2", "--lambda", "2,1", "--window", "-1"),
        ],
    )
    def test_bad_budget_is_bad_input(self, capsys, argv):
        # an exceeded --cap or a negative --window is input error 2, not a traceback
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["qls", "degree", "verify"])
    def test_cap_refused_before_times_are_built(self, capsys, monkeypatch, command):
        # the one edge label of A1 at lambda = 10^6 pairs to 10^6, so the 999,999 times k/10^6 each give a
        # two-direction path, and the cap of 10 is refused before any of them is built
        def fail(*args, **kwargs):
            raise AssertionError("built the candidate times")

        monkeypatch.setattr(qls, "sigma_candidates", fail)
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--type", "A1", "--lambda", "1000000", "--cap", "10")
        assert (code, out, err) == (2, "", "error: more than 10 paths; raise the cap to continue\n")
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("command", ["qls", "degree", "verify"])
    def test_cap_refused_past_the_recursion_limit(self, capsys, command):
        # A1 at lambda = 1000 has 999 candidate times and paths of up to 1000 directions; a cap of 1001 passes
        # the early count (2 straight paths + 999) and is reached by the walk itself, deeper than 1000 frames
        code, out, err = run(capsys, command, "--type", "A1", "--lambda", "1000", "--cap", "1001")
        assert (code, out, err) == (2, "", "error: more than 1001 paths; raise the cap to continue\n")

    @pytest.mark.parametrize("command", ["qls", "degree", "verify"])
    def test_negative_cap_refused(self, capsys, monkeypatch, command):
        # refused like a negative --window, before the graph is built
        def fail(*args, **kwargs):
            raise AssertionError("worked on a negative cap")

        monkeypatch.setattr(cli, "build_context", fail)
        code, out, err = run(capsys, command, "--type", "A2", "--lambda", "1,0", "--cap", "-5")
        assert code == 2 and out == "" and err == "error: cap must be non-negative, not -5\n"

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("qls", "cap", "1_0"),
            ("degree", "cap", "\u0663"),
            ("verify", "cap", "1e3"),
            ("qls", "cap", "0x10"),
            ("verify", "window", "\u0663"),
            ("verify", "window", "1_0"),
            ("verify", "window", "3.0"),
            ("verify", "window", ""),
        ],
    )
    def test_integer_flags_in_ascii_digits(self, capsys, monkeypatch, command, flag, value):
        # as --lambda: ASCII digits with an optional sign and surrounding whitespace, nothing else int()
        # reads, refused before the graph is built
        def fail(*args, **kwargs):
            raise AssertionError("worked on a bad integer flag")

        monkeypatch.setattr(cli, "build_context", fail)
        code, out, err = run(capsys, command, "--type", "A2", "--lambda", "1,0", f"--{flag}={value}")
        assert (code, out, err) == (2, "", f"error: bad --{flag} value {value!r}: {value!r} is not an integer\n")

    def test_negative_window_refused_before_the_type(self, capsys, monkeypatch):
        # refused next to a negative --cap, before the type is read and before the graph is built; Z9 is no type
        def fail(*args, **kwargs):
            raise AssertionError("worked on a negative window")

        monkeypatch.setattr(cli, "build_context", fail)
        code, out, err = run(capsys, "verify", "--type", "Z9", "--lambda", "1", "--window", "-1")
        assert (code, out, err) == (2, "", "error: window must be non-negative, not -1\n")

    def test_integer_flags_sign_and_whitespace(self, capsys):
        argv = ("verify", "--type", "A2", "--lambda", "2,1")
        padded = run(capsys, *argv, "--cap= +27 ", "--window=\t+10 ")
        assert padded == run(capsys, *argv, "--cap", "27", "--window", "10") and padded[0] == 0
        assert run(capsys, *argv, "--cap= -5 ") == (2, "", "error: cap must be non-negative, not -5\n")
        assert run(capsys, *argv, "--window= -1 ") == (2, "", "error: window must be non-negative, not -1\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv,first",
        [
            (("qbg",), b"{\n"),
            (("qbg", "--format", "dot"), b"digraph pqbg {\n"),
            (("degree", "--format", "csv"), b"dirs,times,energies,deg\n"),
            (("qls", "--format", "json"), b"{\n"),
            (("degree", "--format", "json"), b"{\n"),
            (("verify", "--window", "0"), b"{\n"),
        ],
        ids=["qbg-json", "qbg-dot", "degree-csv", "qls-json", "degree-json", "verify-reports"],
    )
    def test_closed_pipe(self, argv, first, unbuffered):
        # the reader takes the first line of an output longer than a pipe buffer (on D4 (1,1,1,1) the graph is
        # 222 kB as JSON and 74 kB as DOT, the table 1.5 MB as CSV and 5.0 MB as JSON, the listing 3.8 MB as
        # JSON and the verify reports at window 0 4.0 MB) and closes the pipe: exit 141 as after SIGPIPE,
        # with no traceback.  The output goes out in blocks of lines, so the next block's write sees the close,
        # also where an unbuffered stdout drops the rest of a cut write
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen(
            [sys.executable, "-m", "qbruhat.cli", *argv, "--type", "D4", "--lambda", "1,1,1,1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.readline() == first
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141 and err == b""


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("qbg", "--type", "A2", "--lambda", "2,1", "--window", "3"),
            ("qbg", "--type", "A2", "--lambda", "2,1", "--cap", "5"),
            ("qls", "--type", "A2", "--lambda", "2,1", "--window", "3"),
            ("degree", "--type", "A2", "--lambda", "2,1", "--window", "3"),
            ("degree", "--type", "A2", "--lambda", "1,0", "--parabolic", ""),
        ],
    )
    def test_flag_not_read_is_rejected(self, capsys, argv):
        # a subcommand takes only the flags it reads
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == ""

    def test_settable_values(self):
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        flags = {
            name: {opt for a in p._actions for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
            for name, p in subparsers.items()
        }
        common = {"--type", "--lambda", "--format"}
        assert flags == {
            "qbg": common,
            "qls": common | {"--cap", "--variant"},
            "degree": common | {"--cap", "--path"},
            "verify": common | {"--cap", "--window"},
        }


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("qbg", "--type", "A2", "--lambda", "2,1", "--format", "json"),
            ("qbg", "--type", "C2", "--lambda", "1,1", "--format", "dot"),
            ("degree", "--type", "A2", "--lambda", "2,1"),
            ("qls", "--type", "A2", "--lambda", "1,1"),
        ],
    )
    def test_byte_identical(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestDispatch:
    @pytest.mark.parametrize("argv", [["--help"], *([command, "--help"] for command in cli._FORMATS)])
    def test_help(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: qbruhat") and err == ""

    def test_no_subcommand(self, capsys):
        code, out, err = run(capsys)
        assert code == 2 and out == "" and err.startswith("usage: qbruhat")

    def test_one_parser_serves_every_call(self, capsys):
        # the parser is built once per process: calls of different subcommands and flags through it give
        # what a fresh parser gives each, and --help still exits 0
        argvs = [
            ("qbg", "--type", "A2", "--lambda", "2,1", "--format", "dot"),
            ("qls", "--type", "A2", "--lambda", "1,1", "--variant", "tilde", "--format", "csv"),
            ("degree", "--type", "B2", "--lambda", "1,1", "--cap", "100"),
            ("degree", "--type", "A2", "--lambda", "2,1", "--path", "e|0,1", "--format", "json"),
            ("verify", "--type", "A2", "--lambda", "1,1", "--window", "4"),
            ("qls", "--type", "A2", "--lambda", "2,1", "--cap", "5"),
            ("degree", "--type", "A2", "--lambda", "2,1", "--window", "3"),
            ("--help",),
            ("verify", "--help"),
            ("qbg", "--type", "A2", "--lambda", "2,1"),
        ]
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli._build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in argvs]
        assert cli._build_parser.cache_info().misses == 1
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 0, 2, 2, 0, 0, 0]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(PINS))
def test_pinned_output(capsys, label):
    # the fingerprints the benchmark holds each pinned invocation to: the exact stdout of qbg and degree, the
    # row count and degree histogram of degree, and for verify equal strong and weak counts and no failed check
    pin = PINS[label]
    command = label.split()[0]
    code, out, err = run(capsys, *label.split())
    if command == "verify":
        checks = {c["check"]: c for c in json.loads(out)["checks"]}
        strong, weak = (int(x.split("=")[1]) for x in checks["strong-equals-weak"]["detail"].split())
        assert strong == weak == pin["paths"]
        assert [c for c in checks.values() if c["status"] == "fail"] == []
        return
    assert code == 0 and err == "" and sha256(out) == pin["stdout_sha256"]
    if command == "degree":
        rows = out.splitlines()[1:]
        hist = Counter(int(row.rsplit(",", 1)[1]) for row in rows)
        assert len(rows) == pin["paths"]
        assert sha256("".join(f"{d}:{n}\n" for d, n in sorted(hist.items()))) == pin["hist_sha256"]
