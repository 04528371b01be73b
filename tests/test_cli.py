"""CLI surface: formats, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

import qbruhat.cli as cli
import qbruhat.degree as degree_mod
from qbruhat.cli import main
from qbruhat.qls import enumerate_hat
from qbruhat.weyl import WeylGroup


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_type(self, capsys):
        code, _, err = run(capsys, "qbg", "--type", "Z9", "--lambda", "1")
        assert code == 2 and err

    def test_bad_lambda(self, capsys):
        code, _, _ = run(capsys, "qbg", "--type", "A2", "--lambda", "1,x")
        assert code == 2

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

    def test_invalid_path(self, capsys):
        code, _, _ = run(
            capsys, "degree", "--type", "A2", "--lambda", "2,1", "--path", "e;s1 s2 s1|0,1/5,1"
        )
        assert code == 1

    def test_non_rep_direction(self, capsys):
        code, _, _ = run(
            capsys, "degree", "--type", "A2", "--lambda", "1,0", "--path", "s2|0,1"
        )
        assert code == 2

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

    def test_c2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--type", "C2", "--lambda", "1,1", "--window", "10")
        assert code == 0 and json.loads(out)["status"] == "pass"

    def test_segments_computed_once(self, capsys, monkeypatch, a2_21):
        # lift and degree share one segment cache across all paths, so each
        # distinct turning point's segment is computed at most once
        calls = []
        real = degree_mod.segment_energy

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(degree_mod, "segment_energy", counting)
        code, _, _ = run(capsys, "verify", "--type", "A2", "--lambda", "2,1")
        distinct = {
            (x_next, x_cur, sigma)
            for path in enumerate_hat(a2_21.graph)
            for x_cur, x_next, sigma in path.turning_points()
        }
        assert code == 0 and 0 < len(calls) <= len(distinct)

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
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_vertex_names_built_once(self, capsys, monkeypatch, a2_21):
        # the graph names each vertex once; the table's rows only look names up
        calls = []
        real = WeylGroup.word_name

        def counting(self, a):
            calls.append(a)
            return real(self, a)

        monkeypatch.setattr(WeylGroup, "word_name", counting)
        code, out, _ = run(capsys, "degree", "--type", "A2", "--lambda", "2,1", "--format", "csv")
        assert code == 0 and out.count("\n") == 28 and 0 < len(calls) <= a2_21.graph.num_vertices


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
