import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hdalib.cli import main, make_parser
from hdalib.formats import ipomset_to_text, parse_expr, parse_hda
from hdalib.ipomset import glue

DATA = Path(__file__).resolve().parent.parent / "data"
SRC = DATA.parent / "src"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestIpoCommands:
    def test_canon_expression(self, capsys):
        code, out, _ = run(capsys, "ipo", "canon", "[a|b]")
        assert code == 0
        assert "ipomset P" in out
        assert "[a|b]" in out

    def test_canon_file(self, capsys):
        code, out, _ = run(capsys, "ipo", "canon", DATA / "n_shape.ipo")
        assert code == 0

    def test_canon_invalid(self, capsys):
        code, _, err = run(capsys, "ipo", "canon", "ipomset x { events: p:a, q:b }")
        assert code == 2
        assert "AxiomViolation" in err

    def test_glue(self, capsys):
        code, out, _ = run(capsys, "ipo", "glue", "a•", "•ab")
        assert code == 0
        assert out.strip() == "ab"

    def test_glue_mismatch(self, capsys):
        code, _, err = run(capsys, "ipo", "glue", "a•", "•c")
        assert code == 2
        assert "InterfaceMismatch" in err

    def test_subsume_yes_prints_bijection(self, capsys):
        code, out, _ = run(capsys, "ipo", "subsume", "ab•", "[a|b•]")
        assert code == 0
        assert "subsumes via" in out

    def test_subsume_no(self, capsys):
        code, out, _ = run(capsys, "ipo", "subsume", "[a|b]", "ab")
        assert code == 1

    def test_decompose_six_steps(self, capsys):
        code, out, _ = run(capsys, "ipo", "decompose", DATA / "n_shape.ipo")
        assert code == 0
        assert len([l for l in out.splitlines() if "↑" in l or "↓" in l]) == 6

    def test_decompose_json(self, capsys):
        code, out, _ = run(capsys, "ipo", "decompose", "--json", "ab")
        data = json.loads(out)
        assert [s["kind"] for s in data["steps"]] == [
            "starter", "terminator", "starter", "terminator",
        ]

    def test_refine(self, capsys):
        code, out, _ = run(capsys, "ipo", "refine", "[a|b]")
        assert code == 0
        assert set(out.split()) == {"[a|b]", "ab", "ba"}

    def test_divide(self, capsys):
        code, out, _ = run(capsys, "ipo", "divide", "ab")
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    @pytest.mark.parametrize("argv", [["canon", DATA], ["glue", DATA, "a"]])
    def test_directory_is_an_error(self, capsys, argv):
        code, out, err = run(capsys, "ipo", *argv)
        assert code == 2 and out == ""
        assert "ParseError" in err and "not a regular file" in err

    def test_empty_argument_is_an_expression(self, capsys):
        code, out, err = run(capsys, "ipo", "glue", "[a|b]", "")
        assert (code, out.strip(), err) == (0, "[a|b]", "")
        code, out, err = run(capsys, "ipo", "canon", "")
        assert code == 0 and out.splitlines()[-1] == "ε"


class TestHdaCommands:
    def test_validate(self, capsys):
        code, out, _ = run(capsys, "hda", "validate", DATA / "square2d.hda")
        assert code == 0 and "valid" in out

    def test_lang(self, capsys):
        code, out, _ = run(
            capsys, "hda", "lang", DATA / "square2d.hda", "--max-steps", "8"
        )
        assert code == 0
        assert sorted(out.split()) == sorted(["[a|b]", "ab", "[a|b•]", "ab•", "ba"])

    def test_lang_json(self, capsys):
        code, out, _ = run(
            capsys, "hda", "lang", DATA / "square2d.hda", "--max-steps", "8", "--json"
        )
        assert len(json.loads(out)) == 5

    def test_member_witness(self, capsys):
        code, out, _ = run(
            capsys, "hda", "member", DATA / "square2d.hda", "--expr", "ba"
        )
        assert code == 0 and "witness" in out

    def test_member_rejected(self, capsys):
        code, out, _ = run(
            capsys, "hda", "member", DATA / "square2d.hda", "--expr", "ba•"
        )
        assert code == 1

    def test_member_foreign_label(self, capsys):
        code, _, _ = run(capsys, "hda", "member", DATA / "square2d.hda", "--expr", "q")
        assert code == 1

    def test_member_empty_hda(self, capsys, tmp_path):
        f = tmp_path / "empty.hda"
        f.write_text("hda empty {\n  start: ;\n  accept: ;\n}\n")
        code, _, _ = run(capsys, "hda", "member", f, "--expr", "a")
        assert code == 1

    def test_ess(self, capsys):
        code, out, _ = run(capsys, "hda", "ess", DATA / "chain3squares.hda")
        assert code == 0
        essential = [l for l in out.splitlines() if l.startswith("essential")][0]
        assert "p00" not in essential

    def test_det(self, capsys):
        code, out, _ = run(capsys, "hda", "det", DATA / "square2d.hda")
        assert code == 0 and "deterministic" in out

    # the square with edge e's upper face zz, which names no cell, or the
    # edge g instead of the vertex w
    @pytest.fixture(params=["zz", "g"], ids=["undefined", "mistyped"])
    def bad_face(self, request, tmp_path):
        text = (DATA / "square2d.hda").read_text()
        f = tmp_path / "bad.hda"
        f.write_text(text.replace("d1(1)=w ;", f"d1(1)={request.param} ;"))
        return f

    @pytest.mark.parametrize(
        "verb", [["lang"], ["ess"], ["det"], ["member", "--expr", "ab"]], ids=lambda v: v[0]
    )
    def test_bad_face_is_an_error(self, capsys, bad_face, verb):
        code, out, err = run(capsys, "hda", verb[0], bad_face, *verb[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: FaceTypingError: cell e: ")

    def test_redefined_cell_is_an_error(self, capsys, tmp_path):
        # e defined twice, the second time alike, once read as one cell,
        # and validate printed "valid"
        text = (DATA / "square2d.hda").read_text()
        f = tmp_path / "twice.hda"
        f.write_text(text.replace("  start: v ;", "  cell e: [a] d0(1)=v d1(1)=w ;\n  start: v ;"))
        code, out, err = run(capsys, "hda", "validate", f)
        assert (code, out) == (2, "")
        assert err == "error: ParseError: duplicate cell 'e'\n"

    def test_bad_face_is_reported_by_validate(self, capsys, bad_face):
        code, out, err = run(capsys, "hda", "validate", bad_face)
        assert (code, err) == (1, "")
        assert out.startswith("cell e: ")


class TestLangCommands:
    def test_quotient(self, capsys):
        code, out, _ = run(
            capsys, "lang", "quotient", DATA / "par_ab_abc.lang", "--prefix", "a"
        )
        assert code == 0
        assert out.strip() == "{b, bc}"

    def test_quotient_suffix(self, capsys):
        code, out, _ = run(
            capsys, "lang", "quotient", DATA / "par_ab_abc.lang", "--suffix", "c"
        )
        assert out.strip() == "{ab}"

    def test_quotient_needs_one_side(self, capsys):
        code, _, err = run(capsys, "lang", "quotient", DATA / "par_ab_abc.lang")
        assert code == 2

    def test_swapinv_counterexample(self, capsys):
        code, out, _ = run(capsys, "lang", "swapinv", DATA / "par_ab_abc.lang")
        assert code == 1
        assert "ab• ⊑ [a|b•]" in out
        assert "{•b, •bc}" in out and "{•b}" in out

    def test_swapinv_true(self, capsys, tmp_path):
        f = tmp_path / "w.lang"
        f.write_text("members:\nab\n")
        code, out, _ = run(capsys, "lang", "swapinv", f)
        assert code == 0 and "swap-invariant" in out

    def test_repeated_header_is_an_error(self, capsys, tmp_path):
        f = tmp_path / "twice.lang"
        f.write_text("closed: false\nclosed: true\nmembers:\nab\n")
        code, out, err = run(capsys, "lang", "swapinv", f)
        assert (code, out) == (2, "")
        assert err == "error: ParseError: duplicate closed: line\n"

    def test_alphabet_missing_a_member_label_is_an_error(self, capsys, tmp_path):
        f = tmp_path / "narrow.lang"
        f.write_text("alphabet: a\nmembers:\nbc\n")
        code, out, err = run(capsys, "lang", "suff", f)
        assert (code, out) == (2, "")
        assert err == "error: HdalibError: alphabet misses member labels b c\n"

    def test_suff(self, capsys):
        code, out, _ = run(capsys, "lang", "suff", DATA / "par_ab_abc.lang")
        assert code == 0
        assert out.splitlines()[0] == "13 distinct quotients"


class TestMnCommands:
    def test_build_writes_artifacts(self, capsys, tmp_path):
        out_hda = tmp_path / "mn.hda"
        out_json = tmp_path / "mn.json"
        out_dot = tmp_path / "mn.dot"
        code, out, _ = run(
            capsys, "mn", "build", DATA / "par_ab_abc.lang",
            "-o", out_hda, "--classes", out_json, "--dot", out_dot,
        )
        assert code == 0
        x = parse_hda(out_hda.read_text())
        assert len(x.cells) == 12
        table = json.loads(out_json.read_text())
        assert len(table["cells"]) == 12
        essential = [c for c in table["cells"].values() if c["essential"]]
        assert len(essential) == 12
        assert out_dot.read_text().startswith("digraph")

    def test_built_automaton_is_nondeterministic(self, capsys, tmp_path):
        out_hda = tmp_path / "mn.hda"
        run(capsys, "mn", "build", DATA / "par_ab_abc.lang", "-o", out_hda)
        code, out, _ = run(capsys, "hda", "det", out_hda)
        assert code == 1
        assert "share lower face" in out

    def test_verify(self, capsys):
        for name in ("par_ab_abc.lang", "par_ab_aa.lang", "double_a.lang"):
            code, out, _ = run(capsys, "mn", "verify", DATA / name)
            assert code == 0, name
            assert "verified" in out

    @pytest.mark.parametrize("flag", ["-o", "--classes", "--dot"])
    def test_build_into_directory_is_an_error(self, capsys, tmp_path, flag):
        code, out, err = run(capsys, "mn", "build", DATA / "double_a.lang", flag, tmp_path)
        assert code == 2 and out == ""
        assert err.startswith("error: ParseError: cannot write") and "Traceback" not in err

    def test_build_json_summary(self, capsys):
        code, out, _ = run(capsys, "mn", "build", DATA / "double_a.lang", "--json")
        data = json.loads(out)
        assert data["subsidiary"] == 2
        assert data["essential"] == 3


class TestIngest:
    def test_ingest_input_order(self, capsys):
        code, out, _ = run(
            capsys, "ingest", DATA / "n_shape_intervals.csv", "--order", "input"
        )
        assert code == 0
        assert "ipomset ingested" in out

    def test_ingest_default(self, capsys):
        code, out, _ = run(capsys, "ingest", DATA / "n_shape_intervals.csv")
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "ingest", "nope.csv")
        assert code == 2


class TestContract:
    def test_error_stream_is_stderr(self, capsys):
        code, out, err = run(capsys, "ipo", "glue", "a•", "•c")
        assert code == 2 and out == "" and err

    def test_env_var_sets_default_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("HDALIB_MAX_STEPS", "2")
        import importlib

        from hdalib import cli as cli_mod

        importlib.reload(cli_mod)
        code = cli_mod.main(["hda", "lang", str(DATA / "square2d.hda")])
        out = capsys.readouterr().out
        assert code == 0
        assert "ba" not in out.split()  # needs 4 steps, bound is 2
        monkeypatch.undo()
        importlib.reload(cli_mod)

    def test_repeated_calls_share_no_state(self, capsys, monkeypatch):
        from hdalib import cli as cli_mod
        from hdalib import hda as hda_mod

        monkeypatch.delenv("HDALIB_MAX_STEPS", raising=False)
        bounds = []
        enumerate_language = hda_mod.enumerate_language

        def recording(x, bound):
            bounds.append(bound)
            return enumerate_language(x, bound)

        monkeypatch.setattr(hda_mod, "enumerate_language", recording)
        square = DATA / "square2d.hda"
        code, out, _ = run(capsys, "hda", "lang", square, "--json", "--max-steps", "8")
        assert code == 0 and len(json.loads(out)) == 5
        code, out, _ = run(capsys, "hda", "lang", square)
        assert code == 0
        assert sorted(out.split()) == sorted(["[a|b]", "ab", "[a|b•]", "ab•", "ba"])
        assert bounds == [8, cli_mod.DEFAULT_MAX_STEPS]

    @pytest.mark.parametrize("value", ["abc", "0", "-3", ""])
    def test_bad_env_var_is_an_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("HDALIB_MAX_STEPS", value)
        code, out, err = run(capsys, "hda", "lang", DATA / "square2d.hda")
        assert code == 2 and out == ""
        assert "HDALIB_MAX_STEPS" in err and "Traceback" not in err

    def test_deep_inputs_answer(self, capsys):
        # the division, witness and schedule searches keep their own stacks:
        # with 80 frames to spare, inputs of 60-120 events still answer
        word = "ab" * 60
        tail = ipomset_to_text(glue(parse_expr("ab" * 30), parse_expr("[a|b]")))
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 80)
        try:
            divide = run(capsys, "ipo", "divide", word)
            subsume = run(capsys, "ipo", "subsume", word + "c", f"[{word}|c]")
            refine = run(capsys, "ipo", "refine", tail)
        finally:
            sys.setrecursionlimit(limit)
        code, out, err = divide
        assert (code, err) == (0, "") and len(out.splitlines()) == 2 * 120 + 1
        code, out, err = subsume
        assert (code, err) == (0, "") and out.startswith("subsumes via ")
        images = [pair.split("->")[1] for pair in out.split()[2:]]
        assert sorted(images, key=int) == [str(j) for j in range(121)]
        code, out, err = refine
        assert (code, err) == (0, "") and len(out.splitlines()) == 3  # ab, ba, [a|b]

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_max_steps_below_one_is_an_error(self, capsys, value):
        code, out, err = run(capsys, "hda", "lang", DATA / "loop_ab.hda", "--max-steps", value)
        assert (code, out) == (2, "")
        assert err == f"error: ParseError: --max-steps must be a positive integer, got {value}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["hda", "lang", DATA],
            ["lang", "swapinv", DATA],
            ["ingest", DATA],
            ["hda", "validate", "BINARY"],
        ],
        ids=["hda-lang-dir", "lang-swapinv-dir", "ingest-dir", "hda-validate-binary"],
    )
    def test_unreadable_file_is_an_error(self, capsys, tmp_path, argv):
        binary = tmp_path / "binary.hda"
        binary.write_bytes(b"\x7fELF\xd0\xff\xfe")
        argv = [binary if a == "BINARY" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ParseError: cannot read") and "Traceback" not in err

    def test_closed_stdout_ends_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: every write to stdout fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hdalib.cli", "hda", "lang", str(DATA / "square2d.hda")],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, b"")

    def test_closed_captured_stdout_keeps_fd_1(self, monkeypatch):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        before = os.fstat(1)
        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["hda", "lang", str(DATA / "square2d.hda")]) == 2
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


class TestParserDispatch:
    """A command named by argv's first words is parsed by its own parser."""

    @pytest.mark.parametrize(
        "argv",
        [["hda", "validate", "data/chain3squares.hda"], ["ingest", "data/n_shape_intervals.csv"]],
    )
    def test_command_skips_the_top_parser(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the top parser parsed a named command")

        monkeypatch.chdir(DATA.parent)
        top = make_parser()[0]
        monkeypatch.setattr(top, "parse_args", refuse)
        monkeypatch.setattr(top, "parse_known_args", refuse)
        assert run(capsys, *argv)[0] == 0

    # stdout and stderr by the first 16 hex digits of their SHA-256: the
    # bytes the top parser prints when it hands the rest on itself
    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (["hda", "member", "-h"], 0, "7adc05facffd3a6f", "e3b0c44298fc1c14"),
            (
                ["hda", "lang", "data/loop_ab.hda", "--max-steps", "x"],
                2, "e3b0c44298fc1c14", "d1e4e489f2daea21",
            ),
            (["bogus"], 2, "e3b0c44298fc1c14", "4851a004f33ed680"),
            (["ipo"], 2, "e3b0c44298fc1c14", "e145f7facc6c586d"),
            (["ingest"], 2, "e3b0c44298fc1c14", "a463d082ce7255a8"),
            (
                ["hda", "validate", "data/chain3squares.hda", "extra"],
                2, "e3b0c44298fc1c14", "df17d501b830d9d1",
            ),
            (
                ["hda", "validate", "data/chain3squares.hda", "--bogus"],
                2, "e3b0c44298fc1c14", "365c0271e9138d6e",
            ),
        ],
    )
    def test_usage_and_errors_keep_their_bytes(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.chdir(DATA.parent)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse's own help and usage errors
            got = exc.code
        streams = capsys.readouterr()
        digest = [hashlib.sha256(s.encode()).hexdigest()[:16] for s in (streams.out, streams.err)]
        assert (got, *digest) == (code, out, err), streams.out + streams.err
