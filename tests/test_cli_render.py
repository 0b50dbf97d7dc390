"""The CLI's single renderer: commands build only the output form asked
for, ``""`` is the empty ipomset in every expression argument, and the
options the command table leaves out are usage errors."""

import cProfile
import pstats
from pathlib import Path

import pytest

from hdalib.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def called(argv, capsys) -> set[str]:
    """The names of the functions one ``main(argv)`` call reaches."""
    prof = cProfile.Profile()
    prof.runcall(main, [str(a) for a in argv])
    capsys.readouterr()
    return {name for _file, _line, name in pstats.Stats(prof).stats}


class TestOnlyTheAskedForForm:
    def test_hda_lang_json_renders_no_text(self, capsys):
        argv = ["hda", "lang", DATA / "loop_ab.hda", "--max-steps", "10", "--json"]
        names = called(argv, capsys)
        assert "ipomset_to_json" in names
        assert "ipomset_to_text" not in names

    @pytest.mark.parametrize(
        "argv",
        [
            ["ipo", "canon", DATA / "n_shape.ipo"],
            ["ipo", "glue", "a•", "•ab"],
            ["ipo", "refine", "[a|b|c]"],
            ["ipo", "divide", "abc"],
            ["hda", "lang", DATA / "loop_ab.hda", "--max-steps", "6"],
            ["lang", "quotient", DATA / "par_ab_abc.lang", "--prefix", "a"],
            ["lang", "swapinv", DATA / "par_ab_abc.lang"],
            ["lang", "suff", DATA / "par_ab_abc.lang"],
            ["ingest", DATA / "n_shape_intervals.csv"],
        ],
    )
    def test_one_form_per_mode(self, capsys, argv):
        assert "ipomset_to_json" not in called(argv, capsys)
        assert "ipomset_to_text" not in called(argv + ["--json"], capsys)


class TestEmptyExpressionIsEpsilon:
    @pytest.fixture
    def point(self, tmp_path):
        f = tmp_path / "point.hda"
        f.write_text("hda point {\n  cell v: [] ;\n  start: v ;\n  accept: v ;\n}\n")
        return f

    @pytest.mark.parametrize("how", [[""], ["--expr", ""]])
    def test_member_of_the_empty_ipomset(self, capsys, point, how):
        code, out, err = run(capsys, "hda", "member", point, *how)
        assert (code, out, err) == (0, "witness: (v)\n", "")

    def test_member_of_the_empty_ipomset_json(self, capsys, point):
        code, out, _ = run(capsys, "hda", "member", point, "--expr", "", "--json")
        want = '{"member": true, "path": {"cells": ["v"], "steps": []}}\n'
        assert (code, out) == (0, want)

    def test_prefix_quotient_by_epsilon(self, capsys):
        code, out, err = run(
            capsys, "lang", "quotient", DATA / "par_ab_abc.lang", "--prefix", ""
        )
        assert (code, out, err) == (0, "{[a|b], ab, ba, abc}\n", "")

    def test_suffix_quotient_by_epsilon(self, capsys):
        code, out, _ = run(
            capsys, "lang", "quotient", DATA / "par_ab_abc.lang", "--suffix", ""
        )
        assert (code, out) == (0, "{[a|b], ab, ba, abc}\n")

    def test_empty_and_expression_together_is_a_usage_error(self, capsys, point):
        code, out, err = run(capsys, "hda", "member", point, "", "--expr", "")
        assert (code, out, err) == (2, "", "error: give an ipomset file or --expr\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["lang", "quotient", DATA / "par_ab_abc.lang", "--prefix", "a"],
        ["lang", "swapinv", DATA / "par_ab_abc.lang"],
        ["lang", "suff", DATA / "par_ab_abc.lang"],
        ["mn", "build", DATA / "par_ab_abc.lang"],
        ["mn", "verify", DATA / "par_ab_abc.lang"],
    ],
)
def test_alphabet_is_not_an_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + ["--alphabet", "a b c"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --alphabet" in capsys.readouterr().err
