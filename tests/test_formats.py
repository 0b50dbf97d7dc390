import json
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import n_shape, word

from hdalib.cli import main
from hdalib.errors import AxiomViolation, HdalibError, MalformedInterval, ParseError
from hdalib.formats import (
    LOG_HEADER,
    hda_to_dot,
    hda_to_text,
    ipomset_from_json,
    ipomset_to_block,
    ipomset_to_json,
    ipomset_to_text,
    parse_expr,
    parse_hda,
    parse_ipomset_block,
    parse_ipomset_text,
    parse_lang,
    parse_log,
)
from hdalib.hda import validate
from hdalib.ipomset import (
    EMPTY,
    IntervalRow,
    Ipomset,
    canonicalize,
    from_intervals,
)

DATA = Path(__file__).resolve().parent.parent / "data"


class TestExpressions:
    @pytest.mark.parametrize(
        "expr",
        ["ab", "ba", "[a|b]", "•ab", "ab•", "•a•", "[•aa•|•a•]", "[a•|b•]",
         "[a|•b]", "[a|b|c]", "ε", "[ab|c]", "[•ab•|•c]"],
    )
    def test_roundtrip(self, expr):
        p = parse_expr(expr)
        assert parse_ipomset_text(ipomset_to_text(p)) == p

    def test_rows_set_event_order(self):
        assert parse_expr("[a|b]") != parse_expr("[b|a]")

    def test_ascii_bullet_alias(self):
        assert parse_expr(".a") == parse_expr("•a")
        assert parse_expr("a.") == parse_expr("a•")

    def test_epsilon(self):
        assert parse_expr("ε") == EMPTY
        assert parse_expr("eps") == EMPTY

    def test_bad_expression(self):
        with pytest.raises(ParseError):
            parse_expr("a||b")
        with pytest.raises(ParseError):
            parse_expr("•")

    def test_long_word_renders_in_linear_reads(self, monkeypatch):
        # rows grow in index order: one precedence read per later event
        text = "ab" * 150
        p = parse_expr(text)
        reads = []
        for name in ("lt", "ev"):

            def counted(self, i, j, real=getattr(Ipomset, name)):
                reads.append((i, j))
                return real(self, i, j)

            monkeypatch.setattr(Ipomset, name, counted)
        assert ipomset_to_text(p) == text
        assert len(reads) <= p.n

    def test_cross_row_precedence_falls_back_to_block(self):
        text = ipomset_to_text(n_shape())
        assert text.startswith("ipomset")
        assert parse_ipomset_text(text) == n_shape()


class TestBlocks:
    def test_named_block(self):
        name, p = parse_ipomset_block(
            "ipomset nshape { events: a:a, b:b, c:c, d:d ; source: b ; "
            "target: d ; prec: a<c b<d a<d ; evord: a<b c<b c<d }"
        )
        assert name == "nshape"
        assert p == n_shape()

    def test_sections_optional(self):
        _, p = parse_ipomset_block("ipomset q { events: x:a, y:b; prec: x<y }")
        assert p == word("ab")

    def test_empty_block(self):
        _, p = parse_ipomset_block("ipomset e { events: }")
        assert p == EMPTY

    def test_unknown_id(self):
        with pytest.raises(ParseError):
            parse_ipomset_block("ipomset q { events: x:a; source: z }")

    def test_duplicate_id(self):
        with pytest.raises(ParseError):
            parse_ipomset_block("ipomset q { events: x:a, x:b; evord: x<x }")

    def test_empty_id(self, capsys):
        # the empty id once named the event b, and e0< read as e0<b
        text = "ipomset P { events: e0:a, :b ; prec: e0< }"
        message = "bad event ':b': expected id:label"
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_ipomset_block(text)
        assert main(["ipo", "canon", text]) == 2
        assert capsys.readouterr().err == f"error: ParseError: {message}\n"

    def test_repeated_section_is_an_error(self):
        # the second evord once replaced the first, reading [b|a]
        with pytest.raises(ParseError, match="duplicate section 'evord'"):
            parse_ipomset_block("ipomset q { events: e0:a, e1:b; evord: e0<e1; evord: e1<e0 }")

    def test_block_roundtrip_on_corpus(self, small_corpus):
        for p in small_corpus[::31]:
            assert parse_ipomset_text(ipomset_to_block(p)) == p

    def test_repr_roundtrip_on_corpus(self, small_corpus):
        assert len(small_corpus) == 1273
        for p in small_corpus:
            assert parse_ipomset_text(repr(p)) == p

    def test_repr_of_malformed_ipomset_raises(self):
        # direct instantiation skips validation; repr must not hide that
        bad = Ipomset(("a", "b"), frozenset(), frozenset(), (0,), (0,))
        with pytest.raises(IndexError):
            repr(bad)


class TestJson:
    def test_roundtrip_on_corpus(self, small_corpus):
        for p in small_corpus[::31]:
            assert ipomset_from_json(ipomset_to_json(p)) == p

    def test_pairs_match_accessors(self, small_corpus, random_corpus):
        for p in small_corpus + random_corpus:
            obj = ipomset_to_json(p)
            pairs = [[i, j] for i in range(p.n) for j in range(p.n)]
            assert obj["prec"] == [[i, j] for i, j in pairs if p.lt(i, j)]
            assert obj["evord"] == [[i, j] for i, j in pairs if p.ev(i, j)]
            assert ipomset_from_json(obj) == p

    def test_relation_pair_out_of_range(self):
        with pytest.raises(AxiomViolation, match="relation pair out of range"):
            ipomset_from_json({"labels": ["a", "b"], "prec": [[0, 2]]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"source": []},
            {"labels": "ab"},
            {"labels": ["a"], "source": [0.5]},
            {"labels": ["a", "b"], "prec": [[0, 1.0]]},
            {"labels": ["a", "b"], "prec": [["0", "1"]]},
            {"labels": ["a", "b"], "prec": [[0]]},
            {"labels": ["a", "b"], "evord": [[0, 1, 2]]},
        ],
        ids=["no labels", "labels not a list", "float source", "float pair",
             "string pair", "short pair", "long pair"],
    )
    def test_malformed_entry_is_a_parse_error(self, obj):
        with pytest.raises(ParseError):
            ipomset_from_json(obj)

    def test_canonical_matrices_exposed(self):
        obj = ipomset_to_json(word("ab", tgt=[1]))
        assert obj["labels"] == ["a", "b"]
        assert obj["target"] == [1]
        assert [0, 1] in obj["prec"]


class TestLangFiles:
    def test_parse_generators(self):
        lang = parse_lang(
            "alphabet: a b c\nclosed: false\nmembers:\n[a|b]\nabc\n"
        )
        assert len(lang.members) == 4
        assert lang.alphabet == frozenset("abc")

    def test_closed_true_is_validated(self):
        with pytest.raises(Exception):
            parse_lang("closed: true\nmembers:\n[a|b]\n")

    def test_missing_members(self):
        with pytest.raises(ParseError):
            parse_lang("alphabet: a\n")

    def test_comments_ignored(self):
        lang = parse_lang("# intro\nmembers:\nab # not a comment marker here?\n")
        assert word("ab") in lang.members

    @pytest.mark.parametrize("head", ["closed: false", "alphabet: a b"])
    def test_repeated_header_is_an_error(self, head):
        with pytest.raises(ParseError, match=f"duplicate {head.split()[0]} line"):
            parse_lang(f"{head}\n{head}\nmembers:\nab\n")

    def test_alphabet_missing_a_member_label_is_an_error(self):
        with pytest.raises(HdalibError, match="alphabet misses member labels b c"):
            parse_lang("alphabet: a\nmembers:\nbc\n")

    def test_alphabet_may_hold_more_than_the_member_labels(self):
        assert parse_lang("alphabet: a b z\nmembers:\nab\n").alphabet == frozenset("abz")

    def test_shipped_files_parse(self):
        for name in ("par_ab_abc.lang", "par_ab_aa.lang", "double_a.lang"):
            lang = parse_lang((DATA / name).read_text())
            assert len(lang.members) >= 1


class TestHdaFiles:
    def test_roundtrip(self, square):
        text = hda_to_text(square)
        again = parse_hda(text)
        assert again.cells == square.cells
        assert again.start == square.start
        assert again.accept == square.accept

    def test_shipped_files_valid(self):
        for name in ("square2d.hda", "chain3squares.hda", "loop_ab.hda"):
            x = parse_hda((DATA / name).read_text())
            assert validate(x).ok, name

    def test_missing_face(self):
        with pytest.raises(ParseError):
            parse_hda("hda h { cell v: [] ; cell e: [a] d0(1)=v ; start: v ; accept: v ; }")

    def test_position_out_of_range(self):
        with pytest.raises(ParseError):
            parse_hda("hda h { cell v: [] ; cell e: [a] d0(2)=v d1(1)=v ; start: v ; accept: v ; }")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("cell v: [] ; cell v: [] ; start: v ; accept: v", "duplicate cell 'v'"),
            ("cell v: [] ; start: v ; start: v ; accept: v", "duplicate start: statement"),
            ("cell v: [] ; start: v ; accept: v ; accept: v", "duplicate accept: statement"),
            (
                "cell v: [] ; cell e: [a] d0(1)=v d1(1)=v d1(1)=v ; start: v ; accept: v",
                "cell e: duplicate face d1\\(1\\)",
            ),
        ],
        ids=["cell", "start", "accept", "face"],
    )
    def test_repeated_definition_is_an_error(self, body, message):
        with pytest.raises(ParseError, match=message):
            parse_hda(f"hda h {{ {body} ; }}")

    def test_cell_may_be_named_start(self):
        x = parse_hda("hda h { cell start: [] ; start: start ; accept: start ; }")
        assert x.start == x.accept == {"start"}

    def test_unknown_start(self):
        with pytest.raises(ParseError):
            parse_hda("hda h { cell v: [] ; start: z ; accept: v ; }")


class TestDot:
    def test_golden_square(self, square):
        dot = hda_to_dot(square)
        assert dot == (
            "digraph square2d {\n"
            "  rankdir=LR;\n"
            "  node [shape=circle];\n"
            '  "v" [shape=circle, label="v (start)"];\n'
            '  "w" [shape=circle, label="w"];\n'
            '  "x" [shape=circle, label="x"];\n'
            '  "y" [shape=doublecircle, label="y (accept)"];\n'
            '  "v" -> "w" [label="a (e)"];\n'
            '  "x" -> "y" [label="a (f)"];\n'
            '  "v" -> "x" [label="b (g)"];\n'
            '  "w" -> "y" [label="b (h) (accept)"];\n'
            "  // cell q [a b]: d0(1)=g d1(1)=h, d0(2)=e d1(2)=f\n"
            '  subgraph cluster_q { label="q"; style=filled; color=lightgrey; '
            '"v"; "w"; "x"; "y"; }\n'
            "}\n"
        )

    def test_every_two_cell_gets_a_cluster(self):
        chain = parse_hda((DATA / "chain3squares.hda").read_text())
        dot = hda_to_dot(chain)
        for name in ("sqab", "sqcb", "sqcd"):
            assert f"subgraph cluster_{name}" in dot
            assert f"// cell {name}" in dot


class TestLabels:
    # a label is letters, digits and _: each of these was read before, and
    # written back as a block, .hda cell, DOT edge or shorthand that no
    # reader takes, or that reads as another ipomset
    @pytest.mark.parametrize(
        "parse,text",
        [
            (parse_ipomset_block, "ipomset P { events: e0:x]y }"),
            (parse_ipomset_block, 'ipomset P { events: e0:x"y }'),
            (parse_ipomset_text, "ipomset P { events: e0:|, e1:a; evord: e0<e1 }"),
            (ipomset_from_json, {"labels": ["a b"]}),
            (ipomset_from_json, {"labels": [""]}),
            (parse_hda, 'hda h { cell v: [] ; cell e: [x"y] d0(1)=v d1(1)=v ; }'),
            (parse_log, "event_id,label,begin,end,open_left,open_right\nx,x\"y,0,1,false,false\n"),
        ],
        ids=["bracket", "quote", "bar", "json space", "json empty", "hda cell", "log"],
    )
    def test_other_characters_are_parse_errors(self, parse, text):
        with pytest.raises(ParseError, match="bad label"):
            parse(text)

    def test_cli_rejects_a_label_it_cannot_print(self, capsys):
        code = main(["ipo", "canon", "ipomset P { events: e0:|, e1:a; evord: e0<e1 }"])
        assert code == 2 and capsys.readouterr().err.startswith("error: ParseError: bad label")

    @pytest.mark.parametrize("labels", ["eps", "ε"])
    def test_words_spelling_epsilon_print_as_blocks(self, labels):
        p = canonicalize(labels, prec=list(zip(range(len(labels)), range(1, len(labels)))))
        assert ipomset_to_text(p).startswith("ipomset P {")
        assert parse_ipomset_text(ipomset_to_text(p)) == p

    def test_underscore_reads_in_shorthand(self):
        p = canonicalize(["_", "a"], evord=[(0, 1)])
        assert ipomset_to_text(p) == "[_|a]" and parse_expr("[_|a]") == p


class TestLogs:
    def test_parse_and_ingest_shipped(self):
        rows = parse_log((DATA / "n_shape_intervals.csv").read_text())
        assert from_intervals(rows) == n_shape()

    def test_default_rule_orders_by_begin(self, capsys):
        # `ingest` orders rows by ascending begin by default, which flips
        # the a/b event order of the input-order ingestion
        assert main(["ingest", str(DATA / "n_shape_intervals.csv"), "--json"]) == 0
        p = ipomset_from_json(json.loads(capsys.readouterr().out))
        expect = canonicalize(
            "abcd",
            source=[1],
            target=[3],
            prec=[(0, 2), (1, 3), (0, 3)],
            evord=[(1, 0), (1, 2), (2, 3)],
        )
        assert p == expect

    def test_single_record(self):
        rec = IntervalRow("x", "a", Fraction(1), Fraction(2), False, False)
        assert from_intervals([rec]) == word("a")

    def test_two_disjoint_intervals(self):
        recs = [
            IntervalRow("x", "a", Fraction(0), Fraction(1), False, False),
            IntervalRow("y", "b", Fraction(2), Fraction(3), False, False),
        ]
        assert from_intervals(recs) == word("ab")

    def test_bad_timestamps(self):
        recs = [IntervalRow("x", "a", Fraction(3), Fraction(1), False, False)]
        with pytest.raises(MalformedInterval):
            from_intervals(recs)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # two e rows once read as two events, both reported as event e
            ("e,a,0,1,false,false\ne,b,2,3,false,false", "duplicate event id 'e'"),
            (",a,0,1,false,false", "bad log line ',a,0,1,false,false'"),
        ],
        ids=["repeated", "empty"],
    )
    def test_bad_event_id_is_a_parse_error(self, rows, message, tmp_path, capsys):
        text = f"{','.join(LOG_HEADER)}\n{rows}\n"
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_log(text)
        path = tmp_path / "log.csv"
        path.write_text(text)
        assert main(["ingest", str(path)]) == 2
        assert capsys.readouterr().err == f"error: ParseError: {message}\n"

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_log("a,b,0,1,false,false\n")

    def test_exact_decimal_comparison(self):
        # 0.1+0.2 style pitfalls stay exact under Fraction parsing
        recs = parse_log(
            "event_id,label,begin,end,open_left,open_right\n"
            "x,a,0.1,0.3,false,false\n"
            "y,b,0.3,0.5,false,false\n"
        )
        p = from_intervals(recs)
        assert p == canonicalize("ab", evord=[(0, 1)])  # touching, concurrent
