"""Acceptance suite: every criterion checks exact discrete equalities
(no numeric tolerances anywhere), and prints one line when it holds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
from pathlib import Path

import pytest

from conftest import (
    all_small_ipomsets,
    n_shape,
    par,
    square_hda,
    word,
)
from oracles import oracle_divisions, oracle_refinements, oracle_subsumes
from random_gen import random_ipomset, random_language

from hdalib.formats import parse_expr, parse_hda
from hdalib.hda import (
    DOWN,
    UP,
    Path as HdaPath,
    PathStep,
    accepting_paths,
    enumerate_language,
    is_deterministic,
    member,
)
from hdalib.ipomset import (
    STARTER,
    TERMINATOR,
    StarterTerminator,
    canonicalize,
    down_close,
    enumerate_divisions,
    fin,
    glue,
    identity,
    refinements,
    remove_targets,
    rfin_events,
    sparse_decomposition,
    starter,
    subsumes,
    terminator,
)
from hdalib.language import (
    is_swap_invariant,
    language,
    prefix_quotient,
    strong_equiv,
    weak_equiv,
)
from hdalib.myhill_nerode import SUBSIDIARY, build_mn, verify_mn

DATA = Path(__file__).resolve().parent.parent / "data"


def done(cid, text):
    print(f"ACCEPTANCE {cid} PASS - {text}")


@pytest.fixture(scope="module")
def table_lang():
    return language([par(("a", 0, 0), ("b", 0, 0)), word("abc")])


@pytest.fixture(scope="module")
def corpus_languages():
    """At least 50 random finite down-closed languages over <=4 labels with
    members of <=5 events, mixing both determinism verdicts."""
    rng = random.Random(20260808)
    langs = [random_language(rng) for _ in range(40)]
    for _ in range(15):  # family biased towards nondeterminism
        x, y = rng.sample("abcd", 2)
        tail = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 2)))
        langs.append(
            language([canonicalize([x, y], evord=[(0, 1)]), word(x + y + tail)])
        )
    return langs


def test_c1_golden_sparse_decomposition():
    seq = sparse_decomposition(n_shape())
    assert seq.initial_loset == ("b",)
    assert seq.steps == (
        StarterTerminator(STARTER, ("a", "b"), frozenset({0})),
        StarterTerminator(TERMINATOR, ("a", "b"), frozenset({0})),
        StarterTerminator(STARTER, ("c", "b"), frozenset({0})),
        StarterTerminator(TERMINATOR, ("c", "b"), frozenset({1})),
        StarterTerminator(STARTER, ("c", "d"), frozenset({1})),
        StarterTerminator(TERMINATOR, ("c", "d"), frozenset({0})),
    )
    assert seq.sparse
    assert seq.compose() == n_shape()
    done("C1", "four-event golden decomposition: 6 alternating steps, recomposes")


def test_c2_square_language():
    got = enumerate_language(square_hda(), 8)
    expect = frozenset(
        {
            par(("a", 0, 0), ("b", 0, 1)),
            word("ab", tgt=[1]),
            par(("a", 0, 0), ("b", 0, 0)),
            word("ab"),
            word("ba"),
        }
    )
    assert got == expect
    assert len(got) == 5
    assert down_close(got) == got  # an HDA's language is closed under subsumption
    done("C2", "square HDA language is exactly the expected 5 ipomsets")


def test_c3_square_sparse_paths():
    def up(*p):
        return PathStep(UP, frozenset(p))

    def down(*p):
        return PathStep(DOWN, frozenset(p))

    paths = accepting_paths(square_hda(), 8)
    expect = {
        HdaPath(("v", "e", "w", "h"), (up(0), down(0), up(0))),
        HdaPath(("v", "e", "w", "h", "y"), (up(0), down(0), up(0), down(0))),
        HdaPath(("v", "q", "h"), (up(0, 1), down(0))),
        HdaPath(("v", "q", "y"), (up(0, 1), down(0, 1))),
        HdaPath(("v", "g", "x", "f", "y"), (up(0), down(0), up(0), down(0))),
    }
    assert len(paths) == 5
    assert set(paths) == expect
    done("C3", "square HDA has exactly the 5 listed sparse accepting paths")


TABLE_ROWS = [
    ("ε", "{[a|b], ab, ba, abc}"),
    ("a", "{b, bc}"),
    ("b", "{a}"),
    ("ab", "{ε, c}"),
    ("[a|b]", "{ε}"),
    ("a•", "{[•a|b], •ab, •abc}"),
    ("ba•", "{•a}"),
    ("b•", "{[a|•b], •ba}"),
    ("ab•", "{•b, •bc}"),
    ("[a|b•]", "{•b}"),
    ("abc•", "{•c}"),
    ("[a•|b•]", "{[•a|•b]}"),
]


def test_c4_quotient_table_rows(table_lang):
    for row, quotient in TABLE_ROWS:
        p = parse_expr(row)
        expect = frozenset(
            parse_expr(e) for e in quotient.strip("{}").split(", ") if e
        )
        assert prefix_quotient(table_lang, p) == expect, row
    done("C4", "all 12 quotient-table rows reproduced verbatim")


def test_c5_mn_build_and_nondeterminism(table_lang):
    mn = build_mn(table_lang)
    dims = {}
    for c in mn.cells.values():
        if c.essential:
            dims[len(c.loset)] = dims.get(len(c.loset), 0) + 1
    assert dims == {0: 5, 1: 6, 2: 1}

    rep = is_deterministic(mn.hda)
    assert not rep.deterministic
    a_state = mn.cell_of(parse_expr("a"))
    seq_edge = mn.cell_of(parse_expr("ab•"))
    conc_edge = mn.cell_of(parse_expr("[a|b•]"))
    assert rep.branch_clashes == (
        (a_state, (0,), *sorted((seq_edge, conc_edge))),
    )
    done("C5", "quotient automaton: 5+6+1 essential cells, witnessed branching at [a]")


def test_c6_weak_versus_strong():
    lang = language([par(("a", 0, 0), ("b", 0, 0)), word("aa")])
    aa_open, ba_open = parse_expr("aa•"), parse_expr("ba•")
    assert weak_equiv(aa_open, ba_open, lang)
    assert not strong_equiv(aa_open, ba_open, lang)
    # weak: equal target signatures fin(P) = T↑(T−S), here the start of one
    # a, and equal prefix quotients; strong also compares the P−A for the
    # removable targets A ⊆ rfin(P), and removing the open a leaves a and b
    assert fin(aa_open) == fin(ba_open) == StarterTerminator(STARTER, ("a",), frozenset({0}))
    assert prefix_quotient(lang, aa_open) == prefix_quotient(lang, ba_open)
    cut = [remove_targets(p, rfin_events(p)) for p in (aa_open, ba_open)]
    assert cut == [parse_expr("a"), parse_expr("b")]
    assert prefix_quotient(lang, cut[0]) != prefix_quotient(lang, cut[1])
    mn = build_mn(lang)
    assert mn.cell_of(aa_open) != mn.cell_of(ba_open)
    done("C6", "weakly equivalent open words stay in distinct edge classes")


def test_c7_interface_language_cells():
    lang = language([parse_expr("[•aa•|•a•]")], closed=True)
    mn = build_mn(lang)
    assert mn.cells["w_"].kind == SUBSIDIARY
    assert mn.cells["w_a"].kind == SUBSIDIARY
    faces = {
        f for cell in mn.hda.cells.values() for f in cell.lower + cell.upper
    }
    assert "w_" in faces and "w_a" in faces
    start_square = mn.cell_of(identity(("a", "a")))
    accept_square = mn.cell_of(parse_expr("[•aa•|•a•]"))
    assert mn.hda.start == {start_square}
    assert mn.hda.accept == {accept_square}
    assert len(mn.hda.cells[start_square].ev) == 2
    assert len(mn.hda.cells[accept_square].ev) == 2
    assert mn.cell_of(parse_expr("[•a|•a]")) == mn.cell_of(parse_expr("[•aa|•a]"))
    done("C7", "subsidiary cells, boundary squares, and vertex identification")


def test_c8_swap_invariance_witness(table_lang):
    res = is_swap_invariant(table_lang)
    assert not res.invariant
    p, q = parse_expr("ab•"), parse_expr("[a|b•]")
    assert (p, q) in res.violations
    assert prefix_quotient(table_lang, p) == frozenset(
        {parse_expr("•b"), parse_expr("•bc")}
    )
    assert prefix_quotient(table_lang, q) == frozenset({parse_expr("•b")})
    done("C8", "swap-invariance rejected with the expected witness pair")


def test_c9_determinism_agreement(corpus_languages):
    assert len(corpus_languages) >= 50
    verdicts = {True: 0, False: 0}
    for lang in corpus_languages:
        sw = bool(is_swap_invariant(lang))
        det = bool(is_deterministic(build_mn(lang).hda).deterministic)
        assert sw == det
        verdicts[sw] += 1
    assert verdicts[False] >= 10  # both outcomes genuinely exercised
    done(
        "C9",
        f"swap-invariance equals automaton determinism on "
        f"{len(corpus_languages)} random languages "
        f"({verdicts[True]} deterministic, {verdicts[False]} not)",
    )


def test_c10_roundtrip_suite(corpus_languages):
    for lang in corpus_languages:
        rep = verify_mn(lang, build_mn(lang))
        assert rep.ok, (rep.missing, rep.extra, rep.essential_diff, rep.problems)
    done(
        "C10",
        f"language round-trip and essential-cell checks hold on "
        f"{len(corpus_languages)} random languages",
    )


def test_c11_oracle_equivalence():
    rng = random.Random(90210)
    corpus = all_small_ipomsets(max_n=3, labels="ab")
    extra4 = []
    seen = set(corpus)
    while len(extra4) < 12:
        p = random_ipomset(rng, max_events=4)
        if p.n == 4 and p not in seen:
            seen.add(p)
            extra4.append(p)
    extra5 = []
    while len(extra5) < 4:
        p = random_ipomset(rng, max_events=5)
        if p.n == 5 and p not in seen:
            seen.add(p)
            extra5.append(p)

    # subsumption against the bijection-search oracle, all pairs of a slice
    probe = corpus[::9] + extra4 + extra5
    for p in probe:
        for q in probe:
            assert subsumes(p, q) == oracle_subsumes(p, q)

    # refinements and divisions against enumeration oracles
    for p in corpus[::7] + extra4 + extra5:
        assert enumerate_divisions(p) == oracle_divisions(p)
    for p in corpus[::17] + extra4 + extra5[:2]:
        assert refinements(p) == oracle_refinements(p)

    # gluing laws on seeded composable triples drawn over the corpus
    triples = 0
    for p in corpus[::23] + extra4:
        t = p.target_loset()
        q = starter(tuple(t) + ("a",), [len(t)])
        r = terminator(q.target_loset(), [rng.randrange(q.n)])
        assert glue(glue(p, q), r) == glue(p, glue(q, r))
        assert glue(identity(p.source_loset()), p) == p
        assert glue(p, identity(p.target_loset())) == p
        triples += 1
    assert triples >= 50
    done(
        "C11",
        f"brute-force oracle agreement on {len(probe)}-element probe plus "
        f"{triples} gluing-law triples",
    )


def test_c12_loop_bounded_membership():
    loop = parse_hda((DATA / "loop_ab.hda").read_text())
    dot_a = parse_expr("•a•")
    once = parse_expr("[•aa•|b]")
    twice = glue(once, once)
    triple_a = parse_expr("•aaa•")

    assert member(loop, dot_a) is not None
    assert member(loop, once) is not None
    refs = refinements(twice)
    assert len(refs) >= 2
    for p in refs:
        assert member(loop, p) is not None, p
    assert member(loop, triple_a) is None
    done(
        "C12",
        f"loop HDA accepts the open letter, one loop, and all {len(refs)} "
        f"double-loop refinements; rejects the triple letter",
    )
