"""Algebraic laws under randomized inputs."""

import hypothesis.strategies as st
from hypothesis import given, settings

from oracles import oracle_interval_rows
from random_gen import random_ipomset, random_language

from hdalib.hda import enumerate_language, is_deterministic
from hdalib.ipomset import (
    canonicalize,
    enumerate_divisions,
    fin,
    from_intervals,
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
    prefix_quotient,
    prefixes,
    strong_equiv,
    weak_equiv,
)
from hdalib.myhill_nerode import build_mn, verify_mn

import random


@st.composite
def ipomsets(draw, max_events=5):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_ipomset(random.Random(seed), max_events=max_events)


@st.composite
def composable_pairs(draw):
    p = draw(ipomsets(max_events=4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    q = _continue_from(rng, p)
    return p, q


@st.composite
def composable_triples(draw):
    p, q = draw(composable_pairs())
    seed = draw(st.integers(0, 2**32 - 1))
    r = _continue_from(random.Random(seed), q)
    return p, q, r


def _continue_from(rng, p):
    """A random ipomset whose source interface matches p's targets."""
    q = identity(p.target_loset())
    for _ in range(rng.randint(0, 3)):
        cur = q.target_loset()
        if cur and rng.random() < 0.5:
            pos = rng.sample(range(len(cur)), rng.randint(1, len(cur)))
            q = glue(q, terminator(cur, pos))
        elif q.n < 5:
            k = rng.randint(1, 2)
            pos = rng.sample(range(len(cur) + k), k)
            lab = list(cur)
            for s in sorted(pos):
                lab.insert(s, rng.choice("abcd"))
            q = glue(q, starter(tuple(lab), pos))
    return q


@st.composite
def languages(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_language(random.Random(seed), max_members=40)


FAST = settings(max_examples=60, deadline=None)
SLOW = settings(max_examples=20, deadline=None)


@FAST
@given(ipomsets())
def test_canonicalize_idempotent(p):
    ij = [(i, j) for i in range(p.n) for j in range(p.n)]
    prec = [(i, j) for i, j in ij if p.lt(i, j)]
    evord = [(i, j) for i, j in ij if p.ev(i, j)]
    assert canonicalize(p.labels, p.source, p.target, prec, evord) == p


@FAST
@given(ipomsets())
def test_subsumption_reflexive(p):
    assert subsumes(p, p)


@FAST
@given(ipomsets(max_events=4))
def test_subsumption_antisymmetric_within_refinements(p):
    for q in refinements(p):
        if subsumes(p, q) and subsumes(q, p):
            assert p == q


@SLOW
@given(ipomsets(max_events=4))
def test_refinements_are_subsumed_and_transitive(p):
    refs = refinements(p)
    for q in refs:
        assert subsumes(q, p)
        # transitivity: refinements of refinements stay inside
        for r in refinements(q):
            assert r in refs


@FAST
@given(composable_triples())
def test_glue_associative(triple):
    p, q, r = triple
    assert glue(glue(p, q), r) == glue(p, glue(q, r))


@FAST
@given(ipomsets())
def test_glue_units(p):
    assert glue(identity(p.source_loset()), p) == p
    assert glue(p, identity(p.target_loset())) == p


@FAST
@given(ipomsets())
def test_sparse_decomposition_roundtrip(p):
    seq = sparse_decomposition(p)
    assert seq.sparse
    assert seq.compose() == p


@FAST
@given(ipomsets())
def test_interval_roundtrip(p):
    assert from_intervals(oracle_interval_rows(p)) == p


@FAST
@given(ipomsets(max_events=4))
def test_divisions_glue_back(m):
    for p, q in enumerate_divisions(m):
        assert glue(p, q) == m


@FAST
@given(ipomsets(max_events=4))
def test_minimal_extension_subsumed(p):
    rf = sorted(rfin_events(p))
    for e in rf:
        rebuilt = glue(
            remove_targets(p, {e}),
            starter(
                p.target_loset(),
                [i for i, ev in enumerate(p.target_events()) if ev == e],
            ),
        )
        assert subsumes(rebuilt, p)


@FAST
@given(ipomsets())
def test_fin_is_starter_on_target_loset(p):
    f = fin(p)
    assert f.loset == p.target_loset()
    assert len(f.active) == len(rfin_events(p))


@SLOW
@given(languages())
def test_quotient_monotone(lang):
    pres = sorted(prefixes(lang), key=lambda p: p.sort_key())[:12]
    for p in pres:
        for q in pres:
            if p != q and subsumes(p, q):
                assert prefix_quotient(lang, q) <= prefix_quotient(lang, p)


@SLOW
@given(languages())
def test_strong_implies_weak(lang):
    pres = sorted(prefixes(lang), key=lambda p: p.sort_key())[:10]
    for p in pres:
        for q in pres:
            if strong_equiv(p, q, lang):
                assert weak_equiv(p, q, lang)


@SLOW
@given(languages())
def test_mn_roundtrip(lang):
    assert verify_mn(lang, build_mn(lang)).ok


@SLOW
@given(languages())
def test_swap_invariance_equals_mn_determinism(lang):
    mn = build_mn(lang)
    assert bool(is_swap_invariant(lang)) == bool(is_deterministic(mn.hda).deterministic)


@SLOW
@given(languages())
def test_mn_language_is_down_closed(lang):
    mn = build_mn(lang)
    bound = max(
        (len(sparse_decomposition(m).steps) for m in lang.members), default=0
    )
    found = enumerate_language(mn.hda, bound)
    for m in found:
        for q in refinements(m):
            assert q in lang.members
