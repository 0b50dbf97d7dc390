import functools
import itertools
import random
import re

import pytest

from conftest import n_shape, par, word
from oracles import (
    oracle_cut,
    oracle_divisions,
    oracle_glue,
    oracle_interval_rows,
    oracle_isomorphic,
    oracle_moments,
    oracle_one_step_refinements,
    oracle_refinements,
    oracle_remove_targets,
    oracle_sort_key,
    oracle_starter,
    oracle_subsumes,
    oracle_terminator,
)
from random_gen import random_ipomset

from hdalib import ipomset as ipomset_mod
from hdalib.errors import AxiomViolation, InterfaceMismatch, NotRemovable
from hdalib.formats import parse_expr
from hdalib.ipomset import (
    EMPTY,
    STARTER,
    TERMINATOR,
    IntervalRow,
    StarterTerminator,
    apply_step,
    canonicalize,
    down_close,
    enumerate_divisions,
    fin,
    from_intervals,
    glue,
    identity,
    refinements,
    remove_targets,
    rfin_events,
    sorted_ipomsets,
    sparse_decomposition,
    starter,
    subsumes,
    subsumes_witness,
    terminator,
)


TWO_PLUS_TWO = dict(prec=[(0, 1), (2, 3)], evord=[(0, 2), (0, 3), (1, 2), (1, 3)])
TWO_PLUS_TWO_MESSAGE = "precedence admits no interval representation (2+2)"

# one input per axiom, then inputs that break two at once: the first check
# in canonicalize's order names the error
CANONICALIZE_ERRORS = [
    (("a",), dict(source=[1]), "interface event out of range"),
    (("a",), dict(target=[-1]), "interface event out of range"),
    ("ab", dict(prec=[(0, 1), (1, 0)]), "cyclic precedence order"),
    ("ab", dict(evord=[(0, 1), (1, 0)]), "cyclic event order"),
    ("ab", {}, "events 0 and 1 unrelated by precedence and event order"),
    ("abcd", TWO_PLUS_TWO, TWO_PLUS_TWO_MESSAGE),
    ("ab", dict(source=[1], prec=[(0, 1)]), "source event is not minimal"),
    ("ab", dict(target=[0], prec=[(0, 1)]), "target event is not maximal"),
    ("ab", dict(source=[2], prec=[(0, 1), (1, 0)]), "interface event out of range"),
    ("ab", dict(prec=[(0, 1), (1, 0)], evord=[(0, 1), (1, 0)]), "cyclic precedence order"),
    ("abc", dict(evord=[(0, 1), (1, 0)]), "cyclic event order"),
    ("abcd", dict(source=[1], **TWO_PLUS_TWO), TWO_PLUS_TWO_MESSAGE),
    (
        "abc",
        dict(source=[1], target=[0], prec=[(0, 1)], evord=[(0, 2), (1, 2)]),
        "source event is not minimal",
    ),
    # relation pairs out of range, alone and beside a fault checked later
    ("ab", dict(prec=[(0, -1)]), "relation pair out of range"),
    ("ab", dict(evord=[(2, 0)]), "relation pair out of range"),
    ("ab", dict(target=[2], prec=[(0, 2)]), "interface event out of range"),
    ("ab", dict(prec=[(0, 1), (1, 0)], evord=[(0, 2)]), "relation pair out of range"),
]


class TestCanonicalize:
    @pytest.mark.parametrize("labels,kw,message", CANONICALIZE_ERRORS)
    def test_error_message_and_check_order(self, labels, kw, message):
        with pytest.raises(AxiomViolation) as err:
            canonicalize(labels, **kw)
        assert str(err.value) == message

    def test_empty(self):
        assert EMPTY.n == 0
        assert canonicalize(()) == EMPTY

    def test_cyclic_prec_rejected(self):
        with pytest.raises(AxiomViolation):
            canonicalize("ab", prec=[(0, 1), (1, 0)])

    def test_uncovered_pair_rejected(self):
        with pytest.raises(AxiomViolation):
            canonicalize("ab")  # concurrent but no event order

    def test_source_must_be_minimal(self):
        with pytest.raises(AxiomViolation):
            canonicalize("ab", source=[1], prec=[(0, 1)])

    def test_target_must_be_maximal(self):
        with pytest.raises(AxiomViolation):
            canonicalize("ab", target=[0], prec=[(0, 1)])

    def test_two_plus_two_rejected(self):
        # a<b and c<d with no cross precedence is not an interval order
        with pytest.raises(AxiomViolation, match=r"no interval representation \(2\+2\)"):
            canonicalize(
                "abcd",
                prec=[(0, 1), (2, 3)],
                evord=[(0, 2), (0, 3), (1, 2), (1, 3)],
            )

    def test_n_shape_canonical_and_encoding_invariant(self):
        p = n_shape()
        q = canonicalize(  # same shape entered with scrambled event names
            "dcba",
            source=[2],
            target=[0],
            prec=[(3, 1), (2, 0), (3, 0)],
            evord=[(3, 2), (1, 2), (1, 0)],
        )
        assert p == q

    def test_idempotent(self):
        p = n_shape()
        ij = list(itertools.product(range(p.n), repeat=2))
        prec = [(i, j) for i, j in ij if p.lt(i, j)]
        evord = [(i, j) for i, j in ij if p.ev(i, j)]
        assert canonicalize(p.labels, p.source, p.target, prec, evord) == p

    def test_idempotent_on_corpus(self, small_corpus):
        for p in small_corpus[::7]:
            ij = list(itertools.product(range(p.n), repeat=2))
            prec = [(i, j) for i, j in ij if p.lt(i, j)]
            evord = [(i, j) for i, j in ij if p.ev(i, j)]
            assert canonicalize(p.labels, p.source, p.target, prec, evord) == p

    def test_nonessential_event_order_is_pruned(self):
        plain = word("ab")
        decorated = canonicalize("ab", prec=[(0, 1)], evord=[(0, 1)])
        assert plain == decorated


class TestSortKey:
    def test_order_matches_boolean_rows(self, small_corpus, random_corpus):
        for xs in (small_corpus, random_corpus):
            shuffled = list(xs)
            random.Random(5).shuffle(shuffled)
            assert sorted_ipomsets(shuffled) == sorted(shuffled, key=oracle_sort_key)

    def test_key_reads_the_sources_with_no_sort(self, small_corpus, random_corpus):
        # canonical sources are the first events, so their sorted tuple is
        # source_events()
        for p in small_corpus + random_corpus:
            old = (p.n, p.labels, *[tuple(sorted(x)) for x in (p.source, p.target)])
            assert p.sort_key() == (*old, p.prec, p.evord)


class TestIsomorphism:
    def test_reflexive(self):
        p = word("ab")
        assert p == p

    def test_label_order_matters(self):
        assert word("ab") != word("ba")

    def test_matches_bijection_oracle(self, small_corpus):
        probe = small_corpus[::11]
        for p in probe[:40]:
            for q in probe[:40]:
                assert (p == q) == oracle_isomorphic(p, q)


class TestSubsumes:
    def test_interval_shortening_chain(self):
        # ever-longer overlaps of a,b,c with a always a source event
        p1 = canonicalize("abc", source=[0], prec=[(0, 2), (2, 1), (0, 1)])
        p2 = canonicalize("abc", source=[0], prec=[(0, 1), (2, 1)], evord=[(0, 2)])
        p3 = canonicalize("abc", source=[0], prec=[(0, 1)], evord=[(0, 2), (1, 2)])
        p4 = canonicalize("abc", source=[0], evord=[(0, 1), (1, 2), (0, 2)])
        for a, b in [(p1, p2), (p2, p3), (p3, p4)]:
            assert subsumes(a, b)
            assert not subsumes(b, a)

    def test_interleaving_refines_parallel(self):
        assert subsumes(word("ab", tgt=[1]), par(("a", 0, 0), ("b", 0, 1)))
        assert subsumes(word("ab"), par(("a", 0, 0), ("b", 0, 0)))
        assert not subsumes(par(("a", 0, 0), ("b", 0, 0)), word("ab"))

    def test_witness_is_a_real_bijection(self):
        p, q = word("ab", tgt=[1]), par(("a", 0, 0), ("b", 0, 1))
        w = subsumes_witness(p, q)
        assert sorted(w) == [0, 1]

    def test_matches_bijection_oracle(self, small_corpus):
        probe = small_corpus[::13]
        for p in probe[:35]:
            for q in probe[:35]:
                assert subsumes(p, q) == oracle_subsumes(p, q)

    def test_partial_order_on_canonical_forms(self, small_corpus):
        probe = small_corpus[100:160]
        for p in probe:
            assert subsumes(p, p)
        for p, q in itertools.combinations(probe, 2):
            if subsumes(p, q) and subsumes(q, p):
                assert p == q


class TestGlue:
    def test_unit_laws(self, mixed_corpus):
        for p in mixed_corpus[::17]:
            assert glue(p, identity(p.target_loset())) == p
            assert glue(identity(p.source_loset()), p) == p

    def test_interface_mismatch(self):
        with pytest.raises(InterfaceMismatch):
            glue(word("a", tgt=[0]), word("b", src=[0]))

    def test_matches_oracle(self, small_corpus):
        # glue folds q's sparse steps; the oracle glues by the definition.
        # An identity q has no steps, so there glue's own check is the only
        # check: a mismatched one raises the same text as any other q
        rng = random.Random(11)
        drawn = [random_ipomset(rng, labels="abc", max_events=5) for _ in range(60)]
        cases = 0
        for corpus in (small_corpus[::7], drawn):
            by_source: dict = {}
            for q in corpus:
                by_source.setdefault(q.source_loset(), []).append(q)
            for p in corpus:
                t = p.target_loset()
                for q in by_source.get(t, []) + [identity(t)]:
                    assert glue(p, q) == oracle_glue(p, q)
                    cases += 1
                wrong = t + ("c",)
                mismatch = f"target loset {t} does not match source loset {wrong}"
                with pytest.raises(InterfaceMismatch, match=f"^{re.escape(mismatch)}$"):
                    glue(p, identity(wrong))
        assert cases == 6638

    def test_six_steps_compose_to_n_shape(self):
        steps = [
            starter(("a", "b"), [0]),
            terminator(("a", "b"), [0]),
            starter(("c", "b"), [0]),
            terminator(("c", "b"), [1]),
            starter(("c", "d"), [1]),
            terminator(("c", "d"), [0]),
        ]
        assert functools.reduce(glue, steps) == n_shape()

    def test_associative_on_composable_triples(self, mixed_corpus):
        # build composable q and r on top of each corpus element
        import random

        rng = random.Random(5)
        for p in mixed_corpus[:: max(1, len(mixed_corpus) // 25)]:
            t = p.target_loset()
            q = starter(tuple(t) + ("a",), [len(t)])
            r = terminator(q.target_loset(), [rng.randrange(q.n or 1)] if q.n else [])
            assert glue(glue(p, q), r) == glue(p, glue(q, r))


class TestConstructors:
    def test_identity_empty(self):
        assert identity(()) == EMPTY

    def test_identity_is_canonical(self):
        for loset in (("a",), ("b", "a"), ("a", "b", "a", "c")):
            every = range(len(loset))
            pairs = itertools.combinations(every, 2)
            assert identity(loset) == canonicalize(loset, every, every, (), pairs)

    def test_starter_interfaces(self):
        # starting a next to an already-active b
        s = starter(("a", "b"), [0])
        assert s.source_loset() == ("b",)
        assert s.target_loset() == ("a", "b")

    def test_terminator_interfaces(self):
        t = terminator(("c", "b"), [1])
        assert t.source_loset() == ("c", "b")
        assert t.target_loset() == ("c",)

    def test_empty_active_set_is_identity(self):
        assert starter(("a", "b"), []) == identity(("a", "b"))
        assert terminator(("a", "b"), []) == identity(("a", "b"))

    def test_out_of_range(self):
        with pytest.raises(AxiomViolation):
            starter(("a",), [3])

    def test_steps_match_canonicalize(self):
        # starter and terminator are folds of apply_step, so they are
        # checked against the definition directly
        cases = 0
        for n in range(4):
            every = range(n)
            pairs = list(itertools.combinations(every, 2))
            for loset, mask in itertools.product(
                itertools.product("ab", repeat=n), itertools.product((0, 1), repeat=n)
            ):
                a = [i for i in every if mask[i]]
                rest = [i for i in every if not mask[i]]
                assert starter(loset, a) == canonicalize(loset, rest, every, (), pairs)
                assert terminator(loset, a) == canonicalize(loset, every, rest, (), pairs)
                cases += 1
        assert cases == 85


class TestSparseDecomposition:
    def test_n_shape_golden_six_steps(self):
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

    def test_word_with_source_interface(self):
        seq = sparse_decomposition(word("ab", src=[0]))
        assert seq.initial_loset == ("a",)
        assert [(s.kind, s.loset) for s in seq.steps] == [
            (TERMINATOR, ("a",)),
            (STARTER, ("b",)),
            (TERMINATOR, ("b",)),
        ]

    def test_identity_decomposes_to_nothing(self):
        seq = sparse_decomposition(identity(("a", "b")))
        assert seq.steps == ()
        assert seq.initial_loset == ("a", "b")

    def test_roundtrip_and_alternation_on_corpus(self, mixed_corpus):
        for p in mixed_corpus[::5]:
            seq = sparse_decomposition(p)
            assert seq.sparse
            assert seq.compose() == p
            steps = (
                (starter if s.kind == STARTER else terminator)(s.loset, s.active)
                for s in seq.steps
            )
            assert functools.reduce(glue, steps, identity(seq.initial_loset)) == p

    def test_steps_are_plain_tuples(self):
        # a step equals and hashes as (kind, loset, active), so a path's
        # reading finds a decomposition in a table keyed by either
        plain = (STARTER, ("a", "b"), frozenset({0}))
        step = StarterTerminator(*plain)
        assert step == plain and hash(step) == hash(plain)
        assert {plain: 1}[step] == 1 and repr(step) == "(a'b)↑a"
        seq = sparse_decomposition(n_shape())
        assert seq == (("b",), tuple(tuple(s) for s in seq.steps))
        assert hash(seq) == hash((("b",), tuple(tuple(s) for s in seq.steps)))

    def test_plain_steps_fold_back(self, small_corpus):
        # what verify_mn's table rests on: the apply_step fold of the
        # steps, from the identity on the source loset, is p, as the fold
        # of a path with those steps is
        rng = random.Random(3141)
        corpus = small_corpus + [random_ipomset(rng, max_events=7, steps=6) for _ in range(300)]
        lengths = set()
        for p in corpus:
            initial, steps = sparse_decomposition(p)
            assert initial == p.source_loset()
            out = identity(initial)
            for kind, loset, positions in steps:
                assert positions and isinstance(positions, frozenset)
                out = apply_step(out, kind, loset, positions)
            assert out == p
            kinds = [kind for kind, _, _ in steps]
            assert all(a != b for a, b in zip(kinds, kinds[1:])), p
            lengths.add(len(steps))
        assert len(corpus) == len(small_corpus) + 300 and len(lengths) >= 6


class TestIntervals:
    def test_roundtrip_on_corpus(self, mixed_corpus):
        for p in mixed_corpus[::5]:
            assert from_intervals(oracle_interval_rows(p)) == p

    def test_rows_span_their_moments(self, small_corpus, random_corpus):
        # each row runs from the first to the last maximal antichain that
        # holds its event; sources open at 0 and targets close at the end;
        # rows list concurrent events in event order; the rows give p back
        for p in small_corpus + random_corpus:
            last = len(oracle_moments(p)) - 1
            rows = oracle_interval_rows(p)
            events = [int(r.event[1:]) for r in rows]
            for r in rows:
                if r.left_closed:
                    assert r.begin == 0
                if r.right_closed:
                    assert r.end == last
            for i, j in itertools.combinations(range(p.n), 2):
                x, y = events[i], events[j]
                if p.is_concurrent(x, y):
                    assert p.ev(x, y)
            assert from_intervals(rows) == p

    def test_n_shape_roundtrip(self):
        rep = oracle_interval_rows(n_shape())
        assert from_intervals(rep) == n_shape()
        for row in rep:
            assert row.begin <= row.end

    def test_single_closed_interval(self):
        from fractions import Fraction

        rep = (IntervalRow("x", "a", Fraction(1), Fraction(2), False, False),)
        assert from_intervals(rep) == word("a")

    def test_malformed(self):
        from fractions import Fraction

        from hdalib.errors import MalformedInterval

        rep = (IntervalRow("x", "a", Fraction(3), Fraction(2), False, False),)
        with pytest.raises(MalformedInterval):
            from_intervals(rep)

    def test_activity_pictures_to_iposets(self):
        # progressively longer overlaps of a,b,c; a always touches the left
        # boundary; each picture subsumes into the next
        from fractions import Fraction

        def picture(a_end, b_begin, c_end):
            def F(x):
                return Fraction(x).limit_denominator()

            return (
                IntervalRow("a", "a", F(0), F(a_end), True, False),
                IntervalRow("b", "b", F(b_begin), F("1.9"), False, False),
                IntervalRow("c", "c", F("0.5"), F(c_end), False, False),
            )

        pics = [
            picture("0.4", "1.3", "1.1"),
            picture("1.2", "1.3", "1.1"),
            picture("1.2", "1.3", "1.7"),
            picture("1.2", "0.3", "1.7"),
        ]
        expect = [
            canonicalize("abc", source=[0], prec=[(0, 2), (2, 1), (0, 1)]),
            canonicalize("abc", source=[0], prec=[(0, 1), (2, 1)], evord=[(0, 2)]),
            canonicalize("abc", source=[0], prec=[(0, 1)], evord=[(0, 2), (1, 2)]),
            canonicalize("abc", source=[0], evord=[(0, 1), (1, 2), (0, 2)]),
        ]
        got = [from_intervals(r) for r in pics]
        assert got == expect
        for tighter, looser in zip(got, got[1:]):
            assert subsumes(tighter, looser)


# inputs whose refinements the axioms cut, and shapes with repeated labels,
# where two schedules can fold to one result
NAMED_SHAPES = {
    "source gains no predecessor": par(("a", 1, 0), ("b", 0, 0)),
    "target gains no successor": par(("a", 0, 1), ("b", 0, 0)),
    # [ab|c|d]: orienting c before d (or d before c) gives a 2+2
    "2+2": canonicalize("abcd", prec=[(0, 1)], evord=[(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "[a|a]": parse_expr("[a|a]"),
    "[aa|a•]": parse_expr("[aa|a•]"),
    "[•a|•b]": parse_expr("[•a|•b]"),
}


@pytest.fixture(scope="module")
def small_refinements(small_corpus):
    return {p: oracle_refinements(p) for p in small_corpus}


class TestRefinements:
    def test_parallel_pair(self):
        got = refinements(par(("a", 0, 0), ("b", 0, 0)))
        assert got == frozenset(
            {par(("a", 0, 0), ("b", 0, 0)), word("ab"), word("ba")}
        )

    def test_total_order_is_rigid(self):
        assert down_close([word("ab")]) == frozenset({word("ab")})

    def test_three_way_parallel_has_nineteen(self):
        got = refinements(par(("a", 0, 0), ("b", 0, 0), ("c", 0, 0)))
        assert len(got) == 19

    @pytest.mark.parametrize("expr, count", [("[a|b|c|d]", 207), ("[a|b|c|d|e]", 3451)])
    def test_concurrent_distinct_labels_give_interval_orders(self, expr, count):
        # labelled interval orders (OEIS A079144)
        assert len(refinements(parse_expr(expr))) == count

    def test_closed_set_walks_only_its_maximal_member(self, monkeypatch):
        top = parse_expr("[a|b|c|d|e]")
        members = refinements(top)
        walked = []
        real = ipomset_mod.refinements
        monkeypatch.setattr(ipomset_mod, "refinements", lambda p: walked.append(p) or real(p))
        assert down_close(members) == members
        assert walked == [top]

    def test_ordered_repeated_labels_take_no_reading(self, monkeypatch):
        # the near-word abcabc: only c and the second a are concurrent, and
        # each repeated label is ordered, so no schedule is read in labels
        prec = [(a, b) for a in range(6) for b in (a + 1, a + 2) if b < 6]
        p = canonicalize("abcabc", prec=[e for e in prec if e != (2, 3)], evord=[(2, 3)])
        sorts = []
        real = ipomset_mod._loset_sort
        monkeypatch.setattr(ipomset_mod, "_loset_sort", lambda *a: sorts.append(a) or real(*a))
        got = refinements(p)
        assert sorts == [] and got == {p, word("abcabc"), word("abacbc")}

    def test_down_close_idempotent(self):
        base = down_close([par(("a", 0, 0), ("b", 0, 0)), word("ab", tgt=[1])])
        assert down_close(base) == base

    def test_matches_orientation_oracle(self, small_corpus, small_refinements):
        for p in small_corpus:
            assert refinements(p) == small_refinements[p]
        for p in NAMED_SHAPES.values():
            assert refinements(p) == oracle_refinements(p)

    def test_matches_oracle_on_larger_random(self, mixed_corpus):
        larger = [p for p in mixed_corpus if p.n >= 4][:6]
        for p in larger:
            assert refinements(p) == oracle_refinements(p)

    def test_source_cannot_gain_a_predecessor(self):
        # b before the source a would make a non-minimal
        p = NAMED_SHAPES["source gains no predecessor"]
        with pytest.raises(AxiomViolation):
            canonicalize("ab", source=[0], prec=[(1, 0)])
        assert refinements(p) == {p, word("ab", src=[0])}

    def test_target_cannot_gain_a_successor(self):
        # the target a before b would make a non-maximal
        p = NAMED_SHAPES["target gains no successor"]
        with pytest.raises(AxiomViolation):
            canonicalize("ab", target=[0], prec=[(0, 1)])
        assert refinements(p) == {p, word("ba", tgt=[1])}

    def test_two_plus_two_is_rejected(self):
        p = NAMED_SHAPES["2+2"]
        c, d = p.labels.index("c"), p.labels.index("d")
        assert p.is_concurrent(c, d)
        for i, j in ((c, d), (d, c)):
            with pytest.raises(AxiomViolation, match="2\\+2"):
                canonicalize(
                    p.labels,
                    prec=[(a, b) for a in range(4) for b in range(4) if p.lt(a, b)] + [(i, j)],
                    evord=[(a, b) for a in range(4) for b in range(4) if p.ev(a, b)],
                )
        assert len(refinements(p)) == 64

    def test_walk_neither_glues_nor_checks(self, small_corpus, small_refinements, monkeypatch):
        # a schedule is folded by one _renumber of down-sets it already
        # knows, and g itself is not rebuilt
        want = frozenset().union(*small_refinements.values())
        for name in ("glue", "apply_step", "canonicalize", "_close_and_check"):

            def boom(*args, name=name):
                raise AssertionError(f"the walk called {name}")

            monkeypatch.setattr(ipomset_mod, name, boom)
        renumbered = []
        real = ipomset_mod._renumber
        monkeypatch.setattr(
            ipomset_mod, "_renumber", lambda *a: renumbered.append(1) or real(*a)
        )
        closure = down_close(small_corpus)
        assert closure == want
        assert len(renumbered) <= len(closure)
        for p in small_corpus:
            renumbered.clear()
            got = refinements(p)
            assert got == small_refinements[p]
            assert len(renumbered) == len(got) - 1


class TestOneStepRefinements:
    def test_matches_oracle_on_small(self, small_corpus):
        # refinements(p) is p closed under orienting one concurrent pair
        # at a time, each step canonicalized by the one-step oracle
        for p in small_corpus:
            reached, frontier = {p}, [p]
            while frontier:
                for q in oracle_one_step_refinements(frontier.pop()):
                    if q not in reached:
                        reached.add(q)
                        frontier.append(q)
            assert refinements(p) == reached


class TestTargetsAndSignatures:
    def test_remove_single_target(self):
        assert remove_targets(word("ab", tgt=[1]), {1}) == word("a")

    def test_remove_preserves_sources(self):
        # two rows, both sides open, drop the c that follows a; the a keeps
        # its source flag and stays target-free (matrix restriction)
        p = canonicalize(
            "acb", source=[0, 2], target=[1, 2], prec=[(0, 1)], evord=[(0, 2), (1, 2)]
        )
        expect = canonicalize("ab", source=[0, 1], target=[1], evord=[(0, 1)])
        tgt = [e for e in sorted(rfin_events(p))]
        assert remove_targets(p, tgt) == expect

    def test_remove_nothing(self, mixed_corpus):
        for p in mixed_corpus[::19]:
            assert remove_targets(p, ()) == p

    def test_remove_rejects_source_events(self):
        p = identity(("a",))
        with pytest.raises(NotRemovable):
            remove_targets(p, {0})

    def test_apply_step_down_errors(self):
        p = par(("a", 0, 1), ("b", 0, 1))
        assert apply_step(p, TERMINATOR, ("a", "b"), [1]) == par(("a", 0, 1), ("b", 0, 0))
        # the range check comes first, as in terminator, then glue's mismatch
        for loset, bad in ((("a", "b"), [-1]), (("a", "b"), [2]), (("c",), [0, 2])):
            with pytest.raises(AxiomViolation, match="^terminator positions out of range$"):
                apply_step(p, TERMINATOR, loset, bad)
        mismatch = "target loset ('a', 'b') does not match source loset ('b', 'a')"
        for a in ([0], []):
            with pytest.raises(InterfaceMismatch) as got:
                apply_step(p, TERMINATOR, ("b", "a"), a)
            assert str(got.value) == mismatch
            with pytest.raises(InterfaceMismatch, match=f"^{re.escape(mismatch)}$"):
                glue(p, terminator(("b", "a"), a))
        with pytest.raises(ValueError, match="^bad step kind 'up'$"):
            apply_step(p, "up", ("a", "b"), [0])

    def test_clear_is_terminator_glue(self, small_corpus):
        cases = 0
        for p in small_corpus:
            loset = p.target_loset()
            for k in range(len(loset) + 1):
                for a in itertools.combinations(range(len(loset)), k):
                    got = apply_step(p, TERMINATOR, loset, a)
                    assert got == oracle_glue(p, oracle_terminator(loset, a))
                    cases += 1
        assert cases == 3349

    def test_apply_step_up_errors(self):
        p = par(("a", 0, 1), ("b", 0, 1))
        assert apply_step(p, STARTER, ("a", "c", "b"), [1]) == oracle_glue(
            p, oracle_starter(("a", "c", "b"), [1])
        )
        # the range check comes first, as in starter, then glue's mismatch
        for loset, bad in ((("a", "b"), [2]), (("a", "c"), [-1]), (("c",), [0, 1])):
            with pytest.raises(AxiomViolation, match="^starter positions out of range$"):
                apply_step(p, STARTER, loset, bad)
        mismatch = "target loset ('a', 'b') does not match source loset ('b', 'a')"
        for loset, a in ((("b", "a", "c"), [2]), (("b", "a"), [])):
            with pytest.raises(InterfaceMismatch) as got:
                apply_step(p, STARTER, loset, a)
            assert str(got.value) == mismatch
            with pytest.raises(InterfaceMismatch, match=f"^{re.escape(mismatch)}$"):
                glue(p, starter(loset, a))

    def test_start_is_starter_glue(self, small_corpus, random_corpus, monkeypatch):
        # an up step calls _renumber only in the merged-group branch, which
        # puts p's last group and the started events in loset order, once
        renumbered = []
        real = ipomset_mod._renumber
        monkeypatch.setattr(
            ipomset_mod, "_renumber", lambda *a: renumbered.append(1) or real(*a)
        )
        cases = merged = 0
        # every loset that inserts up to two labels into p's target loset on
        # the small corpus, up to one on the distinct random ipomsets
        for corpus, most in ((small_corpus, 2), (sorted_ipomsets(set(random_corpus)), 1)):
            for p in corpus:
                t = p.target_loset()
                for k in range(most + 1):
                    for a in itertools.combinations(range(len(t) + k), k):
                        for labels in itertools.product("ab", repeat=k):
                            rest, new = iter(t), iter(labels)
                            loset = tuple(
                                next(new) if i in a else next(rest)
                                for i in range(len(t) + k)
                            )
                            before = len(renumbered)
                            got = apply_step(p, STARTER, loset, a)
                            merged += len(renumbered) > before
                            assert got == oracle_glue(p, oracle_starter(loset, a))
                            cases += 1
        assert cases == 28096
        assert 0 < merged < cases

    def test_remove_matches_restriction_oracle(self, small_corpus):
        cases = 0
        for p in small_corpus:
            rf = sorted(rfin_events(p))
            for k in range(len(rf) + 1):
                for a in itertools.combinations(rf, k):
                    assert remove_targets(p, a) == oracle_remove_targets(p, a)
                    cases += 1
        assert cases == 2383

    def test_signature_examples(self):
        p = canonicalize(
            "aac", source=[0, 1], target=[0, 2], evord=[(0, 1), (0, 2), (1, 2)]
        )
        f = fin(p)
        assert f.kind == STARTER
        assert f.loset == ("a", "c")
        assert f.active == frozenset({1})
        assert len(rfin_events(p)) == 1

        q = canonicalize(
            "acb", source=[0, 2], target=[1, 2], prec=[(0, 1)], evord=[(0, 2), (1, 2)]
        )
        g = fin(q)
        assert g.loset == ("c", "b")
        assert g.active == frozenset({0})

        r = canonicalize("acb", target=[1, 2], prec=[(0, 1)], evord=[(0, 2), (1, 2)])
        h = fin(r)
        assert h.loset == ("c", "b")
        assert h.active == frozenset({0, 1})

    def test_minimal_extension_is_subsumed(self, mixed_corpus):
        # gluing back a removed target set only adds order
        for p in mixed_corpus[::9]:
            rf = sorted(rfin_events(p))
            for k in range(len(rf) + 1):
                for combo in itertools.combinations(rf, k):
                    rebuilt = glue(
                        remove_targets(p, combo),
                        starter(
                            p.target_loset(),
                            [
                                i
                                for i, e in enumerate(p.target_events())
                                if e in combo
                            ],
                        ),
                    )
                    assert subsumes(rebuilt, p)

    def test_terminator_composition_law(self):
        for u in [("a",), ("a", "b"), ("a", "b", "a")]:
            positions = range(len(u))
            for a_size in range(len(u) + 1):
                for a in itertools.combinations(positions, a_size):
                    rest = [i for i in positions if i not in a]
                    for b_size in range(len(rest) + 1):
                        for b in itertools.combinations(rest, b_size):
                            lhs = glue(
                                terminator(u, b),
                                terminator(
                                    tuple(l for i, l in enumerate(u) if i not in b),
                                    [i - sum(x < i for x in b) for i in a],
                                ),
                            )
                            assert lhs == terminator(u, set(a) | set(b))

    def test_remove_commutes_with_terminate(self, mixed_corpus):
        # (P * T↓B) − A = (P − A) * (T−A)↓B for disjoint A,B in rfin
        for p in mixed_corpus[::15]:
            tgt = p.target_events()
            rf = [i for i, e in enumerate(tgt) if e in rfin_events(p)]
            for a in rf:
                for b in rf:
                    if a == b:
                        continue
                    terminated = glue(p, terminator(p.target_loset(), [b]))
                    lhs = remove_targets(terminated, {tgt[a]})
                    removed = remove_targets(p, {tgt[a]})
                    b_after = b - (1 if a < b else 0)
                    rhs = glue(removed, terminator(removed.target_loset(), [b_after]))
                    assert lhs == rhs


class TestDivisions:
    def test_word_ab_has_five(self):
        divs = enumerate_divisions(word("ab"))
        expect = {
            (EMPTY, word("ab")),
            (word("a"), word("b")),
            (word("ab"), EMPTY),
            (word("a", tgt=[0]), word("ab", src=[0])),
            (word("ab", tgt=[1]), word("b", src=[0])),
        }
        assert divs == expect

    def test_empty(self):
        assert enumerate_divisions(EMPTY) == frozenset({(EMPTY, EMPTY)})

    def test_identity_divides_trivially(self):
        u = identity(("a", "b"))
        assert enumerate_divisions(u) == frozenset({(u, u)})

    def test_matches_partition_oracle(self, small_corpus, small_divisions):
        for m in small_corpus:
            assert enumerate_divisions(m) == small_divisions[m]

    @pytest.mark.parametrize("n", range(4, 8))
    @pytest.mark.parametrize("src,tgt", itertools.product((False, True), repeat=2))
    def test_matches_partition_oracle_on_words(self, n, src, tgt):
        labels = ("ab" * 4)[:n]
        source, target = [0] * src, [n - 1] * tgt
        chain = [(i, j) for i in range(n) for j in range(i + 1, n)]
        near = [(i, j) for i, j in chain if (i, j) != (1, 2)]  # events 1, 2 concurrent
        for m in (
            canonicalize(labels, source, target, chain),
            canonicalize(labels, source, target, near, [(1, 2)]),
        ):
            assert enumerate_divisions(m) == oracle_divisions(m)

    def test_word_has_2n_plus_1(self):
        # n+1 cuts between events plus n cuts through one shared event
        for n in range(13):
            assert len(enumerate_divisions(word(("ab" * 7)[:n]))) == 2 * n + 1

    def test_matches_partition_oracle_larger(self, mixed_corpus):
        larger = [p for p in mixed_corpus if p.n >= 4][:8]
        for m in larger:
            assert enumerate_divisions(m) == oracle_divisions(m)

    def test_matches_partition_oracle_on_random_draws(self):
        # shapes of up to 6 events with varied interfaces, beyond the first
        # eight larger ipomsets of the mixed corpus
        rng = random.Random(34)
        for _ in range(40):
            m = random_ipomset(rng, "abc", max_events=6, steps=6)
            assert enumerate_divisions(m) == oracle_divisions(m)

    def test_every_division_glues_back(self, mixed_corpus):
        for m in mixed_corpus[::12]:
            for p, q in enumerate_divisions(m):
                assert glue(p, q) == m

    def test_right_part_lists_the_interface_first(self):
        # a < b, a < c and c before b: canonical order a, c, b.  The split
        # with left {a}, interface {b} and right {c} has a right part that
        # lists its source b before c, although c comes before b in m
        m = canonicalize("abc", prec=[(0, 1), (0, 2)], evord=[(2, 1)])
        assert m.labels == ("a", "c", "b")
        right = canonicalize("bc", source=[0], evord=[(1, 0)])
        assert right.labels == ("b", "c")
        assert (word("ab", tgt=[1]), right) in enumerate_divisions(m)
        assert enumerate_divisions(m) == oracle_divisions(m)

    def test_restrictions_take_the_parent_order(self, small_corpus, small_divisions, monkeypatch):
        # divisions and target removals restrict a canonical ipomset in an
        # order they already know, so they never sort events again
        removals = [
            (p, a, oracle_remove_targets(p, a))
            for p in small_corpus
            for k in range(len(p.target) + 1)
            for a in itertools.combinations(sorted(rfin_events(p)), k)
        ]
        calls = []
        for name in ("moments", "_canonical_order"):
            real = getattr(ipomset_mod, name)
            monkeypatch.setattr(
                ipomset_mod, name, lambda *args, real=real: calls.append(real) or real(*args)
            )
        divisions = {m: enumerate_divisions(m) for m in small_corpus}
        removed = [remove_targets(p, a) for p, a, _ in removals]
        assert calls == []
        assert divisions == small_divisions
        assert removed == [want for _, _, want in removals]
        assert len(small_corpus) == 1273 and len(removals) == 2383


def _loop_events(n, mask):
    """The events of an n-wide mask, read one column at a time."""
    return tuple(e for e in range(n) if mask >> (n - 1 - e) & 1)


class TestBitKernel:
    """Set bits are read through one table-driven kernel."""

    def test_events_match_the_loop(self):
        rng = random.Random(32)
        masks = [(n, mask) for n in range(9) for mask in range(1 << n)]
        assert len(masks) == 511
        masks += [(n, rng.getrandbits(n)) for n in range(9, 65) for _ in range(40)]
        masks += [(n, (1 << n) - 1) for n in range(9, 65)]
        for n, mask in masks:
            want = _loop_events(n, mask)
            got = ipomset_mod._events(n, mask)
            assert type(got) is tuple and got == want
            assert ipomset_mod._eventset(n, mask) == frozenset(want)

    def test_equal_interfaces_are_one_object(self):
        for n in range(9):
            for mask in range(1 << n):
                assert ipomset_mod._eventset(n, mask) is ipomset_mod._eventset(n, mask)
        # canonical forms and division parts take their interfaces from it
        a, b = word("ab", src=[0], tgt=[1]), word("ba", src=[0], tgt=[1])
        assert a.source is b.source and a.target is b.target
        m = par(("a", 0, 0), ("b", 0, 0), ("c", 0, 0))
        lefts = {p for p, _ in enumerate_divisions(m)}
        assert len(lefts) > 8
        for p, q in itertools.combinations(lefts, 2):
            assert (p.target is q.target) == (p.target == q.target and p.n == q.n)

    def test_loset_sort_matches_the_sort(self, small_corpus, random_corpus, monkeypatch):
        # every set the library puts in event order (a target set, a
        # moment, a running set of a schedule, a division's interface)
        # is pairwise concurrent and sorts as the keyed sort did
        calls = []
        real = ipomset_mod._loset_sort
        monkeypatch.setattr(ipomset_mod, "_loset_sort", lambda *a: calls.append(a) or real(*a))
        for p in small_corpus + random_corpus:
            p.target_events()
            sparse_decomposition(p)
            enumerate_divisions(p, {})
        for p in small_corpus:
            refinements(p)
            _recanonicalized(p)
        assert len(calls) > 10_000
        for evord, events in {(tuple(evord), events) for evord, events in calls}:
            n = len(evord)
            found = _loop_events(n, events)
            for i, j in itertools.combinations(found, 2):
                assert evord[i] >> (n - 1 - j) & 1 or evord[j] >> (n - 1 - i) & 1
            want = sorted(found, key=lambda i: -(evord[i] & events).bit_count())
            assert real(evord, events) == tuple(want)

    def test_moments_match_the_oracle(self, small_corpus, random_corpus):
        for p in small_corpus + random_corpus:
            got = ipomset_mod.moments(ipomset_mod._transpose(p.prec))
            assert [frozenset(_loop_events(p.n, a)) for a in got] == oracle_moments(p)

    def test_moments_reject_two_plus_two(self):
        downs = [0, 0b1000, 0, 0b0010]  # 0 before 1 and 2 before 3 only
        with pytest.raises(AxiomViolation, match=f"^{re.escape(TWO_PLUS_TWO_MESSAGE)}$"):
            ipomset_mod.moments(downs)


def _long_word(n, near=False):
    """A word of n events over abc; a near-word has its two middle events
    concurrent."""
    mid = n // 2 - 1
    pair = (mid, mid + 1) if near else None
    prec = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) != pair]
    evord = [pair] if near else []
    return canonicalize(["abc"[i % 3] for i in range(n)], prec=prec, evord=evord)


class TestBlockCuts:
    """A sub-ipomset on consecutive events in order is cut by one shift."""

    def test_word_divisions_cut_rows_whole(self, monkeypatch):
        # every part and removal of a word is one block of its order, so
        # no row is rebuilt bit by bit; a near-word has three parts that
        # are not, at its concurrent pair, each O(n) rows.  Rebuilding
        # every row bit by bit would take about 3n^2 calls on either.
        calls = []
        real = ipomset_mod._remap
        monkeypatch.setattr(ipomset_mod, "_remap", lambda *a: calls.append(1) or real(*a))
        n = 60
        word_divs = enumerate_divisions(_long_word(n), {})
        assert calls == []
        near_divs = enumerate_divisions(_long_word(n, near=True), {})
        assert 0 < len(calls) < 4 * n
        assert len(word_divs) == 2 * n + 1 and len(near_divs) == 2 * n + 3

    def test_word_divisions_glue_back(self):
        m = _long_word(60)
        divs = enumerate_divisions(m)
        assert len(divs) == 2 * m.n + 1
        assert all(glue(p, q) == m for p, q in divs)

    def test_block_cut_matches_reference(self):
        rng = random.Random(30)
        checked = 0
        for _ in range(150):
            p = random_ipomset(rng, max_events=7, max_interface=3, steps=6)
            n = p.n
            source, target = ipomset_mod._mask(n, p.source), ipomset_mod._mask(n, p.target)
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    order = list(range(lo, hi))
                    cut = ipomset_mod.Ipomset(
                        *ipomset_mod._restrict(p.labels, source, target, p.prec, p.evord, order)
                    )
                    assert oracle_cut(cut, range(cut.n)) == oracle_cut(p, order)
                    checked += 1
        assert checked > 2000


def _recanonicalized(p):
    """canonicalize of p's own labels, interfaces and relation pairs."""
    pairs = list(itertools.permutations(range(p.n), 2))
    return canonicalize(
        p.labels,
        p.source,
        p.target,
        [(i, j) for i, j in pairs if p.lt(i, j)],
        [(i, j) for i, j in pairs if p.ev(i, j)],
    )


class TestTupleValues:
    def test_hash_is_the_field_tuple_hash(self, small_corpus):
        # the hash a frozen dataclass of these fields computed, so set
        # iteration orders, and every output built from them, stay put
        for p in small_corpus:
            assert hash(p) == hash((p.labels, p.source, p.target, p.prec, p.evord))

    def test_len_counts_fields_and_equals_a_plain_tuple(self):
        p = word("abc")
        assert (len(p), p.n) == (5, 3)
        assert p == (p.labels, p.source, p.target, p.prec, p.evord)

    @pytest.mark.parametrize("expr", ["[a|b|c|d]", "[ab|c•|•d]"])
    def test_parts_and_removals_are_canonical_on_languages(self, expr):
        members = down_close([parse_expr(expr)])
        for m in members:
            self._check_parts_and_removals(m)

    def test_parts_and_removals_are_canonical_on_small(self, small_corpus):
        for m in small_corpus:
            self._check_parts_and_removals(m)

    @staticmethod
    def _check_parts_and_removals(m):
        # each value is canonical, with its sources first, in event order,
        # as source_events reads them; each table entry holds its left
        # part's right parts, no more and no fewer
        table: dict = {}
        divs = enumerate_divisions(m, table)
        values = [m, *itertools.chain.from_iterable(divs)]
        for p, (tgt, row, rights) in table.items():
            assert tgt == p.target_events() and len(row) == len(tgt)
            assert rights == {q for left, q in divs if left == p}
            values += [r for r in row if r is not None]
        values += [remove_targets(m, [e]) for e in rfin_events(m)]
        for p in values:
            assert _recanonicalized(p) == p
            assert p.source == frozenset(range(len(p.source)))
            sources = ipomset_mod._mask(p.n, p.source)
            assert p.source_events() == ipomset_mod._loset_sort(p.evord, sources)

    def test_parts_and_removals_take_no_general_renumbering(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("_renumber called")

        members = down_close([parse_expr("[ab|c•|•d]")])
        monkeypatch.setattr(ipomset_mod, "_renumber", forbidden)
        for m in members:
            enumerate_divisions(m, {})
            for e in rfin_events(m):
                remove_targets(m, [e])
