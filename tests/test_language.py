import dataclasses
import gc
import itertools
import random
import weakref
from pathlib import Path

import pytest

from conftest import par, word
from oracles import _oracle_quotients, oracle_divisions, oracle_swap_violations
from random_gen import random_language

from hdalib import ipomset as ipomset_mod
from hdalib import language as language_mod
from hdalib.errors import HdalibError, NotDownClosed
from hdalib.formats import parse_expr, parse_lang
from hdalib.hda import is_deterministic
from hdalib.ipomset import (
    EMPTY,
    enumerate_divisions,
    glue,
    remove_targets,
    rfin_events,
    sorted_ipomsets,
    subsumes,
)
from hdalib.language import (
    LanguageSet,
    is_swap_invariant,
    language,
    prefix_quotient,
    prefix_row,
    prefixes,
    strong_equiv,
    suffix_quotient,
    suffix_quotient_family,
    weak_equiv,
)
from hdalib.myhill_nerode import build_mn, verify_mn


DATA = Path(__file__).resolve().parent.parent / "data"
# repeated labels, interfaces, and four-event shapes with three pairwise
# concurrent events, as the benchmark's wide items have
REMOVAL_SHAPES = (
    "[a|a|b]",
    "[aa|a•]",
    "[•a|•b]",
    "[ab|c|•d]",
    "[•a|b•|c|•d]",
    "[ab•|•c|d•]",
    "[a•|•b|c•|d]",
)


@pytest.fixture(scope="module")
def table_lang():
    """Down-closure of a parallel pair and a three-letter word."""
    return language([par(("a", 0, 0), ("b", 0, 0)), word("abc")])


@pytest.fixture(scope="module")
def strongeq_lang():
    return language([par(("a", 0, 0), ("b", 0, 0)), word("aa")])


class TestLanguageSet:
    def test_down_closure_applied(self, table_lang):
        assert word("ab") in table_lang.members
        assert word("ba") in table_lang.members
        assert len(table_lang) == 4

    def test_closed_true_validates(self):
        with pytest.raises(NotDownClosed):
            language([par(("a", 0, 0), ("b", 0, 0))], closed=True)

    def test_generators_remembered(self, table_lang):
        assert len(table_lang.generators) == 2

    def test_closed_flag_is_not_a_constructor_argument(self, table_lang):
        with pytest.raises(TypeError):
            LanguageSet(members=table_lang.members, alphabet=table_lang.alphabet, _closed=True)

    def test_replaced_members_are_checked_again(self, table_lang):
        # dropping a refinement of [a|b] from a built language: build_mn
        # names the same witness as for a hand-built set
        members = table_lang.members - {word("ab")}
        raw = LanguageSet(members=members, alphabet=table_lang.alphabet)
        replaced = dataclasses.replace(table_lang, members=members)
        errors = []
        for lang in (raw, replaced):
            with pytest.raises(NotDownClosed) as err:
                build_mn(lang)
            errors.append(str(err.value))
        assert errors == [f"missing refinement {word('ab')!r}"] * 2


class TestQuotients:
    def test_table_rows_for_vertices(self, table_lang):
        assert prefix_quotient(table_lang, EMPTY) == table_lang.members
        assert prefix_quotient(table_lang, word("a")) == frozenset(
            {word("b"), word("bc")}
        )
        assert prefix_quotient(table_lang, word("b")) == frozenset({word("a")})
        assert prefix_quotient(table_lang, word("ab")) == frozenset(
            {EMPTY, word("c")}
        )
        assert prefix_quotient(
            table_lang, par(("a", 0, 0), ("b", 0, 0))
        ) == frozenset({EMPTY})

    def test_empty_prefix_is_unit(self, table_lang, strongeq_lang):
        for lang in (table_lang, strongeq_lang):
            assert prefix_quotient(lang, EMPTY) == lang.members

    def test_suffix_quotient(self, table_lang):
        assert suffix_quotient(table_lang, word("c")) == frozenset({word("ab")})
        assert suffix_quotient(table_lang, EMPTY) == table_lang.members
        assert suffix_quotient(table_lang, word("d")) == frozenset()

    def test_suffix_quotient_matches_division_oracle(self, data_dir):
        langs = [parse_lang(path.read_text()) for path in sorted(data_dir.glob("*.lang"))]
        rng = random.Random(4747)
        langs += [random_language(rng, max_members=20) for _ in range(20)]
        cases = 0
        for lang in langs:
            want: dict = {}
            for m in lang.members:
                for p, q in oracle_divisions(m):
                    want.setdefault(q, set()).add(p)
            for q, ps in want.items():
                assert suffix_quotient(lang, q) == ps
                cases += 1
        assert cases == 343

    def test_prefixes_of_single_word(self):
        lang = language([word("ab")])
        assert prefixes(lang) == frozenset(
            {
                EMPTY,
                word("a"),
                word("a", tgt=[0]),
                word("ab"),
                word("ab", tgt=[1]),
            }
        )

    def test_prefixes_empty_language(self):
        assert prefixes(language([])) == frozenset()

    def test_index_dies_with_its_language(self):
        lang = language([word("ab")])
        assert prefix_quotient(lang, word("a")) == frozenset({word("b")})
        ref = weakref.ref(lang)
        del lang
        gc.collect()
        assert ref() is None

    def test_equal_quotients_are_one_object(self):
        values = pres = 0
        for seed in range(20):
            lang = random_language(random.Random(seed))
            shared: dict = {}
            for p in prefixes(lang):
                q = prefix_quotient(lang, p)
                assert shared.setdefault(q, q) is q
            values += len(shared)
            pres += len(prefixes(lang))
        assert values < pres

    def test_division_quotient_equals_definitional(self, table_lang):
        # glue each candidate back and test membership directly
        candidates = {q for m in table_lang.members for _, q in enumerate_divisions(m)}
        for p in sorted_ipomsets(prefixes(table_lang)):
            direct = frozenset(
                q
                for q in candidates
                if p.target_loset() == q.source_loset()
                and glue(p, q) in table_lang.members
            )
            assert prefix_quotient(table_lang, p) == direct


class TestDivisionIndex:
    """The whole index, prefixes and quotients, against the brute-force
    divisions, and the benchmark's view of it: one call per member."""

    @staticmethod
    def _languages():
        langs = [parse_lang(path.read_text()) for path in sorted(DATA.glob("*.lang"))]
        langs += [language([parse_expr(e)]) for e in REMOVAL_SHAPES]
        return langs + [random_language(random.Random(seed)) for seed in range(60)]

    def test_index_is_the_oracle_quotients(self):
        quotients = 0
        for lang in self._languages():
            want = _oracle_quotients(lang)
            assert prefixes(lang) == want.keys()
            for p, qs in want.items():
                assert prefix_quotient(lang, p) == qs
            quotients += len(want)
        assert quotients == 2161

    def test_index_divides_each_member_once(self, monkeypatch):
        calls, pairs = [], []
        real = language_mod.enumerate_divisions

        def counting(m, *args):
            calls.append(m)
            out = real(m, *args)
            pairs.append(len(out))
            return out

        monkeypatch.setattr(language_mod, "enumerate_divisions", counting)
        for lang in self._languages():
            calls.clear()
            pairs.clear()
            pres = prefixes(lang)
            assert sorted_ipomsets(calls) == sorted_ipomsets(lang.members)
            assert sum(pairs) == sum([len(prefix_quotient(lang, p)) for p in pres])


class TestPrefixRemovals:
    def test_table_is_remove_targets(self, monkeypatch):
        # every prefix and target of the data files, the shapes and 100
        # seeded random languages; the index meets both of its paths
        langs = [parse_lang(path.read_text()) for path in sorted(DATA.glob("*.lang"))]
        langs += [language([parse_expr(e)]) for e in REMOVAL_SHAPES]
        langs += [random_language(random.Random(seed)) for seed in range(100)]
        real = ipomset_mod.remove_targets
        closed = []  # removals the index leaves to remove_targets
        monkeypatch.setattr(
            ipomset_mod, "remove_targets", lambda p, es: closed.append(p) or real(p, es)
        )
        bodies = fallbacks = 0
        for lang in langs:
            closed.clear()
            pres = prefixes(lang)
            keys = {p: p for p in pres}  # the objects that key the quotients
            removed = 0
            for p in pres:
                want = tuple(None if e in p.source else real(p, [e]) for e in p.target_events())
                row = prefix_row(lang, p)
                assert row == (p.target_events(), want)
                # each removal is a prefix, kept as the one object of that prefix
                assert all(q is None or q is keys[q] for q in row[1])
                removed += sum(q is not None for q in want)
            assert len(closed) <= removed
            fallbacks += len(closed)
            bodies += removed - len(closed)
        assert fallbacks and bodies

    def test_only_prefixes_have_removals(self, table_lang):
        with pytest.raises(HdalibError, match="is not a prefix"):
            prefix_row(table_lang, word("cc"))
        assert prefix_row(table_lang, word("ab", tgt=[1])) == ((1,), (word("a"),))
        assert prefix_row(table_lang, EMPTY) == ((), ())


class TestQuotientFamilies:
    def test_family_size_for_table_language(self, table_lang):
        fam = suffix_quotient_family(table_lang)
        assert len(fam) == 13
        assert frozenset() in {v for _, v in fam}

    def test_empty_language(self):
        fam = suffix_quotient_family(language([]))
        assert len(fam) == 1
        assert {v for _, v in fam} == {frozenset()}

    def test_single_letter(self):
        lang = language([word("a")])
        fam = suffix_quotient_family(lang)
        values = {v for _, v in fam}
        assert values == frozenset(
            {
                frozenset({word("a")}),
                frozenset({EMPTY}),
                frozenset({word("a", src=[0])}),
                frozenset(),
            }
        )


class TestEquivalences:
    def test_weak_but_not_strong(self, strongeq_lang):
        aa_open = word("aa", tgt=[1])
        ba_open = word("ba", tgt=[1])
        assert weak_equiv(aa_open, ba_open, strongeq_lang)
        assert not strong_equiv(aa_open, ba_open, strongeq_lang)

    def test_distinguishing_removal(self, strongeq_lang):
        # removing the open a leads to prefixes with different futures
        assert prefix_quotient(strongeq_lang, word("a")) == frozenset(
            {word("a"), word("b")}
        )
        assert prefix_quotient(strongeq_lang, word("b")) == frozenset({word("a")})

    def test_strong_equiv_reflexive(self, strongeq_lang):
        p = word("aa", tgt=[1])
        assert strong_equiv(p, p, strongeq_lang)

    def test_strong_implies_weak(self, table_lang):
        pres = sorted_ipomsets(prefixes(table_lang))
        for p, q in itertools.combinations(pres, 2):
            if strong_equiv(p, q, table_lang):
                assert weak_equiv(p, q, table_lang)

    def test_strong_equiv_respects_removal(self, table_lang):
        # removing the same removable targets preserves strong equivalence
        pres = sorted_ipomsets(prefixes(table_lang))
        for p, q in itertools.combinations(pres, 2):
            if not strong_equiv(p, q, table_lang):
                continue
            pt, qt = p.target_events(), q.target_events()
            rpos = [i for i, e in enumerate(pt) if e in rfin_events(p)]
            for k in range(1, len(rpos) + 1):
                for combo in itertools.combinations(rpos, k):
                    a = remove_targets(p, {pt[i] for i in combo})
                    b = remove_targets(q, {qt[i] for i in combo})
                    assert strong_equiv(a, b, table_lang)


class TestQuotientLaws:
    def test_monotone_under_subsumption(self, table_lang, strongeq_lang):
        for lang in (table_lang, strongeq_lang):
            pres = sorted_ipomsets(prefixes(lang))
            for p, q in itertools.permutations(pres, 2):
                if subsumes(p, q):
                    assert prefix_quotient(lang, q) <= prefix_quotient(lang, p)

    def test_extension_stability(self, table_lang):
        # equal quotients survive gluing the same continuation on the right
        pres = sorted_ipomsets(prefixes(table_lang))
        pairs = [
            (p, q)
            for p, q in itertools.combinations(pres, 2)
            if p.target_loset() == q.target_loset()
            and prefix_quotient(table_lang, p) == prefix_quotient(table_lang, q)
        ]
        for p, q in pairs:
            for r in prefix_quotient(table_lang, p):
                assert prefix_quotient(table_lang, glue(p, r)) == prefix_quotient(
                    table_lang, glue(q, r)
                )


class TestSwapInvariance:
    def test_table_language_not_invariant(self, table_lang):
        res = is_swap_invariant(table_lang)
        assert not res.invariant
        witness = (word("ab", tgt=[1]), par(("a", 0, 0), ("b", 0, 1)))
        assert witness in res.violations
        p, q = witness
        assert prefix_quotient(table_lang, p) == frozenset(
            {word("b", src=[0]), word("bc", src=[0])}
        )
        assert prefix_quotient(table_lang, q) == frozenset({word("b", src=[0])})

    def test_single_word_invariant(self):
        assert is_swap_invariant(language([word("ab")])).invariant

    def test_empty_language_invariant(self):
        assert is_swap_invariant(language([])).invariant

    def test_violations_are_real(self, table_lang):
        res = is_swap_invariant(table_lang)
        for p, q in res.violations:
            assert subsumes(p, q)
            assert prefix_quotient(table_lang, p) != prefix_quotient(table_lang, q)
        assert res.violations == oracle_swap_violations(table_lang)

    def test_random_languages_have_consistent_violations(self):
        rng = random.Random(31)
        for _ in range(10):
            lang = random_language(rng)
            res = is_swap_invariant(lang)
            for p, q in res.violations:
                assert subsumes(p, q)
                assert prefix_quotient(lang, p) != prefix_quotient(lang, q)
            assert res.violations == oracle_swap_violations(lang)


def _bucket(p):
    return (tuple(sorted(p.labels)), p.source_loset(), p.target_loset())


def _buckets_hit(violations):
    return len({_bucket(p) for p, _ in violations})


class TestSwapInvarianceOracle:
    """The filtered swap check gives exactly the all-pairs oracle's
    violation tuple, order included, on two corpora of small languages
    (the C8 language and seeded random ones are checked above)."""

    def test_every_single_generator_language(self, small_corpus, small_divisions):
        assert len(small_corpus) == 1273
        multi_bucket = 0
        for g in small_corpus:
            lang = language([g])
            got = is_swap_invariant(lang).violations
            assert got == oracle_swap_violations(lang, small_divisions.__getitem__), g
            multi_bucket += _buckets_hit(got) > 1
        assert multi_bucket > 0  # some languages break in several buckets

    def test_two_generator_slice(self, small_corpus, small_divisions):
        """40 distinct languages, each generated by two members of the
        small corpus drawn with a fixed seed; the swap verdict also equals
        the determinism of the Myhill-Nerode automaton, which verifies."""
        rng = random.Random(2026)
        langs, seen = [], set()
        while len(langs) < 40:
            lang = language(rng.sample(small_corpus, 2))
            if lang.members not in seen:
                seen.add(lang.members)
                langs.append(lang)
        verdicts = {True: 0, False: 0}
        multi_bucket = 0
        for lang in langs:
            res = is_swap_invariant(lang)
            assert res.violations == oracle_swap_violations(
                lang, small_divisions.__getitem__
            )
            mn = build_mn(lang)
            assert bool(res) == bool(is_deterministic(mn.hda))
            assert verify_mn(lang, mn).ok
            verdicts[bool(res)] += 1
            multi_bucket += _buckets_hit(res.violations) > 1
        assert verdicts[True] and verdicts[False] and multi_bucket
