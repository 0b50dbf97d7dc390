import gc
import itertools
import random
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import par, word
from oracles import oracle_refinements, oracle_strong_equiv
from random_gen import random_language

from hdalib import hda as hda_mod
from hdalib import ipomset as ipomset_mod
from hdalib import language as language_mod
from hdalib import myhill_nerode as mn_mod
from hdalib.errors import NotDownClosed
from hdalib.formats import (
    class_table,
    hda_to_text,
    ipomset_to_json,
    parse_expr,
    parse_hda,
    parse_lang,
)
from hdalib.hda import (
    Cell,
    accepting_paths,
    build_hda,
    enumerate_language,
    essential_report,
    ev_of_path,
    is_deterministic,
    member,
    validate,
)
from hdalib.ipomset import (
    TERMINATOR,
    apply_step,
    canonicalize,
    down_close,
    enumerate_divisions,
    fin,
    identity,
    remove_targets,
    sorted_ipomsets,
    sparse_decomposition,
)
from hdalib.language import (
    LanguageSet,
    class_key,
    is_swap_invariant,
    language,
    prefix_quotient,
    prefixes,
    strong_equiv,
    weak_equiv,
)
from hdalib.myhill_nerode import (
    REGULAR,
    SUBSIDIARY,
    MnCell,
    build_mn,
    verify_mn,
)


DATA = Path(__file__).resolve().parent.parent / "data"


def _data_and_random_languages(seeds=20):
    """``data/*.lang`` and seeded random languages, 20 by default."""
    langs = [parse_lang(path.read_text()) for path in sorted(DATA.glob("*.lang"))]
    return langs + [random_language(random.Random(seed)) for seed in range(seeds)]


# prefixes of the first two have three removable targets, so their keys
# are made in four rounds of the keying pass and an upper face's removals
# are found three calls deep; the third has two equal-labelled sources
DEEP_SHAPES = ("[a•|b•|c•]", "[ab•|c•|d•]", "[•a|•a|b•]")


@pytest.fixture(scope="module")
def table_lang():
    return language([par(("a", 0, 0), ("b", 0, 0)), word("abc")])


@pytest.fixture(scope="module")
def table_mn(table_lang):
    return build_mn(table_lang)


@pytest.fixture(scope="module")
def strongeq_lang():
    return language([par(("a", 0, 0), ("b", 0, 0)), word("aa")])


@pytest.fixture(scope="module")
def double_a_lang():
    member_ = canonicalize(
        "aaa", source=[0, 2], target=[1, 2], prec=[(0, 1)], evord=[(0, 2), (1, 2)]
    )
    return language([member_], closed=True)


class TestBuildShape:
    def test_requires_down_closed(self):
        raw = LanguageSet(
            members=frozenset({par(("a", 0, 0), ("b", 0, 0))}),
            alphabet=frozenset("ab"),
        )
        with pytest.raises(NotDownClosed):
            build_mn(raw)

    @pytest.mark.parametrize(
        "member, witness",
        [
            # one step below [a|b]: a before b
            (par(("a", 0, 0), ("b", 0, 0)), word("ab")),
            # two steps below [b|a|c]: a before both b and c, which no single
            # added pair gives, while one-step refinements are missing too
            (
                par(("b", 0, 0), ("a", 0, 0), ("c", 0, 0)),
                canonicalize("abc", prec=[(0, 1), (0, 2)], evord=[(1, 2)]),
            ),
        ],
    )
    def test_not_down_closed_names_least_missing_refinement(self, member, witness):
        missing = oracle_refinements(member) - {member}
        assert sorted_ipomsets(missing)[0] == witness
        want = f"missing refinement {witness!r}"
        raw = LanguageSet(members=frozenset({member}), alphabet=frozenset(member.labels))
        with pytest.raises(NotDownClosed) as built:
            build_mn(raw)
        with pytest.raises(NotDownClosed) as read:
            parse_lang(f"closed: true\nmembers:\n{member!r}\n")
        assert str(built.value) == str(read.value) == want

    @pytest.fixture
    def walks(self, monkeypatch):
        """The ipomsets whose refinements a closure or closedness check
        walks; ``down_close`` calls ``refinements`` by module global."""
        calls = []
        real = ipomset_mod.refinements
        monkeypatch.setattr(ipomset_mod, "refinements", lambda p: calls.append(p) or real(p))
        return calls

    def test_built_language_is_not_checked_again(self, walks):
        lang = language([par(("a", 0, 0), ("b", 0, 0)), word("abc")])
        walks.clear()
        build_mn(lang)
        assert walks == []

    def test_closed_input_is_checked_once(self, walks):
        top = par(("a", 0, 0), ("b", 0, 0), ("c", 0, 1))
        members = down_close([top])
        walks.clear()
        lang = language(members, closed=True)
        build_mn(lang)
        assert walks == [top]

    def test_hand_built_language_is_checked(self, walks):
        top = par(("a", 0, 0), ("b", 0, 0))
        lang = language([top])
        raw = LanguageSet(members=lang.members, alphabet=lang.alphabet)
        assert raw == lang
        walks.clear()
        build_mn(raw)
        assert walks == [top]

    def test_table_language_essential_part(self, table_mn):
        dims = {}
        for c in table_mn.cells.values():
            if c.essential:
                dims[len(c.loset)] = dims.get(len(c.loset), 0) + 1
        assert dims == {0: 5, 1: 6, 2: 1}

    def test_state_with_two_outgoing_edges(self, table_lang, table_mn):
        a_state = table_mn.cell_of(word("a"))
        seq = word("ab", tgt=[1])
        conc = canonicalize("ab", target=[1], evord=[(0, 1)])
        e1, e2 = table_mn.cell_of(seq), table_mn.cell_of(conc)
        assert e1 != e2
        for e in (e1, e2):
            cell = table_mn.hda.cells[e]
            assert cell.ev == ("b",)
            assert cell.lower[0] == a_state

    def test_start_and_accept(self, table_lang, table_mn):
        assert table_mn.hda.start == {table_mn.cell_of(identity(()))}
        assert table_mn.hda.accept == {
            table_mn.cell_of(m) for m in table_lang.members
        }

    def test_hda_is_valid(self, table_mn):
        assert validate(table_mn.hda).ok

    def test_deterministic_worklist_gives_stable_ids(self, table_lang, table_mn):
        again = build_mn(table_lang)
        assert again.hda.cells == table_mn.hda.cells
        assert {c.cell_id: c.representative for c in again.cells.values()} == {
            c.cell_id: c.representative for c in table_mn.cells.values()
        }

    def test_member_order_does_not_change_structure(self, table_lang, table_mn):
        # rebuild from a permuted generator set: same classes, same faces
        relisted = language(list(reversed(sorted_ipomsets(table_lang.members))))
        other = build_mn(relisted)

        def summary(mn):
            key_of = {cid: class_key(mn.lang, c.representative) if c.representative
                      else ("w", c.loset) for cid, c in mn.cells.items()}
            return {
                key_of[cid]: (
                    tuple(key_of[f] for f in cell.lower),
                    tuple(key_of[f] for f in cell.upper),
                    cid in mn.hda.start,
                    cid in mn.hda.accept,
                )
                for cid, cell in mn.hda.cells.items()
            }

        assert summary(other) == summary(table_mn)


class TestStrongEquivalenceCells:
    def test_open_edges_stay_distinct(self, strongeq_lang):
        mn = build_mn(strongeq_lang)
        aa_open = word("aa", tgt=[1])
        ba_open = word("ba", tgt=[1])
        assert mn.cell_of(aa_open) != mn.cell_of(ba_open)

    def test_edges_entering_shared_state(self, strongeq_lang):
        mn = build_mn(strongeq_lang)
        e1 = mn.hda.cells[mn.cell_of(word("aa", tgt=[1]))]
        e2 = mn.hda.cells[mn.cell_of(word("ba", tgt=[1]))]
        assert e1.lower[0] == mn.cell_of(word("a"))
        assert e2.lower[0] == mn.cell_of(word("b"))
        assert e1.upper[0] == e2.upper[0]  # both terminate in the accept class

    def test_verification(self, strongeq_lang):
        mn = build_mn(strongeq_lang)
        assert verify_mn(strongeq_lang, mn).ok


class TestInterfaceLanguage:
    def test_subsidiary_cells_present(self, double_a_lang):
        mn = build_mn(double_a_lang)
        kinds = {cid: c.kind for cid, c in mn.cells.items()}
        assert kinds.get("w_") == SUBSIDIARY
        assert kinds.get("w_a") == SUBSIDIARY
        # they appear as faces of regular cells
        faces = {
            f
            for cell in mn.hda.cells.values()
            for f in cell.lower + cell.upper
        }
        assert "w_" in faces and "w_a" in faces

    def test_start_and_accept_squares(self, double_a_lang):
        mn = build_mn(double_a_lang)
        start_cell = mn.cell_of(identity(("a", "a")))
        accept_cell = mn.cell_of(next(iter(double_a_lang.members)))
        assert mn.hda.start == {start_cell}
        assert mn.hda.accept == {accept_cell}
        assert len(mn.hda.cells[start_cell].ev) == 2
        assert len(mn.hda.cells[accept_cell].ev) == 2

    def test_identified_vertices(self, double_a_lang):
        mn = build_mn(double_a_lang)
        y1 = canonicalize("aa", source=[0, 1], evord=[(0, 1)])
        y2 = canonicalize(
            "aaa", source=[0, 2], prec=[(0, 1)], evord=[(0, 2), (1, 2)]
        )
        assert class_key(double_a_lang, y1) == class_key(double_a_lang, y2)
        assert mn.cell_of(y1) == mn.cell_of(y2)
        assert not mn.cells[mn.cell_of(y1)].essential

    def test_subsidiaries_not_accessible(self, double_a_lang):
        mn = build_mn(double_a_lang)
        acc = essential_report(mn.hda).accessible
        for cid, c in mn.cells.items():
            if c.kind == SUBSIDIARY:
                assert cid not in acc

    def test_verification(self, double_a_lang):
        mn = build_mn(double_a_lang)
        assert verify_mn(double_a_lang, mn).ok

    def test_multi_letter_labels_get_distinct_subsidiaries(self):
        # the losets (ab) and (a b) both join to "ab"
        lang = language([identity(("s", "ab")), identity(("s", "a", "b"))])
        mn = build_mn(lang)
        assert verify_mn(lang, mn).ok
        subs = {c.loset: cid for cid, c in mn.cells.items() if c.kind == SUBSIDIARY}
        assert subs[("ab",)] != subs[("a", "b")]
        assert {subs[("ab",)], subs[("a", "b")]} == {"w_ab", "w_ab~1"}
        again = parse_hda(hda_to_text(mn.hda))
        assert again.cells == mn.hda.cells


def _weak_not_strong(lang, pairs):
    """Check class-key equality against the strong-equivalence oracle on
    ``pairs``; return the pairs that are weakly but not strongly
    equivalent."""
    found = []
    for p, q in pairs:
        strong = oracle_strong_equiv(lang, p, q)
        assert (class_key(lang, p) == class_key(lang, q)) == strong, (p, q)
        assert strong_equiv(p, q, lang) == strong, (p, q)
        if weak_equiv(p, q, lang) and not strong:
            found.append((p, q))
    return found


class TestClassify:
    def test_key_equality_is_strong_equivalence(self, table_lang, strongeq_lang):
        found = []
        for lang in (table_lang, strongeq_lang):
            pres = sorted_ipomsets(prefixes(lang))
            found += _weak_not_strong(lang, itertools.product(pres, pres))
        # the corpus reaches a pair that only the removal quotients separate
        assert found

    def test_key_equality_on_random_languages(self):
        rng = random.Random(1313)
        found = []
        for _ in range(10):
            lang = random_language(rng)
            buckets: dict = {}
            for p in prefixes(lang):
                buckets.setdefault(p.target_loset(), []).append(p)
            pairs = [
                pair for ps in buckets.values() for pair in itertools.combinations(ps, 2)
            ]
            found += _weak_not_strong(lang, pairs)
        assert found

    def test_trivial_reflexivity(self, table_lang):
        p = word("ab")
        assert class_key(table_lang, p) == class_key(table_lang, p)


class TestClassKeyCells:
    """The cells of :func:`build_mn` against the reference :func:`class_key`."""

    def test_build_makes_no_class_key_call(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("class_key called")

        built = []
        with monkeypatch.context() as patch:
            patch.setattr(language_mod, "class_key", forbidden)
            patch.setattr(mn_mod, "class_key", forbidden)
            for lang in _data_and_random_languages():
                built.append(build_mn(lang))
        for mn in built:
            regular = {
                cid: class_key(mn.lang, c.representative)
                for cid, c in mn.cells.items()
                if c.kind == REGULAR
            }
            for p in prefixes(mn.lang):
                key = class_key(mn.lang, p)
                same = [cid for cid, k in regular.items() if k == key]
                assert same == [mn.cell_of(p)]
        # the map that cell_of fills takes no part in equality
        assert built[0] == build_mn(built[0].lang)

    def test_build_makes_no_step_call(self, monkeypatch):
        # upper faces drop a target with no step glued, and no class is
        # keyed by a decomposition; verify_mn decomposes the members
        def forbidden(*args):
            raise AssertionError("step built")

        langs = _data_and_random_languages()
        with monkeypatch.context() as patch:
            for mod, name in (
                (ipomset_mod, "apply_step"),
                (ipomset_mod, "sparse_decomposition"),
                (hda_mod, "apply_step"),
                (hda_mod, "sparse_decomposition"),
                (mn_mod, "sparse_decomposition"),
            ):
                patch.setattr(mod, name, forbidden)
            built = [(lang, build_mn(lang)) for lang in langs]
        for lang, mn in built:
            assert verify_mn(lang, mn).ok

    def test_build_makes_no_removal_call(self, monkeypatch):
        # keys read their removals from the division index; an upper face
        # takes its removals from its parent's
        def forbidden(*args):
            raise AssertionError("remove_targets called")

        faces_met = 0
        for expr in DEEP_SHAPES + ("[a|b]", "[ab•|c]", "[•a|b•|c]"):
            lang = language([parse_expr(expr)])
            pres = prefixes(lang)  # the index may close some removals itself
            with monkeypatch.context() as patch:
                for mod in (ipomset_mod, language_mod, mn_mod):
                    patch.setattr(mod, "remove_targets", forbidden, raising=False)
                mn = build_mn(lang)
            assert verify_mn(lang, mn).ok
            faces_met += sum(
                c.kind == REGULAR and c.representative not in pres for c in mn.cells.values()
            )
        assert faces_met

    def test_cells_are_the_class_key_classes(self):
        deepest = 0
        langs = _data_and_random_languages()
        for lang in langs + [language([parse_expr(e)]) for e in DEEP_SHAPES]:
            mn = build_mn(lang)
            cell_of_key: dict = {}
            for cid, c in mn.cells.items():
                if c.kind == REGULAR:
                    key = class_key(lang, c.representative)
                    cell_of_key.setdefault(key, []).append(cid)
            assert all(len(ids) == 1 for ids in cell_of_key.values())
            for cid, c in mn.cells.items():
                if c.kind != REGULAR:
                    continue
                p = c.representative
                deepest = max(deepest, len(fin(p).active))
                cell = mn.hda.cells[cid]
                for pos, e in enumerate(p.target_events()):
                    if e in p.source:
                        assert mn.cells[cell.lower[pos]].kind == SUBSIDIARY
                    else:
                        face = remove_targets(p, [e])
                        assert cell_of_key[class_key(lang, face)] == [cell.lower[pos]]
                    face = apply_step(p, TERMINATOR, c.loset, [pos])
                    assert cell_of_key[class_key(lang, face)] == [cell.upper[pos]]
            for p in prefixes(lang):
                assert class_key(lang, p) in cell_of_key
        assert deepest >= 3


class TestQuotientsStayInTheIndex:
    """``build_mn`` sorts only its prefixes; the class table reads each
    cell's quotient from the language's index."""

    def test_build_sorts_only_the_prefixes(self, monkeypatch):
        calls = []
        real = mn_mod.sorted_ipomsets
        monkeypatch.setattr(mn_mod, "sorted_ipomsets", lambda xs: calls.append(xs) or real(xs))
        for lang in _data_and_random_languages(60):
            calls.clear()
            build_mn(lang)
            assert len(calls) == 1

    def test_class_table_reads_the_index(self):
        for lang in _data_and_random_languages(60):
            mn = build_mn(lang)
            table = class_table(mn)["cells"]
            for cid, c in mn.cells.items():
                rep = c.representative
                qs = [] if c.kind == SUBSIDIARY else sorted_ipomsets(prefix_quotient(lang, rep))
                assert table[cid]["quotient"] == [ipomset_to_json(q) for q in qs]
                assert c.essential == bool(qs)


class TestNoCycles:
    def test_pipeline_leaves_no_cyclic_garbage(self):
        # every object the pipeline makes is freed by reference counting:
        # no self-calling closure, no cycle through a cached view
        langs = [parse_lang(path.read_text()) for path in sorted(DATA.glob("*.lang"))]
        exprs = ["[a|b|c|d]", "[ab•|c•|d•]"]
        rngs = [random.Random(seed) for seed in range(10)]
        gc.collect()
        gc.disable()
        try:
            for lang in langs + [language([parse_expr(e)]) for e in exprs] + [
                random_language(rng) for rng in rngs
            ]:
                prefixes(lang)
                is_swap_invariant(lang)
                mn = build_mn(lang)
                is_deterministic(mn.hda)
                assert verify_mn(lang, mn).ok
            del lang, mn
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestVerify:
    def test_table_language(self, table_lang, table_mn):
        rep = verify_mn(table_lang, table_mn)
        assert rep.ok and rep.language_ok and rep.essential_ok and rep.valid_ok

    def test_fault_injection_dropped_accept(self, table_lang, table_mn):
        # drop the accept class of ba; no other accepting path produces it
        dropped = table_mn.cell_of(word("ba"))
        crippled = build_hda(
            table_mn.hda.cells.values(),
            table_mn.hda.start,
            table_mn.hda.accept - {dropped},
        )
        broken = type(table_mn)(
            hda=crippled, cells=table_mn.cells, lang=table_lang,
            _by_key=table_mn._by_key,
        )
        rep = verify_mn(table_lang, broken)
        assert not rep.ok
        assert rep.missing

    def test_paths_read_their_decomposition(self):
        # what verify_mn's trie walk rests on: sparse decompositions are unique,
        # so a sparse accepting path reads exactly the decomposition of its
        # event ipomset
        hdas = [parse_hda(path.read_text()) for path in sorted(DATA.glob("*.hda"))]
        hdas += [build_mn(lang).hda for lang in _data_and_random_languages()]
        paths = 0
        for x in hdas:
            for path in accepting_paths(x, 8):
                reading = tuple(
                    hda_mod._reading(x, path.cells[k], path.cells[k + 1], st)
                    for k, st in enumerate(path.steps)
                )
                seq = sparse_decomposition(ev_of_path(x, path))
                assert (x.cells[path.cells[0]].ev, reading) == seq, path
                paths += 1
        assert len(hdas) == 26 and paths >= 200

    def test_correct_automata_fold_no_path(self, table_lang, monkeypatch):
        # every accepting path of a correct automaton reads a member's
        # sparse decomposition, so verify_mn recognises it and folds none
        def forbidden(*args):
            raise AssertionError("path folded")

        langs = _data_and_random_languages() + [table_lang]
        built = [(lang, build_mn(lang)) for lang in langs]
        monkeypatch.setattr(hda_mod, "apply_step", forbidden)
        for lang, mn in built:
            assert verify_mn(lang, mn).ok

    def test_wrong_automata_report_exact_differences(self, table_lang):
        # paths outside the table are folded, so missing and extra are
        # exactly the differences with the enumerated language
        extras = missing = 0
        for lang in _data_and_random_languages()[:12] + [table_lang]:
            mn = build_mn(lang)
            bound = max(len(sparse_decomposition(m).steps) for m in lang.members)
            outside = sorted(
                cid
                for cid, c in mn.cells.items()
                if c.kind == REGULAR and c.representative not in lang.members
            )
            wrong = [mn.hda.accept - {min(mn.hda.accept)}]
            wrong += [mn.hda.accept | {cid} for cid in outside[:2]]
            for accept in wrong:
                broken = replace(mn, hda=replace(mn.hda, accept=accept))
                rep = verify_mn(lang, broken)
                found = enumerate_language(broken.hda, bound)
                assert rep.missing == tuple(sorted_ipomsets(lang.members - found))
                assert rep.extra == tuple(sorted_ipomsets(found - lang.members))
                assert rep.language_ok == (not rep.missing and not rep.extra)
                extras += bool(rep.extra)
                missing += bool(rep.missing)
        assert extras >= 10 and missing >= 10

    @staticmethod
    def _with_cells(mn, cells, start=()):
        """mn with more regular cells, each marked essential, and more start
        cells."""
        x = mn.hda
        hda = build_hda([*x.cells.values(), *cells], x.start | set(start), x.accept)
        more = {c.name: MnCell(c.name, REGULAR, c.ev, parse_expr("a"), True) for c in cells}
        return replace(mn, hda=hda, cells={**mn.cells, **more})

    def test_extra_beyond_the_members_bound(self):
        # a b-edge from the accept cell back to the start cell: aba takes 6
        # steps, and the longest member takes 2
        lang = language([parse_expr("a")])
        loop = self._with_cells(build_mn(lang), [Cell("back", ("b",), ("q1",), ("q0",))])
        assert validate(loop.hda).ok
        assert enumerate_language(loop.hda, 2) == lang.members
        rep = verify_mn(lang, loop)
        assert not rep.ok and not rep.language_ok and rep.essential_ok
        assert rep.extra == (parse_expr("aba"),) and rep.missing == ()

    def test_extra_from_a_start_cell_of_another_loset(self):
        # no member starts with a running b, and the one accepting path from
        # the new start cell s that reads •ba is longer than any member's
        lang = language([parse_expr("a")])
        cells = [
            Cell("w", ()),
            Cell("s", ("b",), ("w",), ("w",)),
            Cell("e", ("a",), ("w",), ("q1",)),
        ]
        other = self._with_cells(build_mn(lang), cells, start=["s"])
        assert validate(other.hda).ok
        rep = verify_mn(lang, other)
        assert not rep.ok and not rep.language_ok
        assert rep.extra == (parse_expr("•ba"),) and rep.missing == ()

    def test_accept_cell_at_an_inner_trie_node(self):
        # q2 is reached by the starter of a, which is no member's whole
        # decomposition: accepting it adds a• and loses nothing
        lang = language([parse_expr("a")])
        mn = build_mn(lang)
        assert mn.hda.cells["q2"].ev == ("a",)
        inner = replace(mn, hda=replace(mn.hda, accept=mn.hda.accept | {"q2"}))
        rep = verify_mn(lang, inner)
        assert not rep.ok and not rep.language_ok
        assert rep.extra == (parse_expr("a•"),) and rep.missing == ()

    def test_escape_is_a_shortest_extra(self):
        # an edge added between two vertices: compare_language's escape is
        # the fewest steps of an accepting path that folds to no member,
        # however far beyond the members' bound it lies
        rng = random.Random(26)
        beyond = 0
        for lang in _data_and_random_languages():
            x = build_mn(lang).hda
            seqs = [sparse_decomposition(m) for m in lang.members]
            vertices = sorted(c.name for c in x.cells.values() if not c.ev)
            a, b = rng.choice(vertices), rng.choice(vertices)
            y = build_hda([*x.cells.values(), Cell("new", ("a",), (a,), (b,))], x.start, x.accept)
            _, escape = hda_mod.compare_language(y, seqs)
            if escape is None:
                assert enumerate_language(y, 12) <= lang.members
                continue
            assert enumerate_language(y, escape) - lang.members
            assert enumerate_language(y, escape - 1) <= lang.members
            beyond += escape > max(len(seq.steps) for seq in seqs)
        assert beyond

    def test_member_paths_exist_per_division(self, table_lang, table_mn):
        # every split M = N*P gives a path from [N] to [N*P] labelled P
        for m in sorted_ipomsets(table_lang.members):
            for n_part, p_part in enumerate_divisions(m):
                src = table_mn.cell_of(n_part)
                tgt = table_mn.cell_of(m)
                ends = replace(table_mn.hda, start=frozenset({src}), accept=frozenset({tgt}))
                w = member(ends, p_part)
                assert w is not None


class TestDeterminismAgreement:
    def test_swap_invariance_matches_determinism(self):
        rng = random.Random(424242)
        for _ in range(25):
            lang = random_language(rng)
            mn = build_mn(lang)
            assert bool(is_swap_invariant(lang)) == bool(
                is_deterministic(mn.hda).deterministic
            )

    def test_roundtrip_on_random_languages(self):
        rng = random.Random(515151)
        for _ in range(25):
            lang = random_language(rng)
            assert verify_mn(lang, build_mn(lang)).ok

    def test_nondeterministic_family(self):
        rng = random.Random(6161)
        for _ in range(8):
            x, y = rng.sample("abcd", 2)
            tail = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 2)))
            lang = language(
                [canonicalize([x, y], evord=[(0, 1)]), word(x + y + tail)]
            )
            mn = build_mn(lang)
            assert not is_swap_invariant(lang).invariant
            assert not is_deterministic(mn.hda).deterministic
            assert verify_mn(lang, mn).ok
