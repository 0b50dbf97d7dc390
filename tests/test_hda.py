import itertools
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import n_shape, par, word
from oracles import (
    oracle_accepting_paths,
    oracle_determinism,
    oracle_ev_of_path,
    oracle_reachability,
)
from random_gen import random_language

from hdalib import hda as hda_mod
from hdalib import ipomset as ipomset_mod
from hdalib.errors import (
    AxiomViolation,
    FaceTypingError,
    InterfaceMismatch,
)
from hdalib.formats import parse_hda, parse_lang
from hdalib.hda import (
    DOWN,
    LOWER,
    UP,
    UPPER,
    Cell,
    Path as HdaPath,
    PathStep,
    accepting_paths,
    build_hda,
    check_path,
    composite_face,
    enumerate_language,
    essential_report,
    ev_of_path,
    is_deterministic,
    member,
    validate,
)
from hdalib.ipomset import (
    Ipomset,
    apply_step,
    canonicalize,
    down_close,
    glue,
    identity,
    sparse_decomposition,
)
from hdalib.myhill_nerode import SUBSIDIARY, build_mn, verify_mn

DATA = Path(__file__).resolve().parent.parent / "data"
DATA_HDAS = sorted(p.name for p in DATA.glob("*.hda"))
DATA_LANGS = sorted(p.name for p in DATA.glob("*.lang"))


@pytest.fixture(scope="module")
def chain():
    return parse_hda((DATA / "chain3squares.hda").read_text())


@pytest.fixture(scope="module")
def loop():
    return parse_hda((DATA / "loop_ab.hda").read_text())


@pytest.fixture(scope="module")
def mn_slice():
    """The MN automata of 12 seeded random languages, with dead,
    inaccessible and subsidiary cells and a branch clash."""
    rng = random.Random(3)
    return [build_mn(random_language(rng, max_members=20)) for _ in range(12)]


def with_c_upper(face):
    """An edge c from s whose upper face is ``face``, beside an edge d
    from s to the accept cell t: zz names no cell, d is not a vertex."""
    return build_hda(
        [
            Cell("s", ()),
            Cell("t", ()),
            Cell("c", ("a",), ("s",), (face,)),
            Cell("d", ("b",), ("s",), ("t",)),
        ],
        start=["s"],
        accept=["t"],
    )


def up(*positions):
    return PathStep(UP, frozenset(positions))


def down(*positions):
    return PathStep(DOWN, frozenset(positions))


class TestValidate:
    def test_square_valid(self, square):
        assert validate(square).ok

    def test_empty_valid(self):
        assert validate(build_hda([], [], [])).ok

    def test_missing_face_entry(self):
        x = build_hda([Cell("v", ()), Cell("e", ("a",), ("v",), ())], ["v"], ["v"])
        rep = validate(x)
        assert not rep.ok
        assert rep.problems == ("cell e: face lists must cover every position",)

    def test_wrong_loset_type(self):
        x = build_hda(
            [Cell("v", ()), Cell("b1", ("b",), ("v",), ("v",)),
             Cell("e", ("a",), ("b1",), ("v",))],
            ["v"], ["v"],
        )
        assert not validate(x).ok

    def test_identity_violation(self, square):
        # reroute one square corner so the two singleton routes disagree
        cells = dict(square.cells)
        cells["g"] = Cell("g", ("b",), ("v",), ("w",))  # δ¹_b(g) now w, not x
        broken = build_hda(cells.values(), square.start, square.accept)
        rep = validate(broken)
        assert not rep.ok
        assert rep.problems == ("cell q: d0(1) and d1(2) do not commute (x vs w)",)


class TestCompositeFaces:
    def test_square_corners(self, square):
        assert composite_face(square, "q", LOWER, [0, 1]) == "v"
        assert composite_face(square, "q", UPPER, [0, 1]) == "y"

    def test_empty_positions(self, square):
        assert composite_face(square, "x", UPPER, []) == "x"

    def test_out_of_range(self, square):
        with pytest.raises(FaceTypingError):
            composite_face(square, "q", LOWER, [5])

    def test_order_independence(self, square):
        a = composite_face(
            square, composite_face(square, "q", LOWER, [1]), LOWER, [0]
        )
        b = composite_face(
            square, composite_face(square, "q", LOWER, [0]), LOWER, [0]
        )
        assert a == b == "v"


class TestPathsAndEv:
    def test_square_filled_path(self, square):
        p = HdaPath(cells=("v", "q", "y"), steps=(up(0, 1), down(0, 1)))
        check_path(square, p)
        assert ev_of_path(square, p) == par(("a", 0, 0), ("b", 0, 0))

    def test_interleaving_with_open_tail(self, square):
        p = HdaPath(
            cells=("v", "e", "w", "h"), steps=(up(0), down(0), up(0))
        )
        check_path(square, p)
        assert ev_of_path(square, p) == word("ab", tgt=[1])

    def test_trivial_path_is_identity(self, square):
        p = HdaPath(cells=("h",), steps=())
        assert ev_of_path(square, p) == identity(("b",))

    def test_bad_path_rejected(self, square):
        p = HdaPath(cells=("v", "f"), steps=(up(0),))
        with pytest.raises(FaceTypingError):
            check_path(square, p)

    def test_merge_two_upsteps(self, square):
        # a path that is not sparse reads the event ipomset of its sparse form
        p = HdaPath(cells=("v", "e", "q"), steps=(up(0), up(1)))
        check_path(square, p)
        n = HdaPath(cells=("v", "q"), steps=(up(0, 1),))
        assert ev_of_path(square, p) == ev_of_path(square, n)

    def test_merge_two_downsteps(self, square):
        p = HdaPath(cells=("q", "f", "y"), steps=(down(1), down(0)))
        check_path(square, p)
        n = HdaPath(cells=("q", "y"), steps=(down(0, 1),))
        assert ev_of_path(square, p) == ev_of_path(square, n)

    def test_accepting_paths_are_sparse(self, square):
        # no empty step, and no two steps of one kind in a row
        for p in accepting_paths(square, 8):
            assert all(st.positions for st in p.steps)
            assert all(a.kind != b.kind for a, b in zip(p.steps, p.steps[1:]))

    def test_empty_steps_dropped(self, square):
        p = HdaPath(cells=("v", "v", "e"), steps=(up(), up(0)))
        check_path(square, p)
        n = HdaPath(cells=("v", "e"), steps=(up(0),))
        assert ev_of_path(square, p) == ev_of_path(square, n)

    def test_segment_evs_form_sparse_decomposition(self, square):
        for p in accepting_paths(square, 8):
            whole = ev_of_path(square, p)
            seq = sparse_decomposition(whole)
            segments = []
            for k, st in enumerate(p.steps):
                big = square.cells[p.cells[k + 1 if st.kind == UP else k]]
                segments.append((st.kind == UP, big.ev, st.positions))
            expect = [
                (s.kind == "starter", s.loset, s.active) for s in seq.steps
            ]
            assert segments == expect


class TestEssential:
    def test_square_everything_essential(self, square):
        rep = essential_report(square)
        assert rep.essential == frozenset(square.cells)

    def test_matches_reachability_oracle(self, square, chain, loop, mn_slice):
        dead = inaccessible = 0
        for x in (square, chain, loop, *(mn.hda for mn in mn_slice)):
            fwd, bwd = oracle_reachability(x)
            rep = essential_report(x)
            assert rep.accessible == fwd
            assert rep.coaccessible == bwd
            assert rep.essential == fwd & bwd
            dead += len(x.cells.keys() - bwd)
            inaccessible += len(x.cells.keys() - fwd)
        assert dead and inaccessible
        assert any(c.kind == SUBSIDIARY for mn in mn_slice for c in mn.cells.values())

    def test_chain_bottom_row_inaccessible(self, chain):
        rep = essential_report(chain)
        for name in ("p00", "p20", "p40", "ea0", "ec0"):
            assert name not in rep.accessible

    def test_no_accept_means_nothing_essential(self, square):
        x = build_hda(square.cells.values(), square.start, [])
        assert essential_report(x).essential == frozenset()


class TestMember:
    def test_interleaving_witness(self, square):
        ba = word("ba")
        path = member(square, ba)
        assert path == HdaPath(
            cells=("v", "g", "x", "f", "y"), steps=(up(0), down(0), up(0), down(0))
        )
        assert ev_of_path(square, path) == ba

    def test_open_tail_rejected(self, square):
        assert member(square, word("ba", tgt=[1])) is None

    def test_foreign_label_rejected(self, square):
        assert member(square, word("c")) is None

    def test_all_language_members_accepted(self, square):
        for p in enumerate_language(square, 8):
            w = member(square, p)
            assert w is not None
            assert ev_of_path(square, w) == p

    @pytest.mark.parametrize("name", DATA_HDAS)
    def test_witnesses_read_the_decomposition(self, name):
        # a witness is a path of the automaton that folds to p, with one
        # step per step of p's sparse decomposition
        x = parse_hda((DATA / name).read_text())
        members = enumerate_language(x, 8)
        for p in members:
            w = member(x, p)
            check_path(x, w)
            assert ev_of_path(x, w) == p
            assert len(w.steps) == len(sparse_decomposition(p).steps)
        assert members

    def test_first_of_two_witnesses(self):
        # two a-edges from v: the search takes e1, listed first, unless only
        # e2's upper face is a target
        x = build_hda(
            [
                Cell("v", ()),
                Cell("w1", ()),
                Cell("w2", ()),
                Cell("e1", ("a",), ("v",), ("w1",)),
                Cell("e2", ("a",), ("v",), ("w2",)),
            ],
            start=["v"],
            accept=["w1", "w2"],
        )
        assert member(x, word("a")) == HdaPath(("v", "e1", "w1"), (up(0), down(0)))
        assert member(replace(x, accept=frozenset({"w2"})), word("a")) == HdaPath(
            ("v", "e2", "w2"), (up(0), down(0))
        )

    def test_member_reads_only_moves_shaped_like_the_next_step(self, loop, monkeypatch):
        # a move is read only when its kind and positions are those of
        # the node's child.  On loop_ab the walk keeps one state per step
        # of the query, and at most two moves out of a state have the
        # child's shape (an a-edge and a b-edge start at each vertex)
        members = sorted(enumerate_language(loop, 8), key=Ipomset.sort_key)
        reads = []
        real = hda_mod._reading
        monkeypatch.setattr(hda_mod, "_reading", lambda *a: reads.append(a) or real(*a))
        for p in members:
            reads.clear()
            assert member(loop, p) is not None
            assert len(reads) <= 2 * len(sparse_decomposition(p).steps)
        assert len(members) > 20 and len(reads) > 8

    def test_witness_split_along_divisions(self, square):
        # a path for a glued ipomset splits into paths for the two parts
        from hdalib.ipomset import enumerate_divisions

        anywhere = replace(square, accept=frozenset(square.cells))
        for m in enumerate_language(square, 8):
            for p, q in enumerate_divisions(m):
                first = member(anywhere, p)
                assert first is not None
                rest = member(replace(square, start=frozenset({first.cells[-1]})), q)
                assert rest is not None


class TestEnumerateLanguage:
    def test_square_language(self, square):
        got = enumerate_language(square, 8)
        expect = {
            par(("a", 0, 0), ("b", 0, 1)),
            word("ab", tgt=[1]),
            par(("a", 0, 0), ("b", 0, 0)),
            word("ab"),
            word("ba"),
        }
        assert got == frozenset(expect)

    def test_square_has_five_sparse_paths(self, square):
        paths = accepting_paths(square, 8)
        assert len(paths) == 5
        expect = {
            HdaPath(("v", "e", "w", "h"), (up(0), down(0), up(0))),
            HdaPath(("v", "e", "w", "h", "y"), (up(0), down(0), up(0), down(0))),
            HdaPath(("v", "q", "h"), (up(0, 1), down(0))),
            HdaPath(("v", "q", "y"), (up(0, 1), down(0, 1))),
            HdaPath(("v", "g", "x", "f", "y"), (up(0), down(0), up(0), down(0))),
        }
        assert set(paths) == expect

    def test_chain_language_is_down_closure(self, chain):
        got = enumerate_language(chain, 10)
        assert got == down_close([n_shape()])

    def test_language_is_down_closed(self, square, chain):
        for x in (square, chain):
            lang = enumerate_language(x, 10)
            assert down_close(lang) == lang

    def test_loop_bounded_members(self, loop):
        one = canonicalize(
            "aab", source=[0], target=[1], prec=[(0, 1)], evord=[(0, 2), (1, 2)]
        )
        dot_a = canonicalize("a", source=[0], target=[0])
        lang = enumerate_language(loop, 8)
        assert dot_a in lang
        assert one in lang
        assert glue(one, one) in enumerate_language(loop, 10)

    @pytest.mark.parametrize("name", DATA_HDAS)
    def test_matches_oracle_on_data_files(self, name):
        x = parse_hda((DATA / name).read_text())
        for bound in range(11):
            check_language_against_oracle(x, bound)

    def test_paths_that_read_alike_are_folded_once(self, monkeypatch):
        # two a-edges from v to w: both paths read one starter, then one
        # terminator, so each of the two steps is folded once
        x = build_hda(
            [
                Cell("v", ()),
                Cell("w", ()),
                Cell("e1", ("a",), ("v",), ("w",)),
                Cell("e2", ("a",), ("v",), ("w",)),
            ],
            start=["v"],
            accept=["w"],
        )
        calls = []

        def counted(*args):
            calls.append(args)
            return apply_step(*args)

        monkeypatch.setattr(hda_mod, "apply_step", counted)
        assert enumerate_language(x, 4) == {word("a")}
        assert len(calls) == 2

    def test_dead_branches_are_not_folded(self, monkeypatch):
        # the square alone accepting: v ↑e and v ↑g are one up step from q
        # by distance, so the walk reads them, but a sparse path goes down
        # after an up step, so no accepting path extends them.  Only the
        # step v ↑q is folded; folding every node read would take 3 calls
        text = (DATA / "square2d.hda").read_text().replace("accept: h y ;", "accept: q ;")
        x = parse_hda(text)
        calls = []

        def counted(*args):
            calls.append(args)
            return apply_step(*args)

        monkeypatch.setattr(hda_mod, "apply_step", counted)
        assert enumerate_language(x, 2) == {par(("a", 0, 1), ("b", 0, 1))}
        assert len(calls) == 1
        check_language_against_oracle(x, 4)

    def test_matches_oracle_on_mn_automata(self, mn_slice):
        for mn in mn_slice:
            b = max(len(sparse_decomposition(m).steps) for m in mn.lang.members)
            for bound in range(b + 3):
                check_language_against_oracle(mn.hda, bound)

    def test_down_step_from_another_loset_is_a_mismatch(self, square):
        # terminating b in q leaves a, but the next step leaves h, a b; the
        # message is the one the glue fold raises
        path = HdaPath(("q", "h", "y"), (down(1), down(0)))
        with pytest.raises(InterfaceMismatch) as want:
            oracle_ev_of_path(square, path)
        with pytest.raises(InterfaceMismatch) as got:
            ev_of_path(square, path)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "target loset ('a',) does not match source loset ('b',)"
        # positions out of range are named first, as the terminator does
        path = HdaPath(("q", "h", "y"), (down(1), down(1)))
        for fold in (oracle_ev_of_path, ev_of_path):
            with pytest.raises(AxiomViolation, match="^terminator positions out of range$"):
                fold(square, path)

    def test_fold_makes_no_glue_or_canonicalize_call(self, square, monkeypatch):
        automata = [parse_hda((DATA / name).read_text()) for name in DATA_HDAS]
        automata += [
            build_mn(parse_lang((DATA / name).read_text())).hda for name in DATA_LANGS
        ]
        # non-sparse paths: two up steps in a row, then two down steps.  The
        # second up step starts events in the group of one started just
        # before, which apply_step puts in order without a glue
        detours = [
            HdaPath(("v", "e", "q"), (up(0), up(1))),
            HdaPath(("v", "g", "q", "f", "y"), (up(0), up(0), down(1), down(0))),
            HdaPath(("v", "e", "q", "h", "y"), (up(0), up(1), down(0), down(0))),
        ]
        for path in detours:
            check_path(square, path)
        detour_evs = [oracle_ev_of_path(square, path) for path in detours]
        paths = [(x, p) for x in automata for p in accepting_paths(x, 8)]
        evs = [oracle_ev_of_path(x, p) for x, p in paths]
        langs = [frozenset(ev for (y, _), ev in zip(paths, evs) if y is x) for x in automata]

        def refuse(*_args, **_kwargs):
            raise AssertionError("the path fold glued or canonicalized")

        # canonicalize runs _close_and_check however it is imported, and
        # glue is refused by name
        for name in ("glue", "canonicalize", "_close_and_check"):
            monkeypatch.setattr(ipomset_mod, name, refuse)
        assert [ev_of_path(square, path) for path in detours] == detour_evs
        assert [ev_of_path(x, p) for x, p in paths] == evs
        assert [enumerate_language(x, 8) for x in automata] == langs
        assert len(automata) == len(DATA_HDAS) + len(DATA_LANGS) == 6


def check_language_against_oracle(x, bound):
    """enumerate_language and ev_of_path against the glue fold of every
    path of the uncut path oracle."""
    paths = oracle_accepting_paths(x, bound)
    evs = [oracle_ev_of_path(x, p) for p in paths]
    assert [ev_of_path(x, p) for p in paths] == evs
    assert enumerate_language(x, bound) == frozenset(evs)


class TestAcceptingPaths:
    @pytest.mark.parametrize("name", DATA_HDAS)
    def test_matches_oracle_on_data_files(self, name):
        x = parse_hda((DATA / name).read_text())
        for bound in range(11):
            assert accepting_paths(x, bound) == oracle_accepting_paths(x, bound)

    def test_matches_oracle_on_mn_automata(self, mn_slice):
        empty_below_shortest = dead_cells = subsidiary = 0
        for mn in mn_slice:
            b = max(len(sparse_decomposition(m).steps) for m in mn.lang.members)
            for bound in range(b + 3):
                got = accepting_paths(mn.hda, bound)
                assert got == oracle_accepting_paths(mn.hda, bound)
                empty_below_shortest += not got
            dead_cells += len(mn.hda.cells.keys() - essential_report(mn.hda).coaccessible)
            subsidiary += sum(c.kind == SUBSIDIARY for c in mn.cells.values())
        # the cut is exercised: bounds that reach no accept cell, and cells
        # from which no accept cell can be reached at all
        assert empty_below_shortest and dead_cells and subsidiary

    def test_bound_below_shortest_path(self, square):
        assert accepting_paths(square, 0) == accepting_paths(square, 1) == []
        assert accepting_paths(square, 2) == [
            HdaPath(("v", "q", "h"), (up(0, 1), down(0))),
            HdaPath(("v", "q", "y"), (up(0, 1), down(0, 1))),
        ]

    def test_long_paths_need_no_recursion(self):
        # one a-edge from v to itself: an accepting path for every even length
        x = parse_hda(
            "hda x { cell v: [] ; cell e: [a] d0(1)=v d1(1)=v ; start: v ; accept: v ; }"
        )
        paths = accepting_paths(x, 1100)
        assert len(paths) == 551 and len(paths[-1].steps) == 1100

    def test_undefined_face_is_a_typing_error_at_every_bound(self):
        # the faces are checked before any search, so the bound is moot
        x = with_c_upper("zz")
        for bound in range(-1, 5):
            with pytest.raises(FaceTypingError, match="face 'zz' undefined"):
                accepting_paths(x, bound)


class TestStepIndex:
    @pytest.mark.parametrize(
        "x, message",
        [
            (with_c_upper("zz"), "cell c: face 'zz' undefined"),
            (with_c_upper("d"), "cell c: d1(1) has loset ('b',), expected ()"),
            # is_deterministic reads the start cells' losets, after the check
            (
                build_hda([Cell("v", ())], start=["zz"], accept=["v"]),
                "start/accept cell 'zz' undefined",
            ),
        ],
        ids=["zz", "d", "start"],
    )
    def test_malformed_faces_fail_every_search(self, x, message):
        assert not validate(x).ok
        for search in (
            lambda: enumerate_language(x, 4),
            lambda: accepting_paths(x, 4),
            lambda: member(x, word("b")),
            lambda: essential_report(x),
            lambda: is_deterministic(x),
        ):
            with pytest.raises(FaceTypingError, match=f"^{re.escape(message)}$"):
                search()

    def test_member_queries_share_one_index(self, monkeypatch):
        text = (DATA / "loop_ab.hda").read_text()
        words = sorted(enumerate_language(parse_hda(text), 8), key=Ipomset.sort_key)
        x = parse_hda(text)
        builds = []
        real = hda_mod._face_typing  # the index checks the faces once, first
        monkeypatch.setattr(hda_mod, "_face_typing", lambda x: builds.append(x) or real(x))
        for p in words:
            assert member(x, p) is not None
        assert builds == [x] and len(words) > 1
        assert x._index == build_hda(x.cells.values(), x.start, x.accept)._index

    def test_checks_share_one_typing_and_backward_search(self, monkeypatch):
        # the determinism check, verification and validation of one
        # automaton type its faces once, search forward from its start
        # cells once and back from its accept cells once, and verification
        # walks the members' trie once
        lang = parse_lang((DATA / "par_ab_abc.lang").read_text())
        mn = build_mn(lang)
        searches, typings = [], []
        real_bfs, real_typing = hda_mod._bfs, hda_mod._face_typing
        monkeypatch.setattr(hda_mod, "_bfs", lambda *a: searches.append(a) or real_bfs(*a))
        monkeypatch.setattr(
            hda_mod, "_face_typing", lambda x: typings.append(x) or real_typing(x)
        )
        assert is_deterministic(mn.hda) == is_deterministic(mn.hda)
        assert verify_mn(lang, mn).ok
        assert (len(searches), typings) == (3, [mn.hda])
        assert essential_report(mn.hda) is essential_report(mn.hda)


class TestDeterminism:
    @pytest.mark.parametrize("name", DATA_HDAS)
    def test_matches_oracle_on_data_files(self, name):
        x = parse_hda((DATA / name).read_text())
        assert is_deterministic(x) == oracle_determinism(x)

    def test_matches_oracle_on_mn_automata(self, mn_slice):
        reports = [is_deterministic(mn.hda) for mn in mn_slice]
        assert reports == [oracle_determinism(mn.hda) for mn in mn_slice]
        assert any(rep.branch_clashes for rep in reports)

    def test_square_deterministic(self, square):
        rep = is_deterministic(square)
        assert rep.deterministic
        # brute check over essential cells
        ess = essential_report(square).essential
        seen = {}
        for name in ess:
            c = square.cells[name]
            for r in range(1, c.dim + 1):
                for combo in itertools.combinations(range(c.dim), r):
                    base = composite_face(square, name, LOWER, combo)
                    if base in ess:
                        key = (base, c.ev, combo)
                        assert key not in seen, (seen[key], name)
                        seen[key] = name

    def test_two_start_cells_same_type(self, square):
        x = build_hda(square.cells.values(), ["v", "w"], square.accept)
        rep = is_deterministic(x)
        assert not rep.deterministic
        assert rep.start_clashes == ((),)

    def test_parallel_edges_detected(self):
        x = build_hda(
            [
                Cell("s", ()),
                Cell("t", ()),
                Cell("e1", ("a",), ("s",), ("t",)),
                Cell("e2", ("a",), ("s",), ("t",)),
            ],
            ["s"],
            ["t"],
        )
        rep = is_deterministic(x)
        assert not rep.deterministic
        assert rep.branch_clashes == (("s", (0,), "e1", "e2"),)

    def test_clash_at_the_first_essential_cell(self):
        # a0 sorts first among the essential cells, so a loop over the
        # bases that skipped its first one would miss this clash
        x = parse_hda(
            """
            hda first_base {
              cell a0: [] ;
              cell t1: [] ;
              cell t2: [] ;
              cell e1: [a] d0(1)=a0 d1(1)=t1 ;
              cell e2: [a] d0(1)=a0 d1(1)=t2 ;
              start: a0 ;
              accept: t1 t2 ;
            }
            """
        )
        rep = is_deterministic(x)
        assert min(essential_report(x).essential) == "a0"
        assert rep.branch_clashes == (("a0", (0,), "e1", "e2"),)
        assert rep == oracle_determinism(x)

    def test_inessential_branch_tolerated(self):
        # e2 dangles: not coaccessible, so no clash is reported
        x = build_hda(
            [
                Cell("s", ()),
                Cell("t", ()),
                Cell("u", ()),
                Cell("e1", ("a",), ("s",), ("t",)),
                Cell("e2", ("a",), ("s",), ("u",)),
            ],
            ["s"],
            ["t"],
        )
        assert is_deterministic(x).deterministic

    def test_loop_witness_targets_agree(self, loop):
        # deterministic HDA: witness paths with equal ev share their target
        assert is_deterministic(loop).deterministic
        one = canonicalize(
            "aab", source=[0], target=[1], prec=[(0, 1)], evord=[(0, 2), (1, 2)]
        )
        w1 = member(loop, one)
        w2 = member(loop, glue(one, one))
        assert w1.cells[-1] == w2.cells[-1]
