"""Inputs, items and output checks of the four workloads.

Every workload is a fixed list of shapes.  The seed picks an injective
relabelling of each shape, so two seeds give distinct inputs that cost the
same work: when the seed also picked the shapes, the content alone moved
``items_per_s`` by 30% (interquartile range over seeds) on 100 random
languages, more than any bound a benchmark can use.

An item is one timed call sequence.  Its check runs after the clock stops,
compares verdicts, counts and sets of canonical ipomsets with something
computed apart from the code under test, and may queue follow-up items.
No two items of a round have equal inputs: ``language``'s division index is
cached on language equality, so a repeat would get its index for free.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
from hdalib import cli, formats
from hdalib import hda as hda_mod
from hdalib import language as lang_mod
from hdalib import myhill_nerode as mn_mod
from hdalib.ipomset import (
    canonicalize,
    glue,
    identity,
    sparse_decomposition,
    starter,
    terminator,
)

ROOT = Path(__file__).resolve().parent.parent

RANDOM_CORPUS_SEED = 20260808  # the corpus seed of the determinism experiment
RANDOM_ITEMS = 110
# The brute-force oracles try every orientation of every event pair of a
# generator (3^(n(n-1)/2) candidates) and every three-way split of every
# member (3^n).  Each runs on every ORACLE_EVERY-th shape, when it has at
# most ORACLE_MAX candidates there, so every seed checks the same shapes.
ORACLE_EVERY = 3
ORACLE_MAX = 800
# labelled interval orders on k elements (OEIS A079144)
INTERVAL_ORDERS = {1: 1, 2: 3, 3: 19, 4: 207, 5: 3451}
FOREIGN = "z"  # a label no automaton of the loops workload uses


class CheckFailed(Exception):
    pass


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]  # raises CheckFailed; returns follow-ups


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def setup(workload: str, seed: int, workdir: Path, stats: dict) -> list[Item]:
    """The items of a round, in an order shuffled by the seed: the machine
    runs faster for seconds at a time, and items of one shape in a row
    would all land in the same fast or slow stretch."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "random":
        items = _random_items(rng, stats)
    elif workload == "wide":
        items = _wide_items(rng, stats)
    elif workload == "words":
        items = _words_items(rng, stats)
    elif workload == "loops":
        items = _loops_items(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def relabel(p, mapping: dict):
    obj = formats.ipomset_to_json(p)
    obj["labels"] = [mapping[l] for l in obj["labels"]]
    return formats.ipomset_from_json(obj)


def _injection(rng: random.Random, labels, alphabet: str) -> dict:
    labels = sorted(set(labels))
    return dict(zip(labels, rng.sample(alphabet, len(labels))))


# ---------------------------------------------------------------------------
# language items: language -> is_swap_invariant -> build_mn ->
# is_deterministic -> verify_mn, the loop of the determinism experiment


def _lang_item(name: str, gens, stats: dict, oracle: bool, extra_check=None) -> Item:
    gens = tuple(gens)

    def run():
        lang = lang_mod.language(gens)
        swap = lang_mod.is_swap_invariant(lang)
        mn = mn_mod.build_mn(lang)
        det = hda_mod.is_deterministic(mn.hda)
        report = mn_mod.verify_mn(lang, mn)
        return lang, bool(swap), bool(det), report.ok

    def check(out):
        lang, swap, det, ok = out
        expect(swap == det, f"swap-invariant={swap} but deterministic={det}")
        expect(ok, "verify_mn failed")
        stats["language.prefixes"] = stats.get("language.prefixes", 0) + len(
            lang_mod.prefixes(lang)
        )
        if oracle:
            _oracle_check(gens, lang)
        if extra_check is not None:
            extra_check(lang)
        return []

    return Item(name, run, check)


def _oracle_check(gens, lang) -> None:
    """Closure and prefix quotients against the brute-force oracles, each
    when it has at most ORACLE_MAX candidates."""
    if sum(3 ** (g.n * (g.n - 1) // 2) for g in gens) <= ORACLE_MAX:
        closure = frozenset().union(*(oracles.oracle_refinements(g) for g in gens))
        expect(lang.members == closure, "members differ from oracle_refinements")
    if sum(3 ** m.n for m in lang.members) > ORACLE_MAX:
        return
    by_left: dict = {}
    for m in lang.members:
        for p, q in oracles.oracle_divisions(m):
            by_left.setdefault(p, set()).add(q)
    expect(lang_mod.prefixes(lang) == frozenset(by_left), "prefixes differ from oracle")
    for p, qs in by_left.items():
        expect(lang_mod.prefix_quotient(lang, p) == qs, f"quotient of {p!r} differs")


# random: the determinism experiment's distribution over abcd.  Its
# generator is copied here so that merging the copies in scripts/ and
# tests/ leaves the benchmark's inputs unchanged.


def _random_ipomset(rng, labels, max_events=4, max_interface=2):
    init = tuple(rng.choice(labels) for _ in range(rng.randint(0, max_interface)))
    p = identity(init)
    total = len(init)
    for _ in range(rng.randint(0, 4)):
        cur = p.target_loset()
        if cur and rng.random() < 0.5:
            pos = rng.sample(range(len(cur)), rng.randint(1, len(cur)))
            p = glue(p, terminator(cur, pos))
        elif total < max_events:
            k = rng.randint(1, min(2, max_events - total))
            pos = rng.sample(range(len(cur) + k), k)
            lab = list(cur)
            for q in sorted(pos):
                lab.insert(q, rng.choice(labels))
            p = glue(p, starter(tuple(lab), pos))
            total += k
    if p.target and rng.random() < 0.6:
        cur = p.target_loset()
        p = glue(p, terminator(cur, rng.sample(range(len(cur)), rng.randint(1, len(cur)))))
    return p


def _random_generators(rng, labels="abcd", max_members=80):
    while True:
        gens = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if r < 0.3:
                n = rng.randint(1, 4)
                word = [rng.choice(labels) for _ in range(n)]
                gens.append(canonicalize(word, prec=[(i, j) for i in range(n) for j in range(i + 1, n)]))
            elif r < 0.55:
                gens.append(canonicalize([rng.choice(labels), rng.choice(labels)], evord=[(0, 1)]))
            else:
                gens.append(_random_ipomset(rng, labels))
        lang = lang_mod.language(gens)
        if len(lang) <= max_members:
            return gens, lang.members


def _random_items(rng, stats) -> list[Item]:
    corpus_rng = random.Random(RANDOM_CORPUS_SEED)
    shapes, seen = [], set()
    while len(shapes) < RANDOM_ITEMS:
        gens, members = _random_generators(corpus_rng)
        if members not in seen:
            seen.add(members)
            shapes.append((gens, members))
    perms = [dict(zip("abcd", p)) for p in itertools.permutations("abcd")]
    items, used = [], set()
    for k, (gens, members) in enumerate(shapes):
        for perm in rng.sample(perms, len(perms)):
            moved = frozenset(relabel(m, perm) for m in members)
            if moved not in used:
                break
        else:
            raise ValueError(f"shape {k}: every relabelling repeats an earlier input")
        used.add(moved)
        items.append(
            _lang_item(
                f"random{k}", [relabel(g, perm) for g in gens], stats, k % ORACLE_EVERY == 0
            )
        )
    return items


# wide: 3 or 4 events, at least 3 of them pairwise concurrent

_IFACE = ("{}", "•{}", "{}•", "•{}•")
_WIDE_ALPHABET = "abcdefgh"


def wide_shapes() -> list[list[str]]:
    """Rows of every 3-event product with every interface choice, then
    every 10th 4-event shape with 3 pairwise concurrent events and at least
    one interface (the one without interfaces costs ~0.9 s alone)."""
    three = [
        [_IFACE[c].format(x) for c, x in zip(combo, "abc")]
        for combo in itertools.product(range(4), repeat=3)
    ]
    four = []
    for rows in (("ab", "c", "d"), ("a", "bc", "d"), ("a", "b", "cd")):
        for combo in itertools.product(range(4), repeat=3):
            if any(combo):
                four.append([_IFACE[c].format(x) for c, x in zip(combo, rows)])
    for combo in itertools.product(range(4), repeat=4):
        if sum(1 for c in combo if c) >= 3:
            four.append([_IFACE[c].format(x) for c, x in zip(combo, "abcd")])
    return three + four[::10]


def _wide_items(rng, stats) -> list[Item]:
    items = []
    for k, rows in enumerate(wide_shapes()):
        expr = "[" + "|".join(rows) + "]"
        p = relabel(formats.parse_expr(expr), _injection(rng, "abcd", _WIDE_ALPHABET))
        extra = None
        if all(len(r) == 1 for r in rows):  # a product of distinct labels

            def extra(lang, k=len(rows)):
                expect(
                    len(lang) == INTERVAL_ORDERS[k],
                    f"{len(lang)} members, expected {INTERVAL_ORDERS[k]}",
                )

        items.append(_lang_item(f"wide{k}:{expr}", [p], stats, k % ORACLE_EVERY == 0, extra))
    return items


# words: words and near-words of length 6-11

# (length, near-word, items); item j of a shape takes the j-th of the
# interface choices none, target, source, both, in turn
WORD_SHAPES = (
    (6, False, 44), (6, True, 8), (7, False, 24), (7, True, 4), (8, False, 10),
    (8, True, 4), (9, False, 4), (9, True, 2), (10, False, 2), (11, False, 1),
)
_WORD_ALPHABET = "abcdefgh"


def _word_text(labels: str, near: bool, src: bool, tgt: bool) -> str:
    """A word, or a near-word whose two middle events are concurrent, as a
    one-line ipomset block."""
    n = len(labels)
    mid = n // 2 - 1
    prec = [
        (a, b) for a in range(n) for b in (a + 1, a + 2)
        if b < n and not (near and (a, b) == (mid, mid + 1))
    ]
    parts = ["events: " + ", ".join(f"e{i}:{l}" for i, l in enumerate(labels))]
    if src:
        parts.append("source: e0")
    if tgt:
        parts.append(f"target: e{n - 1}")
    parts.append("prec: " + " ".join(f"e{a}<e{b}" for a, b in prec))
    if near:
        parts.append(f"evord: e{mid}<e{mid + 1}")
    return "ipomset w { " + "; ".join(parts) + " }"


def _words_items(rng, stats) -> list[Item]:
    items, used = [], set()
    for n, near, count in WORD_SHAPES:
        pattern = "".join("abc"[i % 3] for i in range(n))
        for j in range(count):
            src, tgt = divmod(j % 4, 2)
            while True:
                mapping = _injection(rng, "abc", _WORD_ALPHABET)
                text = _word_text("".join(mapping[c] for c in pattern), near, src, tgt)
                if text not in used:
                    break
            used.add(text)
            lang = formats.parse_lang(f"closed: false\nmembers:\n{text}\n")
            extra = None
            if not (near or src or tgt):

                def extra(lang, n=n):
                    pres = lang_mod.prefixes(lang)
                    divs = sum(len(lang_mod.prefix_quotient(lang, p)) for p in pres)
                    expect(
                        len(pres) == divs == 2 * n + 1,
                        f"{len(pres)} prefixes and {divs} divisions, expected {2 * n + 1}",
                    )

            oracle = len(items) % ORACLE_EVERY == 0
            items.append(_lang_item(f"words:{text}", lang.generators, stats, oracle, extra))
    return items


# ---------------------------------------------------------------------------
# loops: hda lang and hda member through the CLI, on automata with cycles


def torus_text(name, xs, ys, filled, start, accept) -> str:
    """An HDA on the m x k torus grid: vertices v{i}_{j}, x-edges h{i}_{j}
    labelled xs[i], y-edges u{i}_{j} labelled ys[j], and the squares
    s{i}_{j} listed in ``filled``."""
    m, k = len(xs), len(ys)
    lines = [f"hda {name} {{"]
    for i, j in itertools.product(range(m), range(k)):
        lines.append(f"  cell v{i}_{j}: [] ;")
    for i, j in itertools.product(range(m), range(k)):
        lines.append(f"  cell h{i}_{j}: [{xs[i]}] d0(1)=v{i}_{j} d1(1)=v{(i + 1) % m}_{j} ;")
        lines.append(f"  cell u{i}_{j}: [{ys[j]}] d0(1)=v{i}_{j} d1(1)=v{i}_{(j + 1) % k} ;")
    for i, j in filled:
        lines.append(
            f"  cell s{i}_{j}: [{xs[i]} {ys[j]}] d0(1)=u{i}_{j} d1(1)=u{(i + 1) % m}_{j}"
            f" d0(2)=h{i}_{j} d1(2)=h{i}_{(j + 1) % k} ;"
        )
    lines.append("  start: " + " ".join(start) + " ;")
    lines.append("  accept: " + " ".join(accept) + " ;")
    return "\n".join(lines + ["}"]) + "\n"


# (name, x-labels, y-labels, filled squares, start, accept, --max-steps);
# labels are placeholders the seed maps injectively into LOOP_ALPHABET
TORI = (
    ("half2x2", "AB", "CD", [(0, 0), (1, 1)], ["v0_0"], ["v0_0"], 10),
    ("strip3x1", "ABC", "D", [(0, 0), (1, 0)], ["v0_0"], ["v1_0", "h2_0"], 8),
    ("sparse3x2", "ABC", "DE", [(0, 0), (1, 1), (2, 0)], ["v0_0"], ["v0_0", "u1_1"], 10),
    ("one1x1", "A", "B", [(0, 0)], ["v0_0"], ["v0_0"], 6),
    ("ring4", "ABAB", "C", [], ["v0_0"], ["v0_0", "v2_0"], 10),
)
LOOP_ALPHABET = "abcdefgh"
SQUARE2D = ("ab", "ba", "[a|b]", "ab•", "[a|b•]")


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _loops_items(rng, workdir: Path) -> list[Item]:
    workdir.mkdir(parents=True, exist_ok=True)
    automata = [
        (str(ROOT / "data" / "loop_ab.hda"), 10, None),
        (str(ROOT / "data" / "square2d.hda"), 8, SQUARE2D),
    ]
    for name, xs, ys, filled, start, accept, bound in TORI:
        mapping = _injection(rng, xs + ys, LOOP_ALPHABET)
        text = torus_text(
            name, [mapping[c] for c in xs], [mapping[c] for c in ys], filled, start, accept
        )
        path = workdir / f"{name}.hda"
        path.write_text(text)
        automata.append((str(path), bound, None))
    return [_hda_lang_item(path, bound, expected) for path, bound, expected in automata]


def _hda_lang_item(path: str, bound: int, expected) -> Item:
    argv = ["hda", "lang", path, "--max-steps", str(bound), "--json"]

    def check(out):
        code, text = out
        expect(code == 0, f"exit code {code}")
        code, valid = _cli(["hda", "validate", path, "--json"])
        expect(code == 0 and json.loads(valid)["valid"], "hda validate rejects the automaton")
        members = sorted(
            (formats.ipomset_from_json(o) for o in json.loads(text)),
            key=formats.ipomset_to_text,
        )
        if expected is not None:
            want = {formats.parse_expr(e) for e in expected}
            expect(set(members) == want, f"language {members} differs from {sorted(expected)}")
        x = formats.parse_hda(Path(path).read_text())
        enumerated: dict = {}
        follow = []
        for q in members:
            follow.append(_member_item(path, x, q, True, enumerated))
            obj = formats.ipomset_to_json(q)
            if obj["labels"]:
                obj["labels"][-1] = FOREIGN  # the last event to start
                miss = formats.ipomset_from_json(obj)
            else:
                miss = formats.parse_expr(FOREIGN)
            follow.append(_member_item(path, x, miss, False, enumerated))
        return follow

    return Item(f"lang:{Path(path).name}", lambda: _cli(argv), check)


def _member_item(path: str, x, q, want: bool, enumerated: dict) -> Item:
    argv = ["hda", "member", path, "--expr", formats.ipomset_to_text(q), "--json"]

    def check(out):
        code, text = out
        found = json.loads(text)
        expect(code == (0 if want else 1), f"exit code {code}")
        expect(found["member"] == want, f"member={found['member']}, expected {want}")
        if want:
            path_ = hda_mod.Path(
                cells=tuple(found["path"]["cells"]),
                steps=tuple(
                    hda_mod.PathStep(s["kind"], frozenset(s["positions"]))
                    for s in found["path"]["steps"]
                ),
            )
            hda_mod.check_path(x, path_)
            expect(hda_mod.ev_of_path(x, path_) == q, "witness path reads another ipomset")
        else:
            steps = len(sparse_decomposition(q).steps)
            if steps not in enumerated:
                enumerated[steps] = hda_mod.enumerate_language(x, steps)
            expect(q not in enumerated[steps], "rejected ipomset is in the language")
        return []

    return Item(f"member:{Path(path).name}:{argv[4]}", lambda: _cli(argv), check)
