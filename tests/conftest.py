import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hdalib.errors import AxiomViolation
from hdalib.hda import Cell, build_hda
from hdalib.ipomset import canonicalize
from oracles import oracle_divisions
from random_gen import random_ipomset

DATA = Path(__file__).resolve().parent.parent / "data"


# ---------------------------------------------------------------------------
# small constructors


def word(s, src=(), tgt=()):
    n = len(s)
    return canonicalize(
        list(s), src, tgt, [(i, j) for i in range(n) for j in range(n) if i < j]
    )


def par(*rows_src_tgt):
    """Fully concurrent events from (label, in_source, in_target) triples,
    event order by position."""
    labels = [t[0] for t in rows_src_tgt]
    src = [i for i, t in enumerate(rows_src_tgt) if t[1]]
    tgt = [i for i, t in enumerate(rows_src_tgt) if t[2]]
    n = len(labels)
    return canonicalize(
        labels, src, tgt, (), [(i, j) for i in range(n) for j in range(n) if i < j]
    )


def n_shape():
    """Four events a,b,c,d with a<c, b<d, a<d; b a source, d a target."""
    return canonicalize(
        "abcd",
        source=[1],
        target=[3],
        prec=[(0, 2), (1, 3), (0, 3)],
        evord=[(0, 1), (2, 1), (2, 3)],
    )


def square_hda():
    return build_hda(
        [
            Cell("v", ()),
            Cell("w", ()),
            Cell("x", ()),
            Cell("y", ()),
            Cell("e", ("a",), ("v",), ("w",)),
            Cell("f", ("a",), ("x",), ("y",)),
            Cell("g", ("b",), ("v",), ("x",)),
            Cell("h", ("b",), ("w",), ("y",)),
            Cell("q", ("a", "b"), ("g", "e"), ("h", "f")),
        ],
        start=["v"],
        accept=["h", "y"],
        name="square2d",
    )


# ---------------------------------------------------------------------------
# corpora


def all_small_ipomsets(max_n=3, labels="ab"):
    """Every canonical ipomset with at most max_n events over the labels."""
    out = set()
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for labs in itertools.product(labels, repeat=n):
            for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
                prec = []
                for (i, j), c in zip(pairs, choice):
                    if c == 1:
                        prec.append((i, j))
                    elif c == 2:
                        prec.append((j, i))
                base = _closure_pairs(n, prec)
                if base is None:
                    continue
                minimal = [i for i in range(n) if not any(b == i for _, b in base)]
                maximal = [i for i in range(n) if not any(a == i for a, _ in base)]
                conc = [
                    (i, j)
                    for i, j in pairs
                    if (i, j) not in base and (j, i) not in base
                ]
                for orient in itertools.product((0, 1), repeat=len(conc)):
                    ev = [(i, j) if o == 0 else (j, i) for (i, j), o in zip(conc, orient)]
                    for src in _subsets(minimal):
                        for tgt in _subsets(maximal):
                            try:
                                out.add(canonicalize(labs, src, tgt, base, ev))
                            except AxiomViolation:
                                pass
    return sorted(out, key=lambda p: p.sort_key())


def _closure_pairs(n, pairs):
    m = [[False] * n for _ in range(n)]
    for i, j in pairs:
        m[i][j] = True
    for k in range(n):
        for i in range(n):
            if m[i][k]:
                for j in range(n):
                    if m[k][j]:
                        m[i][j] = True
    if any(m[i][i] for i in range(n)):
        return None
    return [(i, j) for i in range(n) for j in range(n) if m[i][j]]


def _subsets(xs):
    for r in range(len(xs) + 1):
        yield from itertools.combinations(xs, r)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def small_corpus():
    return all_small_ipomsets(max_n=3, labels="ab")


@pytest.fixture(scope="session")
def small_divisions(small_corpus):
    """oracle_divisions of every ipomset of the small corpus, computed once
    for the division tests and the swap oracle on small languages."""
    return {m: oracle_divisions(m) for m in small_corpus}


@pytest.fixture(scope="session")
def mixed_corpus(small_corpus):
    rng = random.Random(1729)
    extra = {random_ipomset(rng) for _ in range(60)}
    return small_corpus + sorted(extra - set(small_corpus), key=lambda p: p.sort_key())


@pytest.fixture(scope="session")
def random_corpus():
    """500 seeded random ipomsets of up to 7 events, repeats included."""
    rng = random.Random(2718)
    return [random_ipomset(rng, max_events=7, steps=6) for _ in range(500)]


@pytest.fixture(scope="session")
def square():
    return square_hda()


@pytest.fixture(scope="session")
def data_dir():
    return DATA
