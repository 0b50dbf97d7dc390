"""Ipomsets: labelled interval posets with event order and interfaces.

Values of the central type :class:`Ipomset` are always kept in a canonical
form in which structural equality coincides with isomorphism.  Events are
indexed 0..n-1; ``prec`` and ``evord`` are strict orders stored as row
masks, read through :meth:`Ipomset.lt` and :meth:`Ipomset.ev`; ``source``
and ``target`` hold the interface events.

Canonical form:

* event indices follow the unique sparse step decomposition: interface
  sources first, then the events introduced by each successive starter
  step, ordered inside each group by the event order;
* ``evord`` stores only the transitive closure of its essential pairs
  (pairs concurrent under ``prec``), so encodings that differ in
  non-essential event order collapse to the same value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import AxiomViolation, InterfaceMismatch, MalformedInterval, NotRemovable

Label = str
Loset = tuple[Label, ...]  # isomorphism class of a loset: labels in event order

STARTER = "starter"
TERMINATOR = "terminator"


class Ipomset(NamedTuple):
    """A canonical ipomset.  Build through :func:`canonicalize` or the
    constructors below; direct instantiation skips validation.

    ``prec`` and ``evord`` hold one row mask per event, with column j of
    row i at bit n-1-j.  The encoding is private to this module: read the
    relations through :meth:`lt` and :meth:`ev`.

    A named tuple, so construction, hashing and equality run in C.  Its
    hash is that of ``(labels, source, target, prec, evord)``, as a frozen
    dataclass of these fields would compute it.  Being a tuple, ``len(p)``
    is its field count, not its number of events (that is :attr:`n`), and
    it compares equal to the plain 5-tuple of its fields."""

    labels: tuple[Label, ...]
    source: frozenset[int]
    target: frozenset[int]
    prec: tuple[int, ...]
    evord: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def lt(self, i: int, j: int) -> bool:
        """Event i precedes event j."""
        return bool(self.prec[i] >> (len(self.labels) - 1 - j) & 1)

    def ev(self, i: int, j: int) -> bool:
        """Event i comes before event j in the event order."""
        return bool(self.evord[i] >> (len(self.labels) - 1 - j) & 1)

    def is_concurrent(self, i: int, j: int) -> bool:
        return i != j and not self.lt(i, j) and not self.lt(j, i)

    def source_events(self) -> tuple[int, ...]:
        """Source events in event order (the source interface loset).  The
        canonical order puts the sources first, in event order, so they are
        the first events."""
        return tuple(range(len(self.source)))

    def target_events(self) -> tuple[int, ...]:
        return _loset_sort(self.evord, _mask(self.n, self.target))

    def source_loset(self) -> Loset:
        return self.labels[: len(self.source)]

    def target_loset(self) -> Loset:
        return tuple([self.labels[i] for i in self.target_events()])

    def sort_key(self):
        """Deterministic total order on canonical ipomsets."""
        return (
            self.n,
            self.labels,
            self.source_events(),
            tuple(sorted(self.target)),
            self.prec,
            self.evord,
        )

    def __repr__(self) -> str:
        from .formats import ipomset_to_text

        return ipomset_to_text(self)


class StarterTerminator(NamedTuple):
    """A discrete step: start (U↑A) or terminate (U↓A) the events at the
    positions ``active`` of the loset ``loset``.  A named tuple, so it
    equals and hashes as the plain tuple ``(kind, loset, active)``.  It is
    not checked here: :func:`apply_step`, which every fold of steps goes
    through, rejects a bad kind and positions out of range."""

    kind: str  # STARTER or TERMINATOR
    loset: Loset
    active: frozenset[int]

    def __repr__(self) -> str:
        arrow = "↑" if self.kind == STARTER else "↓"
        marked = "".join(
            l + ("'" if i in self.active else "") for i, l in enumerate(self.loset)
        )
        return f"({marked}){arrow}" + "".join(
            self.loset[i] for i in sorted(self.active)
        )


class StepSequence(NamedTuple):
    """A step decomposition: an initial loset followed by composable steps."""

    initial_loset: Loset
    steps: tuple[StarterTerminator, ...]

    @property
    def sparse(self) -> bool:
        kinds = [s.kind for s in self.steps]
        return all(a != b for a, b in zip(kinds, kinds[1:]))

    def compose(self) -> Ipomset:
        """The identity on the initial loset folded by :func:`apply_step`."""
        out = identity(self.initial_loset)
        for step in self.steps:
            out = apply_step(out, *step)
        return out


@dataclass(frozen=True)
class IntervalRow:
    """One event of an interval representation, and one line of an
    interval log (``hdalib.formats.parse_log``).  Row order doubles as the
    event-order rank for concurrent pairs."""

    event: str
    label: Label
    begin: Fraction
    end: Fraction
    left_closed: bool  # event belongs to the source interface
    right_closed: bool  # event belongs to the target interface


# ---------------------------------------------------------------------------
# relation helpers
#
# A relation on events 0..n-1 is a list of n row masks: column j of row i
# is bit n-1-j.  With the first column in the highest bit, rows of one width
# compare as the rows of a boolean matrix would, so sort keys keep their
# order, and the smallest event of a mask is its highest set bit.
# Set bits are read only through _events, from a table up to width 8 and
# by a loop above it (Warren, Hacker's Delight, ch. 5).  Interfaces are the
# shared sets of _eventset, so equal ones are one object that hashes once.
# _loset_sort places each event at its rank: the set must be an antichain.

_TABLE_WIDTH = 8
_EVENT_TABLE = [
    [tuple([e for e in range(n) if mask >> (n - 1 - e) & 1]) for mask in range(1 << n)]
    for n in range(_TABLE_WIDTH + 1)
]
_EVENTSET_TABLE = [[frozenset(events) for events in row] for row in _EVENT_TABLE]


def _events(n: int, mask: int) -> tuple[int, ...]:
    """The events of an n-wide mask in increasing order."""
    if n <= _TABLE_WIDTH:
        return _EVENT_TABLE[n][mask]
    out = []
    while mask:
        top = mask.bit_length()
        out.append(n - top)
        mask ^= 1 << (top - 1)
    return tuple(out)


def _eventset(n: int, mask: int) -> frozenset[int]:
    """The events of an n-wide mask as a set, the table's own up to width 8."""
    if n <= _TABLE_WIDTH:
        return _EVENTSET_TABLE[n][mask]
    return frozenset(_events(n, mask))


def _mask(n: int, events: Iterable[int]) -> int:
    out = 0
    for i in events:
        out |= 1 << (n - 1 - i)
    return out


def _rows(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    rows = [0] * n
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise AxiomViolation("relation pair out of range")
        rows[i] |= 1 << (n - 1 - j)
    return rows


def _remap(row: int, n: int, bits: Sequence[int]) -> int:
    """The row with column j of an n-wide relation moved to the mask
    ``bits[j]``."""
    out = 0
    for j in _events(n, row):
        out |= bits[j]
    return out


def _transpose(rows: Sequence[int]) -> list[int]:
    """The rows of the converse relation: row j holds the events i with
    column j set in row i."""
    n = len(rows)
    cols = [0] * n
    for i, row in enumerate(rows):
        bit = 1 << (n - 1 - i)
        for j in _events(n, row):
            cols[j] |= bit
    return cols


def _closure(rows: Sequence[int]) -> list[int]:
    """Transitive closure by Warshall's algorithm over rows."""
    n = len(rows)
    rows = list(rows)
    for k in range(n):
        bit, row = 1 << (n - 1 - k), rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row
    return rows


def _loset_sort(evord: Sequence[int], events: int) -> tuple[int, ...]:
    """The events of a mask in event order.  The events must be pairwise
    concurrent: evord then orders them totally, so an event's rank, the
    number of them after it, is its distance from the end."""
    found = _events(len(evord), events)
    out = list(found)
    for i in found:
        out[~(evord[i] & events).bit_count()] = i  # rank r goes to index -1-r
    return tuple(out)


def moments(downs: Sequence[int]) -> list[int]:
    """The maximal antichains of an interval order, in temporal order, as
    masks; ``downs[x]`` is the mask of the events before x (the transpose
    of the precedence rows).

    For interval orders the strict down-sets are nested; the maximal
    antichains are exactly {x : D(x) ⊆ D, x ∉ D} for each distinct
    down-set D, ordered by inclusion of D: the groups up to D's, less D.

    Raises :class:`AxiomViolation` when the down-sets are not nested, which
    happens exactly when precedence contains a 2+2 (Fishburn 1985).
    """
    n, groups = len(downs), {}  # per down-set, the mask of its events
    for x, d in enumerate(downs):
        groups[d] = groups.get(d, 0) | 1 << (n - 1 - x)
    distinct = sorted(groups, key=int.bit_count)
    for a, b in zip(distinct, distinct[1:]):
        if a & ~b:
            raise AxiomViolation("precedence admits no interval representation (2+2)")
    out, below = [], 0
    for d in distinct:
        below |= groups[d]
        out.append(below & ~d)
    return out


# ---------------------------------------------------------------------------
# canonicalization


def canonicalize(
    labels: Sequence[Label],
    source: Iterable[int] = (),
    target: Iterable[int] = (),
    prec: Iterable[tuple[int, int]] = (),
    evord: Iterable[tuple[int, int]] = (),
) -> Ipomset:
    """Validate a raw iposet description and return its canonical form.

    ``prec`` and ``evord`` are completed to their transitive closures.
    Raises :class:`AxiomViolation` on an interface event or relation pair
    out of range, cyclic orders, uncovered pairs, non-minimal sources,
    non-maximal targets, or a 2+2 obstruction.
    """
    labels = tuple(labels)
    n = len(labels)
    source = frozenset(source)
    target = frozenset(target)
    if any(not (0 <= i < n) for i in source | target):
        raise AxiomViolation("interface event out of range")
    return _close_and_check(labels, source, target, _rows(n, prec), _rows(n, evord))


def _close_and_check(
    labels: tuple[Label, ...],
    source: frozenset[int],
    target: frozenset[int],
    prec: Sequence[int],
    evord: Sequence[int],
) -> Ipomset:
    """Close the relation rows, check the axioms in the order
    :func:`canonicalize` documents, and hand the result to
    :func:`_renumber`."""
    n = len(labels)
    prec = _closure(prec)
    evord = _closure(evord)
    for i in range(n):
        bit = 1 << (n - 1 - i)
        if prec[i] & bit:
            raise AxiomViolation("cyclic precedence order")
        if evord[i] & bit:
            raise AxiomViolation("cyclic event order")
    related = [p | e for p, e in zip(prec, evord)]
    for i in range(n):
        # the first unrelated pair has i < j: a pair (i, j) with j < i
        # shows up earlier, as (j, i)
        bit = 1 << (n - 1 - i)
        for j in _events(n, (bit - 1) & ~related[i]):
            if not related[j] & bit:
                raise AxiomViolation(f"events {i} and {j} unrelated by precedence and event order")
    downs = _transpose(prec)
    ants = moments(downs)
    if any(downs[s] for s in source):
        raise AxiomViolation("source event is not minimal")
    if any(prec[t] for t in target):
        raise AxiomViolation("target event is not maximal")
    order = _canonical_order(n, ants, source, evord)
    essential = _essential(prec, evord, downs)
    return _renumber(labels, _mask(n, source), _mask(n, target), prec, essential, order)


def _essential(prec: Sequence[int], evord: Sequence[int], downs: Sequence[int]) -> list[int]:
    """The event order rows cut to the pairs concurrent under precedence."""
    return [e & ~(p | d) for p, e, d in zip(prec, evord, downs)]


def _renumber(
    labels: tuple[Label, ...],
    source: int,
    target: int,
    prec: Sequence[int],
    essential: Sequence[int],
    order: Sequence[int],
) -> Ipomset:
    """The :func:`_restrict` of a valid ipomset, given by its labels,
    closed precedence rows and :func:`_essential` rows, with the essential
    event order closed again: a pair of the old closure may have come
    through a dropped event."""
    labels, source, target, prec, essential = _restrict(
        labels, source, target, prec, essential, order
    )
    return Ipomset(labels, source, target, prec, tuple(_closure(essential)))


def _restrict(
    labels: Sequence[Label],
    source: int,
    target: int,
    prec: Sequence[int],
    evord: Sequence[int],
    order: Sequence[int],
) -> tuple:
    """The fields of the ipomset on the events ``order``, with ``order[k]``
    renumbered to k: its labels, source and target events, and the rows of
    ``prec`` and ``evord`` cut to those events, not closed again.
    ``source`` and ``target`` mask the interfaces; events outside
    ``order`` are dropped.

    The caller vouches that ``order`` is the canonical order of the result
    and that its sources are minimal and its targets maximal.  A
    restriction of a transitive relation is transitive, of an acyclic one
    acyclic, of an interval order an interval order, and every pair of
    kept events stays related, so nothing is checked again.

    A block lo, ..., lo+k-1 in increasing order, as each part of a word's
    divisions is, keeps bits n-lo-k to n-lo-1 of each row, in order, so
    one shift and one mask cut a row, where :func:`_remap` steps per bit."""
    n, k = len(labels), len(order)
    lo = order[0] if k else 0
    if list(order) == list(range(lo, lo + k)):
        if k == n:  # all the events, in order, keep their rows
            rows = tuple(prec), tuple(evord)
            return (tuple(labels), _eventset(n, source), _eventset(n, target), *rows)
        shift, cut = n - lo - k, (1 << k) - 1
        return (
            tuple(labels[lo : lo + k]),
            _eventset(k, source >> shift & cut),
            _eventset(k, target >> shift & cut),
            tuple([r >> shift & cut for r in prec[lo : lo + k]]),
            tuple([r >> shift & cut for r in evord[lo : lo + k]]),
        )
    bits = [0] * n  # a dropped column moves to no bit
    for new, old in enumerate(order):
        bits[old] = 1 << (k - 1 - new)
    return (
        tuple([labels[i] for i in order]),
        _eventset(k, _remap(source, n, bits)),
        _eventset(k, _remap(target, n, bits)),
        tuple([_remap(prec[i], n, bits) for i in order]),
        tuple([_remap(evord[i], n, bits) for i in order]),
    )


def _canonical_order(
    n: int, ants: list[int], source: frozenset[int], evord: Sequence[int]
) -> list[int]:
    """Events grouped by the starter step that introduces them, each group
    sorted by event order.  Group 0 is the source interface; any other
    event joins the moment of its own down-set, so groups rank by down-set."""
    seen = _mask(n, source)
    order = list(_loset_sort(evord, seen))
    for ant in ants:
        fresh = ant & ~seen
        if fresh:
            order.extend(_loset_sort(evord, fresh))
            seen |= fresh
    return order


EMPTY = canonicalize(())


# ---------------------------------------------------------------------------
# constructors


def identity(loset: Loset) -> Ipomset:
    """The discrete ipomset id_U: every event in both interfaces.  Its
    canonical order is the loset, which is also its event order."""
    n = len(loset)
    every = frozenset(range(n))
    return Ipomset(
        labels=tuple(loset),
        source=every,
        target=every,
        prec=(0,) * n,
        evord=tuple([(1 << (n - 1 - i)) - 1 for i in range(n)]),
    )


def starter(loset: Loset, active: Iterable[int]) -> Ipomset:
    """U↑A: the events at positions ``active`` start, the rest stay active."""
    active = frozenset(active)
    return apply_step(identity(_without(loset, active)), STARTER, loset, active)


def terminator(loset: Loset, active: Iterable[int]) -> Ipomset:
    """U↓A: the events at positions ``active`` terminate."""
    return apply_step(identity(loset), TERMINATOR, loset, active)


def _without(loset: Loset, positions: frozenset[int]) -> Loset:
    """The loset with the events at ``positions`` left out."""
    return tuple([l for i, l in enumerate(loset) if i not in positions])


# ---------------------------------------------------------------------------
# subsumption


def subsumes_witness(p: Ipomset, q: Ipomset) -> Optional[tuple[int, ...]]:
    """A bijection witnessing p ⊑ q, or None.

    The bijection must respect labels and interfaces, reflect precedence
    (f(x) <_q f(y) implies x <_p y) and preserve event order on pairs
    concurrent in p.
    """
    n = p.n
    if n != q.n or sorted(p.labels) != sorted(q.labels):
        return None
    if len(p.source) != len(q.source) or len(p.target) != len(q.target):
        return None
    # subsumption can only forget precedence
    if sum([r.bit_count() for r in p.prec]) < sum([r.bit_count() for r in q.prec]):
        return None
    # interface events are forced: concurrent pairs keep their event order,
    # so the k-th source of p must map to the k-th source of q
    forced: dict[int, int] = {}
    for pairs in (
        zip(p.source_events(), q.source_events()),
        zip(p.target_events(), q.target_events()),
    ):
        for a, b in pairs:
            if forced.setdefault(a, b) != b:
                return None

    # depth-first over x ↦ fx, x in event order and fx tried from 0 up;
    # image[:x] is the witness so far and ``used`` marks its values
    image = [0] * n
    used = [False] * n
    x = fx = 0
    while x < n:
        if fx == n:  # x has no image left: move x−1 to its next one
            if x == 0:
                return None
            x -= 1
            fx = image[x]
            used[fx] = False
            fx += 1
        elif used[fx] or not _fits(p, q, forced, image, x, fx):
            fx += 1
        else:
            image[x] = fx
            used[fx] = True
            x, fx = x + 1, 0
    return tuple(image)


def _fits(p: Ipomset, q: Ipomset, forced: dict, image: list, x: int, fx: int) -> bool:
    """Whether x ↦ fx agrees with the witness so far on the events before x."""
    if p.labels[x] != q.labels[fx]:
        return False
    if (x in p.source) != (fx in q.source) or (x in p.target) != (fx in q.target):
        return False
    if x in forced and forced[x] != fx:
        return False
    for y in range(x):
        fy = image[y]
        xy, yx = p.lt(x, y), p.lt(y, x)
        if (q.lt(fx, fy) and not xy) or (q.lt(fy, fx) and not yx):
            return False
        if not xy and not yx:
            if p.ev(x, y) and not q.ev(fx, fy):
                return False
            if p.ev(y, x) and not q.ev(fy, fx):
                return False
    return True


def subsumes(p: Ipomset, q: Ipomset) -> bool:
    """Decide p ⊑ q (p refines q)."""
    return subsumes_witness(p, q) is not None


# ---------------------------------------------------------------------------
# gluing


def glue(p: Ipomset, q: Ipomset) -> Ipomset:
    """Serial composition p*q along T_p ≅ S_q: p folded with
    :func:`apply_step` over ``sparse_decomposition(q)``, which is p*q as
    gluing is associative (Fahrenberg, Johansen, Struth, Ziemiański, MSCS
    2021).  Raises :class:`InterfaceMismatch` when the interfaces do not
    match as losets, checked here since an identity q has no steps.
    Nothing is checked again, as no event-order cycle can arise: both
    interfaces are antichains that the event order orders totally,
    matched in that order, so a cycle that crosses between p and q would
    collapse to a cycle on the target loset.
    """
    have, want = p.target_loset(), q.source_loset()
    if have != want:
        raise InterfaceMismatch(f"target loset {have} does not match source loset {want}")
    for step in sparse_decomposition(q).steps:
        p = apply_step(p, *step)
    return p


# ---------------------------------------------------------------------------
# sparse step decomposition


def sparse_decomposition(p: Ipomset) -> StepSequence:
    """The unique alternating starter/terminator decomposition of p.
    Equal ipomsets give equal sequences, and :meth:`StepSequence.compose`
    gives p back.

    One walk over the moments, in temporal order: a moment that ends
    events of the one before (the source interface before the first)
    makes a terminator on that loset, and one that starts events makes a
    starter on its own loset; a non-target still running after the last
    moment makes a last terminator."""
    n, labels = p.n, p.labels
    prev = p.source_events()
    prev_mask = _mask(n, p.source)
    prev_loset = initial = labels[: len(prev)]
    steps: list[StarterTerminator] = []
    for ant in moments(_transpose(p.prec)):
        cur = _loset_sort(p.evord, ant)
        loset = tuple([labels[e] for e in cur])
        if prev_mask & ~ant:
            gone = frozenset([i for i, e in enumerate(prev) if not ant >> (n - 1 - e) & 1])
            steps.append(StarterTerminator(TERMINATOR, prev_loset, gone))
        if ant & ~prev_mask:
            new = frozenset([i for i, e in enumerate(cur) if not prev_mask >> (n - 1 - e) & 1])
            steps.append(StarterTerminator(STARTER, loset, new))
        prev, prev_mask, prev_loset = cur, ant, loset
    if prev_mask & ~_mask(n, p.target):
        tail = frozenset([i for i, e in enumerate(prev) if e not in p.target])
        steps.append(StarterTerminator(TERMINATOR, prev_loset, tail))
    return StepSequence(initial, tuple(steps))


# ---------------------------------------------------------------------------
# interval representations


def from_intervals(rows: Sequence[IntervalRow]) -> Ipomset:
    """Build the ipomset of an interval representation.

    Precedence is strict interval precedence (end(x) < begin(y)); event
    order on concurrent pairs follows row order; interfaces follow the
    closed flags.
    """
    for r in rows:
        if r.begin > r.end:
            raise MalformedInterval(f"event {r.event}: end before begin")
    n = len(rows)
    prec = [
        (i, j) for i in range(n) for j in range(n) if rows[i].end < rows[j].begin
    ]
    evord = [
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if rows[j].begin <= rows[i].end and rows[i].begin <= rows[j].end
    ]
    return canonicalize(
        [r.label for r in rows],
        [i for i, r in enumerate(rows) if r.left_closed],
        [i for i, r in enumerate(rows) if r.right_closed],
        prec,
        evord,
    )


# ---------------------------------------------------------------------------
# refinement and down-closure


def refinements(g: Ipomset) -> frozenset[Ipomset]:
    """All ipomsets subsumed by g, g included: the folds of g's schedules.

    A schedule starts with g's sources running and alternates starters,
    which start unstarted events whose g-predecessors have all ended, and
    terminators, which end running non-targets, until all have started and
    g's targets run.  Its fold puts x before y when x ended before y
    started; events that run together are concurrent in g and keep g's
    event order, so the fold refines g.  Sparse step decompositions are
    unique (Fahrenberg, Johansen, Struth, Ziemiański, MSCS 2021), so each
    refinement is the fold of the schedules whose steps read alike in
    labels; a reading seen before is skipped.  Unless two concurrent events
    of g share a label, no reading is taken: the events of each label then
    form a chain in g and in every refinement, so an isomorphism between
    two refinements maps each chain onto itself in order, is the identity,
    and distinct schedules fold to distinct refinements.
    A fold is one :func:`_renumber` of its down-sets (y's holds the events
    ended when y started) in canonical order: g's sources, then each
    starter's events in event order.  g's own down-sets give g itself.

    The schedules are walked depth first on a stack.  A state holds the
    events started and the events ended, the kind of the last step, the
    running events and the step's events after each step so far, and the
    down-sets of the events started so far.  A terminator keeps the list
    of the state it leaves, and a starter copies it and sets its events'.
    """
    n = g.n
    if sum([r.bit_count() for r in g.prec]) == n * (n - 1) // 2:
        return frozenset({g})  # a chain has no schedule but its own
    g_downs = _transpose(g.prec)
    source, target = _mask(n, g.source), _mask(n, g.target)
    # sources first, then by event-order predecessors, more further along
    rank = [d.bit_count() - n * (y in g.source) for y, d in enumerate(_transpose(g.evord))]
    twins = any(
        g.labels[x] == g.labels[y] and not (g.prec[x] | g_downs[x]) >> (n - 1 - y) & 1
        for x, y in itertools.combinations(range(n), 2)
    )
    full = (1 << n) - 1
    seen: set[tuple] = set()
    out = {g}
    stack = [(source, 0, None, (), [0] * n)]
    while stack:  # last in, first out: the children are pushed in reverse
        started, done, last, steps, downs = stack.pop()
        running = started & ~done
        if started == full and running == target:
            read = tuple([
                tuple([(g.labels[e], a >> (n - 1 - e) & 1) for e in _loset_sort(g.evord, u)])
                for u, a in steps
            ]) if twins else None
            if downs == g_downs or read in seen:
                continue
            if read:
                seen.add(read)
            prec = _transpose(downs)
            essential = _essential(prec, g.evord, downs)
            order = sorted(range(n), key=lambda y: (downs[y].bit_count(), rank[y]))
            out.add(_renumber(g.labels, source, target, prec, essential, order))
            continue
        children = []
        # canonical order ranks events by down-set: the ready ones come first
        unstarted = _events(n, full & ~started) if last != STARTER else []
        ready = _mask(n, itertools.takewhile(lambda y: not g_downs[y] & ~done, unstarted))
        step = ready
        while step:
            child = downs.copy()
            for y in _events(n, step):
                child[y] = done
            after = steps + ((running | step, step),)
            children.append((started | step, done, STARTER, after, child))
            step = (step - 1) & ready
        stoppable = running & ~target if last != TERMINATOR else 0
        step = stoppable
        while step:
            children.append((started, done | step, TERMINATOR, steps + ((running, step),), downs))
            step = (step - 1) & stoppable
        stack += reversed(children)
    return frozenset(out)


def down_close(xs: Iterable[Ipomset]) -> frozenset[Ipomset]:
    """Downward subsumption closure of a finite set of ipomsets.

    Inputs go by ascending number of precedence pairs, and
    :func:`refinements` walks only those not yet reached.  That is exact:
    a strict refinement of q has more pairs, so it comes after q, when the
    result, a union of down-closed sets holding q, holds it too.  So only
    the maximal inputs are walked.
    """
    out: set[Ipomset] = set()
    for x in sorted(xs, key=lambda p: sum([r.bit_count() for r in p.prec])):
        if x not in out:
            out |= refinements(x)
    return frozenset(out)


# ---------------------------------------------------------------------------
# signatures and target removal


def rfin_events(p: Ipomset) -> frozenset[int]:
    """Target events that are not source events (removable targets)."""
    return p.target - p.source


def fin(p: Ipomset) -> StarterTerminator:
    """The target signature: the starter T↑(T−S) on the target loset."""
    tgt = p.target_events()
    active = frozenset([i for i, e in enumerate(tgt) if e not in p.source])
    return StarterTerminator(STARTER, tuple([p.labels[e] for e in tgt]), active)


def remove_targets(p: Ipomset, events: Iterable[int]) -> Ipomset:
    """P − A: drop removable target events, keeping all other structure.

    The kept events stay in p's order.  Targets are maximal, so the kept
    set is down-closed: each kept event keeps its down-set, and it holds
    all of p's sources.  The groups of :func:`_canonical_order` are ranked
    by down-set, so they keep their rank, and each group keeps the event
    order of its events.  So the result is p with the columns of A
    deleted from its rows.  Only the event order is closed again, from the
    essential rows, since an event-order path through a dropped e can be
    the only one: when x precedes y, both are concurrent with e and the
    event order runs x→e→y, the pair (x, y) must go."""
    drop = frozenset(events)
    bad = drop - rfin_events(p)
    if bad:
        raise NotRemovable(f"events {sorted(bad)} are not removable targets")
    n = p.n
    labels, source, target, prec, essential = _restrict(
        p.labels,
        _mask(n, p.source),
        _mask(n, p.target),
        p.prec,
        _essential(p.prec, p.evord, _transpose(p.prec)),
        [i for i in range(n) if i not in drop],
    )
    return Ipomset(labels, source, target, prec, tuple(_closure(essential)))


def terminate_targets(p: Ipomset, events: Iterable[int]) -> Ipomset:
    """P * (U↓A) for the target events ``events`` of p: p with them dropped
    from its target, every relation and index kept (:func:`apply_step`
    says why that is canonical).  This is the upper face of p at those
    events; the caller vouches that they are targets."""
    return Ipomset(
        labels=p.labels,
        source=p.source,
        target=p.target.difference(events),
        prec=p.prec,
        evord=p.evord,
    )


def apply_step(p: Ipomset, kind: str, loset: Loset, positions: Iterable[int]) -> Ipomset:
    """P * (U↑A) for ``kind`` STARTER, P * (U↓A) for TERMINATOR: glue p
    with the step that starts or terminates the events at ``positions`` of
    the loset U.  Positions out of range raise :class:`AxiomViolation`,
    then a source loset of the step (U−A for a starter, U for a
    terminator) that is not p's target loset raises
    :class:`InterfaceMismatch`.  Neither branch checks or canonicalizes
    again.

    A terminator glued onto p adds no event (its every event is a source,
    glued onto a target of p), no precedence (it has no event outside its
    source) and no essential event order (its order is p's target loset,
    already in p's event order).  So P * (U↓A) is p with the terminated
    events dropped from its target: the relations stay closed and valid,
    a smaller target stays maximal, and :func:`_canonical_order` never
    reads the targets.

    A starter puts its sources onto the targets of p, so only the started
    events are new, and P * (U↑A) appends them in loset order, every event
    of p keeping its index.  They come after every non-target of p in
    precedence and are concurrent with its targets.  That keeps precedence
    closed, since any predecessor of a non-target is a non-target.  It
    also breaks no axiom: the new events are maximal targets, and their
    down-set, the non-targets of p, holds every other down-set, so the
    down-sets stay nested.  Every pair the starter orders is concurrent,
    so its order joins the essential event order.  The union is closed
    with no closure pass: p's targets are already in loset order, so the
    only new pairs put a started event before the slots after it and
    their successors, and after the events of p before an earlier slot.
    Every event of p keeps its down-set, and the sources stay, so p's
    canonical order stays (:func:`_canonical_order` ranks groups by
    down-set), and the new events join the group of their down-set.  That
    is a fresh last group, already in loset order, unless a non-source
    event of p has that down-set too, as after an up step.  That down-set,
    the non-targets of p, holds every other, so those events are p's last
    group, and they are targets.  Then the canonical order is p's events
    before that group, then that group and the started events in loset
    order, and :func:`_renumber` puts the rows in it.  It drops no event,
    so the closed event order may stand in for the essential rows.
    """
    if kind not in (STARTER, TERMINATOR):
        raise ValueError(f"bad step kind {kind!r}")
    positions = frozenset(positions)
    if any(not 0 <= i < len(loset) for i in positions):
        raise AxiomViolation(f"{kind} positions out of range")
    tgt = p.target_events()
    have = tuple([p.labels[i] for i in tgt])
    glued = _without(loset, positions) if kind == STARTER else tuple(loset)
    if have != glued:
        raise InterfaceMismatch(f"target loset {have} does not match source loset {glued}")
    if kind == TERMINATOR:
        return terminate_targets(p, [tgt[i] for i in positions])
    old, k = p.n, len(positions)
    # the non-source events of p that every non-target precedes
    merged = (1 << old) - 1 & ~_mask(old, p.source)
    for i, r in enumerate(p.prec):
        if i not in p.target:
            merged &= r
    n = old + k
    # the result's index of each loset position
    fresh, rest = iter(range(old, n)), iter(tgt)
    slots = [next(fresh) if i in positions else next(rest) for i in range(len(loset))]
    started = (1 << k) - 1
    prec = [r << k | (0 if i in p.target else started) for i, r in enumerate(p.prec)]
    prec += [0] * k
    evord = [r << k for r in p.evord] + [0] * k
    later = 0  # the slots after i and their successors
    for i in reversed(slots):
        evord[i] |= later
        later |= 1 << (n - 1 - i) | evord[i]
    for x, r in enumerate(p.evord):
        for t in tgt:  # in event order: the first target after x
            if r >> (old - 1 - t) & 1:
                evord[x] |= evord[t] & started
                break
    labels = p.labels + tuple([loset[i] for i in sorted(positions)])
    target = p.target | frozenset(range(old, n))
    if merged:
        last = old - merged.bit_count()  # the first index of p's last group
        order = [*range(last), *(i for i in slots if i >= last)]
        return _renumber(labels, _mask(n, p.source), _mask(n, target), prec, evord, order)
    return Ipomset(labels, p.source, target, tuple(prec), tuple(evord))


# ---------------------------------------------------------------------------
# divisions


def enumerate_divisions(
    m: Ipomset, table: Optional[dict] = None
) -> frozenset[tuple[Ipomset, Ipomset]]:
    """All pairs (p, q) with p*q ≅ m.

    A division splits the events three ways: the left part (only in p), the
    glued interface, mid (p's target and q's source), and the right part
    (only in q).  Every gluing asks that mid be an antichain, every left
    event precede every right one, no mid event precede a left one, no
    right event precede a mid one, no source be on the right and no target
    on the left.  So D = left ∪ mid is a down-set holding m's sources, and
    mid lies within max(D) and holds F: D's targets and D's events outside
    B, the events below every right event.  Strict down-sets of an interval
    order are nested (Fishburn 1985) and the canonical order ranks events
    by down-set, so B is the down-set of the first event outside D, max(D)
    is D less the down-set of its last event, and D grows from m's sources
    by later events, in index order, each time up to the first event whose
    down-set is not in D.  So a walk on a stack meets each D once, and each
    set between F and max(D) is the mid of one division: a word of n events
    meets n+1 down-sets for its 2n+1 divisions, not 3^n splits.

    Every such split is a division, so none is glued back to check.  A
    restriction of an interval order is an interval order, so both parts
    are ipomsets: the interface is an antichain with no left event after it
    and no right event before it, so it is maximal in p and minimal in q,
    and m's sources stay minimal in p and its targets maximal in q.  Every
    left event precedes every right one, so every concurrent pair of m lies
    inside p or inside q, and the glue p*q has m's precedence and event
    order: it is m.

    Both parts know their canonical order, so each is one :func:`_restrict`
    of m.  The left part is down-closed and holds m's sources, so it keeps
    m's order, as in :func:`remove_targets`.  That body depends only on
    the down-set D = left ∪ mid, so it is built once per D, and each
    division sets only its target, a shared :func:`_eventset`: P's index
    of a mid event e is the number of events of D before e.  The right
    part starts with its sources, the interface, in event order.  The
    right events follow in m's order: each has every left event below it,
    so its down-set in q is its down-set in m minus the left part, which
    ranks them as m does.
    On a word of n events each body, right part and removal is a block of
    consecutive events, which :func:`_restrict` cuts with one shift per
    row: O(n) word operations per part, O(n²) over the 2n+1 divisions.

    Concurrency is inherited by both parts, and each part's event order is
    m's closed event order cut to its events, with no closure again.  An
    essential event-order path of m between two events of D that leaves D
    steps from an event of D to a right event and later back.  Both steps
    join concurrent events, and every left event precedes every right
    one, so the events of D at either end of the excursion are both in
    mid.  Mid is an antichain, so that pair is concurrent and ordered by
    m's event order: it is essential in m, and the path can skip the
    excursion.  The same holds for U = mid ∪ right, whose excursions go
    through left events.

    With a dict ``table``, a language's division table, each division
    (P, Q) looks P up once and adds Q to P's set of right parts.  A left
    part new to the table is entered as ``(tgt, removals, rights)``, from
    the first division that yields it (the first two depend on P alone):
    its target events, P's own indices of mid's events in event order; for
    each such e, ``None`` when e is a source and P−{e}
    (:func:`remove_targets`) otherwise; and an empty set.  Such an e
    is in mid, so it is maximal in D, and it is no source, so D−{e} is
    down-closed, holds m's sources and keeps m's canonical order, as
    :func:`remove_targets` argues.  P's event order is m's cut to D, by the
    excursion argument, and cutting it further to D−{e} drops only the
    pairs whose every essential path ran through e.  Unless e has both an
    essential predecessor and an essential successor in D, no such path
    exists, and P−{e} is the body of D−{e} with target mid−{e}.  Otherwise
    :func:`remove_targets` closes P's order again.
    """
    n = m.n
    full = (1 << n) - 1
    succ, evord = m.prec, m.evord
    pred, evpred = [*_transpose(succ), full], _transpose(evord)  # pred[n]: all events
    source, target = _mask(n, m.source), _mask(n, m.target)
    bodies: dict[int, tuple] = {}  # per D: p's fields, with no target

    def left_part(down: int, mid: int) -> Ipomset:
        body = bodies.get(down)
        if body is None:
            body = bodies[down] = _restrict(m.labels, source, 0, succ, evord, _events(n, down))
        labels, src, _, prec, ev = body
        tgt = 0  # in P's masks, the bit of a mid event e counts D's events after e
        for e in _events(n, mid):
            tgt |= 1 << (down & ((1 << (n - 1 - e)) - 1)).bit_count()
        return Ipomset(labels, src, _eventset(len(labels), tgt), prec, ev)

    def removed(p: Ipomset, down: int, mid: int, e: int, at: int) -> Optional[Ipomset]:
        bit = 1 << (n - 1 - e)
        if source & bit:
            return None
        near = down & ~pred[e]  # e and the events of D concurrent with it
        if evpred[e] & near and evord[e] & near:
            return remove_targets(p, [at])
        return left_part(down & ~bit, mid & ~bit)

    out: set[tuple[Ipomset, Ipomset]] = set()
    stack = [(len(m.source), source, len(m.source))]  # after D's last event, D, first not in D
    while stack:
        after, down, first = stack.pop()
        for x in range(after, n):  # a later event has a larger down-set: stop at the first miss
            if pred[x] & ~down:
                break
            stack.append((x + 1, down | 1 << (n - 1 - x), x + 1 if x == first else first))
        top = down & ~pred[after - 1]  # max(D); with D empty, pred[-1] is all events
        must = down & (target | ~pred[first])  # F: D's targets and its events outside B
        if must & ~top:
            continue
        free = sub = top & ~must
        rest = _events(n, full & ~down)  # the right events, in m's order
        for _ in range(1 << free.bit_count()):  # each sub ⊆ free, from free down to 0
            mid, sub = must | sub, (sub - 1) & free
            p = left_part(down, mid)
            tgt = _loset_sort(evord, mid)  # q's sources, in event order
            q = Ipomset(*_restrict(m.labels, mid, target, succ, evord, [*tgt, *rest]))
            out.add((p, q))
            if table is not None:
                entry = table.get(p)
                if entry is None:
                    at = tuple([(down >> (n - e)).bit_count() for e in tgt])  # P's index of e
                    rs = tuple([removed(p, down, mid, e, i) for e, i in zip(tgt, at)])
                    entry = table[p] = (at, rs, set())
                entry[2].add(q)
    return frozenset(out)


def sorted_ipomsets(xs: Iterable[Ipomset]) -> list[Ipomset]:
    return sorted(xs, key=Ipomset.sort_key)
