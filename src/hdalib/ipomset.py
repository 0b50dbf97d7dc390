"""Ipomsets: labelled interval posets with event order and interfaces.

Values of the central type :class:`Ipomset` are always kept in a canonical
form in which structural equality coincides with isomorphism.  Events are
indexed 0..n-1; ``prec`` and ``evord`` are strict-order boolean matrices;
``source`` and ``target`` hold the interface events.

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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import AxiomViolation, InterfaceMismatch, MalformedInterval, NotRemovable

Label = str
Loset = tuple[Label, ...]  # isomorphism class of a loset: labels in event order

Matrix = tuple[tuple[bool, ...], ...]

STARTER = "starter"
TERMINATOR = "terminator"


@dataclass(frozen=True)
class Ipomset:
    """A canonical ipomset.  Build through :func:`canonicalize` or the
    constructors below; direct instantiation skips validation."""

    labels: tuple[Label, ...]
    source: frozenset[int]
    target: frozenset[int]
    prec: Matrix
    evord: Matrix

    @property
    def n(self) -> int:
        return len(self.labels)

    def is_concurrent(self, i: int, j: int) -> bool:
        return i != j and not self.prec[i][j] and not self.prec[j][i]

    def source_events(self) -> tuple[int, ...]:
        """Source events in event order (the source interface loset)."""
        return _loset_sort(self.evord, self.source)

    def target_events(self) -> tuple[int, ...]:
        return _loset_sort(self.evord, self.target)

    def source_loset(self) -> Loset:
        return tuple(self.labels[i] for i in self.source_events())

    def target_loset(self) -> Loset:
        return tuple(self.labels[i] for i in self.target_events())

    def alphabet(self) -> frozenset[Label]:
        return frozenset(self.labels)

    def sort_key(self):
        """Deterministic total order on canonical ipomsets."""
        return (
            self.n,
            self.labels,
            tuple(sorted(self.source)),
            tuple(sorted(self.target)),
            self.prec,
            self.evord,
        )

    def __repr__(self) -> str:
        from .formats import ipomset_to_text

        return ipomset_to_text(self)


@dataclass(frozen=True)
class StarterTerminator:
    """A discrete step: start (U↑A) or terminate (U↓A) the events at the
    positions ``active`` of the loset ``loset``."""

    kind: str  # STARTER or TERMINATOR
    loset: Loset
    active: frozenset[int]

    def __post_init__(self):
        if self.kind not in (STARTER, TERMINATOR):
            raise ValueError(f"bad step kind {self.kind!r}")
        if not all(0 <= i < len(self.loset) for i in self.active):
            raise ValueError("active positions out of range")

    @property
    def source_loset(self) -> Loset:
        if self.kind == STARTER:
            return tuple(l for i, l in enumerate(self.loset) if i not in self.active)
        return self.loset

    @property
    def target_loset(self) -> Loset:
        if self.kind == TERMINATOR:
            return tuple(l for i, l in enumerate(self.loset) if i not in self.active)
        return self.loset

    def as_ipomset(self) -> Ipomset:
        return _discrete(self.kind, self.loset, self.active)

    def __repr__(self) -> str:
        arrow = "↑" if self.kind == STARTER else "↓"
        marked = "".join(
            l + ("'" if i in self.active else "") for i, l in enumerate(self.loset)
        )
        return f"({marked}){arrow}" + "".join(
            self.loset[i] for i in sorted(self.active)
        )


@dataclass(frozen=True)
class StepSequence:
    """A step decomposition: an initial loset followed by composable steps."""

    initial_loset: Loset
    steps: tuple[StarterTerminator, ...]

    @property
    def sparse(self) -> bool:
        kinds = [s.kind for s in self.steps]
        return all(a != b for a, b in zip(kinds, kinds[1:]))

    def compose(self) -> Ipomset:
        """Glue the steps back together (round-trip check for decompose)."""
        out = identity(self.initial_loset)
        for step in self.steps:
            out = glue(out, step.as_ipomset())
        return out


@dataclass(frozen=True)
class IntervalRow:
    """One event of an interval representation.  Row order doubles as the
    event-order rank for concurrent pairs."""

    event: str
    label: Label
    begin: Fraction
    end: Fraction
    left_closed: bool  # event belongs to the source interface
    right_closed: bool  # event belongs to the target interface


@dataclass(frozen=True)
class IntervalRep:
    rows: tuple[IntervalRow, ...]


# ---------------------------------------------------------------------------
# relation helpers


def _closure(n: int, pairs: set[tuple[int, int]]) -> list[list[bool]]:
    m = [[False] * n for _ in range(n)]
    for i, j in pairs:
        m[i][j] = True
    for k in range(n):
        mk = m[k]
        for i in range(n):
            if m[i][k]:
                mi = m[i]
                for j in range(n):
                    if mk[j]:
                        mi[j] = True
    return m


def _freeze(m: Sequence[Sequence[bool]]) -> Matrix:
    return tuple(tuple(row) for row in m)


def _loset_sort(evord: Sequence[Sequence[bool]], events: Iterable[int]) -> tuple[int, ...]:
    ev = list(events)
    # the events are pairwise concurrent, so evord orders them totally
    return tuple(sorted(ev, key=lambda i: sum(evord[j][i] for j in ev)))


def moments(n: int, prec: Sequence[Sequence[bool]]) -> list[frozenset[int]]:
    """The maximal antichains of an interval order, in temporal order.

    For interval orders the strict down-sets are nested; the maximal
    antichains are exactly {x : D(x) ⊆ D, x ∉ D} for each distinct
    down-set D, ordered by inclusion of D.

    Raises :class:`AxiomViolation` when the down-sets are not nested, which
    happens exactly when precedence contains a 2+2 (Fishburn 1985).
    """
    downs = [frozenset(j for j in range(n) if prec[j][i]) for i in range(n)]
    distinct = sorted(set(downs), key=len)
    for a, b in zip(distinct, distinct[1:]):
        if not a < b:
            raise AxiomViolation("precedence admits no interval representation (2+2)")
    return [
        frozenset(x for x in range(n) if downs[x] <= d and x not in d)
        for d in distinct
    ]


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
    Raises :class:`AxiomViolation` on cyclic orders, uncovered pairs,
    non-minimal sources, non-maximal targets, or a 2+2 obstruction.  The
    closed, checked relations then go to :func:`_renumber`.
    """
    labels = tuple(labels)
    n = len(labels)
    source = frozenset(source)
    target = frozenset(target)
    if any(not (0 <= i < n) for i in source | target):
        raise AxiomViolation("interface event out of range")
    prec_m = _closure(n, {(i, j) for i, j in prec})
    ev_m = _closure(n, {(i, j) for i, j in evord})
    for i in range(n):
        if prec_m[i][i]:
            raise AxiomViolation("cyclic precedence order")
        if ev_m[i][i]:
            raise AxiomViolation("cyclic event order")
    for i in range(n):
        for j in range(n):
            if i != j and not (
                prec_m[i][j] or prec_m[j][i] or ev_m[i][j] or ev_m[j][i]
            ):
                raise AxiomViolation(
                    f"events {i} and {j} unrelated by precedence and event order"
                )
    ants = moments(n, prec_m)
    for s in source:
        if any(prec_m[x][s] for x in range(n)):
            raise AxiomViolation("source event is not minimal")
    for t in target:
        if any(prec_m[t][x] for x in range(n)):
            raise AxiomViolation("target event is not maximal")
    return _renumber(labels, source, target, prec_m, ev_m, ants)


def _renumber(
    labels: tuple[Label, ...],
    source: frozenset[int],
    target: frozenset[int],
    prec_m: Sequence[Sequence[bool]],
    ev_m: Sequence[Sequence[bool]],
    ants: list[frozenset[int]],
) -> Ipomset:
    """The canonical form of an ipomset given by closed relations that
    satisfy the axioms, and by the :func:`moments` of its precedence:
    renumber the events into canonical order and keep only the closure of
    the essential event order."""
    n = len(labels)
    order = _canonical_order(ants, source, ev_m)
    pos = {old: new for new, old in enumerate(order)}
    new_labels = tuple(labels[i] for i in order)
    new_source = frozenset(pos[i] for i in source)
    new_target = frozenset(pos[i] for i in target)
    new_prec = [[prec_m[order[i]][order[j]] for j in range(n)] for i in range(n)]
    new_ev = [[ev_m[order[i]][order[j]] for j in range(n)] for i in range(n)]
    essential = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if new_ev[i][j] and not new_prec[i][j] and not new_prec[j][i]
    }
    return Ipomset(
        labels=new_labels,
        source=new_source,
        target=new_target,
        prec=_freeze(new_prec),
        evord=_freeze(_closure(n, essential)),
    )


def _canonical_order(ants, source, ev_m) -> list[int]:
    """Events grouped by the starter step that introduces them, each group
    sorted by event order.  Group 0 is the source interface."""
    groups: list[list[int]] = [sorted(source)]
    seen = set(source)
    for ant in ants:
        fresh = [x for x in ant if x not in seen]
        seen |= set(fresh)
        if fresh:
            groups.append(fresh)
    order: list[int] = []
    for g in groups:
        order.extend(_loset_sort(ev_m, g))
    return order


def _rebuild(
    p: Ipomset,
    keep: Iterable[int],
    source: Iterable[int],
    target: Iterable[int],
    extra_prec: Iterable[tuple[int, int]] = (),
) -> Ipomset:
    """Canonical form of the events ``keep`` of p with their precedence and
    event order, plus ``extra_prec``.  Every argument names events of p;
    interface events outside ``keep`` are dropped.

    Without ``extra_prec`` this is a restriction, and the caller vouches
    that its sources are minimal and its targets maximal in it.  It then
    goes straight to :func:`_renumber`: a restriction of a transitive
    relation is transitive, of an acyclic one acyclic, of an interval order
    an interval order, and every pair of kept events stays related.  Only
    the essential event order is recomputed there, since a pair of p's event
    order may have come through a dropped event.  With ``extra_prec`` the
    relations go through the closure and the checks of
    :func:`canonicalize`."""
    keep = sorted(keep)
    idx = {e: k for k, e in enumerate(keep)}
    labels = tuple(p.labels[e] for e in keep)
    src = [idx[e] for e in source if e in idx]
    tgt = [idx[e] for e in target if e in idx]
    extra_prec = list(extra_prec)
    if not extra_prec:
        prec_m = [[p.prec[a][b] for b in keep] for a in keep]
        ev_m = [[p.evord[a][b] for b in keep] for a in keep]
        ants = moments(len(keep), prec_m)
        return _renumber(labels, frozenset(src), frozenset(tgt), prec_m, ev_m, ants)
    prec = [(idx[a], idx[b]) for a in keep for b in keep if p.prec[a][b]]
    prec += [(idx[a], idx[b]) for a, b in extra_prec]
    return canonicalize(
        labels,
        src,
        tgt,
        prec,
        [(idx[a], idx[b]) for a in keep for b in keep if p.evord[a][b]],
    )


EMPTY = canonicalize(())


# ---------------------------------------------------------------------------
# constructors


def _discrete(kind: str, loset: Loset, active: Iterable[int]) -> Ipomset:
    """The discrete ipomset on ``loset`` whose events at positions ``active``
    start (STARTER) or terminate (TERMINATOR); all others span it."""
    n = len(loset)
    active = frozenset(active)
    if any(not (0 <= i < n) for i in active):
        raise AxiomViolation(f"{kind} positions out of range")
    every = range(n)
    rest = [i for i in every if i not in active]
    source, target = (rest, every) if kind == STARTER else (every, rest)
    return canonicalize(loset, source, target, (), itertools.combinations(every, 2))


def identity(loset: Loset) -> Ipomset:
    """The discrete ipomset id_U: every event in both interfaces."""
    return _discrete(STARTER, loset, ())


def starter(loset: Loset, active: Iterable[int]) -> Ipomset:
    """U↑A: the events at positions ``active`` start, the rest stay active."""
    return _discrete(STARTER, loset, active)


def terminator(loset: Loset, active: Iterable[int]) -> Ipomset:
    """U↓A: the events at positions ``active`` terminate."""
    return _discrete(TERMINATOR, loset, active)


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
    if sum(map(sum, p.prec)) < sum(map(sum, q.prec)):
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

    image: list[Optional[int]] = [None] * n
    used = [False] * n

    def ok(x: int, fx: int, assigned: list[int]) -> bool:
        if p.labels[x] != q.labels[fx]:
            return False
        if (x in p.source) != (fx in q.source) or (x in p.target) != (fx in q.target):
            return False
        if x in forced and forced[x] != fx:
            return False
        for y in assigned:
            fy = image[y]
            if (q.prec[fx][fy] and not p.prec[x][y]) or (
                q.prec[fy][fx] and not p.prec[y][x]
            ):
                return False
            if p.is_concurrent(x, y):
                if p.evord[x][y] and not q.evord[fx][fy]:
                    return False
                if p.evord[y][x] and not q.evord[fy][fx]:
                    return False
        return True

    def search(x: int, assigned: list[int]) -> bool:
        if x == n:
            return True
        for fx in range(n):
            if not used[fx] and ok(x, fx, assigned):
                image[x] = fx
                used[fx] = True
                if search(x + 1, assigned + [x]):
                    return True
                image[x] = None
                used[fx] = False
        return False

    if search(0, []):
        return tuple(image)  # type: ignore[arg-type]
    return None


def subsumes(p: Ipomset, q: Ipomset) -> bool:
    """Decide p ⊑ q (p refines q)."""
    return subsumes_witness(p, q) is not None


# ---------------------------------------------------------------------------
# gluing


def glue(p: Ipomset, q: Ipomset) -> Ipomset:
    """Serial composition p*q along T_p ≅ S_q.

    Raises :class:`InterfaceMismatch` when the interfaces do not match as
    losets, :class:`AxiomViolation` if the combined event order is cyclic.
    """
    pt = p.target_events()
    qs = q.source_events()
    if tuple(p.labels[i] for i in pt) != tuple(q.labels[i] for i in qs):
        raise InterfaceMismatch(
            f"target loset {p.target_loset()} does not match source loset "
            f"{q.source_loset()}"
        )
    qmap: dict[int, int] = {}
    for a, b in zip(pt, qs):
        qmap[b] = a
    fresh = p.n
    for j in range(q.n):
        if j not in qmap:
            qmap[j] = fresh
            fresh += 1
    n = fresh
    labels = list(p.labels) + [""] * (n - p.n)
    for j in range(q.n):
        labels[qmap[j]] = q.labels[j]
    prec = set()
    evord = set()
    for i in range(p.n):
        for j in range(p.n):
            if p.prec[i][j]:
                prec.add((i, j))
            if p.evord[i][j]:
                evord.add((i, j))
    for i in range(q.n):
        for j in range(q.n):
            if q.prec[i][j]:
                prec.add((qmap[i], qmap[j]))
            if q.evord[i][j]:
                evord.add((qmap[i], qmap[j]))
    p_interior = [i for i in range(p.n) if i not in p.target]
    q_interior = [qmap[j] for j in range(q.n) if j not in q.source]
    for i in p_interior:
        for j in q_interior:
            prec.add((i, j))
    return canonicalize(
        labels,
        p.source,
        (qmap[j] for j in q.target),
        prec,
        evord,
    )


def glue_all(parts: Iterable[Ipomset]) -> Ipomset:
    parts = list(parts)
    if not parts:
        return EMPTY
    out = parts[0]
    for nxt in parts[1:]:
        out = glue(out, nxt)
    return out


# ---------------------------------------------------------------------------
# sparse step decomposition


def sparse_decomposition(p: Ipomset) -> StepSequence:
    """The unique alternating starter/terminator decomposition of p."""
    ants = moments(p.n, p.prec)
    init = p.source_events()
    steps: list[StarterTerminator] = []

    def loset_of(events: tuple[int, ...]) -> Loset:
        return tuple(p.labels[i] for i in events)

    prev = init
    for ant in ants:
        cur = _loset_sort(p.evord, ant)
        gone = [i for i, e in enumerate(prev) if e not in ant]
        if gone:
            steps.append(StarterTerminator(TERMINATOR, loset_of(prev), frozenset(gone)))
        new = [i for i, e in enumerate(cur) if e not in prev]
        if new:
            steps.append(StarterTerminator(STARTER, loset_of(cur), frozenset(new)))
        prev = cur
    tail = [i for i, e in enumerate(prev) if e not in p.target]
    if tail:
        steps.append(StarterTerminator(TERMINATOR, loset_of(prev), frozenset(tail)))
    return StepSequence(initial_loset=loset_of(init), steps=tuple(steps))


# ---------------------------------------------------------------------------
# interval representations


def interval_representation(p: Ipomset) -> IntervalRep:
    """Integer-endpoint intervals read off the sparse decomposition.

    Rows come out in an event-order-compatible rank, so feeding the result
    back through :func:`from_intervals` reproduces p.
    """
    seq = sparse_decomposition(p)
    m = len(seq.steps)
    begin: dict[int, int] = {}
    end: dict[int, int] = {}
    active = list(p.source_events())
    for i in active:
        begin[i] = 0
    for k, step in enumerate(seq.steps, start=1):
        if step.kind == STARTER:
            # canonical numbering lists each starter group in loset order,
            # so the not-yet-begun events fill the active slots in sequence
            fresh = iter(e for e in range(p.n) if e not in begin)
            survivors = iter(active)
            rebuilt: list[int] = []
            for pos in range(len(step.loset)):
                if pos in step.active:
                    e = next(fresh)
                    begin[e] = k
                    rebuilt.append(e)
                else:
                    rebuilt.append(next(survivors))
            active = rebuilt
        else:
            for pos in sorted(step.active, reverse=True):
                end[active[pos]] = k
                del active[pos]
    for e in active:
        end[e] = m + 1
    rank = _evord_rank(p)
    rows = tuple(
        IntervalRow(
            event=f"e{e}",
            label=p.labels[e],
            begin=Fraction(begin[e]),
            end=Fraction(end[e]),
            left_closed=e in p.source,
            right_closed=e in p.target,
        )
        for e in rank
    )
    return IntervalRep(rows=rows)


def _evord_rank(p: Ipomset) -> list[int]:
    """Topological order of the event order, canonical index as tiebreak."""
    pending = {i: sum(1 for j in range(p.n) if p.evord[j][i]) for i in range(p.n)}
    out: list[int] = []
    ready = sorted(i for i, d in pending.items() if d == 0)
    while ready:
        x = ready.pop(0)
        out.append(x)
        for j in range(p.n):
            if p.evord[x][j]:
                pending[j] -= 1
                if pending[j] == 0:
                    ready.append(j)
        ready.sort()
    return out


def from_intervals(rep: IntervalRep) -> Ipomset:
    """Build the ipomset of an interval representation.

    Precedence is strict interval precedence (end(x) < begin(y)); event
    order on concurrent pairs follows row order; interfaces follow the
    closed flags.
    """
    rows = rep.rows
    for r in rows:
        if r.begin > r.end:
            raise MalformedInterval(f"event {r.event}: end before begin")
    n = len(rows)
    prec = [
        (i, j) for i in range(n) for j in range(n) if rows[i].end < rows[j].begin
    ]
    prec_set = set(prec)
    evord = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i < j and (i, j) not in prec_set and (j, i) not in prec_set
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


def refinements(p: Ipomset) -> frozenset[Ipomset]:
    """All ipomsets subsumed by p (p itself included).

    Fixpoint of single-pair precedence additions: orient one concurrent
    pair, close transitively, re-canonicalize, drop anything that violates
    the axioms.
    """
    seen = {p}
    todo = [p]
    while todo:
        for nxt in one_step_refinements(todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


def one_step_refinements(p: Ipomset) -> list[Ipomset]:
    """The ipomsets that orient one concurrent pair of p, in pair order and
    with repeats; pairs the axioms reject give none.  :func:`refinements` is
    their fixpoint."""
    n = p.n
    out = []
    for i in range(n):
        for j in range(n):
            if p.is_concurrent(i, j):
                try:
                    out.append(_rebuild(p, range(n), p.source, p.target, [(i, j)]))
                except AxiomViolation:
                    continue
    return out


def down_close(xs: Iterable[Ipomset]) -> frozenset[Ipomset]:
    """Downward subsumption closure of a finite set of ipomsets."""
    out: set[Ipomset] = set()
    for x in xs:
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
    active = frozenset(i for i, e in enumerate(tgt) if e not in p.source)
    return StarterTerminator(STARTER, tuple(p.labels[e] for e in tgt), active)


def remove_targets(p: Ipomset, events: Iterable[int]) -> Ipomset:
    """P − A: drop removable target events, keeping all other structure."""
    drop = frozenset(events)
    bad = drop - rfin_events(p)
    if bad:
        raise NotRemovable(f"events {sorted(bad)} are not removable targets")
    keep = [i for i in range(p.n) if i not in drop]
    return _rebuild(p, keep, p.source, p.target)


def remove_target_positions(p: Ipomset, positions: Iterable[int]) -> Ipomset:
    """P − A with A given as positions of the target loset.  A position
    outside the target loset is not removable (:class:`NotRemovable`)."""
    tgt = p.target_events()
    positions = frozenset(positions)
    bad = [i for i in positions if not 0 <= i < len(tgt)]
    if bad:
        raise NotRemovable(f"positions {sorted(bad)} are outside the target loset")
    return remove_targets(p, (tgt[i] for i in positions))


def clear_target_positions(p: Ipomset, positions: Iterable[int]) -> Ipomset:
    """P * (T_P ↓ A): terminate the target events at the given positions.

    This is p with those events dropped from its target, every other field
    unchanged.  Gluing the terminator adds no event (its every event is a
    source, glued onto a target of p), no precedence (it has no event
    outside its source) and no essential event order (its order is the
    target loset of p, already in p's event order); so the relations stay
    closed and valid, a smaller target stays maximal, and
    :func:`_canonical_order` never reads the targets.  Positions out of
    range raise :class:`AxiomViolation` as :func:`terminator` does.
    """
    tgt = p.target_events()
    positions = frozenset(positions)
    if any(not 0 <= i < len(tgt) for i in positions):
        raise AxiomViolation(f"{TERMINATOR} positions out of range")
    return replace(p, target=p.target - {tgt[i] for i in positions})


# ---------------------------------------------------------------------------
# divisions


def enumerate_divisions(m: Ipomset) -> frozenset[tuple[Ipomset, Ipomset]]:
    """All pairs (p, q) with p*q ≅ m.

    A division splits the events three ways: the left part (only in p), the
    glued interface (p's target and q's source) and the right part (only in
    q).  A backtracking search places the events one at a time, in index
    order, on one of the three sides, and drops a branch as soon as the new
    event breaks a constraint every gluing imposes with an event already
    placed: the interface is an antichain, every left event precedes every
    right event, no interface event precedes a left one, no right event
    precedes an interface one, no source event is on the right and no
    target event on the left.  The cost therefore follows the number of
    partial splits that survive pruning, not the 3^n splits of all events:
    a word of n events reaches only its 2n+1 divisions.

    Every complete split is a division, so none is glued back to check.  A
    restriction of an interval order is an interval order, so both parts
    are ipomsets: the interface is an antichain with no left event after it
    and no right event before it, so it is maximal in p and minimal in q,
    and m's sources stay minimal in p and its targets maximal in q.  Every
    left event precedes every right one, so every concurrent pair of m lies
    inside p or inside q, and the glue p*q has m's precedence and event
    order: it is m.
    """
    n = m.n
    pred = [sum(1 << a for a in range(n) if m.prec[a][e]) for e in range(n)]
    succ = [sum(1 << b for b in range(n) if m.prec[e][b]) for e in range(n)]
    out: set[tuple[Ipomset, Ipomset]] = set()

    def events(mask: int) -> list[int]:
        return [i for i in range(n) if mask >> i & 1]

    def place(e: int, left: int, mid: int, right: int) -> None:
        if e == n:
            lo, mi, hi = events(left), events(mid), events(right)
            out.add((_rebuild(m, lo + mi, m.source, mi), _rebuild(m, mi + hi, mi, m.target)))
            return
        bit = 1 << e
        if e not in m.target and not right & ~succ[e] and not mid & pred[e]:
            place(e + 1, left | bit, mid, right)
        if not mid & (pred[e] | succ[e]) and not left & succ[e] and not right & pred[e]:
            place(e + 1, left, mid | bit, right)
        if e not in m.source and not left & ~pred[e] and not mid & succ[e]:
            place(e + 1, left, mid, right | bit)

    place(0, 0, 0, 0)
    return frozenset(out)


def sorted_ipomsets(xs: Iterable[Ipomset]) -> list[Ipomset]:
    return sorted(xs, key=Ipomset.sort_key)
